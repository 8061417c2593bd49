//! `wdsparql-analyzer` — run the invariant lints over a source tree.
//!
//! ```text
//! wdsparql-analyzer [--check] [--strict-hatches] [--json <path>] [ROOT]
//! ```
//!
//! With no `ROOT`, the workspace containing this crate is scanned.
//! `--check` makes errors fatal (exit 1); without it the run is
//! informational and always exits 0. Warnings (`unused-hatch`) never
//! fail `--check` unless `--strict-hatches` promotes them. `--json
//! <path>` additionally writes the findings as a machine-readable
//! report whose shape is pinned by `crates/analyzer/report-schema.json`
//! (`schema` field, versioned — CI validates every report against it).

#![forbid(unsafe_code)]

use std::path::PathBuf;
use std::process::ExitCode;
use wdsparql_analyzer::lints::{self, Finding, Severity};

/// Version of the JSON report shape; bump together with
/// `report-schema.json`.
const REPORT_SCHEMA: u32 = 1;

fn main() -> ExitCode {
    let mut check = false;
    let mut strict_hatches = false;
    let mut json_path: Option<PathBuf> = None;
    let mut root: Option<PathBuf> = None;
    let mut args = std::env::args().skip(1);
    while let Some(arg) = args.next() {
        match arg.as_str() {
            "--check" => check = true,
            "--strict-hatches" => strict_hatches = true,
            "--json" => match args.next() {
                Some(p) => json_path = Some(PathBuf::from(p)),
                None => return usage("--json needs a path"),
            },
            "--help" | "-h" => {
                println!(
                    "usage: wdsparql-analyzer [--check] [--strict-hatches] [--json <path>] [ROOT]"
                );
                return ExitCode::SUCCESS;
            }
            other if !other.starts_with('-') && root.is_none() => {
                root = Some(PathBuf::from(other));
            }
            other => return usage(&format!("unrecognized argument `{other}`")),
        }
    }
    let root = match root {
        Some(r) => r,
        None => match workspace_root() {
            Some(r) => r,
            None => {
                eprintln!("error: cannot locate the workspace root; pass ROOT explicitly");
                return ExitCode::from(2);
            }
        },
    };
    let findings = match lints::scan_root(&root) {
        Ok(f) => f,
        Err(e) => {
            eprintln!("error: scanning {}: {e}", root.display());
            return ExitCode::from(2);
        }
    };
    for f in &findings {
        println!("{f}");
    }
    if let Some(path) = json_path {
        if let Err(e) = std::fs::write(&path, render_json(&findings)) {
            eprintln!("error: writing {}: {e}", path.display());
            return ExitCode::from(2);
        }
    }
    let errors = count(&findings, Severity::Error);
    let warnings = count(&findings, Severity::Warning);
    if findings.is_empty() {
        println!("analyzer: clean ({})", root.display());
        ExitCode::SUCCESS
    } else {
        println!(
            "analyzer: {errors} error(s), {warnings} warning(s) in {}",
            root.display()
        );
        if check && (errors > 0 || (strict_hatches && warnings > 0)) {
            ExitCode::FAILURE
        } else {
            ExitCode::SUCCESS
        }
    }
}

fn count(findings: &[Finding], severity: Severity) -> usize {
    findings.iter().filter(|f| f.severity == severity).count()
}

fn usage(msg: &str) -> ExitCode {
    eprintln!("error: {msg}");
    eprintln!("usage: wdsparql-analyzer [--check] [--strict-hatches] [--json <path>] [ROOT]");
    ExitCode::from(2)
}

/// The workspace this binary was built from: two levels up from the
/// crate's manifest, validated by the presence of a `Cargo.toml`.
/// Falls back to the current directory when the build tree has moved.
fn workspace_root() -> Option<PathBuf> {
    let compiled = PathBuf::from(env!("CARGO_MANIFEST_DIR"));
    if let Some(ws) = compiled.ancestors().nth(2) {
        if ws.join("Cargo.toml").is_file() {
            return Some(ws.to_path_buf());
        }
    }
    let cwd = std::env::current_dir().ok()?;
    cwd.join("Cargo.toml").is_file().then_some(cwd)
}

/// The versioned JSON report: a `schema` marker, error/warning totals,
/// and the findings. Hand-rolled — the workspace has no serde and the
/// shape is pinned by `report-schema.json`.
fn render_json(findings: &[Finding]) -> String {
    let mut out = format!(
        "{{\n  \"schema\": {REPORT_SCHEMA},\n  \"summary\": {{\"errors\": {}, \"warnings\": {}}},\n  \"findings\": [\n",
        count(findings, Severity::Error),
        count(findings, Severity::Warning)
    );
    for (i, f) in findings.iter().enumerate() {
        out.push_str(&format!(
            "    {{\"lint\": \"{}\", \"severity\": \"{}\", \"file\": \"{}\", \"line\": {}, \
             \"message\": \"{}\"}}{}\n",
            escape(f.lint),
            f.severity.as_str(),
            escape(&f.file),
            f.line,
            escape(&f.message),
            if i + 1 < findings.len() { "," } else { "" }
        ));
    }
    out.push_str("  ]\n}\n");
    out
}

fn escape(s: &str) -> String {
    let mut out = String::with_capacity(s.len());
    for c in s.chars() {
        match c {
            '"' => out.push_str("\\\""),
            '\\' => out.push_str("\\\\"),
            '\n' => out.push_str("\\n"),
            '\t' => out.push_str("\\t"),
            c if (c as u32) < 0x20 => out.push_str(&format!("\\u{:04x}", c as u32)),
            c => out.push(c),
        }
    }
    out
}
