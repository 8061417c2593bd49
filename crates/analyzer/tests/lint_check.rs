//! End-to-end tests of the lint pass: the library API against the
//! seeded violation fixture, and the `wdsparql-analyzer` binary's exit
//! codes on both the fixture (must fail) and the real workspace (must
//! stay clean — this is the same gate CI runs).

use std::collections::BTreeMap;
use std::path::{Path, PathBuf};
use std::process::Command;
use wdsparql_analyzer::lints;

fn fixture_root() -> PathBuf {
    Path::new(env!("CARGO_MANIFEST_DIR")).join("tests/fixtures")
}

fn workspace_root() -> PathBuf {
    Path::new(env!("CARGO_MANIFEST_DIR"))
        .ancestors()
        .nth(2)
        .expect("crate lives at <ws>/crates/analyzer")
        .to_path_buf()
}

/// The fixture marks every line that must be flagged with a
/// `VIOLATION(<lint>)` comment; the scan must produce exactly those
/// findings — same lint, same line, nothing extra.
#[test]
fn fixture_findings_match_the_seeded_markers() {
    let root = fixture_root();
    let mut expected: BTreeMap<(String, String, u32), ()> = BTreeMap::new();
    for rel in [
        "store/src/service.rs",
        "store/src/join.rs",
        "store/src/persist.rs",
    ] {
        let src = std::fs::read_to_string(root.join(rel)).expect("fixture exists");
        for (i, line) in src.lines().enumerate() {
            if let Some(pos) = line.find("VIOLATION(") {
                let rest = &line[pos + "VIOLATION(".len()..];
                let lint = rest[..rest.find(')').expect("marker closes")].to_string();
                // A marker inside a doc comment refers to the item below it.
                let at = if line.trim_start().starts_with("///") {
                    i as u32 + 2
                } else {
                    i as u32 + 1
                };
                expected.insert((rel.to_string(), lint, at), ());
            }
        }
    }
    assert_eq!(
        expected.len(),
        8,
        "one marker per lint, plus the two budget-checkpoint loop shapes"
    );

    let findings = lints::scan_root(&root).expect("scan succeeds");
    let got: BTreeMap<(String, String, u32), ()> = findings
        .iter()
        .map(|f| ((f.file.clone(), f.lint.to_string(), f.line), ()))
        .collect();
    assert_eq!(
        got, expected,
        "findings must match the seeded markers exactly; raw: {findings:#?}"
    );
}

#[test]
fn binary_fails_on_the_fixture_with_file_line_diagnostics() {
    let out = Command::new(env!("CARGO_BIN_EXE_wdsparql-analyzer"))
        .arg("--check")
        .arg(fixture_root())
        .output()
        .expect("binary runs");
    assert_eq!(out.status.code(), Some(1), "violations exit nonzero");
    let stdout = String::from_utf8_lossy(&out.stdout);
    assert!(
        stdout.contains("store/src/service.rs:"),
        "diagnostics carry file:line, got:\n{stdout}"
    );
    assert!(stdout.contains("[no-unwrap-in-service]"), "{stdout}");
    assert!(stdout.contains("[one-snapshot-per-path]"), "{stdout}");
    assert!(stdout.contains("[relaxed-ok-comment]"), "{stdout}");
    assert!(stdout.contains("[must-use-snapshot]"), "{stdout}");
    assert!(stdout.contains("[budget-checkpoint]"), "{stdout}");
    assert!(stdout.contains("[io-ordering]"), "{stdout}");
    assert!(stdout.contains("[unused-hatch] warning:"), "{stdout}");
    assert!(
        stdout.contains("store/src/join.rs:"),
        "budget findings carry file:line, got:\n{stdout}"
    );
}

#[test]
fn binary_passes_on_the_workspace() {
    let out = Command::new(env!("CARGO_BIN_EXE_wdsparql-analyzer"))
        .arg("--check")
        .arg(workspace_root())
        .output()
        .expect("binary runs");
    let stdout = String::from_utf8_lossy(&out.stdout);
    assert_eq!(
        out.status.code(),
        Some(0),
        "the workspace must stay lint-clean, got:\n{stdout}"
    );
}

/// The `io-ordering` scope must cover the real persist module. The
/// scope once listed planned single-file paths; now that the durable
/// store exists as a module tree, a scope that silently missed
/// `store/src/persist/*.rs` would let the publish-after-sync rule rot
/// on exactly the code it was written for. Matching is by substring,
/// so one fragment covers both the fixture's `store/src/persist.rs`
/// and every file of the real module. (That the workspace then stays
/// clean *with* those files in scope is what
/// `binary_passes_on_the_workspace` pins — the persist module's
/// rename hatches are consumed there, so a stale scope would resurface
/// as unused-hatch warnings.)
#[test]
fn io_ordering_scope_covers_the_real_persist_module() {
    let ws = workspace_root();
    let persist_dir = ws.join("crates/store/src/persist");
    let entries: Vec<String> = std::fs::read_dir(&persist_dir)
        .expect("the durable store module exists")
        .map(|e| {
            let p = e.expect("dir entry").path();
            p.strip_prefix(&ws)
                .expect("under the workspace")
                .display()
                .to_string()
        })
        .collect();
    assert!(
        entries.iter().any(|p| p.ends_with("mod.rs")),
        "persist module files present, got {entries:?}"
    );
    for rel in &entries {
        assert!(
            lints::in_scope(lints::IO_ORDERING, rel),
            "{rel} must be inside the io-ordering scope"
        );
    }
    // The seeded fixture file must stay in scope under the same
    // fragments, or `fixture_findings_match_the_seeded_markers` would
    // silently stop exercising the io-ordering rule.
    assert!(lints::in_scope(lints::IO_ORDERING, "store/src/persist.rs"));
}

/// The shared BGP request path (`store/src/bgp.rs`: every query entry
/// point of both services runs through it) must sit inside the
/// service-layer scopes, or `no-unwrap-in-service` and
/// `budget-checkpoint` go blind on exactly the code they were written
/// for: a seeded `unwrap()` and an unjustified loop at that path must
/// both be flagged.
#[test]
fn service_scopes_cover_the_shared_bgp_request_path() {
    let rel = "crates/store/src/bgp.rs";
    assert!(
        workspace_root().join(rel).is_file(),
        "the shared request path moved: re-point the scopes and this test"
    );
    let seeded = "pub(crate) fn serve(rows: Option<u64>) -> u64 {\n\
                  \x20   loop {\n\
                  \x20       if done() { break; }\n\
                  \x20   }\n\
                  \x20   rows.unwrap()\n\
                  }\n";
    let lints: Vec<(&str, u32)> = lints::scan_source(rel, seeded)
        .iter()
        .map(|f| (f.lint, f.line))
        .collect();
    assert_eq!(
        lints,
        [(lints::BUDGET_CHECKPOINT, 2), (lints::NO_UNWRAP, 5)],
        "both seeded violations flagged, nothing else"
    );
}

#[test]
fn json_report_is_written_and_shaped() {
    let dir = std::env::temp_dir().join("wdsparql-analyzer-test-report");
    std::fs::create_dir_all(&dir).expect("temp dir");
    let path = dir.join("report.json");
    let out = Command::new(env!("CARGO_BIN_EXE_wdsparql-analyzer"))
        .arg("--json")
        .arg(&path)
        .arg(fixture_root())
        .output()
        .expect("binary runs");
    // Without --check, violations are informational: exit 0.
    assert_eq!(out.status.code(), Some(0));
    let json = std::fs::read_to_string(&path).expect("report written");
    assert!(json.trim_start().starts_with('{'), "{json}");
    assert!(json.contains("\"schema\": 1"), "{json}");
    assert!(json.contains("\"summary\": "), "{json}");
    assert!(json.contains("\"errors\": 7"), "{json}");
    assert!(json.contains("\"warnings\": 1"), "{json}");
    assert!(
        json.contains("\"lint\": \"no-unwrap-in-service\""),
        "{json}"
    );
    assert!(json.contains("\"severity\": \"error\""), "{json}");
    assert!(json.contains("\"severity\": \"warning\""), "{json}");
    assert!(
        json.contains("\"file\": \"store/src/service.rs\""),
        "{json}"
    );
    assert!(json.contains("\"line\": "), "{json}");
    let _ = std::fs::remove_file(&path);
}

/// `unused-hatch` is advisory by default and fatal under
/// `--strict-hatches`: the same warning-only tree passes plain
/// `--check` and fails the strict one.
#[test]
fn strict_hatches_promotes_warnings_to_failures() {
    let dir = std::env::temp_dir().join("wdsparql-analyzer-test-strict");
    let src_dir = dir.join("store/src");
    std::fs::create_dir_all(&src_dir).expect("temp tree");
    std::fs::write(
        src_dir.join("service.rs"),
        "pub fn fixed(x: Option<u64>) -> u64 {\n\
         \x20   // analyzer-allow: no-unwrap-in-service the caller checked\n\
         \x20   x.unwrap_or(0)\n\
         }\n",
    )
    .expect("fixture written");
    let run = |strict: bool| {
        let mut cmd = Command::new(env!("CARGO_BIN_EXE_wdsparql-analyzer"));
        cmd.arg("--check");
        if strict {
            cmd.arg("--strict-hatches");
        }
        cmd.arg(&dir).output().expect("binary runs")
    };
    let lax = run(false);
    assert_eq!(
        lax.status.code(),
        Some(0),
        "warnings alone pass --check:\n{}",
        String::from_utf8_lossy(&lax.stdout)
    );
    let stdout = String::from_utf8_lossy(&lax.stdout);
    assert!(stdout.contains("[unused-hatch] warning:"), "{stdout}");
    let strict = run(true);
    assert_eq!(
        strict.status.code(),
        Some(1),
        "--strict-hatches makes the stale hatch fatal:\n{}",
        String::from_utf8_lossy(&strict.stdout)
    );
    let _ = std::fs::remove_dir_all(&dir);
}
