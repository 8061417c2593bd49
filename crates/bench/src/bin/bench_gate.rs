//! bench_gate — the CI regression gate over `BENCH_*.json` baselines:
//! compares a freshly measured bench JSON against a committed baseline
//! and fails (exit 1) when a gated group's geometric-mean latency ratio
//! exceeds the threshold.
//!
//! ```text
//! bench_gate <baseline.json> <current.json> [--prefix store_scan/] [--max-ratio 1.05]
//! ```
//!
//! Without `--prefix` every group of the fresh file — the text before
//! the first `/` of a row name — is gated on its own, so a regression in
//! one group cannot hide behind an improvement in another; `--prefix`
//! gates the rows under that prefix as one group instead. A fresh row
//! without a baseline is reported and skipped (new benches are not
//! regressions), but a baseline row of a gated group that the fresh run
//! did not produce fails the gate: a renamed or dropped row would
//! otherwise leave it blind. Baseline groups the fresh file does not
//! touch at all are ignored — several bench targets share one baseline
//! file. The gate is the geometric mean over a group's matched rows, not
//! any single row — single-row jitter on a shared CI runner is noise, a
//! uniform shift across a whole group is a regression.

#![forbid(unsafe_code)]

use std::collections::{BTreeMap, BTreeSet};
use std::process::ExitCode;

fn main() -> ExitCode {
    match run(&std::env::args().skip(1).collect::<Vec<_>>()) {
        Ok(regressed) => {
            if regressed {
                ExitCode::FAILURE
            } else {
                ExitCode::SUCCESS
            }
        }
        Err(msg) => {
            eprintln!("error: {msg}");
            eprintln!();
            eprintln!(
                "usage: bench_gate <baseline.json> <current.json> \
                 [--prefix <group/>] [--max-ratio <r>]"
            );
            ExitCode::FAILURE
        }
    }
}

fn run(args: &[String]) -> Result<bool, String> {
    let mut prefix: Option<String> = None;
    let mut max_ratio = 1.05f64;
    let mut positional: Vec<&String> = Vec::new();
    let mut it = args.iter();
    while let Some(arg) = it.next() {
        match arg.as_str() {
            "--prefix" => prefix = Some(it.next().ok_or("--prefix needs a value")?.clone()),
            "--max-ratio" => {
                max_ratio = it
                    .next()
                    .ok_or("--max-ratio needs a value")?
                    .parse::<f64>()
                    .map_err(|e| format!("--max-ratio: {e}"))?;
            }
            _ => positional.push(arg),
        }
    }
    let [baseline_path, current_path] = positional.as_slice() else {
        return Err("expected exactly two json paths".into());
    };
    let baseline = load_medians(baseline_path)?;
    let current = load_medians(current_path)?;
    // The gated groups, each as the name prefix that selects its rows.
    let groups: BTreeSet<String> = match prefix {
        Some(p) => BTreeSet::from([p]),
        None => current.keys().map(|name| group_prefix(name)).collect(),
    };
    let mut failed = false;
    for group in &groups {
        failed |= gate_group(&baseline, &current, group, max_ratio)?;
    }
    Ok(failed)
}

/// A row's group as a prefix: its name through the first `/`.
fn group_prefix(name: &str) -> String {
    match name.split_once('/') {
        Some((group, _)) => format!("{group}/"),
        None => name.to_string(),
    }
}

/// Gates the rows under `prefix` as one group; `Ok(true)` when it
/// regressed or lost a baseline row.
fn gate_group(
    baseline: &BTreeMap<String, u128>,
    current: &BTreeMap<String, u128>,
    prefix: &str,
    max_ratio: f64,
) -> Result<bool, String> {
    let mut log_ratio_sum = 0.0f64;
    let mut matched = 0usize;
    for (name, &cur) in current.iter().filter(|(n, _)| n.starts_with(prefix)) {
        let Some(&base) = baseline.get(name) else {
            println!("  new   {name}: {cur} ns (no baseline)");
            continue;
        };
        let ratio = cur as f64 / base as f64;
        println!("  {ratio:>5.2}x {name}: {base} -> {cur} ns");
        log_ratio_sum += ratio.ln();
        matched += 1;
    }
    if matched == 0 {
        return Err(format!(
            "no entries matching prefix {prefix:?} in both files"
        ));
    }
    let gone = baseline
        .iter()
        .filter(|(name, _)| name.starts_with(prefix) && !current.contains_key(*name))
        .inspect(|(name, base)| {
            println!("  gone  {name}: {base} ns (baseline row absent from the fresh run)")
        })
        .count();
    let geomean = (log_ratio_sum / matched as f64).exp();
    let regressed = geomean > max_ratio;
    println!(
        "bench_gate: {matched} entr{} under {prefix:?}, geometric mean {geomean:.3}x \
         (threshold {max_ratio:.2}x) -> {}",
        if matched == 1 { "y" } else { "ies" },
        if regressed {
            "REGRESSED"
        } else if gone > 0 {
            "BASELINE ROWS MISSING"
        } else {
            "ok"
        }
    );
    Ok(regressed || gone > 0)
}

/// `name -> median_ns` for every entry line of a `BENCH_*.json` file.
/// The format is the vendored criterion's line-oriented JSON: one entry
/// object per line with `"name"` and `"median_ns"` fields.
fn load_medians(path: &str) -> Result<BTreeMap<String, u128>, String> {
    let doc = std::fs::read_to_string(path).map_err(|e| format!("{path}: {e}"))?;
    let mut out = BTreeMap::new();
    for line in doc.lines() {
        let Some(name) = str_field(line, "name") else {
            continue;
        };
        let Some(median) = int_field(line, "median_ns") else {
            continue;
        };
        out.insert(name, median);
    }
    if out.is_empty() {
        return Err(format!("{path}: no bench entries found"));
    }
    Ok(out)
}

fn str_field(line: &str, key: &str) -> Option<String> {
    let (_, rest) = line.split_once(&format!("\"{key}\":"))?;
    let rest = rest.trim_start();
    let rest = rest.strip_prefix('"')?;
    Some(rest[..rest.find('"')?].to_string())
}

fn int_field(line: &str, key: &str) -> Option<u128> {
    let (_, rest) = line.split_once(&format!("\"{key}\":"))?;
    let digits: String = rest
        .trim_start()
        .chars()
        .take_while(char::is_ascii_digit)
        .collect();
    digits.parse().ok()
}

#[cfg(test)]
mod tests {
    use super::*;

    fn fixture(dir: &str, name: &str, body: &str) -> String {
        let d = std::env::temp_dir().join(dir);
        std::fs::create_dir_all(&d).unwrap();
        let p = d.join(name);
        std::fs::write(&p, body).unwrap();
        p.to_string_lossy().into_owned()
    }

    const BASE: &str = r#"{
  "targets": ["store_scan"],
  "entries": [
    {"name": "store_scan/a", "median_ns": 100, "samples": 10},
    {"name": "store_scan/b", "median_ns": 200, "samples": 10},
    {"name": "other/x", "median_ns": 50, "samples": 10}
  ]
}"#;

    #[test]
    fn within_threshold_passes() {
        let b = fixture("bench-gate-ok", "base.json", BASE);
        let cur = BASE.replace("\"median_ns\": 100", "\"median_ns\": 103");
        let c = fixture("bench-gate-ok", "cur.json", &cur);
        let args: Vec<String> = [&b, &c, "--prefix", "store_scan/"]
            .iter()
            .map(|s| s.to_string())
            .collect();
        assert_eq!(run(&args), Ok(false));
    }

    #[test]
    fn uniform_regression_fails() {
        let b = fixture("bench-gate-bad", "base.json", BASE);
        let cur = BASE
            .replace("\"median_ns\": 100", "\"median_ns\": 120")
            .replace("\"median_ns\": 200", "\"median_ns\": 240");
        let c = fixture("bench-gate-bad", "cur.json", &cur);
        let args: Vec<String> = [&b, &c, "--prefix", "store_scan/"]
            .iter()
            .map(|s| s.to_string())
            .collect();
        assert_eq!(run(&args), Ok(true));
    }

    #[test]
    fn prefix_scopes_the_gate_and_new_entries_are_ignored() {
        let b = fixture("bench-gate-scope", "base.json", BASE);
        // `other/x` regresses 10x, but the store_scan prefix ignores it;
        // a brand-new entry has no baseline and is skipped.
        let cur = BASE
            .replace("\"median_ns\": 50", "\"median_ns\": 500")
            .replace(
                "{\"name\": \"store_scan/b\", \"median_ns\": 200, \"samples\": 10},",
                "{\"name\": \"store_scan/b\", \"median_ns\": 200, \"samples\": 10},\n    \
             {\"name\": \"store_scan/new\", \"median_ns\": 999, \"samples\": 10},",
            );
        let c = fixture("bench-gate-scope", "cur.json", &cur);
        let args: Vec<String> = [&b, &c, "--prefix", "store_scan/"]
            .iter()
            .map(|s| s.to_string())
            .collect();
        assert_eq!(run(&args), Ok(false));
        // No prefix: every group is gated, and the other/x blowup trips it.
        let args: Vec<String> = [&b, &c].iter().map(|s| s.to_string()).collect();
        assert_eq!(run(&args), Ok(true));
    }

    #[test]
    fn groups_are_gated_separately_without_a_prefix() {
        let b = fixture("bench-gate-groups", "base.json", BASE);
        // store_scan doubles while other/x drops to a tenth: the mean
        // over all three rows is 0.74x, yet the store_scan group alone
        // is at 2x.
        let cur = BASE
            .replace("\"median_ns\": 200", "\"median_ns\": 400")
            .replace("\"median_ns\": 100", "\"median_ns\": 200")
            .replace("\"median_ns\": 50", "\"median_ns\": 5");
        let c = fixture("bench-gate-groups", "cur.json", &cur);
        let args = |extra: &[&str]| -> Vec<String> {
            [b.as_str(), c.as_str()]
                .iter()
                .chain(extra)
                .map(|s| s.to_string())
                .collect()
        };
        assert_eq!(run(&args(&["--max-ratio", "1.5"])), Ok(true));
        assert_eq!(
            run(&args(&["--max-ratio", "1.5", "--prefix", ""])),
            Ok(false)
        );
        assert_eq!(run(&args(&["--max-ratio", "2.5"])), Ok(false));
    }

    #[test]
    fn a_dropped_baseline_row_fails_its_group_only() {
        let b = fixture("bench-gate-gone", "base.json", BASE);
        // The fresh run lost store_scan/b (renamed, say): nothing it
        // measured is slower, and the gate still fails.
        let renamed = BASE.replace("store_scan/b", "store_scan/b2");
        let c = fixture("bench-gate-gone", "renamed.json", &renamed);
        assert_eq!(run(&[b.clone(), c.clone()]), Ok(true));
        let scoped = |p: &str| vec![b.clone(), c.clone(), "--prefix".into(), p.into()];
        assert_eq!(run(&scoped("store_scan/")), Ok(true));
        assert_eq!(run(&scoped("other/")), Ok(false));
        // A baseline group the fresh file does not touch at all is not
        // gated: bench targets share one baseline file.
        let one_target = BASE.replace(
            ",\n    {\"name\": \"other/x\", \"median_ns\": 50, \"samples\": 10}",
            "",
        );
        assert!(!one_target.contains("other/x"));
        let c = fixture("bench-gate-gone", "one_target.json", &one_target);
        assert_eq!(run(&[b, c]), Ok(false));
    }

    #[test]
    fn missing_or_empty_files_error() {
        assert!(run(&["/nonexistent.json".to_string(), "/also.json".to_string()]).is_err());
        let e = fixture("bench-gate-empty", "empty.json", "{}");
        assert!(run(&[e.clone(), e]).is_err());
    }
}
