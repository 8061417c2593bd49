//! `wdbench suite`: every workload in a process of its own, the metric
//! table, `out/results.json`, and — with `--repeat N` — the run-to-run
//! spread of each end-to-end metric held against its bound.

use crate::metrics::{END_TO_END, PER_LAYER, WORKLOADS};
use crate::stats::{relative_spread, sorted};
use std::collections::BTreeMap;
use std::path::PathBuf;
use std::process::{Command, ExitCode, Stdio};

/// `metric → (value, unit)` of one workload process.
type Metrics = BTreeMap<String, (f64, String)>;

struct Run {
    workload: &'static str,
    traced: bool,
    set: usize,
    metrics: Metrics,
}

fn capture(program: &str, args: &[&str]) -> String {
    Command::new(program)
        .args(args)
        .stderr(Stdio::null())
        .output()
        .ok()
        .filter(|o| o.status.success())
        .map_or("unknown".into(), |o| {
            String::from_utf8_lossy(&o.stdout).trim().to_string()
        })
}

/// Runs one workload process, echoing its lines; `None` if it failed.
fn run_workload(workload: &str, traced: bool, pass: &[String]) -> Option<Metrics> {
    let exe = std::env::current_exe().expect("path of this executable");
    let out = Command::new(exe)
        .args([
            "--workload",
            workload,
            "--trace",
            if traced { "1" } else { "0" },
        ])
        .args(pass)
        .stderr(Stdio::inherit())
        .output()
        .expect("spawn a workload process");
    let stdout = String::from_utf8_lossy(&out.stdout);
    let mut metrics = Metrics::new();
    for line in stdout.lines().filter(|l| !l.starts_with('{')) {
        println!("{line}");
        // `workload metric value unit`
        if let [w, name, value, unit] = line.split(' ').collect::<Vec<_>>()[..] {
            if let (true, Ok(v)) = (w == workload, value.parse::<f64>()) {
                metrics.insert(name.to_string(), (v, unit.to_string()));
            }
        }
    }
    let correct = stdout
        .lines()
        .last()
        .is_some_and(|l| l.starts_with("{\"correct\": true"));
    (out.status.success() && correct).then_some(metrics)
}

fn results_json(seed: &str, runs: &[Run]) -> String {
    let mut s = String::from("{\n");
    s += &format!("  \"seed\": {seed},\n");
    s += &format!(
        "  \"nproc\": {},\n",
        std::thread::available_parallelism().map_or(0, |n| n.get())
    );
    s += &format!("  \"rustc\": \"{}\",\n", capture("rustc", &["-V"]));
    s += &format!(
        "  \"git_revision\": \"{}\",\n",
        capture("git", &["rev-parse", "HEAD"])
    );
    let load = std::fs::read_to_string("/proc/loadavg").unwrap_or_default();
    s += &format!("  \"loadavg\": \"{}\",\n", load.trim());
    s += "  \"runs\": [\n";
    for (i, r) in runs.iter().enumerate() {
        let metrics: Vec<String> = r
            .metrics
            .iter()
            .map(|(k, (v, u))| format!("\"{k}\": {{\"value\": {v}, \"unit\": \"{u}\"}}"))
            .collect();
        s += &format!(
            "    {{\"workload\": \"{}\", \"trace\": {}, \"set\": {}, \"metrics\": {{{}}}}}{}\n",
            r.workload,
            r.traced as u8,
            r.set,
            metrics.join(", "),
            if i + 1 < runs.len() { "," } else { "" }
        );
    }
    s + "  ]\n}\n"
}

/// With fewer than four sets the quartiles are not defined usefully: the
/// full range over the median stands in for them.
fn spread(values: &[f64]) -> f64 {
    if values.len() >= 4 {
        return relative_spread(values);
    }
    let s = sorted(values.to_vec());
    (s[s.len() - 1] - s[0]) / s[s.len() / 2].abs()
}

pub fn main(argv: &[String]) -> ExitCode {
    let (mut repeat, mut traced, mut seed) = (1usize, false, "42".to_string());
    let mut out = PathBuf::from("benchmark/out");
    let mut pass: Vec<String> = Vec::new();
    let mut it = argv.iter();
    while let Some(flag) = it.next() {
        let flag = flag.as_str();
        if flag == "--trace" {
            traced = true;
        } else if flag == "--smoke" {
            pass.push(flag.to_string());
        } else if ["--repeat", "--seed", "--seconds", "--out", "--cli"].contains(&flag) {
            let Some(v) = it.next() else {
                eprintln!("error: {flag} needs a value");
                return ExitCode::from(2);
            };
            match (flag, v.parse::<usize>()) {
                ("--repeat", Ok(n)) if n >= 1 => repeat = n,
                ("--repeat", _) => {
                    eprintln!("error: --repeat: bad value {v:?}");
                    return ExitCode::from(2);
                }
                // Everything else is the workload processes' to check.
                _ => pass.extend([flag.to_string(), v.clone()]),
            }
            match flag {
                "--seed" => seed = v.clone(),
                "--out" => out = PathBuf::from(v),
                _ => {}
            }
        } else {
            eprintln!("error: unknown argument {flag:?}");
            return ExitCode::from(2);
        }
    }

    let mut runs: Vec<Run> = Vec::new();
    let mut ok = true;
    for set in 0..repeat {
        for w in &WORKLOADS {
            for t in [false, true] {
                if t && !traced {
                    continue;
                }
                match run_workload(w.name, t, &pass) {
                    Some(metrics) => runs.push(Run {
                        workload: w.name,
                        traced: t,
                        set,
                        metrics,
                    }),
                    None => {
                        eprintln!("error: {} (trace {}) failed", w.name, t as u8);
                        ok = false;
                    }
                }
            }
        }
    }
    if let Err(e) = std::fs::create_dir_all(&out)
        .and_then(|()| std::fs::write(out.join("results.json"), results_json(&seed, &runs)))
    {
        eprintln!("error: cannot write results.json: {e}");
        ok = false;
    }

    if repeat > 1 {
        println!("\nrun-to-run spread over {repeat} sets (workload metric spread bound verdict)");
        let values = |w: &str, t: bool, name: &str| -> Vec<f64> {
            runs.iter()
                .filter(|r| r.workload == w && r.traced == t)
                .filter_map(|r| r.metrics.get(name).map(|m| m.0))
                .collect()
        };
        for w in &WORKLOADS {
            // `setup_s` is reported but not held to its bound: it is the
            // drift of its median the bound is for, not its spread.
            for m in &END_TO_END {
                let v = values(w.name, false, m.name);
                if v.len() < 2 {
                    continue;
                }
                let s = spread(&v);
                let inside = s <= m.bound || m.name == "setup_s";
                ok &= inside;
                println!(
                    "{} {} {s:.4} {} {}",
                    w.name,
                    m.name,
                    m.bound,
                    if inside { "inside" } else { "EXCEEDED" }
                );
            }
            // Counts are exact: any difference between sets is a failure.
            for (name, unit) in PER_LAYER.iter().filter(|(_, u)| *u == "count") {
                let v = values(w.name, true, name);
                if v.windows(2).any(|p| p[0] != p[1]) {
                    ok = false;
                    println!("{} {name} {v:?} {unit} DIFFERS", w.name);
                }
            }
        }
    }
    if ok {
        ExitCode::SUCCESS
    } else {
        ExitCode::FAILURE
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn spread_of_few_sets_is_their_range() {
        assert!((spread(&[10.0, 11.0]) - 1.0 / 11.0).abs() < 1e-12);
        assert_eq!(spread(&[5.0, 5.0, 5.0]), 0.0);
        let ten: Vec<f64> = (1..=10).map(f64::from).collect();
        assert_eq!(spread(&ten), relative_spread(&ten));
    }
}
