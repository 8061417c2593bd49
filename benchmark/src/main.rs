//! `wdbench`: the repo benchmark. One process runs one workload — closed
//! loop, one client, this thread — and prints every metric by name with
//! its unit, then one JSON object as the last line of stdout. `wdbench
//! suite` runs all four, each in a process of its own. See `README.md`.

mod bgp_join;
mod counting;
mod lifecycle;
mod load_restart;
mod membership;
mod metrics;
mod stats;
mod suite;
mod trace;
mod wd_eval;
mod workload;

use lifecycle::Env;
use metrics::{END_TO_END, PER_LAYER, WORKLOADS};
use stats::{block_spread, fastest, median, percentile_band, sorted};
use std::path::PathBuf;
use std::process::ExitCode;
use std::time::Instant;
use workload::{Block, Layers, Workload};

/// `--smoke`: every dataset and op count at 1/20, one block, one set-up.
const SMOKE_SCALE: f64 = 0.05;
/// Timed blocks per run, unless `--seconds` leaves room for more.
const MIN_BLOCKS: usize = 3;
/// Set-up repetitions; `setup_s` is their median. At least `MIN_SETUPS`,
/// and more while they have taken under `SETUP_BUDGET_S` in all: a 30 ms
/// set-up read three times moves by a third from run to run, read twenty
/// times it does not.
const MIN_SETUPS: usize = 3;
const MAX_SETUPS: usize = 25;
const SETUP_BUDGET_S: f64 = 1.0;
/// Half-widths, in percent of the ops, of the bands whose means are
/// reported as p50 and p90 (see `stats::percentile_band`). The p90 band
/// must stay inside the class p90 is meant to fall in.
const P50_BAND: f64 = 5.0;
const P90_BAND: f64 = 2.5;
/// First-solution latencies have no classes to stay inside, and how long a
/// first row takes swings with the data under each query: their p50 is the
/// interquartile mean.
const TTFS_BAND: f64 = 25.0;

pub struct Args {
    pub workload: String,
    pub seed: u64,
    pub seconds: f64,
    pub trace: bool,
    pub smoke: bool,
    pub out: PathBuf,
    pub cli: PathBuf,
}

fn usage() -> String {
    let names: Vec<&str> = WORKLOADS.iter().map(|w| w.name).collect();
    format!(
        "usage: wdbench --workload <{}> [--seed N] [--seconds S] [--trace 0|1] \
         [--smoke] [--out DIR] [--cli PATH]\n       \
         wdbench suite [--seed N] [--seconds S] [--repeat N] [--trace] [--smoke] \
         [--out DIR] [--cli PATH]",
        names.join("|")
    )
}

/// The `wdsparql` binary `run.sh` built: next to this executable.
fn default_cli() -> PathBuf {
    let exe = std::env::current_exe().expect("path of this executable");
    exe.with_file_name("wdsparql")
}

fn parse_args(argv: &[String]) -> Result<Args, String> {
    let mut a = Args {
        workload: String::new(),
        seed: 42,
        seconds: 28.0,
        trace: false,
        smoke: false,
        out: PathBuf::from("benchmark/out"),
        cli: default_cli(),
    };
    let mut it = argv.iter();
    while let Some(flag) = it.next() {
        let mut value = || it.next().ok_or(format!("{flag} needs a value"));
        let bad = |v: &String| format!("{flag}: bad value {v:?}");
        match flag.as_str() {
            "--workload" => a.workload = value()?.clone(),
            "--seed" => a.seed = value().and_then(|v| v.parse().map_err(|_| bad(v)))?,
            "--seconds" => a.seconds = value().and_then(|v| v.parse().map_err(|_| bad(v)))?,
            "--trace" => {
                a.trace = match value()?.as_str() {
                    "0" => false,
                    "1" => true,
                    v => return Err(format!("--trace: {v:?} is not 0 or 1")),
                }
            }
            "--smoke" => a.smoke = true,
            "--out" => a.out = PathBuf::from(value()?),
            "--cli" => a.cli = PathBuf::from(value()?),
            other => return Err(format!("unknown argument {other:?}")),
        }
    }
    if !WORKLOADS.iter().any(|w| w.name == a.workload) {
        return Err(format!("unknown workload {:?}", a.workload));
    }
    if !a.cli.is_file() {
        return Err(format!(
            "no wdsparql binary at {} (build it, or pass --cli)",
            a.cli.display()
        ));
    }
    Ok(a)
}

fn setup(args: &Args, env: &Env) -> Box<dyn Workload> {
    let scale = if args.smoke { SMOKE_SCALE } else { 1.0 };
    match args.workload.as_str() {
        "bgp_join" => Box::new(bgp_join::BgpJoin::setup(args.seed, scale, env)),
        "wd_eval" => Box::new(wd_eval::WdEval::setup(args.seed, scale, env)),
        "membership" => Box::new(membership::Membership::setup(args.seed, scale, env)),
        _ => Box::new(load_restart::LoadRestart::setup(args.seed, scale, env)),
    }
}

/// `VmHWM` of this process, in MB.
fn peak_rss_mb() -> f64 {
    let status = std::fs::read_to_string("/proc/self/status").unwrap_or_default();
    status
        .lines()
        .find_map(|l| l.strip_prefix("VmHWM:"))
        .and_then(|v| v.trim().trim_end_matches("kB").trim().parse::<f64>().ok())
        .map_or(0.0, |kb| kb / 1024.0)
}

/// The end-to-end metrics of a run, in `END_TO_END` order, from the best
/// time of every op and call over the run's blocks.
fn end_to_end(best: &Block, distinct: usize, setup_s: f64, peak_rss_mb: f64) -> Vec<f64> {
    let d = distinct as f64;
    let lat = sorted(best.op_ms.clone());
    let ms_sum = |v: &[f64]| v.iter().sum::<f64>() / 1e3;
    let row_s = best.row_ms.as_deref().map_or(best.ops_s(), ms_sum);
    vec![
        setup_s,
        best.op_ms.len() as f64 / best.ops_s(),
        percentile_band(&lat, 50.0, P50_BAND),
        percentile_band(&lat, 90.0, P90_BAND),
        best.rows as f64 / row_s,
        percentile_band(&sorted(best.ttfs_ms.clone()), 50.0, TTFS_BAND),
        best.sharded_ms.len() as f64 / ms_sum(&best.sharded_ms),
        best.lifecycle.ingest_triples_per_s(distinct),
        d / best.lifecycle.durable_s(),
        best.lifecycle.reopen_ms,
        best.lifecycle.cli_cold_ms,
        best.lifecycle.disk_bytes as f64 / d,
        peak_rss_mb,
    ]
}

/// Per latency class: how many ops, and their median latency.
fn class_latencies(w: &dyn Workload, best: &Block) -> Vec<(&'static str, usize, f64)> {
    let (names, class_of) = w.classes();
    (0..names.len())
        .filter_map(|c| {
            let ms: Vec<f64> = (0..best.op_ms.len())
                .filter(|&i| class_of[i] == c)
                .map(|i| best.op_ms[i])
                .collect();
            (!ms.is_empty()).then(|| (names[c], ms.len(), median(&ms)))
        })
        .collect()
}

/// The class of the op sitting at percentile `p`.
fn class_at(w: &dyn Workload, b: &Block, p: f64) -> &'static str {
    let (names, class_of) = w.classes();
    let mut order: Vec<usize> = (0..b.op_ms.len()).collect();
    order.sort_by(|&i, &j| b.op_ms[i].total_cmp(&b.op_ms[j]));
    let rank = stats::nearest_rank(p, order.len());
    names[class_of[order[rank.clamp(1, order.len()) - 1]]]
}

struct Outcome {
    attempted: u64,
    failed: u64,
    metrics: Vec<(&'static str, &'static str, f64)>,
}

fn run_untraced(args: &Args, env: &Env) -> Result<Outcome, String> {
    let mut setup_times = Vec::new();
    let mut w: Option<Box<dyn Workload>> = None;
    loop {
        // Drop the previous instance first: peak RSS is one workload's.
        drop(w.take());
        let start = Instant::now();
        w = Some(setup(args, env));
        setup_times.push(start.elapsed().as_secs_f64());
        let n = setup_times.len();
        let within_budget = n < MAX_SETUPS && setup_times.iter().sum::<f64>() < SETUP_BUDGET_S;
        if args.smoke || (n >= MIN_SETUPS && !within_budget) {
            break;
        }
    }
    let mut w = w.expect("at least one set-up");
    let mut attempted = w.verify()?;
    let mut failed = 0;

    let mut blocks: Vec<Block> = Vec::new();
    let mut peak_rss = 0.0;
    let start = Instant::now();
    loop {
        blocks.push(w.block(env, true));
        // Sampled after a fixed number of blocks, not at exit: interned
        // names (`Variable::fresh`) are never freed, so the high-water
        // mark creeps up with every block, and how many blocks a run has
        // room for varies with the box.
        if blocks.len() <= MIN_BLOCKS {
            peak_rss = peak_rss_mb();
        }
        let spent = start.elapsed().as_secs_f64();
        let enough =
            blocks.len() >= MIN_BLOCKS && spent + 0.5 * spent / blocks.len() as f64 >= args.seconds;
        if args.smoke || enough {
            break;
        }
    }
    for b in &blocks {
        // Every block replays the same ops: their answers must agree.
        attempted += b.answers.len() as u64 + b.checks.attempted + b.lifecycle.checks.attempted;
        failed += b.checks.failed + b.lifecycle.checks.failed;
        let differ = b
            .answers
            .iter()
            .zip(&blocks[0].answers)
            .filter(|(a, b)| a != b);
        failed += differ.count() as u64;
    }

    let best = Block::best_of(&blocks);
    let values = end_to_end(&best, w.dataset().distinct, median(&setup_times), peak_rss);
    let walls: Vec<f64> = blocks.iter().map(|b| b.pass_s).collect();
    let name = &args.workload;
    println!(
        "{name} setups {} fastest_s {:.4} slowest_s {:.4}",
        setup_times.len(),
        fastest(&setup_times),
        setup_times.iter().copied().fold(0.0, f64::max)
    );
    println!(
        "{name} blocks {} ops_per_block {} block_spread {:.4}",
        blocks.len(),
        best.op_ms.len(),
        block_spread(&walls)
    );
    for (class, count, p50) in class_latencies(&*w, &best) {
        println!("{name} class {class} ops {count} p50_ms {p50:.4}");
    }
    println!(
        "{name} p50_class {} p90_class {}",
        class_at(&*w, &best, 50.0),
        class_at(&*w, &best, 90.0)
    );
    println!(
        "{name} failed_share {} ratio",
        failed as f64 / attempted as f64
    );
    Ok(Outcome {
        attempted,
        failed,
        metrics: END_TO_END
            .iter()
            .zip(values)
            .map(|(m, v)| (m.name, m.unit, v))
            .collect(),
    })
}

fn run_traced(args: &Args, env: &Env) -> Result<Outcome, String> {
    let mut w = setup(args, env);
    let mut attempted = w.verify()?;
    // Untraced replays first: the wall the traced replay is held against.
    let plain: Vec<Block> = (0..if args.smoke { 1 } else { MIN_BLOCKS })
        .map(|_| w.block(env, false))
        .collect();
    let walls: Vec<f64> = plain.iter().map(|b| b.pass_s).collect();
    let mut tr = trace::Tracer::new();
    let mut layers: Layers = w.traced(env, &mut tr);
    attempted += plain[0].answers.len() as u64;

    let root = if tr.layer("op").count > 0 {
        "op"
    } else {
        "lifecycle"
    };
    let traced_s = tr.layer(root).total_ns as f64 / 1e9;
    layers.insert("trace.overhead_share", traced_s / fastest(&walls) - 1.0);
    layers.insert("trace.unattributed_share", tr.unattributed_share(root));
    layers.insert("block_spread", block_spread(&walls));

    std::fs::create_dir_all(&args.out).map_err(|e| e.to_string())?;
    let path = args.out.join(format!("trace-{}.json", args.workload));
    tr.write_json(&path)
        .map_err(|e| format!("{}: {e}", path.display()))?;
    println!("{} trace_file {}", args.workload, path.display());
    for (name, l) in tr.layers() {
        println!(
            "{} span {name} count {} total_ms {:.3} self_ms {:.3}",
            args.workload,
            l.count,
            l.total_ms(),
            l.self_ns as f64 / 1e6
        );
    }
    for name in layers.keys() {
        assert!(
            PER_LAYER.iter().any(|(n, _)| n == name),
            "{name} is not a declared per-layer metric"
        );
    }
    Ok(Outcome {
        attempted,
        failed: 0,
        metrics: PER_LAYER
            .iter()
            .map(|&(name, unit)| (name, unit, layers.get(name).copied().unwrap_or(0.0)))
            .collect(),
    })
}

fn run_one(args: &Args) -> Result<Outcome, String> {
    let env = Env {
        tmp: args
            .out
            .join("tmp")
            .join(format!("{}-{}", args.workload, std::process::id())),
        cli: args.cli.clone(),
    };
    std::fs::create_dir_all(&env.tmp).map_err(|e| format!("{}: {e}", env.tmp.display()))?;
    let out = if args.trace {
        run_traced(args, &env)
    } else {
        run_untraced(args, &env)
    };
    let _ = std::fs::remove_dir_all(&env.tmp);
    out
}

fn main() -> ExitCode {
    let argv: Vec<String> = std::env::args().skip(1).collect();
    if argv.first().map(String::as_str) == Some("suite") {
        return suite::main(&argv[1..]);
    }
    let args = match parse_args(&argv) {
        Ok(a) => a,
        Err(e) => {
            eprintln!("error: {e}\n{}", usage());
            return ExitCode::from(2);
        }
    };
    let outcome = match run_one(&args) {
        Ok(o) => o,
        Err(e) => {
            // A wrong answer is not a measurement: no result line.
            eprintln!("error: {} failed verification: {e}", args.workload);
            return ExitCode::FAILURE;
        }
    };
    let mut json = Vec::new();
    for (name, unit, value) in &outcome.metrics {
        println!("{} {name} {value} {unit}", args.workload);
        json.push(format!(
            "\"{name}\": {{\"value\": {value}, \"unit\": \"{unit}\"}}"
        ));
    }
    println!(
        "{{\"correct\": {}, \"attempted\": {}, \"failed\": {}, \"metrics\": {{{}}}}}",
        outcome.failed == 0,
        outcome.attempted,
        outcome.failed,
        json.join(", ")
    );
    ExitCode::SUCCESS
}

#[cfg(test)]
mod tests {
    use super::*;

    fn manifest(name: &str) -> String {
        let path = PathBuf::from(env!("CARGO_MANIFEST_DIR")).join(name);
        std::fs::read_to_string(&path).unwrap_or_else(|e| panic!("{}: {e}", path.display()))
    }

    /// `BENCHMARK.json` and the harness must name the same things.
    #[test]
    fn benchmark_json_matches_the_harness() {
        let json = manifest("../BENCHMARK.json");
        for w in &WORKLOADS {
            assert!(w.why.len() <= 200 && !w.why.contains('"'));
            let entry = format!("{{\"name\": \"{}\", \"why\": \"{}\"}}", w.name, w.why);
            assert!(json.contains(&entry), "missing workload entry {entry}");
        }
        for m in &END_TO_END {
            let better = if m.higher_is_better {
                "higher"
            } else {
                "lower"
            };
            let entry = format!(
                "{{\"name\": \"{}\", \"unit\": \"{}\", \"better\": \"{better}\", \"bound\": {}}}",
                m.name, m.unit, m.bound
            );
            assert!(json.contains(&entry), "missing end-to-end entry {entry}");
            assert!(m.bound > 0.0 && m.bound <= 0.25);
        }
        for (name, unit) in &PER_LAYER {
            let entry = format!("{{\"name\": \"{name}\", \"unit\": \"{unit}\", \"better\":");
            assert!(json.contains(&entry), "missing per-layer entry {entry}");
        }
        assert_eq!(json.matches("\"name\":").count(), 4 + 13 + 62);
        assert!(json.contains("\"paths\": [\"benchmark\"]"));
    }

    #[test]
    fn arguments_are_checked() {
        let argv = |s: &str| s.split(' ').map(String::from).collect::<Vec<_>>();
        assert!(parse_args(&argv("--workload nope")).is_err());
        assert!(parse_args(&argv("--workload bgp_join --trace 2")).is_err());
        assert!(parse_args(&argv("--workload bgp_join --seed")).is_err());
        assert!(parse_args(&argv("--workload bgp_join --cli /nonexistent")).is_err());
    }
}
