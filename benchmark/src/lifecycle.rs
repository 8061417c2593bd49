//! The write side every workload shares: its dataset goes from N-Triples
//! text to a queryable store the way the CLI does it — volatile, durable,
//! reopened, and through one cold `wdsparql` process. `load_restart` is
//! this and little else; the query workloads run it once per block on
//! their own (smaller) datasets, so a change to parsing, ingest or
//! persistence shows on every dataset shape it touches.

use crate::counting::{CountingFs, FsCounts};
use crate::stats::{format_rows, Answer, Checks};
use crate::trace::Tracer;
use std::path::{Path, PathBuf};
use std::process::{Command, Stdio};
use std::sync::Arc;
use std::time::{Duration, Instant};
use wdsparql_rdf::{parse_ntriples, QueryBudget, RdfGraph, Triple, TriplePattern};
use wdsparql_store::{PersistOpts, RealFs, TripleStore};

/// The CLI's ingest batch size (`crates/cli`, `store_command`).
pub const BATCH: usize = 4096;

/// One query with the answer the oracle expects for it.
pub struct Expected {
    pub pats: Vec<TriplePattern>,
    pub answer: Answer,
}

/// Everything the lifecycle needs about one workload's dataset; built
/// (and its expectations computed from the plain `RdfGraph`) in set-up.
pub struct Dataset {
    /// The dataset as N-Triples text; the same bytes are on disk for the
    /// CLI (the file the `cli_*` arguments name).
    pub text: String,
    pub distinct: usize,
    /// Reads issued after every ingest batch, `READS_PER_BATCH` at a
    /// time, cycling; with the answer expected after *that* batch, one
    /// per (batch, read), in issue order.
    pub reads: Vec<Vec<TriplePattern>>,
    pub reads_expected: Vec<Answer>,
    /// BGPs whose first solution is timed, one after every batch, cycling
    /// (`query_limited(.., 1, ..)`); empty to skip.
    pub firsts: Vec<Vec<TriplePattern>>,
    /// The first query a reopened store answers.
    pub after_reopen: Expected,
    /// Single-pattern probes with their match counts on the full dataset.
    pub probes: Vec<(TriplePattern, usize)>,
    /// Arguments of the cold CLI run, and how a line of its stdout must
    /// start and end to carry the oracle's answer.
    pub cli_args: Vec<String>,
    pub cli_expect: (String, String),
    /// Arguments of a `wdsparql eval` that prints every row (traced run).
    pub cli_print_args: Vec<String>,
}

pub const READS_PER_BATCH: usize = 4;

/// The answers `reads` must give after each batch, from a plain
/// `RdfGraph` fed the same batches.
pub fn expected_reads(parsed: &RdfGraph, reads: &[Vec<TriplePattern>]) -> Vec<Answer> {
    let mut out = Vec::new();
    if reads.is_empty() {
        return out;
    }
    let triples: Vec<Triple> = parsed.iter().copied().collect();
    let mut g = RdfGraph::new();
    let mut buf = String::new();
    for (b, batch) in triples.chunks(BATCH).enumerate() {
        for t in batch {
            g.insert(*t);
        }
        for j in 0..READS_PER_BATCH {
            let pats = &reads[(b * READS_PER_BATCH + j) % reads.len()];
            let rows = wdsparql_store::eval_bgp_pairwise(&g, pats);
            out.push(format_rows(&rows, &mut buf));
        }
    }
    out
}

/// Paths the harness may write to and the CLI binary it spawns.
#[derive(Clone)]
pub struct Env {
    /// Scratch root (`<out>/tmp/<workload>-<pid>`); removed at exit.
    pub tmp: PathBuf,
    pub cli: PathBuf,
}

impl Env {
    /// A fresh, empty directory under the scratch root.
    pub fn fresh_dir(&self, name: &str) -> PathBuf {
        let dir = self.tmp.join(name);
        let _ = std::fs::remove_dir_all(&dir);
        std::fs::create_dir_all(&dir).expect("create scratch directory");
        dir
    }
}

/// What one pass measured. Times in seconds unless named otherwise.
#[derive(Default, Clone)]
pub struct Lifecycle {
    pub parse_s: f64,
    pub compact_s: f64,
    /// One volatile `try_bulk_load` each.
    pub batch_load_us: Vec<f64>,
    pub segments_at_compact: usize,
    /// Per read between batches: the query, and formatting its rows.
    pub read_us: Vec<f64>,
    pub read_format_us: Vec<f64>,
    pub read_rows: u64,
    pub first_ms: Vec<f64>,
    /// One acknowledged durable batch commit each.
    pub commit_ms: Vec<f64>,
    pub durable_compact_s: f64,
    pub checkpoint_s: f64,
    pub disk_bytes: u64,
    pub reopen_ms: f64,
    pub recover_ms: f64,
    pub cli_cold_ms: f64,
    pub cli_floor_ms: f64,
    pub cli_print_ms: f64,
    /// Filesystem calls of the durable load (traced run only).
    pub fs_load: Option<FsCounts>,
    pub checks: Checks,
}

/// Element-wise minimum: the same calls were timed in every pass.
pub fn min_into(best: &mut [f64], other: &[f64]) {
    assert_eq!(best.len(), other.len(), "passes must time the same calls");
    for (b, o) in best.iter_mut().zip(other) {
        *b = b.min(*o);
    }
}

impl Lifecycle {
    /// The best time of each call over identical passes. Neighbours on a
    /// shared box disturb the memory system in bursts shorter than a
    /// pass, so no whole pass is clean — but each call usually is in one
    /// of them.
    pub fn best_of(passes: &[&Lifecycle]) -> Lifecycle {
        let mut best = passes[0].clone();
        for p in &passes[1..] {
            for (b, o) in [
                (&mut best.parse_s, p.parse_s),
                (&mut best.compact_s, p.compact_s),
                (&mut best.durable_compact_s, p.durable_compact_s),
                (&mut best.checkpoint_s, p.checkpoint_s),
                (&mut best.reopen_ms, p.reopen_ms),
                (&mut best.recover_ms, p.recover_ms),
                (&mut best.cli_cold_ms, p.cli_cold_ms),
            ] {
                *b = b.min(o);
            }
            min_into(&mut best.batch_load_us, &p.batch_load_us);
            min_into(&mut best.read_us, &p.read_us);
            min_into(&mut best.read_format_us, &p.read_format_us);
            min_into(&mut best.first_ms, &p.first_ms);
            min_into(&mut best.commit_ms, &p.commit_ms);
        }
        best
    }

    pub fn load_s(&self) -> f64 {
        self.batch_load_us.iter().sum::<f64>() / 1e6
    }

    pub fn ingest_triples_per_s(&self, distinct: usize) -> f64 {
        distinct as f64 / (self.parse_s + self.load_s() + self.compact_s)
    }

    /// Durable load + compaction + checkpoint; parsing is the same work
    /// as in the volatile pass and is left to `ingest_triples_per_s`.
    pub fn durable_s(&self) -> f64 {
        self.commit_ms.iter().sum::<f64>() / 1e3 + self.durable_compact_s + self.checkpoint_s
    }
}

fn secs(d: Duration) -> f64 {
    d.as_secs_f64()
}

/// Times `f`, as a span too when tracing.
fn timed<R>(tr: &mut Option<&mut Tracer>, name: &'static str, f: impl FnOnce() -> R) -> (R, f64) {
    let id = tr.as_mut().map(|t| t.enter(name));
    let start = Instant::now();
    let out = f();
    let spent = secs(start.elapsed());
    if let (Some(t), Some(id)) = (tr.as_mut(), id) {
        t.exit(id);
    }
    (out, spent)
}

/// The best of two to five timings of `f` (which returns seconds). A call
/// made once per pass (parse, reopen, the CLI spawn) lasts tens to hundreds
/// of milliseconds — long enough that a neighbour's burst falls inside
/// most samples, where the microsecond ops of a block each find a quiet
/// moment in one block or another. So it is timed at least twice, and
/// again while it has cost the pass under half a second.
fn resampled(mut f: impl FnMut() -> f64) -> f64 {
    let (mut best, mut spent) = (f64::INFINITY, 0.0);
    for taken in 1..=5 {
        let s = f();
        best = best.min(s);
        spent += s;
        if taken >= 2 && spent >= 0.5 {
            break;
        }
    }
    best
}

/// Spawns the CLI, waits for it, and returns (wall ms, stdout).
pub fn spawn_cli(cli: &Path, args: &[String]) -> (f64, String) {
    let start = Instant::now();
    let out = Command::new(cli)
        .args(args)
        .stdin(Stdio::null())
        .stderr(Stdio::inherit())
        .output()
        .unwrap_or_else(|e| panic!("cannot run {}: {e}", cli.display()));
    let ms = secs(start.elapsed()) * 1e3;
    assert!(
        out.status.success(),
        "{} {args:?} exited with {}",
        cli.display(),
        out.status
    );
    (ms, String::from_utf8_lossy(&out.stdout).into_owned())
}

fn dir_bytes(dir: &Path) -> u64 {
    std::fs::read_dir(dir)
        .expect("list store directory")
        .map(|e| e.expect("dir entry").metadata().expect("metadata").len())
        .sum()
}

/// One pass: volatile ingest with interleaved reads, durable ingest and
/// checkpoint, reopen to first answer, one cold CLI run. With a tracer,
/// each call is also a span, the durable store runs over [`CountingFs`],
/// and the two extra CLI spawns (floor, print) are taken.
pub fn run(ds: &Dataset, env: &Env, mut tr: Option<&mut Tracer>) -> Lifecycle {
    let mut lc = Lifecycle::default();
    let mut buf = String::new();
    let budget = QueryBudget::unlimited();
    let root = tr.as_mut().map(|t| {
        t.next_op();
        t.enter("lifecycle")
    });

    // (a) Volatile, exactly as `wdsparql store <file>`: parse into an
    // RdfGraph, feed it to the store in 4096-triple batches, compact.
    let mut parsed = None;
    lc.parse_s = resampled(|| {
        let (g, s) = timed(&mut tr, "rdf.ntriples.parse", || {
            parse_ntriples(&ds.text).expect("generated N-Triples parse")
        });
        parsed = Some(g);
        s
    });
    let parsed = parsed.expect("parsed at least once");
    let triples: Vec<Triple> = parsed.iter().copied().collect();
    let store = TripleStore::new();
    for (b, batch) in triples.chunks(BATCH).enumerate() {
        let (res, s) = timed(&mut tr, "store.load", || {
            store.try_bulk_load(batch.to_vec())
        });
        res.expect("volatile load");
        lc.batch_load_us.push(s * 1e6);
        // Reads between batches see uncompacted delta segments; they are
        // timed on their own and are not part of the ingest wall.
        for j in 0..READS_PER_BATCH.min(ds.reads.len()) {
            let k = b * READS_PER_BATCH + j;
            let pats = &ds.reads[k % ds.reads.len()];
            let (rows, s) = timed(&mut tr, "store.read_during_ingest", || store.query(pats));
            lc.read_us.push(s * 1e6);
            let start = Instant::now();
            let got = format_rows(rows.iter(), &mut buf);
            lc.read_format_us.push(secs(start.elapsed()) * 1e6);
            lc.read_rows += got.rows;
            lc.checks
                .check(got == ds.reads_expected[k], "read during ingest");
        }
        if !ds.firsts.is_empty() {
            let first = &ds.firsts[b % ds.firsts.len()];
            let (rows, s) = timed(&mut tr, "store.stream.first", || {
                store.query_limited(first, 1, &budget)
            });
            lc.first_ms.push(s * 1e3);
            let rows = rows.expect("unlimited budget");
            // Any first row is a right answer as long as it is one.
            let ok = rows.iter().all(|mu| {
                first
                    .iter()
                    .all(|p| p.apply(mu).is_some_and(|t| parsed.contains(&t)))
            });
            lc.checks.check(ok, "first solution during ingest");
        }
    }
    lc.segments_at_compact = store.stats().segments;
    let (_, s) = timed(&mut tr, "store.compact", || store.compact());
    lc.compact_s = s;
    lc.checks
        .check(store.len() == ds.distinct, "volatile store size");

    // (b) The same batches into a durable store, then a checkpoint.
    let dir = env.fresh_dir("store");
    let counting = tr.is_some().then(|| {
        Arc::new(CountingFs::new(
            RealFs::open(&dir).expect("open store directory"),
        ))
    });
    let durable = match &counting {
        Some(fs) => TripleStore::open_with_vfs(fs.clone(), PersistOpts::default()),
        None => {
            let s = TripleStore::new();
            s.persist_to(&dir).map(|()| s)
        }
    }
    .expect("fresh durable store");
    let fs_before = counting.as_ref().map(|fs| fs.counts());
    for batch in triples.chunks(BATCH) {
        let owned = batch.to_vec();
        let (res, s) = timed(&mut tr, "store.persist.commit", || {
            durable.try_bulk_load(owned)
        });
        res.expect("durable load");
        lc.commit_ms.push(s * 1e3);
    }
    if let (Some(fs), Some(before)) = (&counting, fs_before) {
        lc.fs_load = Some(fs.counts().since(before));
    }
    let (_, s) = timed(&mut tr, "store.persist.compact", || durable.compact());
    lc.durable_compact_s = s;
    let (res, s) = timed(&mut tr, "store.persist.checkpoint", || durable.checkpoint());
    lc.checkpoint_s = s;
    lc.checks.check(matches!(res, Ok(true)), "checkpoint");
    lc.disk_bytes = dir_bytes(&dir);
    drop(durable);

    // (c) Reopen: `open` to the first query answered.
    let mut reopened = None;
    let mut recover_s = f64::INFINITY;
    lc.reopen_ms = 1e3
        * resampled(|| {
            drop(reopened.take());
            let start = Instant::now();
            let (store, s) = timed(&mut tr, "store.persist.recover", || match &counting {
                // The traced run reopens over a counting filesystem too.
                Some(_) => TripleStore::open_with_vfs(
                    Arc::new(CountingFs::new(
                        RealFs::open(&dir).expect("open store directory"),
                    )),
                    PersistOpts::default(),
                ),
                None => TripleStore::open(&dir),
            });
            recover_s = recover_s.min(s);
            let store = store.expect("reopen");
            std::hint::black_box(store.query(&ds.after_reopen.pats).len());
            reopened = Some(store);
            secs(start.elapsed())
        });
    lc.recover_ms = recover_s * 1e3;
    let reopened = reopened.expect("reopened at least once");
    let got = format_rows(reopened.query(&ds.after_reopen.pats).iter(), &mut buf);
    lc.checks
        .check(got == ds.after_reopen.answer, "first query after reopen");
    lc.checks
        .check(reopened.len() == store.len(), "reopened store size");
    let (snap_v, snap_d) = (store.read_snapshot(), reopened.read_snapshot());
    for (pat, want) in &ds.probes {
        let (v, d) = (
            snap_v.match_pattern(pat).len(),
            snap_d.match_pattern(pat).len(),
        );
        lc.checks.check(
            v == *want && d == *want,
            "probe on volatile and reopened store",
        );
    }
    drop((reopened, snap_d));
    let _ = std::fs::remove_dir_all(&dir);

    // (d) One cold process, N-Triples file to printed answer.
    let mut stdout = String::new();
    lc.cli_cold_ms = 1e3
        * resampled(|| {
            let ((ms, out), _) = timed(&mut tr, "cli.cold", || spawn_cli(&env.cli, &ds.cli_args));
            stdout = out;
            ms / 1e3
        });
    lc.checks.check(
        stdout.lines().any(|l| {
            let l = l.trim();
            l.starts_with(&ds.cli_expect.0) && l.ends_with(&ds.cli_expect.1)
        }),
        "CLI stdout carries the oracle's answer",
    );
    if let (Some(t), Some(id)) = (tr.as_mut(), root) {
        t.exit(id);
    }
    // Outside the pass's root span: the untraced pass has no counterpart.
    if tr.is_some() {
        let floor = ["analyze".to_string(), "(?x, p, ?y)".to_string()];
        lc.cli_floor_ms = timed(&mut tr, "cli.spawn_floor", || spawn_cli(&env.cli, &floor))
            .0
             .0;
        lc.cli_print_ms = timed(&mut tr, "cli.eval_print", || {
            spawn_cli(&env.cli, &ds.cli_print_args)
        })
        .0
         .0;
    }
    lc
}
