//! What the four workloads have in common: the shape of a measured block,
//! the per-layer metric map of a traced run, and the scan micro-probes
//! every workload runs against its own dataset.

use crate::counting::IndexCounts;
use crate::lifecycle::{min_into, Dataset, Env, Lifecycle};
use crate::stats::{Answer, Checks, SplitMix};
use crate::trace::Tracer;
use std::collections::BTreeMap;
use std::time::Instant;
use wdsparql_rdf::term::var;
use wdsparql_rdf::{tp, QueryBudget, RdfGraph, Term, Triple, TripleIndex, TriplePattern, Variable};
use wdsparql_store::{EncodedGraph, TripleStore};

/// One timed block: the workload's op sequence replayed once, followed by
/// its side passes (first-solution latency, the sharded replay, the
/// dataset lifecycle).
#[derive(Default)]
pub struct Block {
    /// Wall time of the whole replay the traced run repeats span by span
    /// (the ops, except on `load_restart`, where it is the whole
    /// lifecycle); the base of `block_spread` and `trace.overhead_share`.
    pub pass_s: f64,
    /// Latency of each op, in issue order.
    pub op_ms: Vec<f64>,
    /// What each op answered; must equal every other block's.
    pub answers: Vec<Answer>,
    /// Rows decoded and formatted, and the latencies they took when those
    /// are not the ops' own (`load_restart`: the reads between batches).
    pub rows: u64,
    pub row_ms: Option<Vec<f64>>,
    /// Latency of each first-solution probe.
    pub ttfs_ms: Vec<f64>,
    /// Latency of each op of the sharded replay.
    pub sharded_ms: Vec<f64>,
    pub lifecycle: Lifecycle,
    pub checks: Checks,
}

impl Block {
    /// The best time of each op and call over identical blocks (see
    /// [`Lifecycle::best_of`]); every timing metric is computed from this.
    pub fn best_of(blocks: &[Block]) -> Block {
        let first = &blocks[0];
        let mut best = Block {
            pass_s: first.pass_s,
            op_ms: first.op_ms.clone(),
            answers: first.answers.clone(),
            rows: first.rows,
            row_ms: first.row_ms.clone(),
            ttfs_ms: first.ttfs_ms.clone(),
            sharded_ms: first.sharded_ms.clone(),
            lifecycle: Lifecycle::best_of(&blocks.iter().map(|b| &b.lifecycle).collect::<Vec<_>>()),
            checks: Checks::default(),
        };
        for b in &blocks[1..] {
            best.pass_s = best.pass_s.min(b.pass_s);
            min_into(&mut best.op_ms, &b.op_ms);
            min_into(&mut best.ttfs_ms, &b.ttfs_ms);
            min_into(&mut best.sharded_ms, &b.sharded_ms);
            if let (Some(best), Some(other)) = (best.row_ms.as_mut(), b.row_ms.as_ref()) {
                min_into(best, other);
            }
        }
        best
    }

    /// Runs ops `0..n` through `op`, timing each one.
    pub fn replay(n: usize, mut op: impl FnMut(usize) -> Answer) -> Block {
        let mut b = Block::default();
        let start = Instant::now();
        for i in 0..n {
            let (answer, ms) = timed_ms(|| op(i));
            b.answers.push(answer);
            b.op_ms.push(ms);
        }
        b.pass_s = start.elapsed().as_secs_f64();
        b.rows = b.answers.iter().map(|a| a.rows).sum();
        b
    }

    /// Seconds the ops took.
    pub fn ops_s(&self) -> f64 {
        self.op_ms.iter().sum::<f64>() / 1e3
    }
}

/// Per-layer metric values by name; names a workload does not reach are
/// reported as 0 by the caller.
pub type Layers = BTreeMap<&'static str, f64>;

pub trait Workload {
    /// Latency classes of the op mix, and the class of each op.
    fn classes(&self) -> (&'static [&'static str], Vec<usize>);
    fn dataset(&self) -> &Dataset;
    /// Compares the system under test with the independent oracle on the
    /// sample the workload defines; `Ok(checks made)`.
    fn verify(&self) -> Result<u64, String>;
    /// Replays the op sequence; with `sides`, also the side passes.
    fn block(&mut self, env: &Env, sides: bool) -> Block;
    /// Replays the op sequence calling each layer's public function in
    /// place of the facade, one span per call, and runs the micro-probes.
    fn traced(&mut self, env: &Env, tr: &mut Tracer) -> Layers;
}

/// A scratch environment for unit tests, under `benchmark/out/tmp`.
#[cfg(test)]
pub fn test_env(name: &str) -> Env {
    let tmp = std::path::Path::new(env!("CARGO_MANIFEST_DIR"))
        .join("out/tmp")
        .join(format!("test-{name}"));
    std::fs::create_dir_all(&tmp).expect("create test scratch directory");
    Env {
        tmp,
        cli: "wdsparql".into(),
    }
}

/// Scales a full-size count for `--smoke`, never below `min`.
pub fn scaled(full: usize, scale: f64, min: usize) -> usize {
    ((full as f64 * scale) as usize).max(min)
}

/// `f`'s result and the milliseconds it took.
pub fn timed_ms<R>(f: impl FnOnce() -> R) -> (R, f64) {
    let start = Instant::now();
    let out = f();
    (out, start.elapsed().as_secs_f64() * 1e3)
}

/// Mean time of `f` over `items`, in microseconds.
pub fn mean_us<T>(items: &[T], mut f: impl FnMut(&T)) -> f64 {
    if items.is_empty() {
        return 0.0;
    }
    let start = Instant::now();
    for it in items {
        f(it);
    }
    start.elapsed().as_secs_f64() * 1e6 / items.len() as f64
}

/// Consumes a probe's result so the optimiser cannot drop the probe.
pub fn sink(n: usize) {
    std::hint::black_box(n);
}

/// `store.stream.*`: the first solution and the first ten of `queries`,
/// streamed (never cached).
pub fn stream_layers(store: &TripleStore, queries: &[Vec<TriplePattern>], out: &mut Layers) {
    let budget = QueryBudget::unlimited();
    for (name, k) in [
        ("store.stream.first_us", 1),
        ("store.stream.limit10_us", 10),
    ] {
        let first_k = |p: &Vec<TriplePattern>| {
            sink(store.query_limited(p, k, &budget).map_or(0, |r| r.len()))
        };
        out.insert(name, mean_us(queries, first_k));
    }
}

/// `index.*`: what the paper-side algorithms asked of the store during the
/// traced replay, and the share of op time the answers took.
pub fn index_layers(c: &IndexCounts, tr: &Tracer, out: &mut Layers) {
    out.insert("index.match_calls", c.match_calls as f64);
    out.insert("index.contains_calls", c.contains_calls as f64);
    out.insert("index.dom_calls", c.dom_calls as f64);
    out.insert("index.count_calls", c.count_calls as f64);
    out.insert("index.cursor_opens", c.cursor_opens as f64);
    out.insert("index.rows_returned", c.rows_returned as f64);
    out.insert(
        "index.time_share",
        tr.layer("index").total_ns as f64 / tr.layer("op").total_ns as f64,
    );
}

/// The lifecycle's per-layer metrics (`rdf.ntriples.*`, `store.load.*`,
/// `store.persist.*`, `cli.*`).
pub fn lifecycle_layers(lc: &Lifecycle, ds: &Dataset, out: &mut Layers) {
    let batches = lc.commit_ms.len().max(1) as f64;
    out.insert("rdf.ntriples.parse_ms", lc.parse_s * 1e3);
    out.insert(
        "rdf.ntriples.mb_per_s",
        ds.text.len() as f64 / 1e6 / lc.parse_s,
    );
    out.insert("store.load.total_ms", lc.load_s() * 1e3);
    out.insert(
        "store.load.batch_p50_us",
        crate::stats::median(&lc.batch_load_us),
    );
    out.insert("store.compact_ms", lc.compact_s * 1e3);
    out.insert("store.segments_at_compact", lc.segments_at_compact as f64);
    if !lc.read_us.is_empty() {
        out.insert(
            "store.read_during_ingest_us",
            crate::stats::median(&lc.read_us),
        );
    }
    if let Some(fs) = lc.fs_load {
        out.insert("store.persist.fsyncs_per_batch", fs.fsyncs as f64 / batches);
        out.insert(
            "store.persist.write_calls_per_batch",
            fs.write_calls as f64 / batches,
        );
        out.insert(
            "store.persist.write_bytes_per_triple",
            fs.write_bytes as f64 / ds.distinct as f64,
        );
        out.insert(
            "store.persist.fsync_time_share",
            fs.fsync_ns as f64 / 1e6 / lc.commit_ms.iter().sum::<f64>(),
        );
    }
    out.insert("store.persist.checkpoint_ms", lc.checkpoint_s * 1e3);
    out.insert("store.persist.recover_ms", lc.recover_ms);
    out.insert("cli.spawn_floor_ms", lc.cli_floor_ms);
    out.insert("cli.eval_print_ms", lc.cli_print_ms);
}

/// `n` triples of `g`, seeded, as probe material.
pub fn sample_triples(g: &RdfGraph, n: usize, rng: &mut SplitMix) -> Vec<Triple> {
    let all: Vec<Triple> = g.iter().copied().collect();
    (0..n).map(|_| all[rng.below(all.len())]).collect()
}

/// Single-pattern probes with their match counts on the plain graph: the
/// equality check between volatile and reopened stores.
pub fn counted_probes(g: &RdfGraph, n: usize, rng: &mut SplitMix) -> Vec<(TriplePattern, usize)> {
    let (x, y) = (var("x"), var("y"));
    sample_triples(g, n, rng)
        .into_iter()
        .enumerate()
        .map(|(i, t)| {
            let pat = match i % 3 {
                0 => tp(Term::Iri(t.s), Term::Iri(t.p), y),
                1 => tp(x, Term::Iri(t.p), Term::Iri(t.o)),
                _ => tp(Term::Iri(t.s), x, y),
            };
            (pat, g.match_pattern(&pat).len())
        })
        .collect()
}

/// `store.scan.*` and `rdf.graph.match_us`: 256 seeded probes per access
/// shape against the encoded snapshot, and the same probes against the
/// plain `RdfGraph` the store is supposed to beat.
pub fn scan_probes(enc: &EncodedGraph, plain: &RdfGraph, seed: u64, out: &mut Layers) {
    let sample = sample_triples(plain, 256, &mut SplitMix::new(seed ^ 0x5ca9));
    let (xv, yv) = (Variable::new("x"), Variable::new("y"));
    let (x, y) = (Term::Var(xv), Term::Var(yv));
    let shape = |f: fn(&Triple, Term, Term) -> TriplePattern| -> Vec<TriplePattern> {
        sample.iter().map(|t| f(t, x, y)).collect()
    };
    let sp = shape(|t, x, _| tp(Term::Iri(t.s), Term::Iri(t.p), x));
    let po = shape(|t, x, _| tp(x, Term::Iri(t.p), Term::Iri(t.o)));
    let so = shape(|t, x, _| tp(Term::Iri(t.s), x, Term::Iri(t.o)));
    // Whole-predicate scans are large; 16 of them say as much as 256.
    let p: Vec<TriplePattern> = sample
        .iter()
        .take(16)
        .map(|t| tp(x, Term::Iri(t.p), y))
        .collect();
    out.insert(
        "store.scan.sp_us",
        mean_us(&sp, |q| sink(enc.match_pattern(q).len())),
    );
    out.insert(
        "store.scan.po_us",
        mean_us(&po, |q| sink(enc.match_pattern(q).len())),
    );
    out.insert(
        "store.scan.so_us",
        mean_us(&so, |q| sink(enc.match_pattern(q).len())),
    );
    out.insert(
        "store.scan.p_us",
        mean_us(&p, |q| sink(enc.match_pattern(q).len())),
    );
    out.insert(
        "store.scan.count_sp_us",
        mean_us(&sp, |q| sink(enc.candidate_count(q))),
    );
    out.insert(
        "store.scan.ids_us",
        mean_us(&po, |q| {
            sink(enc.candidate_ids(q, xv).map_or(0, |v| v.len()))
        }),
    );
    out.insert(
        "store.scan.values_us",
        mean_us(&po, |q| {
            sink(enc.candidate_values(q, xv).map_or(0, |v| v.len()))
        }),
    );
    let all: Vec<TriplePattern> = [sp, po, so].concat();
    out.insert(
        "rdf.graph.match_us",
        mean_us(&all, |q| sink(TripleIndex::match_pattern(plain, q).len())),
    );
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn best_of_takes_each_op_from_its_best_block() {
        let block = |op_ms: &[f64], first_ms: &[f64], parse_s: f64| Block {
            pass_s: op_ms.iter().sum(),
            op_ms: op_ms.to_vec(),
            answers: vec![Answer::default(); op_ms.len()],
            rows: 7,
            ttfs_ms: vec![1.0],
            sharded_ms: vec![3.0],
            lifecycle: Lifecycle {
                parse_s,
                first_ms: first_ms.to_vec(),
                ..Lifecycle::default()
            },
            ..Block::default()
        };
        // Each block was disturbed during a different op.
        let blocks = [
            block(&[1.0, 9.0, 1.0], &[5.0], 0.3),
            block(&[9.0, 1.0, 1.0], &[4.0], 0.2),
            block(&[1.0, 1.0, 9.0], &[6.0], 0.4),
        ];
        let best = Block::best_of(&blocks);
        assert_eq!(best.op_ms, [1.0, 1.0, 1.0]);
        assert_eq!(best.ops_s(), 0.003);
        assert_eq!(best.pass_s, 11.0);
        assert_eq!(best.rows, 7);
        assert_eq!(best.lifecycle.parse_s, 0.2);
        assert_eq!(best.lifecycle.first_ms, [4.0]);
    }

    #[test]
    fn replay_times_every_op_and_counts_rows() {
        let b = Block::replay(5, |i| Answer {
            rows: i as u64,
            checksum: 0,
        });
        assert_eq!(b.op_ms.len(), 5);
        assert_eq!(b.rows, 10);
        assert!(b.pass_s >= b.ops_s());
    }
}
