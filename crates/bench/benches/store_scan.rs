//! store_scan — the hot-path comparison behind `wdsparql-store`:
//! [`RdfGraph`]'s hash-indexed pattern matching vs [`EncodedGraph`]'s
//! dictionary-encoded sorted-permutation ranges, on a ≥100k-triple
//! workload graph, plus join throughput (hash bind join vs sorted-merge
//! intersection, and the open-path BGP from query to printed rows). The
//! workload mixes a uniform stream with type-like
//! hub objects (every node carries a `type` triple into one of a few
//! classes), so the pair-bound `(? p o)` sweep exercises both tiny
//! object blocks and the hub fan-in where index choice actually
//! matters. Medians land in the workspace-root `BENCH_store.json` (the
//! committed cross-PR baseline, shared with the other store targets;
//! `$BENCH_JSON_PATH` overrides) via the vendored criterion's JSON
//! writer.

use criterion::{black_box, criterion_group, criterion_main, BenchmarkId, Criterion};
use std::fmt::Write;
use std::sync::OnceLock;
use wdsparql_rdf::term::var;
use wdsparql_rdf::{tp, Iri, Mapping, RdfGraph, Term, Triple, TriplePattern, Variable};
use wdsparql_store::{eval_bgp_pairwise, eval_bgp_with_strategy, EncodedGraph, JoinStrategy};
use wdsparql_workloads::triple_stream;

const NODES: usize = 20_000;
const DRAWS: usize = 110_000;
const PREDICATES: usize = 8;
/// Hub classes for the `type` triples: each class collects
/// `NODES / CLASSES` subjects, the fan-in that makes `(? p o)` hard.
const CLASSES: usize = 24;

/// `cargo test` runs bench targets with `--test` (each body once); a
/// token workload keeps that pass fast while still exercising every
/// bench path end to end.
fn test_mode() -> bool {
    std::env::args().any(|a| a == "--test")
}

/// The shared workload: both index structures over the same triples,
/// built once and reused by every bench group. Also pins the JSON
/// report to the committed workspace-root baseline, which `cargo bench`
/// would otherwise miss (it runs benches with the package directory as
/// cwd, so the `BENCH_<target>.json` default lands in `crates/bench/`).
fn workload() -> &'static (RdfGraph, EncodedGraph) {
    static WORKLOAD: OnceLock<(RdfGraph, EncodedGraph)> = OnceLock::new();
    WORKLOAD.get_or_init(|| {
        criterion::set_bench_json_path(concat!(
            env!("CARGO_MANIFEST_DIR"),
            "/../../BENCH_store.json"
        ));
        let (nodes, draws, classes) = if test_mode() {
            (200, 1_000, 4)
        } else {
            (NODES, DRAWS, CLASSES)
        };
        let rdf: RdfGraph = triple_stream(nodes, draws, PREDICATES, 42)
            .chain((0..nodes).map(|i| {
                Triple::from_strs(&format!("n{i}"), "type", &format!("class{}", i % classes))
            }))
            .collect();
        assert!(
            test_mode() || rdf.len() >= 100_000,
            "workload too small: {}",
            rdf.len()
        );
        let enc = EncodedGraph::from_rdf(&rdf);
        (rdf, enc)
    })
}

/// Every `step`-th triple of the graph — the deterministic probe set.
fn probes(g: &RdfGraph, step: usize) -> Vec<Triple> {
    g.iter().step_by(step).copied().collect()
}

/// Sums match sizes over a probe sweep; the per-probe patterns cover one
/// bound-prefix access path each.
fn sweep(
    b: &mut criterion::Bencher<'_>,
    probes: &[Triple],
    pattern_of: impl Fn(&Triple) -> TriplePattern,
    matcher: impl Fn(&TriplePattern) -> Vec<Triple>,
) {
    let pats: Vec<TriplePattern> = probes.iter().map(&pattern_of).collect();
    b.iter(|| {
        let mut total = 0usize;
        for pat in &pats {
            total += matcher(black_box(pat)).len();
        }
        black_box(total)
    });
}

type PatternOf = fn(&Triple) -> TriplePattern;

/// One pattern shape per bound-prefix access path.
const SHAPES: [(&str, PatternOf); 5] = [
    ("s??", |t| TriplePattern::new(t.s, var("x"), var("y"))),
    ("sp?", |t| TriplePattern::new(t.s, t.p, var("y"))),
    ("?p?", |t| TriplePattern::new(var("x"), t.p, var("y"))),
    ("?po", |t| TriplePattern::new(var("x"), t.p, t.o)),
    ("s?o", |t| TriplePattern::new(t.s, var("x"), t.o)),
];

fn bench_bound_prefix_matching(c: &mut Criterion) {
    let (rdf, enc) = workload();
    let probes = probes(rdf, 97);
    let mut group = c.benchmark_group("store_scan");
    group.sample_size(10);
    for (shape, pattern_of) in SHAPES {
        group.bench_with_input(
            BenchmarkId::new("rdf_match", shape),
            &probes,
            |b, probes| sweep(b, probes, pattern_of, |p| rdf.match_pattern(p)),
        );
        group.bench_with_input(
            BenchmarkId::new("enc_match", shape),
            &probes,
            |b, probes| sweep(b, probes, pattern_of, |p| enc.match_pattern(p)),
        );
    }
    // The headline number: one sweep over all five bound-prefix shapes
    // together, per backend.
    let all_shapes = |matcher: &dyn Fn(&TriplePattern) -> Vec<Triple>| -> usize {
        let mut total = 0usize;
        for t in &probes {
            for pattern_of in SHAPES.map(|(_, f)| f) {
                total += matcher(black_box(&pattern_of(t))).len();
            }
        }
        total
    };
    group.bench_function("rdf_match/all_shapes", |b| {
        b.iter(|| black_box(all_shapes(&|p| rdf.match_pattern(p))))
    });
    group.bench_function("enc_match/all_shapes", |b| {
        b.iter(|| black_box(all_shapes(&|p| enc.match_pattern(p))))
    });
    // Candidate counting — the fail-first heuristic's inner loop.
    let pats: Vec<TriplePattern> = probes
        .iter()
        .map(|t| TriplePattern::new(t.s, t.p, var("y")))
        .collect();
    group.bench_function("rdf_count/sp?", |b| {
        b.iter(|| {
            pats.iter()
                .map(|p| rdf.candidate_count(black_box(p)))
                .sum::<usize>()
        })
    });
    group.bench_function("enc_count/sp?", |b| {
        b.iter(|| {
            pats.iter()
                .map(|p| enc.candidate_count(black_box(p)))
                .sum::<usize>()
        })
    });
    group.finish();
}

/// The pair-bound sweep on its own: both fully-bound-pair shapes,
/// `(? p o)` (the ROADMAP gap: hash stores precompute every (p, o)
/// list) and `(s ? o)`, over the same probe set. Both backends are
/// asserted to agree on the total before timing.
fn bench_pair_bound(c: &mut Criterion) {
    let (rdf, enc) = workload();
    let probes = probes(rdf, 97);
    let pair_shapes: [(&str, PatternOf); 2] =
        [(SHAPES[3].0, SHAPES[3].1), (SHAPES[4].0, SHAPES[4].1)];
    let total_of = |matcher: &dyn Fn(&TriplePattern) -> Vec<Triple>| -> usize {
        let mut total = 0usize;
        for t in &probes {
            for (_, pattern_of) in pair_shapes {
                total += matcher(black_box(&pattern_of(t))).len();
            }
        }
        total
    };
    assert_eq!(
        total_of(&|p| rdf.match_pattern(p)),
        total_of(&|p| enc.match_pattern(p)),
        "pair-bound sweeps disagree between backends"
    );
    let mut group = c.benchmark_group("store_pair");
    group.sample_size(10);
    group.bench_function("rdf_match/pair_bound", |b| {
        b.iter(|| black_box(total_of(&|p| rdf.match_pattern(p))))
    });
    group.bench_function("enc_match/pair_bound", |b| {
        b.iter(|| black_box(total_of(&|p| enc.match_pattern(p))))
    });
    group.finish();
}

fn bench_join_throughput(c: &mut Criterion) {
    let (rdf, enc) = workload();
    let vx = Variable::new("x");
    let p1 = tp(var("x"), Term::Iri(Iri::new("p0")), var("y"));
    let p2 = tp(var("x"), Term::Iri(Iri::new("p1")), var("z"));
    // Both intersection strategies must compute the same quantity — the
    // number of distinct subjects matching p0 and p1 — or the comparison
    // is meaningless.
    let hash_intersect = || {
        let left: std::collections::HashSet<Iri> =
            rdf.match_pattern(&p1).into_iter().map(|t| t.s).collect();
        let shared: std::collections::HashSet<Iri> = rdf
            .match_pattern(&p2)
            .into_iter()
            .map(|t| t.s)
            .filter(|s| left.contains(s))
            .collect();
        shared.len()
    };
    assert_eq!(
        hash_intersect(),
        enc.merge_join_ids(&p1, &p2, vx).unwrap().len(),
        "hash and merge intersections disagree"
    );
    let mut group = c.benchmark_group("store_join");
    group.sample_size(10);
    // Subject-subject join candidates: hash-set intersection over the
    // hash indexes vs the store's sorted-merge intersection (whose
    // candidate lists come subject-sorted off the PSO permutation).
    group.bench_function("rdf_hash_intersect", |b| {
        b.iter(|| black_box(hash_intersect()))
    });
    group.bench_function("enc_merge_intersect", |b| {
        b.iter(|| black_box(enc.merge_join_ids(&p1, &p2, vx).unwrap().len()))
    });
    // Full bind join (index-nested-loop): seed on p1, probe p2 with the
    // subject bound — the matcher's bound-prefix path under join load.
    group.bench_function("rdf_bind_join", |b| {
        b.iter(|| {
            let mut n = 0usize;
            for t in rdf.match_pattern(&p1) {
                n += rdf
                    .match_pattern(&TriplePattern::new(t.s, Iri::new("p1"), var("z")))
                    .len();
            }
            black_box(n)
        })
    });
    group.bench_function("enc_bind_join", |b| {
        b.iter(|| {
            let mut n = 0usize;
            for t in enc.match_pattern(&p1) {
                n += enc
                    .match_pattern(&TriplePattern::new(t.s, Iri::new("p1"), var("z")))
                    .len();
            }
            black_box(n)
        })
    });
    // The `bgp_join` open path `(?x p0 ?y)(?y p1 ?z)` end to end on the
    // store: the pairwise stream's rows decoded to `Mapping`s, and every
    // one printed into a reused buffer.
    let path = [
        tp(var("x"), Term::Iri(Iri::new("p0")), var("y")),
        tp(var("y"), Term::Iri(Iri::new("p1")), var("z")),
    ];
    let sorted = |mut rows: Vec<Mapping>| {
        rows.sort();
        rows
    };
    assert_eq!(
        sorted(eval_bgp_with_strategy(enc, &path, JoinStrategy::Pairwise)),
        sorted(eval_bgp_pairwise(rdf, &path)),
        "open-path rows disagree between backends"
    );
    let mut out = String::new();
    group.bench_function("open_path_rows", |b| {
        b.iter(|| {
            out.clear();
            for mu in eval_bgp_with_strategy(enc, black_box(&path), JoinStrategy::Pairwise) {
                let _ = writeln!(out, "{mu}"); // infallible: fmt::Write on String
            }
            black_box(out.len())
        })
    });
    group.finish();
}

criterion_group!(
    benches,
    bench_bound_prefix_matching,
    bench_pair_bound,
    bench_join_throughput
);
criterion_main!(benches);
