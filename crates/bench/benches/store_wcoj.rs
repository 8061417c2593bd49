//! store_wcoj — the worst-case-optimal join vs the pairwise pipeline on
//! cyclic query cores.
//!
//! The workload is a ~110k-triple uniform stream over two predicates:
//! the `p0` edge relation (~55k edges over 6k nodes) is exactly the
//! regime where pairwise triangle evaluation drowns — the bind-join
//! materialises every length-2 path (≈ |E|²/|V| ≈ 500k intermediates)
//! before the closing edge filters them down to the triangles — while
//! the leapfrog join intersects adjacency runs straight off the PSO/POS
//! permutations and never materialises an intermediate. Three cyclic
//! cores are timed: the triangle, the 4-clique and a triangle with a
//! star arm on `p1`. The triangle is timed once more on the same stream
//! loaded in 4096-triple batches and left uncompacted
//! (`triangle_staged/wco`): the full enumeration with the fold rule's
//! last delta segment pending beside the base. `triangle_staged/first`
//! times the read an ingest's first solution pays: the service's
//! `query_limited` of the triangle for one solution, on a prefix of the
//! stream loaded the same way and stopped with several segments pending.
//!
//! Before anything is timed, every query is asserted to produce the
//! identical solution set across {pairwise, wco} × {TripleStore,
//! ShardedStore} (snapshot evaluators and the facades' query paths), and
//! `JoinStrategy::Auto` is asserted to resolve each cyclic core to the
//! WCOJ. Medians merge into the workspace-root `BENCH_store.json`.

use criterion::{black_box, criterion_group, criterion_main, Criterion};
use std::sync::OnceLock;
use wdsparql_rdf::term::var;
use wdsparql_rdf::{tp, Iri, Mapping, QueryBudget, Triple, TriplePattern};
use wdsparql_store::{
    eval_bgp_pairwise, eval_bgp_wco, resolve_strategy, JoinStrategy, ShardedStore, TripleStore,
};
use wdsparql_workloads::triple_stream;

const NODES: usize = 6_000;
const DRAWS: usize = 110_000;
const PREDICATES: usize = 2;
const SHARDS: usize = 4;
/// The ingest batch of `triangle_staged`.
const BATCH: usize = 4096;
/// The delta segments pending under `triangle_staged/first`.
const FIRST_PENDING: usize = 4;

/// `cargo test` runs bench targets with `--test` (each body once); a
/// token workload keeps that pass fast while still exercising every
/// bench path end to end.
fn test_mode() -> bool {
    std::env::args().any(|a| a == "--test")
}

/// The workload's triples, in stream order.
fn stream() -> impl Iterator<Item = Triple> {
    let (nodes, draws) = if test_mode() {
        (60, 600)
    } else {
        (NODES, DRAWS)
    };
    triple_stream(nodes, draws, PREDICATES, 42)
}

/// Both store layouts over the same stream, built once. Also pins the
/// JSON report to the committed workspace-root baseline.
fn stores() -> &'static (TripleStore, ShardedStore) {
    static STORES: OnceLock<(TripleStore, ShardedStore)> = OnceLock::new();
    STORES.get_or_init(|| {
        criterion::set_bench_json_path(concat!(
            env!("CARGO_MANIFEST_DIR"),
            "/../../BENCH_store.json"
        ));
        let single = TripleStore::from_triples(stream());
        assert!(
            test_mode() || single.len() >= 100_000,
            "workload too small: {}",
            single.len()
        );
        let sharded = ShardedStore::from_triples(SHARDS, stream());
        (single, sharded)
    })
}

/// The stream loaded in order, batch by batch, and never compacted: the
/// fold rule leaves the last batches pending as delta segments.
fn staged() -> &'static TripleStore {
    static STAGED: OnceLock<TripleStore> = OnceLock::new();
    STAGED.get_or_init(|| {
        let store = load_in_batches(BATCH, usize::MAX);
        assert!(
            store.read_snapshot().graph().segment_count() > 0,
            "triangle_staged must run with segments pending"
        );
        store
    })
}

/// The stream loaded as [`staged`] loads it, stopped at the first batch
/// that leaves `FIRST_PENDING` segments pending: an ingest's store
/// mid-stream. The token workload loads 64-triple batches, since its
/// whole stream is one 4096-triple batch.
fn staged_first() -> &'static TripleStore {
    static STAGED: OnceLock<TripleStore> = OnceLock::new();
    STAGED.get_or_init(|| {
        let batch = if test_mode() { BATCH / 64 } else { BATCH };
        let store = load_in_batches(batch, FIRST_PENDING);
        let segments = store.read_snapshot().graph().segment_count();
        assert!(
            segments > 1,
            "triangle_staged/first must run with several segments pending, not {segments}"
        );
        store
    })
}

/// The stream loaded in order, `batch` triples at a time, until
/// `pending` segments are pending or the stream ends.
fn load_in_batches(batch: usize, pending: usize) -> TripleStore {
    let triples: Vec<Triple> = stream().collect();
    let store = TripleStore::new();
    for batch in triples.chunks(batch) {
        store.bulk_load(batch.iter().copied());
        if store.read_snapshot().graph().segment_count() >= pending {
            break;
        }
    }
    store
}

fn p0(s: &str, o: &str) -> TriplePattern {
    tp(var(s), Iri::new("p0"), var(o))
}

/// The cyclic cores under test.
fn queries() -> Vec<(&'static str, Vec<TriplePattern>)> {
    let triangle = vec![p0("x", "y"), p0("y", "z"), p0("x", "z")];
    let clique4 = vec![
        p0("w", "x"),
        p0("w", "y"),
        p0("w", "z"),
        p0("x", "y"),
        p0("x", "z"),
        p0("y", "z"),
    ];
    let mut star_cycle = triangle.clone();
    star_cycle.push(tp(var("x"), Iri::new("p1"), var("arm")));
    vec![
        ("triangle", triangle),
        ("clique4", clique4),
        ("star_cycle", star_cycle),
    ]
}

fn sorted(mut sols: Vec<Mapping>) -> Vec<Mapping> {
    sols.sort();
    sols
}

/// Correctness gate, run once before timing: identical solution sets
/// across both strategies and both backends — snapshot evaluators and
/// the facades' query paths — and `Auto` resolving each core to the
/// WCOJ.
fn assert_strategies_and_backends_agree() {
    let (single, sharded) = stores();
    let snap = single.read_snapshot();
    let ssnap = sharded.snapshot();
    for (name, pats) in queries() {
        let want = sorted(eval_bgp_pairwise(snap.graph(), &pats));
        assert_eq!(
            sorted(eval_bgp_wco(snap.graph(), &pats)),
            want,
            "{name}: wco vs pairwise on TripleStore"
        );
        assert_eq!(
            sorted(eval_bgp_pairwise(&ssnap, &pats)),
            want,
            "{name}: pairwise on ShardedStore"
        );
        assert_eq!(
            sorted(eval_bgp_wco(&ssnap, &pats)),
            want,
            "{name}: wco on ShardedStore"
        );
        if name == "triangle" {
            assert_eq!(
                sorted(eval_bgp_wco(staged().read_snapshot().graph(), &pats)),
                want,
                "{name}: wco on the staged TripleStore"
            );
            let store = staged_first();
            let first = store.query_limited(&pats, 1, &QueryBudget::unlimited());
            let all = eval_bgp_pairwise(store.read_snapshot().graph(), &pats);
            assert!(
                matches!(&first.expect("an unlimited budget")[..], [mu] if all.contains(mu)),
                "{name}: the first solution on the mid-stream TripleStore"
            );
        }
        assert_eq!(
            resolve_strategy(snap.graph(), &pats, JoinStrategy::Auto),
            JoinStrategy::Wco,
            "{name}: Auto must route the cyclic core to the WCOJ"
        );
        // The facades' query paths agree under every knob setting.
        for strategy in [JoinStrategy::Pairwise, JoinStrategy::Wco] {
            single.set_join_strategy(strategy);
            sharded.set_join_strategy(strategy);
            assert_eq!(
                sorted(single.query(&pats).iter().cloned().collect()),
                want,
                "{name}: single facade under {strategy}"
            );
            assert_eq!(
                sorted(sharded.query(&pats).iter().cloned().collect()),
                want,
                "{name}: sharded facade under {strategy}"
            );
        }
    }
}

fn bench_wcoj(c: &mut Criterion) {
    assert_strategies_and_backends_agree();
    let (single, sharded) = stores();
    let snap = single.read_snapshot();
    let ssnap = sharded.snapshot();
    let staged = staged().read_snapshot();
    let (staged_first, budget) = (staged_first(), QueryBudget::unlimited());
    let mut group = c.benchmark_group("store_wcoj");
    group.sample_size(10);
    for (name, pats) in queries() {
        if name == "triangle" {
            group.bench_function("triangle_staged/wco", |b| {
                b.iter(|| eval_bgp_wco(staged.graph(), black_box(&pats)).len())
            });
            group.bench_function("triangle_staged/first", |b| {
                b.iter(|| {
                    let first = staged_first.query_limited(black_box(&pats), 1, &budget);
                    first.expect("an unlimited budget").len()
                })
            });
        }
        group.bench_function(format!("{name}/pairwise"), |b| {
            b.iter(|| eval_bgp_pairwise(snap.graph(), black_box(&pats)).len())
        });
        group.bench_function(format!("{name}/wco"), |b| {
            b.iter(|| eval_bgp_wco(snap.graph(), black_box(&pats)).len())
        });
        group.bench_function(format!("{name}/wco_sharded{SHARDS}"), |b| {
            b.iter(|| eval_bgp_wco(&ssnap, black_box(&pats)).len())
        });
    }
    group.finish();
}

criterion_group!(benches, bench_wcoj);
criterion_main!(benches);
