//! store_shard — write scaling of the hash-sharded store.
//!
//! The scenario is the service's operating point: batches stream in
//! while snapshot-isolated reads are in flight (there is always some
//! query holding a graph snapshot in a loaded service). Every batch is
//! loaded with one routed point-read pinned across the write, so the
//! write path pays its real-world copy-on-write bill:
//!
//! * **single store** (`shards_1`, the baseline): the reader pins the
//!   *whole* graph, so the load's `Arc::make_mut` deep-clones every
//!   permutation and the dictionary — O(dataset) per batch;
//! * **sharded store** (`shards_2` / `shards_4`): the routed reader pins
//!   *one shard*, the scattered sub-loads clone at most that shard —
//!   the copy-on-write blast radius shrinks with the shard count (and
//!   on multi-core hosts the scattered sub-loads additionally run on
//!   independent write locks in parallel; this box times the
//!   single-core algorithmic win alone).
//!
//! Before anything is timed, the sharded layouts are asserted to answer
//! every check query identically to the single store. Read-side
//! scatter-gather overhead is reported separately (`query_routed`,
//! `query_fanout` — routed reads touch one shard; fan-outs pay a k-way
//! merge). Medians merge into the workspace-root `BENCH_store.json`
//! (shared with the other store targets).

use criterion::{black_box, criterion_group, criterion_main, Criterion};
use std::sync::OnceLock;
use wdsparql_rdf::term::var;
use wdsparql_rdf::{tp, Iri, Mapping, Triple, TripleIndex, TriplePattern};
use wdsparql_store::{ShardedStore, TripleStore};
use wdsparql_workloads::batched_triple_stream;

const NODES: usize = 15_000;
const DRAWS: usize = 110_000;
const PREDICATES: usize = 8;
/// The ingest granularity: the 200-triple batches an incremental
/// pipeline delivers.
const BATCH: usize = 200;
/// Shard counts under test; 1 is the single-`TripleStore` baseline.
const SHARD_COUNTS: [usize; 3] = [1, 2, 4];

/// `cargo test` runs bench targets with `--test` (each body once); a
/// token workload keeps that pass fast while still exercising every
/// bench path end to end.
fn test_mode() -> bool {
    std::env::args().any(|a| a == "--test")
}

/// The pre-materialised ingest feed, interned once. Also pins the JSON
/// report to the committed workspace-root baseline.
fn batches() -> &'static Vec<Vec<Triple>> {
    static BATCHES: OnceLock<Vec<Vec<Triple>>> = OnceLock::new();
    BATCHES.get_or_init(|| {
        criterion::set_bench_json_path(concat!(
            env!("CARGO_MANIFEST_DIR"),
            "/../../BENCH_store.json"
        ));
        let (nodes, draws, batch) = if test_mode() {
            (200, 2_000, 250)
        } else {
            (NODES, DRAWS, BATCH)
        };
        batched_triple_stream(nodes, draws, PREDICATES, batch, 42).collect()
    })
}

fn node_count() -> usize {
    if test_mode() {
        200
    } else {
        NODES
    }
}

/// Query shapes asserted identical across layouts: a routed point read,
/// a predicate fan-out, a pair-bound probe, and a two-pattern join.
fn check_patterns() -> Vec<Vec<TriplePattern>> {
    vec![
        vec![tp(Iri::new("n7"), var("q"), var("y"))],
        vec![tp(var("x"), wdsparql_rdf::iri("p0"), var("y"))],
        vec![tp(var("x"), wdsparql_rdf::iri("p1"), Iri::new("n3"))],
        vec![
            tp(var("x"), wdsparql_rdf::iri("p0"), var("y")),
            tp(var("y"), wdsparql_rdf::iri("p1"), var("z")),
        ],
    ]
}

fn sorted(sols: &[Mapping]) -> Vec<Mapping> {
    let mut out = sols.to_vec();
    out.sort();
    out
}

/// Correctness gate, run once before timing: every sharded layout
/// answers every check query exactly like the single store.
fn assert_layouts_agree() {
    let single = TripleStore::new();
    for batch in batches() {
        single.bulk_load(batch.iter().copied());
    }
    single.compact();
    for &shards in &SHARD_COUNTS[1..] {
        let sharded = ShardedStore::new(shards);
        for batch in batches() {
            sharded.bulk_load(batch.iter().copied());
        }
        sharded.compact();
        assert_eq!(sharded.len(), single.len(), "{shards}-shard row count");
        for pats in check_patterns() {
            assert_eq!(
                sorted(&sharded.query(&pats)),
                sorted(&single.query(&pats)),
                "{shards}-shard layout diverged on {pats:?}"
            );
        }
        // The scatter-gather snapshot agrees with the single graph on a
        // raw pattern sweep too.
        let snap = sharded.snapshot();
        let sref = single.read_snapshot();
        for pats in check_patterns() {
            for pat in pats {
                let mut got = TripleIndex::match_pattern(&snap, &pat);
                let mut want = sref.match_pattern(&pat);
                got.sort();
                want.sort();
                assert_eq!(got, want, "{shards}-shard match_pattern {pat}");
            }
        }
    }
}

/// One full ingest with a snapshot-isolated routed read pinned across
/// every batch load — the single-store side. The reader's snapshot spans
/// the whole graph (there is nothing smaller to pin), so each load
/// deep-clones the dataset.
fn ingest_under_readers_single() -> usize {
    let store = TripleStore::new();
    let nodes = node_count();
    let probe_pred = Iri::new("p0");
    let mut served = 0usize;
    for (i, batch) in batches().iter().enumerate() {
        let subject = Iri::new(&format!("n{}", (i * 97) % nodes));
        let snapshot = store.read_snapshot();
        store.bulk_load(batch.iter().copied());
        // The in-flight read completes on its pinned (pre-load) world.
        served += snapshot.solutions(&tp(subject, probe_pred, var("y"))).len();
    }
    store.compact();
    store.len() + served
}

/// The sharded side of the same scenario: the routed reader pins one
/// shard's graph, so the scattered load clones at most that shard.
fn ingest_under_readers_sharded(shards: usize) -> usize {
    let store = ShardedStore::new(shards);
    let nodes = node_count();
    let probe_pred = Iri::new("p0");
    let mut served = 0usize;
    for (i, batch) in batches().iter().enumerate() {
        let subject = Iri::new(&format!("n{}", (i * 97) % nodes));
        let snapshot = store.subject_snapshot(subject);
        store.bulk_load(batch.iter().copied());
        served += snapshot.solutions(&tp(subject, probe_pred, var("y"))).len();
    }
    store.compact();
    store.len() + served
}

fn bench_sharded_writes(c: &mut Criterion) {
    assert_layouts_agree();
    let mut group = c.benchmark_group("store_shard");
    group.sample_size(10);
    for shards in SHARD_COUNTS {
        group.bench_function(format!("bulk_load/shards_{shards}"), |b| {
            if shards == 1 {
                b.iter(|| black_box(ingest_under_readers_single()))
            } else {
                b.iter(|| black_box(ingest_under_readers_sharded(shards)))
            }
        });
    }

    // Read-side scatter-gather overhead, on fully-built stores: routed
    // point reads (one shard) and a predicate fan-out (k-way merge),
    // measured on snapshots so the facade cache stays out of the way.
    let single = TripleStore::new();
    for batch in batches() {
        single.bulk_load(batch.iter().copied());
    }
    single.compact();
    let sharded = ShardedStore::new(4);
    for batch in batches() {
        sharded.bulk_load(batch.iter().copied());
    }
    sharded.compact();
    let nodes = node_count();
    let probes: Vec<TriplePattern> = (0..100)
        .map(|i| {
            tp(
                Iri::new(&format!("n{}", (i * 131) % nodes)),
                Iri::new("p0"),
                var("y"),
            )
        })
        .collect();
    let sref = single.read_snapshot();
    let snap = sharded.snapshot();
    assert_eq!(
        probes
            .iter()
            .map(|p| sref.solutions(p).len())
            .sum::<usize>(),
        probes
            .iter()
            .map(|p| TripleIndex::solutions(&snap, p).len())
            .sum::<usize>(),
        "routed sweeps disagree"
    );
    group.bench_function("query_routed/shards_1", |b| {
        b.iter(|| {
            probes
                .iter()
                .map(|p| sref.solutions(black_box(p)).len())
                .sum::<usize>()
        })
    });
    group.bench_function("query_routed/shards_4", |b| {
        b.iter(|| {
            probes
                .iter()
                .map(|p| TripleIndex::solutions(&snap, black_box(p)).len())
                .sum::<usize>()
        })
    });
    let fanout = tp(var("x"), Iri::new("p0"), var("y"));
    assert_eq!(
        sref.solutions(&fanout).len(),
        TripleIndex::solutions(&snap, &fanout).len(),
        "fan-out sweeps disagree"
    );
    group.bench_function("query_fanout/shards_1", |b| {
        b.iter(|| black_box(sref.solutions(&fanout).len()))
    });
    group.bench_function("query_fanout/shards_4", |b| {
        b.iter(|| black_box(TripleIndex::solutions(&snap, &fanout).len()))
    });
    group.finish();
}

criterion_group!(benches, bench_sharded_writes);
criterion_main!(benches);
