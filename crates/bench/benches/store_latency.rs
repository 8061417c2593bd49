//! store_latency — the first latency-distribution numbers in the repo:
//! per-query-shape p50/p90/p99 under a concurrent mixed read/write
//! workload, against the sharded triple store. A background writer
//! keeps appending delta segments (bumping epochs, so the result cache
//! cannot serve every probe) and a background reader keeps scatter-
//! gather scans in flight while the foreground measures three query
//! shapes: a routed point lookup, a subject star, and the cyclic
//! triangle that `Auto` sends to the WCOJ — the triangle as two rows, a
//! guaranteed cache miss under the churn and a guaranteed hit once it
//! has stopped. Percentile entries merge into the workspace-root
//! `BENCH_store.json` next to the medians of the other store targets
//! (the vendored criterion emits `p50_ns`/`p90_ns`/`p99_ns` alongside
//! `median_ns`).

use criterion::{black_box, criterion_group, criterion_main, Criterion};
use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};
use std::sync::{Arc, OnceLock};
use wdsparql_rdf::term::var;
use wdsparql_rdf::{tp, Iri, Triple};
use wdsparql_store::ShardedStore;
use wdsparql_workloads::triple_stream;

const NODES: usize = 4_000;
const DRAWS: usize = 30_000;
const PREDICATES: usize = 8;
/// Closed `p0`-triangles seeded on top of the stream, so the cyclic
/// query has guaranteed answers — and twice as many as the facade's
/// result cache holds queries (128), so a probe rotating over their
/// corners always finds its entry evicted.
const TRIANGLES: usize = 256;
const SHARDS: usize = 4;

/// `cargo test` runs bench targets with `--test` (each body once); a
/// token workload keeps that pass fast while still exercising every
/// bench path end to end.
fn test_mode() -> bool {
    std::env::args().any(|a| a == "--test")
}

fn seed_triples() -> Vec<Triple> {
    let (nodes, draws, triangles) = if test_mode() {
        (200, 1_000, 8)
    } else {
        (NODES, DRAWS, TRIANGLES)
    };
    triple_stream(nodes, draws, PREDICATES, 42)
        .chain((0..triangles).flat_map(|i| {
            let (a, b, c) = (format!("t{i}a"), format!("t{i}b"), format!("t{i}c"));
            [
                Triple::from_strs(&a, "p0", &b),
                Triple::from_strs(&b, "p0", &c),
                Triple::from_strs(&a, "p0", &c),
            ]
        }))
        .collect()
}

/// The store under concurrent load, built once: seeded, compacted, and
/// with the baseline JSON path pinned to the workspace root (shared
/// with the other store targets).
fn workload() -> &'static Arc<ShardedStore> {
    static WORKLOAD: OnceLock<Arc<ShardedStore>> = OnceLock::new();
    WORKLOAD.get_or_init(|| {
        criterion::set_bench_json_path(concat!(
            env!("CARGO_MANIFEST_DIR"),
            "/../../BENCH_store.json"
        ));
        Arc::new(ShardedStore::from_triples(SHARDS, seed_triples()))
    })
}

/// Background churn: a writer appending small fresh batches (each one
/// bumps a shard epoch and invalidates facade cache entries that read
/// it) and a reader keeping fan-out scans in flight. Stops on the flag;
/// the guard joins the threads.
struct Churn {
    stop: Arc<AtomicBool>,
    handles: Vec<std::thread::JoinHandle<()>>,
}

impl Churn {
    fn start(store: &Arc<ShardedStore>) -> Churn {
        let stop = Arc::new(AtomicBool::new(false));
        static NEXT: AtomicU64 = AtomicU64::new(0);
        let mut handles = Vec::new();
        {
            let (store, stop) = (Arc::clone(store), Arc::clone(&stop));
            handles.push(std::thread::spawn(move || {
                // relaxed-ok: stop flag and id counter need no ordering
                // with the store's own synchronization
                while !stop.load(Ordering::Relaxed) {
                    let base = NEXT.fetch_add(64, Ordering::Relaxed);
                    store.bulk_load((base..base + 64).map(|i| {
                        Triple::from_strs(&format!("w{i}"), "p7", &format!("w{}", i / 2))
                    }));
                    std::thread::sleep(std::time::Duration::from_micros(200));
                }
            }));
        }
        {
            let (store, stop) = (Arc::clone(store), Arc::clone(&stop));
            handles.push(std::thread::spawn(move || {
                let pat = tp(var("x"), Iri::new("p1"), var("y"));
                // relaxed-ok: stop flag needs no ordering with the reads
                while !stop.load(Ordering::Relaxed) {
                    black_box(store.snapshot().shard(0).match_pattern(&pat).len());
                    std::thread::sleep(std::time::Duration::from_micros(100));
                }
            }));
        }
        Churn { stop, handles }
    }
}

impl Drop for Churn {
    fn drop(&mut self) {
        // relaxed-ok: thread join below is the synchronization point
        self.stop.store(true, Ordering::Relaxed);
        for h in self.handles.drain(..) {
            let _ = h.join();
        }
    }
}

fn bench_latency_under_churn(c: &mut Criterion) {
    let store = workload();
    // Correctness before timing: every shape must actually answer.
    let point = tp(Iri::new("t0a"), Iri::new("p0"), var("y"));
    let star = [
        tp(Iri::new("t0a"), Iri::new("p0"), var("y")),
        tp(Iri::new("t0a"), var("w"), var("z")),
    ];
    let triangle = [
        tp(var("x"), Iri::new("p0"), var("y")),
        tp(var("y"), Iri::new("p0"), var("z")),
        tp(var("x"), Iri::new("p0"), var("z")),
    ];
    assert!(!store.solutions(&point).is_empty(), "point probe is empty");
    assert!(!store.query(&star).is_empty(), "star probe is empty");
    let planned = store.query_with_plan(&triangle);
    assert!(!planned.solutions.is_empty(), "no triangles in workload");
    assert_eq!(
        planned.strategy,
        wdsparql_store::JoinStrategy::Wco,
        "auto must route the triangle to the WCOJ"
    );

    let churn = Churn::start(store);
    let mut group = c.benchmark_group("store_latency");
    group.sample_size(30);
    // Rotating probe subjects, more of them than the result cache has
    // entries: every probe is a miss wherever the churn writer happens
    // to be, so the numbers are evaluation latency, not a mix of it with
    // cache-lookup latency that differs from run to run.
    let probe = AtomicU64::new(0);
    let triangles = if test_mode() { 8 } else { TRIANGLES } as u64;
    group.bench_function("point_routed", |b| {
        b.iter(|| {
            // relaxed-ok: bench-local rotation counter
            let i = probe.fetch_add(1, Ordering::Relaxed) % triangles;
            let pat = tp(Iri::new(&format!("t{i}a")), Iri::new("p0"), var("y"));
            black_box(store.solutions(&pat).len())
        })
    });
    group.bench_function("star_routed", |b| {
        b.iter(|| {
            // relaxed-ok: bench-local rotation counter
            let i = probe.fetch_add(1, Ordering::Relaxed) % triangles;
            let s = format!("t{i}b");
            let pats = [
                tp(Iri::new(&s), Iri::new("p0"), var("y")),
                tp(Iri::new(&s), var("w"), var("z")),
            ];
            black_box(store.query(&pats).len())
        })
    });
    // The triangle fans out to every shard and is the same query each
    // time, so under churn alone it read as a cache hit or a miss
    // depending on where the writer was. Two rows instead. The miss:
    // each iteration first loads one fresh triple, which bumps the epoch
    // of a shard the query reads (the load is microseconds against the
    // join's milliseconds, and part of the row).
    group.bench_function("triangle_wco_fanout_miss", |b| {
        b.iter(|| {
            // relaxed-ok: bench-local rotation counter
            let i = probe.fetch_add(1, Ordering::Relaxed);
            store.bulk_load([Triple::from_strs(&format!("m{i}"), "p7", "m")]);
            black_box(store.query(&triangle).len())
        })
    });
    drop(churn);
    // The hit: the same query repeated on the quiesced store.
    group.bench_function("triangle_wco_fanout_hit", |b| {
        b.iter(|| black_box(store.query(&triangle).len()))
    });
    group.finish();
}

criterion_group!(benches, bench_latency_under_churn);
criterion_main!(benches);
