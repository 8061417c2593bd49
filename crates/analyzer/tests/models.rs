//! Schedule-exploration models of the store's three core concurrency
//! protocols, each in two variants:
//!
//! * the **buggy pre-fix variant** — the exact bug class a past PR
//!   fixed by hand — which the explorer must *catch* within its
//!   preemption bound (proving the detector works), and
//! * the **fixed variant** — the protocol as `crates/store` ships it —
//!   which must survive *every* schedule in the bound (the regression
//!   guarantee: reintroducing the bug flips the second test).
//!
//! The models use the `wdsparql_analyzer::sched` shims, so every
//! lock/atomic/once op is a scheduling decision the DFS explorer
//! controls. All three protocols fit in 2–3 model threads and are
//! caught with a preemption bound of 2.

use std::sync::Arc;
use wdsparql_analyzer::sched::{spawn, AtomicU64, Explorer, Mutex, OnceLock, Ordering, RwLock};

// ---------------------------------------------------------------------
// Protocol 1 — snapshot-pinned plan+execute (the PR 3 epoch race).
//
// The store plans a BGP and then executes the plan. Pre-fix, planning
// and execution each took their own snapshot; a bulk load between the
// two made the reported epoch (and strategy choice) diverge from the
// data actually scanned. The fix threads ONE snapshot through both
// phases — exactly what the `one-snapshot-per-path` lint now enforces
// statically.
// ---------------------------------------------------------------------

/// Store inner state: (epoch, data version), bumped together under the
/// write lock like `TripleStore::bulk_load`.
type StoreInner = Arc<RwLock<(u64, u64)>>;

fn writer_bumps(store: &StoreInner) {
    let mut g = store.write();
    g.0 += 1; // epoch
    g.1 += 1; // graph contents
}

#[test]
fn plan_execute_two_snapshots_is_caught() {
    let violation = Explorer::new(2)
        .check(|| {
            let store: StoreInner = Arc::new(RwLock::new((0, 0)));
            let s2 = Arc::clone(&store);
            let writer = spawn(move || writer_bumps(&s2));
            // BUGGY: plan on one snapshot, execute on a second one. The
            // store bumps epoch and contents together under the write
            // lock, so any single snapshot has epoch == data — but two
            // snapshots can straddle the bump.
            let plan_epoch = store.read().0;
            let exec_data = store.read().1;
            writer.join();
            assert_eq!(
                plan_epoch, exec_data,
                "plan and execution saw different epochs"
            );
        })
        .expect_err("the two-snapshot plan/execute race must be caught");
    assert!(
        violation.message.contains("different epochs"),
        "{violation}"
    );
}

#[test]
fn plan_execute_shared_snapshot_is_clean() {
    let report = Explorer::new(2)
        .check(|| {
            let store: StoreInner = Arc::new(RwLock::new((0, 0)));
            let s2 = Arc::clone(&store);
            let writer = spawn(move || writer_bumps(&s2));
            // FIXED: one snapshot read pins both plan and execution
            // (`query_with_plan` clones the graph Arc once and derives
            // everything from it), so the pair can never straddle a bump.
            let (plan_epoch, exec_data) = {
                let snap = *store.read();
                (snap.0, snap.1)
            };
            writer.join();
            assert_eq!(plan_epoch, exec_data);
        })
        .expect("the pinned-snapshot protocol has no bad schedule");
    assert!(report.exhausted, "{report:?}");
}

// ---------------------------------------------------------------------
// Protocol 2 — pending-slot stampede dedup (the PR 3 cache-miss
// stampede). Two concurrent misses of the same key must run the
// computation once: the first miss installs an `Arc<OnceLock>` slot in
// a pending map, later misses wait on the slot. The buggy pre-fix
// variant computed straight from "cache says miss".
// ---------------------------------------------------------------------

#[test]
fn cache_miss_stampede_is_caught() {
    let violation = Explorer::new(2)
        .check(|| {
            let cache: Arc<Mutex<Option<u64>>> = Arc::new(Mutex::new(None));
            let computations = Arc::new(AtomicU64::new(0));
            let readers: Vec<_> = (0..2)
                .map(|_| {
                    let cache = Arc::clone(&cache);
                    let computations = Arc::clone(&computations);
                    spawn(move || {
                        // BUGGY: check-then-compute with no in-flight
                        // dedup — both readers can pass the miss check
                        // before either publishes.
                        let miss = cache.lock().is_none();
                        if miss {
                            computations.fetch_add(1, Ordering::SeqCst);
                            *cache.lock() = Some(42);
                        }
                    })
                })
                .collect();
            for r in readers {
                r.join();
            }
            assert_eq!(
                computations.load(Ordering::SeqCst),
                1,
                "stampede: the computation ran more than once"
            );
        })
        .expect_err("the unsynchronized double-compute must be caught");
    assert!(violation.message.contains("stampede"), "{violation}");
}

#[test]
fn cache_miss_pending_slot_dedups_cleanly() {
    let report = Explorer::new(2)
        .check(|| {
            // `ResultCache::get_or_try_compute` in miniature: the pending
            // map collapses to a single shared slot because the model
            // has one key.
            let pending: Arc<Mutex<Option<Arc<OnceLock<u64>>>>> = Arc::new(Mutex::new(None));
            let computations = Arc::new(AtomicU64::new(0));
            let readers: Vec<_> = (0..2)
                .map(|_| {
                    let pending = Arc::clone(&pending);
                    let computations = Arc::clone(&computations);
                    spawn(move || {
                        let (slot, leader) = {
                            let mut p = pending.lock();
                            match &*p {
                                Some(slot) => (Arc::clone(slot), false),
                                None => {
                                    let slot = Arc::new(OnceLock::new());
                                    *p = Some(Arc::clone(&slot));
                                    (slot, true)
                                }
                            }
                        };
                        if leader {
                            computations.fetch_add(1, Ordering::SeqCst);
                            let _ = slot.set(42);
                        } else {
                            assert_eq!(*slot.wait(), 42);
                        }
                    })
                })
                .collect();
            for r in readers {
                r.join();
            }
            assert_eq!(computations.load(Ordering::SeqCst), 1);
        })
        .expect("the pending-slot protocol dedups on every schedule");
    assert!(report.exhausted, "{report:?}");
}

// ---------------------------------------------------------------------
// Protocol 3 — epoch-bump-then-cache-purge with publish re-validation
// (the PR 4 facade epoch-vector invalidation). A writer bumps the
// epoch and purges the cache; a reader that computed on the old graph
// must not publish AFTER the purge, or the stale entry survives
// forever. The fix re-checks the epoch under the cache lock before
// publishing (`still_valid` in `ResultCache::get_or_try_compute`).
// ---------------------------------------------------------------------

struct FacadeModel {
    /// Current store epoch (the facade's epoch vector, collapsed to one
    /// shard for the model).
    epoch: AtomicU64,
    /// Graph contents the cached value is derived from.
    data: AtomicU64,
    /// The result cache: a value valid for the *current* epoch.
    cache: Mutex<Option<u64>>,
}

fn facade_writer(m: &FacadeModel) {
    m.data.store(2, Ordering::SeqCst);
    m.epoch.fetch_add(1, Ordering::SeqCst);
    // Purge after the bump: readers that re-validate cannot slip a
    // pre-bump value in after this line.
    *m.cache.lock() = None;
}

fn assert_cache_fresh(m: &FacadeModel) {
    if let Some(cached) = *m.cache.lock() {
        assert_eq!(
            cached,
            m.data.load(Ordering::SeqCst),
            "stale cache entry survived the epoch purge"
        );
    }
}

#[test]
fn unconditional_publish_after_purge_is_caught() {
    let violation = Explorer::new(2)
        .check(|| {
            let m = Arc::new(FacadeModel {
                epoch: AtomicU64::new(0),
                data: AtomicU64::new(1),
                cache: Mutex::new(None),
            });
            let m2 = Arc::clone(&m);
            let writer = spawn(move || facade_writer(&m2));
            // BUGGY: compute on the current graph, publish whenever —
            // even after the writer's purge already ran.
            let value = m.data.load(Ordering::SeqCst);
            *m.cache.lock() = Some(value);
            writer.join();
            assert_cache_fresh(&m);
        })
        .expect_err("the stale-publish race must be caught");
    assert!(
        violation.message.contains("stale cache entry"),
        "{violation}"
    );
}

#[test]
fn epoch_revalidated_publish_is_clean() {
    let report = Explorer::new(2)
        .check(|| {
            let m = Arc::new(FacadeModel {
                epoch: AtomicU64::new(0),
                data: AtomicU64::new(1),
                cache: Mutex::new(None),
            });
            let m2 = Arc::clone(&m);
            let writer = spawn(move || facade_writer(&m2));
            // FIXED: pin the epoch before computing; publish only if it
            // still matches, deciding under the cache lock so the
            // writer's bump+purge cannot interleave the check and the
            // insert.
            let pinned = m.epoch.load(Ordering::SeqCst);
            let value = m.data.load(Ordering::SeqCst);
            {
                let mut cache = m.cache.lock();
                if m.epoch.load(Ordering::SeqCst) == pinned {
                    *cache = Some(value);
                }
            }
            writer.join();
            assert_cache_fresh(&m);
        })
        .expect("the still_valid re-check holds on every schedule");
    assert!(report.exhausted, "{report:?}");
}

// ---------------------------------------------------------------------
// Protocol 4 — parallel scatter bulk_load (the PR 4 sharded ingest).
// `ShardedStore::bulk_load` partitions the input, scatters each
// partition to its shard on a worker, and only *publishes* the new
// epoch/counts after joining every worker. The buggy pre-fix shape
// publishes first: a reader that trusts the published counts then
// observes shards the scatter has not reached yet.
// ---------------------------------------------------------------------

struct ScatterModel {
    /// Per-shard triple stores, collapsed to item counts.
    shards: Vec<RwLock<u64>>,
    /// The facade's published per-shard counts, `None` until the load
    /// commits.
    published: Mutex<Option<Vec<u64>>>,
}

/// The reader-side contract: once counts are published, every shard
/// must already hold at least that much data.
fn assert_published_counts_are_backed(m: &ScatterModel) {
    if let Some(counts) = m.published.lock().clone() {
        for (shard, &n) in m.shards.iter().zip(&counts) {
            assert!(
                *shard.read() >= n,
                "bulk_load published counts before its scatter workers finished"
            );
        }
    }
}

fn scatter_model() -> Arc<ScatterModel> {
    Arc::new(ScatterModel {
        shards: vec![RwLock::new(0), RwLock::new(0)],
        published: Mutex::new(None),
    })
}

fn spawn_scatter_workers(m: &Arc<ScatterModel>) -> Vec<wdsparql_analyzer::sched::JoinHandle<()>> {
    (0..2)
        .map(|i| {
            let m = Arc::clone(m);
            spawn(move || *m.shards[i].write() += 1)
        })
        .collect()
}

#[test]
fn scatter_publish_before_join_is_caught() {
    let violation = Explorer::new(2)
        .check(|| {
            let m = scatter_model();
            let m2 = Arc::clone(&m);
            let reader = spawn(move || assert_published_counts_are_backed(&m2));
            let workers = spawn_scatter_workers(&m);
            // BUGGY: commit the load before the scatter barrier — the
            // counts are the *intended* totals, not the loaded ones.
            *m.published.lock() = Some(vec![1, 1]);
            for w in workers {
                w.join();
            }
            reader.join();
            assert_published_counts_are_backed(&m);
        })
        .expect_err("the publish-before-join race must be caught");
    assert!(
        violation.message.contains("before its scatter workers"),
        "{violation}"
    );
}

#[test]
fn scatter_join_then_publish_is_clean() {
    let report = Explorer::new(2)
        .check(|| {
            let m = scatter_model();
            let m2 = Arc::clone(&m);
            let reader = spawn(move || assert_published_counts_are_backed(&m2));
            let workers = spawn_scatter_workers(&m);
            // FIXED: the join is the barrier; publication happens-after
            // every shard write, exactly like `ShardedStore::bulk_load`.
            for w in workers {
                w.join();
            }
            *m.published.lock() = Some(vec![1, 1]);
            reader.join();
            assert_published_counts_are_backed(&m);
        })
        .expect("join-then-publish holds on every schedule");
    assert!(report.exhausted, "{report:?}");
}
