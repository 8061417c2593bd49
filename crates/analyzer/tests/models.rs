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
//! lock op is a scheduling decision the DFS explorer controls. All
//! three protocols fit in 2–3 model threads and are caught with a
//! preemption bound of 2.

use std::sync::Arc;
use wdsparql_analyzer::sched::{spawn, Explorer, JoinHandle, Mutex, RwLock};

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
// Protocol 2 — parallel scatter bulk_load (the PR 4 sharded ingest).
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

fn spawn_scatter_workers(m: &Arc<ScatterModel>) -> Vec<JoinHandle<()>> {
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

// ---------------------------------------------------------------------
// Protocol 3 — normalise off-lock, append under the write lock (the
// store's one write path). `TripleStore::try_bulk_load` sorts, dedups
// and probes its batch against a lock-free snapshot, then appends the
// fresh rows under the write lock. A load that lands in between may add
// some of those rows first. The fix compares the snapshot's epoch under
// the write lock and, when it moved, re-filters the fresh rows against
// the current graph (`EncodedGraph::retain_absent`).
// ---------------------------------------------------------------------

/// The graph collapsed to (epoch, rows in append order).
type GraphModel = Arc<RwLock<(u64, Vec<u64>)>>;

/// One bulk load of `batch`: normalise on a snapshot, then append.
fn model_load(g: &GraphModel, batch: &[u64], refilter: bool) {
    let (mut fresh, epoch) = {
        let snap = g.read();
        let fresh: Vec<u64> = batch
            .iter()
            .copied()
            .filter(|r| !snap.1.contains(r))
            .collect();
        (fresh, snap.0)
    };
    if fresh.is_empty() {
        return;
    }
    let mut w = g.write();
    if refilter && w.0 != epoch {
        fresh.retain(|r| !w.1.contains(r));
        if fresh.is_empty() {
            return;
        }
    }
    w.1.extend(fresh);
    w.0 += 1;
}

/// Two writers load overlapping batches ({1, 2} and {2, 3}); the graph
/// must end up holding each row once.
fn overlapping_loads(refilter: bool) {
    let g: GraphModel = Arc::new(RwLock::new((0, Vec::new())));
    let g2 = Arc::clone(&g);
    let writer = spawn(move || model_load(&g2, &[1, 2], refilter));
    model_load(&g, &[2, 3], refilter);
    writer.join();
    let rows = g.read().1.clone();
    for (i, r) in rows.iter().enumerate() {
        assert!(!rows[..i].contains(r), "row {r} landed twice");
    }
}

#[test]
fn unchecked_append_after_off_lock_normalise_is_caught() {
    // BUGGY: both writers normalise at one epoch and append without
    // looking at it again.
    let violation = Explorer::new(2)
        .check(|| overlapping_loads(false))
        .expect_err("the double-append race must be caught");
    assert!(violation.message.contains("landed twice"), "{violation}");
}

#[test]
fn epoch_checked_refilter_is_clean() {
    // FIXED: a moved epoch re-filters the fresh rows under the lock.
    let report = Explorer::new(2)
        .check(|| overlapping_loads(true))
        .expect("the epoch check and re-filter hold on every schedule");
    assert!(report.exhausted, "{report:?}");
}
