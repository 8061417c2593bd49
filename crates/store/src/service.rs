//! [`TripleStore`]: the concurrent query service over an
//! [`EncodedGraph`].
//!
//! The store keeps the encoded graph in an `Arc` behind a reader-writer
//! lock: queries clone the `Arc` under a brief read lock and evaluate
//! lock-free against that snapshot, while bulk loads mutate via
//! copy-on-write under the write lock — so a slow query never blocks a
//! load, and a load never blocks queries. An LRU result cache is keyed
//! by the query plus the `(shard, epoch)` pairs it read — `[(0, epoch)]`
//! here; a bulk load bumps the epoch, so stale entries can never be
//! served — with per-key in-flight deduplication so concurrent misses of
//! the same query compute it once.
//!
//! How a BGP request is served — cache, planning, join strategy,
//! streaming, accounting — is not decided here: every query entry point
//! pins one snapshot and delegates to `bgp::serve`, the same
//! code the sharded facade ([`crate::ShardedStore`]) runs over its
//! scatter-gather snapshot. One snapshot *and one plan* thread through
//! planning and execution, so the plan [`TripleStore::query_with_plan`]
//! displays is always the executed one, computed exactly once.

use crate::bgp::{self, plan_order, CacheKey, Pinned, PlannedQuery, Want};
use crate::cache::ResultCache;
use crate::encoded::{CapacityError, EncodedGraph};
use crate::persist::vfs::Vfs;
use crate::persist::{PersistError, PersistOpts, StoreDir};
use crate::wcoj::JoinStrategy;
use parking_lot::RwLock;
use std::collections::HashSet;
use std::fmt;
use std::path::Path;
use std::sync::{Arc, OnceLock};
use std::time::Instant;
use wdsparql_rdf::{
    ExecError, Iri, Mapping, QueryBudget, RdfGraph, Triple, TripleIndex, TriplePattern,
};

pub use crate::cache::CacheStats;

/// Why a store mutation failed: the in-memory capacity guard refused
/// the batch, or — on a durable store — the persistence layer could not
/// make it durable. Either way the store is unchanged.
#[derive(Debug)]
pub enum StoreError {
    /// The batch would exceed [`crate::MAX_TRIPLES`] or the configured
    /// [`TripleStore::set_capacity_limit`].
    Capacity(CapacityError),
    /// The durable commit (or open/attach) failed; see [`PersistError`].
    Persist(PersistError),
}

impl fmt::Display for StoreError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            StoreError::Capacity(e) => e.fmt(f),
            StoreError::Persist(e) => e.fmt(f),
        }
    }
}

impl std::error::Error for StoreError {
    fn source(&self) -> Option<&(dyn std::error::Error + 'static)> {
        match self {
            StoreError::Capacity(e) => Some(e),
            StoreError::Persist(e) => Some(e),
        }
    }
}

impl From<CapacityError> for StoreError {
    fn from(e: CapacityError) -> StoreError {
        StoreError::Capacity(e)
    }
}

impl From<PersistError> for StoreError {
    fn from(e: PersistError) -> StoreError {
        StoreError::Persist(e)
    }
}

/// A recovered image that overflows the in-memory row bound can only
/// come from a tampered or mismatched store directory — the store that
/// wrote it enforced the same bound on every commit.
fn replay_overflow(e: CapacityError) -> StoreError {
    StoreError::Persist(PersistError::Corrupt(format!(
        "recovered image exceeds the in-memory row bound: {e}"
    )))
}

/// A snapshot of the store's contents, taken under the read lock.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct StoreStats {
    /// Triples in the store.
    pub triples: usize,
    /// Distinct terms (= `|dom(G)|`).
    pub terms: usize,
    /// Distinct subjects / predicates / objects.
    pub subjects: usize,
    pub predicates: usize,
    pub objects: usize,
    /// Per-predicate cardinalities, descending.
    pub predicate_cardinalities: Vec<(Iri, usize)>,
    /// Bulk-load generation; queries are cached per epoch.
    pub epoch: u64,
    /// Rows in the compacted base arrays.
    pub base_rows: usize,
    /// Rows pending in delta segments.
    pub delta_rows: usize,
    /// Pending delta segments.
    pub segments: usize,
    /// Lifetime count of delta folds.
    pub compactions: u64,
}

impl fmt::Display for StoreStats {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        writeln!(
            f,
            "{} triple(s) over {} term(s) | {} subject(s), {} predicate(s), {} object(s) | epoch {}",
            self.triples, self.terms, self.subjects, self.predicates, self.objects, self.epoch
        )?;
        writeln!(
            f,
            "segments: {} base row(s) + {} delta row(s) in {} segment(s), {} compaction(s)",
            self.base_rows, self.delta_rows, self.segments, self.compactions
        )?;
        write!(f, "predicate cardinalities:")?;
        for (p, n) in &self.predicate_cardinalities {
            write!(f, " {p}={n}")?;
        }
        Ok(())
    }
}

/// Builds a [`StoreStats`] from one graph snapshot and its epoch — the
/// single construction shared by [`TripleStore::stats`] and the sharded
/// facade's per-shard stats.
pub(crate) fn stats_of(graph: &EncodedGraph, epoch: u64) -> StoreStats {
    let (subjects, predicates, objects) = graph.position_cardinalities();
    StoreStats {
        triples: graph.len(),
        terms: graph.term_count(),
        subjects,
        predicates,
        objects,
        predicate_cardinalities: graph.predicate_cardinalities(),
        epoch,
        base_rows: graph.base_len(),
        delta_rows: graph.delta_len(),
        segments: graph.segment_count(),
        compactions: graph.compactions(),
    }
}

/// An owned, lock-free view of the store's graph at one epoch: the
/// `Arc`'d snapshot a query evaluates against, handed out by
/// [`TripleStore::read_snapshot`]. Holding one pins the graph version —
/// concurrent bulk loads proceed copy-on-write and become visible on the
/// next snapshot. Dereferences to [`EncodedGraph`], so the whole
/// [`TripleIndex`] surface is available on it.
#[derive(Clone)]
#[must_use = "a snapshot pins a graph version; dropping it unused pins nothing"]
pub struct StoreSnapshot {
    graph: Arc<EncodedGraph>,
    epoch: u64,
}

impl StoreSnapshot {
    /// The epoch this snapshot was taken at.
    pub fn epoch(&self) -> u64 {
        self.epoch
    }

    /// The snapshot's graph.
    pub fn graph(&self) -> &EncodedGraph {
        &self.graph
    }

    /// A shared empty snapshot (epoch 0) — the placeholder the sharded
    /// facade puts in the slots a routed query provably never reads, so
    /// holding the snapshot pins nothing there. One static graph backs
    /// every placeholder; no per-query allocation.
    pub(crate) fn empty() -> StoreSnapshot {
        static EMPTY: OnceLock<Arc<EncodedGraph>> = OnceLock::new();
        StoreSnapshot {
            graph: Arc::clone(EMPTY.get_or_init(|| Arc::new(EncodedGraph::new()))),
            epoch: 0,
        }
    }
}

impl std::ops::Deref for StoreSnapshot {
    type Target = EncodedGraph;

    fn deref(&self) -> &EncodedGraph {
        &self.graph
    }
}

/// The pairwise pipeline as a public entry point (plan + semi-join +
/// bind joins on one snapshot) — the baseline the WCOJ benches and
/// equivalence tests compare [`crate::wcoj::eval_bgp_wco`] against.
pub fn eval_bgp_pairwise(ix: &dyn TripleIndex, patterns: &[TriplePattern]) -> Vec<Mapping> {
    bgp::eval_bgp_with_strategy(ix, patterns, JoinStrategy::Pairwise)
}

struct Inner {
    /// The current graph snapshot. Readers clone the `Arc` under a brief
    /// read lock and evaluate lock-free against the snapshot, so a slow
    /// query never blocks a bulk load (or, behind a writer-preferring
    /// lock, other queries). `bulk_load` mutates via [`Arc::make_mut`] —
    /// in place when no query holds the snapshot, copy-on-write
    /// otherwise.
    graph: Arc<EncodedGraph>,
    epoch: u64,
    /// Service-level ingest cap (see [`TripleStore::set_capacity_limit`]).
    /// Lives here — not in the graph — so configuring it never pays the
    /// copy-on-write bill of [`Arc::make_mut`] on a pinned dataset.
    capacity_limit: Option<usize>,
    /// The durable backing directory, when this store was opened with
    /// [`TripleStore::open`] (or attached via
    /// [`TripleStore::persist_to`]). `None` ⟹ purely in-memory. Living
    /// inside `Inner` means every durable commit happens under the same
    /// write lock that publishes the in-memory state, so the on-disk
    /// epoch sequence and the served epoch sequence can never interleave.
    persist: Option<StoreDir>,
}

/// The concurrent triple-store service.
///
/// Shareable across threads behind an [`Arc`]; reads (queries, stats)
/// evaluate against a cheap `Arc` snapshot of the graph,
/// [`TripleStore::bulk_load`] takes the write lock and bumps the epoch,
/// [`TripleStore::compact`] folds the graph's delta segments without
/// changing its contents (so the epoch — and every cached result —
/// survives). For write scaling beyond one write lock, front N of these
/// with [`crate::ShardedStore`].
pub struct TripleStore {
    inner: RwLock<Inner>,
    cache: ResultCache<CacheKey>,
    /// How BGPs are joined (see [`JoinStrategy`]); separate from `inner`
    /// so reading it never queues behind a bulk load.
    strategy: RwLock<JoinStrategy>,
}

impl Default for TripleStore {
    fn default() -> TripleStore {
        TripleStore::new()
    }
}

impl TripleStore {
    /// An empty store with the default cache capacity (128 queries).
    pub fn new() -> TripleStore {
        TripleStore::with_cache_capacity(128)
    }

    pub fn with_cache_capacity(capacity: usize) -> TripleStore {
        TripleStore {
            inner: RwLock::new(Inner {
                graph: Arc::new(EncodedGraph::new()),
                epoch: 0,
                capacity_limit: None,
                persist: None,
            }),
            cache: ResultCache::new(capacity),
            strategy: RwLock::new(JoinStrategy::default()),
        }
    }

    /// The configured [`JoinStrategy`] ([`JoinStrategy::Auto`] by
    /// default).
    pub fn join_strategy(&self) -> JoinStrategy {
        *self.strategy.read()
    }

    /// Sets how BGPs are joined. Correctness does not depend on this
    /// call's cache clear — entries are keyed by the configured strategy
    /// that computed them, so strategies can never serve each other's
    /// runs, in-flight computations included —
    /// the clear just frees result sets the old setting will no longer
    /// reach.
    pub fn set_join_strategy(&self, strategy: JoinStrategy) {
        *self.strategy.write() = strategy;
        self.cache.clear();
    }

    pub fn from_triples<I>(triples: I) -> TripleStore
    where
        I: IntoIterator<Item = Triple>,
    {
        let store = TripleStore::new();
        store.bulk_load(triples);
        store.compact();
        store
    }

    pub fn from_rdf(g: &RdfGraph) -> TripleStore {
        TripleStore::from_triples(g.iter().copied())
    }

    /// Opens (or creates) a durable store rooted at `dir`.
    ///
    /// An empty or absent directory is formatted; an existing one is
    /// recovered: leftover temp files are swept, the manifest and
    /// checkpoint are verified by checksum, the commit log is replayed
    /// (a torn tail is truncated, corrupt referenced segments are
    /// quarantined), and the graph is rebuilt at the last consistent
    /// epoch. Every subsequent [`TripleStore::bulk_load`] is committed
    /// to disk before it is acknowledged.
    pub fn open(dir: impl AsRef<Path>) -> Result<TripleStore, StoreError> {
        TripleStore::open_with_opts(dir, PersistOpts::default())
    }

    /// [`TripleStore::open`] with explicit page-size / retry settings.
    pub fn open_with_opts(
        dir: impl AsRef<Path>,
        opts: PersistOpts,
    ) -> Result<TripleStore, StoreError> {
        let sd = StoreDir::real(dir.as_ref(), opts)?;
        TripleStore::open_dir(sd, 128)
    }

    /// [`TripleStore::open`] over an arbitrary [`Vfs`] — the hook the
    /// fault-injection tests use to run the real open/commit/recover
    /// code against [`crate::persist::vfs::FaultFs`].
    pub fn open_with_vfs(
        fs: Arc<dyn Vfs + Send + Sync>,
        opts: PersistOpts,
    ) -> Result<TripleStore, StoreError> {
        TripleStore::open_dir(StoreDir::new(fs, opts), 128)
    }

    pub(crate) fn open_dir(
        mut dir: StoreDir,
        cache_capacity: usize,
    ) -> Result<TripleStore, StoreError> {
        let start = Instant::now();
        let store = TripleStore::with_cache_capacity(cache_capacity);
        let mut graph = EncodedGraph::new();
        let mut epoch = 0;
        if dir.is_formatted()? {
            let rec = dir.recover()?;
            epoch = rec.epoch;
            graph
                .insert_batch(rec.checkpoint)
                .map_err(replay_overflow)?;
            // The checkpoint is the bulk of the data: fold it into the
            // base arrays now so the reopened store starts with the
            // same compact shape a long-running one converges to.
            graph.compact();
            for (_epoch, delta) in rec.deltas {
                graph.insert_batch(delta).map_err(replay_overflow)?;
            }
        } else {
            dir.format()?;
        }
        {
            let mut inner = store.inner.write();
            inner.graph = Arc::new(graph);
            inner.epoch = epoch;
            inner.persist = Some(dir);
        }
        crate::obs::on_recovery(start.elapsed());
        Ok(store)
    }

    /// Attaches durable storage at `dir` to this (so far volatile)
    /// store: formats the directory, checkpoints the current contents
    /// into it, and commits every later [`TripleStore::bulk_load`]
    /// durably. Refuses a directory that already holds a store (open it
    /// instead) and a store that is already durable.
    pub fn persist_to(&self, dir: impl AsRef<Path>) -> Result<(), StoreError> {
        self.persist_to_opts(dir, PersistOpts::default())
    }

    /// [`TripleStore::persist_to`] with explicit settings.
    pub fn persist_to_opts(
        &self,
        dir: impl AsRef<Path>,
        opts: PersistOpts,
    ) -> Result<(), StoreError> {
        let sd = StoreDir::real(dir.as_ref(), opts)?;
        self.attach(sd)
    }

    pub(crate) fn attach(&self, mut sd: StoreDir) -> Result<(), StoreError> {
        let mut inner = self.inner.write();
        let inner = &mut *inner;
        if inner.persist.is_some() {
            return Err(StoreError::Persist(PersistError::Corrupt(
                "store is already durable".into(),
            )));
        }
        if sd.is_formatted()? {
            return Err(StoreError::Persist(PersistError::Corrupt(
                "refusing to persist into a directory that already holds a store \
                 (open it instead)"
                    .into(),
            )));
        }
        sd.format()?;
        let image: Vec<Triple> = inner.graph.iter().collect();
        if !image.is_empty() || inner.epoch > 0 {
            sd.checkpoint(inner.epoch, &image)?;
        }
        inner.persist = Some(sd);
        Ok(())
    }

    /// Caps the store at `limit` rows: loads that would exceed it fail
    /// with [`CapacityError`] (`None` restores the hard
    /// [`crate::MAX_TRIPLES`] bound). An ingest guard for operators —
    /// the store itself always stops at the `u32` offset-table bound.
    pub fn set_capacity_limit(&self, limit: Option<usize>) {
        self.inner.write().capacity_limit = limit;
    }

    /// Bulk-loads a batch of triples. Returns the number of new triples;
    /// bumps the epoch (invalidating cached results) when anything
    /// changed.
    ///
    /// The all-contains no-op pre-scan (an idempotent ingest retry must
    /// not deep-clone the graph under [`Arc::make_mut`]) runs against a
    /// read-lock snapshot, so it never stalls readers behind the
    /// write-lock queue; only the epoch re-validation and the actual
    /// insert hold the write lock.
    ///
    /// Panics if the store would exceed [`crate::MAX_TRIPLES`] rows (or
    /// the configured [`TripleStore::set_capacity_limit`]) — use
    /// [`TripleStore::try_bulk_load`] to handle that case.
    pub fn bulk_load<I>(&self, triples: I) -> usize
    where
        I: IntoIterator<Item = Triple>,
    {
        // analyzer-allow: no-unwrap-in-service bulk_load is documented as
        // the panicking facade over try_bulk_load; callers that cannot
        // tolerate the capacity panic use the fallible form.
        self.try_bulk_load(triples)
            .expect("bulk_load exceeds the store's capacity")
    }

    /// As [`TripleStore::bulk_load`], but surfaces the capacity guard —
    /// and, on a durable store, persistence failures — as an error
    /// instead of panicking. On `Err` the store is unchanged, both in
    /// memory and on disk (a failed durable commit rolls back before
    /// returning).
    pub fn try_bulk_load<I>(&self, triples: I) -> Result<usize, StoreError>
    where
        I: IntoIterator<Item = Triple>,
    {
        let batch: Vec<Triple> = triples.into_iter().collect();
        if batch.is_empty() {
            return Ok(0);
        }
        // No-op pre-scan on a lock-free snapshot: O(batch · log n) of
        // containment probes happens with no lock
        // held at all. The snapshot `Arc` must drop before the write
        // lock, or `Arc::make_mut` below would see it and deep-clone the
        // whole graph on every load.
        let start = Instant::now();
        let (all_present, epoch) = {
            let (snapshot, epoch) = self.snapshot();
            (batch.iter().all(|t| snapshot.contains(t)), epoch)
        };
        let mut inner = self.inner.write();
        if all_present {
            // Re-validate under the write lock: the snapshot may be
            // stale. Same epoch — nothing changed since the pre-scan, so
            // the verdict stands. Epoch moved — re-check against the
            // current graph (rare, and still cheaper than a deep clone).
            if inner.epoch == epoch || batch.iter().all(|t| inner.graph.contains(t)) {
                return Ok(0);
            }
        }
        let limit = inner.capacity_limit.unwrap_or(crate::MAX_TRIPLES);
        let inner = &mut *inner;
        let added = if let Some(dir) = inner.persist.as_mut() {
            // Durable path: the exact fresh set must hit disk before it
            // becomes visible, so an acked load is durable (the ack
            // happens after fsync) and a failed one is invisible (the
            // commit rolls back, and the graph was never touched).
            let mut seen = HashSet::new();
            let fresh: Vec<Triple> = batch
                .iter()
                .copied()
                .filter(|t| !inner.graph.contains(t) && seen.insert(*t))
                .collect();
            if fresh.is_empty() {
                return Ok(0);
            }
            // The capacity verdict must precede the durable commit: a
            // batch acked to disk and then refused in memory would leave
            // the two states disagreeing forever.
            crate::segment::check_capacity(inner.graph.len() + fresh.len(), limit)?;
            dir.commit_batch(inner.epoch + 1, &fresh)?;
            // analyzer-allow: no-unwrap-in-service the capacity check
            // above ran against this exact fresh set, so the capped
            // insert cannot be refused after the durable commit acked.
            let added = Arc::make_mut(&mut inner.graph)
                .insert_batch_capped(fresh, limit)
                .expect("capacity was checked before the durable commit");
            debug_assert!(added > 0);
            added
        } else {
            Arc::make_mut(&mut inner.graph).insert_batch_capped(batch, limit)?
        };
        if added > 0 {
            inner.epoch += 1;
            crate::obs::on_epoch_bump();
            // Every cached entry is keyed to an older epoch and is now
            // unreachable — drop them so the result sets free their
            // memory immediately instead of lingering until evicted.
            self.cache.clear();
        }
        crate::obs::on_bulk_load(start.elapsed());
        Ok(added)
    }

    /// Folds the graph's pending delta segments into its base arrays
    /// (rebuilding the PSO permutation). The triple set is unchanged, so
    /// the epoch — and every cached result — stays valid. Returns `false`
    /// when there was nothing to fold.
    ///
    /// On a durable store a successful fold also writes a best-effort
    /// checkpoint, folding the commit log into a fresh base image on
    /// disk; a checkpoint failure is swallowed (the previous manifest +
    /// log remain a complete, consistent description of the store — use
    /// [`TripleStore::checkpoint`] to observe the error).
    pub fn compact(&self) -> bool {
        // The fold is O(rows + terms): doing it under the write lock
        // would stall every new snapshot for the duration. Instead,
        // clone and fold off-lock against a snapshot, then swap the
        // result in under a brief write lock if no load raced in
        // (same epoch ⟹ same contents, so the swap is invisible).
        // After a few lost races, fold in place to guarantee progress.
        for _ in 0..3 {
            let (snapshot, epoch) = self.snapshot();
            if snapshot.is_compacted() {
                return false;
            }
            let mut folded = (*snapshot).clone();
            drop(snapshot);
            folded.compact();
            let mut inner = self.inner.write();
            if inner.epoch == epoch {
                inner.graph = Arc::new(folded);
                Self::checkpoint_locked(&mut inner);
                return true;
            }
        }
        let mut inner = self.inner.write();
        if inner.graph.is_compacted() {
            return false;
        }
        let folded = Arc::make_mut(&mut inner.graph).compact();
        if folded {
            Self::checkpoint_locked(&mut inner);
        }
        folded
    }

    /// Best-effort checkpoint of the current image, under an
    /// already-held write lock. No-op on volatile stores; on durable
    /// ones a failure is deliberately ignored here — the old manifest
    /// and log still describe the store exactly, and any orphaned
    /// half-written base file is swept at the next recovery.
    fn checkpoint_locked(inner: &mut Inner) {
        if let Some(dir) = inner.persist.as_mut() {
            let image: Vec<Triple> = inner.graph.iter().collect();
            let _ = dir.checkpoint(inner.epoch, &image);
        }
    }

    /// Checkpoints a durable store now: rewrites the on-disk base image
    /// from the current graph and truncates the commit log. Returns
    /// `Ok(false)` (and does nothing) on a volatile store, `Ok(true)`
    /// after a durable checkpoint.
    pub fn checkpoint(&self) -> Result<bool, StoreError> {
        let mut inner = self.inner.write();
        let inner = &mut *inner;
        let Some(dir) = inner.persist.as_mut() else {
            return Ok(false);
        };
        let image: Vec<Triple> = inner.graph.iter().collect();
        dir.checkpoint(inner.epoch, &image)?;
        Ok(true)
    }

    /// Whether this store is backed by a durable directory (opened via
    /// [`TripleStore::open`] or attached via [`TripleStore::persist_to`]).
    pub fn is_durable(&self) -> bool {
        self.inner.read().persist.is_some()
    }

    /// The current graph snapshot and its epoch (one brief read lock).
    fn snapshot(&self) -> (Arc<EncodedGraph>, u64) {
        let inner = self.inner.read();
        (Arc::clone(&inner.graph), inner.epoch)
    }

    /// An owned, lock-free snapshot of the store: the graph `Arc` and
    /// its epoch. Long analytical reads run on it without blocking loads
    /// (which proceed copy-on-write while the snapshot is held).
    pub fn read_snapshot(&self) -> StoreSnapshot {
        let (graph, epoch) = self.snapshot();
        StoreSnapshot { graph, epoch }
    }

    pub fn len(&self) -> usize {
        self.snapshot().0.len()
    }

    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }

    pub fn epoch(&self) -> u64 {
        self.inner.read().epoch
    }

    /// Runs `f` against a snapshot of the encoded graph — the hook the
    /// evaluation engine uses to borrow the store as a
    /// [`wdsparql_rdf::TripleIndex`]. `f` runs lock-free: a long
    /// evaluation never blocks concurrent bulk loads or other queries.
    pub fn with_index<R>(&self, f: impl FnOnce(&EncodedGraph) -> R) -> R {
        f(&self.snapshot().0)
    }

    /// A consistent stats snapshot. Also refreshes the process-wide
    /// registry's `store.*` gauges — the registry keeps the last
    /// published observation, this remains the source of truth.
    pub fn stats(&self) -> StoreStats {
        let (graph, epoch) = self.snapshot();
        let stats = stats_of(&graph, epoch);
        crate::obs::publish_store_gauges(
            stats.triples as u64,
            stats.terms as u64,
            stats.base_rows as u64,
            stats.delta_rows as u64,
            stats.segments as u64,
            stats.epoch,
            1,
        );
        stats
    }

    pub fn cache_stats(&self) -> CacheStats {
        self.cache.stats()
    }

    /// Evaluation order for a conjunctive (BGP) query: pattern indexes
    /// most-selective-first, computed on the current snapshot. For a
    /// plan guaranteed to match an execution, use
    /// [`TripleStore::query_with_plan`] — between a bare `plan` and a
    /// later `query`, a bulk load may land and change the snapshot.
    pub fn plan(&self, patterns: &[TriplePattern]) -> Vec<usize> {
        plan_order(&*self.snapshot().0, patterns)
    }

    /// Cached single-pattern solutions.
    pub fn solutions(&self, pat: &TriplePattern) -> Arc<Vec<Mapping>> {
        self.query(std::slice::from_ref(pat))
    }

    /// Evaluates the conjunction of `patterns` (a BGP: the AND-only
    /// fragment) under the configured [`JoinStrategy`]: the pairwise
    /// pipeline (most-selective-first ordering, a sorted semi-join on
    /// the first shared variable, bind joins for the rest), the
    /// worst-case-optimal leapfrog join over the sorted permutations, or
    /// — under `Auto` — whichever the core's shape calls for. Results
    /// are cached per epoch.
    pub fn query(&self, patterns: &[TriplePattern]) -> Arc<Vec<Mapping>> {
        self.answer(patterns, Want::Rows).solutions
    }

    /// As [`TripleStore::query`], but also returns the evaluation order —
    /// plan and solutions computed on the *same* snapshot, taken once,
    /// and the plan computed exactly once (execution receives the order
    /// instead of re-deriving it). A bulk load landing between planning
    /// and execution cannot make the displayed plan diverge from the
    /// executed one (the `read` field names the snapshot both came from).
    pub fn query_with_plan(&self, patterns: &[TriplePattern]) -> PlannedQuery {
        self.answer(patterns, Want::Plan)
    }

    /// As [`TripleStore::query_with_plan`], additionally building an
    /// execution profile: a span tree with plan timing, the resolved
    /// strategy, the cache outcome, and — when the evaluation actually
    /// ran (a cache miss) — per-level WCOJ counters or per-step pairwise
    /// intermediate cardinalities. A cache hit reports `cache=hit` and
    /// no `execute` span: nothing was executed.
    pub fn query_with_profile(&self, patterns: &[TriplePattern]) -> PlannedQuery {
        self.answer(patterns, Want::Profile)
    }

    /// As [`TripleStore::query`], evaluated under `budget`: the
    /// streaming evaluators checkpoint the deadline/cancellation token
    /// at every pull and inside their inner loops, so a failed budget
    /// surfaces as a typed [`ExecError`] within one seek/merge step
    /// instead of running to completion. Complete results are cached
    /// exactly like [`TripleStore::query`]'s (same key, so the two
    /// paths serve each other); a budget failure is never cached and
    /// never handed to another caller — everyone computes or waits
    /// under their own budget.
    pub fn query_budgeted(
        &self,
        patterns: &[TriplePattern],
        budget: &QueryBudget,
    ) -> Result<Arc<Vec<Mapping>>, ExecError> {
        Ok(self.serve(patterns, budget, Want::Rows, || ())?.solutions)
    }

    /// Streams the first `limit` solutions of a BGP under `budget` —
    /// LIMIT pushdown: enumeration stops the moment the k-th solution
    /// arrives, so the evaluators do work proportional to the prefix,
    /// not the full result. The prefix equals the first `limit` rows of
    /// the corresponding full run (same plan, same snapshot, same
    /// order). **Uncached** in both directions: a k-prefix is a partial
    /// result and cached entries only ever hold complete ones.
    pub fn query_limited(
        &self,
        patterns: &[TriplePattern],
        limit: usize,
        budget: &QueryBudget,
    ) -> Result<Vec<Mapping>, ExecError> {
        let prefix = self.serve(patterns, budget, Want::Prefix(limit), || ())?;
        Ok(Arc::unwrap_or_clone(prefix.solutions))
    }

    /// The infallible facade over [`TripleStore::query_limited`]: the
    /// first `limit` solutions under an unlimited budget.
    pub fn solutions_limit(&self, patterns: &[TriplePattern], limit: usize) -> Vec<Mapping> {
        Arc::unwrap_or_clone(self.answer(patterns, Want::Prefix(limit)).solutions)
    }

    /// Serves one request under an unlimited budget — the infallible
    /// entry points.
    fn answer(&self, patterns: &[TriplePattern], want: Want) -> PlannedQuery {
        // analyzer-allow: no-unwrap-in-service an unlimited budget never
        // fails a checkpoint, and no request inherits another's failure.
        self.serve(patterns, &QueryBudget::unlimited(), want, || ())
            .expect("an unlimited budget never fails a checkpoint")
    }

    /// Pins the current snapshot — the one acquisition of the request —
    /// and serves `want` on it through the shared BGP path. `between`
    /// runs right after the pin: the regression hook for the epoch race
    /// (tests land a `bulk_load` there and assert that plan, solutions
    /// and provenance all still come from the pinned snapshot).
    fn serve(
        &self,
        patterns: &[TriplePattern],
        budget: &QueryBudget,
        want: Want,
        between: impl FnOnce(),
    ) -> Result<PlannedQuery, ExecError> {
        let (graph, epoch) = self.snapshot();
        between();
        let pin = Pinned {
            ix: &*graph,
            read: &[(0, epoch)],
            cache: &self.cache,
            still_current: &|| self.inner.read().epoch == epoch,
            configured: self.join_strategy(),
            provenance: &|root| root.field("epoch", epoch),
        };
        bgp::serve(&pin, patterns, budget, want)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::cell::Cell;
    use std::time::Duration;
    use wdsparql_rdf::term::{iri, var};
    use wdsparql_rdf::{tp, Variable};

    fn store() -> TripleStore {
        TripleStore::from_triples(
            [
                ("a", "p", "b"),
                ("b", "p", "c"),
                ("c", "p", "d"),
                ("b", "q", "x"),
                ("c", "q", "x"),
            ]
            .map(|(s, p, o)| Triple::from_strs(s, p, o)),
        )
    }

    #[test]
    fn bulk_load_bumps_epoch_only_on_change() {
        let s = store();
        assert_eq!(s.epoch(), 1);
        assert_eq!(s.bulk_load([Triple::from_strs("a", "p", "b")]), 0);
        assert_eq!(s.epoch(), 1);
        assert_eq!(s.bulk_load([Triple::from_strs("z", "p", "z")]), 1);
        assert_eq!(s.epoch(), 2);
        assert_eq!(s.len(), 6);
    }

    #[test]
    fn stats_snapshot_reports_cardinalities() {
        let s = store();
        let st = s.stats();
        assert_eq!(st.triples, 5);
        assert_eq!(st.predicates, 2);
        assert_eq!(st.predicate_cardinalities[0], (Iri::new("p"), 3));
        assert!(st.to_string().contains("p=3"));
        // from_triples compacts: everything in the base, no deltas.
        assert_eq!((st.base_rows, st.delta_rows, st.segments), (5, 0, 0));
        assert!(st.to_string().contains("5 base row(s)"));
    }

    #[test]
    fn compact_folds_segments_and_keeps_the_cache() {
        let s = store();
        s.bulk_load([Triple::from_strs("d", "p", "e")]);
        let pats = [tp(var("x"), iri("p"), var("y"))];
        let before = s.query(&pats);
        assert!(s.stats().delta_rows > 0, "bulk_load should stage a delta");
        assert!(s.compact());
        assert!(!s.compact(), "second compact is a no-op");
        let st = s.stats();
        assert_eq!((st.delta_rows, st.segments), (0, 0));
        // Same epoch, same cached entry — and the same answers.
        let hits_before = s.cache_stats().hits;
        let after = s.query(&pats);
        assert_eq!(before, after);
        assert_eq!(s.cache_stats().hits, hits_before + 1);
    }

    #[test]
    fn capacity_limit_guards_loads_and_reports_cleanly() {
        let s = TripleStore::new();
        s.set_capacity_limit(Some(3));
        assert_eq!(s.bulk_load([Triple::from_strs("a", "p", "b")]), 1);
        let err = s
            .try_bulk_load((0..4).map(|i| Triple::from_strs(&format!("s{i}"), "p", "o")))
            .unwrap_err();
        let StoreError::Capacity(err) = err else {
            panic!("expected a capacity error, got {err}");
        };
        assert_eq!((err.attempted, err.limit), (5, 3));
        assert!(err.to_string().contains("configured limit of 3"));
        assert_eq!(s.len(), 1, "refused load leaves the store unchanged");
        // Lifting the limit lets the same batch in.
        s.set_capacity_limit(None);
        assert_eq!(
            s.bulk_load((0..4).map(|i| Triple::from_strs(&format!("s{i}"), "p", "o"))),
            4
        );
    }

    #[test]
    fn read_snapshot_pins_an_epoch() {
        let s = store();
        let snap = s.read_snapshot();
        assert_eq!(snap.epoch(), s.epoch());
        let before = snap.len();
        s.bulk_load([Triple::from_strs("zz", "p", "zz")]);
        // The held snapshot still sees the old world; a fresh one moves.
        assert_eq!(snap.len(), before);
        assert!(!snap.contains(&Triple::from_strs("zz", "p", "zz")));
        let fresh = s.read_snapshot();
        assert_eq!(fresh.len(), before + 1);
        assert_eq!(fresh.epoch(), snap.epoch() + 1);
    }

    #[test]
    fn plan_orders_most_selective_first() {
        let s = store();
        let pats = [
            tp(var("x"), iri("p"), var("y")), // 3 candidates
            tp(var("y"), iri("q"), iri("x")), // 2 candidates
            tp(iri("a"), iri("p"), var("y")), // 1 candidate
        ];
        assert_eq!(s.plan(&pats), vec![2, 1, 0]);
    }

    #[test]
    fn plan_defers_disconnected_patterns() {
        // p: 2 triples, q: 3, r: 4 — by selectivity alone the order would
        // be [p, q, r], but q shares no variable with p, so the planner
        // must bridge through r to avoid a Cartesian product.
        let s = TripleStore::from_triples(
            [
                ("a1", "p", "b1"),
                ("a2", "p", "b2"),
                ("c1", "q", "d1"),
                ("c2", "q", "d2"),
                ("c3", "q", "d3"),
                ("b1", "r", "c1"),
                ("b2", "r", "c2"),
                ("b3", "r", "c3"),
                ("b4", "r", "c4"),
            ]
            .map(|(s, p, o)| Triple::from_strs(s, p, o)),
        );
        let pats = [
            tp(var("a"), iri("p"), var("b")),
            tp(var("c"), iri("q"), var("d")),
            tp(var("b"), iri("r"), var("c")),
        ];
        assert_eq!(s.plan(&pats), vec![0, 2, 1]);
        // The reordered evaluation still yields the full join.
        assert_eq!(s.query(&pats).len(), 2);
    }

    /// A [`TripleIndex`] wrapper that counts planner probes — the
    /// regression harness for double planning: execution receives the
    /// order and must never call `candidate_count` again.
    struct CountingIndex<'a> {
        inner: &'a EncodedGraph,
        count_calls: Cell<usize>,
    }

    impl TripleIndex for CountingIndex<'_> {
        fn len(&self) -> usize {
            self.inner.len()
        }

        fn contains(&self, t: &Triple) -> bool {
            self.inner.contains(t)
        }

        fn triples(&self) -> Box<dyn Iterator<Item = Triple> + '_> {
            Box::new(self.inner.iter())
        }

        fn dom(&self) -> Box<dyn Iterator<Item = Iri> + '_> {
            TripleIndex::dom(self.inner)
        }

        fn dom_contains(&self, i: Iri) -> bool {
            TripleIndex::dom_contains(self.inner, i)
        }

        fn candidate_count(&self, pat: &TriplePattern) -> usize {
            self.count_calls.set(self.count_calls.get() + 1);
            self.inner.candidate_count(pat)
        }

        fn match_pattern(&self, pat: &TriplePattern) -> Vec<Triple> {
            self.inner.match_pattern(pat)
        }
    }

    #[test]
    fn planned_execution_does_not_replan() {
        let g = EncodedGraph::from_triples(
            [
                ("a", "p", "b"),
                ("b", "p", "c"),
                ("b", "q", "x"),
                ("c", "q", "x"),
            ]
            .map(|(s, p, o)| Triple::from_strs(s, p, o)),
        );
        let ix = CountingIndex {
            inner: &g,
            count_calls: Cell::new(0),
        };
        let pats = [
            tp(var("x"), iri("p"), var("y")),
            tp(var("y"), iri("q"), var("z")),
        ];
        let order = plan_order(&ix, &pats);
        assert_eq!(
            ix.count_calls.get(),
            pats.len(),
            "planning probes each pattern exactly once"
        );
        ix.count_calls.set(0);
        let planned = (order, JoinStrategy::Pairwise);
        let (sols, _) = bgp::run(&ix, &pats, planned, &QueryBudget::unlimited(), None, false)
            .expect("unlimited");
        assert_eq!(sols.len(), 2);
        assert_eq!(
            ix.count_calls.get(),
            0,
            "execution with a plan in hand must not re-plan"
        );
    }

    /// The shared request path, driven directly on the counting index:
    /// a plain request probes the planner exactly as often as planning
    /// plus strategy resolution do — execution adds nothing — and a
    /// cache hit probes nothing at all.
    #[test]
    fn plain_requests_plan_once_on_a_miss_and_never_on_a_hit() {
        let g = EncodedGraph::from_triples(store_triples());
        let ix = CountingIndex {
            inner: &g,
            count_calls: Cell::new(0),
        };
        let pats = [
            tp(var("x"), iri("p"), var("y")),
            tp(var("y"), iri("q"), var("z")),
        ];
        for configured in [JoinStrategy::Pairwise, JoinStrategy::Auto] {
            ix.count_calls.set(0);
            let order = plan_order(&ix, &pats);
            crate::wcoj::resolve_with_order(&ix, &pats, configured, &order);
            let planning = ix.count_calls.get();
            let cache = ResultCache::new(8);
            let pin = Pinned {
                ix: &ix,
                read: &[(0, 1)],
                cache: &cache,
                still_current: &|| true,
                configured,
                provenance: &|root| root,
            };
            let budget = QueryBudget::unlimited();
            ix.count_calls.set(0);
            let miss = bgp::serve(&pin, &pats, &budget, Want::Rows).expect("unlimited");
            assert_eq!(ix.count_calls.get(), planning, "{configured}: miss");
            assert_eq!(
                miss.strategy,
                JoinStrategy::Pairwise,
                "resolved on the miss"
            );
            ix.count_calls.set(0);
            let hit = bgp::serve(&pin, &pats, &budget, Want::Rows).expect("unlimited");
            assert_eq!(ix.count_calls.get(), 0, "{configured}: a hit plans nothing");
            assert_eq!(hit.solutions, miss.solutions);
            assert_eq!((cache.stats().hits, cache.stats().misses), (1, 1));
        }
    }

    #[test]
    fn planned_query_survives_an_interleaved_bulk_load() {
        // Before the fix, `plan` and `query` took separate snapshots: a
        // bulk load in between made the displayed plan and the executed
        // one come from different epochs. The shared request path runs
        // on the one snapshot its facade pinned; the injected interleave
        // lands right after the pin, before planning and execution.
        let s = store();
        let pats = [
            tp(var("x"), iri("p"), var("y")),
            tp(var("y"), iri("q"), var("z")),
        ];
        let epoch_before = s.epoch();
        let interleaved = s.serve(&pats, &QueryBudget::unlimited(), Want::Plan, || {
            // Make the load change both the plan input (q outgrows p, so
            // selectivity flips) and the answer set (d q x joins c p d).
            s.bulk_load((0..6).map(|i| Triple::from_strs(&format!("n{i}"), "q", "x")));
            s.bulk_load([Triple::from_strs("d", "q", "x")]);
        });
        let out = interleaved.expect("unlimited");
        // Plan and solutions both reflect the pre-load snapshot ...
        assert_eq!(out.read, [(0, epoch_before)]);
        assert_eq!(out.plan, vec![1, 0], "plan of the pre-load graph");
        assert_eq!(out.solutions.len(), 2, "solutions of the pre-load graph");
        // ... while a fresh call sees the post-load world, consistently.
        let fresh = s.query_with_plan(&pats);
        assert_eq!(fresh.read, [(0, s.epoch())]);
        assert_eq!(fresh.plan, vec![0, 1], "plan of the post-load graph");
        assert_eq!(fresh.solutions.len(), 3);
    }

    #[test]
    fn noop_bulk_load_revalidates_under_the_write_lock() {
        let s = store();
        let epoch = s.epoch();
        // All-present batches are detected on the snapshot and re-validated
        // under the write lock — no epoch bump, no cache clear.
        let pats = [tp(var("x"), iri("p"), var("y"))];
        s.query(&pats);
        let entries = s.cache_stats().entries;
        assert_eq!(s.bulk_load(store_triples()), 0);
        assert_eq!(s.epoch(), epoch);
        assert_eq!(s.cache_stats().entries, entries, "cache survived the no-op");
        // An empty batch takes no locks at all.
        assert_eq!(s.bulk_load(std::iter::empty::<Triple>()), 0);
    }

    fn store_triples() -> Vec<Triple> {
        [
            ("a", "p", "b"),
            ("b", "p", "c"),
            ("c", "p", "d"),
            ("b", "q", "x"),
            ("c", "q", "x"),
        ]
        .map(|(s, p, o)| Triple::from_strs(s, p, o))
        .to_vec()
    }

    #[test]
    fn join_strategy_knob_routes_and_agrees() {
        let s = TripleStore::from_triples(
            [
                ("a", "p", "b"),
                ("b", "p", "c"),
                ("a", "p", "c"),
                ("c", "p", "d"),
                ("b", "p", "d"),
            ]
            .map(|(s, p, o)| Triple::from_strs(s, p, o)),
        );
        let triangle = [
            tp(var("x"), iri("p"), var("y")),
            tp(var("y"), iri("p"), var("z")),
            tp(var("x"), iri("p"), var("z")),
        ];
        let chain = [
            tp(var("x"), iri("p"), var("y")),
            tp(var("y"), iri("p"), var("z")),
        ];
        // Auto (the default) resolves the cyclic core to the WCOJ and
        // the chain to the pairwise pipeline.
        assert_eq!(s.join_strategy(), crate::JoinStrategy::Auto);
        let auto = s.query_with_plan(&triangle);
        assert_eq!(auto.strategy, crate::JoinStrategy::Wco);
        assert_eq!(
            s.query_with_plan(&chain).strategy,
            crate::JoinStrategy::Pairwise
        );
        // Forcing pairwise agrees on the solution set, and flipping the
        // knob clears the cache (no stale cross-strategy hits).
        s.set_join_strategy(crate::JoinStrategy::Pairwise);
        assert_eq!(s.cache_stats().entries, 0, "knob flip clears the cache");
        let pairwise = s.query_with_plan(&triangle);
        assert_eq!(pairwise.strategy, crate::JoinStrategy::Pairwise);
        let sorted = |sols: &Arc<Vec<Mapping>>| {
            let mut v: Vec<Mapping> = sols.iter().cloned().collect();
            v.sort();
            v
        };
        assert_eq!(sorted(&auto.solutions), sorted(&pairwise.solutions));
        assert!(!auto.solutions.is_empty());
        // And the forced-WCO knob serves the plain query path too.
        s.set_join_strategy(crate::JoinStrategy::Wco);
        assert_eq!(
            sorted(&s.query(&chain)),
            sorted(&{
                s.set_join_strategy(crate::JoinStrategy::Pairwise);
                s.query(&chain)
            })
        );
    }

    #[test]
    fn query_with_profile_builds_a_span_tree() {
        let s = TripleStore::from_triples(
            [
                ("a", "p", "b"),
                ("b", "p", "c"),
                ("a", "p", "c"),
                ("c", "p", "d"),
                ("b", "p", "d"),
            ]
            .map(|(s, p, o)| Triple::from_strs(s, p, o)),
        );
        let triangle = [
            tp(var("x"), iri("p"), var("y")),
            tp(var("y"), iri("p"), var("z")),
            tp(var("x"), iri("p"), var("z")),
        ];
        let out = s.query_with_profile(&triangle);
        assert_eq!(out.strategy, JoinStrategy::Wco);
        assert_eq!(out.solutions, s.query_with_plan(&triangle).solutions);
        let profile = out.profile.expect("profiling was requested");
        assert_eq!(profile.root.get("strategy"), Some("wco"));
        assert_eq!(profile.root.get("cache"), Some("miss"));
        assert!(profile.root.duration().is_some());
        let exec = profile
            .root
            .children()
            .iter()
            .find(|c| c.name() == "execute")
            .expect("a miss has an execute span");
        assert_eq!(exec.children().len(), 3, "one span per variable level");
        for level in exec.children() {
            assert!(level.name().starts_with("level ?"), "{}", level.name());
            assert!(level.get("rows").is_some());
            assert!(level.get("seeks").is_some());
            assert!(level.get("gallop_steps").is_some());
        }
        let text = profile.to_string();
        assert!(text.contains("├─ plan"), "rendered tree:\n{text}");
        // The same query again is served from the cache: no execute span.
        let again = s.query_with_profile(&triangle);
        let cached = again.profile.expect("profiling was requested");
        assert_eq!(cached.root.get("cache"), Some("hit"));
        assert!(cached.root.children().iter().all(|c| c.name() != "execute"));
        // An acyclic chain resolves pairwise: scan + join steps with
        // intermediate cardinalities.
        let chain = [
            tp(var("x"), iri("p"), var("y")),
            tp(var("y"), iri("p"), var("z")),
        ];
        let pq = s.query_with_profile(&chain);
        assert_eq!(pq.strategy, JoinStrategy::Pairwise);
        let profile = pq.profile.expect("profiling was requested");
        let exec = profile
            .root
            .children()
            .iter()
            .find(|c| c.name() == "execute")
            .expect("a miss has an execute span");
        assert_eq!(exec.children().len(), 2);
        assert_eq!(exec.children()[0].name(), "scan");
        assert_eq!(exec.children()[1].name(), "join");
        assert_eq!(
            exec.children()[1].get("rows").map(str::to_owned),
            Some(pq.solutions.len().to_string()),
            "the last step's cardinality is the answer count"
        );
    }

    #[test]
    fn query_joins_and_caches() {
        let s = store();
        let pats = [
            tp(var("x"), iri("p"), var("y")),
            tp(var("y"), iri("q"), var("z")),
        ];
        let sols = s.query(&pats);
        // (a,b) with b q x; (b,c) with c q x.
        assert_eq!(sols.len(), 2);
        for mu in sols.iter() {
            assert_eq!(mu.get(Variable::new("z")), Some(Iri::new("x")));
        }
        let before = s.cache_stats();
        let again = s.query(&pats);
        let after = s.cache_stats();
        assert_eq!(sols, again);
        assert_eq!(after.hits, before.hits + 1);
        // A load invalidates: the stale entries are dropped outright and
        // the next query recomputes.
        s.bulk_load([Triple::from_strs("d", "q", "x")]);
        assert_eq!(s.cache_stats().entries, 0);
        let fresh = s.query(&pats);
        assert_eq!(fresh.len(), 3);
    }

    #[test]
    fn query_agrees_with_reference_join_order_independence() {
        let s = store();
        let a = tp(var("x"), iri("p"), var("y"));
        let b = tp(var("y"), iri("q"), var("z"));
        let ab = s.query(&[a, b]);
        let ba = s.query(&[b, a]);
        let mut xs: Vec<Mapping> = ab.iter().cloned().collect();
        let mut ys: Vec<Mapping> = ba.iter().cloned().collect();
        xs.sort();
        ys.sort();
        assert_eq!(xs, ys);
    }

    #[test]
    fn empty_query_yields_the_empty_mapping() {
        let s = store();
        let sols = s.query(&[]);
        assert_eq!(sols.as_slice(), &[Mapping::new()]);
    }

    #[test]
    fn query_budgeted_shares_the_cache_and_types_its_failures() {
        let s = store();
        let pats = [
            tp(var("x"), iri("p"), var("y")),
            tp(var("y"), iri("q"), var("z")),
        ];
        // An unlimited budget agrees with the materialising path and
        // lands in the same cache entry.
        let budgeted = s
            .query_budgeted(&pats, &QueryBudget::unlimited())
            .expect("unlimited");
        assert_eq!(budgeted, s.query(&pats), "one cache entry serves both");
        assert_eq!(s.cache_stats().misses, 1, "query() hit the budgeted entry");
        // A dead budget fails typed, and the failure is not cached: the
        // key stays recomputable.
        let s2 = store();
        let err = s2.query_budgeted(&pats, &QueryBudget::with_deadline(Duration::ZERO));
        assert_eq!(err, Err(ExecError::DeadlineExceeded));
        assert_eq!(s2.cache_stats().entries, 0, "errors never land in the LRU");
        assert_eq!(
            s2.query_budgeted(&pats, &QueryBudget::unlimited())
                .expect("fresh budget")
                .len(),
            2
        );
        // Cancellation surfaces as its own variant.
        let token = wdsparql_rdf::CancelToken::new();
        token.cancel();
        let s3 = store();
        assert_eq!(
            s3.query_budgeted(&pats, &QueryBudget::with_cancel(token)),
            Err(ExecError::Cancelled)
        );
    }

    #[test]
    fn lru_evicts_the_stalest_entry() {
        let s = TripleStore::with_cache_capacity(2);
        s.bulk_load([Triple::from_strs("a", "p", "b")]);
        let p1 = tp(var("x"), iri("p"), var("y"));
        let p2 = tp(iri("a"), var("w"), var("y"));
        let p3 = tp(var("x"), var("w"), iri("b"));
        s.solutions(&p1);
        s.solutions(&p2);
        s.solutions(&p1); // refresh p1
        s.solutions(&p3); // evicts p2
        assert_eq!(s.cache_stats().entries, 2);
        let before = s.cache_stats().hits;
        s.solutions(&p1);
        assert_eq!(s.cache_stats().hits, before + 1);
        s.solutions(&p2); // miss: was evicted
        assert_eq!(s.cache_stats().misses, 4);
    }

    #[test]
    fn concurrent_readers_and_writers() {
        let s = Arc::new(store());
        let mut handles = Vec::new();
        for i in 0..4 {
            let s = Arc::clone(&s);
            handles.push(std::thread::spawn(move || {
                for j in 0..50 {
                    if i == 0 && j % 10 == 0 {
                        s.bulk_load([Triple::from_strs(&format!("w{j}"), "p", "b")]);
                    }
                    if i == 1 && j % 25 == 0 {
                        s.compact();
                    }
                    let sols = s.query(&[tp(var("x"), iri("p"), var("y"))]);
                    assert!(sols.len() >= 3);
                }
            }));
        }
        for h in handles {
            h.join().unwrap();
        }
        assert!(s.len() > 5);
    }
}
