//! [`ShardedStore`]: N hash-partitioned [`TripleStore`] shards behind
//! one facade — write scaling past a single write lock.
//!
//! ## Partitioning
//!
//! Every triple lives in exactly one shard, chosen by an FNV-1a hash of
//! its **subject's spelling** (stable across processes and independent
//! of interner order). Subject-bound patterns therefore route to exactly
//! one shard; unbound ones scatter to all shards and gather. Each shard
//! is a full [`TripleStore`]: its own reader-writer lock, its own
//! epoch, its own log-structured [`EncodedGraph`] — so bulk loads
//! scatter their batch and the per-shard inserts proceed under
//! *independent* write locks (in parallel on multi-core hosts), and a
//! snapshot-isolated reader pins one shard's graph instead of the whole
//! store: the copy-on-write a concurrent load pays is bounded by the
//! shard, not the dataset.
//!
//! ## Scatter-gather reads
//!
//! [`ShardedSnapshot`] implements [`TripleIndex`] — subject-bound
//! lookups route; everything else scatters to every shard (on scoped
//! threads when the host has spare cores and the candidate runs are big
//! enough to amortise the spawns) and concatenates the disjoint
//! per-shard runs lazily, in shard order — so every evaluator in the
//! workspace (the engine, hom solver, algebra, pebble game) runs
//! unchanged on the sharded layout, exactly as the delta segments of
//! PR 3 hid behind the same trait. Only `candidate_values` still merges:
//! its trait contract demands one ascending list.
//!
//! ## Read provenance
//!
//! Every facade request pins only the shards it can read and reports
//! them as `(shard, epoch)` pairs: a fully subject-routed query pins
//! and names its routed shards, a fan-out query every shard. Nothing is
//! kept between requests.
//!
//! ## Consistency
//!
//! A [`ShardedSnapshot`] is assembled shard by shard: each shard's view
//! is an atomic epoch snapshot, but a bulk load may land between two
//! shard acquisitions (the standard relaxation of partitioned stores).
//! Single-writer or externally-ordered workloads — and everything
//! single-threaded, like the equivalence proptests — observe exactly
//! the single-store semantics.

use crate::bgp::{self, Pinned, PlannedQuery, Want};
use crate::encoded::EncodedGraph;
use crate::persist::{PersistError, PersistOpts, StoreDir};
use crate::segment::merge_many;
use crate::service::{StoreError, StoreSnapshot, StoreStats, TripleStore};
use crate::wcoj::JoinStrategy;
use parking_lot::RwLock;
use std::fmt;
use std::path::Path;
use std::sync::{Arc, OnceLock};
use std::time::Instant;
use wdsparql_rdf::{
    ExecError, Iri, Mapping, QueryBudget, RdfGraph, Term, Triple, TripleIndex, TriplePattern,
    Variable,
};

/// Stable shard routing: FNV-1a over the subject's spelling, reduced
/// modulo the shard count. Spelling (not interner id) keeps the
/// partition reproducible across processes and restarts.
fn shard_of_name(name: &str, shards: usize) -> usize {
    let mut h: u64 = 0xcbf2_9ce4_8422_2325;
    for &b in name.as_bytes() {
        h ^= u64::from(b);
        h = h.wrapping_mul(0x100_0000_01b3);
    }
    (h % shards as u64) as usize
}

/// Worker threads the host can actually run in parallel, probed once.
fn host_cores() -> usize {
    static CORES: OnceLock<usize> = OnceLock::new();
    *CORES
        .get_or_init(|| std::thread::available_parallelism().map_or(1, std::num::NonZeroUsize::get))
}

/// Candidate-row threshold below which a fan-out read stays sequential:
/// spawning scoped threads costs tens of microseconds, which only a scan
/// of some size amortises.
const PARALLEL_FANOUT_ROWS: usize = 4096;

/// Runs the per-shard jobs, on scoped threads when `parallel` (callers
/// gate on shard count and [`std::thread::available_parallelism`]), in
/// order otherwise. Results come back in job order either way.
fn run_jobs<T, F>(jobs: Vec<F>, parallel: bool) -> Vec<T>
where
    T: Send,
    F: FnOnce() -> T + Send,
{
    if !parallel || jobs.len() <= 1 {
        return jobs.into_iter().map(|f| f()).collect();
    }
    std::thread::scope(|s| {
        let handles: Vec<_> = jobs.into_iter().map(|f| s.spawn(f)).collect();
        handles
            .into_iter()
            .map(|h| match h.join() {
                Ok(v) => v,
                // Re-raise the worker's own panic on the caller: the
                // original message and location survive, instead of a
                // generic join-failure panic swallowing them.
                Err(payload) => std::panic::resume_unwind(payload),
            })
            .collect()
    })
}

/// An owned, per-shard-consistent view of every shard at one epoch
/// vector: the scatter-gather [`TripleIndex`] the evaluators run on.
#[derive(Clone)]
#[must_use = "a sharded snapshot pins every shard's graph version; dropping it unused pins nothing"]
pub struct ShardedSnapshot {
    shards: Vec<StoreSnapshot>,
}

impl ShardedSnapshot {
    pub fn shard_count(&self) -> usize {
        self.shards.len()
    }

    /// The epoch vector this snapshot was taken at, shard by shard.
    pub fn epochs(&self) -> Vec<u64> {
        self.shards.iter().map(StoreSnapshot::epoch).collect()
    }

    /// The graph of shard `i`.
    pub fn shard(&self, i: usize) -> &EncodedGraph {
        self.shards[i].graph()
    }

    /// The shard holding subject `s`.
    pub fn shard_of(&self, s: Iri) -> usize {
        shard_of_name(s.as_str(), self.shards.len())
    }

    /// The single shard a pattern can match in, when its subject is
    /// bound; `None` means the pattern fans out to every shard.
    fn route(&self, pat: &TriplePattern) -> Option<usize> {
        match pat.s {
            Term::Iri(s) => Some(self.shard_of(s)),
            Term::Var(_) => None,
        }
    }

    fn graphs(&self) -> impl Iterator<Item = &EncodedGraph> {
        self.shards.iter().map(StoreSnapshot::graph)
    }

    /// Should this fan-out read scatter to scoped threads? Only with
    /// several shards, spare cores, and enough candidate rows to
    /// amortise the spawns (`est` is the summed O(1) bound-prefix
    /// count — also a fine capacity reservation for the gathered run).
    fn parallel_fanout(&self, est: usize) -> bool {
        self.shards.len() > 1 && host_cores() > 1 && est >= PARALLEL_FANOUT_ROWS
    }

    /// Candidate rows across every shard — the fan-out sizing estimate.
    fn fanout_estimate(&self, pat: &TriplePattern) -> usize {
        self.graphs().map(|g| g.candidate_count(pat)).sum()
    }

    /// Runs `per_shard` on every shard (scoped threads when `parallel`)
    /// and concatenates the runs in shard order — subjects partition the
    /// shards, so the runs are disjoint and no merge is owed. The
    /// closure receives the shard index so read paths can attribute
    /// their per-shard load ([`crate::obs::on_shard_read`]).
    fn gather<T: Send>(
        &self,
        parallel: bool,
        per_shard: impl Fn(usize, &EncodedGraph) -> Vec<T> + Sync,
    ) -> Vec<T> {
        let per_shard = &per_shard;
        let jobs: Vec<_> = self
            .graphs()
            .enumerate()
            .map(|(i, g)| move || per_shard(i, g))
            .collect();
        let runs = run_jobs(jobs, parallel);
        let mut out = Vec::with_capacity(runs.iter().map(Vec::len).sum());
        for run in runs {
            out.extend(run);
        }
        out
    }
}

impl TripleIndex for ShardedSnapshot {
    fn len(&self) -> usize {
        // Subjects partition the shards, so per-shard counts are
        // disjoint.
        self.graphs().map(EncodedGraph::len).sum()
    }

    fn contains(&self, t: &Triple) -> bool {
        self.shard(self.shard_of(t.s)).contains(t)
    }

    fn triples(&self) -> Box<dyn Iterator<Item = Triple> + '_> {
        Box::new(self.graphs().flat_map(EncodedGraph::iter))
    }

    fn dom(&self) -> Box<dyn Iterator<Item = Iri> + '_> {
        // Terms (unlike triples) repeat across shards — a predicate or
        // object lands wherever some subject hashes — so the per-shard
        // sorted domains k-way merge with dedup.
        Box::new(MergeDedup {
            heads: self
                .graphs()
                .map(|g| TripleIndex::dom(g).peekable())
                .collect(),
        })
    }

    fn dom_contains(&self, i: Iri) -> bool {
        self.graphs().any(|g| TripleIndex::dom_contains(g, i))
    }

    fn candidate_count(&self, pat: &TriplePattern) -> usize {
        match self.route(pat) {
            Some(i) => self.shard(i).candidate_count(pat),
            None => self.graphs().map(|g| g.candidate_count(pat)).sum(),
        }
    }

    fn match_pattern(&self, pat: &TriplePattern) -> Vec<Triple> {
        match self.route(pat) {
            Some(i) => {
                crate::obs::on_routed_read();
                let start = Instant::now();
                let out = self.shard(i).match_pattern(pat);
                crate::obs::on_shard_read(i, out.len() as u64, start.elapsed());
                out
            }
            None => {
                // Scatter (to threads when the host and the run sizes
                // warrant it) and concatenate lazily in shard order.
                let start = Instant::now();
                let est = self.fanout_estimate(pat);
                let out = self.gather(self.parallel_fanout(est), |i, g| {
                    let shard_start = Instant::now();
                    let run = g.match_pattern(pat);
                    crate::obs::on_shard_read(i, run.len() as u64, shard_start.elapsed());
                    run
                });
                crate::obs::on_fanout(start.elapsed());
                out
            }
        }
    }

    fn candidate_values(&self, pat: &TriplePattern, v: Variable) -> Option<Vec<Iri>> {
        match self.route(pat) {
            Some(i) => self.shard(i).candidate_values(pat, v),
            None => {
                // The trait contract demands one ascending list, so this
                // fan-out still merges — but the per-shard lists are
                // computed in parallel when it pays.
                let est = self.fanout_estimate(pat);
                let runs: Option<Vec<Vec<Iri>>> = self
                    .gather(self.parallel_fanout(est), |_, g| {
                        vec![g.candidate_values(pat, v)]
                    })
                    .into_iter()
                    .collect();
                let mut merged = merge_many(runs?);
                merged.dedup();
                Some(merged)
            }
        }
    }
}

/// Lazy k-way merge with dedup over sorted [`Iri`] streams (the shard
/// domains). Each `next` advances every head equal to the minimum, so
/// duplicates across shards collapse.
struct MergeDedup<'a> {
    heads: Vec<std::iter::Peekable<Box<dyn Iterator<Item = Iri> + 'a>>>,
}

impl Iterator for MergeDedup<'_> {
    type Item = Iri;

    fn next(&mut self) -> Option<Iri> {
        let min = self
            .heads
            .iter_mut()
            .filter_map(|h| h.peek().copied())
            .min()?;
        for h in &mut self.heads {
            if h.peek() == Some(&min) {
                h.next();
            }
        }
        Some(min)
    }
}

/// Aggregate statistics of a [`ShardedStore`]: totals plus the
/// per-shard [`StoreStats`] (one consistent snapshot per shard).
#[derive(Clone, Debug)]
pub struct ShardedStats {
    /// Triples across all shards (disjoint by subject).
    pub triples: usize,
    /// Distinct terms across all shards (shared terms counted once).
    pub terms: usize,
    /// The epoch vector, shard by shard.
    pub epochs: Vec<u64>,
    /// Per-shard statistics.
    pub shards: Vec<StoreStats>,
}

impl fmt::Display for ShardedStats {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        writeln!(
            f,
            "{} triple(s) over {} distinct term(s) in {} shard(s) | epochs {:?}",
            self.triples,
            self.terms,
            self.shards.len(),
            self.epochs
        )?;
        for (i, s) in self.shards.iter().enumerate() {
            writeln!(
                f,
                "shard {i}: {} triple(s), {} base + {} delta row(s) in {} segment(s), {} compaction(s)",
                s.triples, s.base_rows, s.delta_rows, s.segments, s.compactions
            )?;
        }
        Ok(())
    }
}

/// N hash-partitioned-by-subject [`TripleStore`] shards behind one
/// facade: scattered parallel bulk loads under per-shard write locks,
/// scatter-gather queries through the shared BGP planner, each pinning
/// only the shards it can read. See the module docs for the design.
pub struct ShardedStore {
    shards: Vec<TripleStore>,
    /// How facade BGPs are joined (see [`JoinStrategy`]).
    strategy: RwLock<JoinStrategy>,
}

impl ShardedStore {
    /// An empty store with `shards` partitions: every query evaluates
    /// on the shards it pins and keeps nothing.
    pub fn new(shards: usize) -> ShardedStore {
        assert!(shards >= 1, "a sharded store needs at least one shard");
        ShardedStore {
            shards: (0..shards).map(|_| TripleStore::new()).collect(),
            strategy: RwLock::new(JoinStrategy::default()),
        }
    }

    /// The configured [`JoinStrategy`] ([`JoinStrategy::Auto`] by
    /// default).
    pub fn join_strategy(&self) -> JoinStrategy {
        *self.strategy.read()
    }

    /// Sets how facade BGPs are joined (see
    /// [`TripleStore::set_join_strategy`]).
    pub fn set_join_strategy(&self, strategy: JoinStrategy) {
        *self.strategy.write() = strategy;
    }

    pub fn from_triples<I>(shards: usize, triples: I) -> ShardedStore
    where
        I: IntoIterator<Item = Triple>,
    {
        let store = ShardedStore::new(shards);
        store.bulk_load(triples);
        store.compact();
        store
    }

    pub fn from_rdf(shards: usize, g: &RdfGraph) -> ShardedStore {
        ShardedStore::from_triples(shards, g.iter().copied())
    }

    /// Opens a durable sharded store rooted at `dir`: one `shard-<i>`
    /// subdirectory per shard, each an independent [`TripleStore`]
    /// store directory with its own manifest, log, and recovery. The
    /// shard count is discovered from the contiguous `shard-0 ..
    /// shard-(n-1)` subdirectories present on disk.
    pub fn open(dir: impl AsRef<Path>) -> Result<ShardedStore, StoreError> {
        ShardedStore::open_with_opts(dir, PersistOpts::default())
    }

    /// [`ShardedStore::open`] with explicit persistence settings.
    pub fn open_with_opts(
        dir: impl AsRef<Path>,
        opts: PersistOpts,
    ) -> Result<ShardedStore, StoreError> {
        let dir = dir.as_ref();
        let mut shards = Vec::new();
        // analyzer-allow: budget-checkpoint bounded by the shard
        // directories present on disk — an open-time discovery loop,
        // not a query loop.
        loop {
            let shard_dir = dir.join(format!("shard-{}", shards.len()));
            if !shard_dir.is_dir() {
                break;
            }
            let sd = StoreDir::real(shard_dir, opts.clone())?;
            shards.push(TripleStore::open_dir(sd)?);
        }
        if shards.is_empty() {
            return Err(StoreError::Persist(PersistError::Corrupt(format!(
                "no shard directories (shard-0, shard-1, …) under {}",
                dir.display()
            ))));
        }
        Ok(ShardedStore {
            shards,
            strategy: RwLock::new(JoinStrategy::default()),
        })
    }

    /// Attaches durable storage at `dir` to this (so far volatile)
    /// sharded store: one freshly formatted `shard-<i>` subdirectory
    /// per shard, current contents checkpointed into each. Later loads
    /// commit durably shard by shard.
    pub fn persist_to(&self, dir: impl AsRef<Path>) -> Result<(), StoreError> {
        self.persist_to_opts(dir, PersistOpts::default())
    }

    /// [`ShardedStore::persist_to`] with explicit settings.
    pub fn persist_to_opts(
        &self,
        dir: impl AsRef<Path>,
        opts: PersistOpts,
    ) -> Result<(), StoreError> {
        let dir = dir.as_ref();
        for (i, shard) in self.shards.iter().enumerate() {
            let sd = StoreDir::real(dir.join(format!("shard-{i}")), opts.clone())?;
            shard.attach(sd)?;
        }
        Ok(())
    }

    /// Whether the shards are backed by durable directories.
    pub fn is_durable(&self) -> bool {
        self.shards.iter().any(TripleStore::is_durable)
    }

    pub fn shard_count(&self) -> usize {
        self.shards.len()
    }

    /// The shard holding subject `s`.
    pub fn shard_of(&self, s: Iri) -> usize {
        shard_of_name(s.as_str(), self.shards.len())
    }

    /// The underlying shards, for per-shard operations (targeted
    /// compaction, stats) and tests. Writing through a shard directly is
    /// safe — the next facade request sees it — but misroutes triples
    /// unless the caller partitions by [`ShardedStore::shard_of`].
    pub fn shards(&self) -> &[TripleStore] {
        &self.shards
    }

    /// Caps every shard at `limit` rows — see
    /// [`TripleStore::set_capacity_limit`]. The limit is per shard: the
    /// facade refuses a load when any single shard would exceed it.
    pub fn set_capacity_limit(&self, limit: Option<usize>) {
        for s in &self.shards {
            s.set_capacity_limit(limit);
        }
    }

    /// True when scattering to threads can help: more than one shard and
    /// more than one core.
    fn parallel_writes(&self) -> bool {
        self.shards.len() > 1 && host_cores() > 1
    }

    /// Scatters a batch to its shards and loads them — in parallel when
    /// the host has the cores for it. Returns the number of new triples;
    /// bumps the epochs of the shards that changed.
    ///
    /// Panics on capacity exhaustion — use
    /// [`ShardedStore::try_bulk_load`] to handle that case.
    pub fn bulk_load<I>(&self, triples: I) -> usize
    where
        I: IntoIterator<Item = Triple>,
    {
        // analyzer-allow: no-unwrap-in-service bulk_load is documented as
        // the panicking facade over try_bulk_load; capacity-sensitive
        // callers use the fallible form.
        self.try_bulk_load(triples)
            .expect("bulk_load exceeds a shard's capacity")
    }

    /// As [`ShardedStore::bulk_load`], but surfaces capacity exhaustion
    /// (and, on a durable store, persistence failures) as an error. Each
    /// shard's insert is atomic (a refused shard is unchanged), but
    /// shards that fit have already committed when the error returns —
    /// the idempotent retry semantics of [`TripleStore::try_bulk_load`]
    /// make re-submitting the same batch after resolving the failure
    /// safe.
    pub fn try_bulk_load<I>(&self, triples: I) -> Result<usize, StoreError>
    where
        I: IntoIterator<Item = Triple>,
    {
        self.try_bulk_load_impl(triples, self.parallel_writes())
    }

    fn try_bulk_load_impl<I>(&self, triples: I, parallel: bool) -> Result<usize, StoreError>
    where
        I: IntoIterator<Item = Triple>,
    {
        let mut parts: Vec<Vec<Triple>> = vec![Vec::new(); self.shards.len()];
        for t in triples {
            parts[self.shard_of(t.s)].push(t);
        }
        let jobs: Vec<_> = parts
            .into_iter()
            .enumerate()
            .filter(|(_, batch)| !batch.is_empty())
            .map(|(i, batch)| {
                let shard = &self.shards[i];
                move || (i, shard.try_bulk_load(batch))
            })
            .collect();
        let results = run_jobs(jobs, parallel);
        let mut added = 0;
        let mut first_err = None;
        for (i, r) in results {
            match r {
                Ok(n) => {
                    added += n;
                    if n > 0 {
                        crate::obs::on_shard_rows(i, n as u64);
                    }
                }
                Err(e) => first_err = first_err.or(Some(e)),
            }
        }
        match first_err {
            None => Ok(added),
            Some(e) => Err(e),
        }
    }

    /// Folds every shard's pending delta segments (epoch-preserving,
    /// like [`TripleStore::compact`]). Returns `true`
    /// when any shard had something to fold.
    pub fn compact(&self) -> bool {
        let parallel = self.parallel_writes();
        let jobs: Vec<_> = self
            .shards
            .iter()
            .map(|shard| move || shard.compact())
            .collect();
        run_jobs(jobs, parallel).into_iter().any(|folded| folded)
    }

    pub fn len(&self) -> usize {
        self.shards.iter().map(TripleStore::len).sum()
    }

    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }

    /// The current epoch vector, shard by shard.
    pub fn epochs(&self) -> Vec<u64> {
        self.shards.iter().map(TripleStore::epoch).collect()
    }

    /// An owned scatter-gather snapshot of every shard. Per-shard
    /// consistent; see the module docs for the cross-shard relaxation.
    pub fn snapshot(&self) -> ShardedSnapshot {
        ShardedSnapshot {
            shards: self.shards.iter().map(TripleStore::read_snapshot).collect(),
        }
    }

    /// A snapshot of the single shard holding subject `s` — the routed
    /// read: holding it pins one shard's graph, so concurrent loads to
    /// the other shards pay no copy-on-write for this reader.
    pub fn subject_snapshot(&self, s: Iri) -> StoreSnapshot {
        self.shards[self.shard_of(s)].read_snapshot()
    }

    /// Runs `f` against a scatter-gather snapshot — the hook
    /// `Engine::from_sharded_store` uses to borrow the facade as a
    /// [`TripleIndex`]. `f` runs lock-free on the snapshot.
    pub fn with_index<R>(&self, f: impl FnOnce(&ShardedSnapshot) -> R) -> R {
        f(&self.snapshot())
    }

    /// Aggregate + per-shard statistics from one scatter-gather
    /// snapshot.
    pub fn stats(&self) -> ShardedStats {
        let snap = self.snapshot();
        let shards: Vec<StoreStats> = snap
            .shards
            .iter()
            .map(|s| crate::service::stats_of(s.graph(), s.epoch()))
            .collect();
        let stats = ShardedStats {
            triples: TripleIndex::len(&snap),
            terms: TripleIndex::dom(&snap).count(),
            epochs: snap.epochs(),
            shards,
        };
        crate::obs::publish_store_gauges(
            stats.triples as u64,
            stats.terms as u64,
            stats.shards.iter().map(|s| s.base_rows as u64).sum(),
            stats.shards.iter().map(|s| s.delta_rows as u64).sum(),
            stats.shards.iter().map(|s| s.segments as u64).sum(),
            stats.epochs.iter().sum(),
            stats.shards.len() as u64,
        );
        stats
    }

    /// The shards a BGP can read: the routed subset when every pattern's
    /// subject is bound, all shards otherwise. Sorted and deduplicated.
    fn read_set(&self, patterns: &[TriplePattern]) -> Vec<usize> {
        let mut routed = Vec::with_capacity(patterns.len());
        for pat in patterns {
            match pat.s {
                Term::Iri(s) => routed.push(self.shard_of(s)),
                Term::Var(_) => return (0..self.shards.len()).collect(),
            }
        }
        routed.sort_unstable();
        routed.dedup();
        routed
    }

    /// A snapshot pinning only the shards in `read` (sorted): every
    /// other slot holds the shared empty placeholder, so concurrent
    /// loads to unrouted shards pay no copy-on-write for this reader.
    /// Sound for fully subject-routed BGPs by construction — every
    /// access path of the evaluation (candidate counts, solutions,
    /// semi-join values, bind-join probes) routes by a bound subject in
    /// `read`; nothing ever dereferences an unrouted slot.
    fn read_snapshot_for(&self, read: &[usize]) -> ShardedSnapshot {
        if read.len() == self.shards.len() {
            return self.snapshot();
        }
        let mut next = read.iter().peekable();
        ShardedSnapshot {
            shards: self
                .shards
                .iter()
                .enumerate()
                .map(|(i, shard)| {
                    if next.peek() == Some(&&i) {
                        next.next();
                        // analyzer-allow: one-snapshot-per-path disjoint
                        // branches: either the full-facade snapshot above
                        // returns early or the routed slots are pinned
                        // here — no query path acquires twice.
                        shard.read_snapshot()
                    } else {
                        StoreSnapshot::empty()
                    }
                })
                .collect(),
        }
    }

    /// The solutions of one pattern: routed to one shard when the
    /// subject is bound (and then pinning that shard alone), gathered
    /// across shards otherwise.
    pub fn solutions(&self, pat: &TriplePattern) -> Arc<Vec<Mapping>> {
        self.query(std::slice::from_ref(pat))
    }

    /// Evaluates a BGP over the sharded layout under the configured
    /// [`JoinStrategy`]: the shared planner and pairwise pipeline of
    /// [`TripleStore::query`], or the worst-case-optimal leapfrog join,
    /// running on a [`ShardedSnapshot`] — each pattern match (or trie)
    /// routes or fans out on its own.
    pub fn query(&self, patterns: &[TriplePattern]) -> Arc<Vec<Mapping>> {
        self.answer(patterns, Want::Rows).solutions
    }

    /// As [`ShardedStore::query`], evaluated under `budget`: the
    /// streaming evaluators run over the scatter-gather snapshot and
    /// checkpoint the deadline/cancellation token at every pull and
    /// inside the WCOJ/merge inner loops, so a failed budget surfaces
    /// as a typed [`ExecError`].
    pub fn query_budgeted(
        &self,
        patterns: &[TriplePattern],
        budget: &QueryBudget,
    ) -> Result<Arc<Vec<Mapping>>, ExecError> {
        Ok(self.serve(patterns, budget, Want::Rows)?.solutions)
    }

    /// Streams the first `limit` solutions over the sharded layout
    /// under `budget` — LIMIT pushdown across the scatter-gather path;
    /// see [`TripleStore::query_limited`] for the contract.
    pub fn query_limited(
        &self,
        patterns: &[TriplePattern],
        limit: usize,
        budget: &QueryBudget,
    ) -> Result<Vec<Mapping>, ExecError> {
        let prefix = self.serve(patterns, budget, Want::Prefix(limit))?;
        Ok(Arc::unwrap_or_clone(prefix.solutions))
    }

    /// As [`ShardedStore::query`], but also returns the evaluation
    /// order, the resolved strategy and the query's read provenance —
    /// plan and solutions from one snapshot, the plan computed exactly
    /// once.
    pub fn query_with_plan(&self, patterns: &[TriplePattern]) -> PlannedQuery {
        self.answer(patterns, Want::Plan)
    }

    /// As [`ShardedStore::query_with_plan`], additionally building an
    /// execution profile (see [`TripleStore::query_with_profile`]): the
    /// root span carries the read provenance — which shards the query
    /// pinned, at which epochs, and whether it was fully subject-routed
    /// or a fan-out — on top of the plan timing, strategy and per-level
    /// WCOJ or per-step pairwise counters.
    pub fn query_with_profile(&self, patterns: &[TriplePattern]) -> PlannedQuery {
        self.answer(patterns, Want::Profile)
    }

    /// Serves one request under an unlimited budget — the infallible
    /// entry points.
    fn answer(&self, patterns: &[TriplePattern], want: Want) -> PlannedQuery {
        // analyzer-allow: no-unwrap-in-service an unlimited budget never
        // fails a checkpoint.
        self.serve(patterns, &QueryBudget::unlimited(), want)
            .expect("an unlimited budget never fails a checkpoint")
    }

    /// Pins the shards the BGP can read — the one acquisition of the
    /// request — and serves `want` on that snapshot through the shared
    /// BGP path.
    fn serve(
        &self,
        patterns: &[TriplePattern],
        budget: &QueryBudget,
        want: Want,
    ) -> Result<PlannedQuery, ExecError> {
        let shards = self.read_set(patterns);
        let snap = self.read_snapshot_for(&shards);
        let read: Vec<(usize, u64)> = shards
            .iter()
            .map(|&i| (i, snap.shards[i].epoch()))
            .collect();
        let pin = Pinned {
            ix: &snap,
            read: &read,
            evaluations: None,
            configured: self.join_strategy(),
            provenance: &|root| {
                let routed = read.len() < self.shards.len();
                let shards_read: Vec<String> =
                    read.iter().map(|&(i, e)| format!("{i}@{e}")).collect();
                root.field("routing", if routed { "routed" } else { "fan-out" })
                    .field("shards_read", shards_read.join(","))
            },
        };
        bgp::serve(&pin, patterns, budget, want)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use wdsparql_rdf::term::{iri, var};
    use wdsparql_rdf::tp;

    fn fixture() -> Vec<Triple> {
        [
            ("a", "p", "b"),
            ("b", "p", "c"),
            ("c", "p", "d"),
            ("d", "p", "a"),
            ("b", "q", "x"),
            ("c", "q", "x"),
            ("x", "q", "a"),
        ]
        .map(|(s, p, o)| Triple::from_strs(s, p, o))
        .to_vec()
    }

    /// Two subject names guaranteed to live in different shards of a
    /// `shards`-way store (probed; plenty of names to choose from).
    fn split_subjects(store: &ShardedStore) -> (Iri, Iri) {
        let a = Iri::new("probe0");
        for i in 1..1000 {
            let b = Iri::new(&format!("probe{i}"));
            if store.shard_of(b) != store.shard_of(a) {
                return (a, b);
            }
        }
        panic!("hash sends every probe to one shard");
    }

    #[test]
    fn routing_is_deterministic_and_total() {
        let store = ShardedStore::new(4);
        for i in 0..64 {
            let s = Iri::new(&format!("subject{i}"));
            let shard = store.shard_of(s);
            assert!(shard < 4);
            assert_eq!(shard, store.shard_of(s), "routing must be stable");
        }
        // With enough distinct names every shard receives some subject.
        let mut hit = [false; 4];
        for i in 0..64 {
            hit[store.shard_of(Iri::new(&format!("subject{i}")))] = true;
        }
        assert!(hit.iter().all(|&b| b), "partition must be total: {hit:?}");
    }

    #[test]
    fn triples_partition_by_subject() {
        let store = ShardedStore::from_triples(3, fixture());
        assert_eq!(store.len(), fixture().len());
        let snap = store.snapshot();
        for (i, shard) in store.shards().iter().enumerate() {
            shard.with_index(|g| {
                for t in g.iter() {
                    assert_eq!(store.shard_of(t.s), i, "{t} misrouted");
                }
            });
            assert_eq!(snap.shard(i).len(), shard.len());
        }
    }

    #[test]
    fn sharded_snapshot_matches_single_store() {
        let single = TripleStore::from_triples(fixture());
        for shards in 1..5 {
            let sharded = ShardedStore::from_triples(shards, fixture());
            let snap = sharded.snapshot();
            let sref = single.read_snapshot();
            assert_eq!(TripleIndex::len(&snap), sref.len());
            assert_eq!(
                TripleIndex::dom(&snap).collect::<Vec<_>>(),
                TripleIndex::dom(sref.graph()).collect::<Vec<_>>(),
                "{shards}-shard dom"
            );
            for t in fixture() {
                assert!(TripleIndex::contains(&snap, &t));
            }
            assert!(!TripleIndex::contains(
                &snap,
                &Triple::from_strs("q", "q", "q")
            ));
            let pats = [
                tp(var("x"), iri("p"), var("y")),
                tp(iri("b"), var("w"), var("y")),
                tp(var("x"), iri("q"), iri("x")),
                tp(iri("c"), iri("p"), iri("d")),
                tp(var("x"), var("w"), var("y")),
                tp(var("x"), iri("p"), var("x")),
            ];
            for pat in pats {
                let mut got = TripleIndex::match_pattern(&snap, &pat);
                let mut want = sref.match_pattern(&pat);
                got.sort();
                want.sort();
                assert_eq!(got, want, "{shards}-shard pattern {pat}");
                assert!(TripleIndex::candidate_count(&snap, &pat) >= got.len());
                let mut gs = TripleIndex::solutions(&snap, &pat);
                let mut ws = sref.solutions(&pat);
                gs.sort();
                ws.sort();
                assert_eq!(gs, ws, "{shards}-shard solutions {pat}");
            }
        }
    }

    #[test]
    fn facade_query_agrees_with_single_store() {
        let single = TripleStore::from_triples(fixture());
        let sharded = ShardedStore::from_triples(3, fixture());
        let pats = [
            tp(var("x"), iri("p"), var("y")),
            tp(var("y"), iri("q"), var("z")),
        ];
        let mut got: Vec<Mapping> = sharded.query(&pats).iter().cloned().collect();
        let mut want: Vec<Mapping> = single.query(&pats).iter().cloned().collect();
        got.sort();
        want.sort();
        assert_eq!(got, want);
        // The planned variant returns the same solutions plus its read
        // provenance — a fan-out reads every shard at its current epoch.
        let planned = sharded.query_with_plan(&pats);
        assert_eq!(planned.solutions.len(), want.len());
        assert_eq!(planned.plan.len(), pats.len());
        let epochs = sharded.epochs();
        assert_eq!(
            planned.read,
            (0..sharded.shard_count())
                .map(|i| (i, epochs[i]))
                .collect::<Vec<_>>()
        );
    }

    #[test]
    fn epochs_bump_only_written_shards() {
        let store = ShardedStore::new(2);
        let (a, b) = split_subjects(&store);
        let base = store.epochs();
        store.bulk_load([Triple::new(a, Iri::new("p"), Iri::new("o"))]);
        let after_a = store.epochs();
        let sa = store.shard_of(a);
        let sb = store.shard_of(b);
        assert_eq!(after_a[sa], base[sa] + 1);
        assert_eq!(after_a[sb], base[sb], "unwritten shard keeps its epoch");
        store.bulk_load([Triple::new(b, Iri::new("p"), Iri::new("o"))]);
        assert_eq!(store.epochs()[sb], base[sb] + 1);
    }

    #[test]
    fn parallel_scatter_path_loads_correctly() {
        // Forced through the scoped-thread path even on one core.
        let store = ShardedStore::new(4);
        let batch: Vec<Triple> = (0..64)
            .map(|i| Triple::from_strs(&format!("s{i}"), "p", &format!("o{i}")))
            .collect();
        assert_eq!(store.try_bulk_load_impl(batch.clone(), true).unwrap(), 64);
        assert_eq!(store.len(), 64);
        let snap = store.snapshot();
        for t in &batch {
            assert!(TripleIndex::contains(&snap, t));
        }
        // Idempotent retry through the same path.
        assert_eq!(store.try_bulk_load_impl(batch, true).unwrap(), 0);
    }

    #[test]
    fn capacity_errors_propagate_per_shard() {
        let store = ShardedStore::new(2);
        store.set_capacity_limit(Some(1));
        let (a, b) = split_subjects(&store);
        // One triple per shard fits.
        assert_eq!(
            store.bulk_load([
                Triple::new(a, Iri::new("p"), Iri::new("o")),
                Triple::new(b, Iri::new("p"), Iri::new("o")),
            ]),
            2
        );
        // A second triple for a's shard trips its limit; b's shard is
        // untouched by the refused sub-batch.
        let err = store
            .try_bulk_load([Triple::new(a, Iri::new("q"), Iri::new("o"))])
            .unwrap_err();
        let StoreError::Capacity(err) = err else {
            panic!("expected a capacity error, got {err}");
        };
        assert_eq!(err.limit, 1);
        assert_eq!(store.len(), 2);
    }

    #[test]
    fn routed_queries_pin_only_their_shards() {
        let store = ShardedStore::new(2);
        let (a, b) = split_subjects(&store);
        store.bulk_load([
            Triple::new(a, Iri::new("p"), Iri::new("o")),
            Triple::new(b, Iri::new("p"), Iri::new("o")),
        ]);
        let (sa, sb) = (store.shard_of(a), store.shard_of(b));
        // The partial snapshot a routed query evaluates on holds the
        // shared empty placeholder in every unrouted slot — nothing of
        // shard b is pinned while a's query runs.
        let snap = store.read_snapshot_for(&[sa]);
        assert_eq!(snap.shard(sa).len(), 1);
        assert_eq!(snap.shard(sb).len(), 0, "unrouted slot must be empty");
        assert_eq!(snap.epochs()[sb], 0, "placeholder epoch");
        // And the routed facade path stays correct through it, with
        // single-pair provenance.
        let planned = store.query_with_plan(&[tp(a, iri("p"), var("y"))]);
        assert_eq!(planned.solutions.len(), 1);
        assert_eq!(planned.read, vec![(sa, store.epochs()[sa])]);
    }

    #[test]
    fn subject_snapshot_pins_one_shard_only() {
        let store = ShardedStore::new(2);
        let (a, b) = split_subjects(&store);
        store.bulk_load([Triple::new(a, Iri::new("p"), Iri::new("o"))]);
        let pinned = store.subject_snapshot(a);
        let len_before = pinned.len();
        // Writes to both shards land; the pinned snapshot still answers
        // from a's old graph.
        store.bulk_load([
            Triple::new(a, Iri::new("p"), Iri::new("o2")),
            Triple::new(b, Iri::new("p"), Iri::new("o2")),
        ]);
        assert_eq!(pinned.len(), len_before);
        assert_eq!(store.len(), 3);
    }

    #[test]
    fn empty_query_yields_the_empty_mapping_and_never_invalidates() {
        let store = ShardedStore::from_triples(2, fixture());
        assert_eq!(store.query(&[]).as_slice(), &[Mapping::new()]);
        store.bulk_load([Triple::from_strs("zz", "p", "zz")]);
        // The empty BGP reads no shard, so no write can change it.
        let planned = store.query_with_plan(&[]);
        assert_eq!(planned.solutions.as_slice(), &[Mapping::new()]);
        assert!(planned.read.is_empty(), "{:?}", planned.read);
    }

    #[test]
    fn fanout_reads_concatenate_disjoint_shard_runs() {
        // The lazy fan-out must return every shard's solutions exactly
        // once, in deterministic shard order — and agree with the
        // single store as a set.
        let single = TripleStore::from_triples(fixture());
        let sharded = ShardedStore::from_triples(4, fixture());
        let snap = sharded.snapshot();
        let pat = tp(var("x"), iri("p"), var("y"));
        let got = TripleIndex::solutions(&snap, &pat);
        let again = TripleIndex::solutions(&snap, &pat);
        assert_eq!(got, again, "fan-out order must be deterministic");
        let mut sorted_got = got;
        sorted_got.sort();
        let mut want = single.read_snapshot().solutions(&pat);
        want.sort();
        assert_eq!(sorted_got, want);
    }

    #[test]
    fn sharded_query_with_profile_builds_a_span_tree() {
        let mut triples = fixture();
        triples.push(Triple::from_strs("a", "p", "c")); // close a triangle
        let sharded = ShardedStore::from_triples(3, triples);
        let triangle = [
            tp(var("x"), iri("p"), var("y")),
            tp(var("y"), iri("p"), var("z")),
            tp(var("x"), iri("p"), var("z")),
        ];
        // Unbound subjects: a fan-out over every shard, WCO under Auto.
        let planned = sharded.query_with_profile(&triangle);
        assert_eq!(planned.strategy, JoinStrategy::Wco);
        let profile = planned.profile.as_ref().expect("profile requested");
        let root = &profile.root;
        assert_eq!(root.name(), "query");
        assert_eq!(root.get("strategy"), Some("wco"));
        assert_eq!(root.get("routing"), Some("fan-out"));
        let shards_read = root.get("shards_read").expect("read provenance");
        assert_eq!(shards_read.split(',').count(), 3, "{shards_read}");
        let execute = root
            .children()
            .iter()
            .find(|s| s.name() == "execute")
            .expect("every profile carries an execute span");
        let levels: Vec<_> = execute
            .children()
            .iter()
            .filter(|s| s.name().starts_with("level "))
            .collect();
        assert_eq!(levels.len(), 3, "one span per WCOJ variable level");
        assert!(levels.iter().all(|s| s.get("rows").is_some()));
        // A fully subject-routed query reports routed provenance.
        let routed = sharded.query_with_profile(&[tp(iri("b"), iri("p"), var("y"))]);
        let root = &routed.profile.as_ref().unwrap().root;
        assert_eq!(root.get("routing"), Some("routed"));
        assert_eq!(
            root.get("shards_read").unwrap().split(',').count(),
            1,
            "one routed shard"
        );
    }

    #[test]
    fn stats_aggregate_across_shards() {
        let store = ShardedStore::from_triples(3, fixture());
        let stats = store.stats();
        assert_eq!(stats.triples, 7);
        assert_eq!(stats.shards.len(), 3);
        assert_eq!(stats.epochs.len(), 3);
        // Distinct terms, not the per-shard sum (predicates repeat).
        let single = TripleStore::from_triples(fixture());
        assert_eq!(stats.terms, single.stats().terms);
        let text = stats.to_string();
        assert!(text.contains("3 shard(s)"), "{text}");
        assert!(text.contains("shard 2:"), "{text}");
    }
}
