//! The one BGP request path: how a conjunctive query is served, written
//! once for both services.
//!
//! A facade ([`crate::TripleStore`], [`crate::ShardedStore`]) pins a
//! snapshot and hands it over as a [`Pinned`] read — the
//! [`TripleIndex`] to evaluate on, the `(shard, epoch)` pairs that
//! snapshot read (the single store reads `[(0, epoch)]`), its result
//! cache and how to re-validate the provenance. [`serve`] then runs the
//! rest of the sequence — entry checkpoint → key → cache (both skipped
//! when the cache is off, the default) → plan once → resolve `Auto` →
//! open the stream → collect → account — for every entry point; a
//! [`Want`] says what the caller wants back. Everything
//! here runs on `&dyn TripleIndex`, so the planner and both join
//! pipelines are the same code on the encoded graph and on the
//! scatter-gather [`crate::ShardedSnapshot`].

use crate::cache::ResultCache;
use crate::join::{PairwisePlan, PairwiseStream};
use crate::wcoj::{resolve_with_order, JoinStrategy, WcoStream};
use std::sync::Arc;
use std::time::{Duration, Instant};
use wdsparql_obs::{QueryProfile, Span};
use wdsparql_rdf::{
    ExecError, Mapping, QueryBudget, SolutionStream, Term, TripleIndex, TriplePattern, Variable,
};

/// A BGP answered together with the plan that produced it and the read
/// provenance of the snapshot both were derived from, so they can never
/// diverge.
#[derive(Clone, Debug)]
#[must_use = "a dropped PlannedQuery is a query that was planned and evaluated for nothing"]
pub struct PlannedQuery {
    /// Pattern indexes in selectivity order (the pairwise evaluation
    /// order; the WCOJ consumes it only as a selectivity signal).
    pub plan: Vec<usize>,
    /// The solution mappings.
    pub solutions: Arc<Vec<Mapping>>,
    /// The `(shard, epoch)` pairs the query read — exactly the shards
    /// whose writes can invalidate this result. A [`crate::TripleStore`]
    /// reads `[(0, epoch)]`; on a [`crate::ShardedStore`] a fully
    /// subject-routed query lists only its routed shards, a fan-out
    /// lists every shard.
    pub read: Vec<(usize, u64)>,
    /// The join strategy that actually ran (`Auto` already resolved to
    /// [`JoinStrategy::Pairwise`] or [`JoinStrategy::Wco`]).
    pub strategy: JoinStrategy,
    /// The execution profile, on the `query_with_profile` path only
    /// (`None` elsewhere — nothing is collected unless profiling was
    /// requested).
    pub profile: Option<QueryProfile>,
}

/// Cache key: the query (see [`cache_key`]) plus the `(shard, epoch)`
/// pairs it read. Routing is a pure function of the query text, so
/// equal keys always name the same shard subset. Shared, because the
/// cache clones its keys (in-flight slot, LRU entry, recency index).
pub(crate) type CacheKey = Arc<(String, Vec<(usize, u64)>)>;

/// Collision-free query half of the [`CacheKey`]: the *configured*
/// [`JoinStrategy`] — so entries produced under different knob settings
/// can never serve each other, even mid-flight across a concurrent
/// `set_join_strategy` — then every term as its kind tag plus interned
/// id (stable for the process lifetime of the cache). The `Display`
/// form would not do — an IRI's spelling is arbitrary text, so two
/// distinct pattern lists could print identically.
fn cache_key(patterns: &[TriplePattern], strategy: JoinStrategy) -> String {
    use std::fmt::Write;
    let mut key = String::from(match strategy {
        JoinStrategy::Pairwise => "p|",
        JoinStrategy::Wco => "w|",
        JoinStrategy::Auto => "a|",
    });
    for pat in patterns {
        for term in pat.positions() {
            let (kind, id) = match term {
                Term::Var(v) => ('v', v.id()),
                Term::Iri(i) => ('i', i.id()),
            };
            let _ = write!(key, "{kind}{id},"); // infallible: fmt::Write on String
        }
    }
    key
}

/// One `candidate_count` per pattern: what [`plan_order`], the `Auto`
/// rule and the keyed join's scan rule read. A lone pattern under at most
/// one key is not counted (`usize::MAX`): it has nothing to be ordered
/// against, nothing to blow up with, and is probed once either way.
pub(crate) fn candidate_counts(
    ix: &dyn TripleIndex,
    patterns: &[TriplePattern],
    keys: usize,
) -> Vec<usize> {
    if patterns.len() == 1 && keys <= 1 {
        return vec![usize::MAX];
    }
    patterns.iter().map(|p| ix.candidate_count(p)).collect()
}

/// The one source of truth for BGP evaluation order, shared by the
/// `plan` entry points, [`serve`] (what actually runs), the free
/// `eval_bgp_*` functions and the keyed join, so displayed and executed
/// plans only ever come from one computation on one graph. The plan
/// keeps `counts` beside the order, so execution reads them instead of
/// asking the index again.
///
/// Greedy, by the [`candidate_counts`] of the patterns: repeatedly take
/// the most selective pattern sharing a variable with what is already
/// bound — `bound` to begin with (nothing for a plain BGP, the key's
/// variables for a keyed join) — else the most selective of all. A
/// disconnected pattern (Cartesian product) is chosen only when nothing
/// connected remains — deferring it keeps the bind-join loop's
/// intermediate result linear in the joined component instead of
/// multiplying unrelated match sets. Quadratic in the patterns: a
/// candidate's join test is a look-up in [`BoundVars`].
pub(crate) fn plan_order(
    patterns: &[TriplePattern],
    counts: &[usize],
    bound: &[Variable],
) -> PairwisePlan {
    let mut order: Vec<usize> = (0..patterns.len()).collect();
    order.sort_by_key(|&i| counts[i]);
    let mut placed = BoundVars::new(patterns, bound);
    // Position `k` takes the first pattern after it that joins, else the
    // next by count; the rest keep their count order.
    for k in 0..order.len() {
        let pick = (k..order.len())
            .find(|&at| placed.joins(&patterns[order[at]]))
            .unwrap_or(k);
        order[k..=pick].rotate_right(1);
        placed.bind(&patterns[order[k]]);
    }
    PairwisePlan {
        order,
        counts: counts.to_vec(),
    }
}

/// The variables bound while a plan is walked: every variable of the
/// BGP, ascending, with one flag each, so that asking whether a pattern
/// joins what is placed looks up its three positions instead of
/// rescanning every placed pattern.
pub(crate) struct BoundVars(Vec<(Variable, bool)>);

impl BoundVars {
    /// Nothing placed yet; the variables of `bound` (a keyed join's key)
    /// are bound from the start.
    pub(crate) fn new(patterns: &[TriplePattern], bound: &[Variable]) -> BoundVars {
        let mut vars = Vec::with_capacity(3 * patterns.len());
        vars.extend((patterns.iter()).flat_map(|p| p.var_occurrences().map(|v| (v, false))));
        vars.sort_unstable();
        vars.dedup();
        let mut placed = BoundVars(vars);
        for &v in bound {
            placed.set(v);
        }
        placed
    }

    fn flag(&self, v: Variable) -> Option<usize> {
        self.0.binary_search_by_key(&v, |&(u, _)| u).ok()
    }

    fn set(&mut self, v: Variable) {
        if let Some(at) = self.flag(v) {
            self.0[at].1 = true;
        }
    }

    /// Does `pat` share a variable with what is bound — is it a join,
    /// not a product, after it?
    pub(crate) fn joins(&self, pat: &TriplePattern) -> bool {
        pat.var_occurrences()
            .any(|v| self.flag(v).is_some_and(|at| self.0[at].1))
    }

    /// Binds the variables of `pat`.
    pub(crate) fn bind(&mut self, pat: &TriplePattern) {
        for v in pat.var_occurrences() {
            self.set(v);
        }
    }
}

/// Plans the pairwise order and resolves [`JoinStrategy::Auto`] on one
/// snapshot — the once-per-request planning step. A forced WCOJ
/// consumes no order, so unless the caller must report one
/// (`report_plan`) it plans nothing.
pub(crate) fn plan_and_resolve(
    ix: &dyn TripleIndex,
    patterns: &[TriplePattern],
    configured: JoinStrategy,
    report_plan: bool,
) -> (PairwisePlan, JoinStrategy) {
    if configured == JoinStrategy::Wco && !report_plan {
        return (PairwisePlan::default(), configured);
    }
    let plan = plan_order(patterns, &candidate_counts(ix, patterns, 1), &[]);
    let strategy = resolve_with_order(ix, patterns, configured, &plan, &[]);
    (plan, strategy)
}

/// The two evaluators behind one cursor — and the one place either is
/// constructed.
enum BgpStream<'a> {
    Pairwise(PairwiseStream<'a>),
    Wco(WcoStream<'a>),
}

impl<'a> BgpStream<'a> {
    /// Opens the evaluator a *resolved* `strategy` calls for; `plan` is
    /// the pairwise plan (unused by the WCOJ). Never re-plans.
    fn open(
        ix: &'a dyn TripleIndex,
        patterns: &'a [TriplePattern],
        plan: PairwisePlan,
        strategy: JoinStrategy,
        budget: &'a QueryBudget,
        profiled: bool,
    ) -> BgpStream<'a> {
        match strategy {
            JoinStrategy::Wco => BgpStream::Wco(WcoStream::new(ix, patterns, budget, profiled)),
            _ => BgpStream::Pairwise(PairwiseStream::new(ix, patterns, plan, budget, profiled)),
        }
    }

    /// The children of a profile's `execute` span: one `level ?v` span
    /// per WCOJ variable level with the leapfrog's counters, or one
    /// `scan`/`join` span per pairwise plan step with its pattern,
    /// probe count and intermediate cardinality.
    fn detail(&self, patterns: &[TriplePattern]) -> Vec<Span> {
        match self {
            BgpStream::Wco(s) => s
                .level_stats()
                .iter()
                .map(|(v, s)| {
                    Span::new(format!("level {v}"))
                        .field("rows", s.rows)
                        .field("seeks", s.seeks)
                        .field("gallop_steps", s.gallop_steps)
                })
                .collect(),
            BgpStream::Pairwise(s) => s
                .step_stats()
                .iter()
                .enumerate()
                .map(|(i, s)| {
                    let span = Span::new(if i == 0 { "scan" } else { "join" })
                        .field("pattern", patterns[s.pattern])
                        .field("scans", s.scans)
                        .field("rows", s.rows);
                    match s.prune {
                        Some(prune) => span.field("prune", prune),
                        None => span,
                    }
                })
                .collect(),
        }
    }
}

impl SolutionStream for BgpStream<'_> {
    fn next(&mut self) -> Result<Option<Mapping>, ExecError> {
        match self {
            BgpStream::Pairwise(s) => s.next(),
            BgpStream::Wco(s) => s.next(),
        }
    }

    /// One dispatch per collection, not per row: each evaluator's own
    /// pull loop stays monomorphic.
    fn collect_limit(&mut self, limit: Option<usize>) -> Result<Vec<Mapping>, ExecError> {
        match self {
            BgpStream::Pairwise(s) => s.collect_limit(limit),
            BgpStream::Wco(s) => s.collect_limit(limit),
        }
    }
}

/// Opens the planned evaluator and runs it to a `Vec` — the first
/// `limit` rows, or all of them. With `profiled`, also returns the
/// `execute` span (wall time plus per-level / per-step children).
pub(crate) fn run(
    ix: &dyn TripleIndex,
    patterns: &[TriplePattern],
    (plan, strategy): (PairwisePlan, JoinStrategy),
    budget: &QueryBudget,
    limit: Option<usize>,
    profiled: bool,
) -> Result<(Vec<Mapping>, Option<Span>), ExecError> {
    let start = profiled.then(Instant::now);
    let mut stream = BgpStream::open(ix, patterns, plan, strategy, budget, profiled);
    let rows = stream.collect_limit(limit)?;
    let span = start.map(|t| {
        let mut span = Span::new("execute").timed(t.elapsed());
        for child in stream.detail(patterns) {
            span.push(child);
        }
        span
    });
    Ok((rows, span))
}

/// Evaluates a BGP with the given strategy knob, unbudgeted and
/// uncached: resolves `Auto` on this snapshot, then runs either the
/// pairwise pipeline or the leapfrog join to completion — the
/// materialising collector behind the `eval_bgp_*` free functions. Both
/// strategies produce the same solution *set* (the order may differ).
/// The pairwise order is planned exactly once: resolution and execution
/// share it.
pub fn eval_bgp_with_strategy(
    ix: &dyn TripleIndex,
    patterns: &[TriplePattern],
    strategy: JoinStrategy,
) -> Vec<Mapping> {
    let planned = plan_and_resolve(ix, patterns, strategy, false);
    let budget = QueryBudget::unlimited();
    // analyzer-allow: no-unwrap-in-service an unlimited budget never
    // fails a checkpoint, so the materialised collect always arrives.
    let (rows, _) = run(ix, patterns, planned, &budget, None, false)
        .expect("an unlimited budget never fails a checkpoint");
    rows
}

/// Opens the streaming evaluation of a BGP under `strategy` and
/// `budget`: plans once, resolves [`JoinStrategy::Auto`] on this
/// snapshot, then returns the matching stream — [`WcoStream`] or
/// [`PairwiseStream`] — for the caller to pull.
pub fn open_bgp_stream<'a>(
    ix: &'a dyn TripleIndex,
    patterns: &'a [TriplePattern],
    strategy: JoinStrategy,
    budget: &'a QueryBudget,
) -> Box<dyn SolutionStream + 'a> {
    let (plan, strategy) = plan_and_resolve(ix, patterns, strategy, false);
    Box::new(BgpStream::open(ix, patterns, plan, strategy, budget, false))
}

/// What a facade hands [`serve`]: one pinned snapshot and everything
/// that depends on which service pinned it.
pub(crate) struct Pinned<'a> {
    /// The snapshot the request evaluates on.
    pub ix: &'a dyn TripleIndex,
    /// The `(shard, epoch)` pairs `ix` read, sorted by shard.
    pub read: &'a [(usize, u64)],
    /// The owner's result cache.
    pub cache: &'a ResultCache<CacheKey>,
    /// Does `read` still name the owner's current epochs? Asked after a
    /// computation: a result whose epochs were superseded meanwhile is
    /// returned but not cached.
    pub still_current: &'a dyn Fn() -> bool,
    /// The owner's configured [`JoinStrategy`].
    pub configured: JoinStrategy,
    /// Adds the owner's rendering of `read` to a profile's root span.
    pub provenance: &'a dyn Fn(Span) -> Span,
}

/// What the caller of [`serve`] wants back.
#[derive(Clone, Copy, PartialEq, Eq)]
pub(crate) enum Want {
    /// Every row, through the result cache when it has capacity (past
    /// it otherwise, counted as a miss). Plans only on a miss and
    /// reports no plan: the caller wants rows.
    Rows,
    /// The first `k` rows, streamed. Uncached in both directions — a
    /// k-prefix is a partial result and cached entries only ever hold
    /// complete ones — so no cache key is built. Reports no plan.
    Prefix(usize),
    /// As `Rows`, plus the plan and the resolved strategy — planned up
    /// front, because both are reported even on a cache hit.
    Plan,
    /// As `Plan`, plus the execution profile.
    Profile,
}

/// What one request learned on the way to its rows — kept outside the
/// fallible part, so a failed request is still accounted.
#[derive(Default)]
struct Trace {
    /// The strategy the request resolved, once it planned (a plain
    /// request served from the cache never does).
    strategy: Option<JoinStrategy>,
    /// The pairwise plan, when it is part of the answer.
    plan: PairwisePlan,
    /// Wall time of the up-front planning of [`Want::Plan`] and
    /// [`Want::Profile`].
    plan_elapsed: Option<Duration>,
    /// The `execute` span, when this request ran the evaluation itself
    /// (a cache miss) under profiling.
    execute: Option<Span>,
}

/// Serves one BGP request on a pinned snapshot — the single
/// implementation behind every query entry point of both services.
///
/// Budget failures are typed and stay with their caller: the entry
/// checkpoint runs before the cache is consulted (so a dead budget's
/// outcome does not depend on what happens to be cached), a failed
/// computation is never cached, and a request that joined another's
/// in-flight computation never inherits that caller's failure (see
/// [`ResultCache::get_or_try_compute`]). Under
/// [`QueryBudget::unlimited`] the result is always `Ok`.
///
/// Every request is accounted in the metrics registry exactly once,
/// here: two clock reads, plus two around up-front planning when the
/// plan is part of the answer.
pub(crate) fn serve(
    pin: &Pinned<'_>,
    patterns: &[TriplePattern],
    budget: &QueryBudget,
    want: Want,
) -> Result<PlannedQuery, ExecError> {
    let start = Instant::now();
    let mut trace = Trace::default();
    let rows = answer(pin, patterns, budget, want, &mut trace);
    let total = start.elapsed();
    match &rows {
        Ok(rows) => crate::obs::on_rows_streamed(rows.len() as u64),
        Err(ExecError::DeadlineExceeded) => crate::obs::on_deadline_exceeded(),
        Err(ExecError::Cancelled) => {}
    }
    crate::obs::on_query(trace.strategy, total, trace.plan_elapsed);
    let solutions = rows?;
    let strategy = trace.strategy.unwrap_or(pin.configured);
    let profile = (want == Want::Profile).then(|| {
        let root = Span::new("query").timed(total).field("strategy", strategy);
        let computed_here = trace.execute.is_some();
        let order: Vec<String> = trace.plan.order.iter().map(usize::to_string).collect();
        let mut root = (pin.provenance)(root)
            .field("patterns", patterns.len())
            .field("rows", solutions.len())
            .field("cache", if computed_here { "miss" } else { "hit" })
            .with(
                Span::new("plan")
                    .timed(trace.plan_elapsed.unwrap_or_default())
                    .field("order", order.join(",")),
            );
        if let Some(span) = trace.execute {
            root.push(span);
        }
        QueryProfile::new(root)
    });
    Ok(PlannedQuery {
        plan: trace.plan.order,
        solutions,
        read: pin.read.to_vec(),
        strategy,
        profile,
    })
}

/// The fallible part of [`serve`]: entry checkpoint, up-front planning
/// when the plan is part of the answer, then the rows — streamed for a
/// prefix, evaluated outright when the cache is off, through the cache
/// otherwise.
fn answer(
    pin: &Pinned<'_>,
    patterns: &[TriplePattern],
    budget: &QueryBudget,
    want: Want,
    trace: &mut Trace,
) -> Result<Arc<Vec<Mapping>>, ExecError> {
    budget.check()?;
    if matches!(want, Want::Plan | Want::Profile) {
        let plan_start = Instant::now();
        let (plan, strategy) = plan_and_resolve(pin.ix, patterns, pin.configured, true);
        (trace.plan, trace.strategy) = (plan, Some(strategy));
        trace.plan_elapsed = Some(plan_start.elapsed());
    }
    let mut compute = |limit: Option<usize>| -> Result<Vec<Mapping>, ExecError> {
        let planned = match trace.strategy {
            // Planned up front: the plan stays behind for the answer.
            Some(strategy) => (trace.plan.clone(), strategy),
            None => plan_and_resolve(pin.ix, patterns, pin.configured, false),
        };
        trace.strategy = Some(planned.1);
        let profiled = want == Want::Profile;
        let (rows, span) = run(pin.ix, patterns, planned, budget, limit, profiled)?;
        trace.execute = span;
        Ok(rows)
    };
    match want {
        Want::Prefix(k) => compute(Some(k)).map(Arc::new),
        // Nothing to find and nowhere to keep it: no key, no lock, no
        // in-flight slot. Still one miss per evaluation.
        _ if pin.cache.is_off() => {
            pin.cache.count_miss();
            compute(None).map(Arc::new)
        }
        _ => {
            let key = Arc::new((cache_key(patterns, pin.configured), pin.read.to_vec()));
            pin.cache
                .get_or_try_compute(key, budget, pin.still_current, || compute(None))
        }
    }
}
