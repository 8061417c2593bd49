//! The one BGP request path: how a conjunctive query is served, written
//! once for both services.
//!
//! A facade ([`crate::TripleStore`], [`crate::ShardedStore`]) pins a
//! snapshot and hands it over as a [`Pinned`] read — the
//! [`TripleIndex`] to evaluate on and the `(shard, epoch)` pairs that
//! snapshot read (the single store reads `[(0, epoch)]`). [`serve`] then
//! runs the rest of the sequence — entry checkpoint → plan once →
//! resolve `Auto` → open the stream → collect → account — for every
//! entry point; a [`Want`] says what the caller wants back. Every request
//! evaluates on its pinned snapshot: nothing is kept between requests.
//! Everything here runs on `&dyn TripleIndex`, so the planner and the
//! join stream are the same code on the encoded graph and on the
//! scatter-gather [`crate::ShardedSnapshot`].

use crate::join::{Binds, JoinStream, LevelStats, PairwisePlan};
use crate::wcoj::{resolve_with_order, JoinStrategy};
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Arc;
use std::time::{Duration, Instant};
use wdsparql_obs::{QueryProfile, Span};
use wdsparql_rdf::{
    ExecError, Mapping, QueryBudget, SolutionStream, TripleIndex, TriplePattern, Variable,
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
    /// whose writes can change this result. A [`crate::TripleStore`]
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

/// Opens the plan a *resolved* `strategy` calls for — the variable
/// plan for [`JoinStrategy::Wco`], the pattern plan in `plan`'s order
/// otherwise — and the one place a BGP stream is constructed. Never
/// re-plans.
fn open<'a>(
    ix: &'a dyn TripleIndex,
    patterns: &[TriplePattern],
    (plan, strategy): (PairwisePlan, JoinStrategy),
    budget: &'a QueryBudget,
    profiled: bool,
) -> JoinStream<'a> {
    match strategy {
        JoinStrategy::Wco => JoinStream::wco(ix, patterns, budget, profiled),
        _ => JoinStream::pairwise(ix, patterns, plan, budget, profiled),
    }
}

/// The profile span of one plan level: `level ?v` with the leapfrog's
/// counters for a variable level; `scan` (the seed) or `join` with the
/// pattern, its probe count, its rows and the seed's prune for a
/// pattern level.
fn level_span(at: usize, &(binds, s): &(Binds, LevelStats), patterns: &[TriplePattern]) -> Span {
    match binds {
        Binds::Var(v) => Span::new(format!("level {v}"))
            .field("rows", s.rows)
            .field("seeks", s.seeks)
            .field("gallop_steps", s.gallop_steps),
        Binds::Pattern(i) => {
            let span = Span::new(if at == 0 { "scan" } else { "join" })
                .field("pattern", patterns[i])
                .field("scans", s.scans)
                .field("rows", s.rows);
            match s.prune {
                Some(prune) => span.field("prune", prune),
                None => span,
            }
        }
    }
}

/// Opens the planned stream and runs it to a `Vec` — the first `limit`
/// rows, or all of them. With `profiled`, also returns the `execute`
/// span (wall time plus one child per plan level).
pub(crate) fn run(
    ix: &dyn TripleIndex,
    patterns: &[TriplePattern],
    planned: (PairwisePlan, JoinStrategy),
    budget: &QueryBudget,
    limit: Option<usize>,
    profiled: bool,
) -> Result<(Vec<Mapping>, Option<Span>), ExecError> {
    let start = profiled.then(Instant::now);
    let mut stream = open(ix, patterns, planned, budget, profiled);
    let rows = stream.collect_limit(limit)?;
    let span = start.map(|t| {
        let mut span = Span::new("execute").timed(t.elapsed());
        for (at, level) in stream.level_stats().iter().enumerate() {
            span.push(level_span(at, level, patterns));
        }
        span
    });
    Ok((rows, span))
}

/// Evaluates a BGP with the given strategy knob, unbudgeted and
/// unaccounted: resolves `Auto` on this snapshot, then runs the pattern
/// plan or the variable plan to completion — the materialising
/// collector behind the `eval_bgp_*` free functions. Both plans produce
/// the same solution *set* (the order may differ).
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
/// snapshot, then returns the [`JoinStream`] of the plan it resolved to
/// for the caller to pull.
pub fn open_bgp_stream<'a>(
    ix: &'a dyn TripleIndex,
    patterns: &'a [TriplePattern],
    strategy: JoinStrategy,
    budget: &'a QueryBudget,
) -> Box<dyn SolutionStream + 'a> {
    let planned = plan_and_resolve(ix, patterns, strategy, false);
    Box::new(open(ix, patterns, planned, budget, false))
}

/// What a facade hands [`serve`]: one pinned snapshot and everything
/// that depends on which service pinned it.
pub(crate) struct Pinned<'a> {
    /// The snapshot the request evaluates on.
    pub ix: &'a dyn TripleIndex,
    /// The `(shard, epoch)` pairs `ix` read, sorted by shard.
    pub read: &'a [(usize, u64)],
    /// The owner's count of complete evaluations, when it keeps one:
    /// bumped once by every request that passes its entry checkpoint
    /// and wants every row.
    pub evaluations: Option<&'a AtomicU64>,
    /// The owner's configured [`JoinStrategy`].
    pub configured: JoinStrategy,
    /// Adds the owner's rendering of `read` to a profile's root span.
    pub provenance: &'a dyn Fn(Span) -> Span,
}

/// What the caller of [`serve`] wants back.
#[derive(Clone, Copy, PartialEq, Eq)]
pub(crate) enum Want {
    /// Every row. Reports no plan: the caller wants rows.
    Rows,
    /// The first `k` rows, streamed: a partial result, so not counted
    /// as an evaluation. Reports no plan.
    Prefix(usize),
    /// As `Rows`, plus the plan and the resolved strategy.
    Plan,
    /// As `Plan`, plus the execution profile.
    Profile,
}

/// What one request learned on the way to its rows — kept outside the
/// fallible part, so a failed request is still accounted.
#[derive(Default)]
struct Trace {
    /// The strategy the request resolved, once it planned (a request
    /// refused at its entry checkpoint never does).
    strategy: Option<JoinStrategy>,
    /// The pairwise order, when it is part of the answer.
    order: Vec<usize>,
    /// Wall time of the planning of [`Want::Plan`] and [`Want::Profile`].
    plan_elapsed: Option<Duration>,
    /// The `execute` span, under profiling.
    execute: Option<Span>,
}

/// Serves one BGP request on a pinned snapshot — the single
/// implementation behind every query entry point of both services.
///
/// Budget failures are typed and stay with their caller: the entry
/// checkpoint runs before anything is planned, and the stream
/// checkpoints the budget as it pulls. Under [`QueryBudget::unlimited`]
/// the result is always `Ok`.
///
/// Every request is accounted in the metrics registry exactly once,
/// here: two clock reads, plus two around planning when the plan is
/// part of the answer.
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
        let order: Vec<String> = trace.order.iter().map(usize::to_string).collect();
        let mut root = (pin.provenance)(root)
            .field("patterns", patterns.len())
            .field("rows", solutions.len())
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
        plan: trace.order,
        solutions: Arc::new(solutions),
        read: pin.read.to_vec(),
        strategy,
        profile,
    })
}

/// The fallible part of [`serve`]: entry checkpoint, then plan once,
/// then run — to completion, or to its `limit` for a prefix.
fn answer(
    pin: &Pinned<'_>,
    patterns: &[TriplePattern],
    budget: &QueryBudget,
    want: Want,
    trace: &mut Trace,
) -> Result<Vec<Mapping>, ExecError> {
    budget.check()?;
    let limit = match want {
        Want::Prefix(k) => Some(k),
        _ => {
            if let Some(evaluations) = pin.evaluations {
                // relaxed-ok: a monotonic statistic; no other memory
                // is published through it.
                evaluations.fetch_add(1, Ordering::Relaxed);
            }
            None
        }
    };
    let report_plan = matches!(want, Want::Plan | Want::Profile);
    let plan_start = report_plan.then(Instant::now);
    let (plan, strategy) = plan_and_resolve(pin.ix, patterns, pin.configured, report_plan);
    trace.plan_elapsed = plan_start.map(|t| t.elapsed());
    trace.strategy = Some(strategy);
    if report_plan {
        trace.order = plan.order.clone();
    }
    let profiled = want == Want::Profile;
    let (rows, span) = run(pin.ix, patterns, (plan, strategy), budget, limit, profiled)?;
    trace.execute = span;
    Ok(rows)
}
