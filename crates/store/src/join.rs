//! The pairwise join pipeline as a pull-based stream: the
//! most-selective-first plan of `bgp::plan_order` executed
//! as a semi-join-pruned seed scan plus index-nested-loop (bind) joins,
//! producing solutions one pull at a time ([`PairwiseStream`]) instead
//! of materialising every intermediate.
//!
//! ## Order equivalence
//!
//! The old breadth-first materialisation expanded every intermediate row
//! before moving to the next plan step; the stream runs the same plan
//! depth-first, one root-to-leaf path at a time. Both orders enumerate
//! the same tuples `(seed index, step-1 match index, step-2 match
//! index, …)` lexicographically — breadth-first keeps parents in order
//! with contiguous children, depth-first walks exactly that tree — so
//! the streamed sequence *equals* the materialised vector, prefix by
//! prefix. The equivalence is what lets `LIMIT k` stop after `k` pulls
//! and still agree with the first `k` rows of a full run (pinned by the
//! `streaming_matches_materialized` proptest).
//!
//! ## Checkpoints
//!
//! The pull loop checks the [`QueryBudget`] once per iteration — one
//! bind-join probe or one emitted row per check — so a deadline or a
//! cancellation interrupts the pipeline within one bound
//! `match_pattern` scan.

use wdsparql_rdf::{
    ExecError, Iri, Mapping, QueryBudget, RowTable, SolutionStream, Term, Triple, TripleIndex,
    TriplePattern, Variable,
};

/// Per-step counters of one pairwise run, reported by a profiled
/// [`PairwiseStream`]: one entry per plan position, in execution order.
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub struct PairwiseStepStats {
    /// Index of the pattern joined at this step (into the caller's
    /// pattern list, i.e. a plan entry).
    pub pattern: usize,
    /// Index probes issued: 1 for the seed enumeration, one bound
    /// `match_pattern` per left-hand row for a bind join.
    pub scans: u64,
    /// Intermediate result cardinality *after* this step (for the seed:
    /// after the semi-join prune).
    pub rows: u64,
}

/// One position of a plan step's pattern, resolved against the stream's
/// schema once per query.
#[derive(Clone, Copy)]
enum Slot {
    Const(Iri),
    /// A variable this step binds: free in the probe, and each match
    /// writes it into this column (a repeated variable twice, with the
    /// one value the match gives both positions).
    Bind(usize, Variable),
    /// A variable an earlier step bound: the probe reads this column.
    Read(usize, Variable),
}

/// One suspended level of a depth-first pairwise walk: the matches of
/// its step's pattern bound under the row above, and the cursor into
/// them.
struct LevelState {
    matches: Vec<Triple>,
    pos: usize,
}

/// The pairwise pipeline (seed scan + semi-join prune + bind joins) as
/// a resumable depth-first cursor over the plan's join tree. Each
/// [`SolutionStream::next`] pull advances to the next full row and
/// suspends; the seed scan itself is deferred to the first pull, so a
/// zero deadline fails before any index work happens.
///
/// The walk fills one row over the BGP's variables in ascending order: a
/// match writes only the cells its step binds, a step's pattern is bound
/// from the cells of the steps before it, and a full row is decoded to
/// a [`Mapping`] by [`RowTable::mapping`].
pub struct PairwiseStream<'a> {
    ix: &'a dyn TripleIndex,
    patterns: &'a [TriplePattern],
    order: Vec<usize>,
    /// `steps[s]` is plan step `s`'s pattern, resolved.
    steps: Vec<[Slot; 3]>,
    /// The one row the walk fills.
    row: RowTable,
    /// `levels[s]` is the suspended state of plan step `s`, the pruned
    /// seed at 0; empty until the first pull scans the seed.
    levels: Vec<LevelState>,
    /// The plan step the walk is currently at.
    step: usize,
    done: bool,
    /// The single empty-mapping solution of an empty BGP.
    pending_empty: bool,
    stats: Option<Vec<PairwiseStepStats>>,
    budget: &'a QueryBudget,
}

impl<'a> PairwiseStream<'a> {
    /// Opens the pipeline over `ix` with the evaluation `order` already
    /// planned (callers that must not re-plan pass the plan in; see
    /// `bgp::plan_order`). With `profiled`, per-step
    /// counters accumulate for [`PairwiseStream::step_stats`].
    pub fn new(
        ix: &'a dyn TripleIndex,
        patterns: &'a [TriplePattern],
        order: Vec<usize>,
        budget: &'a QueryBudget,
        profiled: bool,
    ) -> PairwiseStream<'a> {
        debug_assert_eq!(order.len(), patterns.len());
        let stats = profiled.then(|| {
            order
                .iter()
                .map(|&i| PairwiseStepStats {
                    pattern: i,
                    scans: 0,
                    rows: 0,
                })
                .collect()
        });
        let mut schema: Vec<Variable> = Vec::with_capacity(3 * patterns.len());
        schema.extend(patterns.iter().flat_map(|p| p.var_occurrences()));
        schema.sort_unstable();
        schema.dedup();
        let mut row = RowTable::new(schema);
        // The one row the stream fills, all unbound.
        row.push_spread(&[], &[]);
        let steps = resolve_steps(patterns, &order, row.vars());
        PairwiseStream {
            ix,
            patterns,
            order,
            steps,
            row,
            levels: Vec::new(),
            step: 0,
            done: false,
            pending_empty: patterns.is_empty(),
            stats,
            budget,
        }
    }

    /// Per-step execution counters, one entry per plan position in
    /// execution order (empty unless built `profiled`). Totals match
    /// the materialised pipeline's once the stream is exhausted;
    /// partial on an early stop.
    pub fn step_stats(&self) -> Vec<PairwiseStepStats> {
        self.stats.clone().unwrap_or_default()
    }

    /// Scans the seed: the most selective pattern's matches, semi-join
    /// pruned against the second pattern's candidate values on their
    /// first shared variable (the first pattern's side is already in
    /// hand, so only the second's sorted values are scanned).
    fn seed(&mut self) -> Vec<Triple> {
        let first = &self.patterns[self.order[0]];
        let mut matches = self.ix.match_pattern(first);
        if let Some(&second) = self.order.get(1) {
            let second = &self.patterns[second];
            let shared = (first.positions().into_iter().enumerate())
                .filter_map(|(pos, t)| Some((t.as_var()?, pos)))
                .filter(|&(v, _)| second.var_occurrences().any(|u| u == v))
                .min();
            if let Some((v, pos)) = shared {
                if let Some(vals) = self.ix.candidate_values(second, v) {
                    matches.retain(|t| vals.binary_search(&t.terms()[pos]).is_ok());
                }
            }
        }
        if let Some(s) = self.stats.as_deref_mut() {
            s[0].scans = 1;
            s[0].rows = matches.len() as u64;
        }
        matches
    }

    /// Suspends plan step `s` under the current row: binds the step's
    /// pattern from the row's cells and scans its matches (one index
    /// probe).
    fn open(&mut self, s: usize) {
        let cells = self.row.row(0);
        let [ps, pp, po] = self.steps[s].map(|slot| match slot {
            Slot::Const(i) => Term::Iri(i),
            Slot::Bind(_, v) => Term::Var(v),
            // An earlier step on this path always wrote the cell.
            Slot::Read(col, v) => cells[col].map_or(Term::Var(v), Term::Iri),
        });
        let matches = self.ix.match_pattern(&TriplePattern::new(ps, pp, po));
        if let Some(stats) = self.stats.as_deref_mut() {
            stats[s].scans += 1;
        }
        let state = LevelState { matches, pos: 0 };
        if let Some(slot) = self.levels.get_mut(s) {
            *slot = state;
        } else {
            debug_assert_eq!(self.levels.len(), s);
            self.levels.push(state);
        }
        self.step = s;
    }

    /// Resumes the depth-first walk until the next full row, the end of
    /// the seed, or a failed checkpoint.
    fn pull(&mut self) -> Result<Option<Mapping>, ExecError> {
        if self.pending_empty {
            self.budget.check()?;
            self.pending_empty = false;
            self.done = true;
            return Ok(Some(Mapping::new()));
        }
        loop {
            self.budget.check()?;
            if self.levels.is_empty() {
                let matches = self.seed();
                self.levels.push(LevelState { matches, pos: 0 });
            }
            let level = &mut self.levels[self.step];
            let Some(&t) = level.matches.get(level.pos) else {
                // This level's matches are spent: resume the parent step,
                // or finish once the seed is.
                if self.step == 0 {
                    self.done = true;
                    return Ok(None);
                }
                self.step -= 1;
                continue;
            };
            level.pos += 1;
            let cells = self.row.row_mut(0);
            for (slot, value) in self.steps[self.step].iter().zip(t.terms()) {
                if let Slot::Bind(col, _) = *slot {
                    cells[col] = Some(value);
                }
            }
            if self.step > 0 {
                if let Some(stats) = self.stats.as_deref_mut() {
                    stats[self.step].rows += 1;
                }
            }
            if self.step + 1 == self.steps.len() {
                return Ok(Some(self.row.mapping(0)));
            }
            self.open(self.step + 1);
        }
    }
}

/// Resolves each plan step's pattern against `schema` (ascending): a
/// variable is read from its column if an earlier step binds it, and
/// bound by this step otherwise.
fn resolve_steps(
    patterns: &[TriplePattern],
    order: &[usize],
    schema: &[Variable],
) -> Vec<[Slot; 3]> {
    let mut steps: Vec<[Slot; 3]> = Vec::with_capacity(order.len());
    for &i in order {
        let slots = patterns[i].positions().map(|term| match term {
            Term::Iri(c) => Slot::Const(c),
            Term::Var(v) => {
                let col = schema.partition_point(|&u| u < v);
                let earlier = (steps.iter().flatten())
                    .any(|slot| matches!(*slot, Slot::Bind(c, _) if c == col));
                if earlier {
                    Slot::Read(col, v)
                } else {
                    Slot::Bind(col, v)
                }
            }
        });
        steps.push(slots);
    }
    steps
}

impl SolutionStream for PairwiseStream<'_> {
    // Inlined into the collecting loop of whichever module drains the
    // stream (the shared request path lives in `bgp.rs`).
    #[inline]
    fn next(&mut self) -> Result<Option<Mapping>, ExecError> {
        if self.done {
            return Ok(None);
        }
        match self.pull() {
            Ok(v) => Ok(v),
            Err(e) => {
                // Budget errors are sticky: a failed stream stays
                // failed instead of resuming mid-walk.
                self.done = true;
                Err(e)
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::bgp::{eval_bgp_with_strategy, open_bgp_stream, plan_order};
    use crate::JoinStrategy;
    use std::time::Duration;
    use wdsparql_rdf::term::{iri, var};
    use wdsparql_rdf::{tp, Triple};

    fn graph() -> crate::EncodedGraph {
        crate::EncodedGraph::from_triples(
            [
                ("a", "p", "b"),
                ("b", "p", "c"),
                ("a", "p", "c"),
                ("c", "p", "d"),
                ("b", "p", "d"),
                ("b", "q", "x"),
                ("c", "q", "x"),
            ]
            .map(|(s, p, o)| Triple::from_strs(s, p, o)),
        )
    }

    fn chain() -> [TriplePattern; 2] {
        [
            tp(var("x"), iri("p"), var("y")),
            tp(var("y"), iri("q"), var("z")),
        ]
    }

    #[test]
    fn streamed_rows_equal_the_materialised_vector() {
        let g = graph();
        let pats = chain();
        let order = plan_order(&g, &pats);
        let want = eval_bgp_with_strategy(&g, &pats, JoinStrategy::Pairwise);
        assert!(!want.is_empty());
        let budget = QueryBudget::unlimited();
        let mut stream = PairwiseStream::new(&g, &pats, order.clone(), &budget, false);
        let mut got = Vec::new();
        while let Some(mu) = stream.next().expect("unlimited") {
            got.push(mu);
        }
        assert_eq!(got, want, "stream order must equal materialised order");
        // And every k-prefix of the stream is the k-prefix of the run.
        for k in 0..=want.len() {
            let mut s = PairwiseStream::new(&g, &pats, order.clone(), &budget, false);
            assert_eq!(s.collect_limit(Some(k)).expect("unlimited"), want[..k]);
        }
    }

    #[test]
    fn limit_pushdown_stops_probing_early() {
        let g = graph();
        let pats = chain();
        let order = plan_order(&g, &pats);
        let budget = QueryBudget::unlimited();
        let mut full = PairwiseStream::new(&g, &pats, order.clone(), &budget, true);
        let all = full.collect_limit(None).expect("unlimited");
        let full_scans: u64 = full.step_stats().iter().map(|s| s.scans).sum();
        let mut limited = PairwiseStream::new(&g, &pats, order, &budget, true);
        let one = limited.collect_limit(Some(1)).expect("unlimited");
        assert_eq!(one.as_slice(), &all[..1]);
        let limited_scans: u64 = limited.step_stats().iter().map(|s| s.scans).sum();
        assert!(
            limited_scans < full_scans,
            "LIMIT 1 must probe less: {limited_scans} vs {full_scans}"
        );
    }

    #[test]
    fn zero_deadline_fails_before_any_index_work() {
        let g = graph();
        let pats = chain();
        let order = plan_order(&g, &pats);
        let budget = QueryBudget::with_deadline(Duration::ZERO);
        let mut stream = PairwiseStream::new(&g, &pats, order, &budget, false);
        assert_eq!(stream.next(), Err(ExecError::DeadlineExceeded));
        // Sticky: a failed stream stays failed.
        assert_eq!(stream.next(), Ok(None));
        // The empty BGP also checkpoints before its one row (fresh
        // budget: op 0 is the one call guaranteed to consult the clock).
        let fresh = QueryBudget::with_deadline(Duration::ZERO);
        let mut empty = PairwiseStream::new(&g, &[], Vec::new(), &fresh, false);
        assert_eq!(empty.next(), Err(ExecError::DeadlineExceeded));
    }

    #[test]
    fn open_bgp_stream_routes_by_strategy_and_agrees() {
        let g = graph();
        let triangle = [
            tp(var("x"), iri("p"), var("y")),
            tp(var("y"), iri("p"), var("z")),
            tp(var("x"), iri("p"), var("z")),
        ];
        let budget = QueryBudget::unlimited();
        let sorted = |mut v: Vec<Mapping>| {
            v.sort();
            v
        };
        let want = sorted(eval_bgp_with_strategy(
            &g,
            &triangle,
            JoinStrategy::Pairwise,
        ));
        assert!(!want.is_empty());
        for strategy in [
            JoinStrategy::Pairwise,
            JoinStrategy::Wco,
            JoinStrategy::Auto,
        ] {
            let mut stream = open_bgp_stream(&g, &triangle, strategy, &budget);
            let got = stream.collect_limit(None).expect("unlimited");
            assert_eq!(sorted(got), want, "{strategy} stream diverged");
        }
    }
}
