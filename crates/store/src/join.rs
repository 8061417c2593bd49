//! The pairwise join pipeline as a pull-based stream: the
//! most-selective-first plan of [`crate::bgp::plan_order`] executed
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
    binding_of, ExecError, Mapping, QueryBudget, SolutionStream, Triple, TripleIndex, TriplePattern,
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

/// One suspended bind-join level of a depth-first pairwise walk: the
/// parent row, the pattern bound under it, and the cursor into its
/// matches.
struct LevelState {
    parent: Mapping,
    bound: TriplePattern,
    matches: Vec<Triple>,
    pos: usize,
}

/// The pairwise pipeline (seed scan + semi-join prune + bind joins) as
/// a resumable depth-first cursor over the plan's join tree. Each
/// [`SolutionStream::next`] pull advances to the next full row and
/// suspends; the seed scan itself is deferred to the first pull, so a
/// zero deadline fails before any index work happens.
pub struct PairwiseStream<'a> {
    ix: &'a dyn TripleIndex,
    patterns: &'a [TriplePattern],
    order: Vec<usize>,
    /// The pruned seed rows; `None` until the first pull computes them.
    seed: Option<Vec<Mapping>>,
    seed_pos: usize,
    /// `levels[s - 1]` is the suspended state of plan step `s`.
    levels: Vec<LevelState>,
    /// The plan step the walk is currently at (0 = pulling seed rows).
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
    /// [`crate::bgp::plan_order`]). With `profiled`, per-step
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
        PairwiseStream {
            ix,
            patterns,
            order,
            seed: None,
            seed_pos: 0,
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

    /// Computes the seed rows: the most selective pattern's solutions,
    /// semi-join pruned against the second pattern's candidate values
    /// on their first shared variable (the first pattern's side is
    /// already in hand, so only the second's sorted values are
    /// scanned).
    fn compute_seed(&mut self) {
        let first = &self.patterns[self.order[0]];
        let mut sols = self.ix.solutions(first);
        if let Some(&second) = self.order.get(1) {
            let shared = first
                .vars()
                .intersection(&self.patterns[second].vars())
                .copied()
                .next();
            if let Some(v) = shared {
                if let Some(vals) = self.ix.candidate_values(&self.patterns[second], v) {
                    sols.retain(|mu| {
                        mu.get(v)
                            .is_some_and(|val| vals.binary_search(&val).is_ok())
                    });
                }
            }
        }
        if let Some(s) = self.stats.as_deref_mut() {
            s[0].scans = 1;
            s[0].rows = sols.len() as u64;
        }
        self.seed = Some(sols);
    }

    /// Suspends plan step `s` under parent row `mu`: binds the step's
    /// pattern and scans its matches (one index probe).
    fn open(&mut self, s: usize, mu: Mapping) {
        let bound = self.patterns[self.order[s]].apply_partial(&mu);
        let matches = self.ix.match_pattern(&bound);
        if let Some(stats) = self.stats.as_deref_mut() {
            stats[s].scans += 1;
        }
        let state = LevelState {
            parent: mu,
            bound,
            matches,
            pos: 0,
        };
        if let Some(slot) = self.levels.get_mut(s - 1) {
            *slot = state;
        } else {
            debug_assert_eq!(self.levels.len(), s - 1);
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
            if self.seed.is_none() {
                self.compute_seed();
            }
            if self.step == 0 {
                // analyzer-allow: no-unwrap-in-service compute_seed just
                // above fills the slot on the first pull.
                let seed = self.seed.as_ref().expect("seed computed above");
                if self.seed_pos >= seed.len() {
                    self.done = true;
                    return Ok(None);
                }
                let mu = seed[self.seed_pos].clone();
                self.seed_pos += 1;
                if self.order.len() == 1 {
                    return Ok(Some(mu));
                }
                self.open(1, mu);
            } else {
                let ls = &mut self.levels[self.step - 1];
                if ls.pos < ls.matches.len() {
                    let t = ls.matches[ls.pos];
                    ls.pos += 1;
                    // analyzer-allow: no-unwrap-in-service match_pattern
                    // yields exactly the triples the bound pattern
                    // matches, so a binding always exists; a None here is
                    // index corruption.
                    let nu = binding_of(&ls.bound, &t)
                        .expect("match_pattern returns only matching triples");
                    // analyzer-allow: no-unwrap-in-service nu binds only
                    // the pattern's free variables, which are disjoint
                    // from the parent's by construction of apply_partial.
                    let merged = ls
                        .parent
                        .union(&nu)
                        .expect("bound pattern cannot rebind branch variables");
                    if let Some(stats) = self.stats.as_deref_mut() {
                        stats[self.step].rows += 1;
                    }
                    if self.step + 1 == self.order.len() {
                        return Ok(Some(merged));
                    }
                    self.open(self.step + 1, merged);
                } else {
                    // This level's matches are spent: resume the parent
                    // step (back to the seed at step 0).
                    self.step -= 1;
                }
            }
        }
    }
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
