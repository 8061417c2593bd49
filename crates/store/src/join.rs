//! The node join: a BGP joined one triple pattern at a time, in the
//! greedy order of `bgp::plan_order`, every step's pattern resolved once
//! to `Const`/`Bind`/`Read` slots (which positions are constants, which
//! read a column an earlier step — or the key — bound, which fill one).
//! Two drivers run it over the same steps, one probe builder, one
//! "write a match into a row" helper and one scan-or-probe rule
//! (`scan_pays`), decided on the counts the plan was made from:
//!
//! * [`PairwiseStream`] behind the BGP service: depth-first, one row at
//!   a time, so it streams and stops after `LIMIT k` pulls;
//! * [`join_keyed`] behind the wdPT enumerator
//!   (`wdsparql_core::enumerate`): set at a time, every step extending a
//!   whole table of rows that start as the keys a parent node binds.
//!
//! Both take `JoinStrategy::Auto` through the one rule of
//! [`crate::wcoj`]: the leapfrog triejoin when the BGP is cyclic or a
//! blow-up of the pairwise plan is predicted, the pairwise join
//! otherwise. For a keyed join the variables the key binds count as
//! constants: a triangle with one corner bound is a path.
//!
//! ## The depth-first driver
//!
//! A seed scan plus index-nested-loop (bind) joins, run depth-first, one
//! root-to-leaf path at a time. Before the walk the seed is semi-join
//! pruned against the second pattern's candidate values, but only when
//! the scan-or-probe rule says reading them pays: the second pattern's
//! planned count is at most `SCAN_PER_ROW` per seed row. An anchored
//! seed of a few rows against a whole predicate block skips the prune,
//! and the bind join's probe under each seed row drops the dead ones —
//! a dead row yields no match, so the rows, their order and every
//! `LIMIT` prefix are those of the pruned run. It enumerates the
//! tuples `(seed index, step-1 match index, …)` in lexicographic order,
//! the order a breadth-first run materialises them in, so every
//! k-prefix of the stream is the first k rows of a full run — what lets
//! `LIMIT k` stop after `k` pulls (pinned by the
//! `streaming_matches_materialized` proptest). The pull loop checks the
//! [`QueryBudget`] once per bind-join probe or emitted row.
//!
//! ## The set-at-a-time driver
//!
//! A node's rows start as its keys and are extended by one step at a
//! time: the plan order puts a pattern sharing a variable with what is
//! bound (the key's variables to begin with) before one that does not,
//! fewer candidates (by the pattern's constants) before more. One step
//! extends every row by the matches of the pattern, one of two ways:
//!
//! * **probe** — substitute the row into the pattern and ask the index,
//!   once per row;
//! * **scan** — ask the index once for the pattern with its variables
//!   free and hash-join the matches to the rows on the variables already
//!   bound; the rows of a key are regrouped afterwards.
//!
//! A step scans when the pattern joins on nothing (probing would repeat
//! one scan per row), or when `candidate_count` of the free pattern is at
//! most `SCAN_PER_ROW` times the number of rows: a probe costs about as
//! much as reading that many matches of a scan. Both numbers are in hand
//! (the count ordered the patterns, and the plan carries it), and the
//! count is what bounds the scan — a scan is always of *one* pattern,
//! whose size the index promises, never a join whose size nothing
//! estimates.
//!
//! Where `JoinStrategy` says leapfrog, every key runs one [`WcoStream`]
//! over the patterns with the key substituted.

use crate::bgp::{candidate_counts, plan_order};
use crate::wcoj::{resolve_with_order, JoinStrategy, WcoStream};
use std::fmt;
use wdsparql_rdf::{
    Cell, CellMap, ExecError, Iri, Mapping, QueryBudget, RowTable, SolutionStream, Term, Triple,
    TripleIndex, TriplePattern, Variable,
};

/// A scan of one pattern replaces a probe per row when the pattern has
/// at most this many candidates per row (see the module docs).
const SCAN_PER_ROW: usize = 8;

/// The one scan-or-probe rule of both drivers: reading the `count`
/// candidates of a pattern pays against probing the index once for each
/// of `rows` rows when it reads at most [`SCAN_PER_ROW`] of them per row.
fn scan_pays(count: usize, rows: usize) -> bool {
    count <= SCAN_PER_ROW.saturating_mul(rows)
}

/// A planned pairwise join: the evaluation order and the
/// `candidate_count` of every pattern, as the planner read them, so that
/// execution decides with the plan's counts instead of asking the index
/// again.
#[derive(Clone, Debug, Default, PartialEq, Eq)]
pub struct PairwisePlan {
    /// Pattern indexes (into the caller's pattern list) in evaluation
    /// order.
    pub order: Vec<usize>,
    /// `counts[i]` is the candidate count of pattern `i` (`usize::MAX`
    /// for a lone pattern, which is not counted).
    pub counts: Vec<usize>,
}

/// What the seed step's semi-join prune did.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum SeedPrune {
    /// It read this many candidate values of the second pattern.
    Read(u64),
    /// It did not run: the second pattern's planned count is more than
    /// `SCAN_PER_ROW` (8) per seed row, so the bind join's probes drop the
    /// dead seed rows for less.
    Skipped,
}

impl fmt::Display for SeedPrune {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            SeedPrune::Read(n) => write!(f, "{n}"),
            SeedPrune::Skipped => f.write_str("skipped"),
        }
    }
}

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
    /// after the semi-join prune if it ran, the seed's matches if it was
    /// skipped).
    pub rows: u64,
    /// The seed step's prune decision; `None` on a bind-join step, and on
    /// a seed with no second pattern sharing a variable with it or an
    /// index that keeps no candidate lists.
    pub prune: Option<SeedPrune>,
}

/// One position of a plan step's pattern, resolved against the row
/// schema once per query.
#[derive(Clone, Copy)]
enum Slot {
    Const(Iri),
    /// A variable this step binds: free in the probe, and each match
    /// writes it into this column (a repeated variable twice, with the
    /// one value the match gives both positions).
    Bind(usize, Variable),
    /// A variable the key or an earlier step bound: the probe reads this
    /// column.
    Read(usize, Variable),
}

/// The pattern a step asks the index under `row`: its constants, and the
/// cells it reads (a cell still unbound stays a variable).
fn probe(slots: &[Slot; 3], row: &[Cell]) -> TriplePattern {
    let [s, p, o] = slots.map(|slot| match slot {
        Slot::Const(i) => Term::Iri(i),
        Slot::Bind(_, v) => Term::Var(v),
        Slot::Read(col, v) => row[col].map_or(Term::Var(v), Term::Iri),
    });
    TriplePattern::new(s, p, o)
}

/// Writes a match of a step into `row`: each position the step binds
/// gets `value(position, variable)`.
fn fill(row: &mut [Cell], slots: &[Slot; 3], value: impl Fn(usize, Variable) -> Cell) {
    for (at, slot) in slots.iter().enumerate() {
        if let Slot::Bind(col, v) = *slot {
            row[col] = value(at, v);
        }
    }
}

/// One suspended level of a depth-first pairwise walk: the matches of
/// its step's pattern bound under the row above, and the cursor into
/// them.
struct LevelState {
    matches: Vec<Triple>,
    pos: usize,
}

/// The pairwise pipeline (seed scan, a semi-join prune where the plan's
/// counts say it pays, bind joins) as a resumable depth-first cursor
/// over the plan's join tree. Each [`SolutionStream::next`] pull
/// advances to the next full row and suspends; the seed scan itself is
/// deferred to the first pull, so a zero deadline fails before any index
/// work happens.
///
/// The walk fills one row over the BGP's variables in ascending order: a
/// match writes only the cells its step binds, a step's pattern is bound
/// from the cells of the steps before it, and a full row is decoded to
/// a [`Mapping`] by [`RowTable::mapping`].
pub struct PairwiseStream<'a> {
    ix: &'a dyn TripleIndex,
    patterns: &'a [TriplePattern],
    plan: PairwisePlan,
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
    /// Opens the pipeline over `ix` with the `plan` already made
    /// (callers that must not re-plan pass it in; see `bgp::plan_order`):
    /// execution follows its order and reads its counts, and asks the
    /// index for no count of its own. With `profiled`, per-step counters
    /// accumulate for [`PairwiseStream::step_stats`].
    pub fn new(
        ix: &'a dyn TripleIndex,
        patterns: &'a [TriplePattern],
        plan: PairwisePlan,
        budget: &'a QueryBudget,
        profiled: bool,
    ) -> PairwiseStream<'a> {
        debug_assert_eq!(plan.order.len(), patterns.len());
        debug_assert_eq!(plan.counts.len(), patterns.len());
        let stats = profiled.then(|| {
            (plan.order.iter())
                .map(|&i| PairwiseStepStats {
                    pattern: i,
                    ..PairwiseStepStats::default()
                })
                .collect()
        });
        let (mut row, steps) = resolve_steps(patterns, &plan.order, &[]);
        // The one row the stream fills, all unbound.
        row.push_spread(&[], &[]);
        PairwiseStream {
            ix,
            patterns,
            plan,
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
    /// hand, so only the second's sorted values are scanned) — when
    /// [`scan_pays`] for the second's planned count against the seed's
    /// rows. Otherwise the bind join's probe under each seed row drops
    /// the dead ones for less than reading the list would cost; they
    /// yield nothing, so the rows and their order are the same.
    fn seed(&mut self) -> Vec<Triple> {
        let first = &self.patterns[self.plan.order[0]];
        let mut matches = self.ix.match_pattern(first);
        let mut prune = None;
        if let Some(&second) = self.plan.order.get(1) {
            let pat = &self.patterns[second];
            let shared = (first.positions().into_iter().enumerate())
                .filter_map(|(pos, t)| Some((t.as_var()?, pos)))
                .filter(|&(v, _)| pat.var_occurrences().any(|u| u == v))
                .min();
            if let Some((v, pos)) = shared {
                prune = if scan_pays(self.plan.counts[second], matches.len()) {
                    self.ix.candidate_values(pat, v).map(|vals| {
                        matches.retain(|t| vals.binary_search(&t.terms()[pos]).is_ok());
                        SeedPrune::Read(vals.len() as u64)
                    })
                } else {
                    Some(SeedPrune::Skipped)
                };
            }
        }
        if let Some(s) = self.stats.as_deref_mut() {
            s[0].scans = 1;
            s[0].rows = matches.len() as u64;
            s[0].prune = prune;
        }
        matches
    }

    /// Suspends plan step `s` under the current row: binds the step's
    /// pattern from the row's cells and scans its matches (one index
    /// probe).
    fn open(&mut self, s: usize) {
        // An earlier step on this path always wrote the cells it reads.
        let matches = self
            .ix
            .match_pattern(&probe(&self.steps[s], self.row.row(0)));
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
            let values = t.terms();
            fill(self.row.row_mut(0), &self.steps[self.step], |at, _| {
                Some(values[at])
            });
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

/// The row schema of a join — the variables of `bound` (the key's) and
/// of the patterns, ascending — as an empty table, and each plan step's
/// pattern resolved against it: a variable is read from its column if
/// the key or an earlier step binds it, and bound by this step otherwise.
fn resolve_steps(
    patterns: &[TriplePattern],
    order: &[usize],
    bound: &[Variable],
) -> (RowTable, Vec<[Slot; 3]>) {
    let mut schema: Vec<Variable> = bound.to_vec();
    schema.extend(patterns.iter().flat_map(|p| p.var_occurrences()));
    schema.sort_unstable();
    schema.dedup();
    let mut steps: Vec<[Slot; 3]> = Vec::with_capacity(order.len());
    for &i in order {
        let slots = patterns[i].positions().map(|term| match term {
            Term::Iri(c) => Slot::Const(c),
            Term::Var(v) => {
                let col = schema.partition_point(|&u| u < v);
                let earlier = bound.contains(&v)
                    || (steps.iter().flatten())
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
    (RowTable::new(schema), steps)
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

/// Rows of a keyed join, each tagged with the index of the key it
/// extends.
type Tagged = (RowTable, Vec<u32>);

/// The set-at-a-time node join (see the module docs): every solution of
/// the BGP `patterns` that extends a row of `keys`, as a row over the
/// keys' variables and the patterns', tagged with the index of its key.
/// Every key binds each of its columns; [`RowTable::unit`] asks for the
/// BGP's plain solutions. `strategy` is resolved once for all keys, and
/// `budget` is checked per produced row and per probe.
pub fn join_keyed(
    ix: &dyn TripleIndex,
    patterns: &[TriplePattern],
    keys: &RowTable,
    strategy: JoinStrategy,
    budget: &QueryBudget,
) -> Result<Tagged, ExecError> {
    let counts = candidate_counts(ix, patterns, keys.len());
    let plan = plan_order(patterns, &counts, keys.vars());
    let (mut rows, steps) = resolve_steps(patterns, &plan.order, keys.vars());
    let spread: Vec<usize> = keys.columns_in(rows.vars()).into_iter().flatten().collect();
    for key in keys.rows() {
        rows.push_spread(key, &spread);
    }
    let mut tagged = (rows, (0..keys.len() as u32).collect());
    let strategy = resolve_with_order(ix, patterns, strategy, &plan, keys.vars());
    if strategy == JoinStrategy::Wco {
        return leapfrog(ix, &steps, tagged, budget);
    }
    for (slots, &i) in steps.iter().zip(&plan.order) {
        if tagged.0.is_empty() {
            break;
        }
        tagged = extend(ix, tagged, &patterns[i], slots, plan.counts[i], budget)?;
    }
    Ok(tagged)
}

/// One step of the set-at-a-time driver: every row extended by the
/// matches of `pat` (resolved to `slots`) that agree with it, by probing
/// per row or by one scan and a hash join (see the module docs).
fn extend(
    ix: &dyn TripleIndex,
    (rows, tags): Tagged,
    pat: &TriplePattern,
    slots: &[Slot; 3],
    count: usize,
    budget: &QueryBudget,
) -> Result<Tagged, ExecError> {
    let joined = slots.map(|slot| match slot {
        Slot::Read(col, _) => Some(col),
        _ => None,
    });
    let mut out = RowTable::new(rows.vars().to_vec());
    let mut out_tags = Vec::new();
    let joins = joined.iter().any(Option::is_some);
    if !joins || scan_pays(count, rows.len()) {
        // Rows chained by join key (the newest first).
        let key_of = |row: &[Cell]| joined.map(|c| c.and_then(|c| row[c]));
        let mut newest: CellMap<[Cell; 3], u32> = CellMap::default();
        newest.reserve(rows.len());
        let mut older = vec![u32::MAX; rows.len()];
        for (r, row) in rows.rows().enumerate() {
            if let Some(prev) = newest.insert(key_of(row), r as u32) {
                older[r] = prev;
            }
        }
        for m in ix.match_pattern(pat) {
            let values = m.terms();
            let key: [Cell; 3] = std::array::from_fn(|at| joined[at].map(|_| values[at]));
            let mut next = newest.get(&key).copied().unwrap_or(u32::MAX);
            while next != u32::MAX {
                budget.check()?;
                let r = next as usize;
                fill(out.push(rows.row(r)), slots, |at, _| Some(values[at]));
                out_tags.push(tags[r]);
                next = older[r];
            }
        }
    } else {
        for (row, &tag) in rows.rows().zip(&tags) {
            let asked = probe(slots, row);
            if let Some(ground) = asked.as_triple() {
                budget.check()?;
                if ix.contains(&ground) {
                    out.push(row);
                    out_tags.push(tag);
                }
                continue;
            }
            for m in ix.match_pattern(&asked) {
                budget.check()?;
                let values = m.terms();
                fill(out.push(row), slots, |at, _| Some(values[at]));
                out_tags.push(tag);
            }
        }
    }
    Ok((out, out_tags))
}

/// The keyed join through the leapfrog triejoin: one [`WcoStream`] per
/// key, over the steps' probes under that key.
fn leapfrog(
    ix: &dyn TripleIndex,
    steps: &[[Slot; 3]],
    (rows, tags): Tagged,
    budget: &QueryBudget,
) -> Result<Tagged, ExecError> {
    let mut out = RowTable::new(rows.vars().to_vec());
    let mut out_tags = Vec::new();
    let mut core = Vec::with_capacity(steps.len());
    for (key, &tag) in rows.rows().zip(&tags) {
        core.clear();
        core.extend(steps.iter().map(|slots| probe(slots, key)));
        let mut stream = WcoStream::new(ix, &core, budget, false);
        // analyzer-allow: budget-checkpoint every pull of the leapfrog
        // checks the budget inside its seek loops.
        while let Some(mu) = stream.next()? {
            let new = out.push(key);
            for slots in steps {
                fill(new, slots, |_, v| mu.get(v));
            }
            out_tags.push(tag);
        }
    }
    Ok((out, out_tags))
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::bgp::{candidate_counts, eval_bgp_with_strategy, open_bgp_stream, plan_order};
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
        let order = plan_order(&pats, &candidate_counts(&g, &pats, 1), &[]);
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
        let order = plan_order(&pats, &candidate_counts(&g, &pats, 1), &[]);
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
        let order = plan_order(&pats, &candidate_counts(&g, &pats, 1), &[]);
        let budget = QueryBudget::with_deadline(Duration::ZERO);
        let mut stream = PairwiseStream::new(&g, &pats, order, &budget, false);
        assert_eq!(stream.next(), Err(ExecError::DeadlineExceeded));
        // Sticky: a failed stream stays failed.
        assert_eq!(stream.next(), Ok(None));
        // The empty BGP also checkpoints before its one row (fresh
        // budget: op 0 is the one call guaranteed to consult the clock).
        let fresh = QueryBudget::with_deadline(Duration::ZERO);
        let mut empty = PairwiseStream::new(&g, &[], PairwisePlan::default(), &fresh, false);
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
