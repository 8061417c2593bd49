//! The BGP join: one resumable, depth-first executor, [`JoinStream`],
//! behind the BGP service, and the set-at-a-time keyed join,
//! [`join_keyed`], behind the wdPT enumerator
//! (`wdsparql_core::enumerate`).
//!
//! ## One executor, two plan shapes
//!
//! A [`JoinStream`] runs a plan of levels over one row that holds the
//! BGP's variables in ascending order. Each level binds some cells of
//! the row, one value at a time, under the cells the levels above it
//! bound. The walk is depth first: when the last level binds, the row is
//! a solution; when a level is spent, the walk resumes the level above.
//! A level is one of two kinds:
//!
//! * a **pattern level** binds the new variables of one triple pattern
//!   from its matches under the row so far: one index probe each time
//!   the level opens, its pattern resolved once to `Const`/`Bind`/`Read`
//!   slots (which positions are constants, which read a cell a level
//!   above wrote, which write one);
//! * a **variable level** binds one variable to each key on which the
//!   seekable tries ([`TripleIndex::trie_cursor`]) that hold it agree,
//!   found by the leapfrog search (`wcoj::leapfrog_align`).
//!
//! Every plan is of one kind, chosen by the resolved `JoinStrategy`:
//!
//! * [`JoinStream::pairwise`] (`Pairwise`): one pattern level per
//!   pattern, in the greedy order of `bgp::plan_order` — a seed scan and
//!   index-nested-loop (bind) joins. The seed is semi-join pruned against
//!   the second pattern's candidate values, but only when the
//!   scan-or-probe rule (`scan_pays`) says reading them pays: the
//!   second pattern's planned count is at most `SCAN_PER_ROW` per seed
//!   row. An anchored seed of a few rows against a whole predicate block
//!   skips the prune, and the bind join's probe under each seed row drops
//!   the dead ones; a dead row yields no match, so the rows and their
//!   order are those of the pruned run.
//! * [`JoinStream::wco`] (`Wco`): one variable level per variable, in
//!   [`crate::wcoj::wco_variable_order`] — Veldhuizen's leapfrog
//!   triejoin. Its ground patterns join nothing: they are containment
//!   gates, one `contains` probe each, when the stream opens.
//!
//! The walk yields the rows in lexicographic order of the values each
//! level bound, so every k-prefix of the stream is the first k rows of
//! a full run — what lets `LIMIT k` stop after `k` pulls (pinned by the
//! `streaming_matches_materialized` proptest). The pull loop checks the
//! [`QueryBudget`] once per level step, and the leapfrog search once per
//! cursor it visits.
//!
//! ## The set-at-a-time keyed join
//!
//! A node's rows start as its keys and are extended by one pattern at a
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
//! one scan per row), or when `scan_pays` for the free pattern's
//! `candidate_count` against the number of rows. Both numbers are in
//! hand (the count ordered the patterns, and the plan carries it), and
//! the count is what bounds the scan — a scan is always of *one*
//! pattern, whose size the index promises, never a join whose size
//! nothing estimates.
//!
//! Both take `JoinStrategy::Auto` through the one rule of
//! [`crate::wcoj`]: the leapfrog triejoin when the BGP is cyclic or a
//! blow-up of the pairwise plan is predicted, the pairwise join
//! otherwise. For a keyed join the variables the key binds count as
//! constants: a triangle with one corner bound is a path. Where the
//! rule says leapfrog, every key runs one variable plan over the
//! patterns with the key substituted.

use crate::bgp::{candidate_counts, plan_order};
use crate::wcoj::{leapfrog_align, resolve_with_order, wco_variable_order, JoinStrategy};
use std::fmt;
use wdsparql_rdf::{
    Cell, CellMap, ExecError, Iri, Mapping, QueryBudget, RowTable, SolutionStream, Term,
    TrieCursor, Triple, TripleIndex, TriplePattern, Variable,
};

/// A scan of one pattern replaces a probe per row when the pattern has
/// at most this many candidates per row (see the module docs).
const SCAN_PER_ROW: usize = 8;

/// The one scan-or-probe rule of both joins: reading the `count`
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

/// What the seed level's semi-join prune did.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub(crate) enum SeedPrune {
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

/// What one level of a [`JoinStream`] binds.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub(crate) enum Binds {
    /// The new variables of this pattern (an index into the caller's
    /// pattern list): a pattern level.
    Pattern(usize),
    /// This variable: a variable level.
    Var(Variable),
}

/// The counters of one level of a profiled [`JoinStream`], reported by
/// [`JoinStream::level_stats`]. Totals are the full run's once the
/// stream is exhausted, partial on an early stop.
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub(crate) struct LevelStats {
    /// Values bound at this level: the matches a pattern level bound (for
    /// the seed, those left after the prune if it ran), the keys a
    /// variable level aligned on.
    pub(crate) rows: u64,
    /// Index probes of a pattern level: one per opening.
    pub(crate) scans: u64,
    /// `seek` calls the leapfrog search of a variable level issued to
    /// drag lagging cursors to the running maximum.
    pub(crate) seeks: u64,
    /// Galloping work those seeks reported through
    /// [`TrieCursor::op_stats`] (best-effort: backends that do not count
    /// contribute zero).
    pub(crate) gallop_steps: u64,
    /// The seed level's prune decision; `None` on every other level, and
    /// on a seed with no second pattern sharing a variable with it or an
    /// index that keeps no candidate lists.
    pub(crate) prune: Option<SeedPrune>,
}

/// One position of a pattern level's pattern, resolved against the row
/// schema once per query.
#[derive(Clone, Copy)]
enum Slot {
    Const(Iri),
    /// A variable this level binds: free in the probe, and each match
    /// writes it into this column (a repeated variable twice, with the
    /// one value the match gives both positions).
    Bind(usize, Variable),
    /// A variable the key or a level above bound: the probe reads this
    /// column.
    Read(usize, Variable),
}

/// The pattern a level asks the index under `row`: its constants, and
/// the cells it reads (a cell still unbound stays a variable).
fn probe(slots: &[Slot; 3], row: &[Cell]) -> TriplePattern {
    let [s, p, o] = slots.map(|slot| match slot {
        Slot::Const(i) => Term::Iri(i),
        Slot::Bind(_, v) => Term::Var(v),
        Slot::Read(col, v) => row[col].map_or(Term::Var(v), Term::Iri),
    });
    TriplePattern::new(s, p, o)
}

/// Writes a match of a pattern into `row`: each position the pattern
/// binds gets `value(position, variable)`.
fn fill(row: &mut [Cell], slots: &[Slot; 3], value: impl Fn(usize, Variable) -> Cell) {
    for (at, slot) in slots.iter().enumerate() {
        if let Slot::Bind(col, v) = *slot {
            row[col] = value(at, v);
        }
    }
}

/// The seed's semi-join: the plan's second pattern, and the variable it
/// shares with the seed at the seed's position `pos`.
struct SemiJoin {
    with: TriplePattern,
    var: Variable,
    pos: usize,
    /// The second pattern's planned candidate count.
    count: usize,
}

/// One level of a [`JoinStream`]'s plan, and where the walk is
/// suspended in it.
enum Level {
    Pattern {
        slots: [Slot; 3],
        /// The seed's semi-join, on level 0 where one applies.
        prune: Option<SemiJoin>,
        /// The pattern's matches under the row above still to bind.
        matches: std::vec::IntoIter<Triple>,
    },
    Var {
        /// The cursors (into [`JoinStream::cursors`]) whose tries hold
        /// the variable.
        active: Vec<usize>,
        /// The variable's column in the row.
        col: usize,
    },
}

/// The BGP join as a resumable, depth-first cursor over a plan of
/// levels (see the module docs): each [`SolutionStream::next`] pull
/// advances to the next full row and suspends. No level opens before
/// the first pull, so a zero deadline fails before any join work
/// happens. Budget errors are sticky: a failed stream stays failed
/// instead of resuming mid-walk.
pub struct JoinStream<'a> {
    ix: &'a dyn TripleIndex,
    budget: &'a QueryBudget,
    levels: Vec<Level>,
    /// One trie per non-ground pattern of a variable plan.
    cursors: Vec<Box<dyn TrieCursor + 'a>>,
    /// The one row the walk fills.
    row: RowTable,
    /// The level the walk is at.
    at: usize,
    /// Level `at` is still to open: the walk has just descended to it.
    opening: bool,
    done: bool,
    stats: Option<Vec<(Binds, LevelStats)>>,
}

impl<'a> JoinStream<'a> {
    /// The pairwise plan over `ix`: one pattern level per pattern, in the
    /// order of the `plan` already made (callers that must not re-plan
    /// pass it in; see `bgp::plan_order`). Execution reads the plan's
    /// counts and asks the index for no count of its own. With
    /// `profiled`, per-level counters accumulate for
    /// the profile (`level_stats`).
    pub fn pairwise(
        ix: &'a dyn TripleIndex,
        patterns: &[TriplePattern],
        plan: PairwisePlan,
        budget: &'a QueryBudget,
        profiled: bool,
    ) -> JoinStream<'a> {
        debug_assert_eq!(plan.order.len(), patterns.len());
        debug_assert_eq!(plan.counts.len(), patterns.len());
        let (row, steps) = resolve_steps(patterns, &plan.order, &[]);
        // The seed is pruned on its first variable shared with the
        // second pattern.
        let mut prune = None;
        if let &[first, second, ..] = &plan.order[..] {
            let (with, count) = (patterns[second], plan.counts[second]);
            prune = (patterns[first].positions().into_iter().enumerate())
                .filter_map(|(pos, t)| Some((t.as_var()?, pos)))
                .filter(|&(v, _)| with.var_occurrences().any(|u| u == v))
                .min()
                .map(|(var, pos)| SemiJoin {
                    with,
                    var,
                    pos,
                    count,
                });
        }
        // Only the first level, the seed, takes the semi-join.
        let levels = (steps.into_iter())
            .map(|slots| Level::Pattern {
                slots,
                prune: prune.take(),
                matches: Vec::new().into_iter(),
            })
            .collect();
        let binds = plan.order.iter().map(|&i| Binds::Pattern(i));
        let stats = profiled.then(|| binds.map(|b| (b, LevelStats::default())).collect());
        JoinStream::over(ix, budget, row, levels, Vec::new(), stats)
    }

    /// The leapfrog plan over `ix`: one variable level per variable of
    /// `patterns`, in [`wco_variable_order`], each pattern opening one
    /// trie with a level per variable in that order. A ground pattern is
    /// a containment gate, probed here; when one fails the stream yields
    /// nothing. With `profiled`, per-level counters accumulate for
    /// the profile (`level_stats`).
    pub fn wco(
        ix: &'a dyn TripleIndex,
        patterns: &[TriplePattern],
        budget: &'a QueryBudget,
        profiled: bool,
    ) -> JoinStream<'a> {
        let gates_pass =
            (patterns.iter()).all(|pat| pat.as_triple().is_none_or(|t| ix.contains(&t)));
        if !gates_pass || patterns.iter().all(|pat| pat.as_triple().is_some()) {
            let empty = RowTable::new(Vec::new());
            let mut stream = JoinStream::over(ix, budget, empty, Vec::new(), Vec::new(), None);
            stream.done = !gates_pass;
            return stream;
        }
        let order = wco_variable_order(ix, patterns);
        let mut schema = order.clone();
        schema.sort();
        let mut by_var: Vec<Vec<usize>> = vec![Vec::new(); order.len()];
        let mut cursors: Vec<Box<dyn TrieCursor + 'a>> = Vec::with_capacity(patterns.len());
        for pat in patterns.iter().filter(|pat| pat.as_triple().is_none()) {
            // The pattern's trie has one level per variable it holds, in
            // the global order.
            let held = pat.vars();
            let mut vs = Vec::with_capacity(held.len());
            for (l, &v) in order.iter().enumerate() {
                if held.contains(&v) {
                    by_var[l].push(cursors.len());
                    vs.push(v);
                }
            }
            cursors.push(ix.trie_cursor(pat, &vs));
        }
        let levels = (order.iter().zip(by_var))
            .map(|(&v, active)| Level::Var {
                active,
                col: schema.partition_point(|&u| u < v),
            })
            .collect();
        let binds = order.iter().map(|&v| Binds::Var(v));
        let stats = profiled.then(|| binds.map(|b| (b, LevelStats::default())).collect());
        JoinStream::over(ix, budget, RowTable::new(schema), levels, cursors, stats)
    }

    /// The stream of a plan, not yet started; no levels is the empty
    /// plan, whose one solution is the empty row.
    fn over(
        ix: &'a dyn TripleIndex,
        budget: &'a QueryBudget,
        mut row: RowTable,
        levels: Vec<Level>,
        cursors: Vec<Box<dyn TrieCursor + 'a>>,
        stats: Option<Vec<(Binds, LevelStats)>>,
    ) -> JoinStream<'a> {
        // The one row the stream fills, all unbound.
        row.push_spread(&[], &[]);
        JoinStream {
            ix,
            budget,
            levels,
            cursors,
            row,
            at: 0,
            opening: true,
            done: false,
            stats,
        }
    }

    /// Per-level execution counters, one entry per level in plan order
    /// (empty unless built `profiled`, and for a plan of no levels).
    pub(crate) fn level_stats(&self) -> Vec<(Binds, LevelStats)> {
        self.stats.clone().unwrap_or_default()
    }

    /// Opens level `l` under the row the levels above it bound: a
    /// pattern level scans its matches (one index probe; the seed also
    /// runs its semi-join where [`scan_pays`]), a variable level opens
    /// its cursors one level down.
    fn open(&mut self, l: usize) {
        let stats = self.stats.as_deref_mut().map(|s| &mut s[l].1);
        match &mut self.levels[l] {
            Level::Pattern {
                slots,
                prune,
                matches,
            } => {
                // A level above on this path always wrote the cells it
                // reads.
                let mut list = self.ix.match_pattern(&probe(slots, self.row.row(0)));
                // Reading the second pattern's sorted values pays only
                // against enough seed rows; otherwise the bind join's
                // probe under each seed row drops the dead ones for less.
                let pruned = prune.as_ref().and_then(|sj| {
                    if !scan_pays(sj.count, list.len()) {
                        return Some(SeedPrune::Skipped);
                    }
                    let vals = self.ix.candidate_values(&sj.with, sj.var)?;
                    list.retain(|t| vals.binary_search(&t.terms()[sj.pos]).is_ok());
                    Some(SeedPrune::Read(vals.len() as u64))
                });
                *matches = list.into_iter();
                if let Some(s) = stats {
                    s.scans += 1;
                    s.prune = pruned;
                }
            }
            Level::Var { active, .. } => active.iter().for_each(|&c| self.cursors[c].open()),
        }
    }

    /// Binds level `l`'s next value into the row — its first one if the
    /// level has just opened (`fresh`); `false` once the level is spent
    /// (a variable level then restores its cursors to their parent
    /// state).
    fn bind(&mut self, l: usize, fresh: bool) -> Result<bool, ExecError> {
        let mut stats = self.stats.as_deref_mut().map(|s| &mut s[l].1);
        match &mut self.levels[l] {
            Level::Pattern { slots, matches, .. } => match matches.next() {
                Some(t) => fill(self.row.row_mut(0), slots, |at, _| Some(t.terms()[at])),
                None => return Ok(false),
            },
            Level::Var { active, col } => {
                if !fresh {
                    // Move past the key just consumed; the alignment
                    // drags the other cursors along.
                    self.cursors[active[0]].advance();
                }
                // Gallop work is attributed to the level whose alignment
                // drove it: the delta of the cursors' cumulative counters
                // around the search.
                let gallops = |cursors: &[Box<dyn TrieCursor + 'a>]| -> u64 {
                    (active.iter())
                        .map(|&c| cursors[c].op_stats().gallop_steps)
                        .sum()
                };
                let before = stats.is_some().then(|| gallops(&self.cursors));
                let (key, seeks) = leapfrog_align(&mut self.cursors, active, self.budget)?;
                if let (Some(s), Some(before)) = (stats.as_deref_mut(), before) {
                    s.seeks += seeks;
                    s.gallop_steps += gallops(&self.cursors).saturating_sub(before);
                }
                let Some(key) = key else {
                    active.iter().for_each(|&c| self.cursors[c].up());
                    return Ok(false);
                };
                self.row.row_mut(0)[*col] = Some(key);
            }
        }
        if let Some(s) = stats {
            s.rows += 1;
        }
        Ok(true)
    }

    /// Resumes the depth-first walk until the row holds the next
    /// solution (`true`), the plan is spent (`false`), or a checkpoint
    /// fails.
    fn pull(&mut self) -> Result<bool, ExecError> {
        if self.levels.is_empty() {
            self.budget.check()?;
            self.done = true;
            return Ok(true);
        }
        loop {
            self.budget.check()?;
            let fresh = std::mem::take(&mut self.opening);
            if fresh {
                self.open(self.at);
            }
            if self.bind(self.at, fresh)? {
                if self.at + 1 == self.levels.len() {
                    return Ok(true);
                }
                self.at += 1;
                self.opening = true;
            } else if self.at == 0 {
                return Ok(false);
            } else {
                self.at -= 1;
            }
        }
    }
}

impl SolutionStream for JoinStream<'_> {
    // Inlined into the collecting loop of whichever module drains the
    // stream (the shared request path lives in `bgp.rs`).
    #[inline]
    fn next(&mut self) -> Result<Option<Mapping>, ExecError> {
        if self.done {
            return Ok(None);
        }
        let found = self.pull();
        self.done |= !matches!(found, Ok(true));
        Ok(found?.then(|| self.row.mapping(0)))
    }
}

/// The row schema of a join — the variables of `bound` (the key's) and
/// of the patterns, ascending — as an empty table, and each planned
/// pattern resolved against it: a variable is read from its column if
/// the key or an earlier pattern binds it, and bound by this one
/// otherwise.
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
    let tags: Vec<u32> = (0..keys.len() as u32).collect();
    if resolve_with_order(ix, patterns, strategy, &plan, keys.vars()) == JoinStrategy::Wco {
        // One leapfrog plan per key, over the patterns with the key
        // substituted.
        let mut out = RowTable::new(rows.vars().to_vec());
        let mut out_tags = Vec::new();
        let mut core = Vec::with_capacity(steps.len());
        for (key, &tag) in rows.rows().zip(&tags) {
            core.clear();
            core.extend(steps.iter().map(|slots| probe(slots, key)));
            let mut stream = JoinStream::wco(ix, &core, budget, false);
            // analyzer-allow: budget-checkpoint every pull of the stream
            // checks the budget.
            while let Some(mu) = stream.next()? {
                let new = out.push(key);
                for slots in &steps {
                    fill(new, slots, |_, v| mu.get(v));
                }
                out_tags.push(tag);
            }
        }
        return Ok((out, out_tags));
    }
    let mut tagged = (rows, tags);
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
        let mut stream = JoinStream::pairwise(&g, &pats, order.clone(), &budget, false);
        let mut got = Vec::new();
        while let Some(mu) = stream.next().expect("unlimited") {
            got.push(mu);
        }
        assert_eq!(got, want, "stream order must equal materialised order");
        // And every k-prefix of the stream is the k-prefix of the run.
        for k in 0..=want.len() {
            let mut s = JoinStream::pairwise(&g, &pats, order.clone(), &budget, false);
            assert_eq!(s.collect_limit(Some(k)).expect("unlimited"), want[..k]);
        }
    }

    #[test]
    fn limit_pushdown_stops_probing_early() {
        let g = graph();
        let pats = chain();
        let order = plan_order(&pats, &candidate_counts(&g, &pats, 1), &[]);
        let budget = QueryBudget::unlimited();
        let mut full = JoinStream::pairwise(&g, &pats, order.clone(), &budget, true);
        let all = full.collect_limit(None).expect("unlimited");
        let full_scans: u64 = full.level_stats().iter().map(|(_, s)| s.scans).sum();
        let mut limited = JoinStream::pairwise(&g, &pats, order, &budget, true);
        let one = limited.collect_limit(Some(1)).expect("unlimited");
        assert_eq!(one.as_slice(), &all[..1]);
        let limited_scans: u64 = limited.level_stats().iter().map(|(_, s)| s.scans).sum();
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
        let mut stream = JoinStream::pairwise(&g, &pats, order, &budget, false);
        assert_eq!(stream.next(), Err(ExecError::DeadlineExceeded));
        // Sticky: a failed stream stays failed.
        assert_eq!(stream.next(), Ok(None));
        // The empty BGP also checkpoints before its one row (fresh
        // budget: op 0 is the one call guaranteed to consult the clock).
        let fresh = QueryBudget::with_deadline(Duration::ZERO);
        let mut empty = JoinStream::pairwise(&g, &[], PairwisePlan::default(), &fresh, false);
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
