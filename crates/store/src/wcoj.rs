//! Worst-case-optimal multiway joins (leapfrog triejoin) over the
//! sorted permutations.
//!
//! The pairwise pipeline ([`crate::TripleStore::query`]'s semi-join +
//! bind joins) materialises an intermediate result per join step; on
//! cyclic cores — triangles, k-cliques — those intermediates blow up
//! exactly as the AGM bound predicts, even though the store already pays
//! for four sorted permutations that could answer the query without
//! them. This module closes that gap with a variable-at-a-time leapfrog
//! join (Veldhuizen's LFTJ):
//!
//! * a global **variable order** is chosen from the same selectivity /
//!   connectivity statistics the pairwise planner uses
//!   ([`wco_variable_order`]);
//! * every pattern opens one **seekable trie**
//!   ([`wdsparql_rdf::TrieCursor`]) over its matches, with one level per
//!   variable in that order. On [`EncodedGraph`] the trie is a
//!   **zero-copy view** over the permutation whose prefix matches the
//!   pattern's bound positions and variable order — the base range
//!   resolved through the offset table plus one narrowed run per delta
//!   segment, [`Iri`] interner ids as keys (`encoded_trie`). A run is walked
//!   one of two ways inside the same trie: a compacted PSO/POS base block
//!   under a bound predicate enters its first variable **keyed** — over
//!   the block's distinct second-column ids, kept beside the permutation
//!   from the first such trie after a compaction on (`segment::KeyLevel`),
//!   so a seek gallops over dense 4-byte keys instead of 12-byte rows and
//!   their duplicates, and opening a key is two array loads — while delta
//!   runs, SPO/OSP runs and every deeper level are **row-walked**. When no
//!   permutation fits (two of the six rotations are not stored, and
//!   repeated variables constrain rows), the pattern falls back to the
//!   [`MaterializedTrie`] of its matches — still linear in *that
//!   pattern's* matches, never in a join intermediate. Other backends
//!   (the scatter-gather [`crate::ShardedSnapshot`],
//!   [`wdsparql_rdf::RdfGraph`]) serve the same materialised trie as
//!   their default: every trie keys on the same ids;
//! * at each variable the participating tries are intersected by
//!   **leapfrog search**, Veldhuizen's round robin: visit the cursors in
//!   turn, gallop (`seek`) each one that lags the largest key seen so far,
//!   until all agree; then bind, `open`, recurse ([`eval_bgp_wco`]).
//!
//! [`resolve_strategy`] is the planner hook: under
//! [`JoinStrategy::Auto`] a query core routes to the WCOJ when its
//! hypergraph is cyclic (GYO reduction, [`bgp_is_cyclic`]) or when the
//! uniform-containment estimate of the pairwise plan's largest
//! intermediate exceeds the join's input size by a wide margin; acyclic
//! chains keep the pairwise pipeline, whose semi-joins are hard to beat
//! there.

pub use crate::bgp::eval_bgp_with_strategy;
use crate::bgp::plan_order;
use crate::encoded::EncodedGraph;
use crate::segment::{KeyedBlock, Perm, Row};
use std::collections::BTreeSet;
use std::fmt;
use wdsparql_rdf::{
    gallop, ExecError, Iri, Mapping, MaterializedTrie, QueryBudget, RowTable, SolutionStream, Term,
    TrieCursor, TrieOpStats, TripleIndex, TriplePattern, Variable,
};

/// Execution counters of one leapfrog level (one variable of the global
/// order), reported by [`WcoStream::level_stats`]:
///
/// * `rows` — successful alignments, i.e. keys bound at this level (the
///   level's output cardinality across the whole run);
/// * `seeks` — `seek` calls the leapfrog search issued here to drag
///   laggard cursors to the running maximum;
/// * `gallop_steps` — galloping work those seeks reported through
///   [`TrieCursor::op_stats`] (best-effort: backends that do not count
///   contribute zero).
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub struct WcoLevelStats {
    pub rows: u64,
    pub seeks: u64,
    pub gallop_steps: u64,
}

/// How a service evaluates multi-pattern (BGP) queries. The knob on
/// [`crate::TripleStore`], [`crate::ShardedStore`] and the engine.
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub enum JoinStrategy {
    /// Always the pairwise pipeline: most-selective-first ordering, a
    /// sorted semi-join on the first shared variable, bind joins for the
    /// rest.
    Pairwise,
    /// Always the worst-case-optimal leapfrog join.
    Wco,
    /// Per query core: WCOJ when the core is cyclic (GYO) or the
    /// estimated pairwise intermediate blows past the input size;
    /// pairwise otherwise.
    #[default]
    Auto,
}

impl JoinStrategy {
    /// Parses the CLI spelling (`pairwise` / `wco` / `auto`).
    pub fn parse(s: &str) -> Option<JoinStrategy> {
        match s {
            "pairwise" => Some(JoinStrategy::Pairwise),
            "wco" => Some(JoinStrategy::Wco),
            "auto" => Some(JoinStrategy::Auto),
            _ => None,
        }
    }
}

impl fmt::Display for JoinStrategy {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.write_str(match self {
            JoinStrategy::Pairwise => "pairwise",
            JoinStrategy::Wco => "wco",
            JoinStrategy::Auto => "auto",
        })
    }
}

/// Is the BGP's hypergraph (one hyperedge per pattern, over its
/// variables) cyclic? Decided by the GYO reduction: repeatedly drop
/// variables occurring in a single hyperedge and hyperedges contained in
/// another; the query is α-acyclic iff everything reduces away. A
/// triangle sticks (every variable in two edges, no containment); a star
/// `(?x p ?y1)(?x p ?y2)(?x p ?y3)` reduces (each `?yi` is private) even
/// though its patterns pairwise share `?x`.
pub fn bgp_is_cyclic(patterns: &[TriplePattern]) -> bool {
    let mut edges: Vec<BTreeSet<Variable>> = patterns
        .iter()
        .map(|p| p.vars())
        .filter(|vs| !vs.is_empty())
        .collect();
    // analyzer-allow: budget-checkpoint planning-time GYO reduction,
    // bounded by the query size (each round removes a variable or an
    // edge) — never data-dependent.
    loop {
        let mut changed = false;
        // Ear variables: occurring in exactly one remaining hyperedge.
        let mut counts: Vec<(Variable, usize)> = Vec::new();
        for e in &edges {
            for &v in e {
                match counts.iter_mut().find(|(u, _)| *u == v) {
                    Some((_, n)) => *n += 1,
                    None => counts.push((v, 1)),
                }
            }
        }
        for e in &mut edges {
            let before = e.len();
            e.retain(|v| counts.iter().any(|&(u, n)| u == *v && n > 1));
            changed |= e.len() != before;
        }
        // Contained hyperedges (empty ones are contained in anything).
        let mut keep = vec![true; edges.len()];
        for i in 0..edges.len() {
            if edges[i].is_empty() {
                keep[i] = false;
                continue;
            }
            for j in 0..edges.len() {
                if i != j
                    && keep[j]
                    && edges[i].is_subset(&edges[j])
                    && (edges[i] != edges[j] || i > j)
                {
                    keep[i] = false;
                    break;
                }
            }
        }
        if keep.iter().any(|&k| !k) {
            let mut it = keep.iter();
            edges.retain(|_| *it.next().expect("keep mask covers edges"));
            changed = true;
        }
        if !changed {
            return !edges.is_empty();
        }
    }
}

/// Resolves [`JoinStrategy::Auto`] for one query core against one
/// snapshot (`Pairwise` and `Wco` pass through). Auto picks the WCOJ
/// when the core is cyclic, or when the uniform-containment estimate of
/// the pairwise plan's largest intermediate (`|A ⋈ B| ≈ |A|·|B| / |G|`
/// on a shared variable, an outright product otherwise) exceeds four
/// times the candidate input rows — the skew-blind but cheap signal for
/// unavoidable Cartesian blow-ups. Callers that already planned the
/// pairwise order use `resolve_with_order` so each query plans once.
pub fn resolve_strategy(
    ix: &dyn TripleIndex,
    patterns: &[TriplePattern],
    strategy: JoinStrategy,
) -> JoinStrategy {
    match strategy {
        JoinStrategy::Auto => resolve_with_order(ix, patterns, strategy, &plan_order(ix, patterns)),
        fixed => fixed,
    }
}

/// As [`resolve_strategy`] with the pairwise plan already in hand — the
/// service entry point (`query_with_plan` computes the order anyway, and
/// re-deriving it here would undo the plans-exactly-once guarantee).
pub(crate) fn resolve_with_order(
    ix: &dyn TripleIndex,
    patterns: &[TriplePattern],
    strategy: JoinStrategy,
    order: &[usize],
) -> JoinStrategy {
    match strategy {
        JoinStrategy::Auto => {
            if bgp_is_cyclic(patterns) || pairwise_blowup_predicted(ix, patterns, order) {
                JoinStrategy::Wco
            } else {
                JoinStrategy::Pairwise
            }
        }
        fixed => fixed,
    }
}

/// The uniform-containment walk behind [`resolve_strategy`]: follow the
/// pairwise plan, estimating each intermediate, and flag the plan when
/// the largest estimate dwarfs the inputs.
fn pairwise_blowup_predicted(
    ix: &dyn TripleIndex,
    patterns: &[TriplePattern],
    order: &[usize],
) -> bool {
    if patterns.len() < 2 {
        return false;
    }
    let counts: Vec<usize> = patterns.iter().map(|p| ix.candidate_count(p)).collect();
    let inputs: usize = counts.iter().sum();
    let n = ix.len().max(1);
    let mut bound = patterns[order[0]].vars();
    let mut cur = counts[order[0]].max(1);
    let mut worst = cur;
    for &i in &order[1..] {
        let vars = patterns[i].vars();
        let shares = !bound.is_disjoint(&vars);
        cur = if shares {
            (cur.saturating_mul(counts[i].max(1)) / n).max(1)
        } else {
            cur.saturating_mul(counts[i].max(1))
        };
        worst = worst.max(cur);
        bound.extend(vars);
    }
    worst > inputs.saturating_mul(4).max(1024)
}

/// The global variable order of the leapfrog join: seed with the
/// variable whose cheapest covering pattern is most selective, then
/// repeatedly append the most selective variable sharing a pattern with
/// what is already ordered (connectivity keeps every trie's prefix
/// anchored before its deeper levels are intersected). Deterministic.
pub fn wco_variable_order(ix: &dyn TripleIndex, patterns: &[TriplePattern]) -> Vec<Variable> {
    let mut vars: Vec<Variable> = Vec::new();
    for pat in patterns {
        for v in pat.var_occurrences() {
            if !vars.contains(&v) {
                vars.push(v);
            }
        }
    }
    let counts: Vec<usize> = patterns.iter().map(|p| ix.candidate_count(p)).collect();
    let est = |v: Variable| -> usize {
        patterns
            .iter()
            .zip(&counts)
            .filter(|(p, _)| p.vars().contains(&v))
            .map(|(_, &c)| c)
            .min()
            .unwrap_or(usize::MAX)
    };
    let mut order: Vec<Variable> = Vec::with_capacity(vars.len());
    // analyzer-allow: budget-checkpoint planning-time ordering, bounded
    // by the query's variable count — never data-dependent.
    while order.len() < vars.len() {
        let connected = |v: Variable| {
            patterns.iter().any(|p| {
                let vs = p.vars();
                vs.contains(&v) && order.iter().any(|u| vs.contains(u))
            })
        };
        let next = vars
            .iter()
            .filter(|v| !order.contains(v))
            .min_by_key(|&&v| {
                let tied = order.is_empty() || connected(v);
                // Disconnected variables only when nothing connected
                // remains (the deferred-product rule of the pairwise
                // planner, in variable space).
                (usize::from(!tied), est(v), v)
            })
            .copied()
            .expect("loop runs only while variables remain");
        order.push(next);
    }
    order
}

/// Worst-case-optimal evaluation of the conjunction of `patterns`: one
/// seekable trie per pattern ([`TripleIndex::trie_cursor`]), leapfrog
/// intersection variable by variable in [`wco_variable_order`]. Returns
/// the same solution set as the pairwise pipeline — every distinct
/// mapping over `vars(patterns)` whose image lies in the graph — without
/// materialising any pairwise intermediate.
pub fn eval_bgp_wco(ix: &dyn TripleIndex, patterns: &[TriplePattern]) -> Vec<Mapping> {
    eval_bgp_with_strategy(ix, patterns, JoinStrategy::Wco)
}

/// Where a [`WcoStream`] resumes inside one level of the leapfrog
/// intersection.
enum WcoMode {
    /// Entering the level: open every participating cursor (descending
    /// from its aligned parent key, or from its virtual root if this is
    /// its first variable — which is what rewinds it each time an outer
    /// variable advances).
    Open,
    /// Run the leapfrog search at the current level.
    Align,
    /// A key at this level was consumed (emitted, or its subtree
    /// exhausted): move one cursor past it — the next alignment drags
    /// the rest along.
    Advance,
}

/// The leapfrog triejoin as a resumable explicit-stack cursor: the
/// recursion of the classic LFTJ flattened into (`level`, `WcoMode`)
/// so each [`SolutionStream::next`] pull runs the intersection exactly
/// until the next full binding is found, then suspends. The classic
/// bracketing survives: entering a level opens its cursors, leaving
/// restores them to their parent state (`WcoMode::Open` / the
/// exhausted-alignment arm).
///
/// Checkpoints: the per-level loop and the leapfrog search both call
/// [`QueryBudget::check`] every iteration, so a deadline or
/// cancellation is noticed within one seek/gallop step.
///
/// Bindings live in one row over the variables in ascending order, not
/// in join order: level `l` writes column `column_of[l]`, and a full
/// binding is decoded by [`RowTable::mapping`].
pub struct WcoStream<'a> {
    cursors: Vec<Box<dyn TrieCursor + 'a>>,
    by_var: Vec<Vec<usize>>,
    order: Vec<Variable>,
    column_of: Vec<usize>,
    row: RowTable,
    level: usize,
    mode: WcoMode,
    done: bool,
    /// The single empty-mapping solution of an all-ground BGP whose
    /// gates all passed (no cursors to run in that case).
    pending: Option<Mapping>,
    stats: Option<Vec<WcoLevelStats>>,
    budget: &'a QueryBudget,
}

impl<'a> WcoStream<'a> {
    /// Opens the leapfrog join of `patterns` over `ix` under `budget`.
    /// With `profiled`, per-level counters accumulate for
    /// [`WcoStream::level_stats`].
    pub fn new(
        ix: &'a dyn TripleIndex,
        patterns: &[TriplePattern],
        budget: &'a QueryBudget,
        profiled: bool,
    ) -> WcoStream<'a> {
        // Ground patterns join nothing; they are containment gates, one
        // `contains` probe each.
        for pat in patterns {
            if pat.as_triple().is_some_and(|t| !ix.contains(&t)) {
                return WcoStream::closed(budget, None);
            }
        }
        let var_pats: Vec<&TriplePattern> = patterns
            .iter()
            .filter(|p| p.as_triple().is_none())
            .collect();
        if var_pats.is_empty() {
            return WcoStream::closed(budget, Some(Mapping::new()));
        }
        let order = wco_variable_order(ix, patterns);
        let index_of = |v: Variable| -> usize {
            order
                .iter()
                .position(|&u| u == v)
                .expect("the variable order covers every pattern variable")
        };
        let mut cursors: Vec<Box<dyn TrieCursor + 'a>> = Vec::with_capacity(var_pats.len());
        let mut by_var: Vec<Vec<usize>> = vec![Vec::new(); order.len()];
        for (c, pat) in var_pats.iter().enumerate() {
            let mut vs: Vec<Variable> = pat.vars().into_iter().collect();
            vs.sort_by_key(|&v| index_of(v));
            for &v in &vs {
                by_var[index_of(v)].push(c);
            }
            cursors.push(ix.trie_cursor(pat, &vs));
        }
        let mut schema = order.clone();
        schema.sort();
        let column_of = order
            .iter()
            .map(|&v| schema.partition_point(|&u| u < v))
            .collect();
        let mut row = RowTable::new(schema);
        // The one row the stream fills, all unbound.
        row.push_spread(&[], &[]);
        let stats = profiled.then(|| vec![WcoLevelStats::default(); order.len()]);
        WcoStream {
            cursors,
            by_var,
            order,
            column_of,
            row,
            level: 0,
            mode: WcoMode::Open,
            done: false,
            pending: None,
            stats,
            budget,
        }
    }

    /// A stream that yields `pending` (if any) and then exhausts — the
    /// short-circuit shapes that never run the leapfrog.
    fn closed(budget: &'a QueryBudget, pending: Option<Mapping>) -> WcoStream<'a> {
        WcoStream {
            cursors: Vec::new(),
            by_var: Vec::new(),
            order: Vec::new(),
            column_of: Vec::new(),
            row: RowTable::new(Vec::new()),
            level: 0,
            mode: WcoMode::Open,
            done: pending.is_none(),
            pending,
            stats: None,
            budget,
        }
    }

    /// Per-level execution counters, one `(variable, stats)` pair per
    /// variable of the global order (empty unless built `profiled`, or
    /// when the query short-circuited before the leapfrog ran).
    pub fn level_stats(&self) -> Vec<(Variable, WcoLevelStats)> {
        match &self.stats {
            Some(s) => self.order.iter().copied().zip(s.iter().copied()).collect(),
            None => Vec::new(),
        }
    }

    /// Resumes the flattened recursion until the next solution, the end
    /// of the intersection, or a failed checkpoint.
    fn pull(&mut self) -> Result<Option<Mapping>, ExecError> {
        if self.cursors.is_empty() {
            self.done = true;
            return Ok(self.pending.take());
        }
        loop {
            self.budget.check()?;
            match self.mode {
                WcoMode::Open => {
                    let active = &self.by_var[self.level];
                    debug_assert!(!active.is_empty(), "every ordered variable has a pattern");
                    for &c in active {
                        self.cursors[c].open();
                    }
                    self.mode = WcoMode::Align;
                }
                WcoMode::Align => {
                    let active = &self.by_var[self.level];
                    // Gallop work is attributed to the level whose
                    // alignment drove it: delta of the active cursors'
                    // cumulative counters around the search (a cursor
                    // participating in several levels reports one
                    // total; the deltas split it correctly).
                    let before = self
                        .stats
                        .as_ref()
                        .map(|_| gallop_total(&self.cursors, active))
                        .unwrap_or_default();
                    let (key, seeks) = leapfrog_align(&mut self.cursors, active, self.budget)?;
                    let active = &self.by_var[self.level];
                    if let Some(s) = self.stats.as_deref_mut() {
                        s[self.level].seeks += seeks;
                        s[self.level].gallop_steps +=
                            gallop_total(&self.cursors, active).saturating_sub(before);
                        if key.is_some() {
                            s[self.level].rows += 1;
                        }
                    }
                    match key {
                        None => {
                            // This level is exhausted: restore its
                            // cursors to their parent state and resume
                            // one level up (or finish at the root).
                            for &c in &self.by_var[self.level] {
                                self.cursors[c].up();
                            }
                            if self.level == 0 {
                                self.done = true;
                                return Ok(None);
                            }
                            self.level -= 1;
                            self.mode = WcoMode::Advance;
                        }
                        Some(_) => {
                            let probe = self.by_var[self.level][0];
                            self.row.row_mut(0)[self.column_of[self.level]] =
                                Some(self.cursors[probe].value());
                            if self.level + 1 == self.order.len() {
                                // A full binding: emit it and resume by
                                // advancing past this deepest key.
                                self.mode = WcoMode::Advance;
                                return Ok(Some(self.row.mapping(0)));
                            }
                            self.level += 1;
                            self.mode = WcoMode::Open;
                        }
                    }
                }
                WcoMode::Advance => {
                    let probe = self.by_var[self.level][0];
                    self.cursors[probe].advance();
                    self.mode = WcoMode::Align;
                }
            }
        }
    }
}

impl SolutionStream for WcoStream<'_> {
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
                // failed instead of resuming mid-intersection.
                self.done = true;
                Err(e)
            }
        }
    }
}

/// Sum of the active cursors' reported galloping steps (profiling only).
fn gallop_total(cursors: &[Box<dyn TrieCursor + '_>], active: &[usize]) -> u64 {
    active
        .iter()
        .map(|&c| cursors[c].op_stats().gallop_steps)
        .sum()
}

/// The leapfrog search, Veldhuizen's round robin: from the first active
/// cursor's key, visit the cursors in turn and `seek` each one that lags
/// the largest key seen so far — one key read and at most one `seek` per
/// step — until every active cursor sits on the same key (`Some`), or
/// one exhausts (`None`). Also returns the number of `seek` calls
/// issued. Every step checkpoints `budget`, so a deadline interrupts
/// even a pathological intersection within one seek.
fn leapfrog_align(
    cursors: &mut [Box<dyn TrieCursor + '_>],
    active: &[usize],
    budget: &QueryBudget,
) -> Result<(Option<u64>, u64), ExecError> {
    let mut seeks = 0u64;
    let Some(mut max) = cursors[active[0]].key() else {
        return Ok((None, seeks));
    };
    // How many cursors in a row, ending at `at`, sit on `max`.
    let (mut agree, mut at) = (1, 0);
    while agree < active.len() {
        budget.check()?;
        at = if at + 1 == active.len() { 0 } else { at + 1 };
        let cursor = &mut cursors[active[at]];
        let Some(mut key) = cursor.key() else {
            return Ok((None, seeks));
        };
        if key < max {
            cursor.seek(max);
            seeks += 1;
            let Some(moved) = cursor.key() else {
                return Ok((None, seeks));
            };
            key = moved;
        }
        if key == max {
            agree += 1;
        } else {
            (max, agree) = (key, 1);
        }
    }
    Ok((Some(max), seeks))
}

/// One sorted run of a [`SliceTrie`] level; never empty while the trie
/// holds it.
#[derive(Clone, Copy)]
enum Run<'a> {
    /// Rows walked at the level's row position: a key's rows are
    /// adjacent, so moving past a key gallops over its duplicates, and
    /// opening it gallops to its last row.
    Rows(&'a [Row]),
    /// A compacted PSO/POS base block under a bound predicate, walked
    /// over its key level: dense distinct ids, and a key's rows two
    /// loads away.
    Keys(KeyedBlock<'a>),
}

impl<'a> Run<'a> {
    /// The run's first key at row position `pos`.
    #[inline]
    fn head(&self, pos: usize) -> Iri {
        match self {
            Run::Rows(rows) => rows[0][pos],
            Run::Keys(block) => block.keys[0],
        }
    }

    #[inline]
    fn is_empty(&self) -> bool {
        match self {
            Run::Rows(rows) => rows.is_empty(),
            Run::Keys(block) => block.keys.is_empty(),
        }
    }

    /// Gallops past the leading keys that satisfy `below`; returns how
    /// many entries (rows or keys) it moved over.
    #[inline]
    fn skip_while(&mut self, pos: usize, below: impl Fn(Iri) -> bool) -> usize {
        match self {
            Run::Rows(rows) => {
                let n = gallop(rows, |row| below(row[pos]));
                *rows = &rows[n..];
                n
            }
            Run::Keys(block) => {
                let n = gallop(block.keys, |&k| below(k));
                block.skip(n);
                n
            }
        }
    }

    /// The next level's run: the rows under the head key.
    #[inline]
    fn open_head(&self, pos: usize) -> Run<'a> {
        match *self {
            Run::Rows(rows) => {
                let k = rows[0][pos];
                Run::Rows(&rows[..gallop(rows, |row| row[pos] <= k)])
            }
            Run::Keys(block) => Run::Rows(block.first_rows()),
        }
    }
}

/// Zero-copy trie over an [`EncodedGraph`] permutation: the narrowed
/// base range plus one narrowed run per delta segment, all sorted under
/// the same rotation. Each level is one row position past the bound
/// prefix; the merged view's key is the minimum over the run heads, and
/// `seek`/`advance`/`open` move every run independently. A compacted
/// PSO/POS base run under a bound predicate enters level 0 keyed
/// ([`Run::Keys`]); every other run, and every deeper level, is
/// row-walked. Starts at the virtual root (see [`TrieCursor`]);
/// re-opening level 0 restores the full narrowed runs — rewinding costs
/// one `Vec` clone of run views, never a row copy.
struct SliceTrie<'a> {
    depth: usize,
    /// Row position of level 0 (the number of bound constants).
    first_pos: usize,
    /// The full narrowed runs — what opening level 0 restores.
    level0: Vec<Run<'a>>,
    /// Active runs at the current level — never empty; meaningful only
    /// below the root.
    runs: Vec<Run<'a>>,
    /// Saved parent runs, one per open level (so the current level is
    /// `stack.len() - 1`; an empty stack is the virtual root).
    stack: Vec<Vec<Run<'a>>>,
    /// Retired run vectors, recycled by `open` — the leapfrog opens a
    /// sub-trie per binding step, and reusing the buffers keeps that
    /// allocation-free after the first few steps.
    spare: Vec<Vec<Run<'a>>>,
    stats: TrieOpStats,
}

impl<'a> SliceTrie<'a> {
    fn new(depth: usize, first_pos: usize, level0: Vec<Run<'a>>) -> SliceTrie<'a> {
        debug_assert!(
            first_pos == 1 || level0.iter().all(|r| matches!(r, Run::Rows(_))),
            "a key level is the second column of a predicate-led block"
        );
        SliceTrie {
            depth,
            first_pos,
            level0,
            runs: Vec::new(),
            stack: Vec::new(),
            spare: Vec::new(),
            stats: TrieOpStats::default(),
        }
    }

    /// Row position of the current level, `None` at the virtual root.
    fn pos(&self) -> Option<usize> {
        Some(self.first_pos + self.stack.len().checked_sub(1)?)
    }

    /// The current term: the least run head.
    fn head(&self) -> Option<Iri> {
        let pos = self.pos()?;
        self.runs.iter().map(|r| r.head(pos)).min()
    }
}

impl TrieCursor for SliceTrie<'_> {
    fn depth(&self) -> usize {
        self.depth
    }

    fn key(&self) -> Option<u64> {
        self.head().map(|i| u64::from(i.id()))
    }

    fn value(&self) -> Iri {
        self.head().expect("value() requires a current key")
    }

    fn advance(&mut self) {
        let Some(pos) = self.pos() else { return };
        let Some(k) = self.head() else { return };
        for r in &mut self.runs {
            if r.head(pos) == k {
                r.skip_while(pos, |id| id <= k);
            }
        }
        self.runs.retain(|r| !r.is_empty());
    }

    fn seek(&mut self, target: u64) {
        let Some(pos) = self.pos() else { return };
        self.stats.seeks += 1;
        let Ok(t) = u32::try_from(target) else {
            // Beyond any interner id: exhausted.
            self.runs.clear();
            return;
        };
        for r in &mut self.runs {
            if r.head(pos).id() < t {
                let moved = r.skip_while(pos, |id| id.id() < t);
                self.stats.gallop_steps += TrieOpStats::gallop_cost(moved);
            }
        }
        self.runs.retain(|r| !r.is_empty());
    }

    fn open(&mut self) {
        let mut sub = self.spare.pop().unwrap_or_default();
        sub.clear();
        match self.pos() {
            // From the root: level 0 spans the full narrowed runs.
            None => sub.extend_from_slice(&self.level0),
            Some(pos) => {
                let k = self.head().expect("open() requires a current key");
                sub.extend(
                    self.runs
                        .iter()
                        .filter(|r| r.head(pos) == k)
                        .map(|r| r.open_head(pos)),
                );
            }
        }
        self.stack.push(std::mem::replace(&mut self.runs, sub));
    }

    fn up(&mut self) {
        let parent = self.stack.pop().expect("up() without a matching open()");
        self.spare.push(std::mem::replace(&mut self.runs, parent));
    }

    fn op_stats(&self) -> TrieOpStats {
        self.stats
    }
}

/// Builds the WCOJ trie of one pattern over an [`EncodedGraph`] — the
/// backend override behind [`TripleIndex::trie_cursor`]. Zero-copy when
/// some stored permutation's layout puts the bound positions in a prefix
/// and the variables in exactly the requested order (PSO qualifies only
/// on a fully compacted graph — delta segments carry no PSO run);
/// otherwise the pattern's matches feed the shared [`MaterializedTrie`].
/// Both key on [`Iri`] ids.
pub(crate) fn encoded_trie<'a>(
    g: &'a EncodedGraph,
    pat: &TriplePattern,
    vars: &[Variable],
) -> Box<dyn TrieCursor + 'a> {
    let depth = vars.len();
    let positions = pat.positions();
    let Some(spo_ids) = g.bound_terms(pat) else {
        // A bound term the graph has never seen: nothing matches.
        return Box::new(SliceTrie::new(depth, 0, Vec::new()));
    };
    let constants = spo_ids.iter().filter(|id| id.is_some()).count();
    // `depth + constants == 3` ⟺ no variable repeats: repeats constrain
    // rows beyond what any sorted run expresses, so they materialise.
    if depth + constants == 3 {
        'perm: for perm in [Perm::Spo, Perm::Osp, Perm::Pso, Perm::Pos] {
            if perm == Perm::Pso && g.segment_count() > 0 {
                continue;
            }
            let layout = perm.layout();
            for (comp, id) in spo_ids.iter().enumerate() {
                if id.is_some() && layout[comp] >= constants {
                    continue 'perm;
                }
            }
            for (i, &v) in vars.iter().enumerate() {
                let comp = positions
                    .iter()
                    .position(|&t| t == Term::Var(v))
                    .expect("projected variables occur in the pattern");
                if layout[comp] != constants + i {
                    continue 'perm;
                }
            }
            let runs = g.pattern_runs(perm, spo_ids);
            // A bound predicate alone leads a PSO/POS block: the base
            // run's first level walks the block's key level.
            let keyed = match spo_ids {
                [None, Some(p), None] => g.block_keys(perm, p),
                _ => None,
            };
            let level0 = match keyed {
                Some(block) => std::iter::once(Run::Keys(block))
                    .chain(runs.deltas.iter().map(|&d| Run::Rows(d)))
                    .collect(),
                None => runs.iter().map(Run::Rows).collect(),
            };
            return Box::new(SliceTrie::new(depth, constants, level0));
        }
    }
    // No permutation fits this (constants, variable order) layout —
    // materialise the pattern's matches projected onto `vars`. Linear in
    // the pattern's own match set, never in a join intermediate.
    Box::new(MaterializedTrie::from_matches(
        pat,
        g.match_pattern(pat),
        vars,
    ))
}

#[cfg(test)]
mod tests {
    use super::*;
    use wdsparql_rdf::term::{iri, var};
    use wdsparql_rdf::{tp, Triple};

    fn sorted(mut sols: Vec<Mapping>) -> Vec<Mapping> {
        sols.sort();
        sols
    }

    fn ring_graph(n: usize) -> Vec<Triple> {
        // A directed n-ring over `p` plus chords, so triangles exist.
        let mut ts: Vec<Triple> = (0..n)
            .map(|i| Triple::from_strs(&format!("v{i}"), "p", &format!("v{}", (i + 1) % n)))
            .collect();
        for i in 0..n {
            ts.push(Triple::from_strs(
                &format!("v{i}"),
                "p",
                &format!("v{}", (i + 2) % n),
            ));
        }
        ts
    }

    fn triangle_bgp() -> [TriplePattern; 3] {
        [
            tp(var("x"), iri("p"), var("y")),
            tp(var("y"), iri("p"), var("z")),
            tp(var("x"), iri("p"), var("z")),
        ]
    }

    #[test]
    fn gyo_classifies_cores() {
        let chain = [
            tp(var("x"), iri("p"), var("y")),
            tp(var("y"), iri("p"), var("z")),
            tp(var("z"), iri("p"), var("w")),
        ];
        assert!(!bgp_is_cyclic(&chain));
        // A star is acyclic even though its patterns pairwise share ?x.
        let star = [
            tp(var("x"), iri("p"), var("a")),
            tp(var("x"), iri("p"), var("b")),
            tp(var("x"), iri("p"), var("c")),
        ];
        assert!(!bgp_is_cyclic(&star));
        assert!(bgp_is_cyclic(&triangle_bgp()));
        // 4-clique: cyclic.
        let clique = [
            tp(var("a"), iri("p"), var("b")),
            tp(var("a"), iri("p"), var("c")),
            tp(var("a"), iri("p"), var("d")),
            tp(var("b"), iri("p"), var("c")),
            tp(var("b"), iri("p"), var("d")),
            tp(var("c"), iri("p"), var("d")),
        ];
        assert!(bgp_is_cyclic(&clique));
        // Triangle + pendant arm: still cyclic.
        let mut star_cycle = triangle_bgp().to_vec();
        star_cycle.push(tp(var("x"), iri("q"), var("w")));
        assert!(bgp_is_cyclic(&star_cycle));
        assert!(!bgp_is_cyclic(&[]));
        assert!(!bgp_is_cyclic(&[tp(iri("a"), iri("p"), iri("b"))]));
    }

    #[test]
    fn auto_routes_cyclic_cores_to_wco() {
        let g = EncodedGraph::from_triples(ring_graph(8));
        assert_eq!(
            resolve_strategy(&g, &triangle_bgp(), JoinStrategy::Auto),
            JoinStrategy::Wco
        );
        let chain = [
            tp(var("x"), iri("p"), var("y")),
            tp(var("y"), iri("p"), var("z")),
        ];
        assert_eq!(
            resolve_strategy(&g, &chain, JoinStrategy::Auto),
            JoinStrategy::Pairwise
        );
        // Fixed strategies pass through untouched.
        assert_eq!(
            resolve_strategy(&g, &chain, JoinStrategy::Wco),
            JoinStrategy::Wco
        );
        assert_eq!(
            resolve_strategy(&g, &triangle_bgp(), JoinStrategy::Pairwise),
            JoinStrategy::Pairwise
        );
    }

    #[test]
    fn auto_flags_cartesian_blowups() {
        // Two disconnected fans: the pairwise plan must take the
        // product, which the uniform estimate sees.
        let mut ts = Vec::new();
        for i in 0..64 {
            ts.push(Triple::from_strs(&format!("a{i}"), "p", &format!("b{i}")));
            ts.push(Triple::from_strs(&format!("c{i}"), "q", &format!("d{i}")));
        }
        let g = EncodedGraph::from_triples(ts);
        let disconnected = [
            tp(var("x"), iri("p"), var("y")),
            tp(var("z"), iri("q"), var("w")),
        ];
        assert_eq!(
            resolve_strategy(&g, &disconnected, JoinStrategy::Auto),
            JoinStrategy::Wco
        );
    }

    #[test]
    fn variable_order_is_connected_and_total() {
        let g = EncodedGraph::from_triples(ring_graph(6));
        let pats = [
            tp(var("x"), iri("p"), var("y")),
            tp(var("y"), iri("p"), var("z")),
            tp(iri("v0"), iri("p"), var("x")),
        ];
        let order = wco_variable_order(&g, &pats);
        assert_eq!(order.len(), 3);
        // x is covered by the most selective pattern (one subject), so
        // it leads; y connects next, then z.
        assert_eq!(order[0], Variable::new("x"));
        for k in 1..order.len() {
            let prefix = &order[..k];
            assert!(
                pats.iter().any(|p| {
                    let vs = p.vars();
                    vs.contains(&order[k]) && prefix.iter().any(|u| vs.contains(u))
                }),
                "order must stay connected"
            );
        }
    }

    /// The WCOJ agrees with the pairwise pipeline on the triangle, with
    /// the graph compacted, all-delta, and split — exercising the
    /// zero-copy permutation tries over base + segments.
    #[test]
    fn triangle_matches_pairwise_across_layouts() {
        let ts = ring_graph(12);
        let compacted = EncodedGraph::from_triples(ts.iter().copied());
        let mut staged = EncodedGraph::new();
        for chunk in ts.chunks(5) {
            staged.insert_batch(chunk.iter().copied()).unwrap();
        }
        let mut half = EncodedGraph::new();
        half.insert_batch(ts[..ts.len() / 2].iter().copied())
            .unwrap();
        half.compact();
        half.insert_batch(ts[ts.len() / 2..].iter().copied())
            .unwrap();
        assert!(staged.segment_count() > 1, "staged must stay all-delta");
        assert_eq!(half.segment_count(), 1, "half must keep its one delta");
        let pats = triangle_bgp();
        let want = sorted(eval_bgp_with_strategy(
            &compacted,
            &pats,
            JoinStrategy::Pairwise,
        ));
        assert!(!want.is_empty(), "the chorded ring has triangles");
        for (label, g) in [
            ("compacted", &compacted),
            ("staged", &staged),
            ("half", &half),
        ] {
            assert_eq!(sorted(eval_bgp_wco(g, &pats)), want, "{label}");
        }
        // And through the strategy knob.
        assert_eq!(
            sorted(eval_bgp_with_strategy(
                &compacted,
                &pats,
                JoinStrategy::Auto
            )),
            want
        );
    }

    /// Shapes that stress every trie flavour: bound constants, repeated
    /// variables (materialised fallback), ground gates, absent terms,
    /// missing-permutation variable orders.
    #[test]
    fn wco_handles_edge_shapes() {
        let mut ts = ring_graph(10);
        ts.push(Triple::from_strs("v0", "p", "v0")); // a loop
        let sharded = crate::ShardedStore::new(3);
        sharded.bulk_load(ts.iter().copied());
        let snap = sharded.snapshot();
        let g = EncodedGraph::from_triples(ts);
        let r = g.to_rdf();
        let cases: Vec<Vec<TriplePattern>> = vec![
            // Repeated variable: loops only.
            vec![tp(var("x"), iri("p"), var("x"))],
            // Repeated variable joined with an edge.
            vec![
                tp(var("x"), iri("p"), var("x")),
                tp(var("x"), iri("p"), var("y")),
            ],
            // Ground gate present + join.
            vec![
                tp(iri("v0"), iri("p"), iri("v1")),
                tp(var("x"), iri("p"), var("y")),
            ],
            // Ground gate absent.
            vec![
                tp(iri("v1"), iri("p"), iri("v0")),
                tp(var("x"), iri("p"), var("y")),
            ],
            // Absent constant.
            vec![tp(iri("nope"), iri("p"), var("y"))],
            // Subject bound, object-before-predicate order arises when
            // the object joins first — no SOP permutation exists.
            vec![
                tp(iri("v0"), var("q"), var("y")),
                tp(var("y"), iri("p"), var("z")),
                tp(var("z"), var("q"), var("w")),
            ],
            // Empty BGP.
            vec![],
        ];
        for pats in cases {
            let got = sorted(eval_bgp_wco(&g, &pats));
            let want = sorted(eval_bgp_with_strategy(&g, &pats, JoinStrategy::Pairwise));
            assert_eq!(got, want, "encoded backend on {pats:?}");
            // The generic materialised path (RdfGraph default cursors)
            // agrees too.
            let generic = sorted(eval_bgp_wco(&r, &pats));
            assert_eq!(generic, want, "materialised backend on {pats:?}");
            // So does the scatter-gather snapshot, whose default trie is
            // fed its fanned-out `match_pattern` rows.
            let gathered = sorted(eval_bgp_wco(&snap, &pats));
            assert_eq!(gathered, want, "sharded backend on {pats:?}");
        }
    }

    #[test]
    fn profiled_wco_reports_per_level_counters() {
        let g = EncodedGraph::from_triples(ring_graph(12));
        let pats = triangle_bgp();
        let profiled = |pats: &[TriplePattern]| {
            let budget = QueryBudget::unlimited();
            let mut stream = WcoStream::new(&g, pats, &budget, true);
            let sols = stream.collect_limit(None).expect("unlimited budget");
            (sols, stream.level_stats())
        };
        let (sols, levels) = profiled(&pats);
        assert_eq!(sorted(sols.clone()), sorted(eval_bgp_wco(&g, &pats)));
        let order = wco_variable_order(&g, &pats);
        assert_eq!(
            levels.iter().map(|&(v, _)| v).collect::<Vec<_>>(),
            order,
            "one stats entry per ordered variable"
        );
        assert!(
            levels.iter().all(|(_, s)| s.rows > 0),
            "every level bound keys on a graph with triangles: {levels:?}"
        );
        // Each deepest-level alignment emits exactly one solution.
        assert_eq!(
            levels.last().expect("three levels").1.rows,
            sols.len() as u64
        );
        assert!(
            levels.iter().any(|(_, s)| s.seeks > 0),
            "intersecting distinct key sets must seek: {levels:?}"
        );
        assert!(
            levels.iter().any(|(_, s)| s.gallop_steps > 0),
            "seeks that move report gallop work: {levels:?}"
        );
        // Short-circuited queries report no levels.
        let ground = [tp(iri("v0"), iri("p"), iri("v1"))];
        let (sols, levels) = profiled(&ground);
        assert_eq!(sols.len(), 1);
        assert!(levels.is_empty());
    }

    #[test]
    fn strategy_knob_parses_and_displays() {
        for s in [
            JoinStrategy::Pairwise,
            JoinStrategy::Wco,
            JoinStrategy::Auto,
        ] {
            assert_eq!(JoinStrategy::parse(&s.to_string()), Some(s));
        }
        assert_eq!(JoinStrategy::parse("nope"), None);
        assert_eq!(JoinStrategy::default(), JoinStrategy::Auto);
    }

    #[test]
    fn encoded_trie_walks_a_permutation_view() {
        // Names no other test interns, met in this order: their ids
        // ascend a < p < b < c < d < q.
        let n = |name: &str| Iri::new(&format!("trie-view-{name}"));
        let t = |s, p, o| Triple::new(n(s), n(p), n(o));
        let g = EncodedGraph::from_triples([
            t("a", "p", "b"),
            t("a", "p", "c"),
            t("b", "p", "c"),
            t("d", "q", "a"),
        ]);
        let pat = tp(var("x"), Term::Iri(n("p")), var("y"));
        // Subject-major order: zero-copy over PSO.
        let mut cur = encoded_trie(&g, &pat, &[Variable::new("x"), Variable::new("y")]);
        assert_eq!(cur.depth(), 2);
        assert_eq!(cur.key(), None, "cursors start at the virtual root");
        cur.open();
        let mut subjects = Vec::new();
        while cur.key().is_some() {
            subjects.push(cur.value());
            cur.open();
            let mut fanout = 0;
            while cur.key().is_some() {
                fanout += 1;
                cur.advance();
            }
            assert!(fanout > 0);
            cur.up();
            cur.advance();
        }
        assert_eq!(subjects, vec![n("a"), n("b")]);
        // Object-major order: zero-copy over POS.
        let mut cur = encoded_trie(&g, &pat, &[Variable::new("y"), Variable::new("x")]);
        cur.open();
        let mut objects = Vec::new();
        while cur.key().is_some() {
            objects.push(cur.value());
            cur.advance();
        }
        assert_eq!(objects, vec![n("b"), n("c")]);
        // The compacted PSO block under the bound predicate is walked
        // over its key level: seeks stay inside the block — a target
        // past its last key exhausts the level even though the `q` block
        // after it holds that id — and a target beyond any `u32` id
        // exhausts it too.
        let id = |name: &str| u64::from(n(name).id());
        assert!(id("d") > id("b"), "d is interned last");
        let mut cur = encoded_trie(&g, &pat, &[Variable::new("x"), Variable::new("y")]);
        cur.open();
        assert_eq!(cur.value(), n("a"));
        cur.seek(id("b"));
        assert_eq!(cur.value(), n("b"));
        cur.open();
        assert_eq!(cur.value(), n("c"), "b's rows are the key's rows");
        cur.advance();
        assert_eq!(cur.key(), None);
        cur.up();
        assert_eq!(cur.value(), n("b"));
        cur.seek(id("d"));
        assert_eq!(cur.key(), None, "d leads rows only in the q block");
        cur.up();
        cur.open();
        assert_eq!(cur.value(), n("a"), "re-opening rewinds the level");
        cur.seek(u64::from(u32::MAX) + 1);
        assert_eq!(cur.key(), None);
        assert_eq!(cur.op_stats().seeks, 3);
    }
}
