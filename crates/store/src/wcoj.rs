//! The leapfrog triejoin's parts, and the rule that picks it.
//!
//! A pairwise plan materialises an intermediate result per join step;
//! on cyclic cores — triangles, k-cliques — those intermediates blow up
//! exactly as the AGM bound predicts, even though the store already pays
//! for four sorted permutations that could answer the query without
//! them. The variable plan of [`crate::join::JoinStream`] closes that gap
//! with Veldhuizen's leapfrog triejoin (LFTJ), one variable per level;
//! this module holds what that plan is made of:
//!
//! * a global **variable order**, chosen from the same selectivity /
//!   connectivity statistics the pairwise planner uses
//!   ([`wco_variable_order`]);
//! * one **seekable trie** ([`wdsparql_rdf::TrieCursor`]) per pattern
//!   over its matches, with one level per variable in that order. On
//!   [`EncodedGraph`] the trie is a **zero-copy view** over the
//!   permutation whose prefix matches the pattern's bound positions and
//!   variable order — the base range resolved through the offset table
//!   plus one narrowed run per delta segment, keyed by the [`Iri`]s
//!   themselves (`encoded_trie`). A run is walked one of two ways inside
//!   the same trie: a compacted PSO/POS base block under a bound
//!   predicate enters its first variable **keyed** — over the block's
//!   distinct second-column ids, kept beside the permutation from the
//!   first such trie after a compaction on (`segment::KeyLevel`), so a
//!   seek gallops over dense 4-byte keys instead of 12-byte rows and
//!   their duplicates, and opening a key is two array loads — while
//!   delta runs, SPO/OSP runs and every deeper level are **row-walked**.
//!   When no permutation fits (two of the six rotations are not stored,
//!   and repeated variables constrain rows), the pattern falls back to
//!   the [`MaterializedTrie`] of its matches — still linear in *that
//!   pattern's* matches, never in a join intermediate. Other backends
//!   (the scatter-gather [`crate::ShardedSnapshot`],
//!   [`wdsparql_rdf::RdfGraph`]) serve the same materialised trie as
//!   their default: every trie keys on the same ids;
//! * the **leapfrog search** that binds one variable level: visit the
//!   tries holding the variable in turn, gallop (`seek`) each one that
//!   lags the largest key seen so far, until all agree
//!   (`leapfrog_align`).
//!
//! [`resolve_strategy`] is the planner hook: under
//! [`JoinStrategy::Auto`] a query core routes to the WCOJ when its
//! hypergraph is cyclic (GYO reduction, [`bgp_is_cyclic`]) or when the
//! uniform-containment estimate of the pairwise plan's largest
//! intermediate exceeds the join's input size by a wide margin; acyclic
//! chains keep the pairwise plan, whose semi-joins are hard to beat
//! there.

pub use crate::bgp::eval_bgp_with_strategy;
use crate::bgp::BoundVars;
use crate::encoded::EncodedGraph;
use crate::join::PairwisePlan;
use crate::segment::{KeyedBlock, Perm, Row};
use std::fmt;
use wdsparql_rdf::{
    gallop, ExecError, Iri, Mapping, MaterializedTrie, QueryBudget, Term, TrieCursor, TrieOpStats,
    TripleIndex, TriplePattern, Variable,
};

/// How a service evaluates multi-pattern (BGP) queries. The knob on
/// [`crate::TripleStore`], [`crate::ShardedStore`] and the engine.
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub enum JoinStrategy {
    /// Always the pairwise pipeline: most-selective-first ordering, a
    /// sorted semi-join of the seed on its first variable shared with
    /// the second pattern when the plan's counts say reading the
    /// second's values pays (at most `SCAN_PER_ROW` per seed row), bind
    /// joins for the rest.
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
    cyclic_once_bound(patterns, &[])
}

/// [`bgp_is_cyclic`] with the variables of `bound` taken for constants.
///
/// The reduction runs off a worklist: a hyperedge is (re)examined when
/// it is new or one of its variables has just become private to it, the
/// only events that can give it an ear or put it inside another (edges
/// only shrink). A pattern has at most three variables, so the work is
/// at most quadratic in the patterns — a star's containment tests —
/// and linear on a path. GYO is confluent: the order of the removals
/// does not change the verdict.
fn cyclic_once_bound(patterns: &[TriplePattern], bound: &[Variable]) -> bool {
    const NONE: usize = usize::MAX;
    // A cycle takes three hyperedges.
    if patterns.len() < 3 {
        return false;
    }
    // Every (free variable, hyperedge) incidence, sorted: the hyperedges
    // holding the `id`-th variable are the run `runs[id]..runs[id + 1]`.
    let mut holds: Vec<(Variable, usize)> = Vec::with_capacity(3 * patterns.len());
    for (i, p) in patterns.iter().enumerate() {
        holds.extend(
            (p.var_occurrences())
                .filter(|v| !bound.contains(v))
                .map(|v| (v, i)),
        );
    }
    holds.sort_unstable();
    holds.dedup();
    // Each hyperedge as the ids of its variables, `NONE` where it has
    // fewer than three (or lost one as an ear).
    let mut edges = vec![[NONE; 3]; patterns.len()];
    let mut runs: Vec<usize> = Vec::with_capacity(holds.len() + 1);
    for (at, &(v, i)) in holds.iter().enumerate() {
        if at == 0 || holds[at - 1].0 != v {
            runs.push(at);
        }
        let slot = edges[i].iter_mut().find(|id| **id == NONE);
        *slot.expect("a pattern holds at most three variables") = runs.len() - 1;
    }
    runs.push(holds.len());
    let held_by = |id: usize| holds[runs[id]..runs[id + 1]].iter().map(|&(_, j)| j);
    // Per variable, how many live hyperedges still hold it.
    let mut holders: Vec<usize> = runs.windows(2).map(|w| w[1] - w[0]).collect();
    let mut alive = vec![true; edges.len()];
    let mut left = edges.len();
    let mut work: Vec<usize> = (0..edges.len()).rev().collect();
    // analyzer-allow: budget-checkpoint planning-time GYO reduction,
    // bounded by the query size (an edge is queued at most once per
    // variable it holds, plus once) — never data-dependent.
    while let Some(i) = work.pop() {
        if !alive[i] {
            continue;
        }
        // Ear variables: held by this edge alone.
        for id in &mut edges[i] {
            if *id != NONE && holders[*id] == 1 {
                *id = NONE;
            }
        }
        // Inside another live edge (an empty edge is inside any; of two
        // equal edges the one examined first goes).
        let e = edges[i];
        let inside = |j: usize| {
            j != i && alive[j] && e.iter().all(|&id| id == NONE || edges[j].contains(&id))
        };
        let rarest = (e.iter().copied())
            .filter(|&id| id != NONE)
            .min_by_key(|&id| runs[id + 1] - runs[id]);
        if !rarest.is_none_or(|id| held_by(id).any(inside)) {
            continue;
        }
        alive[i] = false;
        left -= 1;
        for id in e.into_iter().filter(|&id| id != NONE) {
            holders[id] -= 1;
            if holders[id] == 1 {
                // The one edge left holding it has an ear now.
                work.extend(held_by(id).find(|&j| alive[j] && edges[j].contains(&id)));
            }
        }
    }
    left > 0
}

/// Resolves [`JoinStrategy::Auto`] for one query core against one
/// snapshot (`Pairwise` and `Wco` pass through). Auto picks the WCOJ
/// when the core is cyclic, or when the uniform-containment estimate of
/// the pairwise plan's largest intermediate (`|A ⋈ B| ≈ |A|·|B| / |G|`
/// on a shared variable, an outright product otherwise) exceeds four
/// times the candidate input rows — the skew-blind but cheap signal for
/// unavoidable Cartesian blow-ups.
pub fn resolve_strategy(
    ix: &dyn TripleIndex,
    patterns: &[TriplePattern],
    strategy: JoinStrategy,
) -> JoinStrategy {
    match strategy {
        JoinStrategy::Auto => crate::bgp::plan_and_resolve(ix, patterns, strategy, false).1,
        fixed => fixed,
    }
}

/// The one `Auto` rule, as [`resolve_strategy`] states it, with the
/// pairwise plan and its counts already in hand (so each query plans
/// once) and the variables of `bound` — those a keyed join's key binds —
/// taken for constants: they join a pattern to the plan, and a cycle
/// through them is broken.
pub(crate) fn resolve_with_order(
    ix: &dyn TripleIndex,
    patterns: &[TriplePattern],
    strategy: JoinStrategy,
    plan: &PairwisePlan,
    bound: &[Variable],
) -> JoinStrategy {
    match strategy {
        JoinStrategy::Auto if patterns.len() > 1 => {
            if cyclic_once_bound(patterns, bound)
                || pairwise_blowup_predicted(ix, patterns, plan, bound)
            {
                JoinStrategy::Wco
            } else {
                JoinStrategy::Pairwise
            }
        }
        // A lone pattern neither closes a cycle nor blows up.
        JoinStrategy::Auto => JoinStrategy::Pairwise,
        fixed => fixed,
    }
}

/// The uniform-containment walk behind [`resolve_strategy`], over two
/// patterns or more: follow the pairwise plan, estimating each
/// intermediate, and flag the plan when the largest estimate dwarfs the
/// inputs.
fn pairwise_blowup_predicted(
    ix: &dyn TripleIndex,
    patterns: &[TriplePattern],
    PairwisePlan { order, counts }: &PairwisePlan,
    bound: &[Variable],
) -> bool {
    let inputs: usize = counts.iter().sum();
    let n = ix.len().max(1);
    let mut cur = counts[order[0]].max(1);
    let mut worst = cur;
    let mut placed = BoundVars::new(patterns, bound);
    placed.bind(&patterns[order[0]]);
    for &i in &order[1..] {
        cur = if placed.joins(&patterns[i]) {
            (cur.saturating_mul(counts[i].max(1)) / n).max(1)
        } else {
            cur.saturating_mul(counts[i].max(1))
        };
        placed.bind(&patterns[i]);
        worst = worst.max(cur);
    }
    worst > inputs.saturating_mul(4).max(1024)
}

/// The global variable order of the leapfrog join: seed with the
/// variable whose cheapest covering pattern is most selective, then
/// repeatedly append the most selective variable sharing a pattern with
/// what is already ordered (connectivity keeps every trie's prefix
/// anchored before its deeper levels are intersected). Deterministic.
///
/// Quadratic in the variables: each variable's estimate is computed
/// once, and placing a variable flags its neighbours as connected, so a
/// round is one pass over the unplaced variables.
pub fn wco_variable_order(ix: &dyn TripleIndex, patterns: &[TriplePattern]) -> Vec<Variable> {
    let mut vars: Vec<Variable> = patterns.iter().flat_map(|p| p.var_occurrences()).collect();
    vars.sort_unstable();
    vars.dedup();
    // Per variable: the smallest candidate count of a pattern holding it,
    // and the patterns holding it; per pattern: its distinct variables.
    // Variables are named by their index in `vars`.
    let mut est = vec![usize::MAX; vars.len()];
    let mut holders: Vec<Vec<usize>> = vec![Vec::new(); vars.len()];
    let pattern_vars: Vec<Vec<usize>> = (patterns.iter().enumerate())
        .map(|(i, p)| {
            let count = ix.candidate_count(p);
            let mut held: Vec<usize> = (p.var_occurrences())
                .filter_map(|v| vars.binary_search(&v).ok())
                .collect();
            held.sort_unstable();
            held.dedup();
            for &v in &held {
                est[v] = est[v].min(count);
                holders[v].push(i);
            }
            held
        })
        .collect();
    let mut placed = vec![false; vars.len()];
    // Shares a pattern with a placed variable.
    let mut tied = vec![false; vars.len()];
    let mut order: Vec<Variable> = Vec::with_capacity(vars.len());
    // analyzer-allow: budget-checkpoint planning-time ordering, bounded
    // by the query's variable count — never data-dependent.
    while order.len() < vars.len() {
        let next = (0..vars.len())
            .filter(|&v| !placed[v])
            .min_by_key(|&v| {
                // Disconnected variables only when nothing connected
                // remains (the deferred-product rule of the pairwise
                // planner, in variable space).
                let tied = order.is_empty() || tied[v];
                (usize::from(!tied), est[v], vars[v])
            })
            .expect("loop runs only while variables remain");
        placed[next] = true;
        order.push(vars[next]);
        for &p in &holders[next] {
            for &v in &pattern_vars[p] {
                tied[v] = true;
            }
        }
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

/// The leapfrog search, Veldhuizen's round robin: from the first active
/// cursor's key, visit the cursors in turn and `seek` each one that lags
/// the largest key seen so far — one key read and at most one `seek` per
/// step — until every active cursor sits on the same key (`Some`), or
/// one exhausts (`None`). Also returns the number of `seek` calls
/// issued. Every step checkpoints `budget`, so a deadline interrupts
/// even a pathological intersection within one seek.
pub(crate) fn leapfrog_align(
    cursors: &mut [Box<dyn TrieCursor + '_>],
    active: &[usize],
    budget: &QueryBudget,
) -> Result<(Option<Iri>, u64), ExecError> {
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

    fn key(&self) -> Option<Iri> {
        self.head()
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

    fn seek(&mut self, target: Iri) {
        let Some(pos) = self.pos() else { return };
        self.stats.seeks += 1;
        for r in &mut self.runs {
            if r.head(pos) < target {
                let moved = r.skip_while(pos, |id| id < target);
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
/// and the variables in exactly the requested order — with segments
/// pending too, since every segment carries all four runs; otherwise the
/// pattern's matches feed the shared [`MaterializedTrie`]. Both key on
/// [`Iri`]s.
pub(crate) fn encoded_trie<'a>(
    g: &'a EncodedGraph,
    pat: &TriplePattern,
    vars: &[Variable],
) -> Box<dyn TrieCursor + 'a> {
    match slice_trie(g, pat, vars) {
        Some(trie) => Box::new(trie),
        // No permutation fits this (constants, variable order) layout —
        // materialise the pattern's matches projected onto `vars`. Linear
        // in the pattern's own match set, never in a join intermediate.
        None => Box::new(MaterializedTrie::from_matches(
            pat,
            g.match_pattern(pat),
            vars,
        )),
    }
}

/// The zero-copy half of [`encoded_trie`]: `None` when no stored
/// permutation fits the pattern's layout.
fn slice_trie<'a>(
    g: &'a EncodedGraph,
    pat: &TriplePattern,
    vars: &[Variable],
) -> Option<SliceTrie<'a>> {
    let depth = vars.len();
    let positions = pat.positions();
    let Some(spo_ids) = g.bound_terms(pat) else {
        // A bound term the graph has never seen: nothing matches.
        return Some(SliceTrie::new(depth, 0, Vec::new()));
    };
    let constants = spo_ids.iter().filter(|id| id.is_some()).count();
    // `depth + constants == 3` ⟺ no variable repeats: repeats constrain
    // rows beyond what any sorted run expresses, so they materialise.
    if depth + constants == 3 {
        'perm: for perm in [Perm::Spo, Perm::Osp, Perm::Pso, Perm::Pos] {
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
            return Some(SliceTrie::new(depth, constants, level0));
        }
    }
    None
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::join::{Binds, JoinStream};
    use wdsparql_rdf::term::{iri, var};
    use wdsparql_rdf::SolutionStream;
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

    /// GYO as the definition states it, round by round: drop every
    /// variable held by one edge, then every edge inside another, until
    /// nothing changes; cyclic iff edges are left.
    fn cyclic_by_rounds(patterns: &[TriplePattern], bound: &[Variable]) -> bool {
        let mut edges: Vec<Vec<Variable>> = (patterns.iter())
            .map(|p| {
                let mut e: Vec<Variable> = p
                    .vars()
                    .into_iter()
                    .filter(|v| !bound.contains(v))
                    .collect();
                e.sort_unstable();
                e.dedup();
                e
            })
            .collect();
        loop {
            let before = edges.clone();
            let held = |v: &Variable, edges: &[Vec<Variable>]| {
                edges.iter().filter(|e| e.contains(v)).count()
            };
            let snapshot = edges.clone();
            for e in &mut edges {
                e.retain(|v| held(v, &snapshot) > 1);
            }
            let mut i = 0;
            while i < edges.len() {
                let inside = edges[i].is_empty()
                    || (0..edges.len())
                        .any(|j| j != i && edges[i].iter().all(|v| edges[j].contains(v)));
                if inside {
                    edges.remove(i);
                } else {
                    i += 1;
                }
            }
            if edges == before {
                return !edges.is_empty();
            }
        }
    }

    /// The worklist reduction agrees with the round-based one on random
    /// BGPs over five variables (bound or not), and on the long path and
    /// star that once made the reduction cubic.
    #[test]
    fn worklist_gyo_agrees_with_the_round_based_reduction() {
        let terms = ["a", "b", "c", "d", "e"];
        let mut state = 0x9e37_79b9_7f4a_7c15u64;
        let mut next = |n: u64| {
            state ^= state << 13;
            state ^= state >> 7;
            state ^= state << 17;
            (state % n) as usize
        };
        let mut cyclic = 0;
        for _ in 0..4_000 {
            let term = |k: usize| {
                if k < terms.len() {
                    var(terms[k])
                } else {
                    iri("c0")
                }
            };
            let pats: Vec<TriplePattern> = (0..1 + next(7))
                .map(|_| tp(term(next(6)), iri("p"), term(next(6))))
                .collect();
            let bound: Vec<Variable> = (0..next(3))
                .map(|_| Variable::new(terms[next(5)]))
                .collect();
            let want = cyclic_by_rounds(&pats, &bound);
            assert_eq!(
                cyclic_once_bound(&pats, &bound),
                want,
                "{pats:?} bound {bound:?}"
            );
            cyclic += usize::from(want);
        }
        assert!(cyclic > 100, "only {cyclic} cyclic cases drawn");
        let path: Vec<TriplePattern> = (0..500)
            .map(|i| tp(var(&format!("v{i}")), iri("p"), var(&format!("v{}", i + 1))))
            .collect();
        let star: Vec<TriplePattern> = (0..500)
            .map(|i| tp(var("x"), iri("p"), var(&format!("y{i}"))))
            .collect();
        for long in [path, star] {
            assert!(!cyclic_once_bound(&long, &[]));
            assert!(!cyclic_by_rounds(&long, &[]));
        }
    }

    /// The variable order as first written: every estimate and every
    /// connectivity test recomputed from the patterns' variable sets in
    /// every round (cubic in the variables).
    fn wco_variable_order_by_rounds(
        ix: &dyn TripleIndex,
        patterns: &[TriplePattern],
    ) -> Vec<Variable> {
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
                    (usize::from(!tied), est(v), v)
                })
                .copied()
                .expect("loop runs only while variables remain");
            order.push(next);
        }
        order
    }

    /// The quadratic variable order agrees with the round-based one on
    /// random BGPs over a small graph (disconnected, repeated and
    /// constant-only patterns included), and on a long path and star
    /// (the round-based order takes minutes at 2 049 patterns, so these
    /// are shorter; `tests/nesting_limit.rs` runs the 2 049-pattern chain
    /// under a forced WCOJ).
    #[test]
    fn variable_order_agrees_with_the_round_based_one() {
        const LONG: usize = 128;
        let mut state = 0x2545_f491_4f6c_dd1du64;
        let mut next = |n: u64| {
            state ^= state << 13;
            state ^= state >> 7;
            state ^= state << 17;
            (state % n) as usize
        };
        let nodes = ["n0", "n1", "n2", "n3", "n4", "n5"];
        let preds = ["p", "q", "r"];
        let triples: Vec<Triple> = (0..40)
            .map(|_| Triple::from_strs(nodes[next(6)], preds[next(3)], nodes[next(6)]))
            .collect();
        let g = EncodedGraph::from_triples(triples);
        let names = ["a", "b", "c", "d", "e", "f", "g", "h"];
        let mut ordered = 0;
        for _ in 0..2_000 {
            let term = |k: usize| match names.get(k) {
                Some(name) => var(name),
                None => iri(nodes[k - names.len()]),
            };
            let pats: Vec<TriplePattern> = (0..1 + next(8))
                .map(|_| {
                    let p = match next(4) {
                        0 => term(next(8)),
                        _ => iri(preds[next(3)]),
                    };
                    tp(term(next(11)), p, term(next(11)))
                })
                .collect();
            let want = wco_variable_order_by_rounds(&g, &pats);
            assert_eq!(wco_variable_order(&g, &pats), want, "{pats:?}");
            ordered += usize::from(want.len() > 2);
        }
        assert!(
            ordered > 500,
            "only {ordered} BGPs with three variables or more"
        );
        let path: Vec<TriplePattern> = (0..LONG)
            .map(|i| tp(var(&format!("v{i}")), iri("p"), var(&format!("v{}", i + 1))))
            .collect();
        let star: Vec<TriplePattern> = (0..LONG)
            .map(|i| tp(var("x"), iri("p"), var(&format!("y{i}"))))
            .collect();
        let g = EncodedGraph::from_triples(ring_graph(8));
        for long in [path, star] {
            assert_eq!(
                wco_variable_order(&g, &long),
                wco_variable_order_by_rounds(&g, &long)
            );
        }
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
            let mut stream = JoinStream::wco(&g, pats, &budget, true);
            let sols = stream.collect_limit(None).expect("unlimited budget");
            (sols, stream.level_stats())
        };
        let (sols, levels) = profiled(&pats);
        assert_eq!(sorted(sols.clone()), sorted(eval_bgp_wco(&g, &pats)));
        let order = wco_variable_order(&g, &pats);
        assert_eq!(
            levels.iter().map(|&(b, _)| b).collect::<Vec<_>>(),
            order.into_iter().map(Binds::Var).collect::<Vec<_>>(),
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
        // after it holds that id.
        assert!(n("d") > n("b"), "d is interned last");
        let mut cur = encoded_trie(&g, &pat, &[Variable::new("x"), Variable::new("y")]);
        cur.open();
        assert_eq!(cur.value(), n("a"));
        cur.seek(n("b"));
        assert_eq!(cur.value(), n("b"));
        cur.open();
        assert_eq!(cur.value(), n("c"), "b's rows are the key's rows");
        cur.advance();
        assert_eq!(cur.key(), None);
        cur.up();
        assert_eq!(cur.value(), n("b"));
        cur.seek(n("d"));
        assert_eq!(cur.key(), None, "d leads rows only in the q block");
        cur.up();
        cur.open();
        assert_eq!(cur.value(), n("a"), "re-opening rewinds the level");
        assert_eq!(cur.op_stats().seeks, 2);
    }

    /// With delta segments pending, `(?x p ?y)` in order `[x, y]` is
    /// still a view: the keyed base PSO block plus each segment's own PSO
    /// run (the very slices `pattern_runs` hands out), and the walk
    /// yields exactly their rows.
    #[test]
    fn encoded_trie_views_pending_segments_over_pso() {
        let n = |i: usize| Iri::new(&format!("trie-staged-v{i}"));
        let (p, q) = (Iri::new("trie-staged-p"), Iri::new("trie-staged-q"));
        let edges = |range: std::ops::Range<usize>| {
            range.flat_map(move |i| {
                [
                    Triple::new(n(i % 7), p, n((i * 3) % 11)),
                    Triple::new(n((i * 5) % 9), q, n(i % 4)),
                ]
            })
        };
        let mut g = EncodedGraph::from_triples(edges(0..20));
        g.insert_batch(edges(20..30)).unwrap();
        g.insert_batch(edges(30..45)).unwrap();
        assert_eq!(g.segment_count(), 2, "both batches stay pending");

        let pat = tp(var("x"), Term::Iri(p), var("y"));
        let vars = [Variable::new("x"), Variable::new("y")];
        let trie = slice_trie(&g, &pat, &vars).expect("PSO fits with segments pending");
        let runs = g.pattern_runs(Perm::Pso, [None, Some(p), None]);
        assert_eq!(runs.deltas.len(), 2);
        let [Run::Keys(base), deltas @ ..] = trie.level0.as_slice() else {
            panic!("the base block is walked keyed");
        };
        let (mut base, mut base_rows) = (*base, Vec::new());
        while !base.keys.is_empty() {
            base_rows.extend_from_slice(base.first_rows());
            base.skip(1);
        }
        assert_eq!(base_rows, runs.base);
        assert_eq!(deltas.len(), runs.deltas.len());
        for (run, &delta) in deltas.iter().zip(&runs.deltas) {
            assert!(matches!(run, Run::Rows(rows) if std::ptr::eq(*rows, delta)));
        }

        let mut want: Vec<(Iri, Iri)> = runs.iter().flatten().map(|r| (r[1], r[2])).collect();
        want.sort_unstable();
        let mut cur = encoded_trie(&g, &pat, &vars);
        let mut got = Vec::new();
        cur.open();
        while let Some(x) = cur.key() {
            cur.open();
            while let Some(y) = cur.key() {
                got.push((x, y));
                cur.advance();
            }
            cur.up();
            cur.advance();
        }
        assert_eq!(got, want);
        let mut matched: Vec<(Iri, Iri)> =
            g.match_pattern(&pat).iter().map(|t| (t.s, t.o)).collect();
        matched.sort_unstable();
        assert_eq!(got, matched, "and those rows are the pattern's matches");
    }
}
