//! The k-consistency fixpoint implementing `(S, X) →µ_k G`, one level deep
//! and seeded from the index.
//!
//! Write `n` for the number of existential variables, `kk = min(k, n)`,
//! and call a triple of `µ(S)` *fitting* when it has between one and `kk`
//! distinct existential variables (a triple with more never lies under
//! the pebbles, so it constrains nothing). A *partial homomorphism* on a
//! set `D` of variables satisfies every fitting triple whose variables
//! lie in `D`. The Duplicator wins iff there is a non-empty family of
//! partial homomorphisms on at most `kk` variables that is closed under
//! restriction and has the forth property below `kk`; the game is decided
//! by the greatest such family `H`.
//!
//! # One level
//!
//! Only `L = H` restricted to the subsets of exactly `kk − 1` variables
//! is stored. Call a `kk`-tuple *live* when it is a partial homomorphism
//! and all its `(kk − 1)`-restrictions are in `L`; the fixpoint deletes
//! `f ∈ L` as soon as some variable `x ∉ dom(f)` has no value `a` with
//! `f ∪ {x ↦ a}` live, and the Duplicator wins iff no subset runs empty.
//! The greatest fixpoint `L*` is the `(kk − 1)`-level of `H`:
//!
//! * *`L*` generates a family.* Take the restrictions of the members of
//!   `L*` together with the live `kk`-tuples. Restrictions of partial
//!   homomorphisms are partial homomorphisms, so it is closed. Forth
//!   holds at level `kk − 1` by the fixpoint; below it, let `g = f|D'`
//!   with `f ∈ L*` and `x ∉ D'`: if `x ∈ dom(f)` then `f|D'∪{x}` extends
//!   `g`, otherwise `f` has a live extension `f' = f ∪ {x ↦ a}` and, for
//!   any `y ∈ dom(f) \ D'`, `f'` minus `y` is in `L*` and restricts to
//!   `g ∪ {x ↦ a}`. Hence the family lies inside `H`.
//! * *`H`'s level is a fixpoint.* Each `f ∈ H` on `kk − 1` variables
//!   extends inside `H` to any `x`, and that extension is a partial
//!   homomorphism whose restrictions are in `H`, i.e. live. Hence
//!   `H`'s level lies inside `L*`.
//!
//! If one subset is empty, no `kk`-tuple over a superset of it is live,
//! so every subset sharing all but one variable with it empties too, and
//! so on through all of them: the game stops at the first empty subset.
//!
//! # Seeding
//!
//! Every variable gets a sorted candidate list read off the index: the
//! intersection, over the fitting triples `t` that mention it, of its
//! column in `match_pattern(t)`. This loses nothing: if `f ∈ H` and
//! `f(x) = a`, then `{x ↦ a} ∈ H` by closure, and forth extends it one
//! variable at a time to all of `vars(t)` — at most `kk` of them, which
//! is where forth stops — giving a partial homomorphism that covers `t`,
//! so `a` is in `x`'s column. The argument needs singletons to be below
//! the top level whenever `t` has a second variable, which `k ≥ 2`
//! guarantees, and it fails for a triple with more than `kk` variables,
//! which therefore seeds nothing. Triples are visited from the most to
//! the least selective; once a variable of `t` has a short list, `t` is
//! matched once per listed value instead of once in full (the values a
//! live tuple can pair with are listed, by the same argument). Only a
//! variable that no fitting triple mentions falls back to `dom(G)`, and
//! an empty list ends the game before a tuple exists.
//!
//! The rows fetched for seeding are all the fixpoint needs: each fitting
//! triple with two or three variables keeps its matches as rows of
//! interned ids packed into integers, sorted once per variable, so that
//! "the values of `x` given the other variables" is one binary search for
//! a run of consecutive rows. Stored tuples are rows of ids too, generated
//! in sorted order through those runs; a tuple over a variable that no
//! table reaches takes every candidate. The index is not consulted again,
//! and after a deletion only the subsets that share all but one variable
//! with the one that shrank are examined again.

use std::cmp::Ordering;
use std::collections::{HashMap, VecDeque};
use wdsparql_hom::GenTGraph;
use wdsparql_rdf::{Iri, Mapping, Term, Triple, TripleIndex, TriplePattern, Variable};

/// Statistics from one run of the game, for the experiment harness.
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub struct PebbleStats {
    /// Partial homomorphisms generated on the stored level — the subsets
    /// of `kk − 1` variables (for a single variable, the empty one). Zero
    /// when seeding already decides the game.
    pub initial_assignments: usize,
    /// Stored partial homomorphisms deleted by the fixpoint.
    pub deleted: usize,
    /// Variable subsets of the stored level.
    pub subsets: usize,
}

/// `(S, X) →µ_k G`: does the Duplicator win the existential k-pebble game
/// on `(S, X)`, `G` and `µ` (with `dom(µ) ⊇ X`)?
///
/// Requires `k ≥ 2` (the paper's setting). When `vars(S) \ X = ∅` the game
/// degenerates to the direct check `(S, X) →µ G` (property (1) in §3).
pub fn duplicator_wins(src: &GenTGraph, g: &dyn TripleIndex, mu: &Mapping, k: usize) -> bool {
    pebble_game(src, g, mu, k).0
}

/// As [`duplicator_wins`], also returning statistics.
pub fn pebble_game(
    src: &GenTGraph,
    g: &dyn TripleIndex,
    mu: &Mapping,
    k: usize,
) -> (bool, PebbleStats) {
    assert!(k >= 2, "the existential pebble game needs k ≥ 2");
    debug_assert!(
        src.x.iter().all(|&v| mu.contains(v)),
        "µ must be defined on X"
    );
    let mut stats = PebbleStats::default();

    // Triples fully determined by µ must hold outright: they belong to
    // every configuration of the game, including the initial one. With no
    // existential variable that is the whole test.
    let mu_x = mu.restrict(src.x.iter().copied());
    let mut open: Vec<TriplePattern> = Vec::new();
    for t in src.s.iter() {
        let t = t.apply_partial(&mu_x);
        match t.as_triple() {
            Some(ground) if !g.contains(&ground) => return (false, stats),
            Some(_) => {}
            None => open.push(t),
        }
    }
    let vars: Vec<Variable> = src.existential_vars().into_iter().collect();
    if vars.is_empty() {
        return (true, stats);
    }

    let kk = k.min(vars.len());
    let Some(seeds) = Seeds::read(g, &vars, kk, &open) else {
        return (false, stats);
    };
    if kk == 1 {
        // One variable: the stored level is the empty tuple, and it
        // extends iff a candidate exists — which seeding just showed.
        stats.subsets = 1;
        stats.initial_assignments = 1;
        return (true, stats);
    }
    let wins = Game::new(seeds, kk, &mut stats).is_some_and(|mut game| game.run(&mut stats));
    (wins, stats)
}

/// How many full-scan rows one per-value probe is taken to be worth when
/// choosing between matching a triple once and once per candidate.
const ROWS_PER_PROBE: usize = 4;

/// A fitting triple of `µ(S)`.
struct Constraint {
    pat: TriplePattern,
    /// Its distinct existential variables (as indices), in order of first
    /// occurrence, and the triple position of each first occurrence.
    vars: Vec<usize>,
    slots: Vec<usize>,
    /// `candidate_count(pat)`: the rows a full match may return.
    count: usize,
}

/// The matches of a fitting triple with two or three variables `cols`, as
/// rows of interned ids — one 32-bit column per variable, most significant
/// first, unused low columns zero — sorted. The last variable is the one
/// the table is asked for, given the others.
struct Table {
    cols: Vec<usize>,
    rows: Vec<u128>,
}

/// Up to three ids as one row, the first in the most significant column.
fn pack(ids: impl Iterator<Item = u32>) -> u128 {
    ids.zip([64, 32, 0])
        .map(|(id, shift)| (id as u128) << shift)
        .sum()
}

impl Table {
    /// The rows whose first `width ≥ 1` columns carry the values `val`
    /// assigns to those columns' variables.
    fn run(&self, val: &[u32], width: usize) -> &[u128] {
        let from = pack(self.cols[..width].iter().map(|&v| val[v]));
        let to = from + (1 << (32 * (3 - width)));
        let start = self.rows.partition_point(|&row| row < from);
        let len = self.rows[start..].partition_point(|&row| row < to);
        &self.rows[start..start + len]
    }

    fn last_column(&self, row: u128) -> u32 {
        (row >> (32 * (3 - self.cols.len()))) as u32
    }
}

/// What seeding reads from the index: a sorted candidate list for every
/// variable and, for every fitting triple with several variables and each
/// of them, the table that ends in that variable.
struct Seeds {
    cands: Vec<Vec<Iri>>,
    tables: Vec<Table>,
}

impl Seeds {
    /// `None` when some variable has no candidate: the Duplicator loses.
    fn read(
        g: &dyn TripleIndex,
        vars: &[Variable],
        kk: usize,
        open: &[TriplePattern],
    ) -> Option<Seeds> {
        let mut fitting: Vec<Constraint> = open
            .iter()
            .filter_map(|t| {
                let (mut cvars, mut slots) = (Vec::new(), Vec::new());
                for (slot, term) in t.positions().into_iter().enumerate() {
                    if let Term::Var(v) = term {
                        // A variable of X that µ leaves unbound breaks the
                        // precondition; its triples constrain nothing.
                        let i = vars.binary_search(&v).ok()?;
                        if !cvars.contains(&i) {
                            cvars.push(i);
                            slots.push(slot);
                        }
                    }
                }
                (cvars.len() <= kk).then(|| Constraint {
                    pat: *t,
                    vars: cvars,
                    slots,
                    count: g.candidate_count(t),
                })
            })
            .collect();
        fitting.sort_by_key(|c| (c.vars.len(), c.count));

        let mut cands: Vec<Option<Vec<Iri>>> = vec![None; vars.len()];
        let mut tables = Vec::new();
        for c in &fitting {
            let shortest = c
                .vars
                .iter()
                .filter_map(|&v| cands[v].as_ref().map(|list| (list.len(), v)))
                .min();
            let matches: Vec<Triple> = match shortest {
                Some((len, v)) if ROWS_PER_PROBE * len < c.count => {
                    let list = cands[v].as_ref().expect("the shortest list exists");
                    let probe = |&a: &Iri| {
                        g.match_pattern(
                            &c.pat
                                .substitute(&|u| (u == vars[v]).then_some(Term::Iri(a))),
                        )
                    };
                    list.iter().flat_map(probe).collect()
                }
                _ => g.match_pattern(&c.pat),
            };
            // One sorted copy of the matches per variable, that variable
            // last; its first column is then the sorted column of the
            // variable after it, so every variable gets its turn.
            let arity = c.vars.len();
            for last in 0..arity {
                let order: Vec<usize> = (1..=arity).map(|j| (last + j) % arity).collect();
                let value = |t: &Triple, j: usize| t.terms()[c.slots[order[j]]];
                let mut rows: Vec<u128> = matches
                    .iter()
                    .map(|t| pack((0..arity).map(|j| value(t, j).id())))
                    .collect();
                rows.sort_unstable();
                let list = &mut cands[c.vars[order[0]]];
                let column = match list.take() {
                    Some(mut old) => {
                        let mut ids: Vec<u32> = rows.iter().map(|row| (row >> 64) as u32).collect();
                        ids.dedup();
                        old.retain(|a| ids.binary_search(&a.id()).is_ok());
                        old
                    }
                    None => {
                        let mut column: Vec<Iri> = matches.iter().map(|t| value(t, 0)).collect();
                        column.sort_unstable();
                        column.dedup();
                        column
                    }
                };
                if column.is_empty() {
                    return None;
                }
                *list = Some(column);
                if arity > 1 {
                    let cols = order.iter().map(|&o| c.vars[o]).collect();
                    tables.push(Table { cols, rows });
                }
            }
        }

        let mut dom: Option<Vec<Iri>> = None;
        let cands: Vec<Vec<Iri>> = cands
            .into_iter()
            .map(|list| {
                list.unwrap_or_else(|| dom.get_or_insert_with(|| g.dom().collect()).clone())
            })
            .collect();
        cands
            .iter()
            .all(|list| !list.is_empty())
            .then_some(Seeds { cands, tables })
    }
}

/// The stored partial homomorphisms of one `(kk − 1)`-subset `vars`: rows
/// of interned ids, sorted, stored flat.
struct Level {
    vars: Vec<usize>,
    flat: Vec<u32>,
    alive: Vec<bool>,
    live: usize,
}

impl Level {
    fn row(&self, r: usize) -> &[u32] {
        &self.flat[r * self.vars.len()..(r + 1) * self.vars.len()]
    }

    /// Is `val`, restricted to `vars`, stored and not deleted?
    fn holds(&self, val: &[u32]) -> bool {
        let key = self.vars.iter().map(|&v| val[v]);
        let (mut lo, mut hi) = (0, self.alive.len());
        while lo < hi {
            let mid = lo + (hi - lo) / 2;
            match self.row(mid).iter().copied().cmp(key.clone()) {
                Ordering::Less => lo = mid + 1,
                Ordering::Greater => hi = mid,
                Ordering::Equal => return self.alive[mid],
            }
        }
        false
    }
}

/// A `kk`-subset `vars`: where forth is tested. Dropping `vars[i]` gives
/// the level `faces[i]`, whose tuples must extend to `vars[i]`;
/// `tables[i]` are the tables that end in `vars[i]` and fit inside.
struct Superset {
    vars: Vec<usize>,
    faces: Vec<usize>,
    tables: Vec<Vec<usize>>,
}

struct Game {
    /// Candidate ids per variable.
    cands: Vec<Vec<u32>>,
    tables: Vec<Table>,
    levels: Vec<Level>,
    supersets: Vec<Superset>,
    /// Per level, the supersets it is a face of, with its face number.
    above: Vec<Vec<(usize, usize)>>,
}

/// The `size`-subsets of `0..n`, lexicographically.
fn subsets(n: usize, size: usize) -> Vec<Vec<usize>> {
    let mut out = vec![Vec::new()];
    for _ in 0..size {
        out = out
            .into_iter()
            .flat_map(|s: Vec<usize>| {
                let from = s.last().map_or(0, |&l| l + 1);
                (from..n).map(move |x| s.iter().copied().chain([x]).collect())
            })
            .collect();
    }
    out
}

impl Game {
    /// Builds the stored level; `None` when a subset starts out empty.
    fn new(seeds: Seeds, kk: usize, stats: &mut PebbleStats) -> Option<Game> {
        let n = seeds.cands.len();
        let mut game = Game {
            cands: seeds
                .cands
                .iter()
                .map(|list| list.iter().map(|a| a.id()).collect())
                .collect(),
            tables: seeds.tables,
            levels: Vec::new(),
            supersets: Vec::new(),
            above: Vec::new(),
        };

        let level_vars = subsets(n, kk - 1);
        stats.subsets = level_vars.len();
        let mut val = vec![0; n];
        for vars in &level_vars {
            let by_depth: Vec<Vec<usize>> = (0..vars.len())
                .map(|d| game.tables_ending_in(vars[d], &vars[..d]))
                .collect();
            let mut flat = Vec::new();
            game.fill(vars, &by_depth, 0, &mut val, &mut flat);
            let count = flat.len() / vars.len();
            stats.initial_assignments += count;
            if count == 0 {
                return None;
            }
            game.levels.push(Level {
                vars: vars.clone(),
                flat,
                alive: vec![true; count],
                live: count,
            });
        }

        let level_of: HashMap<&[usize], usize> = level_vars
            .iter()
            .enumerate()
            .map(|(i, vars)| (vars.as_slice(), i))
            .collect();
        game.above = vec![Vec::new(); level_vars.len()];
        for vars in subsets(n, kk) {
            let s = game.supersets.len();
            let mut faces = Vec::with_capacity(kk);
            let mut fitting = Vec::with_capacity(kk);
            for i in 0..kk {
                let face: Vec<usize> = vars.iter().copied().filter(|&v| v != vars[i]).collect();
                let level = level_of[face.as_slice()];
                game.above[level].push((s, i));
                faces.push(level);
                fitting.push(game.tables_ending_in(vars[i], &face));
            }
            game.supersets.push(Superset {
                vars,
                faces,
                tables: fitting,
            });
        }
        Some(game)
    }

    /// The tables that give `x` from variables among `bound`.
    fn tables_ending_in(&self, x: usize, bound: &[usize]) -> Vec<usize> {
        (0..self.tables.len())
            .filter(|&t| {
                let (last, rest) = self.tables[t].cols.split_last().expect("arity ≥ 2");
                *last == x && rest.iter().all(|v| bound.contains(v))
            })
            .collect()
    }

    /// Offers `accept` every candidate of `x` that satisfies `tables` under
    /// `val`, ascending, with `val[x]` set to it, until one is accepted.
    /// The shortest run generates the values and the other tables filter;
    /// with no table every candidate is offered.
    fn extend(
        &self,
        x: usize,
        tables: &[usize],
        val: &mut [u32],
        mut accept: impl FnMut(&mut [u32]) -> bool,
    ) -> bool {
        let given = |t: usize| self.tables[t].cols.len() - 1;
        let Some((first, run)) = tables
            .iter()
            .map(|&t| (t, self.tables[t].run(val, given(t))))
            .min_by_key(|(_, run)| run.len())
        else {
            return self.cands[x].iter().any(|&a| {
                val[x] = a;
                accept(val)
            });
        };
        run.iter().any(|&row| {
            let a = self.tables[first].last_column(row);
            val[x] = a;
            let fits = |&t: &usize| t == first || !self.tables[t].run(val, given(t) + 1).is_empty();
            // A table also holds the matches that another triple's column
            // has since struck from `x`'s candidates.
            self.cands[x].binary_search(&a).is_ok() && tables.iter().all(fits) && accept(val)
        })
    }

    /// Appends, in order, every partial homomorphism on `vars` that
    /// extends `val` on `vars[..depth]`.
    fn fill(
        &self,
        vars: &[usize],
        by_depth: &[Vec<usize>],
        depth: usize,
        val: &mut [u32],
        out: &mut Vec<u32>,
    ) {
        if depth == vars.len() {
            out.extend(vars.iter().map(|&v| val[v]));
            return;
        }
        self.extend(vars[depth], &by_depth[depth], val, |val| {
            self.fill(vars, by_depth, depth + 1, val, out);
            false
        });
    }

    /// Deletes tuples without an extension until none is left to delete
    /// (the Duplicator wins) or a subset is empty (the Spoiler wins).
    fn run(&mut self, stats: &mut PebbleStats) -> bool {
        let kk = self.supersets[0].vars.len();
        // (superset, i): the tuples of face i must extend to vars[i].
        let mut queue: VecDeque<(usize, usize)> = (0..self.supersets.len())
            .flat_map(|s| (0..kk).map(move |i| (s, i)))
            .collect();
        let mut queued = vec![true; self.supersets.len() * kk];
        let mut val = vec![0; self.cands.len()];
        while let Some((s, i)) = queue.pop_front() {
            queued[s * kk + i] = false;
            let sup = &self.supersets[s];
            let face = sup.faces[i];
            let level = &self.levels[face];
            let doomed: Vec<usize> = (0..level.alive.len())
                .filter(|&r| {
                    level.alive[r] && {
                        for (&v, &a) in level.vars.iter().zip(level.row(r)) {
                            val[v] = a;
                        }
                        !self.extend(sup.vars[i], &sup.tables[i], &mut val, |val| {
                            let kept =
                                |(j, &f): (usize, &usize)| j == i || self.levels[f].holds(val);
                            sup.faces.iter().enumerate().all(kept)
                        })
                    }
                })
                .collect();
            if doomed.is_empty() {
                continue;
            }
            stats.deleted += doomed.len();
            let level = &mut self.levels[face];
            level.live -= doomed.len();
            for r in doomed {
                level.alive[r] = false;
            }
            if level.live == 0 {
                return false;
            }
            // Only tuples over subsets that share all but one variable
            // with this one can have lost their extension.
            for &(s2, j) in &self.above[face] {
                for i2 in (0..kk).filter(|&i2| i2 != j) {
                    if !std::mem::replace(&mut queued[s2 * kk + i2], true) {
                        queue.push_back((s2, i2));
                    }
                }
            }
        }
        true
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use wdsparql_hom::{find_hom_into_graph, GenTGraph, TGraph};
    use wdsparql_rdf::term::{iri, var};
    use wdsparql_rdf::tp;
    use wdsparql_rdf::RdfGraph;

    fn v(n: &str) -> Variable {
        Variable::new(n)
    }

    fn triangle() -> TGraph {
        TGraph::from_patterns([
            tp(var("a"), iri("r"), var("b")),
            tp(var("b"), iri("r"), var("c")),
            tp(var("c"), iri("r"), var("a")),
        ])
    }

    fn path(n: usize) -> TGraph {
        TGraph::from_patterns(
            (0..n).map(|i| tp(var(&format!("v{i}")), iri("r"), var(&format!("v{}", i + 1)))),
        )
    }

    fn path_graph(n: usize) -> RdfGraph {
        RdfGraph::from_triples((0..n).map(|i| {
            wdsparql_rdf::Triple::from_strs(&format!("n{i}"), "r", &format!("n{}", i + 1))
        }))
    }

    #[test]
    fn hom_implies_pebble_win() {
        // Property (2): →µ implies →µ_k.
        let g = RdfGraph::from_strs([("1", "r", "2"), ("2", "r", "3"), ("3", "r", "1")]);
        let src = GenTGraph::new(triangle(), []);
        assert!(find_hom_into_graph(&src, &g, &Mapping::new()).is_some());
        for k in 2..=4 {
            assert!(duplicator_wins(&src, &g, &Mapping::new(), k), "k={k}");
        }
    }

    #[test]
    fn two_pebbles_cannot_refute_triangle_into_two_cycle() {
        // The classic relaxation gap: K3 (ctw 2) has no hom into the
        // directed 2-cycle, but the Duplicator wins with 2 pebbles.
        let g = RdfGraph::from_strs([("1", "r", "2"), ("2", "r", "1")]);
        let src = GenTGraph::new(triangle(), []);
        assert!(find_hom_into_graph(&src, &g, &Mapping::new()).is_none());
        assert!(duplicator_wins(&src, &g, &Mapping::new(), 2));
        // Three pebbles pin all variables: Spoiler wins (Proposition 3,
        // ctw = 2 ≤ 3 − 1).
        assert!(!duplicator_wins(&src, &g, &Mapping::new(), 3));
    }

    #[test]
    fn path_queries_are_exact_at_k2() {
        // Paths have ctw 1, so k = 2 decides homomorphism exactly
        // (Proposition 3).
        for len in 1..=4 {
            let src = GenTGraph::new(path(len), []);
            for target_len in 1..=4 {
                let g = path_graph(target_len);
                let hom = find_hom_into_graph(&src, &g, &Mapping::new()).is_some();
                let peb = duplicator_wins(&src, &g, &Mapping::new(), 2);
                assert_eq!(hom, peb, "path {len} into path {target_len}");
                assert_eq!(hom, len <= target_len);
            }
        }
    }

    #[test]
    fn mu_constrains_the_game() {
        // Path of length 2 pinned at both ends.
        let src = GenTGraph::new(path(2), [v("v0"), v("v2")]);
        let g = path_graph(2);
        let good = Mapping::from_strs([("v0", "n0"), ("v2", "n2")]);
        let bad = Mapping::from_strs([("v0", "n1"), ("v2", "n1")]);
        assert!(duplicator_wins(&src, &g, &good, 2));
        assert!(!duplicator_wins(&src, &g, &bad, 2));
    }

    #[test]
    fn no_existential_vars_degenerates_to_hom_check() {
        let s = TGraph::from_patterns([tp(var("x"), iri("r"), var("y"))]);
        let src = GenTGraph::new(s, [v("x"), v("y")]);
        let g = RdfGraph::from_strs([("a", "r", "b")]);
        let yes = Mapping::from_strs([("x", "a"), ("y", "b")]);
        let no = Mapping::from_strs([("x", "b"), ("y", "a")]);
        for k in 2..=3 {
            assert!(duplicator_wins(&src, &g, &yes, k));
            assert!(!duplicator_wins(&src, &g, &no, k));
        }
    }

    #[test]
    fn empty_graph_defeats_duplicator() {
        let src = GenTGraph::new(path(1), []);
        let g = RdfGraph::new();
        assert!(!duplicator_wins(&src, &g, &Mapping::new(), 2));
    }

    #[test]
    fn ground_source_triples_must_be_in_graph() {
        let s = TGraph::from_patterns([
            tp(iri("a"), iri("r"), iri("b")),
            tp(var("x"), iri("r"), var("y")),
        ]);
        let src = GenTGraph::new(s, []);
        let with = RdfGraph::from_strs([("a", "r", "b")]);
        let without = RdfGraph::from_strs([("a", "r", "c")]);
        assert!(duplicator_wins(&src, &with, &Mapping::new(), 2));
        assert!(!duplicator_wins(&src, &without, &Mapping::new(), 2));
    }

    #[test]
    fn pebble_agrees_with_hom_on_low_ctw_random_instances() {
        // Deterministic LCG-driven random star/path-shaped queries
        // (ctw ≤ 1) against small random graphs: k = 2 must agree with →.
        let mut state = 0xDEADBEEFu64;
        let mut next = move |m: u64| {
            state = state
                .wrapping_mul(6364136223846793005)
                .wrapping_add(1442695040888963407);
            (state >> 33) % m
        };
        for trial in 0..30 {
            let n_edges = 3 + next(6) as usize;
            let g = RdfGraph::from_triples((0..n_edges).map(|_| {
                wdsparql_rdf::Triple::from_strs(
                    &format!("g{}", next(5)),
                    "r",
                    &format!("g{}", next(5)),
                )
            }));
            // Random path query of length 1..4.
            let len = 1 + next(3) as usize;
            let src = GenTGraph::new(path(len), []);
            let hom = find_hom_into_graph(&src, &g, &Mapping::new()).is_some();
            let peb = duplicator_wins(&src, &g, &Mapping::new(), 2);
            assert_eq!(hom, peb, "trial {trial}");
        }
    }

    #[test]
    fn stats_are_populated() {
        let g = path_graph(3);
        let src = GenTGraph::new(path(2), []);
        let (win, stats) = pebble_game(&src, &g, &Mapping::new(), 2);
        assert!(win);
        assert!(stats.subsets > 0);
        assert!(stats.initial_assignments > 0);
    }

    #[test]
    #[should_panic(expected = "k ≥ 2")]
    fn k_one_is_rejected() {
        let g = path_graph(1);
        let src = GenTGraph::new(path(1), []);
        let _ = duplicator_wins(&src, &g, &Mapping::new(), 1);
    }

    #[test]
    fn a_triple_with_more_variables_than_pebbles_constrains_nothing() {
        // With two pebbles (?a, ?b, ?c) never lies under them: it neither
        // filters tuples nor seeds candidates, although no triple has
        // ?a's only candidate as its subject. Three pebbles cover it.
        let s = TGraph::from_patterns([
            tp(var("a"), var("b"), var("c")),
            tp(iri("1"), iri("q"), var("a")),
        ]);
        let src = GenTGraph::new(s, []);
        let g = RdfGraph::from_strs([("1", "q", "2")]);
        assert!(find_hom_into_graph(&src, &g, &Mapping::new()).is_none());
        assert!(duplicator_wins(&src, &g, &Mapping::new(), 2));
        assert!(!duplicator_wins(&src, &g, &Mapping::new(), 3));
    }

    /// Counts the index calls of one game.
    struct Counting<'a> {
        g: &'a RdfGraph,
        dom: std::cell::Cell<usize>,
        matches: std::cell::Cell<usize>,
        contains: std::cell::Cell<usize>,
    }

    impl<'a> Counting<'a> {
        fn new(g: &'a RdfGraph) -> Counting<'a> {
            Counting {
                g,
                dom: Default::default(),
                matches: Default::default(),
                contains: Default::default(),
            }
        }
    }

    impl TripleIndex for Counting<'_> {
        fn len(&self) -> usize {
            self.g.len()
        }
        fn contains(&self, t: &Triple) -> bool {
            self.contains.set(self.contains.get() + 1);
            self.g.contains(t)
        }
        fn triples(&self) -> Box<dyn Iterator<Item = Triple> + '_> {
            Box::new(self.g.iter().copied())
        }
        fn dom(&self) -> Box<dyn Iterator<Item = Iri> + '_> {
            self.dom.set(self.dom.get() + 1);
            Box::new(self.g.dom())
        }
        fn dom_contains(&self, i: Iri) -> bool {
            self.g.dom_contains(i)
        }
        fn candidate_count(&self, pat: &TriplePattern) -> usize {
            self.g.candidate_count(pat)
        }
        fn match_pattern(&self, pat: &TriplePattern) -> Vec<Triple> {
            self.matches.set(self.matches.get() + 1);
            self.g.match_pattern(pat)
        }
    }

    #[test]
    fn the_index_is_read_by_pattern_and_dom_only_for_an_unmentioned_variable() {
        let g = path_graph(6);
        let ix = Counting::new(&g);
        assert!(duplicator_wins(
            &GenTGraph::new(path(3), []),
            &ix,
            &Mapping::new(),
            2
        ));
        assert_eq!((ix.dom.get(), ix.contains.get()), (0, 0));
        // One match per triple: no list is short against six r-edges.
        assert_eq!(ix.matches.get(), 3);

        // ?b and ?c occur only in a triple too wide for two pebbles.
        let s = TGraph::from_patterns([
            tp(var("a"), var("b"), var("c")),
            tp(var("a"), iri("r"), iri("n1")),
        ]);
        let ix = Counting::new(&g);
        assert!(duplicator_wins(
            &GenTGraph::new(s, []),
            &ix,
            &Mapping::new(),
            2
        ));
        assert_eq!(ix.dom.get(), 1);
    }

    #[test]
    fn a_short_candidate_list_is_probed_value_by_value() {
        // ?v0 is pinned to n0 by the first triple, so the r-edges out of
        // it are fetched with one probe instead of a scan of all forty;
        // the verdict is the full scan's.
        let g = path_graph(40);
        let s = path(3).union(&TGraph::from_patterns([tp(iri("n0"), iri("r"), var("v1"))]));
        let src = GenTGraph::new(s, []);
        let ix = Counting::new(&g);
        let (wins, stats) = pebble_game(&src, &ix, &Mapping::new(), 2);
        assert!(wins);
        // (n0,r,?v1) in full; (?v1,r,?v2) and (?v0,r,?v1) from ?v1's one
        // value; (?v2,r,?v3) from ?v2's one value.
        assert_eq!(ix.matches.get(), 4);
        assert_eq!(stats.initial_assignments, 4);
        assert_eq!(stats.deleted, 0);
    }

    #[test]
    fn stats_count_the_stored_level() {
        // K3 into the directed 2-cycle with three pebbles: the stored
        // level is the three pairs of variables, each with the two
        // orientations of the cycle, and none of them survives.
        let g = RdfGraph::from_strs([("1", "r", "2"), ("2", "r", "1")]);
        let (wins, stats) = pebble_game(&GenTGraph::new(triangle(), []), &g, &Mapping::new(), 3);
        assert!(!wins);
        assert_eq!(stats.subsets, 3);
        assert_eq!(stats.initial_assignments, 6);
        assert!(stats.deleted >= 2, "one pair of variables was emptied");
        // One variable: the empty tuple, kept.
        let one = GenTGraph::new(
            TGraph::from_patterns([tp(var("a"), iri("r"), iri("2"))]),
            [],
        );
        let (wins, stats) = pebble_game(&one, &g, &Mapping::new(), 2);
        assert!(wins);
        assert_eq!(
            (stats.subsets, stats.initial_assignments, stats.deleted),
            (1, 1, 0)
        );
    }
}
