//! The Theorem 1 evaluator — the natural algorithm with homomorphism tests
//! replaced by the existential (k+1)-pebble game — and the portfolio that
//! `Strategy::Auto` runs: exact Lemma 1 child tests under a step budget,
//! with the game only for the children they leave open.
//!
//! # Theorem 1
//!
//! For each tree `T_i`: find the unique subtree `T^µ_i` with
//! `vars(T^µ_i) = dom(µ)` mapped by `µ` into `G`; accept if *no* child `n`
//! satisfies `(pat(T^µ_i) ∪ pat(n), vars(T^µ_i)) →µ_{k+1} G`; otherwise
//! move to the next tree; reject after the last tree.
//!
//! * **Soundness** is unconditional: if `µ ∉ ⟦F⟧_G` the algorithm rejects,
//!   because `→µ` implies `→µ_{k+1}` (property (2) in §3).
//! * **Completeness** holds whenever `dw(F) ≤ k` (Theorem 1's proof).
//! * Running time is polynomial for fixed `k` (Proposition 2).
//!
//! # The portfolio
//!
//! [`check_forest_auto`] decides each child test exactly where that is
//! cheap, and plays the game at `k = dw(F)` only where it is not:
//!
//! 1. For every tree, each child of `T^µ` runs through the exact search
//!    of Lemma 1 ([`find_hom_into_graph_within`]) with a budget of
//!    `EXACT_STEPS` candidate images. A child that extends rejects its
//!    tree; a tree whose children are all refuted accepts, and so does the
//!    forest, at once. A child whose search gives up stays open.
//! 2. Only if some tree still has open children is `dw(F)` computed, once,
//!    and the game played on those children, tree by tree. Children that
//!    step 1 refuted are not replayed.
//!
//! The verdict is exact for every forest:
//!
//! * Pebble acceptance at a tree `T` implies exact acceptance at `T`,
//!   because `→µ` implies `→µ_{k+1}`. So an exact rejection at `T` implies
//!   a pebble rejection at `T`.
//! * A mixed rejection of `T` comes from a child that either really
//!   extends or extends in the game. Either way the Theorem 1 algorithm
//!   also rejects `T`.
//! * If every tree rejects in the mixed run, the Theorem 1 algorithm
//!   rejects every tree. With `k = dw(F)` it is complete (Theorem 3), so
//!   `µ ∉ ⟦F⟧_G`.
//! * A mixed acceptance is an exact acceptance: every child of `T^µ` was
//!   refuted by the search or by the game, and the game only refutes what
//!   has no homomorphism. Lemma 1 then puts `µ` in `⟦T⟧_G`.
//!
//! Step 1 costs at most `EXACT_STEPS` candidate steps per child, each
//! polynomial, so the bound for classes of bounded domination width stays
//! polynomial.

use crate::lemma1::{child_source, mu_nodes};
use wdsparql_hom::{find_hom_into_graph_within, GenTGraph, Undecided};
use wdsparql_pebble::duplicator_wins;
use wdsparql_rdf::{Mapping, TripleIndex};
use wdsparql_tree::{children_of_nodes, Wdpf, Wdpt};

/// The candidate images one child's exact search in [`check_forest_auto`]
/// may try before the child is left to the game.
///
/// The rule: a search that gives up is wasted work, so it must cost at
/// most a tenth of the fallback it precedes — one recognition of `dw(F_3)`
/// plus one game on `F_3`'s clique child, on a `TripleStore` holding
/// `fk_instance(3, 12)` — and the budget is the largest power of two that
/// does. Measured on a 2-core x86-64 box: the fallback costs about 42 µs
/// (35 µs recognition, 7 µs game) and one step about 0.35 µs, so a
/// give-up costs 3 µs at 8 steps (7 %) and 5.5 µs at 16 (13 %). The child
/// tests of the social-network questions `membership` asks need at most
/// one step, and so do all of `F_k`'s children but the clique.
const EXACT_STEPS: usize = 8;

/// Which algorithm settled a [`check_forest_auto`] verdict.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum Route {
    /// Every child test that mattered was decided by the budgeted exact
    /// search; `dw` was never computed.
    Exact,
    /// Some tree needed the pebble game, played at `k = dw(F)` with
    /// `max(k, 1) + 1` pebbles on the children the search left open.
    Pebble { k: usize },
}

/// One tree of the Theorem 1 loop. `k` is the domination-width bound; the
/// pebble game is played with `max(k, 1) + 1` pebbles (`dw ≥ 1` always,
/// and more pebbles keep the algorithm sound).
///
/// [`crate::mu_subtree`] has already shown that `µ` maps `pat(T^µ)` into `G`, so
/// each child's game is played on `pat(n)` alone with `X = vars(n) ∩
/// dom(µ)`: the triples of `pat(T^µ)` are ground under `µ` and would only
/// be looked up again, once per child.
pub fn check_tree_pebble(t: &Wdpt, g: &dyn TripleIndex, mu: &Mapping, k: usize) -> bool {
    let Some(st) = mu_nodes(t, g, mu) else {
        return false;
    };
    let refuted = children_of_nodes(t, &st)
        .all(|n| !duplicator_wins(&child_source(t, n, mu), g, mu, k.max(1) + 1));
    refuted
}

/// The full Theorem 1 algorithm on a forest: `µ ∈ ⟦F⟧_G`, correct whenever
/// `dw(F) ≤ k`; always sound (accepting implies membership).
pub fn check_forest_pebble(f: &Wdpf, g: &dyn TripleIndex, mu: &Mapping, k: usize) -> bool {
    f.trees.iter().any(|t| check_tree_pebble(t, g, mu, k))
}

/// `µ ∈ ⟦F⟧_G` by the portfolio of the module doc: exact for every forest,
/// polynomial for every class of bounded domination width. `dw` is called
/// at most once, and only when some child test is left to the game; the
/// [`Route`] says whether it was.
pub fn check_forest_auto(
    f: &Wdpf,
    g: &dyn TripleIndex,
    mu: &Mapping,
    dw: impl FnOnce() -> usize,
) -> (bool, Route) {
    check_forest_within(f, g, mu, EXACT_STEPS, dw)
}

/// [`check_forest_auto`] with the budget as a parameter: `0` leaves almost
/// every child to the game, `usize::MAX` decides every child exactly.
fn check_forest_within(
    f: &Wdpf,
    g: &dyn TripleIndex,
    mu: &Mapping,
    steps: usize,
    dw: impl FnOnce() -> usize,
) -> (bool, Route) {
    let mut open: Vec<Vec<GenTGraph>> = Vec::new();
    'trees: for t in &f.trees {
        let Some(st) = mu_nodes(t, g, mu) else {
            continue;
        };
        let mut left = Vec::new();
        for n in children_of_nodes(t, &st) {
            let src = child_source(t, n, mu);
            match find_hom_into_graph_within(&src, g, mu, steps) {
                Ok(Some(_)) => continue 'trees,
                Ok(None) => {}
                Err(Undecided) => left.push(src),
            }
        }
        if left.is_empty() {
            return (true, Route::Exact);
        }
        open.push(left);
    }
    if open.is_empty() {
        return (false, Route::Exact);
    }
    let k = dw();
    let accepted = open.iter().any(|children| {
        children
            .iter()
            .all(|src| !duplicator_wins(src, g, mu, k.max(1) + 1))
    });
    (accepted, Route::Pebble { k })
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::explain::check_forest;
    use wdsparql_algebra::parse_pattern;
    use wdsparql_rdf::RdfGraph;
    use wdsparql_rdf::Triple;

    fn forest(text: &str) -> Wdpf {
        Wdpf::from_pattern(&parse_pattern(text).unwrap()).unwrap()
    }

    #[test]
    fn agrees_with_naive_on_bounded_width_pattern() {
        // Path-shaped OPTs: dw = bw = 1, so k = 1 (2 pebbles) is complete.
        let f = forest("(?x, p, ?y) OPT ((?y, q, ?z) OPT (?z, q, ?w))");
        let g = RdfGraph::from_strs([
            ("a", "p", "b"),
            ("b", "q", "c"),
            ("c", "q", "d"),
            ("e", "p", "f"),
        ]);
        for mu in [
            Mapping::from_strs([("x", "a"), ("y", "b"), ("z", "c"), ("w", "d")]),
            Mapping::from_strs([("x", "a"), ("y", "b"), ("z", "c")]),
            Mapping::from_strs([("x", "a"), ("y", "b")]),
            Mapping::from_strs([("x", "e"), ("y", "f")]),
            Mapping::from_strs([("x", "b"), ("y", "a")]),
            Mapping::new(),
        ] {
            assert_eq!(
                check_forest(&f, &g, &mu),
                check_forest_pebble(&f, &g, &mu, 1),
                "µ = {mu}"
            );
        }
    }

    #[test]
    fn soundness_holds_even_below_the_width() {
        // A clique-child query of bw 2 evaluated with k = 1: the pebble
        // algorithm may reject members, but must never accept a
        // non-member (soundness is unconditional).
        let f = forest(
            "(?x, p, ?y) OPT (((?y, r, ?o1) AND (?o1, r, ?o2)) AND \
             ((?o2, r, ?o3) AND ((?o1, r, ?o3) AND (?y, r, ?o3))))",
        );
        let mut g = RdfGraph::new();
        g.insert(Triple::from_strs("a", "p", "b"));
        // r-edges forming a structure with no suitable triangle extension.
        for (s, o) in [("b", "u"), ("u", "v"), ("v", "w"), ("b", "w")] {
            g.insert(Triple::from_strs(s, "r", o));
        }
        let candidates = [
            Mapping::from_strs([("x", "a"), ("y", "b")]),
            Mapping::from_strs([
                ("x", "a"),
                ("y", "b"),
                ("o1", "u"),
                ("o2", "v"),
                ("o3", "w"),
            ]),
            Mapping::from_strs([("x", "b"), ("y", "a")]),
        ];
        for mu in &candidates {
            if check_forest_pebble(&f, &g, mu, 1) {
                assert!(check_forest(&f, &g, mu), "false accept for {mu}");
            }
        }
    }

    #[test]
    fn higher_k_restores_completeness() {
        // Same clique-child query with k = 2 (3 pebbles ≥ ctw + 1): exact.
        let f = forest("(?x, p, ?y) OPT (((?y, r, ?o1) AND (?o1, r, ?o2)) AND (?o2, r, ?o1))");
        let g = RdfGraph::from_strs([
            ("a", "p", "b"),
            ("b", "r", "c"),
            ("c", "r", "d"),
            ("d", "r", "c"),
        ]);
        for mu in [
            Mapping::from_strs([("x", "a"), ("y", "b")]),
            Mapping::from_strs([("x", "a"), ("y", "b"), ("o1", "c"), ("o2", "d")]),
        ] {
            assert_eq!(
                check_forest(&f, &g, &mu),
                check_forest_pebble(&f, &g, &mu, 2),
                "µ = {mu}"
            );
        }
    }

    #[test]
    fn k_zero_plays_with_two_pebbles() {
        let f = forest("(?x, p, ?y) OPT (?y, q, ?z)");
        let g = RdfGraph::from_strs([("a", "p", "b"), ("b", "q", "c"), ("e", "p", "f")]);
        for mu in [
            Mapping::from_strs([("x", "a"), ("y", "b")]),
            Mapping::from_strs([("x", "e"), ("y", "f")]),
        ] {
            assert_eq!(
                check_forest_pebble(&f, &g, &mu, 0),
                check_forest(&f, &g, &mu),
                "µ = {mu}"
            );
        }
    }

    #[test]
    fn rejects_when_no_tree_matches() {
        let f = forest("(?x, p, ?y)");
        let g = RdfGraph::from_strs([("a", "q", "b")]);
        assert!(!check_forest_pebble(
            &f,
            &g,
            &Mapping::from_strs([("x", "a"), ("y", "b")]),
            1
        ));
    }

    /// The Turán adversary of the `F_k` instances, built inline: `(a, p, b)`
    /// for the root, a complete bipartite `r`-graph on `t0..t7` (no
    /// triangle), and `b`'s `r`-edges into one side only.
    fn turan_adversary() -> RdfGraph {
        let mut g = RdfGraph::new();
        g.insert(Triple::from_strs("a", "p", "b"));
        for u in 0..8 {
            for v in 0..8 {
                if u % 2 != v % 2 {
                    g.insert(Triple::from_strs(&format!("t{u}"), "r", &format!("t{v}")));
                }
            }
            if u % 2 == 0 {
                g.insert(Triple::from_strs("b", "r", &format!("t{u}")));
            }
        }
        g
    }

    /// Every budget, from 0 (nearly every child to the game) to unbounded
    /// (every child by Lemma 1, `dw` never computed), gives the verdict of
    /// the exact algorithm, on the forests above and on `F_3`, its negative
    /// instance and `Q_3` against the Turán adversary.
    #[test]
    fn every_budget_gives_the_exact_verdict() {
        const CLIQUE_CHILD: &str = "((?y, r, ?o1) AND ((?o1, r, ?o2) AND \
                                    ((?o1, r, ?o3) AND (?o2, r, ?o3))))";
        let f3 = forest(&format!(
            "(((?x, p, ?y) OPT (?z, q, ?x)) OPT {CLIQUE_CHILD}) UNION \
             (((?x, p, ?y) OPT ((?z, q, ?x) AND (?w, q, ?z))) UNION \
             (((?x, p, ?y) AND (?z, q, ?x)) OPT ((?y, r, ?o) AND (?o, r, ?o))))"
        ));
        let q3 = forest(&format!("(?x, p, ?y) OPT {CLIQUE_CHILD}"));
        let adversary = turan_adversary();
        let mut negative = adversary.clone();
        negative.insert(Triple::from_strs("z0", "q", "a"));
        negative.insert(Triple::from_strs("w0", "q", "z0"));
        let pinned = [
            Mapping::from_strs([("x", "a"), ("y", "b")]),
            Mapping::from_strs([("x", "a"), ("y", "b"), ("z", "z0")]),
            Mapping::from_strs([("x", "a"), ("y", "b"), ("o1", "t0")]),
            Mapping::new(),
        ];
        let path = RdfGraph::from_strs([
            ("a", "p", "b"),
            ("b", "q", "c"),
            ("c", "q", "d"),
            ("e", "p", "f"),
        ]);
        let two_cycle = RdfGraph::from_strs([
            ("a", "p", "b"),
            ("b", "r", "c"),
            ("c", "r", "d"),
            ("d", "r", "c"),
        ]);
        let cases = [
            (f3.clone(), adversary.clone(), pinned.to_vec()),
            (f3, negative, pinned.to_vec()),
            (q3, adversary, pinned.to_vec()),
            (
                forest("(?x, p, ?y) OPT ((?y, q, ?z) OPT (?z, q, ?w))"),
                path,
                vec![
                    Mapping::from_strs([("x", "a"), ("y", "b"), ("z", "c"), ("w", "d")]),
                    Mapping::from_strs([("x", "a"), ("y", "b"), ("z", "c")]),
                    Mapping::from_strs([("x", "a"), ("y", "b")]),
                    Mapping::from_strs([("x", "e"), ("y", "f")]),
                ],
            ),
            (
                forest("(?x, p, ?y) OPT (((?y, r, ?o1) AND (?o1, r, ?o2)) AND (?o2, r, ?o1))"),
                two_cycle,
                vec![
                    Mapping::from_strs([("x", "a"), ("y", "b")]),
                    Mapping::from_strs([("x", "a"), ("y", "b"), ("o1", "c"), ("o2", "d")]),
                ],
            ),
        ];
        let mut routes = [0usize; 2];
        for steps in [0, 1, 2, 4, 8, 16, 64, 256, usize::MAX] {
            for (f, g, mus) in &cases {
                let dw = wdsparql_width::domination_width(f);
                for mu in mus {
                    let (verdict, route) = if steps == usize::MAX {
                        check_forest_within(f, g, mu, steps, || -> usize {
                            unreachable!("an unbounded search never falls back")
                        })
                    } else {
                        check_forest_within(f, g, mu, steps, || dw)
                    };
                    assert_eq!(verdict, check_forest(f, g, mu), "steps = {steps}, µ = {mu}");
                    match route {
                        Route::Exact => routes[0] += 1,
                        Route::Pebble { k } => {
                            assert_eq!(k, dw);
                            routes[1] += 1;
                        }
                    }
                }
            }
        }
        assert!(
            routes[0] > 0 && routes[1] > 0,
            "both routes taken: {routes:?}"
        );
    }
}
