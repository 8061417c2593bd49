//! The Theorem 1 evaluator: the natural algorithm with homomorphism tests
//! replaced by the existential (k+1)-pebble game.
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

use crate::lemma1::mu_subtree;
use wdsparql_hom::GenTGraph;
use wdsparql_pebble::duplicator_wins;
use wdsparql_rdf::{Mapping, TripleIndex};
use wdsparql_tree::{subtree_children, subtree_vars, Wdpf, Wdpt};

/// One tree of the Theorem 1 loop. `k` is the domination-width bound; the
/// pebble game is played with `max(k, 1) + 1` pebbles (`dw ≥ 1` always,
/// and more pebbles keep the algorithm sound).
///
/// [`mu_subtree`] has already shown that `µ` maps `pat(T^µ)` into `G`, so
/// each child's game is played on `pat(n)` alone with `X = vars(n) ∩
/// vars(T^µ)`: the triples of `pat(T^µ)` are ground under `µ` and would
/// only be looked up again, once per child.
pub fn check_tree_pebble(t: &Wdpt, g: &dyn TripleIndex, mu: &Mapping, k: usize) -> bool {
    let Some(st) = mu_subtree(t, g, mu) else {
        return false;
    };
    let x = subtree_vars(t, &st);
    subtree_children(t, &st).into_iter().all(|n| {
        let pat = t.pat(n);
        let shared = pat.vars().into_iter().filter(|v| x.contains(v));
        let src = GenTGraph::new(pat.clone(), shared);
        !duplicator_wins(&src, g, mu, k.max(1) + 1)
    })
}

/// The full Theorem 1 algorithm on a forest: `µ ∈ ⟦F⟧_G`, correct whenever
/// `dw(F) ≤ k`; always sound (accepting implies membership).
pub fn check_forest_pebble(f: &Wdpf, g: &dyn TripleIndex, mu: &Mapping, k: usize) -> bool {
    f.trees.iter().any(|t| check_tree_pebble(t, g, mu, k))
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::naive::check_forest;
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
}
