//! The classical evaluation algorithm for wdPFs (Letelier et al.;
//! Pichler–Skritek): sound and complete for *all* well-designed forests,
//! but each child-extension test is an NP-complete homomorphism check —
//! this is the coNP algorithm whose restriction classes the paper
//! characterises.

use crate::lemma1::{child_extends, mu_subtree};
use wdsparql_rdf::{Mapping, TripleIndex};
use wdsparql_tree::{subtree_children, Wdpf, Wdpt};

/// `µ ∈ ⟦T⟧_G` by Lemma 1 with exact homomorphism tests.
pub fn check_tree(t: &Wdpt, g: &dyn TripleIndex, mu: &Mapping) -> bool {
    match mu_subtree(t, g, mu) {
        None => false,
        Some(st) => subtree_children(t, &st)
            .into_iter()
            .all(|n| child_extends(t, g, n, mu).is_none()),
    }
}

/// `µ ∈ ⟦F⟧_G = ⟦T_1⟧_G ∪ ··· ∪ ⟦T_m⟧_G`.
pub fn check_forest(f: &Wdpf, g: &dyn TripleIndex, mu: &Mapping) -> bool {
    f.trees.iter().any(|t| check_tree(t, g, mu))
}

#[cfg(test)]
mod tests {
    use super::*;
    use wdsparql_algebra::{eval, parse_pattern};
    use wdsparql_rdf::RdfGraph;
    use wdsparql_rdf::Triple;

    fn forest(text: &str) -> Wdpf {
        Wdpf::from_pattern(&parse_pattern(text).unwrap()).unwrap()
    }

    #[test]
    fn agrees_with_reference_semantics_on_example1() {
        let text = "(((?x, p, ?y) OPT (?z, q, ?x)) OPT ((?y, r, ?o1) AND (?o1, r, ?o2)))";
        let p = parse_pattern(text).unwrap();
        let f = forest(text);
        let g = RdfGraph::from_strs([
            ("a", "p", "b"),
            ("z0", "q", "a"),
            ("b", "r", "c"),
            ("c", "r", "d"),
            ("e", "p", "f"),
        ]);
        let reference = eval(&p, &g);
        // Every reference solution checks out...
        for mu in &reference {
            assert!(check_forest(&f, &g, mu), "missing {mu}");
        }
        // ...and near-miss mutations do not.
        let partial = Mapping::from_strs([("x", "a"), ("y", "b")]);
        assert!(!check_forest(&f, &g, &partial)); // must take the q-branch
        let wrong = Mapping::from_strs([("x", "b"), ("y", "a")]);
        assert!(!check_forest(&f, &g, &wrong));
    }

    #[test]
    fn union_forest_accepts_from_any_tree() {
        let f = forest("((?x, p, ?y) OPT (?y, q, ?z)) UNION ((?x, r, ?y) OPT (?y, q, ?z))");
        let g = RdfGraph::from_strs([("a", "p", "b"), ("c", "r", "d")]);
        assert!(check_forest(
            &f,
            &g,
            &Mapping::from_strs([("x", "a"), ("y", "b")])
        ));
        assert!(check_forest(
            &f,
            &g,
            &Mapping::from_strs([("x", "c"), ("y", "d")])
        ));
        assert!(!check_forest(
            &f,
            &g,
            &Mapping::from_strs([("x", "a"), ("y", "d")])
        ));
    }

    #[test]
    fn maximality_is_enforced_per_tree() {
        let f = forest("(?x, p, ?y) OPT (?y, q, ?z)");
        let g = RdfGraph::from_strs([("a", "p", "b"), ("b", "q", "c")]);
        // Bare (a, b) is not maximal: the OPT extends.
        assert!(!check_forest(
            &f,
            &g,
            &Mapping::from_strs([("x", "a"), ("y", "b")])
        ));
        assert!(check_forest(
            &f,
            &g,
            &Mapping::from_strs([("x", "a"), ("y", "b"), ("z", "c")])
        ));
    }

    #[test]
    fn large_graph_spot_check() {
        let f = forest("(?x, p, ?y) OPT (?y, q, ?z)");
        let mut g = RdfGraph::new();
        for i in 0..200 {
            g.insert(Triple::from_strs(&format!("s{i}"), "p", &format!("t{i}")));
            if i % 2 == 0 {
                g.insert(Triple::from_strs(&format!("t{i}"), "q", &format!("u{i}")));
            }
        }
        assert!(check_forest(
            &f,
            &g,
            &Mapping::from_strs([("x", "s1"), ("y", "t1")])
        ));
        assert!(!check_forest(
            &f,
            &g,
            &Mapping::from_strs([("x", "s2"), ("y", "t2")])
        ));
        assert!(check_forest(
            &f,
            &g,
            &Mapping::from_strs([("x", "s2"), ("y", "t2"), ("z", "u2")])
        ));
    }
}
