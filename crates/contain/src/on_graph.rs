//! Containment, equivalence and subsumption **on a fixed graph** — the
//! decidable-by-enumeration base case, used both directly and as the
//! verifier for counterexamples produced by [`crate::decide`].

use crate::order::set_subsumed;
use wdsparql_core::enumerate_forest;
use wdsparql_rdf::TripleIndex;
use wdsparql_tree::Wdpf;

/// `⟦F1⟧_G ⊆ ⟦F2⟧_G`.
pub fn contained_on(f1: &Wdpf, f2: &Wdpf, g: &dyn TripleIndex) -> bool {
    let a = enumerate_forest(f1, g);
    let b = enumerate_forest(f2, g);
    a.is_subset(&b)
}

/// `⟦F1⟧_G = ⟦F2⟧_G`.
pub fn equivalent_on(f1: &Wdpf, f2: &Wdpf, g: &dyn TripleIndex) -> bool {
    enumerate_forest(f1, g) == enumerate_forest(f2, g)
}

/// `⟦F1⟧_G ⊑ ⟦F2⟧_G`: every solution of `F1` is extended by one of `F2`.
pub fn subsumed_on(f1: &Wdpf, f2: &Wdpf, g: &dyn TripleIndex) -> bool {
    let a = enumerate_forest(f1, g);
    let b = enumerate_forest(f2, g);
    set_subsumed(&a, &b)
}

/// The mappings witnessing non-containment on `g`: `⟦F1⟧_G \ ⟦F2⟧_G`.
/// Empty iff [`contained_on`]; each entry is a ready-made
/// counterexample mapping for this graph (useful when debugging a
/// `NotContained` verdict or an `Unknown` one by hand).
pub fn containment_violations(
    f1: &Wdpf,
    f2: &Wdpf,
    g: &dyn TripleIndex,
) -> Vec<wdsparql_rdf::Mapping> {
    let b = enumerate_forest(f2, g);
    enumerate_forest(f1, g)
        .into_iter()
        .filter(|mu| !b.contains(mu))
        .collect()
}

#[cfg(test)]
mod tests {
    use super::*;
    use wdsparql_algebra::parse_pattern;
    use wdsparql_rdf::RdfGraph;

    fn forest(text: &str) -> Wdpf {
        Wdpf::from_pattern(&parse_pattern(text).unwrap()).unwrap()
    }

    #[test]
    fn opt_is_subsumed_by_but_not_contained_in_its_left_arm() {
        // ⟦P OPT Q⟧ extends ⟦P⟧'s mappings where Q matches: on such a
        // graph the two differ as sets but OPT subsumes the left arm.
        let left = forest("(?x, p, ?y)");
        let opt = forest("(?x, p, ?y) OPT (?y, q, ?z)");
        let g = RdfGraph::from_strs([("a", "p", "b"), ("b", "q", "c")]);
        assert!(!contained_on(&left, &opt, &g));
        assert!(subsumed_on(&left, &opt, &g));
        // And the OPT solutions are not contained in the left arm either
        // (their domain is larger).
        assert!(!contained_on(&opt, &left, &g));
        // On a graph with no q-edge the two coincide.
        let g2 = RdfGraph::from_strs([("a", "p", "b")]);
        assert!(equivalent_on(&left, &opt, &g2));
    }

    #[test]
    fn and_is_commutative_on_every_sample_graph() {
        let ab = forest("(?x, p, ?y) AND (?y, q, ?z)");
        let ba = forest("(?y, q, ?z) AND (?x, p, ?y)");
        for g in [
            RdfGraph::from_strs([("a", "p", "b"), ("b", "q", "c")]),
            RdfGraph::from_strs([("a", "p", "b")]),
            RdfGraph::new(),
        ] {
            assert!(equivalent_on(&ab, &ba, &g));
        }
    }

    #[test]
    fn union_contains_both_branches() {
        let u = forest("(?x, p, ?y) UNION (?x, q, ?y)");
        let b1 = forest("(?x, p, ?y)");
        let g = RdfGraph::from_strs([("a", "p", "b"), ("c", "q", "d")]);
        assert!(contained_on(&b1, &u, &g));
        assert!(!contained_on(&u, &b1, &g));
    }

    #[test]
    fn violations_enumerate_the_difference() {
        let u = forest("(?x, p, ?y) UNION (?x, q, ?y)");
        let b1 = forest("(?x, p, ?y)");
        let g = RdfGraph::from_strs([("a", "p", "b"), ("c", "q", "d")]);
        let vs = containment_violations(&u, &b1, &g);
        assert_eq!(vs.len(), 1);
        assert_eq!(
            vs[0],
            wdsparql_rdf::Mapping::from_strs([("x", "c"), ("y", "d")])
        );
        // Contained direction: no violations.
        assert!(containment_violations(&b1, &u, &g).is_empty());
        assert_eq!(
            containment_violations(&b1, &u, &g).is_empty(),
            contained_on(&b1, &u, &g)
        );
    }
}
