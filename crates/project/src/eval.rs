//! Evaluation of projected queries.
//!
//! Enumeration projects the forest's solution set; membership searches for
//! an existential witness over the projected-away variables. The witness
//! search is worst-case exponential — necessarily so, since projected
//! membership is NP-hard even for width-1 classes (see [`crate::hardness`]
//! and Barceló–Pichler–Skritek, PODS'15).

use crate::query::ProjectedQuery;
use std::collections::BTreeSet;
use wdsparql_algebra::SolutionSet;
use wdsparql_core::{child_extends, enumerate_forest};
use wdsparql_hom::all_homs_into_graph;
use wdsparql_rdf::{Mapping, TripleIndex, Variable};
use wdsparql_tree::{enumerate_subtrees, subtree_children, subtree_pat, subtree_vars, Wdpt};

/// Projects every mapping in `sols` to the variables in `x`
/// (set semantics: duplicates collapse).
pub fn project_solutions(sols: &SolutionSet, x: &BTreeSet<Variable>) -> SolutionSet {
    sols.iter()
        .map(|mu| mu.restrict(x.iter().copied()))
        .collect()
}

/// Enumerates `⟦(F, X)⟧_G` by enumerating `⟦F⟧_G` and projecting.
pub fn enumerate_projected(q: &ProjectedQuery, g: &dyn TripleIndex) -> SolutionSet {
    project_solutions(&enumerate_forest(q.forest(), g), q.projection())
}

/// Counts the distinct projected solutions `|⟦(F, X)⟧_G|`.
pub fn count_projected(q: &ProjectedQuery, g: &dyn TripleIndex) -> usize {
    enumerate_projected(q, g).len()
}

/// The multiplicity of each projected solution: how many full solutions
/// of `⟦F⟧_G` project onto it (the bag-semantics count of `SELECT`).
pub fn projection_multiplicities(
    q: &ProjectedQuery,
    g: &dyn TripleIndex,
) -> std::collections::BTreeMap<Mapping, usize> {
    let mut out = std::collections::BTreeMap::new();
    for mu in &enumerate_forest(q.forest(), g) {
        *out.entry(mu.restrict(q.projection().iter().copied()))
            .or_insert(0) += 1;
    }
    out
}

/// Decides `µ ∈ ⟦(F, X)⟧_G` directly (without full enumeration): is there
/// a solution `µ' ∈ ⟦F⟧_G` with `µ'|_X = µ`?
///
/// Mappings binding variables outside `X` are never solutions. The search
/// runs per tree over the subtrees `T'` whose visible variables
/// `vars(T') ∩ X` equal `dom(µ)`, looking for a homomorphism of
/// `pat(T')` extending `µ` that no child of `T'` can extend (Lemma 1
/// relativised to the projection).
pub fn check_projected(q: &ProjectedQuery, g: &dyn TripleIndex, mu: &Mapping) -> bool {
    if mu.domain().any(|v| !q.projection().contains(&v)) {
        return false;
    }
    q.forest()
        .iter()
        .any(|t| check_projected_tree(t, q.projection(), g, mu))
}

/// The per-tree witness search behind [`check_projected`].
fn check_projected_tree(
    t: &Wdpt,
    x: &BTreeSet<Variable>,
    g: &dyn TripleIndex,
    mu: &Mapping,
) -> bool {
    let dom: BTreeSet<Variable> = mu.domain().collect();
    for st in enumerate_subtrees(t) {
        let visible: BTreeSet<Variable> = subtree_vars(t, &st).intersection(x).copied().collect();
        if visible != dom {
            continue;
        }
        let pat = subtree_pat(t, &st);
        // Every hom of pat(T') extending µ is a candidate full solution;
        // Lemma 1 accepts it iff no child of T' extends it compatibly.
        for nu in all_homs_into_graph(&pat, g, mu) {
            let full = mu
                .union(&nu)
                .expect("solver extensions agree with their fixed bindings");
            if subtree_children(t, &st)
                .into_iter()
                .all(|n| child_extends(t, g, n, &full).is_none())
            {
                return true;
            }
        }
    }
    false
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::query::ProjectedQuery;
    use wdsparql_rdf::RdfGraph;

    fn sample_graph() -> RdfGraph {
        RdfGraph::from_strs([
            ("alice", "knows", "bob"),
            ("alice", "knows", "carol"),
            ("bob", "email", "b@x.org"),
            ("dave", "knows", "erin"),
        ])
    }

    #[test]
    fn enumerate_projects_and_dedups() {
        // Without projection there are 3 solutions (bob with email,
        // carol and erin without); projecting to ?x collapses alice's two.
        let g = sample_graph();
        let q = ProjectedQuery::parse("SELECT ?x WHERE { ?x knows ?y OPTIONAL { ?y email ?e } }")
            .unwrap();
        let sols = enumerate_projected(&q, &g);
        assert_eq!(sols.len(), 2);
        assert_eq!(count_projected(&q, &g), 2);
        assert!(sols.contains(&Mapping::from_strs([("x", "alice")])));
        assert!(sols.contains(&Mapping::from_strs([("x", "dave")])));
    }

    #[test]
    fn multiplicities_count_preimages() {
        let g = sample_graph();
        let q = ProjectedQuery::parse("SELECT ?x WHERE { ?x knows ?y OPTIONAL { ?y email ?e } }")
            .unwrap();
        let m = projection_multiplicities(&q, &g);
        assert_eq!(m[&Mapping::from_strs([("x", "alice")])], 2);
        assert_eq!(m[&Mapping::from_strs([("x", "dave")])], 1);
        assert_eq!(m.values().sum::<usize>(), 3);
    }

    #[test]
    fn membership_agrees_with_enumeration() {
        let g = sample_graph();
        for text in [
            "SELECT ?x WHERE { ?x knows ?y OPTIONAL { ?y email ?e } }",
            "SELECT ?x ?e WHERE { ?x knows ?y OPTIONAL { ?y email ?e } }",
            "SELECT ?y WHERE { ?x knows ?y }",
        ] {
            let q = ProjectedQuery::parse(text).unwrap();
            let sols = enumerate_projected(&q, &g);
            for mu in &sols {
                assert!(check_projected(&q, &g, mu), "{text}: rejected {mu}");
            }
            // A wrong binding and a foreign variable are both rejected.
            assert!(!check_projected(
                &q,
                &g,
                &Mapping::from_strs([("x", "zzz")])
            ));
            assert!(!check_projected(
                &q,
                &g,
                &Mapping::from_strs([("nonvar", "alice")])
            ));
        }
    }

    #[test]
    fn projection_interacts_with_opt_maximality() {
        // µ = {x↦alice} is NOT a solution of the *unprojected* query
        // (bob forces the OPT extension), but projecting away ?y keeps
        // {x↦alice} because a full solution ({x↦alice,y↦carol}) exists.
        let g = RdfGraph::from_strs([
            ("alice", "knows", "bob"),
            ("alice", "knows", "carol"),
            ("bob", "email", "b@x.org"),
        ]);
        let q = ProjectedQuery::parse("SELECT ?x WHERE { ?x knows ?y OPTIONAL { ?y email ?e } }")
            .unwrap();
        assert!(check_projected(
            &q,
            &g,
            &Mapping::from_strs([("x", "alice")])
        ));
        // But a projection retaining ?y sees the difference:
        let qy =
            ProjectedQuery::parse("SELECT ?x ?y WHERE { ?x knows ?y OPTIONAL { ?y email ?e } }")
                .unwrap();
        // {x↦alice, y↦bob} is not a projected solution: the only full
        // solution through bob also binds ?e, and projecting it keeps
        // x,y — wait, it *is* a projected solution: {x,y,e}|_{x,y}.
        assert!(check_projected(
            &qy,
            &g,
            &Mapping::from_strs([("x", "alice"), ("y", "bob")])
        ));
        // And {x↦alice} alone is not (dom must equal vars(T')∩X = {x,y}).
        assert!(!check_projected(
            &qy,
            &g,
            &Mapping::from_strs([("x", "alice")])
        ));
    }

    #[test]
    fn boolean_query_checks_nonemptiness() {
        let g = sample_graph();
        let f = wdsparql_tree::Wdpf::from_pattern(
            &wdsparql_algebra::parse_pattern("(?x, knows, ?y)").unwrap(),
        )
        .unwrap();
        let q = ProjectedQuery::new(f, []).unwrap();
        assert!(check_projected(&q, &g, &Mapping::new()));
        assert_eq!(enumerate_projected(&q, &g).len(), 1);
        let empty = RdfGraph::new();
        assert!(!check_projected(&q, &empty, &Mapping::new()));
        assert!(enumerate_projected(&q, &empty).is_empty());
    }

    #[test]
    fn identity_projection_matches_unprojected_semantics() {
        let g = sample_graph();
        let q = ProjectedQuery::parse("SELECT * WHERE { ?x knows ?y OPTIONAL { ?y email ?e } }")
            .unwrap();
        let projected = enumerate_projected(&q, &g);
        let full = enumerate_forest(q.forest(), &g);
        assert_eq!(projected, full);
        for mu in &full {
            assert!(check_projected(&q, &g, mu));
        }
    }

    #[test]
    fn union_queries_project_per_branch() {
        let g = RdfGraph::from_strs([("a", "p", "b"), ("c", "q", "d")]);
        let q = ProjectedQuery::parse("SELECT ?x WHERE { { ?x p ?y } UNION { ?x q ?y } }").unwrap();
        let sols = enumerate_projected(&q, &g);
        assert_eq!(sols.len(), 2);
        assert!(check_projected(&q, &g, &Mapping::from_strs([("x", "a")])));
        assert!(check_projected(&q, &g, &Mapping::from_strs([("x", "c")])));
    }
}
