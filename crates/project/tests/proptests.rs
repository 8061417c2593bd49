//! Property tests for the projection laws: on random well-designed
//! pattern trees and random graphs, projected enumeration, projected
//! membership and the algebraic laws of projection must all agree.

use proptest::prelude::*;
use std::collections::BTreeSet;
use wdsparql_core::enumerate_forest;
use wdsparql_project::{
    check_projected, count_projected, enumerate_projected, project_solutions,
    projection_multiplicities, ProjectedQuery,
};
use wdsparql_rdf::{Mapping, TripleIndex, Variable};
use wdsparql_store::TripleStore;
use wdsparql_workloads::{random_graph, random_wdpt, RandomTreeParams};

fn small_params() -> RandomTreeParams {
    RandomTreeParams {
        max_nodes: 4,
        max_fanout: 2,
        max_triples_per_node: 2,
        n_predicates: 2,
        reuse_bias: 0.6,
    }
}

/// A random projection: each variable of the forest kept with ~1/2 chance,
/// driven by the seed.
fn random_projection(vars: &BTreeSet<Variable>, seed: u64) -> BTreeSet<Variable> {
    let mut state = seed.wrapping_mul(0x9E3779B97F4A7C15).wrapping_add(1);
    vars.iter()
        .filter(|_| {
            state = state
                .wrapping_mul(6364136223846793005)
                .wrapping_add(1442695040888963407);
            (state >> 33) & 1 == 0
        })
        .copied()
        .collect()
}

/// Projected enumeration and counting on `g` against the projection of
/// the full solution set `full`.
fn check_enumeration(
    q: &ProjectedQuery,
    full: &wdsparql_algebra::SolutionSet,
    g: &dyn TripleIndex,
) -> Result<(), TestCaseError> {
    let projected = enumerate_projected(q, g);
    prop_assert_eq!(&projected, &project_solutions(full, q.projection()));
    prop_assert_eq!(count_projected(q, g), projected.len());
    Ok(())
}

/// Projected membership on `g` against projected enumeration on `g`.
fn check_membership(q: &ProjectedQuery, g: &dyn TripleIndex) -> Result<(), TestCaseError> {
    let projected = enumerate_projected(q, g);
    for mu in &projected {
        prop_assert!(check_projected(q, g, mu), "rejected {}", mu);
    }
    // Probe a perturbed mapping: rebind one projected variable of a
    // solution to a fresh IRI and require agreement with enumeration.
    if let (Some(mu), Some(&v)) = (projected.iter().next(), q.projection().iter().next()) {
        if mu.contains(v) {
            let mut probe = Mapping::new();
            for (pv, i) in mu.iter() {
                probe.bind(pv, i);
            }
            probe.bind(v, wdsparql_rdf::Iri::new("fresh-probe"));
            prop_assert_eq!(check_projected(q, g, &probe), projected.contains(&probe));
        }
    }
    Ok(())
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(48))]

    /// Projected enumeration is exactly the projection of full
    /// enumeration, and counting matches it, on the plain graph and on
    /// the store.
    #[test]
    fn enumeration_commutes_with_projection(
        tree_seed in 0u64..5000,
        graph_seed in 0u64..5000,
        proj_seed in 0u64..5000,
        n_triples in 1usize..14,
    ) {
        let t = random_wdpt(small_params(), tree_seed);
        let g = random_graph(5, n_triples, &["p0", "p1"], graph_seed);
        let forest = wdsparql_tree::Wdpf::new(vec![t]);
        let full = enumerate_forest(&forest, &g);
        let vars: BTreeSet<Variable> =
            forest.trees.iter().flat_map(|t| t.vars_tree()).collect();
        let x = random_projection(&vars, proj_seed);
        let q = ProjectedQuery::new(forest, x.iter().copied()).unwrap();
        check_enumeration(&q, &full, &g)?;
        TripleStore::from_rdf(&g).with_index(|s| check_enumeration(&q, &full, s))?;
    }

    /// Membership agrees with enumeration: every enumerated projected
    /// solution is accepted, and perturbed mappings are accepted iff
    /// enumeration contains them, on the plain graph and on the store.
    #[test]
    fn membership_agrees_with_enumeration(
        tree_seed in 0u64..5000,
        graph_seed in 0u64..5000,
        proj_seed in 0u64..5000,
    ) {
        let t = random_wdpt(small_params(), tree_seed);
        let g = random_graph(4, 10, &["p0", "p1"], graph_seed);
        let forest = wdsparql_tree::Wdpf::new(vec![t]);
        let vars: BTreeSet<Variable> =
            forest.trees.iter().flat_map(|t| t.vars_tree()).collect();
        let x = random_projection(&vars, proj_seed);
        let q = ProjectedQuery::new(forest, x.iter().copied()).unwrap();
        check_membership(&q, &g)?;
        TripleStore::from_rdf(&g).with_index(|s| check_membership(&q, s))?;
    }

    /// Multiplicities sum to the size of the full solution set, and their
    /// support is the projected solution set.
    #[test]
    fn multiplicities_are_a_partition(
        tree_seed in 0u64..5000,
        graph_seed in 0u64..5000,
        proj_seed in 0u64..5000,
    ) {
        let t = random_wdpt(small_params(), tree_seed);
        let g = random_graph(4, 10, &["p0", "p1"], graph_seed);
        let forest = wdsparql_tree::Wdpf::new(vec![t]);
        let full = enumerate_forest(&forest, &g);
        let vars: BTreeSet<Variable> =
            forest.trees.iter().flat_map(|t| t.vars_tree()).collect();
        let x = random_projection(&vars, proj_seed);
        let q = ProjectedQuery::new(forest, x.iter().copied()).unwrap();
        let mult = projection_multiplicities(&q, &g);
        prop_assert_eq!(mult.values().sum::<usize>(), full.len());
        let support: wdsparql_algebra::SolutionSet = mult.keys().cloned().collect();
        prop_assert_eq!(support, enumerate_projected(&q, &g));
    }

    /// Identity projection is a no-op; empty projection is the ASK query.
    #[test]
    fn identity_and_boolean_projections(
        tree_seed in 0u64..5000,
        graph_seed in 0u64..5000,
    ) {
        let t = random_wdpt(small_params(), tree_seed);
        let g = random_graph(4, 10, &["p0", "p1"], graph_seed);
        let forest = wdsparql_tree::Wdpf::new(vec![t]);
        let full = enumerate_forest(&forest, &g);
        let star = ProjectedQuery::select_star(forest.clone());
        prop_assert_eq!(&enumerate_projected(&star, &g), &full);
        let ask = ProjectedQuery::new(forest, []).unwrap();
        let ask_sols = enumerate_projected(&ask, &g);
        prop_assert_eq!(ask_sols.len(), usize::from(!full.is_empty()));
        prop_assert_eq!(
            check_projected(&ask, &g, &Mapping::new()),
            !full.is_empty()
        );
    }
}
