//! Width measures for projected queries.
//!
//! The paper's §5 points to Kroll–Pichler–Skritek (ICDT'16): for pattern
//! trees with projection, classes of *bounded global treewidth* and
//! *semi-bounded interface* are fixed-parameter tractable, yet NP-hard —
//! so no analogue of Theorem 3's PTIME/W\[1\]-hard dichotomy can hold. This
//! module computes the two measures in our setting so that the break of
//! the dichotomy can be observed experimentally (experiment E16).
//!
//! Definitions used here (simplified to ground RDF and set semantics):
//!
//! * **global treewidth** of `(T, X)` — the treewidth of the generalised
//!   t-graph `(pat(T), X ∩ vars(T))`, i.e. of the full pattern with the
//!   output variables distinguished. Projection-free queries make every
//!   solution variable distinguished; shrinking `X` grows the existential
//!   part and hence (weakly) the measure.
//! * **interface** of a node `n` — `|vars(n) ∩ (X ∪ vars(B_n))|`: the
//!   variables through which `n`'s pattern talks to the output or to its
//!   branch. Bounded interfaces keep the per-node join degrees small.

use crate::query::ProjectedQuery;
use std::collections::BTreeSet;
use wdsparql_hom::{tw_gen, GenTGraph};
use wdsparql_rdf::Variable;
use wdsparql_tree::{Wdpt, ROOT};

/// The global treewidth of `(T, X)`: `tw(pat(T), X ∩ vars(T))`.
pub fn global_treewidth(t: &Wdpt, x: &BTreeSet<Variable>) -> usize {
    let vars = t.vars_tree();
    let distinguished: Vec<Variable> = x.intersection(&vars).copied().collect();
    tw_gen(&GenTGraph::new(t.pat_tree(), distinguished)).width
}

/// The largest node interface `|vars(n) ∩ (X ∪ vars(B_n))|` over all
/// non-root nodes of `T` (the root's interface is `|vars(r) ∩ X|`).
pub fn max_interface(t: &Wdpt, x: &BTreeSet<Variable>) -> usize {
    let mut best = t.vars(ROOT).intersection(x).count();
    for n in t.node_ids().filter(|&n| n != ROOT) {
        let mut boundary: BTreeSet<Variable> = x.clone();
        for b in t.branch(n) {
            boundary.extend(t.vars(b));
        }
        best = best.max(t.vars(n).intersection(&boundary).count());
    }
    best
}

/// Width report for a projected query, per tree and aggregated.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct ProjectedWidthReport {
    /// `max_T tw(pat(T), X ∩ vars(T))` over the forest's trees.
    pub global_treewidth: usize,
    /// `max_T max_n |vars(n) ∩ (X ∪ vars(B_n))|`.
    pub max_interface: usize,
    /// Number of output variables `|X|`.
    pub output_vars: usize,
    /// Per-tree `(global treewidth, max interface)` pairs.
    pub per_tree: Vec<(usize, usize)>,
}

impl std::fmt::Display for ProjectedWidthReport {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(
            f,
            "global treewidth = {} | max interface = {} | |X| = {}",
            self.global_treewidth, self.max_interface, self.output_vars
        )
    }
}

/// Computes the [`ProjectedWidthReport`] of `(F, X)`.
pub fn analyze_projected(q: &ProjectedQuery) -> ProjectedWidthReport {
    let per_tree: Vec<(usize, usize)> = q
        .forest()
        .iter()
        .map(|t| {
            (
                global_treewidth(t, q.projection()),
                max_interface(t, q.projection()),
            )
        })
        .collect();
    ProjectedWidthReport {
        global_treewidth: per_tree.iter().map(|&(g, _)| g).max().unwrap_or(1),
        max_interface: per_tree.iter().map(|&(_, i)| i).max().unwrap_or(0),
        output_vars: q.projection().len(),
        per_tree,
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::query::ProjectedQuery;

    #[test]
    fn identity_projection_has_trivial_global_treewidth() {
        // All variables distinguished: the existential Gaifman graph is
        // empty, so the global treewidth is 1 by convention.
        let q = ProjectedQuery::parse("SELECT * WHERE { ?x p ?y . ?y p ?z . ?z p ?x }").unwrap();
        let r = analyze_projected(&q);
        assert_eq!(r.global_treewidth, 1);
        assert_eq!(r.output_vars, 3);
    }

    #[test]
    fn projecting_away_a_triangle_raises_global_treewidth() {
        let q = ProjectedQuery::parse("SELECT ?x WHERE { ?x p ?y . ?y p ?z . ?z p ?u . ?u p ?y }")
            .unwrap();
        // Existential part {y,z,u} forms a cycle: treewidth 2.
        assert_eq!(analyze_projected(&q).global_treewidth, 2);
    }

    #[test]
    fn interface_counts_output_and_branch_variables() {
        let q = ProjectedQuery::parse("SELECT ?x WHERE { ?x p ?y OPTIONAL { ?y q ?z . ?z q ?w } }")
            .unwrap();
        let t = &q.forest().trees[0];
        // Child node vars {y,z,w}; boundary = X ∪ vars(root) = {x} ∪ {x,y};
        // interface = |{y}| = 1.
        assert_eq!(max_interface(t, q.projection()), 1);
        // Root interface |{x,y} ∩ {x}| = 1 is not larger.
        let r = analyze_projected(&q);
        assert_eq!(r.max_interface, 1);
    }

    #[test]
    fn report_aggregates_over_union_branches() {
        let q = ProjectedQuery::parse(
            "SELECT ?x WHERE { { ?x p ?y } UNION { ?x q ?a . ?a q ?b . ?b q ?a } }",
        )
        .unwrap();
        let r = analyze_projected(&q);
        assert_eq!(r.per_tree.len(), 2);
        // Second branch's existential {a,b} 2-cycle has treewidth 1
        // (two vertices, one edge).
        assert_eq!(r.global_treewidth, 1);
        let shown = r.to_string();
        assert!(shown.contains("global treewidth"));
    }
}
