//! Gaifman graphs and the paper's treewidth measures `tw(S, X)` and
//! `ctw(S, X)` (§3, "Treewidth").
//!
//! The Gaifman graph `G(S, X)` has vertex set `vars(S) \ X` and an edge
//! between two distinct variables that co-occur in a triple pattern.
//! `tw(S, X) := tw(G(S, X))`, with the convention `tw(S, X) := 1` when the
//! Gaifman graph has no vertices or no edges; `ctw(S, X)` is `tw` of the
//! core.

use crate::core::core_of;
use crate::tgraph::GenTGraph;
use crate::treewidth::{treewidth, TwResult};
use crate::ugraph::UGraph;
use std::collections::BTreeMap;
use wdsparql_rdf::Variable;

/// Builds `G(S, X)`; returns the graph and the vertex-index → variable map.
pub fn gaifman(g: &GenTGraph) -> (UGraph, Vec<Variable>) {
    let vars: Vec<Variable> = g.existential_vars().into_iter().collect();
    let index: BTreeMap<Variable, usize> = vars.iter().enumerate().map(|(i, &v)| (v, i)).collect();
    let mut ug = UGraph::new(vars.len());
    for t in g.s.iter() {
        let occ: Vec<usize> = t
            .var_occurrences()
            .filter_map(|v| index.get(&v).copied())
            .collect();
        for (i, &a) in occ.iter().enumerate() {
            for &b in &occ[i + 1..] {
                if a != b {
                    ug.add_edge(a, b);
                }
            }
        }
    }
    (ug, vars)
}

/// `tw(S, X)` with the paper's `:= 1` convention for trivial Gaifman graphs.
pub fn tw_gen(g: &GenTGraph) -> TwResult {
    let (ug, _) = gaifman(g);
    if ug.n() == 0 || ug.edge_count() == 0 {
        return TwResult {
            width: 1,
            exact: true,
        };
    }
    treewidth(&ug)
}

/// `ctw(S, X) := tw(core(S, X))`.
///
/// The core is a retract of `(S, X)`: a subgraph of `S` with the same
/// `X`. Its Gaifman graph is therefore a subgraph of `G(S, X)`, so
/// `ctw(S, X) ≤ tw(S, X)`, and both are ≥ 1 by the convention above.
/// `tw(S, X) ≤ 1` exactly when `G(S, X)` is a forest, which is cheap to
/// see: then `ctw(S, X) = 1` and no core is computed. A core that keeps
/// every triple is `S` itself, whose Gaifman graph is already built.
pub fn ctw(g: &GenTGraph) -> TwResult {
    let (ug, _) = gaifman(g);
    if is_forest(&ug) {
        return TwResult {
            width: 1,
            exact: true,
        };
    }
    let core = core_of(g);
    if core.len() == g.len() {
        treewidth(&ug)
    } else {
        tw_gen(&core)
    }
}

/// Every component of `c` vertices has `c − 1` edges (so fewer edges
/// than vertices in all).
fn is_forest(g: &UGraph) -> bool {
    let edges = g.edge_count();
    edges < g.n().max(1) && edges + g.components().len() == g.n()
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::tgraph::TGraph;
    use wdsparql_rdf::term::{iri, var};
    use wdsparql_rdf::{tp, Variable};

    fn v(n: &str) -> Variable {
        Variable::new(n)
    }

    fn kk_pattern(k: usize) -> Vec<wdsparql_rdf::TriplePattern> {
        let mut pats = Vec::new();
        for i in 1..=k {
            for j in (i + 1)..=k {
                pats.push(tp(var(&format!("o{i}")), iri("r"), var(&format!("o{j}"))));
            }
        }
        pats
    }

    #[test]
    fn gaifman_excludes_x_and_constants() {
        let s = TGraph::from_patterns([
            tp(var("x"), iri("p"), var("y")),
            tp(var("y"), iri("p"), iri("c")),
        ]);
        let g = GenTGraph::new(s, [v("x")]);
        let (ug, vars) = gaifman(&g);
        assert_eq!(vars, vec![v("y")]);
        assert_eq!(ug.n(), 1);
        assert_eq!(ug.edge_count(), 0);
    }

    #[test]
    fn trivial_gaifman_graphs_have_tw_one() {
        // No existential vars at all.
        let s = TGraph::from_patterns([tp(var("x"), iri("p"), var("y"))]);
        let g = GenTGraph::new(s, [v("x"), v("y")]);
        assert_eq!(tw_gen(&g).width, 1);
        // Existential vars but no Gaifman edges.
        let s2 = TGraph::from_patterns([
            tp(var("x"), iri("p"), var("u")),
            tp(var("x"), iri("p"), var("w")),
        ]);
        let g2 = GenTGraph::new(s2, [v("x")]);
        assert_eq!(tw_gen(&g2).width, 1);
    }

    #[test]
    fn clique_pattern_tw_is_k_minus_one() {
        for k in 2..=5 {
            let g = GenTGraph::new(TGraph::from_patterns(kk_pattern(k)), []);
            assert_eq!(tw_gen(&g).width, (k - 1).max(1), "K_{k}");
        }
    }

    #[test]
    fn example3_widths() {
        // Figure 1, k = 4: ctw(S, X) = k−1 = 3 (it is a core), while
        // ctw(S', X) = 1 and tw(S', X) = k−1.
        let k = 4;
        let x = [v("x"), v("y"), v("z")];
        let mut s_pats = vec![
            tp(var("z"), iri("q"), var("x")),
            tp(var("x"), iri("p"), var("y")),
            tp(var("y"), iri("r"), var("o1")),
        ];
        s_pats.extend(kk_pattern(k));
        let s = GenTGraph::new(TGraph::from_patterns(s_pats), x);
        assert_eq!(ctw(&s).width, k - 1);

        let mut sp_pats = vec![
            tp(var("z"), iri("q"), var("x")),
            tp(var("x"), iri("p"), var("y")),
            tp(var("y"), iri("r"), var("o1")),
            tp(var("y"), iri("r"), var("o")),
            tp(var("o"), iri("r"), var("o")),
        ];
        sp_pats.extend(kk_pattern(k));
        let sp = GenTGraph::new(TGraph::from_patterns(sp_pats), x);
        assert_eq!(tw_gen(&sp).width, k - 1);
        assert_eq!(ctw(&sp).width, 1);
    }

    #[test]
    fn repeated_variable_in_one_triple_adds_no_self_edge() {
        let s = TGraph::from_patterns([tp(var("o"), iri("r"), var("o"))]);
        let g = GenTGraph::new(s, []);
        let (ug, _) = gaifman(&g);
        assert_eq!(ug.n(), 1);
        assert_eq!(ug.edge_count(), 0);
        assert_eq!(tw_gen(&g).width, 1);
    }
}
