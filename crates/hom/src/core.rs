//! Cores of generalised t-graphs (Proposition 1).
//!
//! `(S', X)` is a core of `(S, X)` if it is a core itself (no homomorphism
//! into a proper subgraph), `(S, X) → (S', X)` and `(S', X) → (S, X)`.
//! Every generalised t-graph has a unique core up to renaming of variables.
//!
//! The algorithm is iterated variable elimination, the standard CQ
//! minimisation procedure: a non-distinguished variable `v` can be folded
//! away iff `(S, X) → (S − v, X)` where `S − v` drops every triple
//! mentioning `v`; when a witness `h` is found we replace `S` by `h(S)`
//! (a retract). One sweep over the variables suffices: a variable that
//! does not fold stays unfoldable in every retract (see [`core_of`]).

use crate::solver::{find_hom, maps_to};
use crate::tgraph::GenTGraph;
use wdsparql_rdf::Variable;

/// Computes the core of `(S, X)`.
///
/// The result is a subgraph of the input (no renaming is applied beyond
/// folding), is itself a core, and is homomorphically equivalent to the
/// input.
///
/// One sweep over the non-distinguished variables of `S` folds each
/// in turn. A variable that fails to fold never needs a second try: if
/// `S' = h(S)` is a later retract and `g: S' → S' − v`, then
/// `g ∘ h: S → S − v` (as `S' − v ⊆ S − v`), so `v` would have folded
/// in `S` already. The only variables the sweep skips are those an
/// earlier fold already took out of `S`.
pub fn core_of(g: &GenTGraph) -> GenTGraph {
    let mut s = g.s.clone();
    let vars: Vec<Variable> = s.vars().into_iter().filter(|v| !g.x.contains(v)).collect();
    for v in vars {
        let s_v = s.without_var(v);
        if s_v.len() == s.len() {
            continue; // folded away earlier in the sweep
        }
        let candidate = GenTGraph::new(s.clone(), g.x.clone());
        if let Some(h) = find_hom(&candidate, &s_v) {
            let folded = s.apply(&h);
            debug_assert!(
                folded.is_subset(&s_v),
                "solver witness escaped its target: h(S) = {folded} ⊄ {s_v}"
            );
            s = folded;
        }
    }
    GenTGraph::new(s, g.x.clone())
}

/// Is `(S, X)` a core, i.e. no homomorphism into a proper subgraph?
pub fn is_core(g: &GenTGraph) -> bool {
    g.s.vars()
        .into_iter()
        .filter(|v| !g.x.contains(v))
        .all(|v| {
            let s_v = g.s.without_var(v);
            find_hom(g, &s_v).is_none()
        })
}

/// Homomorphic equivalence `(S, X) ⇄ (S', X)` (both directions).
pub fn hom_equivalent(a: &GenTGraph, b: &GenTGraph) -> bool {
    a.x == b.x && maps_to(a, b) && maps_to(b, a)
}

/// Checks that `c` is *a* core of `g` per the paper's definition.
pub fn is_core_of(c: &GenTGraph, g: &GenTGraph) -> bool {
    is_core(c) && hom_equivalent(c, g)
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

    #[test]
    fn path_folds_to_edge() {
        // x -r-> y -r-> z folds onto a single edge when nothing is fixed?
        // No: a 2-path maps onto one edge only if the target has such a
        // fold; S − z = {(x,r,y)} and h(x)=x, h(y)=y, h(z)... h must send
        // (y,r,z) into {(x,r,y)}, so h(y)=x — but then h(x) must satisfy
        // (h(x),r,x) ∈ S−z: only (x,r,y) exists, no. So the 2-path is a
        // core.
        let s = TGraph::from_patterns([
            tp(var("x"), iri("r"), var("y")),
            tp(var("y"), iri("r"), var("z")),
        ]);
        let g = GenTGraph::new(s, []);
        assert!(is_core(&g));
        let c = core_of(&g);
        assert_eq!(c.s.len(), 2);
    }

    #[test]
    fn duplicate_branch_folds() {
        // Two parallel paths from x: x-r->y, x-r->y2 fold to one.
        let s = TGraph::from_patterns([
            tp(var("x"), iri("r"), var("y")),
            tp(var("x"), iri("r"), var("y2")),
        ]);
        let g = GenTGraph::new(s, []);
        let c = core_of(&g);
        assert_eq!(c.s.len(), 1);
        assert!(is_core_of(&c, &g));
    }

    #[test]
    fn distinguished_variables_block_folding() {
        // Same shape, but y and y2 are both distinguished: nothing folds.
        let s = TGraph::from_patterns([
            tp(var("x"), iri("r"), var("y")),
            tp(var("x"), iri("r"), var("y2")),
        ]);
        let g = GenTGraph::new(s, [v("y"), v("y2")]);
        assert!(is_core(&g));
        assert_eq!(core_of(&g).s.len(), 2);
    }

    #[test]
    fn loop_absorbs_clique() {
        // K3 pattern plus a looped extra vertex: everything folds onto the
        // loop.
        let s = TGraph::from_patterns([
            tp(var("a"), iri("r"), var("b")),
            tp(var("b"), iri("r"), var("c")),
            tp(var("c"), iri("r"), var("a")),
            tp(var("l"), iri("r"), var("l")),
        ]);
        let g = GenTGraph::new(s, []);
        let c = core_of(&g);
        assert_eq!(c.s.len(), 1);
        assert_eq!(c.s.vars().len(), 1);
        assert!(is_core_of(&c, &g));
    }

    #[test]
    fn example3_s_prime_core() {
        // (S', X) from Example 3 / Figure 1 with k = 3:
        //   S' = {(z,q,x), (x,p,y), (y,r,o1), (y,r,o), (o,r,o)} ∪ K3(o1,o2,o3)
        //   X  = {x, y, z}
        // Its core is C' = {(z,q,x), (x,p,y), (y,r,o), (o,r,o)}.
        let k = 3;
        let mut pats = vec![
            tp(var("z"), iri("q"), var("x")),
            tp(var("x"), iri("p"), var("y")),
            tp(var("y"), iri("r"), var("o1")),
            tp(var("y"), iri("r"), var("o")),
            tp(var("o"), iri("r"), var("o")),
        ];
        for i in 1..=k {
            for j in (i + 1)..=k {
                pats.push(tp(var(&format!("o{i}")), iri("r"), var(&format!("o{j}"))));
            }
        }
        let g = GenTGraph::new(TGraph::from_patterns(pats), [v("x"), v("y"), v("z")]);
        let c = core_of(&g);
        let expected = TGraph::from_patterns([
            tp(var("z"), iri("q"), var("x")),
            tp(var("x"), iri("p"), var("y")),
            tp(var("y"), iri("r"), var("o")),
            tp(var("o"), iri("r"), var("o")),
        ]);
        // The core is unique up to renaming; here folding keeps original
        // names, so we can compare directly.
        assert_eq!(c.s, expected);
        assert!(is_core_of(&c, &g));
    }

    #[test]
    fn clique_with_distinguished_anchor_is_core() {
        // (S, X) from Example 3: {(z,q,x), (x,p,y), (y,r,o1)} ∪ Kk — a core.
        let k = 4;
        let mut pats = vec![
            tp(var("z"), iri("q"), var("x")),
            tp(var("x"), iri("p"), var("y")),
            tp(var("y"), iri("r"), var("o1")),
        ];
        for i in 1..=k {
            for j in (i + 1)..=k {
                pats.push(tp(var(&format!("o{i}")), iri("r"), var(&format!("o{j}"))));
            }
        }
        let g = GenTGraph::new(TGraph::from_patterns(pats), [v("x"), v("y"), v("z")]);
        assert!(is_core(&g));
    }

    #[test]
    fn core_is_idempotent() {
        let s = TGraph::from_patterns([
            tp(var("x"), iri("r"), var("y")),
            tp(var("x"), iri("r"), var("y2")),
            tp(var("y2"), iri("r"), var("y3")),
        ]);
        let g = GenTGraph::new(s, []);
        let c1 = core_of(&g);
        let c2 = core_of(&c1);
        assert_eq!(c1, c2);
    }

    #[test]
    fn cores_are_hom_equivalent_to_input() {
        let s = TGraph::from_patterns([
            tp(var("x"), iri("r"), var("y")),
            tp(var("y"), iri("r"), var("z")),
            tp(var("x"), iri("r"), var("w")),
            tp(var("w"), iri("r"), var("u")),
        ]);
        let g = GenTGraph::new(s, [v("x")]);
        let c = core_of(&g);
        assert!(hom_equivalent(&c, &g));
        assert!(is_core(&c));
    }

    #[test]
    fn constants_are_preserved() {
        // A variable pointing at a constant can fold onto another doing the
        // same; constants never fold.
        let s = TGraph::from_patterns([
            tp(var("x"), iri("p"), iri("c")),
            tp(var("y"), iri("p"), iri("c")),
        ]);
        let g = GenTGraph::new(s, []);
        let c = core_of(&g);
        assert_eq!(c.s.len(), 1);
        assert_eq!(c.s.iris().len(), 2); // p and c survive
    }
}
