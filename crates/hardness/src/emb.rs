//! The embedding problem `EMB(H)` and its FILTER encoding (§5).
//!
//! The conclusions observe that well-designed patterns with FILTER express
//! conjunctive queries with inequalities, so for each class `H` of graphs
//! there is a FILTER class whose co-evaluation problem is polynomially
//! equivalent to `EMB(H)`: given `H ∈ H` and `H'`, is there an *injective*
//! homomorphism from `H` to `H'`? For the class of paths, `EMB` is in FPT
//! (colour coding) yet NP-hard — so the PTIME/W\[1\]-hard dichotomy of
//! Theorem 3 cannot extend to FILTER as-is.
//!
//! This module makes the encoding executable: [`emb_query`] builds the
//! pattern + inequality filter, [`emb_via_filter`] decides embedding
//! through the SPARQL semantics, and [`emb_brute_force`] is the direct
//! baseline the encoding is differential-tested against.

use wdsparql_algebra::{eval_filter, FilterExpr, GraphPattern};
use wdsparql_hom::UGraph;
use wdsparql_rdf::{iri, tp, var, RdfGraph, Triple};

/// The FILTER encoding of `EMB(H)`: an AND-pattern with one triple per
/// edge of `H` (symmetrised) and the pairwise-inequality filter.
pub fn emb_query(h: &UGraph) -> (GraphPattern, FilterExpr) {
    assert!(h.n() > 0, "EMB needs a non-empty pattern graph");
    let node_var = |u: usize| var(&format!("emb{u}"));
    let mut triples = Vec::new();
    for (u, w) in h.edges() {
        triples.push(tp(node_var(u), iri("edge"), node_var(w)));
    }
    // Isolated vertices still need a binding: anchor them on a vertex
    // marker triple.
    for u in 0..h.n() {
        if h.degree(u) == 0 {
            triples.push(tp(node_var(u), iri("vertex"), iri("yes")));
        }
    }
    let pattern = GraphPattern::and_all(triples);
    let filter = FilterExpr::all_different(
        (0..h.n()).map(|u| node_var(u).as_var().expect("variables by construction")),
    );
    (pattern, filter)
}

/// Encodes the target graph `H'` as RDF: symmetric `edge` triples plus a
/// `vertex` marker per vertex.
pub fn emb_target(target: &UGraph) -> RdfGraph {
    let name = |u: usize| format!("t{u}");
    let mut g = RdfGraph::new();
    for u in 0..target.n() {
        g.insert(Triple::from_strs(&name(u), "vertex", "yes"));
    }
    for (u, w) in target.edges() {
        g.insert(Triple::from_strs(&name(u), "edge", &name(w)));
        g.insert(Triple::from_strs(&name(w), "edge", &name(u)));
    }
    g
}

/// Decides `EMB(H, H')` through the SPARQL FILTER semantics.
pub fn emb_via_filter(h: &UGraph, target: &UGraph) -> bool {
    let (pattern, filter) = emb_query(h);
    let g = emb_target(target);
    !eval_filter(&pattern, &filter, &g).is_empty()
}

/// Direct baseline: backtracking search for an injective homomorphism.
pub fn emb_brute_force(h: &UGraph, target: &UGraph) -> bool {
    if h.n() > target.n() {
        return false;
    }
    let mut assign: Vec<usize> = Vec::with_capacity(h.n());
    fn rec(h: &UGraph, target: &UGraph, assign: &mut Vec<usize>) -> bool {
        let next = assign.len();
        if next == h.n() {
            return true;
        }
        for cand in 0..target.n() {
            if assign.contains(&cand) {
                continue;
            }
            let ok = (0..next)
                .all(|prev| !h.has_edge(prev, next) || target.has_edge(assign[prev], cand));
            if ok {
                assign.push(cand);
                if rec(h, target, assign) {
                    return true;
                }
                assign.pop();
            }
        }
        false
    }
    rec(h, target, &mut assign)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn path_into_cycle_embeds() {
        assert!(emb_via_filter(&UGraph::path(4), &UGraph::cycle(5)));
        assert!(emb_brute_force(&UGraph::path(4), &UGraph::cycle(5)));
    }

    #[test]
    fn long_path_does_not_embed_into_short_cycle() {
        // P6 (6 vertices) cannot inject into C5 (5 vertices).
        assert!(!emb_via_filter(&UGraph::path(6), &UGraph::cycle(5)));
        assert!(!emb_brute_force(&UGraph::path(6), &UGraph::cycle(5)));
    }

    #[test]
    fn embedding_differs_from_homomorphism() {
        // C6 maps homomorphically onto C3 (wrap around) but does not embed.
        let c6 = UGraph::cycle(6);
        let c3 = UGraph::cycle(3);
        assert!(!emb_via_filter(&c6, &c3));
        // Without the filter, solutions exist (the plain homomorphism).
        let (pattern, _) = emb_query(&c6);
        let g = emb_target(&c3);
        assert!(!wdsparql_algebra::eval(&pattern, &g).is_empty());
    }

    #[test]
    fn triangle_needs_a_triangle() {
        assert!(!emb_via_filter(&UGraph::complete(3), &UGraph::cycle(5)));
        assert!(emb_via_filter(&UGraph::complete(3), &UGraph::complete(4)));
    }

    #[test]
    fn isolated_vertices_consume_capacity() {
        // 3 isolated vertices embed iff the target has ≥ 3 vertices.
        let h = UGraph::new(3);
        assert!(emb_via_filter(&h, &UGraph::path(3)));
        assert!(!emb_via_filter(&h, &UGraph::path(2)));
    }

    #[test]
    fn filter_encoding_agrees_with_brute_force() {
        let mut state = 0x1234_5678_9ABCu64;
        let mut next = move |m: u64| {
            state = state
                .wrapping_mul(6364136223846793005)
                .wrapping_add(1442695040888963407);
            (state >> 33) % m
        };
        for trial in 0..25 {
            let hn = 2 + next(3) as usize;
            let tn = 2 + next(4) as usize;
            let mut h = UGraph::new(hn);
            let mut t = UGraph::new(tn);
            for u in 0..hn {
                for w in (u + 1)..hn {
                    if next(2) == 0 {
                        h.add_edge(u, w);
                    }
                }
            }
            for u in 0..tn {
                for w in (u + 1)..tn {
                    if next(3) < 2 {
                        t.add_edge(u, w);
                    }
                }
            }
            assert_eq!(
                emb_via_filter(&h, &t),
                emb_brute_force(&h, &t),
                "trial {trial}"
            );
        }
    }
}
