//! Lemma 1 machinery (§2.1): the characterisation of `µ ∈ ⟦T⟧_G` for a
//! wdPT `T` in NR normal form:
//!
//! > `µ ∈ ⟦T⟧_G` iff there is a subtree `T'` of `T` such that (1) `µ` is a
//! > homomorphism from `pat(T')` to `G`, and (2) no child `n` of `T'` has a
//! > homomorphism from `pat(n)` to `G` compatible with `µ`.
//!
//! Since trees are in NR normal form, the candidate subtree `T^µ` with
//! `vars(T^µ) = dom(µ)` is unique when it exists.

use wdsparql_hom::{find_hom_into_graph, GenTGraph};
use wdsparql_rdf::{Mapping, TripleIndex};
use wdsparql_tree::{subtree_pat, subtree_with_vars, NodeId, Subtree, Wdpt};

/// The unique subtree `T^µ` with `vars(T^µ) = dom(µ)` such that `µ` maps
/// `pat(T^µ)` into `G`, if it exists.
pub fn mu_subtree(t: &Wdpt, g: &dyn TripleIndex, mu: &Mapping) -> Option<Subtree> {
    let dom = mu.domain().collect();
    let st = subtree_with_vars(t, &dom)?;
    subtree_pat(t, &st).maps_into_under(mu, g).then_some(st)
}

/// Does child `n` of the subtree extend compatibly: a homomorphism `ν`
/// from `pat(n)` to `G` compatible with `µ`, if there is one.
pub fn child_extends(t: &Wdpt, g: &dyn TripleIndex, n: NodeId, mu: &Mapping) -> Option<Mapping> {
    let pat = t.pat(n);
    let x: Vec<_> = pat.vars().into_iter().filter(|v| mu.contains(*v)).collect();
    let src = GenTGraph::new(pat.clone(), x);
    find_hom_into_graph(&src, g, mu)
}

#[cfg(test)]
mod tests {
    use super::*;
    use wdsparql_hom::TGraph;
    use wdsparql_rdf::term::{iri, var};
    use wdsparql_rdf::tp;
    use wdsparql_rdf::RdfGraph;
    use wdsparql_tree::ROOT;

    fn tg(pats: &[(&str, &str, &str)]) -> TGraph {
        TGraph::from_patterns(pats.iter().map(|&(s, p, o)| {
            let term = |x: &str| {
                if let Some(name) = x.strip_prefix('?') {
                    var(name)
                } else {
                    iri(x)
                }
            };
            tp(term(s), term(p), term(o))
        }))
    }

    fn sample_tree() -> Wdpt {
        let mut t = Wdpt::new(tg(&[("?x", "p", "?y")]));
        let a = t.add_child(ROOT, tg(&[("?y", "q", "?z")]));
        t.add_child(a, tg(&[("?z", "r", "?w")]));
        t
    }

    #[test]
    fn mu_subtree_exists_when_mapping_matches() {
        let t = sample_tree();
        let g = RdfGraph::from_strs([("a", "p", "b"), ("b", "q", "c")]);
        let mu = Mapping::from_strs([("x", "a"), ("y", "b")]);
        let st = mu_subtree(&t, &g, &mu).unwrap();
        assert_eq!(st.len(), 1);
        let mu2 = Mapping::from_strs([("x", "a"), ("y", "b"), ("z", "c")]);
        let st2 = mu_subtree(&t, &g, &mu2).unwrap();
        assert_eq!(st2.len(), 2);
    }

    #[test]
    fn mu_subtree_requires_hom() {
        let t = sample_tree();
        let g = RdfGraph::from_strs([("a", "p", "b")]);
        // Right domain, wrong values.
        let mu = Mapping::from_strs([("x", "b"), ("y", "a")]);
        assert!(mu_subtree(&t, &g, &mu).is_none());
        // Domain not matching any subtree's variable set.
        let mu2 = Mapping::from_strs([("x", "a")]);
        assert!(mu_subtree(&t, &g, &mu2).is_none());
    }

    #[test]
    fn child_extension_checks_compatibility() {
        let t = sample_tree();
        let child = t.children(ROOT)[0];
        let g = RdfGraph::from_strs([("a", "p", "b"), ("b", "q", "c")]);
        let mu_good = Mapping::from_strs([("x", "a"), ("y", "b")]);
        assert!(child_extends(&t, &g, child, &mu_good).is_some());
        let g2 = RdfGraph::from_strs([("a", "p", "b"), ("z9", "q", "c")]);
        assert!(child_extends(&t, &g2, child, &mu_good).is_none());
    }
}
