//! Lemma 1 machinery (§2.1): the characterisation of `µ ∈ ⟦T⟧_G` for a
//! wdPT `T` in NR normal form:
//!
//! > `µ ∈ ⟦T⟧_G` iff there is a subtree `T'` of `T` such that (1) `µ` is a
//! > homomorphism from `pat(T')` to `G`, and (2) no child `n` of `T'` has a
//! > homomorphism from `pat(n)` to `G` compatible with `µ`.
//!
//! Since trees are in NR normal form, the candidate subtree `T^µ` with
//! `vars(T^µ) = dom(µ)` is unique when it exists.
//!
//! Every check of a question runs this per tree, so it runs on bits: `dom(µ)`
//! becomes bits of the tree's variable index (a variable the tree lacks
//! settles the tree at once), `T^µ` is the greedy closure over node
//! masks, its children are read off its node bits, and "µ maps
//! `pat(T^µ)` into `G`" walks the triples of `T^µ`'s nodes in place
//! instead of building their union. [`mu_subtree`] is the same on
//! [`Subtree`]s.

use wdsparql_hom::{find_hom_into_graph, BitSet, GenTGraph};
use wdsparql_rdf::{Mapping, TripleIndex};
use wdsparql_tree::{nodes_with_vars, subtree_of, NodeId, Subtree, Wdpt};

/// The unique subtree `T^µ` with `vars(T^µ) = dom(µ)` such that `µ` maps
/// `pat(T^µ)` into `G`, if it exists.
pub fn mu_subtree(t: &Wdpt, g: &dyn TripleIndex, mu: &Mapping) -> Option<Subtree> {
    mu_nodes(t, g, mu).map(|nodes| subtree_of(&nodes))
}

/// [`mu_subtree`] as node bits.
pub(crate) fn mu_nodes(t: &Wdpt, g: &dyn TripleIndex, mu: &Mapping) -> Option<BitSet> {
    let nodes = domain_nodes(t, mu)?;
    maps_into_under(t, &nodes, mu, g).then_some(nodes)
}

/// The node bits of the subtree with `vars = dom(µ)`, if any — `T^µ`
/// before the homomorphism test.
pub(crate) fn domain_nodes(t: &Wdpt, mu: &Mapping) -> Option<BitSet> {
    nodes_with_vars(t, &t.var_bits(mu.domain())?)
}

/// Does `µ` map every triple of the `nodes` of `t` into `G`?
pub(crate) fn maps_into_under(t: &Wdpt, nodes: &BitSet, mu: &Mapping, g: &dyn TripleIndex) -> bool {
    nodes.iter().all(|n| {
        t.pat(NodeId(n))
            .iter()
            .all(|p| p.apply(mu).is_some_and(|ground| g.contains(&ground)))
    })
}

/// Does child `n` of the subtree extend compatibly: a homomorphism `ν`
/// from `pat(n)` to `G` compatible with `µ`, if there is one.
pub fn child_extends(t: &Wdpt, g: &dyn TripleIndex, n: NodeId, mu: &Mapping) -> Option<Mapping> {
    find_hom_into_graph(&child_source(t, n, mu), g, mu)
}

/// The source of child `n`'s test, `(pat(n), vars(n) ∩ dom(µ))`, for the
/// exact search and the pebble game alike. With `dom(µ) = vars(T^µ)` this
/// is `(pat(T^µ) ∪ pat(n), vars(T^µ))` of Lemma 1 and Theorem 1 without
/// the triples of `pat(T^µ)`: [`mu_subtree`] has already shown that `µ`
/// maps them into `G`, and being ground under `µ` they constrain nothing
/// further.
pub(crate) fn child_source(t: &Wdpt, n: NodeId, mu: &Mapping) -> GenTGraph {
    let x = t.variables(t.var_mask(n)).filter(|&v| mu.contains(v));
    GenTGraph::new(t.pat(n).clone(), x)
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
