//! Subtrees of a wdPT (§2.1): connected node sets containing the root.
//!
//! The arena in [`Wdpt`] guarantees `parent(n).0 < n.0`, which makes
//! subtree enumeration and the witness closure ([`maximal_subtree_within`])
//! one pass each in arena order.
//!
//! The closures and a subtree's children are computed on bits: a subtree
//! as the set of its node ids, its variables as bits of the tree's
//! variable index ([`Wdpt::var_mask`]). [`nodes_with_vars`] and
//! [`children_of_nodes`] take and give those bits, for callers that run
//! them per question (Lemma 1); the functions on [`Subtree`]s and sets of
//! [`Variable`]s wrap them.

use crate::wdpt::{NodeId, Wdpt, ROOT};
use std::collections::BTreeSet;
use wdsparql_hom::{BitSet, TGraph};
use wdsparql_rdf::Variable;

/// A subtree is the set of its node ids (always containing the root).
pub type Subtree = BTreeSet<NodeId>;

/// The subtree containing only the root.
pub fn root_subtree() -> Subtree {
    [ROOT].into_iter().collect()
}

/// Node bits as a subtree.
pub fn subtree_of(nodes: &BitSet) -> Subtree {
    nodes.iter().map(NodeId).collect()
}

/// Is `s` a subtree of `t` (contains the root; closed under parents)?
pub fn is_valid_subtree(t: &Wdpt, s: &Subtree) -> bool {
    s.contains(&ROOT)
        && s.iter().all(|&n| {
            n.0 < t.len()
                && match t.parent(n) {
                    None => true,
                    Some(p) => s.contains(&p),
                }
        })
}

/// `pat(T')` for a subtree.
pub fn subtree_pat(t: &Wdpt, s: &Subtree) -> TGraph {
    s.iter().flat_map(|&n| t.pat(n).iter().copied()).collect()
}

/// `vars(T')` for a subtree.
pub fn subtree_vars(t: &Wdpt, s: &Subtree) -> BTreeSet<Variable> {
    let mut bits = BitSet::new();
    for &n in s {
        bits.union_with(t.var_mask(n));
    }
    t.variables(&bits).collect()
}

/// The *children of the subtree*: nodes outside `s` whose parent is in `s`.
pub fn subtree_children(t: &Wdpt, s: &Subtree) -> Vec<NodeId> {
    children_of_nodes(t, &s.iter().map(|n| n.0).collect()).collect()
}

/// [`subtree_children`] of a subtree given as node bits, in node order.
pub fn children_of_nodes<'a>(t: &'a Wdpt, nodes: &'a BitSet) -> impl Iterator<Item = NodeId> + 'a {
    t.node_ids()
        .filter(|n| !nodes.contains(n.0))
        .filter(|&n| t.parent(n).is_some_and(|p| nodes.contains(p.0)))
}

/// Enumerates *all* subtrees of `t` (exponentially many in general).
pub fn enumerate_subtrees(t: &Wdpt) -> Vec<Subtree> {
    let mut acc: Vec<Subtree> = vec![root_subtree()];
    for id in 1..t.len() {
        let n = NodeId(id);
        let parent = t.parent(n).expect("non-root has a parent");
        let mut next = Vec::with_capacity(acc.len() * 2);
        for s in acc {
            if s.contains(&parent) {
                let mut with = s.clone();
                with.insert(n);
                next.push(s);
                next.push(with);
            } else {
                next.push(s);
            }
        }
        acc = next;
    }
    acc
}

/// The unique maximal subtree `T'` with `vars(T') ⊆ allowed` — the greedy
/// closure from the root, in one pass in node order: the arena puts every
/// parent before its children, so a node joins iff its parent has joined
/// (the root: always) and its variables fit. Returns `None` if even the
/// root does not fit.
pub fn maximal_subtree_within(t: &Wdpt, allowed: &BTreeSet<Variable>) -> Option<Subtree> {
    let bits: BitSet = allowed.iter().filter_map(|&v| t.var_id(v)).collect();
    maximal_nodes_within(t, &bits).map(|s| subtree_of(&s))
}

/// [`maximal_subtree_within`] on bits: `allowed` as variable bits, the
/// subtree as node bits.
fn maximal_nodes_within(t: &Wdpt, allowed: &BitSet) -> Option<BitSet> {
    let mut nodes = BitSet::with_capacity(t.len());
    for n in t.node_ids() {
        let attached = t.parent(n).is_none_or(|p| nodes.contains(p.0));
        if attached && t.var_mask(n).is_subset(allowed) {
            nodes.insert(n.0);
        }
    }
    nodes.contains(ROOT.0).then_some(nodes)
}

/// The unique subtree `T'` with `vars(T') = target` exactly, if any — the
/// witness `T^{sp(i)}` in the definition of support (§3.1). For trees in NR
/// normal form this witness is unique when it exists.
pub fn subtree_with_vars(t: &Wdpt, target: &BTreeSet<Variable>) -> Option<Subtree> {
    let target = t.var_bits(target.iter().copied())?;
    nodes_with_vars(t, &target).map(|s| subtree_of(&s))
}

/// [`subtree_with_vars`] on bits: `target` as variable bits, the witness
/// as node bits.
pub fn nodes_with_vars(t: &Wdpt, target: &BitSet) -> Option<BitSet> {
    let nodes = maximal_nodes_within(t, target)?;
    let mut reached = BitSet::new();
    for n in nodes.iter() {
        reached.union_with(t.var_mask(NodeId(n)));
    }
    (reached.len() == target.len()).then_some(nodes)
}

#[cfg(test)]
mod tests {
    use super::*;
    use wdsparql_rdf::term::{iri, var};
    use wdsparql_rdf::tp;

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

    fn v(n: &str) -> Variable {
        Variable::new(n)
    }

    /// root {x p y} with children {y q z} and {y r w}, grandchild {z s u}.
    fn sample() -> (Wdpt, NodeId, NodeId, NodeId) {
        let mut t = Wdpt::new(tg(&[("?x", "p", "?y")]));
        let a = t.add_child(ROOT, tg(&[("?y", "q", "?z")]));
        let b = t.add_child(ROOT, tg(&[("?y", "r", "?w")]));
        let c = t.add_child(a, tg(&[("?z", "s", "?u")]));
        (t, a, b, c)
    }

    #[test]
    fn validity_checks() {
        let (t, a, _b, c) = sample();
        assert!(is_valid_subtree(&t, &root_subtree()));
        let good: Subtree = [ROOT, a, c].into_iter().collect();
        assert!(is_valid_subtree(&t, &good));
        let no_root: Subtree = [a].into_iter().collect();
        assert!(!is_valid_subtree(&t, &no_root));
        let gap: Subtree = [ROOT, c].into_iter().collect();
        assert!(!is_valid_subtree(&t, &gap));
    }

    #[test]
    fn children_of_subtree() {
        let (t, a, b, c) = sample();
        assert_eq!(subtree_children(&t, &root_subtree()), vec![a, b]);
        let with_a: Subtree = [ROOT, a].into_iter().collect();
        assert_eq!(subtree_children(&t, &with_a), vec![b, c]);
        let all: Subtree = [ROOT, a, b, c].into_iter().collect();
        assert!(subtree_children(&t, &all).is_empty());
    }

    #[test]
    fn enumerate_counts() {
        let (t, _, _, _) = sample();
        // Subtrees: {r}, {r,a}, {r,b}, {r,a,b}, {r,a,c}, {r,a,b,c} = 6.
        let subs = enumerate_subtrees(&t);
        assert_eq!(subs.len(), 6);
        for s in &subs {
            assert!(is_valid_subtree(&t, s));
        }
    }

    #[test]
    fn maximal_subtree_closure() {
        let (t, a, _b, _c) = sample();
        let allowed: BTreeSet<Variable> = [v("x"), v("y"), v("z")].into_iter().collect();
        let s = maximal_subtree_within(&t, &allowed).unwrap();
        assert_eq!(s, [ROOT, a].into_iter().collect::<Subtree>());
        // Root does not fit: no subtree.
        let tiny: BTreeSet<Variable> = [v("x")].into_iter().collect();
        assert!(maximal_subtree_within(&t, &tiny).is_none());
    }

    #[test]
    fn witness_subtree_requires_exact_vars() {
        let (t, a, _b, _c) = sample();
        let exact: BTreeSet<Variable> = [v("x"), v("y"), v("z")].into_iter().collect();
        assert_eq!(
            subtree_with_vars(&t, &exact),
            Some([ROOT, a].into_iter().collect::<Subtree>())
        );
        // Superset of achievable vars but unreachable exactly: {x,y,z,q}.
        let too_many: BTreeSet<Variable> = [v("x"), v("y"), v("z"), v("nonexistent")]
            .into_iter()
            .collect();
        assert_eq!(subtree_with_vars(&t, &too_many), None);
    }

    #[test]
    fn pat_and_vars_of_subtree() {
        let (t, a, _b, _c) = sample();
        let s: Subtree = [ROOT, a].into_iter().collect();
        assert_eq!(subtree_pat(&t, &s).len(), 2);
        assert_eq!(
            subtree_vars(&t, &s),
            [v("x"), v("y"), v("z")].into_iter().collect()
        );
    }
}
