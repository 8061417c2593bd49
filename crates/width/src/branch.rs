//! Branch treewidth (Definition 3, §3.2) and local tractability
//! (Letelier et al., as recalled after Theorem 1).
//!
//! For a node `n ≠ r` of a wdPT with branch `B_n` (the root-to-parent
//! path):
//!
//! * `S^br_n = pat(n) ∪ ⋃_{n' ∈ B_n} pat(n')` and
//!   `X^br_n = vars(⋃_{n' ∈ B_n} pat(n'))`;
//! * `bw(T)` is the least `k` with `ctw(S^br_n, X^br_n) ≤ k` for all `n`;
//! * local tractability instead bounds `ctw(pat(n), vars(n) ∩ vars(n'))`
//!   per node/parent pair.
//!
//! Proposition 5 shows `dw(P) = bw(P)` for UNION-free well-designed
//! patterns; bounded `bw` strictly generalises local tractability.

use wdsparql_hom::{ctw, GenTGraph, TGraph};
use wdsparql_tree::{NodeId, Wdpf, Wdpt};

/// `(S^br_n, X^br_n)` for a non-root node.
pub fn branch_tgraph(t: &Wdpt, n: NodeId) -> GenTGraph {
    assert!(t.parent(n).is_some(), "the root has no branch t-graph");
    let mut branch_pat = TGraph::new();
    for b in t.branch(n) {
        branch_pat = branch_pat.union(t.pat(b));
    }
    let x = branch_pat.vars();
    GenTGraph::new(t.pat(n).union(&branch_pat), x)
}

/// `bw(T)`: the branch treewidth of a wdPT (≥ 1 by convention).
pub fn branch_treewidth(t: &Wdpt) -> usize {
    t.node_ids()
        .filter(|n| t.parent(*n).is_some())
        .map(|n| ctw(&branch_tgraph(t, n)).width)
        .max()
        .unwrap_or(1)
        .max(1)
}

/// `bw` extended to forests as the maximum over trees (used when relating
/// bw to dw on single-tree forests).
pub fn branch_treewidth_forest(f: &Wdpf) -> usize {
    f.trees.iter().map(branch_treewidth).max().unwrap_or(1)
}

/// The recognition problem `bw(T) ≤ k`; `false` at `k = 0`, as `bw ≥ 1`.
pub fn bw_at_most(t: &Wdpt, k: usize) -> bool {
    k >= 1 && branch_treewidth(t) <= k
}

/// The local-tractability width of a wdPT: the max over non-root nodes `n`
/// with parent `n'` of `ctw(pat(n), vars(n) ∩ vars(n'))` (`1` for a
/// single-node tree). A class is locally tractable iff this is bounded.
pub fn local_width(t: &Wdpt) -> usize {
    t.node_ids()
        .filter_map(|n| t.parent(n).map(|p| (n, p)))
        .map(|(n, p)| {
            let shared: Vec<_> = t.vars(n).intersection(&t.vars(p)).copied().collect();
            ctw(&GenTGraph::new(t.pat(n).clone(), shared)).width
        })
        .max()
        .unwrap_or(1)
        .max(1)
}

/// Local width of a forest.
pub fn local_width_forest(f: &Wdpf) -> usize {
    f.trees.iter().map(local_width).max().unwrap_or(1)
}

#[cfg(test)]
pub(crate) mod tests {
    use super::*;
    use wdsparql_rdf::term::{iri, var};
    use wdsparql_rdf::tp;
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

    fn kk(k: usize) -> Vec<(String, String, String)> {
        let mut out = Vec::new();
        for i in 1..=k {
            for j in (i + 1)..=k {
                out.push((format!("?o{i}"), "r".to_string(), format!("?o{j}")));
            }
        }
        out
    }

    /// T'_k from §3.2: root {(y,r,y)}, child {(y,r,o1)} ∪ K_k.
    pub(crate) fn tprime(k: usize) -> Wdpt {
        let mut t = Wdpt::new(tg(&[("?y", "r", "?y")]));
        let mut child: Vec<(String, String, String)> =
            vec![("?y".into(), "r".into(), "?o1".into())];
        child.extend(kk(k));
        let child_ref: Vec<(&str, &str, &str)> = child
            .iter()
            .map(|(a, b, c)| (a.as_str(), b.as_str(), c.as_str()))
            .collect();
        t.add_child(ROOT, tg(&child_ref));
        t.validate().expect("T'_k is a valid wdPT");
        t
    }

    #[test]
    fn section32_tprime_family() {
        // bw(T'_k) = 1 for all k (the branch t-graph's core collapses onto
        // the loop), while local width is k−1: the family separates
        // bounded-bw from local tractability.
        for k in 2..=5 {
            let t = tprime(k);
            assert_eq!(branch_treewidth(&t), 1, "bw(T'_{k})");
            assert_eq!(local_width(&t), k - 1, "local(T'_{k})");
        }
    }

    #[test]
    fn single_node_tree_has_width_one() {
        let t = Wdpt::new(tg(&[("?x", "p", "?y")]));
        assert_eq!(branch_treewidth(&t), 1);
        assert_eq!(local_width(&t), 1);
        assert!(bw_at_most(&t, 1));
    }

    #[test]
    fn clique_child_without_loop_has_high_bw() {
        // root {(x,p,y)}, child {(y,r,o1)} ∪ K_k: the branch t-graph is a
        // core (no loop to fold into), so bw = k−1.
        for k in 3..=5 {
            let mut t = Wdpt::new(tg(&[("?x", "p", "?y")]));
            let mut child: Vec<(String, String, String)> =
                vec![("?y".into(), "r".into(), "?o1".into())];
            child.extend(kk(k));
            let child_ref: Vec<(&str, &str, &str)> = child
                .iter()
                .map(|(a, b, c)| (a.as_str(), b.as_str(), c.as_str()))
                .collect();
            t.add_child(ROOT, tg(&child_ref));
            assert_eq!(branch_treewidth(&t), k - 1);
            assert!(!bw_at_most(&t, k - 2));
            assert!(bw_at_most(&t, k - 1));
        }
    }

    #[test]
    fn branch_tgraph_accumulates_ancestors() {
        let mut t = Wdpt::new(tg(&[("?x", "p", "?y")]));
        let a = t.add_child(ROOT, tg(&[("?y", "q", "?z")]));
        let b = t.add_child(a, tg(&[("?z", "q", "?w")]));
        let bt = branch_tgraph(&t, b);
        assert_eq!(bt.s.len(), 3);
        // X^br = vars of the two ancestors.
        assert_eq!(
            bt.x,
            [var("x"), var("y"), var("z")]
                .iter()
                .map(|t| t.as_var().unwrap())
                .collect()
        );
    }

    #[test]
    fn deep_chain_has_bw_one() {
        let mut t = Wdpt::new(tg(&[("?v0", "p", "?v1")]));
        let mut cur = ROOT;
        for i in 1..6 {
            cur = t.add_child(
                cur,
                tg(&[(
                    format!("?v{i}").as_str(),
                    "p",
                    format!("?v{}", i + 1).as_str(),
                )]),
            );
        }
        assert_eq!(branch_treewidth(&t), 1);
        assert_eq!(local_width(&t), 1);
    }
}
