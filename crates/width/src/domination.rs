//! Domination width (Definitions 1–2).
//!
//! A set `G` of generalised t-graphs over a fixed `X` is *k-dominated* if
//! `{(S,X) ∈ G | ctw(S,X) ≤ k}` is a dominating set: every other element is
//! the target of a homomorphism from some low-width element. The domination
//! width `dw(F)` of a wdPF is the least `k ≥ 1` such that `GtG(T)` is
//! k-dominated for *every* subtree `T` of `F`.
//!
//! `ctw` — a core, then a treewidth — is the expensive step, so each
//! entry point computes it once per `GtG` element: [`is_k_dominated`]
//! for its one `k`, [`min_domination`] (and through it
//! [`domination_width`]) for every `k` at once.

use crate::gtg::{forest_subtrees, gtg, GtgElement};
use wdsparql_hom::{ctw, maps_to};
use wdsparql_tree::Wdpf;

/// `ctw` of every element, in order.
fn widths(elements: &[GtgElement]) -> Vec<usize> {
    elements.iter().map(|e| ctw(&e.graph).width).collect()
}

/// Is the given `GtG` set k-dominated?
pub fn is_k_dominated(elements: &[GtgElement], k: usize) -> bool {
    let widths = widths(elements);
    let dominators: Vec<usize> = (0..elements.len()).filter(|&i| widths[i] <= k).collect();
    elements.iter().enumerate().all(|(i, e)| {
        widths[i] <= k
            || dominators
                .iter()
                .any(|&d| maps_to(&elements[d].graph, &e.graph))
    })
}

/// The least `k` such that the set is k-dominated (`1` for the empty set).
///
/// One pass: an element `e` stops being an obstacle at the least of its
/// own width and the widths of the elements that map into it, so the
/// answer is the largest of those thresholds — no candidate `k` is tried
/// and no width is computed twice. Narrower elements are tried narrowest
/// first, and the first that maps into `e` settles `e`.
pub fn min_domination(elements: &[GtgElement]) -> usize {
    let widths = widths(elements);
    let mut narrowest_first: Vec<usize> = (0..elements.len()).collect();
    narrowest_first.sort_by_key(|&i| widths[i]);
    let threshold = |i: usize| {
        narrowest_first
            .iter()
            .take_while(|&&d| widths[d] < widths[i])
            .find(|&&d| maps_to(&elements[d].graph, &elements[i].graph))
            .map_or(widths[i], |&d| widths[d])
    };
    (0..elements.len()).map(threshold).max().unwrap_or(1).max(1)
}

/// `dw(F)`: the domination width of a wdPF (Definition 2).
///
/// Exponential in `|F|` in general — domination width is a static property
/// of the *query*, which is small; recognition is NP-hard already for
/// UNION-free patterns (§5).
pub fn domination_width(f: &Wdpf) -> usize {
    forest_subtrees(f)
        .iter()
        .map(|st| min_domination(&gtg(f, st)))
        .max()
        .unwrap_or(1)
        .max(1)
}

/// The recognition problem `dw(F) ≤ k`, with early exit per subtree.
pub fn dw_at_most(f: &Wdpf, k: usize) -> bool {
    forest_subtrees(f)
        .iter()
        .all(|st| is_k_dominated(&gtg(f, st), k))
}

/// Per-subtree report: (tree index, node set size, |GtG|, minimal k) —
/// used by the experiments harness to reproduce Example 4/5 tables.
pub fn domination_report(f: &Wdpf) -> Vec<(usize, usize, usize, usize)> {
    forest_subtrees(f)
        .iter()
        .map(|st| {
            let g = gtg(f, st);
            (st.tree, st.nodes.len(), g.len(), min_domination(&g))
        })
        .collect()
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::branch::branch_treewidth;
    use crate::branch::tests::tprime;
    use crate::gtg::tests::fk;
    use wdsparql_tree::Wdpf;

    #[test]
    fn example5_dw_of_fk_is_one() {
        for k in 2..=4 {
            let f = fk(k);
            assert_eq!(domination_width(&f), 1, "dw(F_{k})");
            assert!(dw_at_most(&f, 1));
        }
    }

    #[test]
    fn report_covers_all_subtrees() {
        let f = fk(2);
        let report = domination_report(&f);
        assert_eq!(report.len(), 8);
        assert!(report.iter().all(|&(_, _, _, k)| k == 1));
    }

    #[test]
    fn proposition5_dw_equals_bw_on_tprime() {
        // UNION-free patterns: dw = bw (Proposition 5).
        for k in 2..=4 {
            let t = tprime(k);
            let bw = branch_treewidth(&t);
            let f = Wdpf::new(vec![t]);
            assert_eq!(domination_width(&f), bw, "T'_{k}");
        }
    }

    #[test]
    fn fk_subtree_gtg_is_dominated_nontrivially() {
        // The root subtree of T1 in F_3 is 1-dominated even though one of
        // its elements has ctw 2 — the non-trivial domination that
        // separates forests from UNION-free trees (remark after Prop. 5).
        let f = fk(3);
        let st = crate::gtg::ForestSubtree {
            tree: 0,
            nodes: [wdsparql_tree::ROOT].into_iter().collect(),
        };
        let g = gtg(&f, &st);
        assert!(is_k_dominated(&g, 1));
        let max_ctw = g
            .iter()
            .map(|e| wdsparql_hom::ctw(&e.graph).width)
            .max()
            .unwrap();
        assert_eq!(max_ctw, 2, "an element of ctw 2 exists but is dominated");
    }
}
