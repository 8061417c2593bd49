//! Domination width (Definitions 1–2).
//!
//! A set `G` of generalised t-graphs over a fixed `X` is *k-dominated* if
//! `{(S,X) ∈ G | ctw(S,X) ≤ k}` is a dominating set: every other element is
//! the target of a homomorphism from some low-width element. The domination
//! width `dw(F)` of a wdPF is the least `k ≥ 1` such that `GtG(T)` is
//! k-dominated for *every* subtree `T` of `F`.
//!
//! `ctw` — a core, then a treewidth — is the expensive step, so it is
//! computed lazily, and at most once per distinct `(S, X)` in one
//! recognition (F_k's seven `GtG` elements are four distinct ones). The
//! core of `(S, X)` is a retract: a subgraph of `S` with the same `X`,
//! whose Gaifman graph is a subgraph of `G(S, X)`. So
//! `1 ≤ ctw(S, X) ≤ tw(S, X)`, and the cheap test `tw ≤ 1` (the Gaifman
//! graph is a forest) settles much:
//!
//! * an element with `tw ≤ 1` has width exactly 1;
//! * an element into which an exact-width-1 element maps has threshold 1
//!   (no width is lower), and its core is never computed;
//! * only the rest get `ctw`, and one found to have width 1 joins the
//!   dominators of the elements after it. Thresholds above 1 are then
//!   found narrowest dominator first.
//!
//! [`dw_at_most`] reads the same rule at its `k`. Skipping an element's
//! core loses no dominator: if a settled `e` maps into `e'`, so does the
//! width-1 element that settled `e`, homomorphisms being closed under
//! composition.

use crate::gtg::{forest_subtrees, ForestTable, GtgElement};
use std::collections::HashMap;
use wdsparql_hom::{ctw, gaifman_graph, maps_to, GenTGraph};
use wdsparql_tree::Wdpf;

#[cfg(test)] // the tests reach it through `super::*`
use crate::gtg::gtg;

/// The widths and homomorphisms one recognition has computed, per
/// distinct `(S, X)`, each when first asked for: whether `tw ≤ 1` (the
/// Gaifman graph is a forest), `ctw`, and `→` per ordered pair.
#[derive(Default)]
pub(crate) struct Widths {
    ids: HashMap<GenTGraph, usize>,
    narrow: Vec<Option<bool>>,
    ctw: Vec<Option<usize>>,
    maps: HashMap<(usize, usize), bool>,
}

/// One `GtG` set with the ids [`Widths`] gave its elements.
pub(crate) struct Scoped<'a> {
    elements: &'a [GtgElement],
    ids: Vec<usize>,
}

impl Widths {
    pub(crate) fn scope<'a>(&mut self, elements: &'a [GtgElement]) -> Scoped<'a> {
        let ids = elements
            .iter()
            .map(|e| match self.ids.get(&e.graph) {
                Some(&id) => id,
                None => {
                    let id = self.ctw.len();
                    self.narrow.push(None);
                    self.ctw.push(None);
                    self.ids.insert(e.graph.clone(), id);
                    id
                }
            })
            .collect();
        Scoped { elements, ids }
    }

    /// Is `tw ≤ 1`, and so `ctw = 1`, for element `i`?
    fn narrow(&mut self, g: &Scoped, i: usize) -> bool {
        *self.narrow[g.ids[i]].get_or_insert_with(|| {
            // A forest: each component of `c` vertices has `c − 1` edges.
            let (gaifman, _) = gaifman_graph(&g.elements[i].graph);
            let (edges, n) = (gaifman.edge_count(), gaifman.n());
            edges < n.max(1) && edges + gaifman.components().len() == n
        })
    }

    pub(crate) fn ctw(&mut self, g: &Scoped, i: usize) -> usize {
        let id = g.ids[i];
        if self.narrow[id] == Some(true) {
            return 1;
        }
        *self.ctw[id].get_or_insert_with(|| ctw(&g.elements[i].graph).width)
    }

    /// Does element `d` map into element `i`?
    pub(crate) fn maps_to(&mut self, g: &Scoped, d: usize, i: usize) -> bool {
        *self
            .maps
            .entry((g.ids[d], g.ids[i]))
            .or_insert_with(|| maps_to(&g.elements[d].graph, &g.elements[i].graph))
    }

    /// Splits the set into dominators of `ctw ≤ k` and the elements of
    /// `ctw > k` that none of them settled on the way. Elements with
    /// `tw ≤ 1` come first and are dominators outright; each other element
    /// is tried against the dominators found so far before its `ctw` is
    /// computed, and an element some dominator maps into is in neither list.
    fn settle(&mut self, g: &Scoped, k: usize) -> (Vec<usize>, Vec<usize>) {
        if g.ids.len() == 1 {
            // Nothing else can dominate it: only its width matters.
            let only = vec![0];
            return if self.ctw(g, 0) <= k {
                (only, Vec::new())
            } else {
                (Vec::new(), only)
            };
        }
        let mut order: Vec<usize> = (0..g.ids.len()).collect();
        order.sort_by_key(|&i| !self.narrow(g, i));
        let (mut small, mut wide) = (Vec::new(), Vec::new());
        for i in order {
            if self.narrow(g, i) {
                small.push(i);
            } else if small.iter().any(|&d| self.maps_to(g, d, i)) {
                continue;
            } else if self.ctw(g, i) <= k {
                small.push(i);
            } else {
                wide.push(i);
            }
        }
        (small, wide)
    }

    /// Is the set k-dominated?
    fn k_dominated(&mut self, g: &Scoped, k: usize) -> bool {
        let (small, wide) = self.settle(g, k);
        wide.into_iter()
            .all(|i| small.iter().any(|&d| self.maps_to(g, d, i)))
    }

    /// The least `k` such that the set is k-dominated (`1` for the empty
    /// set): the largest threshold of an element, the least of its own
    /// width and the widths of the elements that map into it. Elements
    /// settled at 1 are left out; every width a remaining threshold can take
    /// is known: 1 for the width-1 dominators, `ctw` for the rest.
    fn min_domination(&mut self, g: &Scoped) -> usize {
        let (ones, mut wide) = self.settle(g, 1);
        wide.sort_by_key(|&i| self.ctw(g, i));
        let dominators: Vec<(usize, usize)> = ones
            .iter()
            .map(|&d| (d, 1))
            .chain(wide.iter().map(|&d| (d, self.ctw(g, d))))
            .collect();
        let mut k = 1;
        for &i in &wide {
            // Narrower elements, narrowest first: the first that maps into
            // `i` settles it.
            let own = self.ctw(g, i);
            let threshold = dominators
                .iter()
                .take_while(|&&(_, w)| w < own)
                .find(|&&(d, _)| self.maps_to(g, d, i))
                .map_or(own, |&(_, w)| w);
            k = k.max(threshold);
        }
        k
    }
}

/// Is the given `GtG` set k-dominated?
pub fn is_k_dominated(elements: &[GtgElement], k: usize) -> bool {
    let mut widths = Widths::default();
    let g = widths.scope(elements);
    widths.k_dominated(&g, k)
}

/// The least `k` such that the set is k-dominated (`1` for the empty set).
///
/// One pass: an element `e` stops being an obstacle at the least of its
/// own width and the widths of the elements that map into it, so the
/// answer is the largest of those thresholds — no candidate `k` is tried
/// and no width is computed twice, nor one the lazy rule of the module
/// settles without a core.
pub fn min_domination(elements: &[GtgElement]) -> usize {
    let mut widths = Widths::default();
    let g = widths.scope(elements);
    widths.min_domination(&g)
}

/// `dw(F)`: the domination width of a wdPF (Definition 2).
///
/// Exponential in `|F|` in general — domination width is a static property
/// of the *query*, which is small; recognition is NP-hard already for
/// UNION-free patterns (§5).
pub fn domination_width(f: &Wdpf) -> usize {
    let table = ForestTable::new(f);
    let mut widths = Widths::default();
    forest_subtrees(f)
        .iter()
        .map(|st| {
            let elements = table.gtg(st);
            let g = widths.scope(&elements);
            widths.min_domination(&g)
        })
        .max()
        .unwrap_or(1)
}

/// The recognition problem `dw(F) ≤ k`, with early exit per subtree.
///
/// `false` at `k = 0`: domination width is at least 1.
pub fn dw_at_most(f: &Wdpf, k: usize) -> bool {
    if k == 0 {
        return false;
    }
    let table = ForestTable::new(f);
    let mut widths = Widths::default();
    forest_subtrees(f).iter().all(|st| {
        let elements = table.gtg(st);
        let g = widths.scope(&elements);
        widths.k_dominated(&g, k)
    })
}

/// Per-subtree report: (tree index, node set size, |GtG|, minimal k) —
/// used by the experiments harness to reproduce Example 4/5 tables.
pub fn domination_report(f: &Wdpf) -> Vec<(usize, usize, usize, usize)> {
    let table = ForestTable::new(f);
    let mut widths = Widths::default();
    forest_subtrees(f)
        .iter()
        .map(|st| {
            let elements = table.gtg(st);
            let g = widths.scope(&elements);
            (
                st.tree,
                st.nodes.len(),
                elements.len(),
                widths.min_domination(&g),
            )
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
