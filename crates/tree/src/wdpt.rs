//! Well-designed pattern trees (wdPTs, §2.1).
//!
//! A wdPT is a rooted tree whose nodes carry t-graphs; the tree structure
//! records the nesting of OPT operators. Invariants:
//!
//! 1. rooted tree (node 0 is always the root here),
//! 2. each node is labelled with a t-graph,
//! 3. for every variable, the nodes whose label mentions it induce a
//!    connected subgraph of the tree,
//!
//! plus, throughout the paper (and enforced by [`Wdpt::nr_normalize`]):
//! NR normal form — every non-root node has a variable not in its parent.
//!
//! # The variable index
//!
//! Every tree numbers its own variables densely, in the order the arena
//! first meets them, and keeps `vars(n)` of each node as a [`BitSet`] of
//! those numbers ([`Wdpt::var_mask`]). [`Wdpt::new`] and
//! [`Wdpt::add_child`] index the label they are given, and
//! [`Wdpt::nr_normalize`] carries the bits along when it merges a label
//! into the children below it; no other operation changes a label. So
//! NR normal form is a subset test per node, and the subtree machinery of
//! [`crate::subtree`] and Lemma 1 works on node and variable bits rather
//! than on sets of [`Variable`]s. [`Wdpt::var_id`], [`Wdpt::var_bits`] and
//! [`Wdpt::variables`] translate between the two.

use std::collections::{BTreeMap, BTreeSet};
use std::fmt;
use wdsparql_hom::{BitSet, TGraph};
use wdsparql_rdf::Variable;

/// Index of a node inside its [`Wdpt`].
#[derive(Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash, Debug)]
pub struct NodeId(pub usize);

/// The root node id.
pub const ROOT: NodeId = NodeId(0);

#[derive(Clone, Debug)]
struct Node {
    pat: TGraph,
    /// `vars(pat)` as bits of the tree's variable index.
    vars: BitSet,
    parent: Option<NodeId>,
    children: Vec<NodeId>,
}

/// The variables of one tree, numbered densely in order of first
/// appearance in the arena.
#[derive(Clone, Debug, Default)]
struct VarIndex {
    /// Dense id → variable.
    vars: Vec<Variable>,
    /// `(variable, dense id)`, ascending by variable.
    ids: Vec<(Variable, usize)>,
}

impl VarIndex {
    fn id(&self, v: Variable) -> Option<usize> {
        let k = self.ids.binary_search_by_key(&v, |&(u, _)| u).ok()?;
        Some(self.ids[k].1)
    }

    /// The bits of `vars(pat)`, numbering the variables not seen before.
    fn index(&mut self, pat: &TGraph) -> BitSet {
        let mut bits = BitSet::new();
        for v in pat.iter().flat_map(|t| t.var_occurrences()) {
            let id = match self.ids.binary_search_by_key(&v, |&(u, _)| u) {
                Ok(k) => self.ids[k].1,
                Err(k) => {
                    self.ids.insert(k, (v, self.vars.len()));
                    self.vars.push(v);
                    self.vars.len() - 1
                }
            };
            bits.insert(id);
        }
        bits
    }
}

/// A well-designed pattern tree.
#[derive(Clone)]
pub struct Wdpt {
    nodes: Vec<Node>,
    index: VarIndex,
}

/// Structural errors detected by [`Wdpt::validate`].
#[derive(Clone, Debug, PartialEq, Eq)]
pub enum TreeError {
    /// Condition (3) fails: the occurrences of the variable do not induce a
    /// connected subgraph of the tree.
    DisconnectedVariable(Variable),
    /// NR normal form fails at the node: it adds no fresh variable.
    NotNrNormalForm(NodeId),
}

impl fmt::Display for TreeError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            TreeError::DisconnectedVariable(v) => {
                write!(f, "occurrences of {v} are not connected in the tree")
            }
            TreeError::NotNrNormalForm(n) => {
                write!(f, "node {} adds no fresh variable (not NR)", n.0)
            }
        }
    }
}

impl std::error::Error for TreeError {}

impl Wdpt {
    /// Creates a tree with only a root labelled `pat`.
    pub fn new(pat: TGraph) -> Wdpt {
        let mut index = VarIndex::default();
        Wdpt {
            nodes: vec![Node {
                vars: index.index(&pat),
                pat,
                parent: None,
                children: Vec::new(),
            }],
            index,
        }
    }

    /// Adds a child of `parent` labelled `pat`, returning its id.
    pub fn add_child(&mut self, parent: NodeId, pat: TGraph) -> NodeId {
        assert!(parent.0 < self.nodes.len(), "no such parent");
        let id = NodeId(self.nodes.len());
        self.nodes.push(Node {
            vars: self.index.index(&pat),
            pat,
            parent: Some(parent),
            children: Vec::new(),
        });
        self.nodes[parent.0].children.push(id);
        id
    }

    pub fn root(&self) -> NodeId {
        ROOT
    }

    pub fn len(&self) -> usize {
        self.nodes.len()
    }

    pub fn is_empty(&self) -> bool {
        false // a wdPT always has a root
    }

    pub fn node_ids(&self) -> impl Iterator<Item = NodeId> {
        (0..self.nodes.len()).map(NodeId)
    }

    /// `pat(n)`.
    pub fn pat(&self, n: NodeId) -> &TGraph {
        &self.nodes[n.0].pat
    }

    /// `vars(n)`.
    pub fn vars(&self, n: NodeId) -> BTreeSet<Variable> {
        self.variables(self.var_mask(n)).collect()
    }

    /// `vars(n)` as bits of the tree's variable index.
    pub fn var_mask(&self, n: NodeId) -> &BitSet {
        &self.nodes[n.0].vars
    }

    /// The dense id of `v` in this tree, if `v` occurs in it.
    pub fn var_id(&self, v: Variable) -> Option<usize> {
        self.index.id(v)
    }

    /// The variables whose ids `bits` holds, in id order.
    pub fn variables<'a>(&'a self, bits: &'a BitSet) -> impl Iterator<Item = Variable> + 'a {
        bits.iter().map(|id| self.index.vars[id])
    }

    /// The bits of a set of variables, or `None` if one of them does not
    /// occur in the tree.
    pub fn var_bits(&self, vars: impl IntoIterator<Item = Variable>) -> Option<BitSet> {
        let mut bits = BitSet::with_capacity(self.index.vars.len());
        for v in vars {
            bits.insert(self.var_id(v)?);
        }
        Some(bits)
    }

    pub fn parent(&self, n: NodeId) -> Option<NodeId> {
        self.nodes[n.0].parent
    }

    pub fn children(&self, n: NodeId) -> &[NodeId] {
        &self.nodes[n.0].children
    }

    /// `pat(T)`: the union of all node labels.
    pub fn pat_tree(&self) -> TGraph {
        self.nodes
            .iter()
            .flat_map(|n| n.pat.iter().copied())
            .collect()
    }

    /// `vars(T)`.
    pub fn vars_tree(&self) -> BTreeSet<Variable> {
        self.index.vars.iter().copied().collect()
    }

    /// Does node `n` add no variable over its parent? Never true of the
    /// root.
    fn adds_nothing(&self, n: NodeId) -> bool {
        self.parent(n)
            .is_some_and(|p| self.var_mask(n).is_subset(self.var_mask(p)))
    }

    /// The nodes on the path from the root to `n`, inclusive.
    pub fn path_from_root(&self, n: NodeId) -> Vec<NodeId> {
        let mut path = vec![n];
        let mut cur = n;
        while let Some(p) = self.parent(cur) {
            path.push(p);
            cur = p;
        }
        path.reverse();
        path
    }

    /// The *branch* `B_n` of `n`: the nodes on the path from the root to the
    /// parent of `n` (§3.2). `B_root = ∅`.
    pub fn branch(&self, n: NodeId) -> Vec<NodeId> {
        match self.parent(n) {
            None => Vec::new(),
            Some(p) => self.path_from_root(p),
        }
    }

    /// Checks condition (3) and NR normal form.
    pub fn validate(&self) -> Result<(), TreeError> {
        self.check_connectedness()?;
        match self.node_ids().find(|&n| self.adds_nothing(n)) {
            Some(n) => Err(TreeError::NotNrNormalForm(n)),
            None => Ok(()),
        }
    }

    /// Checks only condition (3) (variable-occurrence connectedness).
    pub fn check_connectedness(&self) -> Result<(), TreeError> {
        let mut holders: BTreeMap<Variable, Vec<NodeId>> = BTreeMap::new();
        for n in self.node_ids() {
            for v in self.vars(n) {
                holders.entry(v).or_default().push(n);
            }
        }
        for (v, nodes) in holders {
            if nodes.len() <= 1 {
                continue;
            }
            let set: BTreeSet<NodeId> = nodes.iter().copied().collect();
            // BFS within the holder set starting from the holder closest to
            // the root (holders form a connected subtree iff every holder's
            // parent chain reaches the top holder within the set).
            let mut seen: BTreeSet<NodeId> = BTreeSet::new();
            let start = nodes[0];
            let mut stack = vec![start];
            seen.insert(start);
            while let Some(cur) = stack.pop() {
                let mut nbrs: Vec<NodeId> = self.children(cur).to_vec();
                if let Some(p) = self.parent(cur) {
                    nbrs.push(p);
                }
                for nb in nbrs {
                    if set.contains(&nb) && seen.insert(nb) {
                        stack.push(nb);
                    }
                }
            }
            if seen.len() != set.len() {
                return Err(TreeError::DisconnectedVariable(v));
            }
        }
        Ok(())
    }

    /// Is the tree in NR normal form?
    pub fn is_nr_normal_form(&self) -> bool {
        !self.node_ids().any(|n| self.adds_nothing(n))
    }

    /// Rewrites the tree into NR normal form, preserving `⟦T⟧_G`
    /// (Letelier et al.): every non-root node `n` that adds no variable
    /// over its parent is deleted, `pat(n)` is added into each of `n`'s
    /// children, and those children take `n`'s place in its parent's
    /// child list.
    ///
    /// One pass in arena order, which puts parents first, decides every
    /// node: a node is deleted iff its label, with the labels of the
    /// deleted nodes right above it, adds nothing over its nearest kept
    /// ancestor. Deleting nodes one at a time, always the first in arena
    /// order that adds nothing, deletes the same nodes, since a deletion
    /// only changes nodes after it, and leaves the kept nodes in the same
    /// order.
    pub fn nr_normalize(&mut self) {
        if self.is_nr_normal_form() {
            return;
        }
        let old = std::mem::take(&mut self.nodes);
        // Per old node: its new id if kept; else the new id of its nearest
        // kept ancestor and the label it passes down.
        let mut kept: Vec<Option<usize>> = vec![None; old.len()];
        let mut anchor = vec![0; old.len()];
        let mut passed: Vec<Option<(TGraph, BitSet)>> = vec![None; old.len()];
        for (i, node) in old.iter().enumerate() {
            let (mut pat, mut vars) = (node.pat.clone(), node.vars.clone());
            let Some(p) = node.parent else {
                kept[i] = Some(0);
                self.nodes.push(Node {
                    pat,
                    vars,
                    parent: None,
                    children: Vec::new(),
                });
                continue;
            };
            if let Some((above, above_vars)) = &passed[p.0] {
                pat = pat.union(above);
                vars.union_with(above_vars);
            }
            anchor[i] = kept[p.0].unwrap_or(anchor[p.0]);
            if vars.is_subset(&self.nodes[anchor[i]].vars) {
                passed[i] = Some((pat, vars));
            } else {
                kept[i] = Some(self.nodes.len());
                self.nodes.push(Node {
                    pat,
                    vars,
                    parent: Some(NodeId(anchor[i])),
                    children: Vec::new(),
                });
            }
        }
        // Child lists: a deleted child is replaced by its own children.
        for (i, node) in old.iter().enumerate() {
            let Some(id) = kept[i] else { continue };
            let mut stack: Vec<NodeId> = node.children.iter().rev().copied().collect();
            while let Some(c) = stack.pop() {
                match kept[c.0] {
                    Some(k) => self.nodes[id].children.push(NodeId(k)),
                    None => stack.extend(old[c.0].children.iter().rev()),
                }
            }
        }
    }

    /// Renders the tree with indentation, root first.
    pub fn render(&self) -> String {
        let mut out = String::new();
        self.render_node(ROOT, 0, &mut out);
        out
    }

    fn render_node(&self, n: NodeId, depth: usize, out: &mut String) {
        for _ in 0..depth {
            out.push_str("  ");
        }
        out.push_str(&format!("{}\n", self.pat(n)));
        for &c in self.children(n) {
            self.render_node(c, depth + 1, out);
        }
    }
}

impl fmt::Display for Wdpt {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.write_str(&self.render())
    }
}

impl fmt::Debug for Wdpt {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.write_str(&self.render())
    }
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

    #[test]
    fn build_and_navigate() {
        let mut t = Wdpt::new(tg(&[("?x", "p", "?y")]));
        let a = t.add_child(ROOT, tg(&[("?y", "q", "?z")]));
        let b = t.add_child(a, tg(&[("?z", "r", "?w")]));
        assert_eq!(t.len(), 3);
        assert_eq!(t.parent(b), Some(a));
        assert_eq!(t.children(ROOT), &[a]);
        assert_eq!(t.path_from_root(b), vec![ROOT, a, b]);
        assert_eq!(t.branch(b), vec![ROOT, a]);
        assert!(t.branch(ROOT).is_empty());
        assert_eq!(t.pat_tree().len(), 3);
        assert_eq!(
            t.vars_tree(),
            [v("x"), v("y"), v("z"), v("w")].into_iter().collect()
        );
    }

    #[test]
    fn validate_accepts_good_tree() {
        let mut t = Wdpt::new(tg(&[("?x", "p", "?y")]));
        let a = t.add_child(ROOT, tg(&[("?y", "q", "?z")]));
        t.add_child(a, tg(&[("?z", "r", "?w")]));
        assert!(t.validate().is_ok());
    }

    #[test]
    fn validate_catches_disconnected_variable() {
        // ?w occurs at the root and in a grandchild but not the child.
        let mut t = Wdpt::new(tg(&[("?x", "p", "?w")]));
        let a = t.add_child(ROOT, tg(&[("?x", "q", "?z")]));
        t.add_child(a, tg(&[("?z", "r", "?w")]));
        assert_eq!(
            t.check_connectedness(),
            Err(TreeError::DisconnectedVariable(v("w")))
        );
    }

    #[test]
    fn validate_catches_nr_violation() {
        let mut t = Wdpt::new(tg(&[("?x", "p", "?y")]));
        let a = t.add_child(ROOT, tg(&[("?y", "q", "?x")])); // no fresh var
        assert_eq!(t.validate(), Err(TreeError::NotNrNormalForm(a)));
        assert!(!t.is_nr_normal_form());
    }

    #[test]
    fn nr_normalize_deletes_childless_filter_node() {
        let mut t = Wdpt::new(tg(&[("?x", "p", "?y")]));
        t.add_child(ROOT, tg(&[("?y", "q", "?x")]));
        t.nr_normalize();
        assert_eq!(t.len(), 1);
        assert!(t.validate().is_ok());
    }

    #[test]
    fn nr_normalize_merges_label_into_children() {
        // root {x p y} -> n {y q x} -> m {x r ?w}
        // n adds no fresh var; after normalisation m's label must contain
        // n's triple and hang off the root.
        let mut t = Wdpt::new(tg(&[("?x", "p", "?y")]));
        let n = t.add_child(ROOT, tg(&[("?y", "q", "?x")]));
        t.add_child(n, tg(&[("?x", "r", "?w")]));
        t.nr_normalize();
        assert_eq!(t.len(), 2);
        let child = t.children(ROOT)[0];
        assert_eq!(t.pat(child), &tg(&[("?y", "q", "?x"), ("?x", "r", "?w")]));
        assert!(t.validate().is_ok());
    }

    #[test]
    fn nr_normalize_cascades() {
        // Two stacked filter nodes collapse into the grandchild.
        let mut t = Wdpt::new(tg(&[("?x", "p", "?y")]));
        let n1 = t.add_child(ROOT, tg(&[("?y", "q", "?x")]));
        let n2 = t.add_child(n1, tg(&[("?x", "q", "?y")]));
        t.add_child(n2, tg(&[("?y", "r", "?w")]));
        t.nr_normalize();
        assert_eq!(t.len(), 2);
        let child = t.children(ROOT)[0];
        assert_eq!(t.pat(child).len(), 3);
        assert!(t.is_nr_normal_form());
    }

    #[test]
    fn nr_normalize_preserves_sibling_order() {
        let mut t = Wdpt::new(tg(&[("?x", "p", "?y")]));
        t.add_child(ROOT, tg(&[("?y", "q", "?a")]));
        let filt = t.add_child(ROOT, tg(&[("?y", "q", "?x")]));
        t.add_child(filt, tg(&[("?x", "r", "?b")]));
        t.add_child(ROOT, tg(&[("?y", "q", "?c")]));
        t.nr_normalize();
        let kids = t.children(ROOT).to_vec();
        assert_eq!(kids.len(), 3);
        let mids: Vec<_> = kids
            .iter()
            .map(|&k| t.vars(k).into_iter().collect::<Vec<_>>())
            .collect();
        // Order: ?a-child, merged ?b-child, ?c-child.
        assert!(mids[0].contains(&v("a")));
        assert!(mids[1].contains(&v("b")));
        assert!(mids[2].contains(&v("c")));
    }

    #[test]
    fn render_is_indented() {
        let mut t = Wdpt::new(tg(&[("?x", "p", "?y")]));
        let a = t.add_child(ROOT, tg(&[("?y", "q", "?z")]));
        t.add_child(a, tg(&[("?z", "r", "?w")]));
        let r = t.render();
        let lines: Vec<&str> = r.lines().collect();
        assert_eq!(lines.len(), 3);
        assert!(lines[1].starts_with("  "));
        assert!(lines[2].starts_with("    "));
    }
}
