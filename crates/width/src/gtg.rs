//! Supports, children assignments and the sets `GtG(T)` (§3.1).
//!
//! For a subtree `T` of a wdPF `F = {T_1, ..., T_m}`:
//!
//! * `supp(T)` — the tree indices `i` with a (unique, by NR normal form)
//!   witness subtree `T^{sp(i)}` of `T_i` satisfying
//!   `vars(T^{sp(i)}) = vars(T)`;
//! * a *children assignment* `∆` maps a non-empty `dom(∆) ⊆ supp(T)` to
//!   children of the respective witnesses;
//! * `S_∆ = pat(T) ∪ ⋃_i ρ_∆(i)` where `ρ_∆` renames child-private
//!   variables apart (into a pool of [`Variable::reserved`] names);
//! * `∆` is *valid* if no unassigned supporting tree folds into `S_∆`;
//! * `GtG(T) = {(S_∆, vars(T)) | ∆ ∈ VCA(T)}`.
//!
//! Every function here reads one per-forest table, built once per
//! recognition: each node's variables as a [`BitSet`] over a forest-local
//! variable index, so a support is a greedy closure over bitsets. A
//! witness has exactly the variables of `T`, all of them in `X`, so the
//! only homomorphism from it to try is the identity: it folds into `S_∆`
//! iff its triples are a subset of `S_∆`.

use std::collections::{BTreeMap, BTreeSet};
use wdsparql_hom::{BitSet, GenTGraph, TGraph};
use wdsparql_rdf::{Term, Variable};
use wdsparql_tree::{NodeId, Subtree, Wdpf, Wdpt, ROOT};

#[cfg(test)] // the tests reach it through `super::*`
use wdsparql_hom::maps_to;

/// A subtree of a wdPF: tree index plus node set.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct ForestSubtree {
    pub tree: usize,
    pub nodes: Subtree,
}

/// A children assignment `∆ ∈ CA(T)`: tree index → chosen child node.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct ChildrenAssignment {
    pub chosen: BTreeMap<usize, NodeId>,
}

/// One element of `GtG(T)` with its provenance.
#[derive(Clone, Debug)]
pub struct GtgElement {
    pub delta: ChildrenAssignment,
    pub graph: GenTGraph,
}

/// Computes `GtG(T)` — the generalised t-graphs of the valid children
/// assignments. This indexes the forest for one subtree; the recognisers
/// index it once for all of them.
pub fn gtg(f: &Wdpf, st: &ForestSubtree) -> Vec<GtgElement> {
    ForestTable::new(f).gtg(st)
}

/// Enumerates every subtree of the forest.
pub fn forest_subtrees(f: &Wdpf) -> Vec<ForestSubtree> {
    let mut out = Vec::new();
    for (i, tree) in f.trees.iter().enumerate() {
        for nodes in wdsparql_tree::enumerate_subtrees(tree) {
            out.push(ForestSubtree { tree: i, nodes });
        }
    }
    out
}

/// What GtG reads of a forest, indexed once: the forest's variables in
/// ascending order (a variable's position is its bit in every variable set
/// below, so iterating a set visits variables in ascending order) and each
/// node's variables as a set of those bits.
pub(crate) struct ForestTable<'f> {
    f: &'f Wdpf,
    vars: Vec<Variable>,
    /// `node_vars[i][n]` is `vars(n)` for node `n` of tree `i`.
    node_vars: Vec<Vec<BitSet>>,
}

/// One supporting tree of a subtree: its witness `T^{sp(i)}` as node bits
/// and the witness's children, in node order.
struct Witness {
    tree: usize,
    nodes: BitSet,
    children: Vec<NodeId>,
}

impl<'f> ForestTable<'f> {
    pub(crate) fn new(f: &'f Wdpf) -> ForestTable<'f> {
        let node_var_occurrences =
            |t: &'f Wdpt, n: NodeId| t.pat(n).iter().flat_map(|triple| triple.var_occurrences());
        let mut vars: Vec<Variable> = f
            .trees
            .iter()
            .flat_map(|t| t.node_ids().flat_map(move |n| node_var_occurrences(t, n)))
            .collect();
        vars.sort_unstable();
        vars.dedup();
        let bit = |v: Variable| vars.binary_search(&v).expect("a forest variable");
        let node_vars = f
            .trees
            .iter()
            .map(|t| {
                t.node_ids()
                    .map(|n| node_var_occurrences(t, n).map(bit).collect())
                    .collect()
            })
            .collect();
        ForestTable { f, vars, node_vars }
    }

    fn bit(&self, v: Variable) -> Option<usize> {
        self.vars.binary_search(&v).ok()
    }

    /// The variables of node `n` of tree `i` outside `x` — the ones
    /// `ρ_∆` renames when `n` is chosen — in ascending order.
    fn private<'a>(
        &'a self,
        i: usize,
        n: NodeId,
        x: &'a BitSet,
    ) -> impl Iterator<Item = usize> + 'a {
        self.node_vars[i][n.0].iter().filter(|&b| !x.contains(b))
    }

    fn subtree_vars(&self, st: &ForestSubtree) -> BitSet {
        let mut x = BitSet::new();
        for n in &st.nodes {
            for b in self.node_vars[st.tree][n.0].iter() {
                x.insert(b);
            }
        }
        x
    }

    /// The witness of tree `i` for the variable set `x`, if any. The
    /// largest subtree with variables inside `x` is the greedy closure from
    /// the root; the arena puts every parent before its children, so one
    /// pass in node order computes it. It is the witness iff it reaches
    /// every variable of `x`.
    fn witness(&self, i: usize, x: &BitSet) -> Option<Witness> {
        let tree = &self.f.trees[i];
        let mut nodes = BitSet::new();
        let mut reached = BitSet::new();
        for n in tree.node_ids() {
            let attached = tree.parent(n).is_none_or(|p| nodes.contains(p.0));
            if attached && self.node_vars[i][n.0].is_subset(x) {
                nodes.insert(n.0);
                for b in self.node_vars[i][n.0].iter() {
                    reached.insert(b);
                }
            }
        }
        if !nodes.contains(ROOT.0) || reached.len() != x.len() {
            return None;
        }
        let children = tree
            .node_ids()
            .filter(|n| !nodes.contains(n.0))
            .filter(|&n| tree.parent(n).is_some_and(|p| nodes.contains(p.0)))
            .collect();
        Some(Witness {
            tree: i,
            nodes,
            children,
        })
    }

    /// `supp(T)` for `x = vars(T)`, in tree order.
    fn support(&self, x: &BitSet) -> Vec<Witness> {
        (0..self.f.trees.len())
            .filter_map(|i| self.witness(i, x))
            .collect()
    }

    /// `pat` of a node set of tree `i`.
    fn pat(&self, i: usize, nodes: impl IntoIterator<Item = NodeId>) -> TGraph {
        let tree = &self.f.trees[i];
        nodes
            .into_iter()
            .flat_map(|n| tree.pat(n).iter().copied())
            .collect()
    }

    /// `GtG(T)`, in the order of `assignments`. A supporting
    /// tree whose witness's triples all lie in `pat(T)` folds into every
    /// `S_∆`, so only the assignments that choose a child for it can be
    /// valid; the others are never built. `T`'s own tree is one such when
    /// its witness is `T` itself (always, in NR normal form): then, if `T`
    /// has no children, `GtG(T)` is empty.
    pub(crate) fn gtg(&self, st: &ForestSubtree) -> Vec<GtgElement> {
        let x = self.subtree_vars(st);
        let supp = self.support(&x);
        let own = supp.iter().find(|w| w.tree == st.tree);
        let own = own.expect("the largest subtree of T's tree within vars(T) has vars(T)");
        if own.children.is_empty() && own.nodes.len() == st.nodes.len() {
            return Vec::new();
        }
        let base = SubtreeBase::new(self, st, x, &supp);
        let witness_pats: Vec<TGraph> = supp
            .iter()
            .map(|w| self.pat(w.tree, w.nodes.iter().map(NodeId)))
            .collect();
        let options: Vec<Options> = supp
            .iter()
            .zip(&witness_pats)
            .map(|(w, pat)| Options {
                tree: w.tree,
                children: w.children.clone(),
                skippable: !pat.is_subset(&base.pat),
            })
            .collect();
        assignments(&options)
            .into_iter()
            .filter_map(|delta| {
                let graph = base.s_delta(self, &delta);
                let valid = supp
                    .iter()
                    .zip(&witness_pats)
                    .filter(|(w, _)| !delta.chosen.contains_key(&w.tree))
                    .all(|(_, pat)| !pat.is_subset(&graph.s));
                valid.then_some(GtgElement { delta, graph })
            })
            .collect()
    }
}

/// What every `S_∆` of one subtree starts from: `pat(T)`, `X = vars(T)`
/// and the reserved variables outside `X` that `ρ_∆` renames into, in
/// order.
struct SubtreeBase {
    pat: TGraph,
    x: BitSet,
    x_vars: BTreeSet<Variable>,
    pool: Vec<Variable>,
}

impl SubtreeBase {
    /// The base for `st` with `x = vars(st)`, its pool long enough for any
    /// assignment over the support `supp`: per supporting tree, the most
    /// private variables one of its witness's children has.
    fn new(table: &ForestTable, st: &ForestSubtree, x: BitSet, supp: &[Witness]) -> SubtreeBase {
        let renamed = supp
            .iter()
            .map(|w| {
                let private = |&c: &NodeId| table.private(w.tree, c, &x).count();
                w.children.iter().map(private).max().unwrap_or(0)
            })
            .sum();
        let pat = table.pat(st.tree, st.nodes.iter().copied());
        let x_vars = x.iter().map(|b| table.vars[b]).collect();
        let pool = (0..)
            .map(Variable::reserved)
            .filter(|&v| !table.bit(v).is_some_and(|b| x.contains(b)))
            .take(renamed)
            .collect();
        SubtreeBase {
            pat,
            x,
            x_vars,
            pool,
        }
    }

    /// `(S_∆, vars(T))`: `pat(T)` united with each `ρ_∆(i)`, which is
    /// `pat(∆(i))` with its variables outside `vars(T)` renamed to the
    /// pool's next names. The pool skips members of `vars(T)` — the only
    /// variables of `S_∆` that are not renamed — so the new names are
    /// distinct from each other and from everything else in `S_∆`, and
    /// building the same `S_∆` again interns nothing.
    fn s_delta(&self, table: &ForestTable, delta: &ChildrenAssignment) -> GenTGraph {
        let mut s = self.pat.clone();
        let mut pool = self.pool.iter().copied();
        for (&i, &child) in &delta.chosen {
            let renaming: Vec<(Variable, Term)> = table
                .private(i, child, &self.x)
                .map(|b| table.vars[b])
                .zip(pool.by_ref().map(Term::Var))
                .collect();
            let rho = |v: Variable| renaming.iter().find(|(u, _)| *u == v).map(|&(_, t)| t);
            for t in table.f.trees[i].pat(child).iter() {
                s.insert(t.substitute(&rho));
            }
        }
        GenTGraph {
            s,
            x: self.x_vars.clone(),
        }
    }
}

/// One digit of the children-assignment counter: a supporting tree, its
/// witness's children, and whether the tree may be left unassigned.
struct Options {
    tree: usize,
    children: Vec<NodeId>,
    skippable: bool,
}

/// Every non-empty children assignment over `options`, counting with the
/// first tree as the most significant digit; a digit runs through "skip"
/// (when allowed) and then the children in order.
fn assignments(options: &[Options]) -> Vec<ChildrenAssignment> {
    let mut out: Vec<BTreeMap<usize, NodeId>> = vec![BTreeMap::new()];
    for o in options {
        let mut next = Vec::with_capacity(out.len() * (o.children.len() + 1));
        for partial in &out {
            if o.skippable {
                next.push(partial.clone());
            }
            for &c in &o.children {
                let mut with = partial.clone();
                with.insert(o.tree, c);
                next.push(with);
            }
        }
        out = next;
    }
    out.into_iter()
        .filter(|m| !m.is_empty())
        .map(|chosen| ChildrenAssignment { chosen })
        .collect()
}

#[cfg(test)]
pub(crate) mod tests {
    use super::*;
    use wdsparql_hom::{ctw, TGraph};
    use wdsparql_rdf::term::{iri, var};
    use wdsparql_rdf::tp;
    use wdsparql_tree::{Wdpt, ROOT};

    fn v(n: &str) -> Variable {
        Variable::new(n)
    }

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

    /// The wdPF F_k = {T1, T2, T3} of Example 4 / Figure 2.
    pub fn fk(k: usize) -> Wdpf {
        // T1: root (x,p,y); children n11 = (z,q,x), n12 = (y,r,o1) ∪ Kk.
        let mut t1 = Wdpt::new(tg(&[("?x", "p", "?y")]));
        t1.add_child(ROOT, tg(&[("?z", "q", "?x")]));
        let mut n12: Vec<(String, String, String)> = vec![("?y".into(), "r".into(), "?o1".into())];
        n12.extend(kk(k));
        let n12_ref: Vec<(&str, &str, &str)> = n12
            .iter()
            .map(|(a, b, c)| (a.as_str(), b.as_str(), c.as_str()))
            .collect();
        t1.add_child(ROOT, tg(&n12_ref));
        // T2: root (x,p,y); child n2 = (z,q,x),(w,q,z).
        let mut t2 = Wdpt::new(tg(&[("?x", "p", "?y")]));
        t2.add_child(ROOT, tg(&[("?z", "q", "?x"), ("?w", "q", "?z")]));
        // T3: root (x,p,y),(z,q,x); child n3 = (y,r,o),(o,r,o).
        let mut t3 = Wdpt::new(tg(&[("?x", "p", "?y"), ("?z", "q", "?x")]));
        t3.add_child(ROOT, tg(&[("?y", "r", "?o"), ("?o", "r", "?o")]));
        let f = Wdpf::new(vec![t1, t2, t3]);
        for t in &f.trees {
            t.validate().expect("F_k trees are valid wdPTs");
        }
        f
    }

    #[test]
    fn example4_supports() {
        let f = fk(3);
        // T1[r1]: vars {x, y} — supported by trees 1 and 2 (indices 0, 1).
        let st = ForestSubtree {
            tree: 0,
            nodes: [ROOT].into_iter().collect(),
        };
        let table = ForestTable::new(&f);
        let trees = |supp: &[Witness]| supp.iter().map(|w| w.tree).collect::<Vec<_>>();
        let supp = table.support(&table.subtree_vars(&st));
        assert_eq!(trees(&supp), vec![0, 1]);
        // T1[r1, n11]: vars {x, y, z} — supported by trees 1 and 3.
        let st2 = ForestSubtree {
            tree: 0,
            nodes: [ROOT, NodeId(1)].into_iter().collect(),
        };
        let supp2 = table.support(&table.subtree_vars(&st2));
        assert_eq!(trees(&supp2), vec![0, 2]);
        // The witness in tree 3 is its root subtree.
        let witness: Subtree = supp2[1].nodes.iter().map(NodeId).collect();
        assert_eq!(witness, [ROOT].into_iter().collect::<Subtree>());
    }

    #[test]
    fn example4_gtg_of_root_subtree() {
        let k = 3;
        let f = fk(k);
        let st = ForestSubtree {
            tree: 0,
            nodes: [ROOT].into_iter().collect(),
        };
        let elements = gtg(&f, &st);
        // Exactly ∆1 = {1↦n11, 2↦n2} and ∆2 = {1↦n12, 2↦n2}.
        assert_eq!(elements.len(), 2);
        for e in &elements {
            assert_eq!(
                e.delta.chosen.keys().copied().collect::<Vec<_>>(),
                vec![0, 1],
                "both supporting trees must be assigned"
            );
        }
        // One has ctw 1, the other ctw k−1 (Example 5 / Figure 3).
        let mut widths: Vec<usize> = elements.iter().map(|e| ctw(&e.graph).width).collect();
        widths.sort();
        assert_eq!(widths, vec![1, k - 1]);
        // The low-width element dominates the high-width one.
        let lo = elements.iter().find(|e| ctw(&e.graph).width == 1).unwrap();
        let hi = elements
            .iter()
            .find(|e| ctw(&e.graph).width == k - 1)
            .unwrap();
        assert!(maps_to(&lo.graph, &hi.graph));
        assert!(!maps_to(&hi.graph, &lo.graph));
    }

    #[test]
    fn example4_gtg_of_extended_subtrees() {
        let k = 3;
        let f = fk(k);
        // T1[r1, n11]: single valid assignment ∆ = {1↦n12, 3↦n3};
        // its S_∆ is (S', {x,y,z}) from Figure 1, with ctw 1.
        let st = ForestSubtree {
            tree: 0,
            nodes: [ROOT, NodeId(1)].into_iter().collect(),
        };
        let elements = gtg(&f, &st);
        assert_eq!(elements.len(), 1);
        let e = &elements[0];
        assert_eq!(
            e.delta.chosen.keys().copied().collect::<Vec<_>>(),
            vec![0, 2]
        );
        assert_eq!(ctw(&e.graph).width, 1);

        // T1[r1, n12]: single valid assignment ∆' = {1↦n11}; ctw 1.
        let st2 = ForestSubtree {
            tree: 0,
            nodes: [ROOT, NodeId(2)].into_iter().collect(),
        };
        let elements2 = gtg(&f, &st2);
        assert_eq!(elements2.len(), 1);
        assert_eq!(ctw(&elements2[0].graph).width, 1);
    }

    #[test]
    fn full_trees_have_empty_gtg() {
        let f = fk(2);
        for (i, tree) in f.trees.iter().enumerate() {
            let all: Subtree = tree.node_ids().collect();
            let st = ForestSubtree {
                tree: i,
                nodes: all,
            };
            assert!(gtg(&f, &st).is_empty(), "full tree {i}");
        }
    }

    #[test]
    fn gtg_matches_between_equal_var_subtrees() {
        // GtG(T2[r2]) has the same shape as GtG(T1[r1]) (Example 4).
        let f = fk(3);
        let st = ForestSubtree {
            tree: 1,
            nodes: [ROOT].into_iter().collect(),
        };
        let elements = gtg(&f, &st);
        assert_eq!(elements.len(), 2);
        let mut widths: Vec<usize> = elements.iter().map(|e| ctw(&e.graph).width).collect();
        widths.sort();
        assert_eq!(widths, vec![1, 2]);
    }

    #[test]
    fn forest_subtrees_counts() {
        let f = fk(2);
        // T1 (root + 2 children): 4 subtrees; T2: 2; T3: 2.
        assert_eq!(forest_subtrees(&f).len(), 8);
    }

    #[test]
    fn renaming_keeps_shared_vars() {
        let f = fk(2);
        let st = ForestSubtree {
            tree: 0,
            nodes: [ROOT].into_iter().collect(),
        };
        let table = ForestTable::new(&f);
        let x = table.subtree_vars(&st);
        let supp = table.support(&x);
        let options: Vec<Options> = supp
            .iter()
            .map(|w| Options {
                tree: w.tree,
                children: w.children.clone(),
                skippable: true,
            })
            .collect();
        let cas = assignments(&options);
        // 1 and 2 each have one witness child in T1 (two children) and T2
        // (one child): assignments = (2+1)*(1+1) - 1 = 5 non-empty, valid
        // or not.
        assert_eq!(cas.len(), 5);
        let base = SubtreeBase::new(&table, &st, x, &supp);
        for ca in &cas {
            let g = base.s_delta(&table, ca);
            // x and y are never renamed; z/w never survive unrenamed.
            assert!(g.s.vars().contains(&v("x")));
            assert!(g.s.vars().contains(&v("y")));
            assert!(!g.s.vars().contains(&v("z")));
            assert!(!g.s.vars().contains(&v("w")));
        }
    }
}
