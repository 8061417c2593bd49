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
//!   variables apart (into a reserved pool, see [`s_delta`]);
//! * `∆` is *valid* if no unassigned supporting tree folds into `S_∆`;
//! * `GtG(T) = {(S_∆, vars(T)) | ∆ ∈ VCA(T)}`.

use std::collections::BTreeMap;
use wdsparql_hom::{maps_to, GenTGraph, VarMap};
use wdsparql_rdf::{Term, Variable};
use wdsparql_tree::{subtree_pat, subtree_vars, subtree_with_vars, NodeId, Subtree, Wdpf};

/// A subtree of a wdPF: tree index plus node set.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct ForestSubtree {
    pub tree: usize,
    pub nodes: Subtree,
}

/// The support of a subtree: for each supporting tree index, its witness
/// subtree.
#[derive(Clone, Debug)]
pub struct Support {
    pub witnesses: BTreeMap<usize, Subtree>,
}

impl Support {
    pub fn indices(&self) -> impl Iterator<Item = usize> + '_ {
        self.witnesses.keys().copied()
    }

    pub fn len(&self) -> usize {
        self.witnesses.len()
    }

    pub fn is_empty(&self) -> bool {
        self.witnesses.is_empty()
    }
}

/// Computes `supp(T)` with the witness subtrees `T^{sp(i)}`.
pub fn support(f: &Wdpf, st: &ForestSubtree) -> Support {
    let vars = subtree_vars(&f.trees[st.tree], &st.nodes);
    let mut witnesses = BTreeMap::new();
    for (i, tree) in f.trees.iter().enumerate() {
        if let Some(w) = subtree_with_vars(tree, &vars) {
            witnesses.insert(i, w);
        }
    }
    debug_assert!(
        witnesses.contains_key(&st.tree),
        "supp(T) contains T's tree"
    );
    Support { witnesses }
}

/// A children assignment `∆ ∈ CA(T)`: tree index → chosen child node.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct ChildrenAssignment {
    pub chosen: BTreeMap<usize, NodeId>,
}

/// Enumerates `CA(T)`: every function with non-empty domain ⊆ supp(T)
/// assigning to each chosen index a child of its witness subtree.
pub fn children_assignments(f: &Wdpf, support: &Support) -> Vec<ChildrenAssignment> {
    // Options per supporting index: one of its witness's children, or skip.
    let per_index: Vec<(usize, Vec<NodeId>)> = support
        .witnesses
        .iter()
        .map(|(&i, w)| (i, wdsparql_tree::subtree_children(&f.trees[i], w)))
        .collect();
    let mut out: Vec<BTreeMap<usize, NodeId>> = vec![BTreeMap::new()];
    for (i, children) in &per_index {
        let mut next = Vec::with_capacity(out.len() * (children.len() + 1));
        for partial in &out {
            next.push(partial.clone()); // skip i
            for &c in children {
                let mut with = partial.clone();
                with.insert(*i, c);
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

/// Builds `(S_∆, vars(T))`: the subtree pattern united with the renamed
/// child patterns `ρ_∆(i)`.
///
/// `ρ_∆(i)` is `pat(∆(i))` with the variables outside `vars(T)` renamed
/// apart. The new names come from [`Variable::reserved`], numbered from 0
/// within this `S_∆` and skipping members of `vars(T)` — the only
/// variables of `S_∆` that are not renamed — so they are distinct from
/// each other and from everything else in `S_∆`, and building the same
/// `S_∆` again interns nothing.
pub fn s_delta(f: &Wdpf, st: &ForestSubtree, delta: &ChildrenAssignment) -> GenTGraph {
    let tree = &f.trees[st.tree];
    let tvars = subtree_vars(tree, &st.nodes);
    let mut pool = (0..).map(Variable::reserved).filter(|v| !tvars.contains(v));
    let mut s = subtree_pat(tree, &st.nodes);
    for (&i, &child) in &delta.chosen {
        let pat = f.trees[i].pat(child);
        let renaming: VarMap = pat
            .vars()
            .into_iter()
            .filter(|v| !tvars.contains(v))
            .zip(pool.by_ref().map(Term::Var))
            .collect();
        s = s.union(&pat.apply(&renaming));
    }
    GenTGraph::new(s, tvars)
}

/// Is `∆` valid: for every `i ∈ supp(T) \ dom(∆)`,
/// `(pat(T^{sp(i)}), vars(T)) ̸→ (S_∆, vars(T))`?
pub fn is_valid_assignment(
    f: &Wdpf,
    support: &Support,
    delta: &ChildrenAssignment,
    s_delta: &GenTGraph,
) -> bool {
    support
        .witnesses
        .iter()
        .filter(|(i, _)| !delta.chosen.contains_key(i))
        .all(|(&i, witness)| {
            let pat = subtree_pat(&f.trees[i], witness);
            let src = GenTGraph::new(pat, s_delta.x.iter().copied());
            !maps_to(&src, s_delta)
        })
}

/// One element of `GtG(T)` with its provenance.
#[derive(Clone, Debug)]
pub struct GtgElement {
    pub delta: ChildrenAssignment,
    pub graph: GenTGraph,
}

/// Computes `GtG(T)` — the generalised t-graphs of the valid children
/// assignments.
pub fn gtg(f: &Wdpf, st: &ForestSubtree) -> Vec<GtgElement> {
    let supp = support(f, st);
    children_assignments(f, &supp)
        .into_iter()
        .filter_map(|delta| {
            let graph = s_delta(f, st, &delta);
            is_valid_assignment(f, &supp, &delta, &graph).then_some(GtgElement { delta, graph })
        })
        .collect()
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
        let supp = support(&f, &st);
        assert_eq!(supp.indices().collect::<Vec<_>>(), vec![0, 1]);
        // T1[r1, n11]: vars {x, y, z} — supported by trees 1 and 3.
        let st2 = ForestSubtree {
            tree: 0,
            nodes: [ROOT, NodeId(1)].into_iter().collect(),
        };
        let supp2 = support(&f, &st2);
        assert_eq!(supp2.indices().collect::<Vec<_>>(), vec![0, 2]);
        // The witness in tree 3 is its root subtree.
        assert_eq!(supp2.witnesses[&2], [ROOT].into_iter().collect::<Subtree>());
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
        let supp = support(&f, &st);
        let cas = children_assignments(&f, &supp);
        // 1 and 2 each have one witness child in T1 (two children) and T2
        // (one child): assignments = (2+1)*(1+1) - 1 = 5 non-empty.
        assert_eq!(cas.len(), 5);
        for ca in &cas {
            let g = s_delta(&f, &st, ca);
            // x and y are never renamed; z/w never survive unrenamed.
            assert!(g.s.vars().contains(&v("x")));
            assert!(g.s.vars().contains(&v("y")));
            assert!(!g.s.vars().contains(&v("z")));
            assert!(!g.s.vars().contains(&v("w")));
        }
    }
}
