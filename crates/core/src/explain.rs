//! Membership certificates: *why* is `µ ∈ ⟦F⟧_G` (or not)?
//!
//! A positive certificate is the Lemma 1 witness: the tree index, the
//! subtree `T^µ` whose pattern `µ` maps into `G`, and — per child of the
//! subtree — evidence that no compatible extension exists. A negative
//! certificate records, per tree, why it fails: either no subtree matches
//! `dom(µ)`, or `µ` is not a homomorphism, or some child extends (with the
//! extension mapping as the counterexample).
//!
//! [`check_tree`] and [`check_forest`] are the classical evaluation
//! algorithm for wdPFs (Letelier et al.; Pichler–Skritek) read off the
//! same certificate: sound and complete for *all* well-designed forests,
//! but each child-extension test is an NP-complete homomorphism check —
//! the coNP algorithm whose restriction classes the paper characterises.

use crate::lemma1::{child_extends, domain_nodes, maps_into_under};
use std::fmt;
use wdsparql_rdf::{Mapping, TripleIndex};
use wdsparql_tree::{children_of_nodes, subtree_of, NodeId, Subtree, Wdpf, Wdpt};

/// Why one tree of the forest rejects `µ`.
#[derive(Clone, Debug, PartialEq, Eq)]
pub enum TreeRejection {
    /// No subtree of the tree has variable set `dom(µ)`.
    NoSubtreeForDomain,
    /// The subtree exists but `µ` does not map its pattern into `G`.
    NotAHomomorphism { subtree: Subtree },
    /// Some child extends compatibly — `µ` is not maximal in this tree.
    ChildExtends {
        subtree: Subtree,
        child: NodeId,
        extension: Mapping,
    },
}

impl fmt::Display for TreeRejection {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            TreeRejection::NoSubtreeForDomain => {
                write!(f, "no subtree has exactly dom(µ) as its variables")
            }
            TreeRejection::NotAHomomorphism { .. } => {
                write!(f, "µ does not map the subtree pattern into G")
            }
            TreeRejection::ChildExtends {
                child, extension, ..
            } => write!(
                f,
                "child node {} extends compatibly via {extension} (µ is not maximal)",
                child.0
            ),
        }
    }
}

/// The outcome of [`explain_forest`].
#[derive(Clone, Debug, PartialEq, Eq)]
pub enum Explanation {
    /// `µ ∈ ⟦F⟧_G`, witnessed in tree `tree` by subtree `subtree` — every
    /// child of the subtree was checked to have no compatible extension.
    Member {
        tree: usize,
        subtree: Subtree,
        children_checked: Vec<NodeId>,
    },
    /// `µ ∉ ⟦F⟧_G`; one rejection reason per tree, in order.
    NonMember { rejections: Vec<TreeRejection> },
}

impl Explanation {
    pub fn is_member(&self) -> bool {
        matches!(self, Explanation::Member { .. })
    }
}

impl fmt::Display for Explanation {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            Explanation::Member {
                tree,
                subtree,
                children_checked,
            } => write!(
                f,
                "member: witnessed by tree {} on subtree of {} node(s); {} child(ren) verified unextendable",
                tree + 1,
                subtree.len(),
                children_checked.len()
            ),
            Explanation::NonMember { rejections } => {
                writeln!(f, "non-member:")?;
                for (i, r) in rejections.iter().enumerate() {
                    writeln!(f, "  tree {}: {r}", i + 1)?;
                }
                Ok(())
            }
        }
    }
}

/// Explains membership for one tree: `Ok` with the checked children on
/// success, `Err` with the rejection reason otherwise.
pub fn explain_tree(
    t: &Wdpt,
    g: &dyn TripleIndex,
    mu: &Mapping,
) -> Result<(Subtree, Vec<NodeId>), TreeRejection> {
    let Some(nodes) = domain_nodes(t, mu) else {
        return Err(TreeRejection::NoSubtreeForDomain);
    };
    let st = subtree_of(&nodes);
    if !maps_into_under(t, &nodes, mu, g) {
        return Err(TreeRejection::NotAHomomorphism { subtree: st });
    }
    let children: Vec<NodeId> = children_of_nodes(t, &nodes).collect();
    for &n in &children {
        if let Some(extension) = child_extends(t, g, n, mu) {
            return Err(TreeRejection::ChildExtends {
                subtree: st,
                child: n,
                extension,
            });
        }
    }
    Ok((st, children))
}

/// `µ ∈ ⟦T⟧_G` by Lemma 1 with exact homomorphism tests.
pub fn check_tree(t: &Wdpt, g: &dyn TripleIndex, mu: &Mapping) -> bool {
    explain_tree(t, g, mu).is_ok()
}

/// `µ ∈ ⟦F⟧_G = ⟦T_1⟧_G ∪ ··· ∪ ⟦T_m⟧_G`.
pub fn check_forest(f: &Wdpf, g: &dyn TripleIndex, mu: &Mapping) -> bool {
    f.trees.iter().any(|t| check_tree(t, g, mu))
}

/// Produces a full certificate for `µ` against the forest.
pub fn explain_forest(f: &Wdpf, g: &dyn TripleIndex, mu: &Mapping) -> Explanation {
    let mut rejections = Vec::with_capacity(f.len());
    for (i, t) in f.trees.iter().enumerate() {
        match explain_tree(t, g, mu) {
            Ok((subtree, children_checked)) => {
                return Explanation::Member {
                    tree: i,
                    subtree,
                    children_checked,
                }
            }
            Err(r) => rejections.push(r),
        }
    }
    Explanation::NonMember { rejections }
}

#[cfg(test)]
mod tests {
    use super::*;
    use wdsparql_algebra::{eval, parse_pattern};
    use wdsparql_rdf::{RdfGraph, Triple};

    fn forest(text: &str) -> Wdpf {
        Wdpf::from_pattern(&parse_pattern(text).unwrap()).unwrap()
    }

    fn g() -> RdfGraph {
        RdfGraph::from_strs([("a", "p", "b"), ("b", "q", "c"), ("d", "p", "e")])
    }

    #[test]
    fn member_certificate() {
        let f = forest("(?x, p, ?y) OPT (?y, q, ?z)");
        let mu = Mapping::from_strs([("x", "a"), ("y", "b"), ("z", "c")]);
        let e = explain_forest(&f, &g(), &mu);
        assert!(e.is_member());
        match e {
            Explanation::Member { tree, subtree, .. } => {
                assert_eq!(tree, 0);
                assert_eq!(subtree.len(), 2);
            }
            _ => unreachable!(),
        }
    }

    #[test]
    fn rejection_no_subtree() {
        let f = forest("(?x, p, ?y) OPT (?y, q, ?z)");
        let mu = Mapping::from_strs([("x", "a")]); // {x} matches no subtree
        match explain_forest(&f, &g(), &mu) {
            Explanation::NonMember { rejections } => {
                assert_eq!(rejections, vec![TreeRejection::NoSubtreeForDomain]);
            }
            _ => panic!("must reject"),
        }
    }

    #[test]
    fn rejection_not_a_hom() {
        let f = forest("(?x, p, ?y) OPT (?y, q, ?z)");
        let mu = Mapping::from_strs([("x", "b"), ("y", "a")]);
        match explain_forest(&f, &g(), &mu) {
            Explanation::NonMember { rejections } => {
                assert!(matches!(
                    rejections[0],
                    TreeRejection::NotAHomomorphism { .. }
                ));
            }
            _ => panic!("must reject"),
        }
    }

    #[test]
    fn rejection_child_extends_with_counterexample() {
        let f = forest("(?x, p, ?y) OPT (?y, q, ?z)");
        let mu = Mapping::from_strs([("x", "a"), ("y", "b")]); // not maximal
        match explain_forest(&f, &g(), &mu) {
            Explanation::NonMember { rejections } => match &rejections[0] {
                TreeRejection::ChildExtends { extension, .. } => {
                    // The counterexample extension must actually be one.
                    assert_eq!(
                        extension.get(wdsparql_rdf::Variable::new("z")),
                        Some(wdsparql_rdf::Iri::new("c"))
                    );
                }
                other => panic!("wrong rejection {other:?}"),
            },
            _ => panic!("must reject"),
        }
    }

    #[test]
    fn explanation_agrees_with_naive_checker() {
        let f = forest("((?x, p, ?y) OPT (?y, q, ?z)) UNION ((?x, p, ?y) OPT (?x, q, ?w))");
        let graph = g();
        for mu in [
            Mapping::from_strs([("x", "a"), ("y", "b"), ("z", "c")]),
            Mapping::from_strs([("x", "a"), ("y", "b")]),
            Mapping::from_strs([("x", "d"), ("y", "e")]),
            Mapping::new(),
        ] {
            assert_eq!(
                explain_forest(&f, &graph, &mu).is_member(),
                check_forest(&f, &graph, &mu),
                "µ = {mu}"
            );
        }
    }

    #[test]
    fn display_renders_both_cases() {
        let f = forest("(?x, p, ?y) OPT (?y, q, ?z)");
        let graph = g();
        let yes = explain_forest(&f, &graph, &Mapping::from_strs([("x", "d"), ("y", "e")]));
        assert!(yes.to_string().contains("member"));
        let no = explain_forest(&f, &graph, &Mapping::from_strs([("x", "a"), ("y", "b")]));
        let text = no.to_string();
        assert!(text.contains("not maximal"), "{text}");
    }

    #[test]
    fn agrees_with_reference_semantics_on_example1() {
        let text = "(((?x, p, ?y) OPT (?z, q, ?x)) OPT ((?y, r, ?o1) AND (?o1, r, ?o2)))";
        let p = parse_pattern(text).unwrap();
        let f = forest(text);
        let g = RdfGraph::from_strs([
            ("a", "p", "b"),
            ("z0", "q", "a"),
            ("b", "r", "c"),
            ("c", "r", "d"),
            ("e", "p", "f"),
        ]);
        let reference = eval(&p, &g);
        // Every reference solution checks out...
        for mu in &reference {
            assert!(check_forest(&f, &g, mu), "missing {mu}");
        }
        // ...and near-miss mutations do not.
        let partial = Mapping::from_strs([("x", "a"), ("y", "b")]);
        assert!(!check_forest(&f, &g, &partial)); // must take the q-branch
        let wrong = Mapping::from_strs([("x", "b"), ("y", "a")]);
        assert!(!check_forest(&f, &g, &wrong));
    }

    #[test]
    fn union_forest_accepts_from_any_tree() {
        let f = forest("((?x, p, ?y) OPT (?y, q, ?z)) UNION ((?x, r, ?y) OPT (?y, q, ?z))");
        let g = RdfGraph::from_strs([("a", "p", "b"), ("c", "r", "d")]);
        assert!(check_forest(
            &f,
            &g,
            &Mapping::from_strs([("x", "a"), ("y", "b")])
        ));
        assert!(check_forest(
            &f,
            &g,
            &Mapping::from_strs([("x", "c"), ("y", "d")])
        ));
        assert!(!check_forest(
            &f,
            &g,
            &Mapping::from_strs([("x", "a"), ("y", "d")])
        ));
    }

    #[test]
    fn maximality_is_enforced_per_tree() {
        let f = forest("(?x, p, ?y) OPT (?y, q, ?z)");
        let g = RdfGraph::from_strs([("a", "p", "b"), ("b", "q", "c")]);
        // Bare (a, b) is not maximal: the OPT extends.
        assert!(!check_forest(
            &f,
            &g,
            &Mapping::from_strs([("x", "a"), ("y", "b")])
        ));
        assert!(check_forest(
            &f,
            &g,
            &Mapping::from_strs([("x", "a"), ("y", "b"), ("z", "c")])
        ));
    }

    #[test]
    fn large_graph_spot_check() {
        let f = forest("(?x, p, ?y) OPT (?y, q, ?z)");
        let mut g = RdfGraph::new();
        for i in 0..200 {
            g.insert(Triple::from_strs(&format!("s{i}"), "p", &format!("t{i}")));
            if i % 2 == 0 {
                g.insert(Triple::from_strs(&format!("t{i}"), "q", &format!("u{i}")));
            }
        }
        assert!(check_forest(
            &f,
            &g,
            &Mapping::from_strs([("x", "s1"), ("y", "t1")])
        ));
        assert!(!check_forest(
            &f,
            &g,
            &Mapping::from_strs([("x", "s2"), ("y", "t2")])
        ));
        assert!(check_forest(
            &f,
            &g,
            &Mapping::from_strs([("x", "s2"), ("y", "t2"), ("z", "u2")])
        ));
    }
}
