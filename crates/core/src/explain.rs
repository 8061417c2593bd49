//! Membership certificates: *why* is `µ ∈ ⟦F⟧_G` (or not)?
//!
//! A positive certificate is the Lemma 1 witness: the tree index, the
//! subtree `T^µ` whose pattern `µ` maps into `G`, and — per child of the
//! subtree — evidence that no compatible extension exists. A negative
//! certificate records, per tree, why it fails: either no subtree matches
//! `dom(µ)`, or `µ` is not a homomorphism, or some child extends (with the
//! extension mapping as the counterexample).

use crate::lemma1::child_extends;
use std::fmt;
use wdsparql_rdf::{Mapping, TripleIndex};
use wdsparql_tree::{
    subtree_children, subtree_pat, subtree_with_vars, NodeId, Subtree, Wdpf, Wdpt,
};

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
    let dom = mu.domain().collect();
    let Some(st) = subtree_with_vars(t, &dom) else {
        return Err(TreeRejection::NoSubtreeForDomain);
    };
    if !subtree_pat(t, &st).maps_into_under(mu, g) {
        return Err(TreeRejection::NotAHomomorphism { subtree: st });
    }
    let children = subtree_children(t, &st);
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
    use crate::naive::check_forest;
    use wdsparql_algebra::parse_pattern;
    use wdsparql_rdf::RdfGraph;

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
}
