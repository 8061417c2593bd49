//! # wdsparql-tree
//!
//! Well-designed pattern trees (wdPTs) and forests (wdPFs) — the tree
//! representation of well-designed AND/OPT/UNION patterns (§2.1 of the
//! paper): construction, validation (connectedness condition, NR normal
//! form), the `wdpf` translation and its inverse, and subtree machinery
//! (supports, subtree children) used by the width measures and evaluators.

#![forbid(unsafe_code)]

pub mod subtree;
pub mod translate;
pub mod wdpt;

pub use subtree::{
    children_of_nodes, enumerate_subtrees, is_valid_subtree, maximal_subtree_within,
    nodes_with_vars, root_subtree, subtree_children, subtree_of, subtree_pat, subtree_vars,
    subtree_with_vars, Subtree,
};
pub use translate::{
    pattern_from_wdpf, pattern_from_wdpt, wdpt_from_pattern, TranslateError, Wdpf,
};
pub use wdpt::{NodeId, TreeError, Wdpt, ROOT};
