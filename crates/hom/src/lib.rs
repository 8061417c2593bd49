//! # wdsparql-hom
//!
//! The conjunctive-query toolkit of the workspace: t-graphs and generalised
//! t-graphs `(S, X)` (§2.1/§3 of the paper), the homomorphism relations
//! `(S,X) → (S',X)` and `(S,X) →µ G`, cores (Proposition 1), Gaifman
//! graphs, and treewidth (`tw`, `ctw`) with verified tree decompositions.
//!
//! Everything downstream — the width measures, the Theorem 1 evaluator and
//! the hardness reduction — is built from these primitives.

#![forbid(unsafe_code)]

pub mod core;
pub mod gaifman;
pub mod solver;
pub mod tgraph;
pub mod treewidth;
pub mod ugraph;

pub use crate::core::{core_of, hom_equivalent, is_core, is_core_of};
pub use gaifman::{ctw, gaifman as gaifman_graph, is_forest, tw_gen};
pub use solver::{
    all_homs_into_graph, enumerate_homs_into_graph, find_hom, find_hom_into_graph,
    find_hom_into_graph_within, maps_to, Undecided,
};
pub use tgraph::{frozen_iri, theta, GenTGraph, TGraph, VarMap};
pub use treewidth::{
    decomposition_from_order, min_degree_order, min_fill_order, mmd_lower_bound, treewidth,
    treewidth_exact, verify_decomposition, width_of_order, TreeDecomposition, TwResult,
    EXACT_LIMIT,
};
pub use ugraph::{BitSet, UGraph};
