//! # wdsparql-width
//!
//! The width measures that carve out the tractability frontier (§3):
//!
//! * the sets `GtG(T)` ([`gtg()`], over [`forest_subtrees`]), with the
//!   supports and children assignments behind them read from one
//!   per-forest table of variable bitsets ([`mod@gtg`]);
//! * **domination width** `dw` — Definitions 1–2, the exact
//!   characterisation of PTIME evaluability (Theorem 3)
//!   ([`domination_width`]); computed in one pass per subtree, each
//!   element's threshold from the widths that can lower it. A core is a
//!   retract of `(S, X)` — a subgraph of `S` with the same `X` — so
//!   `1 ≤ ctw ≤ tw`, and cores are computed lazily: an element with
//!   `tw ≤ 1` has width 1, one into which a width-1 element maps has
//!   threshold 1 without its core, and the rest get one `ctw` per
//!   distinct `(S, X)` per recognition;
//! * **branch treewidth** `bw` and local tractability — the UNION-free
//!   picture of §3.2, where `dw = bw` (Proposition 5)
//!   ([`branch_treewidth`], [`local_width`]);
//! * the **recognition problem** `dw(P) ≤ k` / `bw(P) ≤ k` from the
//!   paper's conclusions: [`dw_at_most`] and [`bw_at_most`] read the
//!   widths, and [`recognize_dw`] / [`recognize_bw`] return independently
//!   checkable certificates ([`recognition`]).

#![forbid(unsafe_code)]

pub mod branch;
pub mod domination;
pub mod gtg;
pub mod recognition;

pub use branch::{
    branch_tgraph, branch_treewidth, branch_treewidth_forest, bw_at_most, local_width,
    local_width_forest,
};
pub use domination::{domination_width, dw_at_most};
pub use gtg::{forest_subtrees, gtg, ChildrenAssignment, ForestSubtree, GtgElement};
pub use recognition::{
    recognize_bw, recognize_dw, verify_dw_certificate, BwCertificate, BwViolation, DwCertificate,
    DwViolation, SubtreeDomination,
};
