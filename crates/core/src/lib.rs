//! # wdsparql-core
//!
//! The evaluation engine for well-designed SPARQL — the executable heart of
//! Romero's PODS'18 tractability-frontier paper:
//!
//! * [`lemma1`] — the `µ ∈ ⟦T⟧_G` characterisation for NR-normal-form
//!   pattern trees;
//! * [`pebble_eval`] — the **Theorem 1** polynomial-time algorithm for
//!   classes of bounded domination width (homomorphism tests replaced by
//!   the existential (k+1)-pebble game), and the portfolio behind
//!   `Strategy::Auto` (exact child tests under a step budget, the game
//!   only for the children they leave open);
//! * [`enumerate`] — full solution enumeration `⟦F⟧_G`, set at a time:
//!   the tree walk. Every node is joined once per distinct binding of
//!   its interface with the branch above, by the store's keyed node join
//!   ([`wdsparql_store::join_keyed`], the BGP service's plan order, steps
//!   and `Auto` rule), on flat rows, and OPT is a left outer join on that
//!   interface (its null is Lemma 1's "must be skipped");
//! * [`counting`] — solution counting and instrumented enumeration with
//!   delay measurement (the §5 variants), on the tuple-at-a-time
//!   reference walker;
//! * [`explain`] — membership certificates (Lemma 1 witnesses and
//!   counterexamples), and the classical coNP evaluation algorithm read
//!   off them (exact homomorphism tests);
//! * [`engine`] — the public [`Query`]/[`Engine`] API with strategy
//!   selection and width analysis.

#![forbid(unsafe_code)]

pub mod counting;
pub mod engine;
pub mod enumerate;
pub mod explain;
pub mod lemma1;
pub mod pebble_eval;

pub use counting::{
    count_by_domain, count_forest, count_solutions_by_domain, enumerate_with_stats, EnumStats,
};
pub use engine::{Engine, Query, QueryError, Strategy, WidthReport};
pub use enumerate::{enumerate_forest, enumerate_forest_budgeted, enumerate_forest_with};
pub use explain::{
    check_forest, check_tree, explain_forest, explain_tree, Explanation, TreeRejection,
};
pub use lemma1::{child_extends, mu_subtree};
pub use pebble_eval::{check_forest_auto, check_forest_pebble, check_tree_pebble, Route};
pub use wdsparql_algebra::GraphPattern;
pub use wdsparql_store::JoinStrategy;
