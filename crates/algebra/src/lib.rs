//! # wdsparql-algebra
//!
//! The SPARQL AND/OPT/UNION algebra of the paper (§2): the
//! [`GraphPattern`] AST, a parser for the paper's textual syntax, the
//! well-designedness check, and the reference bottom-up semantics
//! `⟦P⟧_G` used as executable ground truth by every optimised evaluator
//! in the workspace.

#![forbid(unsafe_code)]

pub mod filter;
pub mod parser;
pub mod pattern;
pub mod semantics;
pub mod sparql;
pub mod well_designed;

pub use filter::{eval_filter, filter_solutions, FilterExpr};
pub use parser::{parse_pattern, ParseError, MAX_DEPTH, MAX_NESTING};
pub use pattern::GraphPattern;
pub use semantics::{contains, eval, join, left_outer_join, SolutionSet};
pub use sparql::{parse_sparql, parse_sparql_filtered, parse_sparql_select};
pub use well_designed::{check_well_designed, is_well_designed, WdViolation};
