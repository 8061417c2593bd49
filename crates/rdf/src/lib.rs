//! # wdsparql-rdf
//!
//! The ground RDF substrate for the `wdsparql` workspace — the data model
//! underneath Romero's *"The Tractability Frontier of Well-designed SPARQL
//! Queries"* (PODS 2018).
//!
//! Provides:
//!
//! * interned [`Iri`]s, [`Variable`]s and [`Term`]s ([`term`]),
//! * ground [`Triple`]s and SPARQL [`TriplePattern`]s ([`triple`]),
//! * partial mappings `µ : V → I` with compatibility/union ([`mapping`]),
//! * indexed [`RdfGraph`]s with triple-pattern matching ([`graph`]),
//! * the [`TripleIndex`] trait — the pattern-matching surface shared by
//!   every graph backend ([`index`]),
//! * the pull-based execution substrate — [`SolutionStream`],
//!   [`QueryBudget`] deadlines/cancellation and the typed [`ExecError`]
//!   ([`exec`]),
//! * flat solution rows for set-at-a-time evaluators — [`RowTable`], one
//!   `Vec` of cells over a fixed variable schema, decoded to [`Mapping`]s
//!   once at the boundary ([`rows`]),
//! * a small N-Triples-style reader/writer ([`ntriples`]).
//!
//! Everything here is deliberately *ground* (no blank nodes, no literals):
//! the paper's setting is ground RDF graphs over IRIs.

#![forbid(unsafe_code)]

pub mod exec;
pub mod graph;
pub mod index;
pub mod mapping;
pub mod ntriples;
pub mod rows;
pub mod term;
pub mod trie;
pub mod triple;

pub use exec::{CancelToken, ExecError, QueryBudget, SolutionStream};
pub use graph::{binding_of, pattern_matches, RdfGraph};
pub use index::TripleIndex;
pub use mapping::Mapping;
pub use ntriples::{parse_ntriples, parse_statements, write_ntriples, NtError};
pub use rows::{Cell, CellMap, RowTable};
pub use term::{iri, var, Iri, IriSet, Term, Variable};
pub use trie::{gallop, MaterializedTrie, TrieCursor, TrieOpStats};
pub use triple::{tp, Triple, TriplePattern};
