//! # wdsparql-store
//!
//! A triple store with sorted permutation indexes, a
//! log-structured write path and a concurrent query service — the
//! production-path substrate behind the evaluation engine, replacing
//! [`RdfGraph`](wdsparql_rdf::RdfGraph)'s string-interned hash indexes
//! on the hot path.
//!
//! ## Index layout
//!
//! A term's id is its [`Iri`](wdsparql_rdf::Iri) interner id — the store
//! has no dictionary of its own. Triples are stored as sorted arrays of
//! `[Iri; 3]` rows — the SPO, POS and OSP component rotations, plus a
//! PSO rotation whose predicate blocks list their subjects in order, in
//! the base and in every delta segment — each base array with an offset
//! table indexed by leading id over the graph's id window (its smallest
//! to its largest term), so every bound-prefix lookup lands on one
//! contiguous slice, and the sorted blocks double as the leapfrog
//! join's tries; one bitset over the ids is the graph's term table. Writes append small sorted delta
//! segments instead of rewriting the base; reads merge base + deltas
//! behind the same bounded-prefix narrowing, and the deltas fold back
//! into the base at 48 pending segments, once four times the delta rows
//! exceed the base rows plus 4096, or on an explicit
//! [`TripleStore::compact`]. The layout diagram, the
//! per-access-pattern index-choice table and the segment lifecycle live
//! in this crate's `README.md` (the single copy, so the two cannot
//! drift).
//!
//! ## Layers
//!
//! * [`EncodedGraph`] — the term bitset, the permutation arrays and
//!   segments; implements
//!   [`wdsparql_rdf::TripleIndex`], so every evaluation algorithm in the
//!   workspace (naive, pebble, enumeration, reference semantics) runs
//!   against it unchanged;
//! * [`TripleStore`] — the service: queries run lock-free on `Arc`
//!   snapshots of the graph, batched
//!   [`bulk_load`](TripleStore::bulk_load) appends delta segments
//!   copy-on-write under the write lock with epoch bumping, every query
//!   reports the `(shard, epoch)` pairs it read (`[(0, epoch)]` here),
//!   and [`StoreStats`] selectivity statistics drive
//!   most-selective-first, connectivity-aware BGP planning —
//!   [`TripleStore::query_with_plan`] returns the executed plan from the
//!   same snapshot as the answers, planned exactly once;
//! * the BGP request path (private `bgp` module) — **how one BGP request
//!   is served, written once**: every query entry point of both
//!   services (`query`, `solutions`, `query_with_plan`,
//!   `query_with_profile`, `query_budgeted`, `query_limited`) pins one
//!   snapshot and delegates to it. It runs
//!   on `&dyn TripleIndex` plus the pin's read provenance: entry budget
//!   checkpoint → plan once → resolve `Auto` → open the join stream on
//!   the pairwise or the leapfrog plan → collect → account. Nothing is
//!   kept between
//!   requests. The free functions ([`eval_bgp_pairwise`],
//!   [`eval_bgp_wco`], [`eval_bgp_with_strategy`], [`open_bgp_stream`])
//!   are the same planner and stream constructor without the pin;
//! * [`ShardedStore`] — write scaling: N hash-partitioned-by-subject
//!   [`TripleStore`] shards behind one facade. Bulk loads scatter to
//!   per-shard write locks (parallel on multi-core hosts, and a reader's
//!   snapshot pins one shard, not the dataset), subject-bound patterns
//!   route to exactly one shard, unbound ones scatter (on scoped threads
//!   when the host and the run sizes warrant it) and concatenate the
//!   disjoint per-shard runs lazily, and a query pins and reports only
//!   the shards it reads. [`ShardedSnapshot`]
//!   implements [`wdsparql_rdf::TripleIndex`], so every evaluator runs
//!   unchanged on the sharded layout;
//! * [`join`] — the BGP join, one executor: [`JoinStream`] walks a plan
//!   of levels depth first over one row, resumably, one solution per
//!   pull. The pairwise plan has one pattern level per pattern (the
//!   seed scan, then bind joins); the leapfrog plan has one variable
//!   level per variable (Veldhuizen's leapfrog triejoin). [`join_keyed`]
//!   extends a table of keys set at a time, or runs the leapfrog plan
//!   once per key, for the wdPT enumerator;
//! * [`wcoj`] — the leapfrog plan's parts: the variable order, the
//!   leapfrog search and seekable tries ([`wdsparql_rdf::TrieCursor`])
//!   served zero-copy from the sorted permutations; and the
//!   [`JoinStrategy`]`::{Pairwise, Wco, Auto}` knob on both services and
//!   the engine — under `Auto`, cyclic query cores (triangles,
//!   k-cliques) take the leapfrog plan instead of blowing up the
//!   pairwise plan's intermediates;
//! * [`persist`] — durable storage behind a fault-injectable [`Vfs`]:
//!   checksummed paged segments, a length-prefixed manifest and a
//!   commit log, with crash-safe tmp→fsync→rename→dir-sync publishes
//!   and defensive recovery (torn log tails truncated, corrupt
//!   referenced segments quarantined). [`TripleStore::open`] /
//!   [`TripleStore::persist_to`] (and the [`ShardedStore`]
//!   equivalents, one subdirectory per shard) wire it into the
//!   services; every durable `bulk_load` is fsynced before it is
//!   acknowledged.

#![forbid(unsafe_code)]

mod bgp;
pub mod encoded;
pub mod join;
pub mod obs;
pub mod persist;
mod segment;
pub mod service;
pub mod shard;
pub mod wcoj;

pub use bgp::{open_bgp_stream, PlannedQuery};
pub use encoded::EncodedGraph;
pub use join::{join_keyed, JoinStream, PairwisePlan};
pub use obs::metrics_json;
pub use persist::vfs::{Fault, FaultFs, FaultKind, RealFs, Vfs, VfsError};
pub use persist::{PersistError, PersistOpts, Recovered, StoreDir};
pub use segment::{CapacityError, MAX_TRIPLES};
pub use service::{
    eval_bgp_pairwise, CacheStats, StoreError, StoreSnapshot, StoreStats, TripleStore,
};
pub use shard::{ShardedSnapshot, ShardedStats, ShardedStore};
pub use wcoj::{
    bgp_is_cyclic, eval_bgp_wco, eval_bgp_with_strategy, resolve_strategy, wco_variable_order,
    JoinStrategy,
};
