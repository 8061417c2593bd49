//! # wdsparql-obs
//!
//! The observability layer for the `wdsparql` workspace: hand-rolled,
//! dependency-free, and lock-free on every record path (the container
//! has no crates.io, and the store's hot loops cannot afford a mutex).
//!
//! Three pieces:
//!
//! * [`metrics`] — [`Counter`]/[`Gauge`] over relaxed atomics and a
//!   log-linear bucketed [`Histogram`] (16 sub-buckets per power-of-two
//!   octave, ≤6.25% relative bucket width) whose [`HistogramSnapshot`]s
//!   merge associatively and extract p50/p90/p99 by exact nearest-rank
//!   selection over the buckets;
//! * [`registry`] — a fixed-catalog process-wide [`Registry`] of the
//!   store stack's counters, gauges and latency histograms, rendered to
//!   a stable-schema JSON snapshot (`schema: 1`, validated in CI
//!   against `crates/obs/metrics-schema.json`);
//! * [`profile`] — the per-query execution profile: a [`Span`] tree
//!   ([`QueryProfile`]) that the store threads through
//!   `PlannedQuery` and the CLI renders as an
//!   EXPLAIN-ANALYZE-style tree under `store --profile`.
//!
//! [`json`] is the minimal JSON value parser backing the CI schema
//! check ([`json::validate_schema`]); it exists because the workspace
//! has no serde.

#![forbid(unsafe_code)]

pub mod json;
pub mod metrics;
pub mod profile;
pub mod registry;

pub use metrics::{
    bucket_ceil, bucket_floor, bucket_index, Counter, Gauge, Histogram, HistogramSnapshot, BUCKETS,
    SUB_BUCKETS,
};
pub use profile::{QueryProfile, Span};
pub use registry::{Registry, RegistrySnapshot, SHARD_SLOTS};
