//! The store stack's process-wide metrics: one [`wdsparql_obs::Registry`]
//! shared by every [`TripleStore`]/[`ShardedStore`] in the process, fed
//! by the event hooks below.
//!
//! The hooks are the **only** coupling between the store internals and
//! the registry: one atomic RMW each (the scan hot loop is never
//! instrumented; `bench_gate` holds the overhead bound, see
//! `crates/obs/README.md`). Per-query execution profiles
//! ([`QueryProfile`](wdsparql_obs::QueryProfile) span trees) are *not*
//! routed through here — they are explicit opt-in values built by
//! `query_with_profile` and carried on the planned-query results.
//!
//! [`TripleStore`]: crate::TripleStore
//! [`ShardedStore`]: crate::ShardedStore

use crate::wcoj::JoinStrategy;
use std::sync::OnceLock;
use std::time::Duration;
use wdsparql_obs::{Registry, SHARD_SLOTS};

static REGISTRY: OnceLock<Registry> = OnceLock::new();

/// The process-wide registry.
pub fn registry() -> &'static Registry {
    REGISTRY.get_or_init(Registry::new)
}

/// The `schema: 4` JSON snapshot of the registry — what the CLI's
/// `--metrics-json PATH` writes and CI validates against
/// `crates/obs/metrics-schema.json`.
pub fn metrics_json() -> String {
    registry().to_json()
}

/// Saturates a `Duration` into histogram nanoseconds.
fn ns(d: Duration) -> u64 {
    u64::try_from(d.as_nanos()).unwrap_or(u64::MAX)
}

/// One BGP request was served (or failed its budget): `strategy` is the
/// join strategy it resolved — `None` when it resolved none, i.e. it was
/// refused at its entry checkpoint — and `plan` the wall time of its
/// planning, when the plan is part of its answer.
pub(crate) fn on_query(strategy: Option<JoinStrategy>, total: Duration, plan: Option<Duration>) {
    let r = registry();
    r.queries_total.inc();
    match strategy {
        Some(JoinStrategy::Wco) => r.queries_wco.inc(),
        Some(_) => r.queries_pairwise.inc(),
        None => {}
    }
    r.query_ns.record(ns(total));
    if let Some(plan) = plan {
        r.plan_ns.record(ns(plan));
    }
}

pub(crate) fn on_epoch_bump() {
    registry().epoch_bumps.inc();
}

pub(crate) fn on_bulk_load(elapsed: Duration) {
    registry().bulk_load_ns.record(ns(elapsed));
}

pub(crate) fn on_compaction(elapsed: Duration) {
    let r = registry();
    r.compactions.inc();
    r.compact_ns.record(ns(elapsed));
}

pub(crate) fn on_segment_append() {
    registry().segments_created.inc();
}

pub(crate) fn on_routed_read() {
    registry().routed_reads.inc();
}

pub(crate) fn on_fanout(elapsed: Duration) {
    let r = registry();
    r.fanout_reads.inc();
    r.fanout_ns.record(ns(elapsed));
}

/// Rows ingested by shard `shard` — the load-balance signal. Shards
/// past the fixed slot count fold into the last slot.
pub(crate) fn on_shard_rows(shard: usize, rows: u64) {
    registry().shard_rows[shard.min(SHARD_SLOTS - 1)].add(rows);
}

/// One shard's share of a read (routed or fan-out): rows served and
/// time spent, by slot — the read-side load-balance signal.
pub(crate) fn on_shard_read(shard: usize, rows: u64, elapsed: Duration) {
    let slot = shard.min(SHARD_SLOTS - 1);
    let r = registry();
    r.shard_read_rows[slot].add(rows);
    r.shard_read_ns[slot].record(ns(elapsed));
}

/// A query failed a deadline checkpoint.
pub(crate) fn on_deadline_exceeded() {
    registry().deadline_exceeded.inc();
}

/// The persistence layer issued an `fsync` or `dir_sync`.
pub(crate) fn on_fsync() {
    registry().fsyncs.inc();
}

/// The persistence layer retried a transient I/O failure.
pub(crate) fn on_commit_retry() {
    registry().commit_retries.inc();
}

/// Recovery quarantined `n` segments that failed verification.
pub(crate) fn on_quarantine(n: u64) {
    registry().segments_quarantined.add(n);
}

/// A durable store finished opening (verify + rebuild + replay).
pub(crate) fn on_recovery(elapsed: Duration) {
    registry().recovery_ns.record(ns(elapsed));
}

/// A query completed with `rows` solutions.
pub(crate) fn on_rows_streamed(rows: u64) {
    registry().rows_streamed.record(rows);
}

/// Refreshes the `store.*` gauges from a stats snapshot (called by the
/// services' `stats()`, so the registry mirrors the latest observation).
#[allow(clippy::too_many_arguments)]
pub(crate) fn publish_store_gauges(
    triples: u64,
    terms: u64,
    base_rows: u64,
    delta_rows: u64,
    segments: u64,
    epoch: u64,
    shard_count: u64,
) {
    let r = registry();
    r.triples.set(triples);
    r.terms.set(terms);
    r.base_rows.set(base_rows);
    r.delta_rows.set(delta_rows);
    r.segments.set(segments);
    r.epoch.set(epoch);
    r.shard_count.set(shard_count);
}

#[cfg(test)]
mod tests {
    #[test]
    fn metrics_json_is_schema_valid_from_a_cold_start() {
        let text = super::metrics_json();
        assert!(text.contains("\"schema\": 4"));
        assert!(!text.contains("\"cache."));
        assert!(text.contains("\"query.total_ns\""));
        assert!(text.contains("\"store.deadline_exceeded_total\""));
        assert!(text.contains("\"query.rows_streamed\""));
        assert!(text.contains("\"shard_read_ns\""));
        assert!(text.contains("\"store.fsync_total\""));
        assert!(text.contains("\"store.commit_retries_total\""));
        assert!(text.contains("\"store.segments_quarantined_total\""));
        assert!(text.contains("\"store.recovery_ns\""));
    }
}
