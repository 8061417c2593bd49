//! The process-wide metrics registry: a fixed catalog of the store
//! stack's counters, gauges and latency histograms, snapshotted to a
//! stable-schema JSON document.
//!
//! The catalog is a plain struct — registration is the field list, so
//! the hot path is exactly one atomic RMW per event with no name
//! lookup, no lock, and no allocation. `schema: 3` pins the JSON
//! layout; CI validates a live snapshot against
//! `crates/obs/metrics-schema.json` (key presence + types), and adding
//! a metric is a schema *addition*, never a mutation. (Schema 2 added
//! the streaming-execution metrics: `store.deadline_exceeded_total`,
//! `query.rows_streamed`, and the per-shard read-load sections
//! `shard_read_rows` / `shard_read_ns`. Schema 3 added the durability
//! metrics: `store.fsync_total`, `store.commit_retries_total`,
//! `store.segments_quarantined_total` and `store.recovery_ns`.)

use crate::metrics::{Counter, Gauge, Histogram, HistogramSnapshot};

/// Fixed shard slots for the load-balance counters; stores with more
/// shards fold the overflow into the last slot.
pub const SHARD_SLOTS: usize = 16;

/// The process-wide metric catalog. One instance is meant to live in a
/// `OnceLock` owned by the instrumented crate; every field is
/// individually lock-free.
#[derive(Debug, Default)]
pub struct Registry {
    // Counters — monotone event tallies.
    /// BGP queries planned+executed by the service layer.
    pub queries_total: Counter,
    /// Queries resolved to the worst-case-optimal strategy.
    pub queries_wco: Counter,
    /// Queries resolved to the pairwise bind-join strategy.
    pub queries_pairwise: Counter,
    /// Write batches that changed the store (epoch increments).
    pub epoch_bumps: Counter,
    /// Delta-segment folds (per graph `compact()` that had work).
    pub compactions: Counter,
    /// Delta segments appended by bulk loads.
    pub segments_created: Counter,
    /// Result-cache lookups answered from the cache.
    pub cache_hits: Counter,
    /// Result-cache lookups that had to compute.
    pub cache_misses: Counter,
    /// LRU evictions (capacity pressure).
    pub cache_evictions: Counter,
    /// Lookups that joined an in-flight computation instead of
    /// recomputing (stampede suppression).
    pub cache_stampede_waits: Counter,
    /// Sharded reads routed to a single shard by a bound subject.
    pub routed_reads: Counter,
    /// Sharded reads that had to fan out across every shard.
    pub fanout_reads: Counter,
    /// Budgeted queries that failed their deadline checkpoint.
    pub deadline_exceeded: Counter,
    /// `fsync`/`dir_sync` calls issued by the persistence layer.
    pub fsyncs: Counter,
    /// Transient-I/O retries spent by the persistence layer.
    pub commit_retries: Counter,
    /// Segments renamed aside at recovery after failing verification.
    pub segments_quarantined: Counter,

    // Gauges — last published observation (refreshed by `stats()`).
    /// Triples in the store (sharded: summed over shards).
    pub triples: Gauge,
    /// Distinct terms.
    pub terms: Gauge,
    /// Rows in the compacted base permutations.
    pub base_rows: Gauge,
    /// Rows pending in delta segments.
    pub delta_rows: Gauge,
    /// Pending delta segments.
    pub segments: Gauge,
    /// Store epoch (sharded: summed over shards).
    pub epoch: Gauge,
    /// Configured shard count (1 for an unsharded store).
    pub shard_count: Gauge,

    /// Rows ingested per shard slot — the load-balance signal
    /// (shard `i >= SHARD_SLOTS` folds into the last slot).
    pub shard_rows: [Counter; SHARD_SLOTS],
    /// Rows *served* per shard slot by routed/fan-out reads — the
    /// read-side load-balance twin of `shard_rows`.
    pub shard_read_rows: [Counter; SHARD_SLOTS],
    /// Per-shard read latency (ns) — splits the global `fanout_ns` by
    /// the shard that did the work, so a hot shard shows up by slot.
    pub shard_read_ns: [Histogram; SHARD_SLOTS],

    // Latency histograms (nanoseconds).
    /// End-to-end BGP query latency (plan + cache + execute).
    pub query_ns: Histogram,
    /// Join-order planning + strategy resolution latency.
    pub plan_ns: Histogram,
    /// `try_bulk_load` latency (lock + scatter + insert).
    pub bulk_load_ns: Histogram,
    /// Graph compaction latency.
    pub compact_ns: Histogram,
    /// Parallel shard fan-out read latency.
    pub fanout_ns: Histogram,
    /// Rows streamed per completed budgeted/limited query (a row-count
    /// histogram, not nanoseconds — LIMIT pushdown shows up as a low
    /// p50 against a large full-enumeration max).
    pub rows_streamed: Histogram,
    /// Durable-store recovery latency (`TripleStore::open`: verify +
    /// rebuild + replay).
    pub recovery_ns: Histogram,
}

impl Registry {
    pub fn new() -> Registry {
        Registry::default()
    }

    /// A point-in-time copy of every metric, ready for JSON rendering.
    pub fn capture(&self) -> RegistrySnapshot {
        RegistrySnapshot {
            counters: vec![
                ("store.queries_total", self.queries_total.get()),
                ("store.queries_wco", self.queries_wco.get()),
                ("store.queries_pairwise", self.queries_pairwise.get()),
                ("store.epoch_bumps", self.epoch_bumps.get()),
                ("store.compactions", self.compactions.get()),
                ("store.segments_created", self.segments_created.get()),
                ("cache.hits", self.cache_hits.get()),
                ("cache.misses", self.cache_misses.get()),
                ("cache.evictions", self.cache_evictions.get()),
                ("cache.stampede_waits", self.cache_stampede_waits.get()),
                ("shard.routed_reads", self.routed_reads.get()),
                ("shard.fanout_reads", self.fanout_reads.get()),
                (
                    "store.deadline_exceeded_total",
                    self.deadline_exceeded.get(),
                ),
                ("store.fsync_total", self.fsyncs.get()),
                ("store.commit_retries_total", self.commit_retries.get()),
                (
                    "store.segments_quarantined_total",
                    self.segments_quarantined.get(),
                ),
            ],
            gauges: vec![
                ("store.triples", self.triples.get()),
                ("store.terms", self.terms.get()),
                ("store.base_rows", self.base_rows.get()),
                ("store.delta_rows", self.delta_rows.get()),
                ("store.segments", self.segments.get()),
                ("store.epoch", self.epoch.get()),
                ("shard.count", self.shard_count.get()),
            ],
            histograms: vec![
                ("query.total_ns", self.query_ns.capture()),
                ("query.plan_ns", self.plan_ns.capture()),
                ("store.bulk_load_ns", self.bulk_load_ns.capture()),
                ("store.compact_ns", self.compact_ns.capture()),
                ("shard.fanout_ns", self.fanout_ns.capture()),
                ("query.rows_streamed", self.rows_streamed.capture()),
                ("store.recovery_ns", self.recovery_ns.capture()),
            ],
            shard_rows: self.shard_rows.iter().map(Counter::get).collect(),
            shard_read_rows: self.shard_read_rows.iter().map(Counter::get).collect(),
            shard_read_ns: self.shard_read_ns.iter().map(Histogram::capture).collect(),
        }
    }

    /// The stable-schema JSON snapshot (`schema: 3`).
    pub fn to_json(&self) -> String {
        self.capture().to_json()
    }
}

/// An owned copy of the registry at one instant.
#[must_use]
#[derive(Clone, Debug)]
pub struct RegistrySnapshot {
    counters: Vec<(&'static str, u64)>,
    gauges: Vec<(&'static str, u64)>,
    histograms: Vec<(&'static str, HistogramSnapshot)>,
    shard_rows: Vec<u64>,
    shard_read_rows: Vec<u64>,
    shard_read_ns: Vec<HistogramSnapshot>,
}

impl RegistrySnapshot {
    pub fn counters(&self) -> &[(&'static str, u64)] {
        &self.counters
    }

    pub fn gauges(&self) -> &[(&'static str, u64)] {
        &self.gauges
    }

    pub fn histograms(&self) -> &[(&'static str, HistogramSnapshot)] {
        &self.histograms
    }

    pub fn counter(&self, name: &str) -> Option<u64> {
        self.counters
            .iter()
            .find(|(n, _)| *n == name)
            .map(|&(_, v)| v)
    }

    /// Renders the snapshot as the `schema: 3` JSON document: fixed
    /// member order, exact u64 integers, each histogram summarized as
    /// `count`/`sum`/`max`/`p50`/`p90`/`p99`.
    pub fn to_json(&self) -> String {
        let mut out = String::from("{\n  \"schema\": 3,\n  \"counters\": {\n");
        push_pairs(&mut out, &self.counters);
        out.push_str("  },\n  \"gauges\": {\n");
        push_pairs(&mut out, &self.gauges);
        out.push_str("  },\n  \"histograms\": {\n");
        for (i, (name, h)) in self.histograms.iter().enumerate() {
            let comma = if i + 1 < self.histograms.len() {
                ","
            } else {
                ""
            };
            out.push_str(&format!("    \"{name}\": {}{comma}\n", hist_json(h)));
        }
        out.push_str("  },\n  \"shard_rows\": [");
        push_u64s(&mut out, &self.shard_rows);
        out.push_str("],\n  \"shard_read_rows\": [");
        push_u64s(&mut out, &self.shard_read_rows);
        out.push_str("],\n  \"shard_read_ns\": [");
        for (i, h) in self.shard_read_ns.iter().enumerate() {
            if i > 0 {
                out.push_str(", ");
            }
            out.push_str(&hist_json(h));
        }
        out.push_str("]\n}\n");
        out
    }
}

/// One histogram summary object, shared by the named-histogram section
/// and the per-shard read-latency array.
fn hist_json(h: &HistogramSnapshot) -> String {
    format!(
        "{{\"count\": {}, \"sum\": {}, \"max\": {}, \"p50\": {}, \"p90\": {}, \"p99\": {}}}",
        h.count(),
        h.sum(),
        h.max(),
        h.p50(),
        h.p90(),
        h.p99(),
    )
}

fn push_u64s(out: &mut String, values: &[u64]) {
    for (i, v) in values.iter().enumerate() {
        if i > 0 {
            out.push_str(", ");
        }
        out.push_str(&v.to_string());
    }
}

fn push_pairs(out: &mut String, pairs: &[(&'static str, u64)]) {
    for (i, (name, v)) in pairs.iter().enumerate() {
        let comma = if i + 1 < pairs.len() { "," } else { "" };
        out.push_str(&format!("    \"{name}\": {v}{comma}\n"));
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::json;

    #[test]
    fn snapshot_json_parses_and_carries_the_recorded_values() {
        let r = Registry::new();
        r.queries_total.add(3);
        r.cache_hits.inc();
        r.triples.set(1234);
        r.shard_rows[2].add(50);
        r.shard_read_rows[3].add(7);
        r.shard_read_ns[3].record(4_000);
        r.deadline_exceeded.inc();
        r.rows_streamed.record(10);
        r.fsyncs.add(4);
        r.commit_retries.inc();
        r.segments_quarantined.inc();
        r.recovery_ns.record(8_000);
        r.query_ns.record(1_000);
        r.query_ns.record(2_000);
        let text = r.to_json();
        let doc = json::parse(&text).expect("snapshot must be valid json");
        assert_eq!(
            doc.get("counters")
                .and_then(|c| c.get("store.queries_total"))
                .and_then(json::Value::as_u64),
            Some(3)
        );
        assert_eq!(
            doc.get("gauges")
                .and_then(|g| g.get("store.triples"))
                .and_then(json::Value::as_u64),
            Some(1234)
        );
        let q = doc
            .get("histograms")
            .and_then(|h| h.get("query.total_ns"))
            .unwrap();
        assert_eq!(q.get("count").and_then(json::Value::as_u64), Some(2));
        match doc.get("shard_rows") {
            Some(json::Value::Arr(slots)) => {
                assert_eq!(slots.len(), SHARD_SLOTS);
                assert_eq!(slots[2].as_u64(), Some(50));
            }
            other => panic!("shard_rows should be an array, got {other:?}"),
        }
        match doc.get("shard_read_rows") {
            Some(json::Value::Arr(slots)) => {
                assert_eq!(slots.len(), SHARD_SLOTS);
                assert_eq!(slots[3].as_u64(), Some(7));
            }
            other => panic!("shard_read_rows should be an array, got {other:?}"),
        }
        match doc.get("shard_read_ns") {
            Some(json::Value::Arr(slots)) => {
                assert_eq!(slots.len(), SHARD_SLOTS);
                assert_eq!(slots[3].get("count").and_then(json::Value::as_u64), Some(1));
                assert_eq!(slots[0].get("count").and_then(json::Value::as_u64), Some(0));
            }
            other => panic!("shard_read_ns should be an array, got {other:?}"),
        }
        assert_eq!(
            doc.get("counters")
                .and_then(|c| c.get("store.deadline_exceeded_total"))
                .and_then(json::Value::as_u64),
            Some(1)
        );
        let streamed = doc
            .get("histograms")
            .and_then(|h| h.get("query.rows_streamed"))
            .unwrap();
        assert_eq!(streamed.get("sum").and_then(json::Value::as_u64), Some(10));
        assert_eq!(
            doc.get("counters")
                .and_then(|c| c.get("store.fsync_total"))
                .and_then(json::Value::as_u64),
            Some(4)
        );
        assert_eq!(
            doc.get("counters")
                .and_then(|c| c.get("store.commit_retries_total"))
                .and_then(json::Value::as_u64),
            Some(1)
        );
        assert_eq!(
            doc.get("counters")
                .and_then(|c| c.get("store.segments_quarantined_total"))
                .and_then(json::Value::as_u64),
            Some(1)
        );
        let recovery = doc
            .get("histograms")
            .and_then(|h| h.get("store.recovery_ns"))
            .unwrap();
        assert_eq!(recovery.get("count").and_then(json::Value::as_u64), Some(1));
        assert_eq!(r.capture().counter("cache.hits"), Some(1));
    }

    #[test]
    fn snapshot_json_matches_the_checked_in_schema() {
        let schema_text = include_str!("../metrics-schema.json");
        let schema = json::parse(schema_text).expect("schema file must be valid json");
        let snapshot = json::parse(&Registry::new().to_json()).expect("snapshot json");
        let errors = json::validate_schema(&snapshot, &schema);
        assert!(
            errors.is_empty(),
            "snapshot violates its schema: {errors:?}"
        );
    }
}
