//! The names the benchmark reports — the same lists `BENCHMARK.json`
//! carries (a unit test holds the two together, which is all that reads
//! the `why` and `higher_is_better` fields).
#![cfg_attr(not(test), allow(dead_code))]

pub struct Workload {
    pub name: &'static str,
    pub why: &'static str,
}

pub const WORKLOADS: [Workload; 4] = [
    Workload {
        name: "bgp_join",
        why: "AND-only queries on a compacted store, population far above the result cache: the store read path alone, on cache misses",
    },
    Workload {
        name: "wd_eval",
        why: "parse and enumerate well-designed AND/OPT/UNION texts on a store-backed engine: the paper's pipeline, store reached only through TripleIndex probes",
    },
    Workload {
        name: "membership",
        why: "mu in [[P]]_G by the Theorem 1 pebble algorithm on realistic, F_k and clique instances: width recognition and the pebble game, almost no joins",
    },
    Workload {
        name: "load_restart",
        why: "330k-triple N-Triples text ingested volatile and durable with reads in between, reopened, and answered by one cold CLI process: the write side",
    },
];

pub struct EndToEnd {
    pub name: &'static str,
    pub unit: &'static str,
    pub higher_is_better: bool,
    /// Share of the parent's median by which the metric may get worse.
    pub bound: f64,
}

const fn e2e(name: &'static str, unit: &'static str, higher: bool, bound: f64) -> EndToEnd {
    EndToEnd {
        name,
        unit,
        higher_is_better: higher,
        bound,
    }
}

/// Every timing metric sits at the contract's ceiling of 0.25: on the
/// 2-core shared box this was sized on, the interquartile spread of ten
/// runs on ten seeds is 1–8 % in a quiet hour and reaches 10–26 % when
/// some of the ten fall in the box's slow phases (README, *Sizing at
/// HEAD*). The two exact-or-nearly metrics get three times their worst
/// spread.
pub const END_TO_END: [EndToEnd; 13] = [
    e2e("setup_s", "s", false, 0.25),
    e2e("ops_per_s", "1/s", true, 0.25),
    e2e("op_p50_ms", "ms", false, 0.25),
    e2e("op_p90_ms", "ms", false, 0.25),
    e2e("rows_per_s", "1/s", true, 0.25),
    e2e("ttfs_p50_ms", "ms", false, 0.25),
    e2e("sharded_ops_per_s", "1/s", true, 0.25),
    e2e("ingest_triples_per_s", "1/s", true, 0.25),
    e2e("durable_triples_per_s", "1/s", true, 0.25),
    e2e("reopen_ms", "ms", false, 0.25),
    e2e("cli_cold_ms", "ms", false, 0.25),
    e2e("disk_bytes_per_triple", "B", false, 0.05),
    e2e("peak_rss_mb", "MB", false, 0.2),
];

/// Per-layer metrics: (name, unit). A layer is a crate; the name's prefix
/// is the crate (`index.*` is the `TripleIndex` seam between `core` and
/// `store`, `trace.*` the tracing itself).
pub const PER_LAYER: [(&str, &str); 62] = [
    ("rdf.ntriples.parse_ms", "ms"),
    ("rdf.ntriples.mb_per_s", "MB/s"),
    ("rdf.format.ns_per_row", "ns"),
    ("rdf.graph.match_us", "us"),
    ("store.load.total_ms", "ms"),
    ("store.load.batch_p50_us", "us"),
    ("store.compact_ms", "ms"),
    ("store.segments_at_compact", "count"),
    ("store.read_during_ingest_us", "us"),
    ("store.scan.sp_us", "us"),
    ("store.scan.po_us", "us"),
    ("store.scan.so_us", "us"),
    ("store.scan.p_us", "us"),
    ("store.scan.count_sp_us", "us"),
    ("store.scan.ids_us", "us"),
    ("store.scan.values_us", "us"),
    ("store.plan_us", "us"),
    ("store.join.pairwise_ms", "ms"),
    ("store.join.wco_ms", "ms"),
    ("store.join.path_ms", "ms"),
    ("store.join.path_rows", "count"),
    ("store.cache.hit_share", "ratio"),
    ("store.cache.evictions", "count"),
    ("store.cache.hit_us", "us"),
    ("store.stream.first_us", "us"),
    ("store.stream.limit10_us", "us"),
    ("store.shard.routed_us", "us"),
    ("store.shard.fanout_ms", "ms"),
    ("store.persist.fsyncs_per_batch", "count"),
    ("store.persist.write_calls_per_batch", "count"),
    ("store.persist.write_bytes_per_triple", "B"),
    ("store.persist.fsync_time_share", "ratio"),
    ("store.persist.checkpoint_ms", "ms"),
    ("store.persist.recover_ms", "ms"),
    ("algebra.parse_us", "us"),
    ("algebra.wd_check_us", "us"),
    ("tree.translate_us", "us"),
    ("width.dw_us", "us"),
    ("width.bw_us", "us"),
    ("hom.find_us", "us"),
    ("hom.core_us", "us"),
    ("pebble.game_us", "us"),
    ("pebble.initial_assignments", "count"),
    ("pebble.deleted", "count"),
    ("pebble.subsets", "count"),
    ("core.enumerate_ms", "ms"),
    ("core.enum.hom_calls", "count"),
    ("core.enum.steps", "count"),
    ("core.check_pebble_us", "us"),
    ("core.check_naive_us", "us"),
    ("index.match_calls", "count"),
    ("index.contains_calls", "count"),
    ("index.dom_calls", "count"),
    ("index.count_calls", "count"),
    ("index.cursor_opens", "count"),
    ("index.rows_returned", "count"),
    ("index.time_share", "ratio"),
    ("cli.spawn_floor_ms", "ms"),
    ("cli.eval_print_ms", "ms"),
    ("trace.overhead_share", "ratio"),
    ("trace.unattributed_share", "ratio"),
    ("block_spread", "ratio"),
];
