//! `load_restart`: the write side of the layers `bgp_join` reads — a
//! 330k-triple N-Triples text through `rdf::ntriples`, the store's
//! dictionary, segments and compaction, `store::persist`, and the CLI.
//! Reads between batches hit uncompacted segments, so a change that buys
//! write speed with read cost (or the reverse) shows in one table. The op
//! whose latency is reported is one acknowledged durable batch commit.

use crate::bgp_join::{bgp_dataset, gen_ops, large_queries, patterns, query_vars, PREDICATES};
use crate::lifecycle::{self, expected_reads, Dataset, Env, BATCH};
use crate::stats::{Answer, SplitMix};
use crate::trace::Tracer;
use crate::workload::{lifecycle_layers, scaled, scan_probes, timed_ms, Block, Layers, Workload};
use std::time::Instant;
use wdsparql_rdf::{parse_ntriples, RdfGraph, Triple, TripleIndex};
use wdsparql_store::{ShardedStore, TripleStore};
use wdsparql_workloads::skewed_triple_stream;

const NODES: usize = 18_000;
const DRAWS: usize = 330_000;
/// Distinct `star2` reads, four after every batch: more than a full
/// ingest issues, so no read repeats and their row counts average out.
const READ_POOL: usize = 512;

pub const CLASSES: [&str; 1] = ["durable_commit"];

pub struct LoadRestart {
    seed: u64,
    plain: RdfGraph,
    ds: Dataset,
}

impl LoadRestart {
    pub fn setup(seed: u64, scale: f64, env: &Env) -> LoadRestart {
        let nodes = scaled(NODES, scale, 100);
        let plain = RdfGraph::from_triples(skewed_triple_stream(
            nodes,
            scaled(DRAWS, scale, 2 * BATCH),
            PREDICATES,
            seed,
        ));
        // Queries of the `bgp_join` shapes over this dataset's nodes.
        let vars = query_vars();
        let ops = gen_ops(nodes, 4 * READ_POOL, seed);
        let of = |class: usize| ops.iter().filter(move |o| o.class == class);
        let path3 = of(2).next().expect("a path3 op");
        let mut ds = bgp_dataset(&plain, patterns(path3, &vars), env, seed);
        ds.reads = of(0).take(READ_POOL).map(|o| patterns(o, &vars)).collect();
        // The same triangles in the same order for every seed: only the
        // data they run on is drawn.
        let mut triangles = large_queries();
        triangles.truncate(PREDICATES.pow(3));
        SplitMix::new(0x51).shuffle(&mut triangles);
        ds.firsts = triangles.iter().map(|o| patterns(o, &vars)).collect();
        // The store ingests the file's triples in file order, so the
        // expected reads must come from the parsed text, not `plain`.
        let parsed = parse_ntriples(&ds.text).expect("generated N-Triples parse");
        ds.reads_expected = expected_reads(&parsed, &ds.reads);
        LoadRestart { seed, plain, ds }
    }
}

impl Workload for LoadRestart {
    fn classes(&self) -> (&'static [&'static str], Vec<usize>) {
        (&CLASSES, vec![0; self.ds.distinct.div_ceil(BATCH)])
    }

    fn dataset(&self) -> &Dataset {
        &self.ds
    }

    /// Every block checks itself against the plain `RdfGraph` (sizes, 64
    /// probes on the volatile and the reopened store, every read between
    /// batches, the CLI's printed count); here only the text round trip.
    fn verify(&self) -> Result<u64, String> {
        let parsed = parse_ntriples(&self.ds.text).map_err(|e| e.to_string())?;
        if parsed != self.plain {
            return Err("the N-Triples text does not parse back to the generated graph".into());
        }
        Ok(1)
    }

    fn block(&mut self, env: &Env, sides: bool) -> Block {
        let start = Instant::now();
        let lc = lifecycle::run(&self.ds, env, None);
        let mut b = Block {
            pass_s: start.elapsed().as_secs_f64(),
            op_ms: lc.commit_ms.clone(),
            // A commit has no rows to compare; its effect is checked by
            // the reads, the reopen and the probes.
            answers: vec![Answer::default(); lc.commit_ms.len()],
            rows: lc.read_rows,
            row_ms: Some(
                lc.read_us
                    .iter()
                    .zip(&lc.read_format_us)
                    .map(|(q, f)| (q + f) / 1e3)
                    .collect(),
            ),
            ttfs_ms: lc.first_ms.clone(),
            lifecycle: lc,
            ..Block::default()
        };
        if sides {
            // The same batches into two volatile shards, then compaction.
            let triples: Vec<Triple> = self.plain.iter().copied().collect();
            let store = ShardedStore::new(2);
            for batch in triples.chunks(BATCH) {
                let (res, ms) = timed_ms(|| store.try_bulk_load(batch.to_vec()));
                res.expect("sharded load");
                b.sharded_ms.push(ms);
            }
            b.sharded_ms.push(timed_ms(|| store.compact()).1);
            b.checks
                .check(store.len() == self.ds.distinct, "sharded store size");
        }
        b
    }

    fn traced(&mut self, env: &Env, tr: &mut Tracer) -> Layers {
        let mut out = Layers::new();
        let lc = lifecycle::run(&self.ds, env, Some(tr));
        lifecycle_layers(&lc, &self.ds, &mut out);
        out.insert(
            "rdf.format.ns_per_row",
            lc.read_format_us.iter().sum::<f64>() * 1e3 / lc.read_rows.max(1) as f64,
        );
        out.insert(
            "store.stream.first_us",
            crate::stats::median(&lc.first_ms) * 1e3,
        );
        let store = TripleStore::from_rdf(&self.plain);
        let snap = store.read_snapshot();
        debug_assert_eq!(TripleIndex::len(snap.graph()), self.ds.distinct);
        scan_probes(snap.graph(), &self.plain, self.seed, &mut out);
        out
    }
}
