//! The triple-store service end to end: stream a synthetic bulk load
//! into a shared `TripleStore`, inspect its stats, and serve the same
//! well-designed query from four threads concurrently, then answer a
//! BGP with the epoch it read. A final act replays a *skewed* ingest
//! into a hash-sharded `ShardedStore`: scattered loads under per-shard
//! write locks, balanced shards despite the hot subjects, and routed
//! queries that read — and report — only their own shard.
//!
//! Run with: `cargo run --example store_service`

use std::sync::Arc;
use wdsparql::rdf::{iri, tp, var, Iri};
use wdsparql::workloads::{skewed_triple_stream, triple_stream};
use wdsparql::{Engine, Query, ShardedStore, TripleStore};

fn main() {
    // 1. Bulk-load a generated workload in batches, as an ingest
    //    pipeline would: each batch appends one sorted delta segment
    //    (no base rewrite); the adaptive compaction policy folds the
    //    segments back into the base as they accumulate.
    let store = Arc::new(TripleStore::new());
    let mut stream = triple_stream(2_000, 50_000, 6, 7);
    let mut batch_no = 0;
    loop {
        let batch: Vec<_> = stream.by_ref().take(10_000).collect();
        if batch.is_empty() {
            break;
        }
        batch_no += 1;
        let added = store.bulk_load(batch);
        let st = store.stats();
        println!(
            "batch {batch_no}: +{added} new triples (epoch {}, {} delta row(s) in {} segment(s))",
            store.epoch(),
            st.delta_rows,
            st.segments
        );
    }
    // Fold whatever is still pending (and build the PSO permutation for
    // subject-sorted merge joins). Contents are unchanged, so the epoch
    // stays.
    store.compact();

    // 2. The stats snapshot drives the planner: per-predicate
    //    cardinalities, read straight off the POS offsets.
    let stats = store.stats();
    println!("\n{stats}\n");

    // 3. Concurrent queries through the store-backed engine. Every
    //    thread shares the same store; pattern matching inside the
    //    evaluator resolves through the sorted permutation ranges under
    //    the read lock.
    let query_text = "((?x, p0, ?y) OPT (?y, p1, ?z)) OPT (?y, p2, ?w)";
    let mut handles = Vec::new();
    for worker in 0..4 {
        let store = Arc::clone(&store);
        handles.push(std::thread::spawn(move || {
            let engine = Engine::from_store(store);
            let query = Query::parse(query_text).expect("well-designed");
            let solutions = engine.evaluate(&query);
            (worker, solutions.len())
        }));
    }
    for h in handles {
        let (worker, n) = h.join().expect("worker finished");
        println!("worker {worker}: {n} solutions");
    }

    // 4. The service's conjunctive (BGP) path: planned
    //    most-selective-first — plan and solutions from one snapshot,
    //    so they can never diverge — each answer naming the epoch it read.
    let patterns = [
        tp(var("x"), iri("p0"), var("y")),
        tp(var("y"), iri("p1"), var("z")),
    ];
    let planned = store.query_with_plan(&patterns);
    println!(
        "\nBGP plan (epoch {}): {}",
        planned.read[0].1,
        planned
            .plan
            .iter()
            .map(|&i| patterns[i].to_string())
            .collect::<Vec<_>>()
            .join(" ⋈ ")
    );
    for round in 1..=3 {
        let answer = store.query_with_plan(&patterns);
        println!(
            "round {round}: {} join solutions read at {:?}",
            answer.solutions.len(),
            answer.read
        );
    }

    // 5. The sharded facade: the same service scaled across N
    //    hash-partitioned shards. The feed is subject-skewed (a hot
    //    head of subjects draws most writes), yet hashing the subject
    //    *names* keeps the shards balanced; every bulk load scatters
    //    its batch under independent per-shard write locks.
    let sharded = Arc::new(ShardedStore::new(4));
    let mut stream = skewed_triple_stream(2_000, 40_000, 6, 13);
    loop {
        let batch: Vec<_> = stream.by_ref().take(10_000).collect();
        if batch.is_empty() {
            break;
        }
        sharded.bulk_load(batch);
    }
    sharded.compact();
    let stats = sharded.stats();
    println!("\nsharded ingest of a skewed feed:\n{stats}");

    // Routed vs fan-out queries: a subject-bound pattern pins and reads
    // one shard — a write to any *other* shard leaves its read set
    // unchanged; a fan-out reads every shard.
    let hot = Iri::new("n0"); // the hottest subject of the skewed feed
    let routed = [tp(hot, iri("p0"), var("y"))];
    let fanout = [
        tp(var("x"), iri("p0"), var("y")),
        tp(var("y"), iri("p1"), var("z")),
    ];
    println!(
        "routed (n0, p0, ?y): {} solution(s) from shard {}",
        sharded.query(&routed).len(),
        sharded.shard_of(hot)
    );
    println!("fan-out join: {} solution(s)", sharded.query(&fanout).len());
    let other_shard = (sharded.shard_of(hot) + 1) % sharded.shard_count();
    let foreign = (0..)
        .map(|i| Iri::new(&format!("w{i}")))
        .find(|s| sharded.shard_of(*s) == other_shard)
        .expect("some name hashes to the other shard");
    sharded.bulk_load([wdsparql::rdf::Triple::new(foreign, Iri::new("p0"), hot)]);
    println!(
        "after a write to shard {other_shard}: routed query read {:?} (epochs {:?})",
        sharded.query_with_plan(&routed).read,
        sharded.epochs()
    );

    // The evaluation engine runs on the sharded layout unchanged.
    let engine = Engine::from_sharded_store(Arc::clone(&sharded));
    let query = Query::parse(query_text).expect("well-designed");
    println!(
        "sharded engine: {} solutions to the OPT query",
        engine.evaluate(&query).len()
    );
}
