//! E14 — enumeration and counting: output-sensitive behaviour on layered
//! chain queries (solution count grows with fanout^depth), counting on
//! realistic OPT data, and the set-at-a-time enumerator on a store
//! snapshot of the 10 000-person social network (the `wd_eval` shapes of
//! the repo benchmark, kernel only: no parsing, no formatting).
//!
//! The `enumerate_*` rows are tracked in `BENCH_core.json`:
//!
//! ```text
//! BENCH_JSON_PATH=$PWD/BENCH_core.json cargo bench -p wdsparql-bench --bench enumeration
//! ```

use criterion::{criterion_group, criterion_main, BenchmarkId, Criterion};
use wdsparql_algebra::eval;
use wdsparql_core::{
    count_by_domain, enumerate_forest_with, enumerate_with_stats, JoinStrategy, Query,
};
use wdsparql_rdf::{RdfGraph, Triple};
use wdsparql_store::TripleStore;
use wdsparql_tree::Wdpf;
use wdsparql_workloads::{chain_tree, social_network};

fn layered_graph(depth: usize, fanout: usize) -> RdfGraph {
    let mut g = RdfGraph::new();
    for i in 0..depth {
        for j in 0..fanout {
            for j2 in 0..fanout {
                g.insert(Triple::from_strs(
                    &format!("l{i}_{j}"),
                    &format!("p{i}"),
                    &format!("l{}_{j2}", i + 1),
                ));
            }
        }
    }
    g
}

fn bench_chain_enumeration(c: &mut Criterion) {
    let mut group = c.benchmark_group("enumerate_chain_layered");
    group.sample_size(10);
    for depth in [2usize, 3, 4] {
        let f = Wdpf::new(vec![chain_tree(depth)]);
        let g = layered_graph(depth, 3);
        group.bench_with_input(
            BenchmarkId::from_parameter(depth),
            &(&f, &g),
            |b, (f, g)| b.iter(|| enumerate_with_stats(f, *g).0.len()),
        );
    }
    group.finish();
}

fn bench_counting_social(c: &mut Criterion) {
    let mut group = c.benchmark_group("count_by_domain_social");
    group.sample_size(10);
    let q =
        Query::parse("{ ?x knows ?y OPTIONAL { ?y email ?e } OPTIONAL { ?y city ?c } }").unwrap();
    for n in [30usize, 60, 120] {
        let g = social_network(n, 7);
        group.bench_with_input(BenchmarkId::from_parameter(n), &g, |b, g| {
            b.iter(|| count_by_domain(q.forest(), g).len())
        });
    }
    group.finish();
}

/// `enumerate_forest_with(.., Auto)` on a `TripleStore` snapshot: an
/// anchored two-hop OPT (microseconds, per-key probes), and three scans
/// whose children are evaluated once per distinct interface binding —
/// 1.5 k, 2.4 k and 10 k rows.
fn bench_social_store(c: &mut Criterion) {
    let mut group = c.benchmark_group("enumerate_social_store");
    group.sample_size(10);
    let plain = social_network(10_000, 7);
    let store = TripleStore::from_rdf(&plain);
    let snapshot = store.read_snapshot();
    let g = snapshot.graph();
    for (name, text) in [
        (
            "opt_nested",
            "((person17, knows, ?y) AND (?y, knows, ?z)) OPT ((?z, wrote, ?w) OPT (?w, topic, ?t))",
        ),
        (
            "opt_in",
            "{ ?x city city2 OPTIONAL { ?x email ?e OPTIONAL { ?x wrote ?w } } }",
        ),
        (
            "opt_filtered_scan",
            "((?x, city, city2) AND (?x, knows, ?y)) OPT ((?y, wrote, ?w) OPT (?w, topic, topic1))",
        ),
        (
            "opt_full_scan",
            "((?p, type, Person) OPT (?p, email, ?e)) OPT (?p, city, ?c)",
        ),
    ] {
        let q = Query::parse(text).unwrap();
        assert_eq!(
            enumerate_forest_with(q.forest(), g, JoinStrategy::Auto),
            eval(q.pattern(), &plain),
            "{name} diverges from the reference semantics"
        );
        group.bench_function(name, |b| {
            b.iter(|| enumerate_forest_with(q.forest(), g, JoinStrategy::Auto).len())
        });
    }
    group.finish();
}

criterion_group!(
    benches,
    bench_chain_enumeration,
    bench_counting_social,
    bench_social_store
);
criterion_main!(benches);
