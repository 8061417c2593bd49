//! E7 — Proposition 2: the existential k-pebble game runs in polynomial
//! time for fixed k. Sweeps |dom(G)| for k ∈ {2, 3} and the pattern size
//! for k = 2, each on the hash-indexed `RdfGraph` and (the `store` rows)
//! on a `TripleStore`'s sorted permutations.

use criterion::{criterion_group, criterion_main, BenchmarkId, Criterion};
use wdsparql_hom::{GenTGraph, TGraph};
use wdsparql_pebble::duplicator_wins;
use wdsparql_rdf::{iri, tp, var, Mapping};
use wdsparql_store::TripleStore;
use wdsparql_workloads::turan_graph;

fn clique_query(k: usize) -> GenTGraph {
    let mut pats = Vec::new();
    for i in 1..=k {
        for j in (i + 1)..=k {
            pats.push(tp(var(&format!("pb{i}")), iri("r"), var(&format!("pb{j}"))));
        }
    }
    GenTGraph::new(TGraph::from_patterns(pats), [])
}

fn path_query(len: usize) -> GenTGraph {
    GenTGraph::new(
        TGraph::from_patterns((0..len).map(|i| {
            tp(
                var(&format!("pp{i}")),
                iri("r"),
                var(&format!("pp{}", i + 1)),
            )
        })),
        [],
    )
}

fn bench_domain_scaling(c: &mut Criterion) {
    let mut group = c.benchmark_group("pebble_domain_scaling");
    group.sample_size(10);
    let src = clique_query(4);
    for n in [9usize, 15, 21] {
        let g = turan_graph(n, 3, "r");
        let store = TripleStore::from_rdf(&g);
        for k in [2usize, 3] {
            group.bench_with_input(
                BenchmarkId::new(format!("k{k}"), n),
                &(&src, &g),
                |b, (src, g)| b.iter(|| duplicator_wins(src, *g, &Mapping::new(), k)),
            );
            group.bench_with_input(
                BenchmarkId::new(format!("k{k}_store"), n),
                &src,
                |b, src| {
                    b.iter(|| store.with_index(|ix| duplicator_wins(src, ix, &Mapping::new(), k)))
                },
            );
        }
    }
    group.finish();
}

fn bench_pattern_scaling(c: &mut Criterion) {
    let mut group = c.benchmark_group("pebble_pattern_scaling_k2");
    group.sample_size(10);
    let g = turan_graph(12, 3, "r");
    let store = TripleStore::from_rdf(&g);
    for len in [2usize, 4, 6, 8] {
        let src = path_query(len);
        group.bench_with_input(BenchmarkId::from_parameter(len), &src, |b, src| {
            b.iter(|| duplicator_wins(src, &g, &Mapping::new(), 2))
        });
        group.bench_with_input(BenchmarkId::new("store", len), &src, |b, src| {
            b.iter(|| store.with_index(|ix| duplicator_wins(src, ix, &Mapping::new(), 2)))
        });
    }
    group.finish();
}

criterion_group!(benches, bench_domain_scaling, bench_pattern_scaling);
criterion_main!(benches);
