//! E7 — Proposition 2: the existential k-pebble game runs in polynomial
//! time for fixed k. Sweeps |dom(G)| for k ∈ {2, 3} and the pattern size
//! for k = 2, each on the hash-indexed `RdfGraph` and (the `store` rows)
//! on a `TripleStore`'s sorted permutations. `auto_check` times what a
//! membership question costs through `Strategy::Auto`, game or not.

use criterion::{criterion_group, criterion_main, BenchmarkId, Criterion};
use std::sync::Arc;
use wdsparql_core::{Engine, Query, Route, Strategy};
use wdsparql_hom::{GenTGraph, TGraph};
use wdsparql_pebble::duplicator_wins;
use wdsparql_rdf::{iri, tp, var, Mapping};
use wdsparql_store::TripleStore;
use wdsparql_tree::ROOT;
use wdsparql_workloads::{
    clique_instance, fk_instance, fk_instance_negative, social_network, turan_graph,
};

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

/// A fresh `Query` plus `Engine::check(.., Strategy::Auto)` on a
/// `TripleStore`, as `wdsparql check` and the `membership` benchmark pay
/// it: a social question and `F_3`'s two polarities, settled by the exact
/// search, and `Q_4`, settled by recognition plus the game.
fn bench_auto_check(c: &mut Criterion) {
    let mut group = c.benchmark_group("auto_check");
    group.sample_size(10);
    let text = "((person1, knows, ?y) AND (?y, knows, ?z)) \
                OPT ((?z, wrote, ?w) OPT (?w, topic, ?t))";
    let social = social_network(1_000, 7);
    let q = Query::parse(text).expect("well-designed");
    let sol = Engine::new(social.clone())
        .evaluate(&q)
        .into_iter()
        .next()
        .expect("person1 has a two-hop neighbour");
    // µ restricted to the root: a member iff no child extends.
    let mu = sol.restrict(q.forest().trees[0].vars(ROOT));
    let cases = [
        ("opt_nested", social, None, mu, Route::Exact),
        {
            let i = fk_instance(3, 12);
            ("fk_3_12", i.graph, Some(i.forest), i.mu, Route::Exact)
        },
        {
            let i = fk_instance_negative(3, 12);
            ("fk_neg_3_12", i.graph, Some(i.forest), i.mu, Route::Exact)
        },
        {
            let i = clique_instance(4, 12);
            (
                "clique_4_12",
                i.graph,
                Some(i.forest),
                i.mu,
                Route::Pebble { k: 3 },
            )
        },
    ];
    for (name, graph, forest, mu, route) in cases {
        let engine = Engine::from_store(Arc::new(TripleStore::from_rdf(&graph)));
        let query = || match &forest {
            Some(f) => Query::from_forest(f.clone()),
            None => Query::parse(text).expect("well-designed"),
        };
        let naive = engine.check(&query(), &mu, Strategy::Naive);
        assert_eq!(engine.check_auto(&query(), &mu), (naive, route), "{name}");
        group.bench_function(name, |b| {
            b.iter(|| engine.check(&query(), &mu, Strategy::Auto))
        });
    }
    group.finish();
}

criterion_group!(
    benches,
    bench_domain_scaling,
    bench_pattern_scaling,
    bench_auto_check
);
criterion_main!(benches);
