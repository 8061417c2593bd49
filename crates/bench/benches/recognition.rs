//! E15 — cost of the recognition problem (`dw(P) ≤ k` / `bw(P) ≤ k`):
//! the static-analysis price of the width measures, growing with the
//! query (not the data).

use criterion::{criterion_group, criterion_main, BenchmarkId, Criterion};
use wdsparql_algebra::parse_pattern;
use wdsparql_core::Query;
use wdsparql_tree::Wdpf;
use wdsparql_width::{domination_width, recognize_bw, recognize_dw};
use wdsparql_workloads::{clique_child_tree, fk_forest, grid_child_tree};

fn bench_recognize_dw_fk(c: &mut Criterion) {
    let mut group = c.benchmark_group("recognize_dw_fk");
    group.sample_size(10);
    for k in [2usize, 3, 4] {
        let f = fk_forest(k);
        group.bench_with_input(BenchmarkId::from_parameter(k), &f, |b, f| {
            b.iter(|| assert!(recognize_dw(f, 1).holds()))
        });
    }
    group.finish();
}

fn bench_domination_width_fk(c: &mut Criterion) {
    // What `Strategy::Auto` pays per fresh query when the step budget
    // leaves a child test to the game: the exact width, every GtG
    // element's core and treewidth computed once.
    let mut group = c.benchmark_group("domination_width_fk");
    group.sample_size(10);
    for k in [3usize, 4, 6] {
        let f = fk_forest(k);
        group.bench_with_input(BenchmarkId::from_parameter(k), &f, |b, f| {
            b.iter(|| assert_eq!(domination_width(f), 1))
        });
    }
    group.finish();
}

fn bench_domination_width_shapes(c: &mut Criterion) {
    // The same on the realistic OPT shapes the `membership` benchmark asks
    // about, and on Q_4: one GtG element, no dominator, a core that keeps
    // every triple — the path where laziness has nothing to skip.
    let mut group = c.benchmark_group("domination_width_shapes");
    group.sample_size(10);
    let text = |t: &str| Wdpf::from_pattern(&parse_pattern(t).expect("parses")).expect("wd");
    let shapes = [
        (
            "opt_star",
            text("((person1, knows, ?y) OPT (?y, email, ?e)) OPT (?y, city, ?c)"),
            1,
        ),
        (
            "opt_nested",
            text(
                "((person1, knows, ?y) AND (?y, knows, ?z)) \
                 OPT ((?z, wrote, ?w) OPT (?w, topic, ?t))",
            ),
            1,
        ),
        ("q4", Wdpf::new(vec![clique_child_tree(4)]), 3),
    ];
    for (name, f, dw) in &shapes {
        group.bench_with_input(BenchmarkId::from_parameter(name), f, |b, f| {
            b.iter(|| assert_eq!(domination_width(f), *dw))
        });
    }
    group.finish();
}

fn bench_recognize_bw_clique(c: &mut Criterion) {
    // The NP-hard kernel (ctw ≤ k) on growing clique children: accepted
    // at the exact width, rejected just below it.
    let mut group = c.benchmark_group("recognize_bw_clique");
    group.sample_size(10);
    for m in [4usize, 6, 8] {
        let q = clique_child_tree(m);
        group.bench_with_input(BenchmarkId::new("exact", m), &q, |b, q| {
            b.iter(|| assert!(recognize_bw(q, m - 1).holds()))
        });
        group.bench_with_input(BenchmarkId::new("reject", m), &q, |b, q| {
            b.iter(|| assert!(!recognize_bw(q, m - 2).holds()))
        });
    }
    group.finish();
}

fn bench_recognize_bw_grid(c: &mut Criterion) {
    let mut group = c.benchmark_group("recognize_bw_grid");
    group.sample_size(10);
    for (r, cdim) in [(2usize, 2usize), (2, 4), (3, 3)] {
        let q = grid_child_tree(r, cdim);
        let want = r.min(cdim);
        group.bench_with_input(
            BenchmarkId::from_parameter(format!("{r}x{cdim}")),
            &q,
            |b, q| b.iter(|| assert!(recognize_bw(q, want).holds())),
        );
    }
    group.finish();
}

fn bench_query_parse(c: &mut Criterion) {
    // The front end of every `membership` and `wd_eval` op: `Query::parse`
    // from text to the translated forest, on the benchmark's query shapes
    // (`wd_eval_mix` parses one text of each of its seven classes per
    // iteration) and on a 500-deep right-nested OPT chain, where a
    // translation that rescans the tree per level shows.
    let mut group = c.benchmark_group("query_parse");
    group.sample_size(10);
    let star = "((person1, knows, ?y) OPT (?y, email, ?e)) OPT (?y, city, ?c)";
    let nested = "((person1, knows, ?y) AND (?y, knows, ?z)) \
                  OPT ((?z, wrote, ?w) OPT (?w, topic, ?t))";
    let mix = [
        star,
        nested,
        "((person1, knows, ?y) OPT (?y, email, ?e)) \
         UNION ((person2, knows, ?y) OPT (?y, city, ?c))",
        "{ ?x city city1 OPTIONAL { ?x email ?e OPTIONAL { ?x wrote ?w } } }",
        "((?x, city, city1) AND (?x, knows, ?y)) \
         OPT ((?y, wrote, ?w) OPT (?w, topic, topic1))",
        "((?p, type, Person) OPT (?p, email, ?e)) OPT (?p, city, ?c)",
        "((?x, knows, ?y) AND (?y, knows, ?z) AND (?z, knows, ?x)) OPT (?x, email, ?e)",
    ];
    let mut chain = "(?v500, p, ?v501)".to_string();
    for i in (0..500).rev() {
        chain = format!("(?v{i}, p, ?v{}) OPT ({chain})", i + 1);
    }
    let parse = |text: &str| Query::parse(text).expect("well-designed");
    group.bench_function("membership_star", |b| b.iter(|| parse(star)));
    group.bench_function("membership_nested", |b| b.iter(|| parse(nested)));
    group.bench_function("wd_eval_mix", |b| {
        b.iter(|| mix.iter().map(|t| parse(t).forest().len()).sum::<usize>())
    });
    group.bench_function("opt_chain_500", |b| b.iter(|| parse(&chain)));
    group.finish();
}

criterion_group!(
    benches,
    bench_recognize_dw_fk,
    bench_domination_width_fk,
    bench_domination_width_shapes,
    bench_recognize_bw_clique,
    bench_recognize_bw_grid,
    bench_query_parse
);
criterion_main!(benches);
