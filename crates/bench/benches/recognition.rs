//! E15 — cost of the recognition problem (`dw(P) ≤ k` / `bw(P) ≤ k`):
//! the static-analysis price of the width measures, growing with the
//! query (not the data).

use criterion::{criterion_group, criterion_main, BenchmarkId, Criterion};
use wdsparql_algebra::parse_pattern;
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
    // What `Strategy::Auto` pays per fresh query: the exact width, every
    // GtG element's core and treewidth computed once.
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

criterion_group!(
    benches,
    bench_recognize_dw_fk,
    bench_domination_width_fk,
    bench_domination_width_shapes,
    bench_recognize_bw_clique,
    bench_recognize_bw_grid
);
criterion_main!(benches);
