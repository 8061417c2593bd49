//! The order a BGP stream yields its rows in, pinned to a recorded dump.
//! `LIMIT k` returns the first `k` rows of the stream, and `wdsparql
//! store --limit K` prints them, so a change of order is a change users
//! see, even where every solution set stays the same.
//!
//! A dozen BGPs (stars, paths, triangles, a ground pattern, an anchored
//! seed, a variable predicate, a disconnected pair and the empty BGP) run
//! on one seeded generated graph under `Pairwise` and under `Wco`; the
//! dump of their rows, in stream order, must equal
//! `fixtures/stream_order.txt` byte for byte.
//!
//! One test function, so that the process interns names in one fixed
//! order: rows come in the order of their terms' ids.

use std::fmt::Write as _;
use wdsparql_rdf::term::{iri, var};
use wdsparql_rdf::{tp, Iri, QueryBudget, SolutionStream, Triple, TriplePattern};
use wdsparql_store::{open_bgp_stream, EncodedGraph, JoinStrategy};

const FIXTURE: &str = include_str!("fixtures/stream_order.txt");

const NODES: usize = 30;
const PREDICATES: usize = 3;
const TRIPLES: usize = 150;

/// The graph: `TRIPLES` draws of an xorshift generator over `NODES`
/// nodes and `PREDICATES` predicates, every name interned up front in a
/// fixed order.
fn graph() -> Vec<Triple> {
    let nodes: Vec<Iri> = (0..NODES).map(|i| Iri::new(&format!("n{i}"))).collect();
    let preds: Vec<Iri> = (0..PREDICATES)
        .map(|i| Iri::new(&format!("p{i}")))
        .collect();
    let mut state = 0x853c_49e6_748f_ea9bu64;
    let mut next = |n: usize| {
        state ^= state << 13;
        state ^= state >> 7;
        state ^= state << 17;
        (state % n as u64) as usize
    };
    (0..TRIPLES)
        .map(|_| {
            let s = nodes[next(NODES)];
            let p = preds[next(PREDICATES)];
            Triple::new(s, p, nodes[next(NODES)])
        })
        .collect()
}

fn edge(s: &str, p: &str, o: &str) -> TriplePattern {
    let term = |name: &str| match name.strip_prefix('?') {
        Some(v) => var(v),
        None => iri(name),
    };
    tp(term(s), term(p), term(o))
}

fn bgps(first: Triple) -> Vec<(&'static str, Vec<TriplePattern>)> {
    vec![
        (
            "star2",
            vec![edge("?x", "p0", "?y"), edge("?x", "p1", "?z")],
        ),
        (
            "star3",
            vec![
                edge("?x", "p0", "?y"),
                edge("?x", "p1", "?z"),
                edge("?x", "p2", "?w"),
            ],
        ),
        (
            "path2",
            vec![edge("?x", "p0", "?y"), edge("?y", "p1", "?z")],
        ),
        (
            "path3",
            vec![
                edge("?x", "p0", "?y"),
                edge("?y", "p1", "?z"),
                edge("?z", "p2", "?w"),
            ],
        ),
        (
            "triangle",
            vec![
                edge("?x", "p0", "?y"),
                edge("?y", "p0", "?z"),
                edge("?x", "p0", "?z"),
            ],
        ),
        (
            "cycle3",
            vec![
                edge("?x", "p0", "?y"),
                edge("?y", "p1", "?z"),
                edge("?z", "p2", "?x"),
            ],
        ),
        (
            "ground and path",
            vec![
                TriplePattern::from(first),
                edge("?x", "p0", "?y"),
                edge("?y", "p1", "?z"),
            ],
        ),
        (
            "anchored path",
            vec![edge("n0", "p0", "?y"), edge("?y", "?p", "?z")],
        ),
        (
            "variable predicate",
            vec![edge("?x", "?p", "?y"), edge("?y", "p2", "?x")],
        ),
        (
            "two-cycle",
            vec![edge("?x", "p1", "?y"), edge("?y", "p1", "?x")],
        ),
        (
            "disconnected",
            vec![edge("n1", "p0", "?y"), edge("n2", "p1", "?z")],
        ),
        ("single", vec![edge("?x", "p2", "?y")]),
        ("empty", vec![]),
    ]
}

#[test]
fn stream_order_matches_the_recorded_dump() {
    let triples = graph();
    let g = EncodedGraph::from_triples(triples.iter().copied());
    let budget = QueryBudget::unlimited();
    let mut out = String::new();
    for (name, pats) in bgps(triples[0]) {
        writeln!(out, "== {name}").unwrap();
        for strategy in [JoinStrategy::Pairwise, JoinStrategy::Wco] {
            let rows = open_bgp_stream(&g, &pats, strategy, &budget)
                .collect_limit(None)
                .expect("unlimited");
            writeln!(out, "-- {strategy}: {} row(s)", rows.len()).unwrap();
            for mu in rows {
                writeln!(out, "{mu}").unwrap();
            }
        }
    }
    if out != FIXTURE {
        let actual = std::path::Path::new(env!("CARGO_TARGET_TMPDIR")).join("stream_order.txt");
        std::fs::write(&actual, &out).expect("write the actual dump");
        let line = out
            .lines()
            .zip(FIXTURE.lines())
            .position(|(a, b)| a != b)
            .unwrap_or_else(|| out.lines().count().min(FIXTURE.lines().count()));
        panic!(
            "the stream order differs from the fixture from line {} on; the dump is in {}",
            line + 1,
            actual.display()
        );
    }
}
