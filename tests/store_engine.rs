//! Integration: the store-backed [`Engine`] agrees with the reference
//! semantics (and with the memory-backed engine) on the paper's example
//! queries, over both hand-built and generated workload graphs.

use std::sync::Arc;
use wdsparql::algebra::eval as reference_eval;
use wdsparql::core::{Engine, Query, Strategy};
use wdsparql::rdf::{Mapping, RdfGraph, Triple};
use wdsparql::workloads::{social_network, triple_stream, university};
use wdsparql::TripleStore;

/// The paper's running example queries (Examples 1/2 shapes plus OPT
/// chains and a UNION), in the paper's surface syntax.
const PAPER_QUERIES: &[&str] = &[
    "(((?x, p, ?y) OPT (?z, q, ?x)) OPT ((?y, r, ?o1) AND (?o1, r, ?o2)))",
    "((?x, p, ?y) OPT (?z, q, ?x)) OPT ((?x, w, ?w1) AND (?w1, w, ?x))",
    "(?x, p, ?y) OPT ((?y, r, ?o1) OPT (?o1, r, ?o2))",
    "((?x, p, ?y) OPT (?y, r, ?u)) UNION ((?z, q, ?x) OPT (?x, p, ?y))",
];

fn example_graph() -> RdfGraph {
    RdfGraph::from_strs([
        ("a", "p", "b"),
        ("z0", "q", "a"),
        ("b", "r", "c"),
        ("c", "r", "d"),
        ("e", "p", "f"),
        ("w1", "w", "w2"),
        ("w2", "w", "w1"),
    ])
}

#[test]
fn store_backed_engine_agrees_with_reference_on_paper_queries() {
    let g = example_graph();
    let store = Arc::new(TripleStore::from_rdf(&g));
    let engine = Engine::from_store(Arc::clone(&store));
    for text in PAPER_QUERIES {
        let q = Query::parse(text).unwrap();
        let via_store = engine.evaluate(&q);
        let reference = reference_eval(q.pattern(), &g);
        assert_eq!(via_store, reference, "divergence on {text}");
        for mu in &reference {
            assert!(engine.check(&q, mu, Strategy::Naive), "naive rejects {mu}");
            assert!(engine.check(&q, mu, Strategy::Auto), "auto rejects {mu}");
        }
        let non = Mapping::from_strs([("x", "zzz-not-here"), ("y", "b")]);
        assert!(!engine.check(&q, &non, Strategy::Naive));
    }
}

#[test]
fn store_and_memory_backends_agree_on_workload_graphs() {
    for (label, g) in [
        ("social", social_network(40, 7)),
        ("university", university(3, 11)),
    ] {
        let store = Arc::new(TripleStore::from_rdf(&g));
        let via_store = Engine::from_store(store);
        let memory = Engine::new(g);
        for text in [
            "((?p, type, Person) OPT (?p, email, ?e)) OPT (?p, city, ?c)",
            "(?s, type, Student) OPT ((?s, advisor, ?a) OPT (?a, office, ?o))",
        ] {
            let q = Query::parse(text).unwrap();
            assert_eq!(
                via_store.evaluate(&q),
                memory.evaluate(&q),
                "{label}: {text}"
            );
            assert_eq!(via_store.count(&q), memory.count(&q));
        }
    }
}

#[test]
fn bulk_loaded_stream_serves_queries_like_a_set_build() {
    let triples: Vec<Triple> = triple_stream(60, 2_000, 4, 3).collect();
    let store = Arc::new(TripleStore::new());
    // Load in uneven batches, exercising the sorted-merge insert path.
    for chunk in triples.chunks(333) {
        store.bulk_load(chunk.iter().copied());
    }
    let set_build: RdfGraph = triples.iter().copied().collect();
    assert_eq!(store.len(), set_build.len());
    let engine = Engine::from_store(Arc::clone(&store));
    let q = Query::parse("(?x, p0, ?y) OPT (?y, p1, ?z)").unwrap();
    assert_eq!(engine.evaluate(&q), Engine::new(set_build).evaluate(&q));
    // The repeated service query answers alike.
    let pats = [
        wdsparql::rdf::tp(
            wdsparql::rdf::var("x"),
            wdsparql::rdf::iri("p0"),
            wdsparql::rdf::var("y"),
        ),
        wdsparql::rdf::tp(
            wdsparql::rdf::var("y"),
            wdsparql::rdf::iri("p1"),
            wdsparql::rdf::var("z"),
        ),
    ];
    let first = store.query(&pats);
    let second = store.query(&pats);
    assert_eq!(first, second);
}
