//! Nesting depth: a query nested deeper than `MAX_NESTING` levels is a
//! positioned parse error, from every text entry point, however deep it
//! goes; one at the limit runs the whole pipeline on a main thread's
//! stack. 30 000 levels of `(` or `{` once overflowed the stack of
//! `wdsparql eval` and aborted the process.

use wdsparql::algebra::MAX_NESTING;
use wdsparql::core::QueryError;
use wdsparql::project::ProjectError;
use wdsparql::rdf::RdfGraph;
use wdsparql::{Engine, ProjectedQuery, Query};

const DEEP: usize = 100_000;

/// The message the parsers refuse a too-deep text with.
fn too_deep_at(offset: usize) -> String {
    format!("parse error at byte {offset}: nesting deeper than {MAX_NESTING} levels")
}

/// `(?v0, p, ?v1) OPT ((?v1, p, ?v2) OPT (… (?vn, p, ?vn+1)))`: `n` nested
/// groups.
fn paper_chain(n: usize) -> String {
    let mut text = String::new();
    for i in 0..n {
        text.push_str(&format!("(?v{i}, p, ?v{}) OPT (", i + 1));
    }
    text.push_str(&format!("(?v{n}, p, ?v{})", n + 1));
    text.push_str(&")".repeat(n));
    text
}

/// `{ ?v0 p ?v1 OPTIONAL { ?v1 p ?v2 OPTIONAL { … } } }`: `n` groups.
fn curly_chain(n: usize) -> String {
    let mut text = String::new();
    for i in 0..n - 1 {
        text.push_str(&format!("{{ ?v{i} p ?v{} OPTIONAL ", i + 1));
    }
    text.push_str(&format!("{{ ?v{} p ?v{} ", n - 1, n));
    text.push_str(&"}".repeat(n));
    text
}

#[test]
fn a_hundred_thousand_levels_are_refused_by_every_entry_point() {
    let parens = format!("{}(?x, p, ?y){}", "(".repeat(DEEP), ")".repeat(DEEP));
    let braces = format!("{}?x p ?y{}", "{".repeat(DEEP), "}".repeat(DEEP));
    // The group that would open level MAX_NESTING + 1 starts at byte
    // MAX_NESTING in both.
    let want = too_deep_at(MAX_NESTING);
    for text in [&parens, &braces] {
        match Query::parse(text) {
            Err(QueryError::Parse(m)) => assert_eq!(m, want),
            other => panic!("{:?}", other.map(|q| q.forest().len())),
        }
    }
    match Query::parse_with_filter(&braces) {
        Err(QueryError::Parse(m)) => assert_eq!(m, want),
        other => panic!("{:?}", other.map(|(q, _)| q.forest().len())),
    }
    match ProjectedQuery::parse(&format!("SELECT ?x WHERE {braces}")) {
        Err(ProjectError::Parse(m)) => assert_eq!(m, too_deep_at(MAX_NESTING + 16)),
        other => panic!("{:?}", other.map(|q| q.forest().len())),
    }
}

#[test]
fn filter_expressions_nest_to_the_same_limit() {
    let head = "{ ?x p ?y FILTER";
    for open in ["(", "!", "(!"] {
        let filter = format!("{}?x = c{}", open.repeat(DEEP), ")".repeat(DEEP));
        let text = format!("{head}{filter} }}");
        match Query::parse_with_filter(&text) {
            Err(QueryError::Parse(m)) => {
                assert!(
                    m.ends_with("nesting deeper than 2048 levels"),
                    "{open}: {m}"
                )
            }
            other => panic!("{open}: {:?}", other.map(|(q, _)| q.forest().len())),
        }
    }
    // At the limit: parentheses and negations alike, an even number of
    // the latter.
    let filter = format!(
        "{}?x = c{}",
        "(!".repeat(MAX_NESTING / 2),
        ")".repeat(MAX_NESTING / 2)
    );
    let (_, f) = Query::parse_with_filter(&format!("{head}{filter} }}")).expect("at the limit");
    assert!(f.holds(&wdsparql::rdf::Mapping::from_strs([("x", "c")])));
}

/// A right-nested OPT chain at the limit, in both syntaxes, is parsed,
/// translated, evaluated, printed and dropped on a thread with the 8 MiB
/// stack of a main thread.
#[test]
fn a_chain_at_the_limit_runs_on_a_main_thread_stack() {
    // One level more is refused at the `(` after the last `OPT`.
    let over = paper_chain(MAX_NESTING + 1);
    let at = over.match_indices("OPT (").nth(MAX_NESTING).unwrap().0 + 4;
    assert_eq!(
        Query::parse(&over).err(),
        Some(QueryError::Parse(too_deep_at(at)))
    );
    std::thread::Builder::new()
        .stack_size(8 << 20)
        .spawn(|| {
            // A path the chain's first levels match from three starts.
            let g = RdfGraph::from_strs([("a0", "p", "a1"), ("a1", "p", "a2"), ("a2", "p", "a3")]);
            let engine = Engine::new(g);
            for (text, nodes) in [
                (paper_chain(MAX_NESTING), MAX_NESTING + 1),
                (curly_chain(MAX_NESTING), MAX_NESTING),
            ] {
                let q = Query::parse(&text).expect("at the limit");
                assert_eq!(q.forest().trees[0].len(), nodes);
                let solutions = engine.evaluate(&q);
                assert_eq!(solutions.len(), 3, "one per start of the path");
                let mut printed = format!("{q}\n");
                for mu in &solutions {
                    printed.push_str(&format!("{mu}\n"));
                }
                assert!(printed.contains("?v2048"));
                assert!(printed.contains("a3"));
                drop(q);
            }
        })
        .expect("spawn")
        .join()
        .expect("the pipeline fits the stack");
}
