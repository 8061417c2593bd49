//! Nesting depth: a query nested deeper than `MAX_NESTING` levels, or
//! whose pattern is deeper than `MAX_DEPTH` operators, is a positioned
//! parse error, from every text entry point, however deep it goes; one at
//! either limit runs the whole pipeline on a main thread's stack. 30 000
//! levels of `(` or `{` once overflowed the stack of `wdsparql eval` and
//! aborted the process, and so did a flat chain of 30 000 `AND` or `OPT`
//! operands, which opens no group at all.

use wdsparql::algebra::{MAX_DEPTH, MAX_NESTING};
use wdsparql::core::QueryError;
use wdsparql::project::ProjectError;
use wdsparql::rdf::{iri, tp, var, RdfGraph, Triple, TriplePattern};
use wdsparql::store::JoinStrategy;
use wdsparql::{Engine, ProjectedQuery, Query, TripleStore};

const DEEP: usize = 100_000;

/// The message the parsers refuse a too-deep text with.
fn too_deep_at(offset: usize) -> String {
    format!("parse error at byte {offset}: nesting deeper than {MAX_NESTING} levels")
}

/// The message the parsers refuse a too-deep pattern with.
fn too_many_operators_at(offset: usize) -> String {
    format!("parse error at byte {offset}: pattern deeper than {MAX_DEPTH} operators")
}

/// `n` operators in one group, chained left to right: `n` deep. `AND`
/// walks a path `(?v0, p, ?v1) AND (?v1, p, ?v2) AND …`; `OPT` and
/// `UNION` hang off one subject, `(?x, p, ?y0) OPT (?x, q, ?y1) OPT …`
/// (well-designed) and `(?x, p, ?y) UNION (?x, q, ?y) UNION …`.
fn flat_chain(op: &str, n: usize) -> String {
    let operand = |i: usize| match op {
        "AND" => format!("(?v{i}, p, ?v{})", i + 1),
        "OPT" if i == 0 => "(?x, p, ?y0)".to_string(),
        "OPT" => format!("(?x, q, ?y{i})"),
        _ if i == 0 => "(?x, p, ?y)".to_string(),
        _ => "(?x, q, ?y)".to_string(),
    };
    let mut text = operand(0);
    for i in 1..=n {
        text.push_str(&format!(" {op} {}", operand(i)));
    }
    text
}

/// The byte offset of the `n`-th (from 0) whole-word `word` in `text`.
fn nth_word(text: &str, word: &str, n: usize) -> usize {
    text.match_indices(&format!(" {word} "))
        .nth(n)
        .map(|(at, _)| at + 1)
        .expect("long enough")
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

/// A flat chain crosses the depth bound at its operator number
/// `MAX_DEPTH + 1`, in both syntaxes and for every operator: a chain of
/// 100 000 operands, refused on a test thread's default stack.
#[test]
fn a_hundred_thousand_operand_chains_are_refused_at_the_crossing_operator() {
    for op in ["AND", "OPT", "UNION"] {
        let text = flat_chain(op, DEEP);
        let want = too_many_operators_at(nth_word(&text, op, MAX_DEPTH));
        assert_eq!(
            Query::parse(&text).err(),
            Some(QueryError::Parse(want)),
            "{op}"
        );
    }
    // The curly syntax: triples joined by juxtaposition (refused at the
    // triple the implicit AND would join), OPTIONAL and UNION groups.
    let mut triples = String::from("{");
    let mut optionals = String::from("{ ?x p ?y0");
    let mut unions = String::from("{ { ?x p ?y }");
    for i in 0..DEEP {
        triples.push_str(&format!(" ?v{i} p ?v{} .", i + 1));
        optionals.push_str(&format!(" OPTIONAL {{ ?x q ?y{} }}", i + 1));
        unions.push_str(" UNION { ?x q ?y }");
    }
    for text in [&mut triples, &mut optionals, &mut unions] {
        text.push_str(" }");
    }
    let crossing = [
        (
            &triples,
            triples.find(&format!(" ?v{} p", MAX_DEPTH + 1)).unwrap() + 1,
        ),
        (&optionals, nth_word(&optionals, "OPTIONAL", MAX_DEPTH)),
        (&unions, nth_word(&unions, "UNION", MAX_DEPTH)),
    ];
    for (text, at) in crossing {
        match Query::parse(text) {
            Err(QueryError::Parse(m)) => assert_eq!(m, too_many_operators_at(at)),
            other => panic!("{:?}", other.map(|q| q.forest().len())),
        }
    }
}

/// Flat chains exactly `MAX_DEPTH` deep are accepted, one operator more is
/// not, and at the bound the pipeline fits the 8 MiB stack of a main
/// thread: parsed, translated, evaluated, printed and dropped. The `AND`
/// chain is one BGP of 2 049 patterns, planned in quadratic time — by the
/// pairwise planner, and by the leapfrog join's variable order on a store
/// forced to the WCOJ.
#[test]
fn flat_chains_at_the_depth_bound_run_on_a_main_thread_stack() {
    for op in ["AND", "OPT", "UNION"] {
        let over = flat_chain(op, MAX_DEPTH + 1);
        let at = nth_word(&over, op, MAX_DEPTH);
        assert_eq!(
            Query::parse(&over).err(),
            Some(QueryError::Parse(too_many_operators_at(at))),
            "{op}"
        );
    }
    std::thread::Builder::new()
        .stack_size(8 << 20)
        .spawn(|| {
            let g = RdfGraph::from_strs([("a0", "p", "a1"), ("a0", "q", "b"), ("b", "q", "a1")]);
            let engine = Engine::new(g);
            // Per operator: trees, nodes of the first, solutions.
            let n = MAX_DEPTH + 1;
            for (op, trees, nodes, want) in [("AND", 1, 1, 0), ("OPT", 1, n, 1), ("UNION", n, 1, 3)]
            {
                let q = Query::parse(&flat_chain(op, MAX_DEPTH)).expect("at the bound");
                let forest = &q.forest().trees;
                assert_eq!((forest.len(), forest[0].len()), (trees, nodes), "{op}");
                let mut printed = format!("{q}\n");
                let solutions = engine.evaluate(&q);
                assert_eq!(solutions.len(), want, "{op}");
                for mu in &solutions {
                    printed.push_str(&format!("{mu}\n"));
                }
                assert!(printed.len() > 12 * n, "{op}: every operand printed");
                drop(q);
            }
            let store = TripleStore::from_triples(
                [("a0", "p", "a1"), ("a0", "q", "b"), ("b", "q", "a1")]
                    .map(|(s, p, o)| Triple::from_strs(s, p, o)),
            );
            store.set_join_strategy(JoinStrategy::Wco);
            let chain: Vec<TriplePattern> = (0..n)
                .map(|i| tp(var(&format!("v{i}")), iri("p"), var(&format!("v{}", i + 1))))
                .collect();
            let planned = store.query_with_plan(&chain);
            assert_eq!(planned.strategy, JoinStrategy::Wco);
            assert!(planned.solutions.is_empty(), "AND on the WCOJ");
        })
        .expect("spawn")
        .join()
        .expect("the pipeline fits the stack");
}
