//! The data subcommands against the in-memory engine: `eval`, `count`,
//! `select` and `check` load their file into the triple store, and what
//! they print must be the text built here from `Engine::new` over an
//! `RdfGraph` of the same triples — the naive hash index as the oracle.
//!
//! Solutions print in id order, and ids are handed out in first-seen
//! order by one process-wide vocabulary. This file is a process of its
//! own, with one test, so the order here is the binary's: the generator
//! interns every IRI in the order its triples are written out, and the
//! variables are interned up front in the order every query first names
//! them.

use std::fmt::Write as _;
use std::process::Command;
use wdsparql_core::Strategy;
use wdsparql_core::{count_solutions_by_domain, enumerate_with_stats, Engine, Query, Route};
use wdsparql_project::{enumerate_projected, ProjectedQuery};
use wdsparql_rdf::{Iri, Mapping, RdfGraph, Variable};

/// Every variable the queries use, in the order each query first names
/// its own.
const VARIABLES: [&str; 6] = ["p", "q", "e", "c", "post", "t"];

/// AND, OPT, nested OPT, UNION and a curly query with a FILTER.
const QUERIES: [&str; 5] = [
    "(?p, knows, ?q) AND (?q, city, ?c)",
    "(?p, type, Person) OPT (?p, email, ?e)",
    "(?p, knows, ?q) OPT ((?q, wrote, ?post) OPT (?post, topic, ?t))",
    "((?p, email, ?e) OPT (?p, city, ?c)) UNION (?p, wrote, ?post)",
    "{ ?p type Person OPTIONAL { ?p email ?e } OPTIONAL { ?p city ?c } FILTER(BOUND(?c)) }",
];

const SELECT: &str = "SELECT ?p ?q WHERE { ?p knows ?q OPTIONAL { ?q city ?c } }";

fn wdsparql(args: &[&str]) -> String {
    let out = Command::new(env!("CARGO_BIN_EXE_wdsparql"))
        .args(args)
        .output()
        .expect("failed to spawn the wdsparql binary");
    let stderr = String::from_utf8_lossy(&out.stderr);
    assert!(out.status.success(), "{args:?}: {stderr}");
    assert_eq!(stderr, "", "{args:?}");
    String::from_utf8(out.stdout).expect("stdout is UTF-8")
}

/// `graph` as N-Triples, in insertion order, then every seventh
/// statement again.
fn write_nt(name: &str, graph: &RdfGraph) -> std::path::PathBuf {
    let line = |t: &wdsparql_rdf::Triple| format!("<{}> <{}> <{}> .\n", t.s, t.p, t.o);
    let mut text: String = graph.iter().map(line).collect();
    text.extend(graph.iter().step_by(7).map(line));
    let path = std::env::temp_dir().join(format!("wdsparql_diff_{}_{name}.nt", std::process::id()));
    std::fs::write(&path, text).expect("write the data file");
    path
}

fn rows(out: &mut String, sols: &std::collections::BTreeSet<Mapping>) {
    sols.iter().for_each(|mu| writeln!(out, "  {mu}").unwrap());
}

/// `count`'s lines over the oracle.
fn count_text(graph: &RdfGraph, query: &Query) -> String {
    let (sols, stats) = enumerate_with_stats(query.forest(), graph);
    let mut out = format!("{} solution(s)\n", sols.len());
    for (domain, count) in count_solutions_by_domain(&sols) {
        let names: Vec<String> = domain.iter().map(|v| v.to_string()).collect();
        writeln!(out, "  {{{}}}: {count}", names.join(", ")).unwrap();
    }
    writeln!(
        out,
        "(work: {} hom calls, {} steps, max delay {} steps)",
        stats.hom_calls, stats.steps, stats.max_delay_steps
    )
    .unwrap();
    out
}

fn check_text(engine: &Engine, query: &Query, mu: &Mapping) -> String {
    let naive = engine.check(query, mu, Strategy::Naive);
    let dw = query.domination_width();
    let pebble = engine.check(query, mu, Strategy::Pebble { k: dw });
    let (auto, route) = engine.check_auto(query, mu);
    assert_eq!((naive, naive), (pebble, auto), "{query} at {mu}");
    let via = match route {
        Route::Exact => "exact".to_string(),
        Route::Pebble { k } => format!("pebble k = {k}"),
    };
    format!(
        "µ = {mu}\nnaive (Lemma 1, exact homomorphisms): {naive}\n\
         pebble (Theorem 1, k = dw = {dw}):      {pebble}\n\
         auto (exact under a step budget, else pebble at dw): {auto} via {via}\n"
    )
}

/// `x=a,y=b` for the `check` command line.
fn bindings(mu: &Mapping) -> String {
    let pairs: Vec<String> = mu
        .iter()
        .map(|(v, a)| format!("{}={a}", v.name()))
        .collect();
    pairs.join(",")
}

/// Runs every data subcommand on `path` and holds its stdout to the text
/// the oracle engine over `graph` gives.
fn agree(path: &std::path::Path, graph: RdfGraph) -> usize {
    let path = path.to_str().unwrap();
    let engine = Engine::new(graph);
    let graph = engine.graph().expect("an in-memory engine");
    let mut solutions = 0;
    for text in QUERIES {
        let (query, sols) = if text.starts_with('{') {
            let (query, filter) = Query::parse_with_filter(text).unwrap();
            let sols = engine.evaluate_filtered(&query, &filter);
            (query, sols)
        } else {
            let query = Query::parse(text).unwrap();
            let sols = engine.evaluate(&query);
            (query, sols)
        };
        solutions += sols.len();
        let mut want = format!("{} solution(s):\n", sols.len());
        rows(&mut want, &sols);
        assert_eq!(wdsparql(&["eval", path, text]), want, "eval {text}");
        // `count` and `check` take no FILTER.
        if text.starts_with('{') {
            continue;
        }
        assert_eq!(
            wdsparql(&["count", path, text]),
            count_text(graph, &query),
            "count {text}"
        );
        // A solution, a strict restriction of one, and a non-solution.
        let mut cases: Vec<Mapping> = Vec::new();
        if let Some(mu) = sols.iter().find(|mu| mu.len() > 1) {
            let mut less = Mapping::new();
            mu.iter().skip(1).for_each(|(v, a)| less.bind(v, a));
            cases.extend([mu.clone(), less]);
        }
        let mut none = Mapping::new();
        none.bind(Variable::new("p"), Iri::new("nobody"));
        cases.push(none);
        for mu in cases {
            let got = wdsparql(&["check", path, text, &bindings(&mu)]);
            assert_eq!(
                got,
                check_text(&engine, &query, &mu),
                "check {text} at {mu}"
            );
        }
    }
    let select = ProjectedQuery::parse(SELECT).unwrap();
    let sols = enumerate_projected(&select, graph);
    let mut want = format!("query: {select}\n{} projected solution(s):\n", sols.len());
    rows(&mut want, &sols);
    assert_eq!(wdsparql(&["select", path, SELECT]), want, "select");
    solutions + sols.len()
}

#[test]
fn data_subcommands_print_what_the_memory_engine_answers() {
    for v in VARIABLES {
        Variable::new(v);
    }
    let social = wdsparql_workloads::social_network(300, 42);
    let path = write_nt("social", &social);
    assert!(agree(&path, social) > 1_000, "the queries have answers");
    let empty = write_nt("empty", &RdfGraph::new());
    assert_eq!(agree(&empty, RdfGraph::new()), 0);
    let _ = std::fs::remove_file(&path);
    let _ = std::fs::remove_file(&empty);
}
