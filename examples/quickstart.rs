//! Quickstart: load data, parse a well-designed query, analyse its widths,
//! evaluate it, and verify a membership with every strategy.
//!
//! Run with: `cargo run --example quickstart`

use wdsparql::rdf::{parse_ntriples, Mapping};
use wdsparql::{Engine, Query, Strategy};

fn main() {
    // 1. An RDF graph, as N-Triples-style text.
    let data = "\
        alice knows bob .\n\
        alice knows carol .\n\
        bob   email bob@example.org .\n\
        bob   city  berlin .\n\
        carol city  paris .\n\
        dave  knows alice .\n";
    let graph = parse_ntriples(data).expect("well-formed data");
    println!("Loaded {} triples.", graph.len());

    // 2. A well-designed pattern: who does ?x know, optionally with the
    //    acquaintance's email, and optionally *their* city too.
    let query = Query::parse("((?x, knows, ?y) OPT (?y, email, ?e)) OPT (?y, city, ?c)")
        .expect("well-designed query");
    println!("\nQuery: {query}");
    println!("\nPattern forest:\n{}", query.forest());

    // 3. Width analysis: this class is on the tractable side of the
    //    frontier (Theorem 3: bounded domination width ⟺ PTIME).
    let engine = Engine::new(graph);
    let report = query.width_report();
    println!("{report}\n");
    assert_eq!(report.domination_width, 1);

    // 4. Full evaluation.
    let solutions = engine.evaluate(&query);
    println!("Solutions ({}):", solutions.len());
    for mu in &solutions {
        println!("  {mu}");
    }

    // 5. Membership checks, four ways.
    let member = Mapping::from_strs([
        ("x", "alice"),
        ("y", "bob"),
        ("e", "bob@example.org"),
        ("c", "berlin"),
    ]);
    let not_member = Mapping::from_strs([("x", "alice"), ("y", "bob")]); // not maximal
    for strategy in [
        Strategy::Reference,
        Strategy::Naive,
        Strategy::Pebble { k: 1 },
        Strategy::Auto,
    ] {
        assert!(engine.check(&query, &member, strategy));
        assert!(!engine.check(&query, &not_member, strategy));
    }
    println!("\nAll four strategies agree: µ ∈ ⟦P⟧_G for the maximal mapping,");
    println!("and the bare (alice, bob) mapping is correctly rejected");
    println!("(its OPT extensions exist, so it is not maximal).");
}
