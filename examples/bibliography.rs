//! A bibliographic workload: papers with optional abstracts and awards,
//! citation chains, and a UNION of venue alternatives.
//!
//! Run with: `cargo run --example bibliography`

use wdsparql::workloads::bibliography;
use wdsparql::{Engine, Query};

fn main() {
    let graph = bibliography(150, 7);
    println!(
        "Bibliography: {} triples over {} IRIs.",
        graph.len(),
        graph.dom_size()
    );
    let engine = Engine::new(graph);

    // Q1: PODS papers with optional abstract and optional award.
    let q1 =
        Query::parse("(((?p, venue, PODS) OPT (?p, abstract, ?a)) OPT (?p, award, ?w))").unwrap();
    let sols1 = engine.evaluate(&q1);
    println!("\nQ1 {q1}");
    println!("   {} PODS papers; widths: {}", sols1.len(), {
        let r = q1.width_report();
        format!(
            "dw={}, bw={}, local={}",
            r.domination_width, r.branch_treewidth, r.local_width
        )
    });

    // Q2: citations into award-winning papers, optionally following one
    //     more citation hop — a chain-shaped OPT nesting (bw = 1).
    let q2 = Query::parse(
        "((?p, cites, ?q) AND (?q, award, BestPaper)) OPT ((?q, cites, ?r) OPT (?r, abstract, ?ra))",
    )
    .unwrap();
    let sols2 = engine.evaluate(&q2);
    println!("\nQ2 {q2}");
    println!("   {} solutions", sols2.len());
    println!("{}", q2.width_report());

    // Q3: venue alternatives via UNION (a 2-tree wdPF), each branch
    //     optionally enriched with the year.
    let q3 = Query::parse(
        "((?p, venue, PODS) OPT (?p, year, ?y)) UNION ((?p, venue, ICDT) OPT (?p, year, ?y))",
    )
    .unwrap();
    let sols3 = engine.evaluate(&q3);
    println!("\nQ3 {q3}");
    println!("   {} theory papers", sols3.len());

    // Cross-validate enumeration against the reference semantics on Q1.
    let reference =
        wdsparql::algebra::eval(q1.pattern(), engine.graph().expect("memory-backed engine"));
    assert_eq!(sols1, reference);
    println!("\nEnumeration matches the reference Pérez-et-al. semantics on Q1.");
}
