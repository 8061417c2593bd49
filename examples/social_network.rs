//! A social-network workload: OPTIONAL-heavy queries over partial profile
//! data — the scenario that motivates well-designed SPARQL in the first
//! place (return what is known, never drop a person for missing data).
//!
//! Run with: `cargo run --example social_network`

use wdsparql::workloads::social_network;
use wdsparql::{Engine, Query, Strategy};

fn main() {
    let graph = social_network(120, 42);
    println!(
        "Social network: {} triples over {} distinct IRIs.",
        graph.len(),
        graph.dom_size()
    );
    let engine = Engine::new(graph);

    // Q1: every person, optionally their email, optionally their city.
    let q1 = Query::parse("(((?p, type, Person) OPT (?p, email, ?e)) OPT (?p, city, ?c))").unwrap();
    let sols = engine.evaluate(&q1);
    let with_email = sols.iter().filter(|m| m.len() >= 2).count();
    println!("\nQ1 {q1}");
    println!(
        "   {} solutions, {} enriched with optional data",
        sols.len(),
        with_email
    );
    let r1 = q1.width_report();
    println!(
        "   dw = {}, bw = {} (tractable)",
        r1.domination_width, r1.branch_treewidth
    );

    // Q2: friendships with optional topic overlap of what they write —
    //     a nested OPT whose inner branch only extends the outer one.
    let q2 =
        Query::parse("((?a, knows, ?b) OPT ((?b, wrote, ?post) OPT (?post, topic, ?t)))").unwrap();
    let sols2 = engine.evaluate(&q2);
    println!("\nQ2 {q2}");
    println!("   {} solutions", sols2.len());
    println!("{}", q2.width_report());

    // Q3: a UNION of alternatives — contact via email or via city
    //     (union of two well-designed branches, a wdPF with 2 trees).
    let q3 = Query::parse(
        "((?p, knows, ?q) OPT (?q, email, ?e)) UNION ((?p, knows, ?q) OPT (?q, city, ?c))",
    )
    .unwrap();
    let sols3 = engine.evaluate(&q3);
    println!("\nQ3 {q3}");
    println!(
        "   {} solutions across {} trees",
        sols3.len(),
        q3.forest().len()
    );

    // Spot-check the Theorem 1 evaluator against the naive one on every
    // solution of Q2 and on mutated non-solutions.
    let mut checked = 0;
    for mu in sols2.iter().take(50) {
        assert!(engine.check(&q2, mu, Strategy::Naive));
        assert!(engine.check(&q2, mu, Strategy::Pebble { k: 1 }));
        checked += 1;
    }
    println!("\nVerified {checked} memberships with both the naive and the pebble evaluator.");
}
