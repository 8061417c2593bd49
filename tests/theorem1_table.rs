//! Theorem 1 end to end: on every instance family of `wdsparql-workloads`
//! and on the social-network query shapes the repo benchmark asks,
//! `Strategy::Auto` (domination width, then the pebble game) gives the
//! verdict of `Strategy::Naive` and of `Strategy::Reference`, on every
//! backend; and with fewer pebbles than the width asks for, the pebble
//! algorithm may reject a member but never accepts a non-member.

use std::sync::Arc;
use wdsparql::rdf::{Iri, Mapping, RdfGraph};
use wdsparql::store::{ShardedStore, TripleStore};
use wdsparql::tree::ROOT;
use wdsparql::workloads::{
    clique_instance, fk_instance, fk_instance_negative, path_instance, social_network,
    tprime_instance, Instance,
};
use wdsparql::{Engine, Query, Strategy};

fn engines(g: &RdfGraph) -> [(&'static str, Engine); 3] {
    [
        ("RdfGraph", Engine::new(g.clone())),
        (
            "TripleStore",
            Engine::from_store(Arc::new(TripleStore::from_rdf(g))),
        ),
        (
            "ShardedStore",
            Engine::from_sharded_store(Arc::new(ShardedStore::from_rdf(3, g))),
        ),
    ]
}

/// One row of the table: a query, a graph, and mappings to ask about —
/// the first with its known verdict, if the family states one.
struct Row {
    label: String,
    query: Query,
    graph: RdfGraph,
    mus: Vec<Mapping>,
    expected: Option<bool>,
}

/// The family's own µ, µ with one variable sent elsewhere, and µ = ∅.
fn instance_row(inst: Instance) -> Row {
    let mut moved = inst.mu.clone();
    if let Some(v) = inst.mu.domain().next() {
        moved.bind(v, Iri::new("t1"));
    }
    Row {
        label: inst.label,
        query: Query::from_forest(inst.forest),
        mus: vec![inst.mu, moved, Mapping::new()],
        graph: inst.graph,
        expected: Some(inst.expected),
    }
}

/// The two shapes of the benchmark's `membership` workload, anchored at
/// `person`: µ a solution, its restriction to the root, and the solution
/// with one variable sent to another person.
fn social_rows(graph: &RdfGraph, person: usize) -> Vec<Row> {
    let texts = [
        format!("((person{person}, knows, ?y) OPT (?y, email, ?e)) OPT (?y, city, ?c)"),
        format!(
            "((person{person}, knows, ?y) AND (?y, knows, ?z)) \
             OPT ((?z, wrote, ?w) OPT (?w, topic, ?t))"
        ),
    ];
    let engine = Engine::new(graph.clone());
    let mut rows = Vec::new();
    for text in texts {
        let query = Query::parse(&text).expect("the shapes are well-designed");
        let mut mus = Vec::new();
        for sol in engine.evaluate(&query).into_iter().take(3) {
            mus.push(sol.restrict(query.forest().trees[0].vars(ROOT)));
            let mut moved = sol.clone();
            let v = sol.domain().last().expect("solutions bind the root");
            moved.bind(v, Iri::new(&format!("person{}", person + 1)));
            mus.push(moved);
            mus.push(sol);
        }
        rows.push(Row {
            label: text,
            query,
            graph: graph.clone(),
            mus,
            expected: None,
        });
    }
    rows
}

fn table() -> Vec<Row> {
    let mut rows = Vec::new();
    for k in 3..=5 {
        // Small graphs: the reference semantics joins the whole clique.
        rows.push(instance_row(fk_instance(k, k)));
        rows.push(instance_row(fk_instance_negative(k, k)));
    }
    rows.push(instance_row(clique_instance(3, 6)));
    rows.push(instance_row(clique_instance(4, 6)));
    rows.push(instance_row(path_instance(3, 2)));
    rows.push(instance_row(tprime_instance(3, 6)));
    rows.push(instance_row(tprime_instance(4, 6)));
    let social = social_network(40, 7);
    for person in [0, 3, 11] {
        rows.extend(social_rows(&social, person));
    }
    rows
}

#[test]
fn auto_naive_and_reference_agree_on_every_family_and_backend() {
    let mut members = 0;
    let mut asked = 0;
    for row in table() {
        for (backend, engine) in engines(&row.graph) {
            for (i, mu) in row.mus.iter().enumerate() {
                let naive = engine.check(&row.query, mu, Strategy::Naive);
                let context = format!("{} on {backend}, µ = {mu}", row.label);
                assert_eq!(
                    engine.check(&row.query, mu, Strategy::Auto),
                    naive,
                    "Auto ≠ Naive: {context}"
                );
                assert_eq!(
                    engine.check(&row.query, mu, Strategy::Reference),
                    naive,
                    "Reference ≠ Naive: {context}"
                );
                if let (0, Some(expected)) = (i, row.expected) {
                    assert_eq!(naive, expected, "the family's own verdict: {context}");
                }
                members += naive as usize;
                asked += 1;
            }
        }
    }
    assert!(
        members > asked / 5 && members < asked * 4 / 5,
        "a one-sided table proves little"
    );
}

#[test]
fn below_the_width_the_pebble_algorithm_stays_sound() {
    let mut below = 0;
    for row in table() {
        let dw = row.query.domination_width();
        for (backend, engine) in engines(&row.graph) {
            for mu in &row.mus {
                let member = engine.check(&row.query, mu, Strategy::Naive);
                // k = 0 is played as k = 1, so it is exact when dw = 1.
                for k in 0..dw.max(1) {
                    let accepted = engine.check(&row.query, mu, Strategy::Pebble { k });
                    assert!(
                        member || !accepted,
                        "Pebble {{ k: {k} }} accepted a non-member: {} on {backend}, µ = {mu}",
                        row.label
                    );
                    below += (k < dw) as usize;
                }
            }
        }
    }
    assert!(below > 0);
}

#[test]
fn pebble_k_zero_plays_with_two_pebbles_on_every_backend() {
    // µ's subtree has children here, so a game is played: with `k + 1 = 1`
    // pebble this used to trip the game's `k ≥ 2` precondition.
    let row = instance_row(fk_instance(3, 6));
    assert_eq!(row.query.domination_width(), 1);
    for (backend, engine) in engines(&row.graph) {
        for mu in &row.mus {
            assert_eq!(
                engine.check(&row.query, mu, Strategy::Pebble { k: 0 }),
                engine.check(&row.query, mu, Strategy::Pebble { k: 1 }),
                "{backend}, µ = {mu}"
            );
        }
    }
}
