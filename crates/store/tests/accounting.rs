//! Every BGP request is accounted exactly once, whichever entry point
//! served it. The metrics registry is process-wide, so this test lives
//! alone in its binary: nothing else in the process issues queries, and
//! the deltas below are exact rather than lower bounds.

use std::time::Duration;
use wdsparql_rdf::term::{iri, var};
use wdsparql_rdf::{tp, QueryBudget, Triple};
use wdsparql_store::obs::registry;
use wdsparql_store::{ShardedStore, TripleStore};

#[test]
fn every_request_is_counted_once_on_both_facades() {
    let triples: Vec<Triple> = [
        ("a", "p", "b"),
        ("b", "p", "c"),
        ("a", "p", "c"),
        ("b", "q", "x"),
    ]
    .map(|(s, p, o)| Triple::from_strs(s, p, o))
    .to_vec();
    let single = TripleStore::new();
    single.bulk_load(triples.clone());
    let sharded = ShardedStore::new(3);
    sharded.bulk_load(triples);
    let triangle = [
        tp(var("x"), iri("p"), var("y")),
        tp(var("y"), iri("p"), var("z")),
        tp(var("x"), iri("p"), var("z")),
    ];
    let unlimited = QueryBudget::unlimited();
    let dead = || QueryBudget::with_deadline(Duration::ZERO);
    let r = registry();
    let before = (
        r.queries_total.get(),
        r.queries_wco.get() + r.queries_pairwise.get(),
        r.query_ns.capture().count(),
        r.plan_ns.capture().count(),
        r.rows_streamed.capture().count(),
        r.deadline_exceeded.get(),
    );

    // Per facade: 7 requests that succeed, each resolving a strategy
    // (only the planned/profiled pair times its planning) — and 2 that
    // fail their budget at the entry checkpoint, resolving none.
    macro_rules! drive {
        ($store:expr) => {{
            assert_eq!($store.query(&triangle).len(), 1);
            assert_eq!($store.solutions(&triangle[0]).len(), 3);
            assert_eq!($store.query_with_plan(&triangle).solutions.len(), 1);
            assert_eq!($store.query_with_profile(&triangle).solutions.len(), 1);
            assert_eq!(
                $store.query_budgeted(&triangle, &unlimited).unwrap().len(),
                1
            );
            assert_eq!(
                $store
                    .query_limited(&triangle, 1, &unlimited)
                    .unwrap()
                    .len(),
                1
            );
            assert_eq!(
                $store
                    .query_limited(&triangle, 1, &unlimited)
                    .unwrap()
                    .len(),
                1
            );
            assert!($store.query_budgeted(&triangle, &dead()).is_err());
            assert!($store.query_limited(&triangle, 1, &dead()).is_err());
        }};
    }
    drive!(single);
    drive!(sharded);

    let after = (
        r.queries_total.get(),
        r.queries_wco.get() + r.queries_pairwise.get(),
        r.query_ns.capture().count(),
        r.plan_ns.capture().count(),
        r.rows_streamed.capture().count(),
        r.deadline_exceeded.get(),
    );
    assert_eq!(
        after.0 - before.0,
        18,
        "store.queries_total: one per request"
    );
    assert_eq!(
        after.1 - before.1,
        14,
        "strategy counters: only when resolved"
    );
    assert_eq!(
        after.2 - before.2,
        18,
        "query.total_ns: one sample per request"
    );
    assert_eq!(
        after.3 - before.3,
        4,
        "query.plan_ns: when the plan is part of the answer"
    );
    assert_eq!(after.4 - before.4, 14, "query.rows_streamed: per success");
    assert_eq!(after.5 - before.5, 4, "store.deadline_exceeded_total");
}
