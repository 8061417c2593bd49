//! Property tests for the streaming execution core: the pull-based
//! solution streams behind `query_limited`/`query_budgeted` must be
//! indistinguishable from the materialised path — on random BGPs
//! (cyclic cores, repeated variables, ground and absent-constant
//! patterns), random LIMIT prefixes, every `JoinStrategy` and both
//! store facades — and a budget that is already dead must always
//! surface as a typed error, never a panic or a partial answer. All
//! properties replay under `PROPTEST_SEED=<u64>`.

use proptest::prelude::*;
use std::sync::atomic::{AtomicU32, Ordering};
use std::time::Duration;
use wdsparql_obs::Span;
use wdsparql_rdf::{
    tp, CancelToken, ExecError, Mapping, QueryBudget, RdfGraph, Triple, TriplePattern,
};
use wdsparql_store::{JoinStrategy, ShardedStore, TripleStore};

/// Up to 128 triples: a dense `sp0` block over twelve nodes beside three
/// sparse blocks over six, so that a pairwise seed on a sparse pattern
/// meets a dense second pattern (the semi-join prune is skipped) about
/// as often as two patterns of like size (it runs).
fn arb_graph() -> impl Strategy<Value = RdfGraph> {
    proptest::collection::vec((0..12usize, 0..16usize, 0..12usize), 0..128).prop_map(|ts| {
        RdfGraph::from_triples(ts.into_iter().map(|(s, p, o)| {
            let (s, p, o) = match p {
                0..=12 => (s, 0, o),
                _ => (s % 6, p - 12, o % 6),
            };
            Triple::from_strs(&format!("sn{s}"), &format!("sp{p}"), &format!("sn{o}"))
        }))
    })
}

const CASES: u32 = 64;

/// Cases run so far, and those whose pairwise seed skipped its semi-join
/// prune (on seed rows, or on no rows at all) or ran it.
static CASES_RUN: AtomicU32 = AtomicU32::new(0);
static SKIPPED_LIVE: AtomicU32 = AtomicU32::new(0);
static SKIPPED_EMPTY: AtomicU32 = AtomicU32::new(0);
static RAN: AtomicU32 = AtomicU32::new(0);

/// Counts which side of the seed-prune rule a pairwise profile shows.
fn count_seed_prune(root: &Span) {
    let Some(execute) = root.children().iter().find(|s| s.name() == "execute") else {
        return;
    };
    let Some(scan) = execute.children().first() else {
        return;
    };
    let counter = match (scan.get("prune"), scan.get("rows")) {
        (Some("skipped"), Some("0")) => &SKIPPED_EMPTY,
        (Some("skipped"), _) => &SKIPPED_LIVE,
        (Some(_), _) => &RAN,
        (None, _) => return,
    };
    counter.fetch_add(1, Ordering::Relaxed);
}

/// A maybe-absent constant, an absent one, or one of three variables —
/// repeats close cycles (triangles over `a`/`b`/`c`) and exercise
/// repeated-variable constraints.
fn join_term_of(choice: usize, prefix: &str) -> wdsparql_rdf::Term {
    use wdsparql_rdf::{iri, var};
    match choice {
        0..=5 => iri(&format!("{prefix}{choice}")),
        6 => iri("absent-term"),
        _ => [var("a"), var("b"), var("c")][choice % 3],
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(CASES))]

    /// The streamed k-prefix equals the materialised result's first k
    /// rows exactly (so sizes are exact and the prefix is a subset),
    /// an unlimited budgeted query reproduces the materialised answer,
    /// and a dead budget — zero deadline or tripped cancellation
    /// token, fresh per query — fails typed. Across all three join
    /// strategies, every shard layout, both store facades. The cases
    /// reach both sides of the seed-prune rule: the last one checks that
    /// some pairwise seed skipped the prune and some ran it.
    #[test]
    fn streaming_matches_materialized(
        g in arb_graph(),
        // Subjects and objects are variables more often than not;
        // predicates are `sp0`–`sp3` (all present) when constant.
        raw in proptest::collection::vec((0..16usize, 0..10usize, 0..16usize), 1..5),
        shards in 1..4usize,
        k in 0..12usize,
    ) {
        let pats: Vec<TriplePattern> = raw
            .into_iter()
            .map(|(s, p, o)| {
                let p = if p <= 5 { p % 4 } else { p };
                tp(join_term_of(s, "sn"), join_term_of(p, "sp"), join_term_of(o, "sn"))
            })
            .collect();
        let single = TripleStore::from_triples(g.iter().copied());
        let sharded = ShardedStore::from_triples(shards, g.iter().copied());
        single.set_join_strategy(JoinStrategy::Pairwise);
        let profiled = single.query_with_profile(&pats).profile.expect("profiled");
        count_seed_prune(&profiled.root);
        for strategy in [JoinStrategy::Pairwise, JoinStrategy::Wco, JoinStrategy::Auto] {
            single.set_join_strategy(strategy);
            sharded.set_join_strategy(strategy);

            let full: Vec<Mapping> = single.query(&pats).as_ref().clone();
            let sharded_full: Vec<Mapping> = sharded.query(&pats).as_ref().clone();

            // Exact prefix: first-k streamed rows are the materialised
            // result's first k rows, in order.
            let prefix = single
                .query_limited(&pats, k, &QueryBudget::unlimited())
                .expect("unlimited");
            prop_assert_eq!(prefix.len(), k.min(full.len()), "{} single prefix size", strategy);
            prop_assert_eq!(
                &prefix[..],
                &full[..prefix.len()],
                "{} single prefix content on {:?}",
                strategy,
                &pats
            );
            let sprefix = sharded
                .query_limited(&pats, k, &QueryBudget::unlimited())
                .expect("unlimited");
            prop_assert_eq!(
                sprefix.len(),
                k.min(sharded_full.len()),
                "{} sharded prefix size",
                strategy
            );
            prop_assert_eq!(
                &sprefix[..],
                &sharded_full[..sprefix.len()],
                "{} sharded prefix content on {:?}",
                strategy,
                &pats
            );

            // An unlimited budget changes nothing.
            let budgeted = single
                .query_budgeted(&pats, &QueryBudget::unlimited())
                .expect("unlimited");
            prop_assert_eq!(budgeted.as_ref(), &full);
            let sbudgeted = sharded
                .query_budgeted(&pats, &QueryBudget::unlimited())
                .expect("unlimited");
            prop_assert_eq!(sbudgeted.as_ref(), &sharded_full);

            // A dead budget always fails typed — fresh budget per query
            // (the first checkpoint is the one guaranteed clock check),
            // limited or not.
            prop_assert_eq!(
                single.query_budgeted(&pats, &QueryBudget::with_deadline(Duration::ZERO)),
                Err(ExecError::DeadlineExceeded)
            );
            prop_assert_eq!(
                single.query_limited(&pats, k, &QueryBudget::with_deadline(Duration::ZERO)),
                Err(ExecError::DeadlineExceeded)
            );
            prop_assert_eq!(
                sharded.query_budgeted(&pats, &QueryBudget::with_deadline(Duration::ZERO)),
                Err(ExecError::DeadlineExceeded)
            );
            prop_assert_eq!(
                sharded.query_limited(&pats, k, &QueryBudget::with_deadline(Duration::ZERO)),
                Err(ExecError::DeadlineExceeded)
            );
            let token = CancelToken::new();
            token.cancel();
            prop_assert_eq!(
                single.query_budgeted(&pats, &QueryBudget::unlimited().and_cancel(token.clone())),
                Err(ExecError::Cancelled)
            );
            prop_assert_eq!(
                sharded.query_limited(&pats, k, &QueryBudget::unlimited().and_cancel(token)),
                Err(ExecError::Cancelled)
            );
        }
        if CASES_RUN.fetch_add(1, Ordering::Relaxed) + 1 == CASES {
            let live = SKIPPED_LIVE.load(Ordering::Relaxed);
            let empty = SKIPPED_EMPTY.load(Ordering::Relaxed);
            let ran = RAN.load(Ordering::Relaxed);
            eprintln!(
                "seed prune over {CASES} cases: skipped in {live} (+{empty} on an empty seed), ran in {ran}"
            );
            prop_assert!(live + empty > 0 && ran > 0, "skipped {} + {} / ran {}", live, empty, ran);
        }
    }
}
