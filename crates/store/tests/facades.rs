//! One table over the query API: facade ∈ {`TripleStore`,
//! `ShardedStore::new(1)`, `ShardedStore::new(3)`} × strategy ∈
//! {`Pairwise`, `Wco`, `Auto`} × every entry point × the benchmark's
//! query shapes (star, paths, triangle, subject-routed). Both facades
//! delegate every entry point to one shared request path, so every cell
//! must agree — with an independent oracle (pairwise joins over the
//! plain `RdfGraph`), with the other cells, and with itself across
//! entry points.

use std::sync::Arc;
use std::time::Duration;
use wdsparql_rdf::term::{iri, var};
use wdsparql_rdf::{
    tp, CancelToken, ExecError, Mapping, QueryBudget, RdfGraph, Triple, TriplePattern,
};
use wdsparql_store::{
    eval_bgp_pairwise, CacheStats, JoinStrategy, PlannedQuery, ShardedStore, TripleStore,
};

/// The entry points the two services share by name (they share no
/// trait), so the table can iterate over both.
trait Facade {
    fn set_join_strategy(&self, strategy: JoinStrategy);
    fn epochs(&self) -> Vec<u64>;
    fn cache_stats(&self) -> CacheStats;
    fn query(&self, p: &[TriplePattern]) -> Arc<Vec<Mapping>>;
    fn solutions(&self, p: &TriplePattern) -> Arc<Vec<Mapping>>;
    fn query_with_plan(&self, p: &[TriplePattern]) -> PlannedQuery;
    fn query_with_profile(&self, p: &[TriplePattern]) -> PlannedQuery;
    fn query_budgeted(
        &self,
        p: &[TriplePattern],
        b: &QueryBudget,
    ) -> Result<Arc<Vec<Mapping>>, ExecError>;
    fn query_limited(
        &self,
        p: &[TriplePattern],
        k: usize,
        b: &QueryBudget,
    ) -> Result<Vec<Mapping>, ExecError>;
    fn solutions_limit(&self, p: &[TriplePattern], k: usize) -> Vec<Mapping>;
}

macro_rules! facade {
    ($t:ty, $epochs:expr) => {
        impl Facade for $t {
            fn set_join_strategy(&self, strategy: JoinStrategy) {
                <$t>::set_join_strategy(self, strategy)
            }
            fn epochs(&self) -> Vec<u64> {
                $epochs(self)
            }
            fn cache_stats(&self) -> CacheStats {
                <$t>::cache_stats(self)
            }
            fn query(&self, p: &[TriplePattern]) -> Arc<Vec<Mapping>> {
                <$t>::query(self, p)
            }
            fn solutions(&self, p: &TriplePattern) -> Arc<Vec<Mapping>> {
                <$t>::solutions(self, p)
            }
            fn query_with_plan(&self, p: &[TriplePattern]) -> PlannedQuery {
                <$t>::query_with_plan(self, p)
            }
            fn query_with_profile(&self, p: &[TriplePattern]) -> PlannedQuery {
                <$t>::query_with_profile(self, p)
            }
            fn query_budgeted(
                &self,
                p: &[TriplePattern],
                b: &QueryBudget,
            ) -> Result<Arc<Vec<Mapping>>, ExecError> {
                <$t>::query_budgeted(self, p, b)
            }
            fn query_limited(
                &self,
                p: &[TriplePattern],
                k: usize,
                b: &QueryBudget,
            ) -> Result<Vec<Mapping>, ExecError> {
                <$t>::query_limited(self, p, k, b)
            }
            fn solutions_limit(&self, p: &[TriplePattern], k: usize) -> Vec<Mapping> {
                <$t>::solutions_limit(self, p, k)
            }
        }
    };
}
facade!(TripleStore, |s: &TripleStore| vec![s.epoch()]);
facade!(ShardedStore, ShardedStore::epochs);

/// A small graph with a directed 3-cycle plus chords over `p` (so the
/// triangle has several answers), a `q` fringe for the paths and stars.
fn fixture() -> Vec<Triple> {
    [
        ("a", "p", "b"),
        ("b", "p", "c"),
        ("c", "p", "d"),
        ("d", "p", "a"),
        ("a", "p", "c"),
        ("b", "p", "d"),
        ("c", "p", "a"),
        ("b", "q", "x"),
        ("c", "q", "x"),
        ("d", "q", "y"),
        ("x", "q", "a"),
    ]
    .map(|(s, p, o)| Triple::from_strs(s, p, o))
    .to_vec()
}

/// The benchmark's `bgp_join` shapes, plus a fully subject-routed BGP
/// and a single pattern.
fn queries() -> Vec<(&'static str, Vec<TriplePattern>)> {
    let (x, y, z, w) = (var("x"), var("y"), var("z"), var("w"));
    vec![
        ("single", vec![tp(x, iri("p"), y)]),
        ("star2", vec![tp(x, iri("p"), y), tp(x, iri("q"), z)]),
        ("path2", vec![tp(x, iri("p"), y), tp(y, iri("q"), z)]),
        (
            "path3",
            vec![tp(x, iri("p"), y), tp(y, iri("p"), z), tp(z, iri("q"), w)],
        ),
        (
            "triangle",
            vec![tp(x, iri("p"), y), tp(y, iri("p"), z), tp(x, iri("p"), z)],
        ),
        (
            "routed",
            vec![tp(iri("b"), iri("p"), y), tp(iri("b"), iri("q"), z)],
        ),
    ]
}

fn sorted(rows: &[Mapping]) -> Vec<Mapping> {
    let mut v = rows.to_vec();
    v.sort();
    v
}

/// Every entry point of one facade under one strategy, on one query.
/// Returns what `query_with_plan` reported, for cross-facade checks.
fn check_cell(
    store: &dyn Facade,
    cell: &str,
    pats: &[TriplePattern],
    want: &[Mapping],
    plan: &[usize],
    configured: JoinStrategy,
) -> PlannedQuery {
    let full = store.query(pats);
    assert_eq!(sorted(&full), want, "{cell}: query");
    if let [pat] = pats {
        assert_eq!(*store.solutions(pat), *full, "{cell}: solutions");
    }

    // Planned and profiled: the same rows (the cached entry), the plan
    // `plan()` computes, the strategy actually resolved.
    let planned = store.query_with_plan(pats);
    assert_eq!(planned.solutions, full, "{cell}: query_with_plan rows");
    assert_eq!(planned.plan, plan, "{cell}: plan");
    assert!(planned.profile.is_none(), "{cell}: no profile unless asked");
    match configured {
        JoinStrategy::Auto => {
            let cyclic = wdsparql_store::bgp_is_cyclic(pats);
            let expect = if cyclic {
                JoinStrategy::Wco
            } else {
                JoinStrategy::Pairwise
            };
            assert_eq!(planned.strategy, expect, "{cell}: Auto follows GYO here");
        }
        forced => assert_eq!(planned.strategy, forced, "{cell}: forced strategy"),
    }
    let profiled = store.query_with_profile(pats);
    assert_eq!(profiled.solutions, full, "{cell}: query_with_profile rows");
    assert_eq!(
        (&profiled.plan, profiled.strategy, &profiled.read),
        (&planned.plan, planned.strategy, &planned.read),
        "{cell}: profiled ≡ planned"
    );
    let root = &profiled.profile.as_ref().expect("profile requested").root;
    assert_eq!(
        root.get("cache"),
        Some("hit"),
        "{cell}: third run is cached"
    );
    assert_eq!(
        root.get("rows").map(str::to_owned),
        Some(full.len().to_string()),
        "{cell}: profile row count"
    );

    // Budgeted: the same cache entry under an unlimited budget.
    let hits = store.cache_stats().hits;
    let budgeted = store.query_budgeted(pats, &QueryBudget::unlimited());
    assert_eq!(budgeted.as_ref(), Ok(&full), "{cell}: query_budgeted");
    assert_eq!(
        store.cache_stats().hits,
        hits + 1,
        "{cell}: budgeted shares the cache"
    );

    // Limited: the exact k-prefix of this facade's full run, for every
    // k, through neither side of the cache.
    let before = store.cache_stats();
    for k in 0..=full.len() + 1 {
        let cap = k.min(full.len());
        let prefix = store.query_limited(pats, k, &QueryBudget::unlimited());
        assert_eq!(
            prefix.as_deref(),
            Ok(&full[..cap]),
            "{cell}: query_limited({k})"
        );
        assert_eq!(
            store.solutions_limit(pats, k),
            full[..cap],
            "{cell}: solutions_limit({k})"
        );
    }
    assert_eq!(store.cache_stats(), before, "{cell}: prefixes are uncached");

    // A dead budget fails typed on every budgeted entry point, whatever
    // the cache holds.
    let dead = || QueryBudget::with_deadline(Duration::ZERO);
    assert_eq!(
        store.query_budgeted(pats, &dead()),
        Err(ExecError::DeadlineExceeded),
        "{cell}"
    );
    assert_eq!(
        store.query_limited(pats, 1, &dead()),
        Err(ExecError::DeadlineExceeded),
        "{cell}"
    );
    let token = CancelToken::new();
    token.cancel();
    assert_eq!(
        store.query_budgeted(pats, &QueryBudget::with_cancel(token)),
        Err(ExecError::Cancelled),
        "{cell}"
    );
    planned
}

#[test]
fn every_entry_point_agrees_across_facades_and_strategies() {
    let graph = RdfGraph::from_triples(fixture());
    let single = TripleStore::from_triples(fixture());
    let one = ShardedStore::from_triples(1, fixture());
    let three = ShardedStore::from_triples(3, fixture());
    for strategy in [
        JoinStrategy::Pairwise,
        JoinStrategy::Wco,
        JoinStrategy::Auto,
    ] {
        for (name, pats) in queries() {
            let want = sorted(&eval_bgp_pairwise(&graph, &pats));
            assert!(!want.is_empty(), "{name}: the fixture answers every shape");
            // Candidate counts are exact on every layout, so all three
            // facades must choose the single store's plan.
            let plan = single.plan(&pats);
            let mut cells: Vec<PlannedQuery> = Vec::new();
            let facades: [(&str, &dyn Facade); 3] =
                [("single", &single), ("1-shard", &one), ("3-shard", &three)];
            for (facade, store) in facades {
                store.set_join_strategy(strategy);
                let cell = format!("{facade}/{strategy}/{name}");
                let planned = check_cell(store, &cell, &pats, &want, &plan, strategy);
                // Read provenance: every shard at its current epoch,
                // except that a fully subject-routed BGP pins one.
                let epochs = store.epochs();
                let all: Vec<(usize, u64)> = epochs.iter().copied().enumerate().collect();
                if name == "routed" {
                    let shard = match epochs.len() {
                        1 => 0,
                        _ => three.shard_of(wdsparql_rdf::Iri::new("b")),
                    };
                    assert_eq!(planned.read, [(shard, epochs[shard])], "{cell}: routed");
                } else {
                    assert_eq!(planned.read, all, "{cell}: fan-out read");
                }
                cells.push(planned);
            }
            // One shard is the single store: same plan, strategy, rows
            // in the same order, provenance `[(0, epoch)]`.
            let (s, o) = (&cells[0], &cells[1]);
            assert_eq!(
                (&s.plan, s.strategy, &s.solutions, &s.read),
                (&o.plan, o.strategy, &o.solutions, &o.read),
                "{strategy}/{name}: TripleStore ≡ ShardedStore::new(1)"
            );
            assert_eq!(s.read, [(0, single.epoch())]);
        }
    }
}

/// A budgeted caller whose budget dies mid-computation, while it leads
/// the in-flight slot, must never take a plain `query` of the same BGP
/// down with it: the plain caller joined that slot at worst, and then
/// recomputes under its own (unlimited) budget. (A zero deadline never
/// gets that far — it dies at the entry checkpoint; the table above
/// covers it.) Each round waits until the budgeted caller's computation
/// is in flight — the miss counter ticks right before it starts — then
/// trips its token and queries. With the cache disabled every round
/// computes afresh.
fn doomed_leaders_never_fail_plain_queries(store: &(dyn Facade + Sync), want: usize) {
    let pats = &queries()[3].1; // path3: enough work to die mid-flight
    let mut died = 0;
    for _ in 0..50 {
        let token = CancelToken::new();
        let budget = QueryBudget::with_cancel(token.clone());
        let misses = store.cache_stats().misses;
        std::thread::scope(|s| {
            let doomed = s.spawn(|| store.query_budgeted(pats, &budget));
            while store.cache_stats().misses == misses {
                std::hint::spin_loop();
            }
            token.cancel();
            assert_eq!(store.query(pats).len(), want, "plain query: full answer");
            match doomed
                .join()
                .expect("budget failures are typed, not panics")
            {
                Ok(rows) => assert_eq!(rows.len(), want, "complete or nothing"),
                Err(e) => {
                    assert_eq!(e, ExecError::Cancelled);
                    died += 1;
                }
            }
        });
    }
    assert!(
        died > 0,
        "no leader ever died in flight: the race never ran"
    );
}

#[test]
fn plain_queries_survive_doomed_in_flight_leaders_on_both_facades() {
    let triples: Vec<Triple> = (0..200)
        .flat_map(|i| {
            let (s, o) = (format!("n{i}"), format!("n{}", (i * 7 + 1) % 200));
            [
                Triple::from_strs(&s, "p", &o),
                Triple::from_strs(&s, "p", &format!("n{}", (i + 3) % 200)),
                Triple::from_strs(&s, "q", &o),
            ]
        })
        .collect();
    let want = eval_bgp_pairwise(&RdfGraph::from_triples(triples.clone()), &queries()[3].1).len();
    assert!(want > 0);
    let single = TripleStore::with_cache_capacity(0);
    single.bulk_load(triples.clone());
    doomed_leaders_never_fail_plain_queries(&single, want);
    let sharded = ShardedStore::with_cache_capacity(3, 0);
    sharded.bulk_load(triples);
    doomed_leaders_never_fail_plain_queries(&sharded, want);
}
