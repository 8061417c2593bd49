//! Property tests for the store: full access-pattern equivalence between [`EncodedGraph`]'s sorted
//! permutation ranges and [`RdfGraph`]'s hash indexes — with delta
//! segments pending, absent, and interleaved with compaction — and
//! service-level queries racing compaction. All properties replay under
//! `PROPTEST_SEED=<u64>` (reported on failure by the vendored
//! proptest).

use proptest::prelude::*;
use wdsparql_rdf::{
    tp, Iri, Mapping, QueryBudget, RdfGraph, RowTable, SolutionStream, Term, Triple, TripleIndex,
    TriplePattern,
};
use wdsparql_store::{
    eval_bgp_pairwise, eval_bgp_wco, eval_bgp_with_strategy, join_keyed, open_bgp_stream,
    EncodedGraph, JoinStrategy, JoinStream, PairwisePlan, ShardedStore, TripleStore,
};

fn arb_graph() -> impl Strategy<Value = RdfGraph> {
    proptest::collection::vec((0..6usize, 0..3usize, 0..6usize), 0..20).prop_map(|ts| {
        RdfGraph::from_triples(ts.into_iter().map(|(s, p, o)| {
            Triple::from_strs(&format!("sn{s}"), &format!("sp{p}"), &format!("sn{o}"))
        }))
    })
}

/// One of the nine interesting term choices per position: a present
/// constant, a maybe-absent constant, or one of two variables (repeats
/// exercise the repeated-variable constraints).
fn term_of(choice: usize, prefix: &str) -> wdsparql_rdf::Term {
    use wdsparql_rdf::{iri, var};
    match choice {
        0..=5 => iri(&format!("{prefix}{choice}")),
        6 => iri("absent-term"),
        7 => var("a"),
        _ => var("b"),
    }
}

/// As [`term_of`] with a third variable, so multi-pattern BGPs can close
/// cycles (triangles over `a`/`b`/`c`) as well as chain and star.
fn join_term_of(choice: usize, prefix: &str) -> wdsparql_rdf::Term {
    use wdsparql_rdf::var;
    match choice {
        0..=6 => term_of(choice, prefix),
        7 => var("a"),
        8 => var("b"),
        _ => var("c"),
    }
}

/// `name` as an [`Iri`] interned after 100 000 unrelated names, so its
/// id sits far above every name the generated graphs use.
fn late(name: &str) -> Iri {
    static PADDING: std::sync::Once = std::sync::Once::new();
    PADDING.call_once(|| {
        for i in 0..100_000 {
            Iri::new(&format!("id-window-padding-{i}"));
        }
    });
    Iri::new(&format!("late/{name}"))
}

/// The id layouts a store is checked under: names as given (small ids),
/// every name late (a narrow id window far above zero), and names ending
/// in an odd byte late (one wide window over both).
#[derive(Clone, Copy, Debug)]
enum Ids {
    Early,
    Late,
    Mixed,
}

impl Ids {
    const ALL: [Ids; 3] = [Ids::Early, Ids::Late, Ids::Mixed];

    fn iri(self, i: Iri) -> Iri {
        let odd = i.as_str().bytes().last().is_some_and(|b| b % 2 == 1);
        match self {
            Ids::Late => late(i.as_str()),
            Ids::Mixed if odd => late(i.as_str()),
            Ids::Early | Ids::Mixed => i,
        }
    }

    fn triple(self, t: &Triple) -> Triple {
        let [s, p, o] = t.terms().map(|i| self.iri(i));
        Triple::new(s, p, o)
    }

    fn pattern(self, pat: &TriplePattern) -> TriplePattern {
        let [s, p, o] = pat.positions().map(|t| match t {
            Term::Iri(i) => Term::Iri(self.iri(i)),
            v => v,
        });
        tp(s, p, o)
    }
}

/// The reference BGP semantics: fold nested-loop joins of the
/// per-pattern solution sets over the hash-indexed graph, dedup.
fn reference_bgp(g: &RdfGraph, pats: &[TriplePattern]) -> Vec<Mapping> {
    let mut acc = vec![Mapping::new()];
    for pat in pats {
        let sols = g.solutions(pat);
        let mut next = Vec::new();
        for a in &acc {
            for b in &sols {
                if let Some(u) = a.union(b) {
                    next.push(u);
                }
            }
        }
        acc = next;
    }
    acc.sort();
    acc.dedup();
    acc
}

/// The BGP shapes where a pairwise step binds, reads and writes its row
/// cells differently, over `g`'s vocabulary: the empty BGP; a ground
/// pattern, present (a triple of `g`, when it has one) and absent;
/// `(?b, p, ?b)`; `?a` bound by one pattern and repeated in two more; a
/// disconnected pair. Every plan order of each is run, so the ground and
/// repeated-variable patterns each sit at step 0 and at later steps.
fn corner_bgps(g: &RdfGraph) -> Vec<Vec<TriplePattern>> {
    use wdsparql_rdf::{iri, var};
    let edge = |s: &str, p: &str, o: &str| tp(var(s), iri(p), var(o));
    let mut grounds = vec![tp(iri("sn0"), iri("sp0"), iri("absent-term"))];
    grounds.extend(g.iter().next().map(|&t| TriplePattern::from(t)));
    let mut bgps = vec![Vec::new()];
    for ground in grounds {
        bgps.push(vec![ground]);
        bgps.push(vec![ground, edge("a", "sp0", "b"), edge("b", "sp1", "c")]);
    }
    bgps.push(vec![edge("a", "sp0", "b"), edge("b", "sp1", "b")]);
    bgps.push(vec![
        edge("a", "sp0", "b"),
        edge("b", "sp1", "a"),
        edge("a", "sp2", "c"),
    ]);
    bgps.push(vec![edge("a", "sp0", "b"), edge("c", "sp1", "d")]);
    bgps
}

/// The key tables a keyed join of `pats` is checked under: the unit
/// table, and 0, 1 and 3 bindings of the first variable of `pats` — the
/// three including a value no generated graph has.
fn key_tables(pats: &[TriplePattern]) -> Vec<RowTable> {
    let mut tables = vec![RowTable::unit()];
    if let Some(v) = pats.iter().flat_map(|p| p.var_occurrences()).next() {
        let values = ["sn1", "absent-term", "sn2"].map(Iri::new);
        for n in [0, 1, 3] {
            let mut keys = RowTable::new(vec![v]);
            for &value in &values[..n] {
                keys.push(&[Some(value)]);
            }
            tables.push(keys);
        }
    }
    tables
}

/// Cyclic cores in which every pattern binds its predicate alone — the
/// shapes whose tries walk PSO and POS key levels on a compacted base.
/// Random BGPs draw that shape only now and then.
fn keyed_cores() -> Vec<Vec<TriplePattern>> {
    use wdsparql_rdf::{iri, var};
    let edge = |s: &str, p: &str, o: &str| tp(var(s), iri(p), var(o));
    vec![
        vec![
            edge("a", "sp0", "b"),
            edge("b", "sp1", "c"),
            edge("a", "sp2", "c"),
        ],
        vec![
            edge("a", "sp1", "b"),
            edge("c", "sp0", "b"),
            edge("c", "sp2", "a"),
        ],
        vec![edge("a", "sp0", "b"), edge("b", "sp0", "a")],
    ]
}

/// Every ordering of `0..n`.
fn plan_orders(n: usize) -> Vec<Vec<usize>> {
    if n == 0 {
        return vec![Vec::new()];
    }
    let mut out = Vec::new();
    for rest in plan_orders(n - 1) {
        for at in 0..=rest.len() {
            let mut order = rest.clone();
            order.insert(at, n - 1);
            out.push(order);
        }
    }
    out
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(96))]

    /// The flat-row pairwise stream on the corner BGPs of
    /// [`corner_bgps`], under every plan order, on an `EncodedGraph`
    /// whose rows all sit in uncompacted delta segments and on a
    /// three-shard snapshot: the rows are the reference answer, and
    /// every k-prefix is the first k rows of the full run — for the
    /// stream itself, for the boxed stream the planner opens, and for
    /// the sharded facade.
    #[test]
    fn pairwise_corner_table_matches_reference(g in arb_graph(), chunk in 1..4usize) {
        let triples: Vec<Triple> = g.iter().copied().collect();
        let mut staged = EncodedGraph::new();
        for batch in triples.chunks(chunk) {
            staged.insert_batch(batch.iter().copied()).expect("tiny batch");
        }
        prop_assert!(triples.is_empty() || staged.segment_count() > 0);
        let sharded = ShardedStore::new(3);
        sharded.bulk_load(triples.iter().copied());
        sharded.set_join_strategy(JoinStrategy::Pairwise);
        let snap = sharded.snapshot();
        let budget = QueryBudget::unlimited();
        for pats in corner_bgps(&g) {
            let want = reference_bgp(&g, &pats);
            for (label, ix) in [("staged", &staged as &dyn TripleIndex), ("sharded", &snap)] {
                let counts: Vec<usize> = pats.iter().map(|p| ix.candidate_count(p)).collect();
                for order in plan_orders(pats.len()) {
                    let plan = PairwisePlan { order: order.clone(), counts: counts.clone() };
                    let run = |k| JoinStream::pairwise(ix, &pats, plan.clone(), &budget, false)
                        .collect_limit(k)
                        .expect("unlimited");
                    let full = run(None);
                    let mut sorted = full.clone();
                    sorted.sort();
                    prop_assert_eq!(&sorted, &want, "{} plan {:?} of {:?}", label, &order, &pats);
                    for k in 0..=full.len() + 1 {
                        prop_assert_eq!(&run(Some(k))[..], &full[..k.min(full.len())], "{} plan {:?} k {}", label, &order, k);
                    }
                }
                let planned = eval_bgp_with_strategy(ix, &pats, JoinStrategy::Pairwise);
                for k in 0..=planned.len() + 1 {
                    let mut stream = open_bgp_stream(ix, &pats, JoinStrategy::Pairwise, &budget);
                    let prefix = stream.collect_limit(Some(k)).expect("unlimited");
                    prop_assert_eq!(&prefix[..], &planned[..k.min(planned.len())], "{} planned k {}", label, k);
                }
            }
            let full = sharded.query(&pats);
            for k in 0..=full.len() + 1 {
                let prefix = sharded.query_limited(&pats, k, &budget).expect("unlimited");
                prop_assert_eq!(&prefix[..], &full[..k.min(full.len())]);
            }
            // The keyed join, under every strategy: each key's rows are
            // the solutions of the BGP with that key substituted.
            for keys in key_tables(&pats) {
                for (label, ix) in [("staged", &staged as &dyn TripleIndex), ("sharded", &snap)] {
                    for strategy in [JoinStrategy::Pairwise, JoinStrategy::Wco, JoinStrategy::Auto] {
                        let (rows, tags) = join_keyed(ix, &pats, &keys, strategy, &budget).expect("unlimited");
                        for (k, key) in keys.rows().enumerate() {
                            let bound = |v| keys.column(v).and_then(|c| key[c]).map(Term::Iri);
                            let core: Vec<TriplePattern> = pats.iter().map(|p| p.substitute(&bound)).collect();
                            let solutions = eval_bgp_with_strategy(ix, &core, strategy);
                            let mut want: Vec<Mapping> = solutions.iter().filter_map(|mu| mu.union(&keys.mapping(k))).collect();
                            let mut got: Vec<Mapping> = (0..rows.len()).filter(|&r| tags[r] as usize == k).map(|r| rows.mapping(r)).collect();
                            want.sort();
                            got.sort();
                            prop_assert_eq!(got, want, "{} {} keyed {:?} of {:?}", label, strategy, key, &pats);
                        }
                    }
                }
            }
        }
    }

    /// EncodedGraph agrees with RdfGraph on every access pattern,
    /// including repeated variables and absent constants.
    #[test]
    fn encoded_matches_rdf_graph(g in arb_graph(), s in 0..9usize, p in 0..9usize, o in 0..9usize) {
        let enc = EncodedGraph::from_rdf(&g);
        prop_assert_eq!(enc.len(), g.len());
        let pat = tp(term_of(s, "sn"), term_of(p, "sp"), term_of(o, "sn"));
        let mut got = enc.match_pattern(&pat);
        let mut want = g.match_pattern(&pat);
        got.sort();
        want.sort();
        prop_assert_eq!(&got, &want, "pattern {}", pat);
        prop_assert!(enc.candidate_count(&pat) >= got.len());
        // Solutions agree as sets.
        let mut gs = enc.solutions(&pat);
        let mut ws = g.solutions(&pat);
        gs.sort();
        ws.sort();
        prop_assert_eq!(gs, ws);
        // The TripleIndex views agree on the global surface too.
        let ei: &dyn TripleIndex = &enc;
        let gi: &dyn TripleIndex = &g;
        prop_assert_eq!(ei.dom().collect::<Vec<_>>(), gi.dom().collect::<Vec<_>>());
        for t in gi.triples() {
            prop_assert!(ei.contains(&t));
        }
    }

    /// Incremental bulk loads converge to the one-shot build, and the
    /// service's BGP join agrees with the reference pairwise join.
    #[test]
    fn service_join_agrees_with_reference(g in arb_graph(), chunk in 1..7usize) {
        let triples: Vec<Triple> = g.iter().copied().collect();
        let store = TripleStore::new();
        for batch in triples.chunks(chunk) {
            store.bulk_load(batch.iter().copied());
        }
        prop_assert_eq!(store.len(), g.len());
        let pats = [
            tp(wdsparql_rdf::var("x"), wdsparql_rdf::iri("sp0"), wdsparql_rdf::var("y")),
            tp(wdsparql_rdf::var("y"), wdsparql_rdf::iri("sp1"), wdsparql_rdf::var("z")),
        ];
        let mut got: Vec<_> = store.query(&pats).iter().cloned().collect();
        got.sort();
        // Reference: nested-loop join over RdfGraph solutions.
        let mut want = Vec::new();
        for a in g.solutions(&pats[0]) {
            for b in g.solutions(&pats[1]) {
                if let Some(u) = a.union(&b) {
                    want.push(u);
                }
            }
        }
        want.sort();
        want.dedup();
        prop_assert_eq!(got, want);
    }

    /// Interleaved `insert_batch`/`compact` sequences agree with the
    /// hash indexes on every access pattern, whether the probed rows
    /// live in the base, in pending delta segments, or both. The
    /// `compact_mask` drives when compaction strikes, so the property
    /// covers deltas-present and deltas-absent states of the same data.
    #[test]
    fn interleaved_batches_and_compactions_match_rdf_graph(
        g in arb_graph(),
        chunk in 1..6usize,
        compact_mask in 0u32..64,
        s in 0..9usize,
        p in 0..9usize,
        o in 0..9usize,
    ) {
        let triples: Vec<Triple> = g.iter().copied().collect();
        let mut enc = EncodedGraph::new();
        for (i, batch) in triples.chunks(chunk).enumerate() {
            enc.insert_batch(batch.iter().copied()).expect("tiny batch");
            if compact_mask & (1 << (i % 6)) != 0 {
                enc.compact();
            }
        }
        prop_assert_eq!(enc.len(), g.len());
        prop_assert_eq!(enc.base_len() + enc.delta_len(), enc.len());
        let pat = tp(term_of(s, "sn"), term_of(p, "sp"), term_of(o, "sn"));
        let mut got = enc.match_pattern(&pat);
        let mut want = g.match_pattern(&pat);
        got.sort();
        want.sort();
        prop_assert_eq!(&got, &want, "pattern {} (segments: {})", pat, enc.segment_count());
        prop_assert!(enc.candidate_count(&pat) >= got.len());
        let mut gs = enc.solutions(&pat);
        let mut ws = g.solutions(&pat);
        gs.sort();
        ws.sort();
        prop_assert_eq!(gs, ws);
        // Compacting afterwards changes the layout only.
        let before_iter: Vec<Triple> = enc.iter().collect();
        enc.compact();
        prop_assert_eq!(enc.segment_count(), 0);
        let mut got_after = enc.match_pattern(&pat);
        got_after.sort();
        prop_assert_eq!(got_after, want);
        prop_assert_eq!(enc.iter().collect::<Vec<Triple>>(), before_iter);
        // The TripleIndex dom view survives the whole interleaving.
        let ei: &dyn TripleIndex = &enc;
        let gi: &dyn TripleIndex = &g;
        prop_assert_eq!(ei.dom().collect::<Vec<_>>(), gi.dom().collect::<Vec<_>>());
    }

    /// Queries racing a compaction see exactly the same answers: the
    /// service's snapshot isolation makes the fold invisible. The inputs
    /// (graph, chunking, query epoch) replay under `PROPTEST_SEED`; the
    /// thread interleaving is free, which is the point — every
    /// interleaving must yield the reference answer.
    #[test]
    fn service_queries_during_compaction_are_snapshot_consistent(
        g in arb_graph(),
        chunk in 1..6usize,
        rounds in 1..4usize,
    ) {
        let triples: Vec<Triple> = g.iter().copied().collect();
        let store = std::sync::Arc::new(TripleStore::new());
        for batch in triples.chunks(chunk) {
            store.bulk_load(batch.iter().copied());
        }
        let pats = [
            tp(wdsparql_rdf::var("x"), wdsparql_rdf::iri("sp0"), wdsparql_rdf::var("y")),
            tp(wdsparql_rdf::var("y"), wdsparql_rdf::iri("sp1"), wdsparql_rdf::var("z")),
        ];
        let mut want: Vec<_> = store.query(&pats).iter().cloned().collect();
        want.sort();
        let compactor = {
            let store = std::sync::Arc::clone(&store);
            std::thread::spawn(move || {
                for _ in 0..rounds {
                    store.compact();
                }
            })
        };
        let epoch = store.epoch();
        for _ in 0..rounds {
            let out = store.query_with_plan(&pats);
            prop_assert_eq!(out.read, [(0, epoch)], "compaction must not bump the epoch");
            let mut got: Vec<_> = out.solutions.iter().cloned().collect();
            got.sort();
            prop_assert_eq!(&got, &want, "query racing compaction diverged");
        }
        compactor.join().expect("compactor thread");
        prop_assert_eq!(store.stats().delta_rows, 0);
        let mut after: Vec<_> = store.query(&pats).iter().cloned().collect();
        after.sort();
        prop_assert_eq!(after, want);
    }

    /// A hash-sharded store is indistinguishable from a single
    /// `TripleStore` on every access pattern — chunked loads interleaved
    /// with *per-shard* compactions (driven by `compact_mask`, so some
    /// shards answer from delta segments while others are freshly
    /// folded), the full `TripleIndex` surface through the scatter-gather
    /// snapshot, and the facade's BGP path. Replays under
    /// `PROPTEST_SEED`.
    #[test]
    fn sharded_store_matches_single_store(
        g in arb_graph(),
        shards in 1..5usize,
        chunk in 1..6usize,
        compact_mask in 0u32..64,
        s in 0..9usize,
        p in 0..9usize,
        o in 0..9usize,
    ) {
        let triples: Vec<Triple> = g.iter().copied().collect();
        let single = TripleStore::new();
        let sharded = ShardedStore::new(shards);
        for (i, batch) in triples.chunks(chunk).enumerate() {
            single.bulk_load(batch.iter().copied());
            sharded.bulk_load(batch.iter().copied());
            if compact_mask & (1 << (i % 6)) != 0 {
                // Fold one shard only: the layouts diverge across
                // shards, the contents must not.
                sharded.shards()[i % shards].compact();
            }
        }
        prop_assert_eq!(sharded.len(), single.len());
        prop_assert_eq!(sharded.epochs().len(), shards);

        let snap = sharded.snapshot();
        let sref = single.read_snapshot();
        let pat = tp(term_of(s, "sn"), term_of(p, "sp"), term_of(o, "sn"));
        // The TripleIndex surface agrees: matches, bounds, solutions,
        // membership, domain.
        let mut got = TripleIndex::match_pattern(&snap, &pat);
        let mut want = sref.match_pattern(&pat);
        got.sort();
        want.sort();
        prop_assert_eq!(&got, &want, "{} shards, pattern {}", shards, pat);
        prop_assert!(TripleIndex::candidate_count(&snap, &pat) >= got.len());
        let mut gs = TripleIndex::solutions(&snap, &pat);
        let mut ws = sref.solutions(&pat);
        gs.sort();
        ws.sort();
        prop_assert_eq!(gs, ws);
        for t in &triples {
            prop_assert!(TripleIndex::contains(&snap, t));
        }
        prop_assert_eq!(
            TripleIndex::dom(&snap).collect::<Vec<_>>(),
            TripleIndex::dom(sref.graph()).collect::<Vec<_>>()
        );

        // The facade's planned BGP path agrees with the single
        // service — for the fan-out join and for a routed point query.
        let join = [
            tp(wdsparql_rdf::var("x"), wdsparql_rdf::iri("sp0"), wdsparql_rdf::var("y")),
            tp(wdsparql_rdf::var("y"), wdsparql_rdf::iri("sp1"), wdsparql_rdf::var("z")),
        ];
        let mut got: Vec<_> = sharded.query(&join).iter().cloned().collect();
        let mut want: Vec<_> = single.query(&join).iter().cloned().collect();
        got.sort();
        want.sort();
        prop_assert_eq!(got, want, "facade join diverged at {} shards", shards);
        let routed = [tp(wdsparql_rdf::iri("sn0"), wdsparql_rdf::var("a"), wdsparql_rdf::var("b"))];
        let mut got: Vec<_> = sharded.query(&routed).iter().cloned().collect();
        let mut want: Vec<_> = single.query(&routed).iter().cloned().collect();
        got.sort();
        want.sort();
        prop_assert_eq!(got, want, "routed query diverged at {} shards", shards);

        // A full compact is invisible to queries, like the single store's.
        sharded.compact();
        let snap = sharded.snapshot();
        let mut after = TripleIndex::match_pattern(&snap, &pat);
        after.sort();
        let mut want = sref.match_pattern(&pat);
        want.sort();
        prop_assert_eq!(after, want);
        for st in sharded.stats().shards {
            prop_assert_eq!((st.delta_rows, st.segments), (0, 0));
        }
    }

    /// The worst-case-optimal join ≡ the pairwise pipeline ≡ the
    /// reference nested-loop semantics, on random BGPs — including
    /// cyclic cores over three shared variables, repeated variables,
    /// ground and absent-constant patterns — over the single
    /// `TripleStore` snapshot (zero-copy permutation tries, keyed PSO/POS
    /// base blocks), the same triples as an all-delta `EncodedGraph`
    /// (row-walked runs only) and as a base plus one delta segment (keyed
    /// and row-walked runs merged in one trie level), and every sharded
    /// layout (materialised scatter-gather tries), plus the facade under
    /// every `JoinStrategy`. The three encoded layouts run under each id
    /// layout ([`Ids`]: names as given, interned late, and a mix, so the
    /// id windows sit low, far above zero, and span both), and on each of
    /// them every k-prefix of the leapfrog stream is the first k rows of
    /// its full run. Replays under `PROPTEST_SEED`.
    #[test]
    fn wcoj_matches_pairwise(
        g in arb_graph(),
        raw in proptest::collection::vec((0..10usize, 0..10usize, 0..10usize), 1..5),
        shards in 1..4usize,
        chunk in 1..4usize,
    ) {
        let pats: Vec<TriplePattern> = raw
            .into_iter()
            .map(|(s, p, o)| tp(join_term_of(s, "sn"), join_term_of(p, "sp"), join_term_of(o, "sn")))
            .collect();
        let want = reference_bgp(&g, &pats);
        let store = TripleStore::from_triples(g.iter().copied());
        let snap = store.read_snapshot();
        let mut wco = eval_bgp_wco(snap.graph(), &pats);
        wco.sort();
        prop_assert_eq!(&wco, &want, "wco vs reference on {:?}", &pats);
        let mut pairwise = eval_bgp_pairwise(snap.graph(), &pats);
        pairwise.sort();
        prop_assert_eq!(&pairwise, &want, "pairwise vs reference on {:?}", &pats);
        let budget = QueryBudget::unlimited();
        let mut bgps = keyed_cores();
        bgps.push(pats.clone());
        for ids in Ids::ALL {
            let g = RdfGraph::from_triples(g.iter().map(|t| ids.triple(t)));
            let triples: Vec<Triple> = g.iter().copied().collect();
            let store = TripleStore::from_triples(triples.iter().copied());
            let snap = store.read_snapshot();
            let mut staged = EncodedGraph::new();
            for batch in triples.chunks(chunk) {
                staged.insert_batch(batch.iter().copied()).expect("tiny batch");
            }
            prop_assert!(staged.base_len() == 0, "chunks this small never fold");
            let split = triples.len() / 2;
            let mut mixed = EncodedGraph::new();
            mixed.insert_batch(triples[..split].iter().copied()).expect("tiny batch");
            mixed.compact();
            mixed.insert_batch(triples[split..].iter().copied()).expect("tiny batch");
            prop_assert!(mixed.segment_count() <= 1);
            for bgp in &bgps {
                let bgp: Vec<TriplePattern> = bgp.iter().map(|p| ids.pattern(p)).collect();
                let want = reference_bgp(&g, &bgp);
                for (label, ix) in [("compacted", snap.graph()), ("staged", &staged), ("mixed", &mixed)] {
                    let run = |k| JoinStream::wco(ix, &bgp, &budget, false)
                        .collect_limit(k)
                        .expect("unlimited");
                    let full = run(None);
                    let mut sorted = full.clone();
                    sorted.sort();
                    prop_assert_eq!(&sorted, &want, "{:?} {} wco vs reference on {:?}", ids, label, &bgp);
                    for k in 0..=full.len() + 1 {
                        prop_assert_eq!(&run(Some(k))[..], &full[..k.min(full.len())], "{:?} {} k {} on {:?}", ids, label, k, &bgp);
                    }
                }
            }
        }
        // The sharded scatter-gather snapshot joins through materialised
        // tries; the facade must agree under every knob setting.
        let sharded = ShardedStore::from_triples(shards, g.iter().copied());
        let ssnap = sharded.snapshot();
        let mut swco = eval_bgp_wco(&ssnap, &pats);
        swco.sort();
        prop_assert_eq!(&swco, &want, "sharded wco vs reference on {:?}", &pats);
        for strategy in [JoinStrategy::Pairwise, JoinStrategy::Wco, JoinStrategy::Auto] {
            sharded.set_join_strategy(strategy);
            let mut got: Vec<Mapping> = sharded.query(&pats).iter().cloned().collect();
            got.sort();
            prop_assert_eq!(&got, &want, "facade {} on {:?}", strategy, &pats);
        }
    }
}

// ---------------------------------------------------------------------
// Durable-store equivalence
// ---------------------------------------------------------------------

fn prop_tempdir() -> std::path::PathBuf {
    use std::sync::atomic::{AtomicUsize, Ordering};
    static N: AtomicUsize = AtomicUsize::new(0);
    let dir = std::env::temp_dir().join(format!(
        "wdsparql-durable-prop-{}-{}",
        std::process::id(),
        N.fetch_add(1, Ordering::Relaxed)
    ));
    let _ = std::fs::remove_dir_all(&dir);
    dir
}

proptest! {
    // Each case touches a real temp directory (commits + reopen), so
    // the case budget is smaller than the in-memory properties above.
    #![proptest_config(ProptestConfig::with_cases(24))]

    /// A durable store fed a random script of batched loads and
    /// compactions, then **reopened from disk**, is indistinguishable
    /// from a volatile store fed the same script: same epoch, same
    /// triple set, and the same answers over the full [`TripleIndex`]
    /// surface (len / contains / dom / match_pattern / solutions for
    /// every constant-and-variable pattern shape over the universe).
    /// Both share one normaliser, so a `BTreeSet` model checks the
    /// deduplication itself: every load adds exactly the model's growth,
    /// and the reopened set is the model. Replays under
    /// `PROPTEST_SEED=<u64>`.
    #[test]
    fn durable_store_matches_volatile(
        script in proptest::collection::vec(
            (
                any::<bool>(),
                proptest::collection::vec((0..6usize, 0..3usize, 0..6usize), 0..6),
            ),
            1..10,
        )
    ) {
        let dir = prop_tempdir();
        let opts = wdsparql_store::PersistOpts {
            page_size: 64,
            ..Default::default()
        };
        let durable = TripleStore::open_with_opts(&dir, opts).expect("open durable");
        let volatile = TripleStore::new();
        let mut model = std::collections::BTreeSet::new();
        for (compact_after, coded) in &script {
            let batch: Vec<Triple> = coded
                .iter()
                .map(|&(s, p, o)| {
                    Triple::from_strs(&format!("sn{s}"), &format!("sp{p}"), &format!("sn{o}"))
                })
                .collect();
            let a = durable.try_bulk_load(batch.iter().copied()).expect("durable load");
            let b = volatile.try_bulk_load(batch.iter().copied()).expect("volatile load");
            prop_assert_eq!(a, b, "added counts diverge");
            let before = model.len();
            model.extend(batch.iter().copied());
            prop_assert_eq!(a, model.len() - before, "added count is not the model's growth");
            prop_assert_eq!(durable.epoch(), volatile.epoch(), "epochs diverge mid-script");
            if *compact_after {
                prop_assert_eq!(durable.compact(), volatile.compact());
            }
        }
        drop(durable);

        let reopened = TripleStore::open(&dir).expect("reopen from disk");
        prop_assert_eq!(reopened.epoch(), volatile.epoch(), "epoch lost across restart");
        let got = reopened.read_snapshot();
        let want = volatile.read_snapshot();
        let (got, want) = (got.graph(), want.graph());
        prop_assert_eq!(got.len(), want.len());
        let gs: std::collections::BTreeSet<Triple> = got.triples().collect();
        let ws: std::collections::BTreeSet<Triple> = want.triples().collect();
        prop_assert_eq!(&gs, &ws, "triple sets diverge across restart");
        prop_assert_eq!(&gs, &model, "the reopened set is not the model");
        let gd: std::collections::BTreeSet<Iri> = got.dom().collect();
        let wd: std::collections::BTreeSet<Iri> = want.dom().collect();
        prop_assert_eq!(gd, wd, "domains diverge across restart");
        for t in &ws {
            prop_assert!(got.contains(t));
        }
        // Every single-pattern shape over the universe answers alike.
        for s in 0..9usize {
            for p in 0..4usize {
                for o in 0..9usize {
                    let pat = tp(
                        term_of(s, "sn"),
                        if p < 3 { wdsparql_rdf::iri(&format!("sp{p}")) } else { wdsparql_rdf::var("p") },
                        join_term_of(o, "sn"),
                    );
                    let mut gm = got.match_pattern(&pat);
                    let mut wm = want.match_pattern(&pat);
                    gm.sort();
                    wm.sort();
                    prop_assert_eq!(gm, wm, "match_pattern diverges on {:?}", &pat);
                    prop_assert_eq!(
                        got.candidate_count(&pat) == 0,
                        want.candidate_count(&pat) == 0,
                        "candidate emptiness diverges on {:?}", &pat
                    );
                }
            }
        }
        let _ = std::fs::remove_dir_all(&dir);
    }

    /// The sharded equivalent: persist, reopen, and the scatter-gather
    /// snapshot serves the same triples.
    #[test]
    fn durable_sharded_store_matches_volatile(
        coded in proptest::collection::vec((0..12usize, 0..3usize, 0..12usize), 0..30),
        shards in 1..4usize,
    ) {
        let dir = prop_tempdir();
        let triples: Vec<Triple> = coded
            .iter()
            .map(|&(s, p, o)| {
                Triple::from_strs(&format!("sn{s}"), &format!("sp{p}"), &format!("sn{o}"))
            })
            .collect();
        let store = ShardedStore::new(shards);
        store.bulk_load(triples.iter().copied());
        store.persist_to(&dir).expect("attach");
        let want: std::collections::BTreeSet<Triple> = store.snapshot().triples().collect();
        drop(store);
        let reopened = ShardedStore::open(&dir).expect("reopen sharded");
        prop_assert_eq!(reopened.shard_count(), shards);
        let reopened_set: std::collections::BTreeSet<Triple> = reopened.snapshot().triples().collect();
        prop_assert_eq!(reopened_set, want);
        let _ = std::fs::remove_dir_all(&dir);
    }
}
