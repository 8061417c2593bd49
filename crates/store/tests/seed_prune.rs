//! The pairwise seed's semi-join prune runs only where the plan's counts
//! say it pays: an anchored path (a seed of a few rows against a second
//! pattern of thousands) reads no candidate list, and lets the bind join
//! drop the dead seed rows; an open path over two blocks of similar size
//! still prunes, once. Either way the rows are the leapfrog join's, and
//! every LIMIT prefix is a prefix of the full stream — on the encoded
//! graph, a three-shard snapshot and the plain `RdfGraph`.

use std::cell::Cell;
use wdsparql_rdf::{
    iri, tp, var, Iri, Mapping, QueryBudget, RdfGraph, SolutionStream, Triple, TripleIndex,
    TriplePattern, Variable,
};
use wdsparql_store::{
    eval_bgp_wco, open_bgp_stream, EncodedGraph, JoinStrategy, ShardedStore, TripleStore,
};

/// A [`TripleIndex`] that counts the planner's `candidate_count` calls
/// and the prune's `candidate_values` calls.
struct CountingIndex<'a> {
    inner: &'a dyn TripleIndex,
    count_calls: Cell<usize>,
    values_calls: Cell<usize>,
}

impl<'a> CountingIndex<'a> {
    fn new(inner: &'a dyn TripleIndex) -> CountingIndex<'a> {
        CountingIndex {
            inner,
            count_calls: Cell::new(0),
            values_calls: Cell::new(0),
        }
    }
}

impl TripleIndex for CountingIndex<'_> {
    fn len(&self) -> usize {
        self.inner.len()
    }

    fn contains(&self, t: &Triple) -> bool {
        self.inner.contains(t)
    }

    fn triples(&self) -> Box<dyn Iterator<Item = Triple> + '_> {
        self.inner.triples()
    }

    fn dom(&self) -> Box<dyn Iterator<Item = Iri> + '_> {
        self.inner.dom()
    }

    fn dom_contains(&self, i: Iri) -> bool {
        self.inner.dom_contains(i)
    }

    fn candidate_count(&self, pat: &TriplePattern) -> usize {
        self.count_calls.set(self.count_calls.get() + 1);
        self.inner.candidate_count(pat)
    }

    fn match_pattern(&self, pat: &TriplePattern) -> Vec<Triple> {
        self.inner.match_pattern(pat)
    }

    fn candidate_values(&self, pat: &TriplePattern, v: Variable) -> Option<Vec<Iri>> {
        self.values_calls.set(self.values_calls.get() + 1);
        self.inner.candidate_values(pat, v)
    }
}

/// `a` reaches three `m` nodes by `p`, one of them with no `q` edge (a
/// dead seed row); `q` is a block of 2 400 edges out of 300 `m` nodes.
/// `r` and `s` are blocks of 120 edges each, `s` out of 30 of the 40
/// nodes `r` reaches.
fn triples() -> Vec<Triple> {
    let mut ts = Vec::new();
    for m in [1, 150, 350] {
        ts.push(Triple::from_strs("a", "p", &format!("m{m}")));
    }
    for i in 0..2_000 {
        ts.push(Triple::from_strs(
            &format!("n{i}"),
            "p",
            &format!("m{}", i % 400),
        ));
    }
    for j in 0..300 {
        for l in 0..8 {
            ts.push(Triple::from_strs(&format!("m{j}"), "q", &format!("k{l}")));
        }
    }
    for i in 0..120 {
        ts.push(Triple::from_strs(
            &format!("x{i}"),
            "r",
            &format!("y{}", i % 40),
        ));
    }
    for j in 0..30 {
        for l in 0..4 {
            ts.push(Triple::from_strs(&format!("y{j}"), "s", &format!("z{l}")));
        }
    }
    ts
}

fn anchored() -> Vec<TriplePattern> {
    vec![
        tp(iri("a"), iri("p"), var("y")),
        tp(var("y"), iri("q"), var("z")),
    ]
}

fn open() -> Vec<TriplePattern> {
    vec![
        tp(var("x"), iri("r"), var("y")),
        tp(var("y"), iri("s"), var("z")),
    ]
}

fn sorted(mut rows: Vec<Mapping>) -> Vec<Mapping> {
    rows.sort();
    rows
}

/// Runs `pats` through the planned pairwise stream on a counting view of
/// `inner`: checks the rows against the leapfrog join and every LIMIT
/// prefix against the full stream, and returns the `candidate_values`
/// calls of the full run and the number of rows.
fn prune_reads(label: &str, inner: &dyn TripleIndex, pats: &[TriplePattern]) -> (usize, usize) {
    let ix = CountingIndex::new(inner);
    let budget = QueryBudget::unlimited();
    let full = open_bgp_stream(&ix, pats, JoinStrategy::Pairwise, &budget)
        .collect_limit(None)
        .expect("unlimited");
    assert_eq!(
        ix.count_calls.get(),
        pats.len(),
        "{label}: planning counts each pattern once, execution never"
    );
    let reads = ix.values_calls.get();
    assert_eq!(
        sorted(full.clone()),
        sorted(eval_bgp_wco(inner, pats)),
        "{label}: the leapfrog join's rows"
    );
    for k in 0..=full.len() + 1 {
        let prefix = open_bgp_stream(&ix, pats, JoinStrategy::Pairwise, &budget)
            .collect_limit(Some(k))
            .expect("unlimited");
        assert_eq!(prefix, full[..k.min(full.len())], "{label}: prefix {k}");
    }
    (reads, full.len())
}

#[test]
fn the_seed_prune_runs_only_where_it_pays() {
    let ts = triples();
    let encoded = EncodedGraph::from_triples(ts.iter().copied());
    let sharded = ShardedStore::from_triples(3, ts.iter().copied());
    let snapshot = sharded.snapshot();
    let rdf = RdfGraph::from_triples(ts.iter().copied());
    let backends: [(&str, &dyn TripleIndex); 3] =
        [("encoded", &encoded), ("sharded", &snapshot), ("rdf", &rdf)];
    for (label, ix) in backends {
        // Three seed rows against 2 400 candidates: the bind join's
        // probes drop `m350` instead.
        let (reads, rows) = prune_reads(label, ix, &anchored());
        assert_eq!(reads, 0, "{label}: the anchored path reads no list");
        assert_eq!(
            rows, 16,
            "{label}: two live seed rows, eight `q` edges each"
        );
        // 120 seed rows against 120 candidates: the prune pays.
        let (reads, rows) = prune_reads(label, ix, &open());
        assert_eq!(reads, 1, "{label}: the open path prunes once");
        assert_eq!(rows, 360, "{label}: 90 live `r` edges, four `s` edges each");
    }
}

/// The services stream the same prefixes: `query_limited(k)` under an
/// unlimited budget is the first `k` rows of the full pairwise answer,
/// on both facades.
#[test]
fn solutions_limit_prefixes_the_pairwise_answer() {
    let ts = triples();
    let single = TripleStore::from_triples(ts.iter().copied());
    let sharded = ShardedStore::from_triples(3, ts.iter().copied());
    single.set_join_strategy(JoinStrategy::Pairwise);
    sharded.set_join_strategy(JoinStrategy::Pairwise);
    let budget = QueryBudget::unlimited();
    for pats in [anchored(), open()] {
        let full = single.query(&pats);
        let sharded_full = sharded.query(&pats);
        assert_eq!(sorted(full.to_vec()), sorted(sharded_full.to_vec()));
        for k in 0..=full.len() + 1 {
            assert_eq!(
                single.query_limited(&pats, k, &budget).as_deref(),
                Ok(&full[..k.min(full.len())]),
                "single prefix {k}"
            );
            assert_eq!(
                sharded.query_limited(&pats, k, &budget).as_deref(),
                Ok(&sharded_full[..k.min(sharded_full.len())]),
                "sharded prefix {k}"
            );
        }
    }
}
