//! Differential tests: the one-level, index-seeded game against the game
//! it replaced (`old_game`, test-only), on every backend.
//!
//! Replay a failure with `PROPTEST_SEED=<seed> cargo test -p
//! wdsparql-pebble --test diff`.

mod old_game;

use proptest::prelude::*;
use wdsparql_hom::{GenTGraph, TGraph};
use wdsparql_pebble::duplicator_wins;
use wdsparql_rdf::{tp, Iri, Mapping, RdfGraph, Term, Triple, TriplePattern, Variable};
use wdsparql_store::{ShardedStore, TripleStore};

/// Nodes and predicates share one universe, so a variable in predicate
/// position can meet a node and µ can send X to a predicate; `absent`
/// never occurs in a graph.
const NODES: [&str; 4] = ["dn0", "dn1", "dn2", "dn3"];
const PREDS: [&str; 2] = ["dp0", "dp1"];
const VARS: usize = 4;

fn var(i: usize) -> Variable {
    Variable::new(&format!("dv{}", i % VARS))
}

fn node(i: usize) -> Iri {
    Iri::new(NODES[i % NODES.len()])
}

fn pred(i: usize) -> Iri {
    Iri::new(PREDS[i % PREDS.len()])
}

/// A triple of the graph: nine in ten are node–predicate–node, the rest
/// put a node in predicate position or a predicate in subject position.
fn arb_triple() -> impl Strategy<Value = Triple> {
    (0..40usize, 0..20usize, 0..4usize).prop_map(|(s, p, o)| match (s, p) {
        (36.., _) => Triple::new(pred(s), pred(p), node(o)),
        (_, 18..) => Triple::new(node(s), node(p), node(o)),
        _ => Triple::new(node(s), pred(p), node(o)),
    })
}

/// A triple of S: subjects and objects are variables four times in five
/// and nodes otherwise; predicates are constants four times in five, then
/// variables, then nodes.
fn arb_pattern() -> impl Strategy<Value = TriplePattern> {
    let end = |c: usize| -> Term {
        if c < 16 {
            var(c).into()
        } else {
            node(c).into()
        }
    };
    (0..20usize, 0..25usize, 0..20usize).prop_map(move |(s, p, o)| {
        let p: Term = match p {
            0..=19 => pred(p).into(),
            20..=22 => var(p).into(),
            _ => node(p).into(),
        };
        tp(end(s), p, end(o))
    })
}

/// `(S, X, µ)`: each variable of S is in X one time in four; µ sends it to
/// a node, or now and then to a predicate or to `absent`.
fn arb_source() -> impl Strategy<Value = (GenTGraph, Mapping)> {
    (
        proptest::collection::vec(arb_pattern(), 1..8),
        proptest::collection::vec((0..4usize, 0..20usize), VARS),
    )
        .prop_map(|(pats, draws)| {
            let s = TGraph::from_patterns(pats);
            let mu = Mapping::from_pairs((0..VARS).filter_map(|i| {
                let (in_x, image) = draws[i];
                let image = match image {
                    0..=16 => node(image),
                    17 | 18 => pred(image),
                    _ => Iri::new("absent"),
                };
                (in_x == 0 && s.vars().contains(&var(i))).then(|| (var(i), image))
            }));
            (GenTGraph::new(s, mu.domain()), mu)
        })
}

/// The graph as a store that still holds uncompacted delta segments.
fn segmented(triples: &[Triple]) -> TripleStore {
    let store = TripleStore::new();
    let (a, b) = triples.split_at(triples.len() / 2);
    store.bulk_load(a.iter().copied());
    store.bulk_load(b.iter().copied());
    assert!(triples.is_empty() || store.stats().segments > 0);
    store
}

/// The new game's verdict on `RdfGraph`, after checking that the segmented
/// store and a three-way sharded store give the same one (their
/// `candidate_count`s differ, so their statistics may).
fn new_game(src: &GenTGraph, triples: &[Triple], mu: &Mapping, k: usize) -> bool {
    let plain = duplicator_wins(src, &RdfGraph::from_triples(triples.iter().copied()), mu, k);
    let store = segmented(triples);
    assert_eq!(store.with_index(|g| duplicator_wins(src, g, mu, k)), plain);
    let sharded = ShardedStore::new(3);
    sharded.bulk_load(triples.iter().copied());
    assert_eq!(
        sharded.with_index(|g| duplicator_wins(src, g, mu, k)),
        plain
    );
    plain
}

fn old_game(src: &GenTGraph, triples: &[Triple], mu: &Mapping, k: usize) -> bool {
    old_game::pebble_game(src, &RdfGraph::from_triples(triples.iter().copied()), mu, k).0
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(600))]

    /// new ≡ old on random `(S, X, µ, G)` for k ∈ 2..=4, on three backends.
    #[test]
    fn one_level_game_agrees_with_the_old_game(
        (src, mu) in arb_source(),
        triples in proptest::collection::vec(arb_triple(), 0..32),
        k in 2usize..=4,
    ) {
        prop_assert_eq!(
            new_game(&src, &triples, &mu, k),
            old_game(&src, &triples, &mu, k),
            "k={} src={} µ={} G={:?}", k, src, mu, triples
        );
    }
}

/// Paths, cycles and cliques over one predicate, a pinned end or not and
/// a marked variable or not, against sparse graphs on five nodes: the
/// shapes whose verdict takes chains of deletions to reach.
fn arb_shape() -> impl Strategy<Value = Vec<TriplePattern>> {
    let edge = |i: usize, j: usize| tp(var_n(i), pred(0), var_n(j));
    prop_oneof![
        (2usize..6).prop_map(move |n| (0..n).map(|i| edge(i, i + 1)).collect()),
        (3usize..6).prop_map(move |n| (0..n).map(|i| edge(i, (i + 1) % n)).collect()),
        (3usize..5).prop_map(move |n| {
            (0..n)
                .flat_map(|i| (i + 1..n).map(move |j| edge(i, j)))
                .collect()
        }),
    ]
}

fn var_n(i: usize) -> Term {
    Variable::new(&format!("ds{i}")).into()
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(500))]

    #[test]
    fn shapes_agree_with_the_old_game(
        mut pats in arb_shape(),
        pin in 0..3usize,
        edges in proptest::collection::vec((0..5usize, 0..5usize), 1..14),
        marked in proptest::collection::vec(0..5usize, 0..4),
        mark_var in 0..6usize,
        k in 2usize..=4,
    ) {
        let dm = |i: usize| Iri::new(&format!("dm{i}"));
        // One variable may have to sit on a marked node: a triple with a
        // single variable, whose column cuts candidates the tables keep.
        let mark = Iri::new("mark");
        if !marked.is_empty() {
            pats.push(tp(var_n(mark_var % 4), pred(1), mark));
        }
        let triples: Vec<Triple> = edges
            .iter()
            .map(|&(s, o)| Triple::new(dm(s), pred(0), dm(o)))
            .chain(marked.iter().map(|&m| Triple::new(dm(m), pred(1), mark)))
            .collect();
        // Two times in three, ?ds0 is in X and sent to a node.
        let mu = Mapping::from_pairs((pin > 0).then(|| (Variable::new("ds0"), dm(pin))));
        let src = GenTGraph::new(TGraph::from_patterns(pats), mu.domain());
        prop_assert_eq!(
            new_game(&src, &triples, &mu, k),
            old_game(&src, &triples, &mu, k),
            "k={} src={} µ={} G={:?}", k, src, mu, triples
        );
    }
}

/// The triples of S, the names of X, and µ.
type Case = (
    Vec<TriplePattern>,
    Vec<&'static str>,
    Vec<(&'static str, &'static str)>,
);

#[test]
fn the_corner_cases_agree() {
    let v = |n: &str| Term::Var(Variable::new(n));
    let i = |n: &str| Term::Iri(Iri::new(n));
    let g = |ts: &[(&str, &str, &str)]| -> Vec<Triple> {
        ts.iter()
            .map(|&(s, p, o)| Triple::from_strs(s, p, o))
            .collect()
    };
    let cycle = g(&[("dn0", "dp0", "dn1"), ("dn1", "dp0", "dn0")]);
    let mixed = g(&[
        ("dn0", "dp0", "dn1"),
        ("dn1", "dp0", "dn1"),
        ("dn1", "dp1", "dn2"),
        ("dp0", "dn0", "dn0"),
    ]);
    // dn3 → dn0 → dn1 → dn2 holds no transitive triangle, but two pebbles
    // see that only after a chain of deletions runs back to ?da.
    let chain = g(&[
        ("dn3", "dp0", "dn0"),
        ("dn0", "dp0", "dn1"),
        ("dn1", "dp0", "dn2"),
    ]);
    // Every node has a dp0- and a dp1-successor, never the same one.
    let split = g(&[
        ("dn0", "dp0", "dn1"),
        ("dn1", "dp0", "dn0"),
        ("dn0", "dp1", "dn0"),
        ("dn1", "dp1", "dn1"),
    ]);
    // A dp0-triangle, and two marked nodes on a path t3 → u → t1 that no
    // edge closes: ?dc's candidates come from the mark alone, while the
    // dp0-tables (matched in full: two candidates against seven edges)
    // also hold the unmarked triangle.
    let marked = g(&[
        ("t1", "dp0", "t2"),
        ("t2", "dp0", "t3"),
        ("t3", "dp0", "t1"),
        ("u1", "dp0", "t1"),
        ("t3", "dp0", "u1"),
        ("u2", "dp0", "t1"),
        ("t3", "dp0", "u2"),
        ("u1", "dp1", "mark"),
        ("u2", "dp1", "mark"),
    ]);
    let all3 = tp(v("da"), v("db"), v("dc"));
    let cases: Vec<Case> = vec![
        // More existential variables than pebbles at k = 2: unconstrained.
        (vec![all3], vec![], vec![]),
        (vec![all3, tp(i("dn0"), i("dp0"), v("da"))], vec![], vec![]),
        (vec![all3, tp(v("da"), i("dp1"), v("da"))], vec![], vec![]),
        // A variable in predicate position, repeated variables.
        (vec![tp(v("da"), v("db"), v("da"))], vec![], vec![]),
        (vec![tp(v("da"), v("da"), v("db"))], vec![], vec![]),
        (vec![tp(v("da"), v("db"), v("db"))], vec![], vec![]),
        // Fewer variables than pebbles; ground triples beside them.
        (
            vec![
                tp(v("da"), i("dp0"), v("db")),
                tp(i("dn1"), i("dp1"), i("dn2")),
            ],
            vec![],
            vec![],
        ),
        (
            vec![
                tp(v("da"), i("dp0"), v("db")),
                tp(i("dn2"), i("dp1"), i("dn1")),
            ],
            vec![],
            vec![],
        ),
        // µ sends X to a predicate, and to a term the graph lacks.
        (
            vec![tp(v("da"), v("dx"), v("db"))],
            vec!["dx"],
            vec![("dx", "dp0")],
        ),
        (
            vec![tp(v("dx"), v("da"), v("db"))],
            vec!["dx"],
            vec![("dx", "dp0")],
        ),
        (
            vec![tp(v("da"), i("dp0"), v("dx"))],
            vec!["dx"],
            vec![("dx", "absent")],
        ),
        // Two triples over one pair of variables.
        (
            vec![
                tp(v("da"), i("dp0"), v("db")),
                tp(v("da"), i("dp1"), v("db")),
            ],
            vec![],
            vec![],
        ),
        (
            vec![
                tp(v("da"), i("dp0"), v("db")),
                tp(v("da"), i("dp0"), v("dc")),
                tp(v("db"), i("dp0"), v("dc")),
            ],
            vec![],
            vec![],
        ),
        // A triangle through a marked node.
        (
            vec![
                tp(v("da"), i("dp0"), v("db")),
                tp(v("db"), i("dp0"), v("dc")),
                tp(v("dc"), i("dp0"), v("da")),
                tp(v("dc"), i("dp1"), i("mark")),
            ],
            vec![],
            vec![],
        ),
        // The triangle: lost with three pebbles on the 2-cycle, won with two.
        (
            vec![
                tp(v("da"), i("dp0"), v("db")),
                tp(v("db"), i("dp0"), v("dc")),
                tp(v("dc"), i("dp0"), v("da")),
            ],
            vec![],
            vec![],
        ),
    ];
    for (pats, x, mu) in cases {
        let src = GenTGraph::new(
            TGraph::from_patterns(pats),
            x.iter().map(|n| Variable::new(n)),
        );
        let mu = Mapping::from_strs(mu);
        for graph in [&cycle, &mixed, &chain, &split, &marked, &Vec::new()] {
            for k in 2..=4 {
                assert_eq!(
                    new_game(&src, graph, &mu, k),
                    old_game(&src, graph, &mu, k),
                    "k={k} src={src} µ={mu} G={graph:?}"
                );
            }
        }
    }
}
