//! Differential test of the set-at-a-time enumerator
//! (`core::enumerate`): on generated well-designed AND/OPT/UNION patterns
//! and on a table of corner cases it must equal both the Pérez et al.
//! reference semantics (`algebra::eval`) and the tuple-at-a-time
//! reference walker (`enumerate_with_stats`), on every backend and under
//! every join strategy.
//!
//! A node-join step either probes the index per row or scans a pattern
//! once and hash-joins; the rule compares the pattern's candidate count
//! with the number of rows to extend. Graphs here run from empty to a
//! few dozen triples per predicate and patterns from anchored (a handful
//! of rows) to open (every triple of a predicate), so both sides of the
//! rule are taken — `both_sides_of_the_scan_rule_are_exercised` pins that
//! with a counting index.
//!
//! Replay or vary the generated cases with `PROPTEST_SEED=<n>`.

use proptest::prelude::*;
use std::cell::Cell;
use wdsparql::algebra::{eval, is_well_designed, parse_pattern, GraphPattern};
use wdsparql::core::{enumerate_forest_with, enumerate_with_stats, JoinStrategy};
use wdsparql::hom::TGraph;
use wdsparql::rdf::{
    iri, tp, var, Iri, Mapping, RdfGraph, Term, Triple, TripleIndex, TriplePattern,
};
use wdsparql::tree::{pattern_from_wdpf, Wdpf, Wdpt, ROOT};
use wdsparql::{ShardedStore, TripleStore};

const STRATEGIES: [JoinStrategy; 3] = [
    JoinStrategy::Pairwise,
    JoinStrategy::Wco,
    JoinStrategy::Auto,
];
const PREDS: [&str; 3] = ["p", "q", "r"];

/// Deterministic pick stream derived from a seed.
struct Picker(u64);

impl Picker {
    fn below(&mut self, n: usize) -> usize {
        self.0 = self
            .0
            .wrapping_mul(6364136223846793005)
            .wrapping_add(1442695040888963407);
        ((self.0 >> 33) as usize) % n
    }
}

fn node(i: usize) -> Term {
    iri(&format!("n{i}"))
}

/// Up to 90 triples over up to 24 nodes and three predicates, self-loops
/// included: per predicate anything from nothing to ~30 candidates. At
/// most five triples per node, or solution counts (and the reference
/// evaluator's time) grow by a factor per pattern variable.
fn gen_graph(pick: &mut Picker) -> Vec<Triple> {
    let triples = [0, 3, 12, 40, 90][pick.below(5)];
    let nodes = (2 + pick.below(23)).max(triples / 5);
    (0..triples)
        .map(|_| {
            Triple::from_strs(
                &format!("n{}", pick.below(nodes)),
                PREDS[pick.below(PREDS.len())],
                &format!("n{}", pick.below(nodes)),
            )
        })
        .collect()
}

/// A term of a generated triple: mostly a variable already in reach
/// (`scope`, the parent's BGP, or `own`, this BGP so far), else a constant
/// node or a fresh variable. Variables it hands out are added to `own`.
fn gen_term(
    scope: &[Term],
    own: &mut Vec<Term>,
    connect: bool,
    fresh: &mut usize,
    nodes: usize,
    pick: &mut Picker,
) -> Term {
    let known: Vec<Term> = scope.iter().chain(own.iter()).copied().collect();
    let t = match pick.below(8) {
        0..=3 if !known.is_empty() => known[pick.below(known.len())],
        4 if !connect => node(pick.below(nodes)),
        _ if connect && !known.is_empty() => known[pick.below(known.len())],
        _ => {
            *fresh += 1;
            var(&format!("sw{fresh}"))
        }
    };
    if t.is_var() && !own.contains(&t) {
        own.push(t);
    }
    t
}

/// One node of a pattern tree as a pattern: a BGP of one to three triples
/// with up to two optional children, each of which may reuse this BGP's
/// variables only. Well-designed by construction.
fn gen_node(
    depth: usize,
    scope: &[Term],
    fresh: &mut usize,
    nodes: usize,
    pick: &mut Picker,
) -> GraphPattern {
    let mut own: Vec<Term> = Vec::new();
    let mut bgp: Vec<TriplePattern> = Vec::new();
    for _ in 0..[1, 1, 2, 2, 3][pick.below(5)] {
        // Subjects hang off the parent or what the BGP already has: the
        // reference evaluator pays for every cartesian product in full
        // (the corner table has the child with an empty interface).
        let connect = !(scope.is_empty() && bgp.is_empty());
        let s = gen_term(scope, &mut own, connect, fresh, nodes, pick);
        let o = gen_term(scope, &mut own, false, fresh, nodes, pick);
        let p = match pick.below(10) {
            0 => gen_term(scope, &mut own, false, fresh, nodes, pick),
            _ => iri(PREDS[pick.below(PREDS.len())]),
        };
        bgp.push(tp(s, p, o));
    }
    let mut pattern = GraphPattern::and_all(bgp);
    if depth > 0 {
        for _ in 0..pick.below(3) {
            let child = gen_node(depth - 1, &own, fresh, nodes, pick);
            pattern = GraphPattern::opt(pattern, child);
        }
    }
    pattern
}

/// A UNION of one to three trees. Every tree numbers its variables from
/// one, so trees share names and their solutions can coincide.
fn gen_pattern(nodes: usize, pick: &mut Picker) -> GraphPattern {
    let trees = [1, 1, 2, 3][pick.below(4)];
    GraphPattern::union_all((0..trees).map(|_| gen_node(2, &[], &mut 0, nodes, pick)))
}

/// The three backends over the same triples: the hash-indexed graph, a
/// store loaded in four batches and left uncompacted, and three shards.
struct Backends {
    plain: RdfGraph,
    store: TripleStore,
    sharded: ShardedStore,
}

impl Backends {
    fn new(triples: &[Triple]) -> Backends {
        let store = TripleStore::new();
        let sharded = ShardedStore::new(3);
        for batch in triples.chunks(triples.len().div_ceil(4).max(1)) {
            store.bulk_load(batch.iter().copied());
            sharded.bulk_load(batch.iter().copied());
        }
        Backends {
            plain: RdfGraph::from_triples(triples.iter().copied()),
            store,
            sharded,
        }
    }

    fn each(&self, mut f: impl FnMut(&str, &dyn TripleIndex)) {
        f("RdfGraph", &self.plain);
        self.store.with_index(|g| f("TripleStore", g));
        self.sharded.with_index(|g| f("ShardedStore(3)", g));
    }
}

/// Every backend × strategy against the reference semantics and the
/// reference walker.
fn assert_agreement(p: &GraphPattern, f: &Wdpf, triples: &[Triple]) -> Result<(), String> {
    let backends = Backends::new(triples);
    let want = eval(p, &backends.plain);
    let walked = enumerate_with_stats(f, &backends.plain).0;
    if walked != want {
        return Err(format!("walker {walked:?}, reference {want:?} for {p}"));
    }
    let mut result = Ok(());
    backends.each(|backend, g| {
        for strategy in STRATEGIES {
            let got = enumerate_forest_with(f, g, strategy);
            if got != want && result.is_ok() {
                result = Err(format!(
                    "{backend}/{strategy}: {got:?}, reference {want:?} for {p} on {triples:?}"
                ));
            }
        }
    });
    result
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(96))]

    #[test]
    fn setwise_enumeration_matches_both_references(seed in any::<u64>()) {
        let mut pick = Picker(seed | 1);
        let triples = gen_graph(&mut pick);
        let p = gen_pattern(24, &mut pick);
        prop_assert!(is_well_designed(&p), "generator broke well-designedness: {p}");
        let f = Wdpf::from_pattern(&p).unwrap();
        if let Err(msg) = assert_agreement(&p, &f, &triples) {
            return Err(TestCaseError::fail(msg));
        }
    }
}

fn triples_of(spec: &[(&str, &str, &str)]) -> Vec<Triple> {
    spec.iter()
        .map(|(s, p, o)| Triple::from_strs(s, p, o))
        .collect()
}

fn check_text(text: &str, triples: &[Triple]) -> usize {
    let p = parse_pattern(text).unwrap();
    let f = Wdpf::from_pattern(&p).unwrap();
    assert_agreement(&p, &f, triples).unwrap_or_else(|msg| panic!("{msg}"));
    eval(&p, &RdfGraph::from_triples(triples.iter().copied())).len()
}

/// A hand-built tree (the translation would normalise these shapes away).
fn check_tree(t: Wdpt, triples: &[Triple]) -> usize {
    let f = Wdpf::new(vec![t]);
    let p = pattern_from_wdpf(&f);
    assert_agreement(&p, &f, triples).unwrap_or_else(|msg| panic!("{msg}"));
    eval(&p, &RdfGraph::from_triples(triples.iter().copied())).len()
}

fn bgp(triples: &[TriplePattern]) -> TGraph {
    TGraph::from_patterns(triples.iter().copied())
}

#[test]
fn corner_empty_graph() {
    for text in [
        "(?x, p, ?y)",
        "(?x, p, ?y) OPT (?y, q, ?z)",
        "(a, p, b) OPT (?y, q, ?z)",
        "((?x, p, ?y) OPT (?y, q, ?z)) UNION (?x, q, ?y)",
    ] {
        assert_eq!(check_text(text, &[]), 0, "{text}");
    }
}

/// Ground patterns have zero-width rows: one empty mapping or none.
#[test]
fn corner_ground_patterns() {
    let g = triples_of(&[("a", "p", "b"), ("b", "q", "c"), ("a", "q", "a")]);
    assert_eq!(check_text("(a, p, b)", &g), 1);
    assert_eq!(check_text("(a, p, c)", &g), 0);
    assert_eq!(check_text("(a, p, b) AND (b, q, c)", &g), 1);
    assert_eq!(check_text("(a, p, b) OPT (?y, q, ?z)", &g), 2);
    // A ground child extends with nothing or is skipped; either way the
    // parent's rows stand and its sibling extends them.
    for present in ["b", "zzz"] {
        let mut t = Wdpt::new(bgp(&[tp(var("x"), iri("q"), var("y"))]));
        t.add_child(ROOT, bgp(&[tp(iri("a"), iri("p"), iri(present))]));
        t.add_child(ROOT, bgp(&[tp(var("y"), iri("q"), var("z"))]));
        assert_eq!(check_tree(t, &g), 2, "ground child (a, p, {present})");
    }
}

#[test]
fn corner_child_with_an_empty_interface() {
    let g = triples_of(&[
        ("a", "p", "b"),
        ("c", "p", "d"),
        ("e", "q", "f"),
        ("g", "q", "h"),
        ("i", "q", "j"),
    ]);
    // Every root row takes every extension of the one (empty) key.
    assert_eq!(check_text("(?x, p, ?y) OPT (?u, q, ?v)", &g), 6);
    assert_eq!(check_text("(?x, p, ?y) OPT (?u, r, ?v)", &g), 2);
}

#[test]
fn corner_repeated_variable_in_one_triple() {
    let g = triples_of(&[
        ("a", "p", "a"),
        ("a", "p", "b"),
        ("b", "p", "b"),
        ("b", "q", "b"),
        ("c", "p", "d"),
    ]);
    assert_eq!(check_text("(?x, p, ?x)", &g), 2);
    assert_eq!(check_text("(?x, p, ?y) OPT (?y, q, ?y)", &g), 4);
    assert_eq!(check_text("(?x, p, ?x) OPT (?x, ?l, ?x)", &g), 3);
    assert_eq!(check_text("(?x, ?x, ?x)", &g), 0);
}

/// Two siblings on the same interface variable, both with several
/// extensions: the product, per root row.
#[test]
fn corner_multi_extension_siblings_multiply() {
    let mut spec = vec![("a", "p", "b"), ("c", "p", "d"), ("e", "p", "f")];
    spec.extend([("b", "q", "u1"), ("b", "q", "u2"), ("b", "q", "u3")]);
    spec.extend([("b", "r", "v1"), ("b", "r", "v2")]);
    spec.extend([("d", "q", "u1")]);
    let g = triples_of(&spec);
    let text = "((?x, p, ?y) OPT (?y, q, ?u)) OPT (?y, r, ?v)";
    assert_eq!(check_text(text, &g), 3 * 2 + 1 + 1);
}

/// `?y` has no `q` edge, so the middle node is skipped and the third
/// with it — although `r` edges exist that would extend it.
#[test]
fn corner_skipped_middle_node_hides_its_subtree() {
    let g = triples_of(&[
        ("a", "p", "b"),
        ("c", "p", "d"),
        ("d", "q", "e"),
        ("e", "r", "f"),
        ("b", "r", "g"),
        ("zzz", "r", "g"),
    ]);
    let text = "(?x, p, ?y) OPT ((?y, q, ?z) OPT (?z, r, ?w))";
    let p = parse_pattern(text).unwrap();
    assert_eq!(check_text(text, &g), 2);
    let sols = eval(&p, &RdfGraph::from_triples(g.iter().copied()));
    assert!(sols.contains(&Mapping::from_strs([("x", "a"), ("y", "b")])));
    assert!(sols.contains(&Mapping::from_strs([
        ("x", "c"),
        ("y", "d"),
        ("z", "e"),
        ("w", "f")
    ])));
}

#[test]
fn corner_union_trees_with_overlapping_solutions() {
    let g = triples_of(&[("a", "p", "b"), ("b", "q", "c"), ("d", "p", "e")]);
    // (d, e) comes out of both trees, (a, b) extended by one only.
    let text = "((?x, p, ?y) OPT (?y, q, ?z)) UNION ((?x, p, ?y) OPT (?y, r, ?z))";
    assert_eq!(check_text(text, &g), 3);
    assert_eq!(check_text("(?x, p, ?y) UNION (?x, p, ?y)", &g), 2);
}

#[test]
fn corner_cyclic_cores() {
    let g = triples_of(&[
        ("1", "r", "2"),
        ("2", "r", "3"),
        ("3", "r", "1"),
        ("1", "r", "3"),
        ("2", "r", "4"),
        ("4", "r", "2"),
        ("3", "q", "x"),
        ("9", "p", "1"),
        ("9", "p", "2"),
        ("9", "p", "4"),
        ("8", "p", "7"),
    ]);
    // A cyclic root.
    let triangle = "((?a, r, ?b) AND (?b, r, ?c)) AND (?c, r, ?a)";
    assert_eq!(check_text(triangle, &g), 3);
    assert_eq!(check_text(&format!("({triangle}) OPT (?c, q, ?w)"), &g), 3);
    // A cyclic child whose interface breaks the cycle: with ?a bound the
    // triangle is a path.
    assert_eq!(
        check_text(&format!("(?s, p, ?a) OPT ({triangle})"), &g),
        1 + 1 + 1 + 1
    );
    // A cyclic child that stays cyclic under its interface.
    let text = format!("(?s, p, ?t) OPT (({triangle}) AND (?a, r, ?t))");
    check_text(&text, &g);
}

/// A `TripleIndex` that counts `match_pattern` calls.
struct Counting<'a> {
    inner: &'a RdfGraph,
    matches: Cell<usize>,
}

impl TripleIndex for Counting<'_> {
    fn len(&self) -> usize {
        self.inner.len()
    }
    fn contains(&self, t: &Triple) -> bool {
        self.inner.contains(t)
    }
    fn triples(&self) -> Box<dyn Iterator<Item = Triple> + '_> {
        TripleIndex::triples(self.inner)
    }
    fn dom(&self) -> Box<dyn Iterator<Item = Iri> + '_> {
        TripleIndex::dom(self.inner)
    }
    fn dom_contains(&self, i: Iri) -> bool {
        self.inner.dom_contains(i)
    }
    fn candidate_count(&self, pat: &TriplePattern) -> usize {
        self.inner.candidate_count(pat)
    }
    fn match_pattern(&self, pat: &TriplePattern) -> Vec<Triple> {
        self.matches.set(self.matches.get() + 1);
        self.inner.match_pattern(pat)
    }
}

/// The same OPT on two graphs: with many `q` triples per key the child is
/// probed once per distinct key; with few it is scanned once, however
/// many keys there are.
#[test]
fn both_sides_of_the_scan_rule_are_exercised() {
    let p = parse_pattern("(?x, p, ?y) OPT (?y, q, ?z)").unwrap();
    let f = Wdpf::from_pattern(&p).unwrap();
    let matches_on = |triples: &[Triple]| {
        let plain = RdfGraph::from_triples(triples.iter().copied());
        let counting = Counting {
            inner: &plain,
            matches: Cell::new(0),
        };
        let got = enumerate_forest_with(&f, &counting, JoinStrategy::Auto);
        assert_eq!(got, eval(&p, &plain));
        counting.matches.get()
    };
    // Three keys (two rows share `k0`), 200 `q` triples: 1 root scan and
    // one probe per distinct key.
    let mut dense: Vec<Triple> = (0..200)
        .map(|i| Triple::from_strs(&format!("k{}", i % 4), "q", &format!("o{i}")))
        .collect();
    dense.extend(triples_of(&[
        ("a", "p", "k0"),
        ("b", "p", "k0"),
        ("c", "p", "k1"),
        ("d", "p", "k9"),
    ]));
    assert_eq!(matches_on(&dense), 1 + 3);
    // Fifty keys, 60 `q` triples: 1 root scan and one child scan.
    let mut sparse: Vec<Triple> = (0..50)
        .map(|i| Triple::from_strs(&format!("s{i}"), "p", &format!("k{i}")))
        .collect();
    sparse.extend((0..60).map(|i| Triple::from_strs(&format!("k{}", i % 55), "q", "o")));
    assert_eq!(matches_on(&sparse), 1 + 1);
}

/// The store backend of this file really reads uncompacted segments.
#[test]
fn store_backend_is_left_uncompacted() {
    let triples: Vec<Triple> = (0..40)
        .map(|i| Triple::from_strs(&format!("n{i}"), "p", &format!("n{}", i + 1)))
        .collect();
    let backends = Backends::new(&triples);
    assert!(backends.store.stats().segments > 1);
    assert_eq!(backends.sharded.len(), 40);
}
