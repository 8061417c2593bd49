//! Property tests for the homomorphism/core/treewidth toolkit.

use proptest::prelude::*;
use std::cell::Cell;
use wdsparql_hom::{
    core_of, decomposition_from_order, find_hom, find_hom_into_graph, find_hom_into_graph_within,
    hom_equivalent, is_core, min_degree_order, min_fill_order, mmd_lower_bound, treewidth,
    verify_decomposition, width_of_order, GenTGraph, TGraph, UGraph, Undecided,
};
use wdsparql_rdf::{
    iri, tp, var, Iri, Mapping, RdfGraph, Term, Triple, TripleIndex, TriplePattern, Variable,
};

/// Random small t-graphs over 5 variables, 2 predicates, 2 constants.
fn arb_tgraph() -> impl Strategy<Value = TGraph> {
    proptest::collection::vec((0..7usize, 0..2usize, 0..7usize), 1..8).prop_map(|triples| {
        let term = |i: usize| -> Term {
            if i < 5 {
                var(&format!("ht{i}"))
            } else {
                iri(&format!("hc{i}"))
            }
        };
        TGraph::from_patterns(
            triples
                .into_iter()
                .map(|(s, p, o)| tp(term(s), iri(["hp", "hq"][p]), term(o))),
        )
    })
}

/// Random distinguished subset of the t-graph's variables.
fn arb_gen_tgraph() -> impl Strategy<Value = GenTGraph> {
    (arb_tgraph(), proptest::collection::vec(any::<bool>(), 5)).prop_map(|(s, mask)| {
        let vars: Vec<Variable> = s
            .vars()
            .into_iter()
            .enumerate()
            .filter(|(i, _)| mask.get(*i).copied().unwrap_or(false))
            .map(|(_, v)| v)
            .collect();
        GenTGraph::new(s, vars)
    })
}

fn arb_graph() -> impl Strategy<Value = RdfGraph> {
    arb_graph_of(0..10)
}

fn arb_graph_of(triples: std::ops::Range<usize>) -> impl Strategy<Value = RdfGraph> {
    proptest::collection::vec((0..4usize, 0..2usize, 0..4usize), triples).prop_map(|triples| {
        RdfGraph::from_triples(triples.into_iter().map(|(s, p, o)| {
            Triple::from_strs(&format!("hn{s}"), ["hp", "hq"][p], &format!("hn{o}"))
        }))
    })
}

/// Random small t-graphs whose constants are nodes of [`arb_graph`]'s
/// graphs, so that searches into them get somewhere before they fail.
fn arb_query_tgraph() -> impl Strategy<Value = TGraph> {
    proptest::collection::vec((0..5usize, 0..2usize, 0..5usize), 1..6).prop_map(|triples| {
        let term = |i: usize| -> Term {
            if i < 4 {
                var(&format!("ht{i}"))
            } else {
                iri("hn0")
            }
        };
        TGraph::from_patterns(
            triples
                .into_iter()
                .map(|(s, p, o)| tp(term(s), iri(["hp", "hq"][p]), term(o))),
        )
    })
}

/// `g` with a count of the rows its `match_pattern` hands out: the
/// solver draws its candidate images from those rows, so after a search
/// the count bounds the candidates it tried (and equals it when the
/// search found nothing, since then every list is tried in full).
struct RowCounting<'a> {
    g: &'a RdfGraph,
    rows: Cell<usize>,
}

impl TripleIndex for RowCounting<'_> {
    fn len(&self) -> usize {
        self.g.len()
    }
    fn contains(&self, t: &Triple) -> bool {
        self.g.contains(t)
    }
    fn triples(&self) -> Box<dyn Iterator<Item = Triple> + '_> {
        self.g.triples()
    }
    fn dom(&self) -> Box<dyn Iterator<Item = Iri> + '_> {
        TripleIndex::dom(self.g)
    }
    fn dom_contains(&self, i: Iri) -> bool {
        self.g.dom_contains(i)
    }
    fn candidate_count(&self, pat: &TriplePattern) -> usize {
        self.g.candidate_count(pat)
    }
    fn match_pattern(&self, pat: &TriplePattern) -> Vec<Triple> {
        let rows = self.g.match_pattern(pat);
        self.rows.set(self.rows.get() + rows.len());
        rows
    }
}

fn arb_ugraph() -> impl Strategy<Value = UGraph> {
    (2usize..9, proptest::collection::vec(any::<bool>(), 36)).prop_map(|(n, coins)| {
        let mut g = UGraph::new(n);
        let mut idx = 0;
        for u in 0..n {
            for v in (u + 1)..n {
                if coins[idx % coins.len()] {
                    g.add_edge(u, v);
                }
                idx += 1;
            }
        }
        g
    })
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(64))]

    /// The core is hom-equivalent to the input, is itself a core, is a
    /// subgraph, and coring is idempotent (Proposition 1).
    #[test]
    fn core_properties(g in arb_gen_tgraph()) {
        let c = core_of(&g);
        prop_assert!(c.s.is_subset(&g.s));
        prop_assert!(is_core(&c));
        prop_assert!(hom_equivalent(&c, &g));
        prop_assert_eq!(core_of(&c), c);
    }

    /// Hom found ⇒ the witness actually maps every triple.
    #[test]
    fn hom_witnesses_are_valid(a in arb_gen_tgraph(), b in arb_tgraph()) {
        if let Some(h) = find_hom(&a, &b) {
            let image = a.s.apply(&h);
            prop_assert!(image.is_subset(&b), "image {} ⊄ {}", image, b);
            for x in &a.x {
                prop_assert_eq!(h.get(x).copied(), Some(Term::Var(*x)));
            }
        }
    }

    /// Graph homomorphism witnesses check out, and identity always maps a
    /// graph-shaped t-graph into its own RDF graph.
    #[test]
    fn graph_hom_witnesses_are_valid(a in arb_tgraph(), g in arb_graph()) {
        let src = GenTGraph::new(a.clone(), []);
        if let Some(mu) = find_hom_into_graph(&src, &g, &Mapping::new()) {
            prop_assert!(a.maps_into_under(&mu, &g));
        }
    }

    /// The budgeted search answers as the unbounded one does or gives up;
    /// deciding at one budget means deciding at every larger one; and it
    /// never gives up once the budget covers the candidates the unbounded
    /// search tried.
    #[test]
    fn budgeted_search_is_exact_monotone_and_complete(
        s in arb_query_tgraph(),
        g in arb_graph_of(6..20),
        pins in proptest::collection::vec(0..8usize, 4),
    ) {
        // Pin some variables to graph nodes, as µ does (a pin of 4 or more
        // leaves the variable free).
        let pinned: Vec<(Variable, Iri)> = s
            .vars()
            .into_iter()
            .zip(&pins)
            .filter(|&(_, &n)| n < 4)
            .map(|(v, n)| (v, Iri::new(&format!("hn{n}"))))
            .collect();
        let a = GenTGraph::new(s, pinned.iter().map(|&(v, _)| v));
        let fixed = Mapping::from_pairs(pinned);
        let counting = RowCounting { g: &g, rows: Cell::new(0) };
        let unbounded = find_hom_into_graph(&a, &counting, &fixed);
        let tried = counting.rows.get();
        let mut decided_at = None;
        for steps in (0..=tried.min(256)).chain([tried, tried + 1, usize::MAX]) {
            match find_hom_into_graph_within(&a, &g, &fixed, steps) {
                Ok(answer) => {
                    prop_assert_eq!(answer.is_some(), unbounded.is_some(), "steps = {}", steps);
                    if let Some(mu) = &answer {
                        prop_assert!(a.s.maps_into_under(mu, &g));
                    }
                    decided_at.get_or_insert(steps);
                }
                Err(Undecided) => prop_assert!(
                    decided_at.is_none() && steps < tried,
                    "gave up at {} steps after deciding at {:?}, {} tried unbounded",
                    steps, decided_at, tried
                ),
            }
        }
    }

    /// → is transitive through the core: S → core(S) → S.
    #[test]
    fn core_retraction_composes(g in arb_gen_tgraph()) {
        let c = core_of(&g);
        prop_assert!(find_hom(&g, &c.s).is_some());
        prop_assert!(find_hom(&c, &g.s).is_some());
    }

    /// Treewidth: lower bound ≤ width ≤ any elimination-order width, and
    /// decompositions from greedy orders verify.
    #[test]
    fn treewidth_bounds_and_decompositions(g in arb_ugraph()) {
        let tw = treewidth(&g);
        prop_assert!(tw.exact);
        prop_assert!(mmd_lower_bound(&g) <= tw.width);
        for order in [min_fill_order(&g), min_degree_order(&g)] {
            let w = width_of_order(&g, &order);
            prop_assert!(w >= tw.width);
            let td = decomposition_from_order(&g, &order);
            let verified = verify_decomposition(&g, &td).expect("valid decomposition");
            prop_assert_eq!(verified, td.width());
            prop_assert!(verified >= tw.width);
        }
    }

    /// Treewidth is monotone under taking subgraphs (edge deletion).
    #[test]
    fn treewidth_monotone_under_edge_deletion(g in arb_ugraph()) {
        let tw = treewidth(&g).width;
        let edges = g.edges();
        if let Some(&(u, v)) = edges.first() {
            let mut smaller = UGraph::new(g.n());
            for &(a, b) in &edges {
                if (a, b) != (u, v) {
                    smaller.add_edge(a, b);
                }
            }
            prop_assert!(treewidth(&smaller).width <= tw);
        }
    }
}
