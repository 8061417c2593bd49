//! Cross-crate differential tests: the reference bottom-up semantics, the
//! Lemma-1 naive evaluator, the solution enumerator, the Theorem 1
//! pebble evaluator and `Strategy::Auto`'s portfolio must all agree
//! wherever each is applicable.

use proptest::prelude::*;
use wdsparql::algebra::{eval, GraphPattern};
use wdsparql::core::{check_forest, check_forest_pebble, enumerate_forest};
use wdsparql::rdf::{iri, tp, var, Mapping, RdfGraph, Term, Triple};
use wdsparql::tree::Wdpf;
use wdsparql::{Engine, Query};

/// A small deterministic universe for random graphs and patterns.
const NODES: [&str; 4] = ["a", "b", "c", "d"];
const PREDS: [&str; 2] = ["p", "q"];

fn arb_graph() -> impl proptest::strategy::Strategy<Value = RdfGraph> {
    proptest::collection::vec((0..4usize, 0..2usize, 0..4usize), 0..10).prop_map(|triples| {
        RdfGraph::from_triples(
            triples
                .into_iter()
                .map(|(s, p, o)| Triple::from_strs(NODES[s], PREDS[p], NODES[o])),
        )
    })
}

/// Random *well-designed* UNION-free patterns, built top-down so the OPT
/// scope condition holds by construction: the right side of an OPT may use
/// left-side variables plus fresh privates, and privates never escape.
#[derive(Clone, Debug)]
enum Shape {
    Leaf,
    And(Box<Shape>, Box<Shape>),
    Opt(Box<Shape>, Box<Shape>),
}

fn arb_shape() -> impl proptest::strategy::Strategy<Value = Shape> {
    let leaf = Just(Shape::Leaf).boxed();
    leaf.prop_recursive(3, 8, 2, |inner| {
        prop_oneof![
            (inner.clone(), inner.clone()).prop_map(|(l, r)| Shape::And(Box::new(l), Box::new(r))),
            (inner.clone(), inner).prop_map(|(l, r)| Shape::Opt(Box::new(l), Box::new(r))),
        ]
    })
}

/// Instantiates a shape into a well-designed pattern. `scope` carries the
/// variables visible so far; fresh variables are globally numbered.
fn realize(
    shape: &Shape,
    scope: &mut Vec<Term>,
    counter: &mut usize,
    picks: &mut StdPicker,
) -> GraphPattern {
    match shape {
        Shape::Leaf => {
            let term =
                |scope: &mut Vec<Term>, counter: &mut usize, picks: &mut StdPicker| match picks
                    .next()
                    % 3
                {
                    0 if !scope.is_empty() => scope[picks.next() % scope.len()],
                    1 => iri(NODES[picks.next() % NODES.len()]),
                    _ => {
                        *counter += 1;
                        let v = var(&format!("pt{counter}"));
                        scope.push(v);
                        v
                    }
                };
            let s = term(scope, counter, picks);
            let o = term(scope, counter, picks);
            let p = iri(PREDS[picks.next() % PREDS.len()]);
            GraphPattern::Triple(tp(s, p, o))
        }
        Shape::And(l, r) => {
            let lp = realize(l, scope, counter, picks);
            let rp = realize(r, scope, counter, picks);
            GraphPattern::and(lp, rp)
        }
        Shape::Opt(l, r) => {
            let lp = realize(l, scope, counter, picks);
            // The optional side may reuse only the *safe* variables of its
            // own left side — those not private to a nested OPT (anything
            // else would occur outside that inner OPT and violate the
            // scope condition). Its fresh variables stay private (the
            // shared counter keeps them globally unique).
            let mut inner_scope: Vec<Term> = safe_vars(&lp).into_iter().map(Term::Var).collect();
            let rp = realize(r, &mut inner_scope, counter, picks);
            GraphPattern::opt(lp, rp)
        }
    }
}

/// Variables of a pattern that an enclosing optional part may reuse
/// without breaking well-designedness: everything except variables
/// private to some nested OPT's right side.
fn safe_vars(p: &GraphPattern) -> std::collections::BTreeSet<wdsparql::rdf::Variable> {
    match p {
        GraphPattern::Triple(t) => t.vars(),
        GraphPattern::And(l, r) => {
            let mut out = safe_vars(l);
            out.extend(safe_vars(r));
            out
        }
        GraphPattern::Opt(l, _) => safe_vars(l),
        GraphPattern::Union(l, r) => {
            let mut out = safe_vars(l);
            out.extend(safe_vars(r));
            out
        }
    }
}

/// Deterministic pick stream derived from a seed.
struct StdPicker {
    state: u64,
}

impl StdPicker {
    fn new(seed: u64) -> StdPicker {
        StdPicker {
            state: seed.wrapping_mul(0x9E3779B97F4A7C15).wrapping_add(1),
        }
    }
    fn next(&mut self) -> usize {
        self.state = self
            .state
            .wrapping_mul(6364136223846793005)
            .wrapping_add(1442695040888963407);
        (self.state >> 33) as usize
    }
}

fn arb_wd_pattern() -> impl proptest::strategy::Strategy<Value = GraphPattern> {
    (arb_shape(), any::<u64>()).prop_map(|(shape, seed)| {
        let mut scope = Vec::new();
        let mut counter = 0;
        let mut picks = StdPicker::new(seed);
        realize(&shape, &mut scope, &mut counter, &mut picks)
    })
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(48))]

    /// Generated patterns are well-designed by construction.
    #[test]
    fn generated_patterns_are_well_designed(p in arb_wd_pattern()) {
        prop_assert!(wdsparql::algebra::is_well_designed(&p),
            "not well-designed: {p}");
    }

    /// Enumeration over the wdPF agrees with the reference semantics.
    #[test]
    fn enumeration_matches_reference(p in arb_wd_pattern(), g in arb_graph()) {
        let f = Wdpf::from_pattern(&p).unwrap();
        let reference = eval(&p, &g);
        let enumerated = enumerate_forest(&f, &g);
        prop_assert_eq!(enumerated, reference, "pattern {}", p);
    }

    /// The naive Lemma-1 membership check agrees with the reference
    /// semantics, both on actual solutions and on perturbed mappings.
    #[test]
    fn naive_check_matches_reference(p in arb_wd_pattern(), g in arb_graph()) {
        let f = Wdpf::from_pattern(&p).unwrap();
        let reference = eval(&p, &g);
        for mu in reference.iter().take(8) {
            prop_assert!(check_forest(&f, &g, mu), "missing solution {} of {}", mu, p);
        }
        // Perturbations: restrictions of solutions are usually
        // non-solutions (unless another branch yields them) — compare
        // against the reference truth rather than assuming.
        for mu in reference.iter().take(4) {
            let dom: Vec<_> = mu.domain().collect();
            if dom.len() > 1 {
                let restricted = mu.restrict(dom[..dom.len()-1].iter().copied());
                prop_assert_eq!(
                    check_forest(&f, &g, &restricted),
                    reference.contains(&restricted),
                    "restriction of {} in {}", mu, p
                );
            }
        }
        // The empty mapping.
        let empty = Mapping::new();
        prop_assert_eq!(
            check_forest(&f, &g, &empty),
            reference.contains(&empty),
            "empty mapping on {}", p
        );
    }

    /// Pebble soundness is unconditional: accepting implies membership,
    /// for any k — even below the query's domination width.
    #[test]
    fn pebble_is_sound_at_any_k(p in arb_wd_pattern(), g in arb_graph(), k in 1usize..3) {
        let f = Wdpf::from_pattern(&p).unwrap();
        let reference = eval(&p, &g);
        let mut candidates: Vec<Mapping> = reference.iter().take(5).cloned().collect();
        candidates.push(Mapping::new());
        candidates.push(Mapping::from_strs([("pt1", "a")]));
        for mu in &candidates {
            if check_forest_pebble(&f, &g, mu, k) {
                prop_assert!(reference.contains(mu),
                    "false accept of {} at k={} on {}", mu, k, p);
            }
        }
    }

    /// With k at least the domination width, the pebble evaluator is
    /// exact. Small random patterns have small dw; we compute it.
    #[test]
    fn pebble_is_exact_at_dw(p in arb_wd_pattern(), g in arb_graph()) {
        let f = Wdpf::from_pattern(&p).unwrap();
        // Skip pathological cases where dw computation would be heavy.
        let nodes: usize = f.trees.iter().map(|t| t.len()).sum();
        prop_assume!(nodes <= 5);
        let dw = wdsparql::width::domination_width(&f);
        let reference = eval(&p, &g);
        let mut candidates: Vec<Mapping> = reference.iter().take(5).cloned().collect();
        candidates.push(Mapping::new());
        for mu in &candidates {
            prop_assert_eq!(
                check_forest_pebble(&f, &g, mu, dw),
                reference.contains(mu),
                "disagreement on {} (dw={}) for {}", mu, dw, p
            );
        }
    }

    /// `Strategy::Auto` (exact child tests under a step budget, the game
    /// at `dw` for the rest) is exact: it equals the Lemma 1 check on
    /// solutions, on restrictions of solutions and on the empty mapping.
    #[test]
    fn auto_is_exact(p in arb_wd_pattern(), g in arb_graph()) {
        let f = Wdpf::from_pattern(&p).unwrap();
        let mut candidates: Vec<Mapping> = eval(&p, &g).iter().take(5).cloned().collect();
        let restricted: Vec<Mapping> = candidates
            .iter()
            .filter_map(|mu| {
                let dom: Vec<_> = mu.domain().collect();
                (dom.len() > 1).then(|| mu.restrict(dom[..dom.len() - 1].iter().copied()))
            })
            .collect();
        candidates.extend(restricted);
        candidates.push(Mapping::new());
        let query = Query::from_pattern(p.clone()).unwrap();
        let engine = Engine::new(g.clone());
        for mu in &candidates {
            prop_assert_eq!(
                engine.check(&query, mu, wdsparql::Strategy::Auto),
                check_forest(&f, &g, mu),
                "Auto disagrees on {} for {}", mu, p
            );
        }
    }
}
