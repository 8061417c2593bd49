//! Property tests for pattern trees: translation, NR normalisation and
//! subtree machinery on randomly shaped (well-designed by construction)
//! patterns.

use proptest::prelude::*;
use wdsparql_algebra::{eval, GraphPattern};
use wdsparql_hom::TGraph;
use wdsparql_rdf::{iri, tp, var, RdfGraph, Term, Triple, Variable};
use wdsparql_tree::{
    enumerate_subtrees, is_valid_subtree, pattern_from_wdpt, subtree_children, subtree_vars,
    subtree_with_vars, wdpt_from_pattern, Wdpt, ROOT,
};

/// Well-designed UNION-free patterns by construction (same technique as
/// the workspace-level tests): OPT right sides get private fresh
/// variables.
fn arb_wd_pattern() -> impl Strategy<Value = GraphPattern> {
    fn gen(depth: usize) -> BoxedStrategy<(GraphPattern, usize)> {
        // Returns (pattern, fresh counter consumed) built over var ids
        // [base..base+consumed). To keep things deterministic we thread a
        // seed through proptest's own RNG choices instead.
        let leaf = (0..3usize, 0..2usize, 0..3usize)
            .prop_map(|(a, p, b)| {
                let t = tp(
                    var(&format!("tv{a}")),
                    iri(["tp", "tq"][p]),
                    var(&format!("tv{b}")),
                );
                (GraphPattern::Triple(t), 0usize)
            })
            .boxed();
        if depth == 0 {
            return leaf;
        }
        let sub = gen(depth - 1);
        let sub2 = gen(depth - 1);
        prop_oneof![
            leaf,
            (sub.clone(), sub2.clone())
                .prop_map(|((l, _), (r, _))| { (GraphPattern::and(l, r), 0) }),
            (sub, sub2, 0..1000usize).prop_map(|((l, _), (r, _), salt)| {
                // Rename the right side's variables to privates so the OPT
                // scope condition holds.
                let renamed = rename_vars(&r, &format!("opt{salt}"));
                (GraphPattern::opt(l, renamed), 0)
            }),
        ]
        .boxed()
    }
    gen(3).prop_map(|(p, _)| p)
}

fn rename_vars(p: &GraphPattern, suffix: &str) -> GraphPattern {
    match p {
        GraphPattern::Triple(t) => {
            let f = |term: Term| match term {
                Term::Var(v) => var(&format!("{}_{suffix}", v.name())),
                other => other,
            };
            GraphPattern::Triple(tp(f(t.s), f(t.p), f(t.o)))
        }
        GraphPattern::And(l, r) => {
            GraphPattern::and(rename_vars(l, suffix), rename_vars(r, suffix))
        }
        GraphPattern::Opt(l, r) => {
            GraphPattern::opt(rename_vars(l, suffix), rename_vars(r, suffix))
        }
        GraphPattern::Union(l, r) => {
            GraphPattern::union(rename_vars(l, suffix), rename_vars(r, suffix))
        }
    }
}

fn arb_graph() -> impl Strategy<Value = RdfGraph> {
    proptest::collection::vec((0..4usize, 0..2usize, 0..4usize), 0..10).prop_map(|ts| {
        RdfGraph::from_triples(ts.into_iter().map(|(s, p, o)| {
            Triple::from_strs(&format!("tn{s}"), ["tp", "tq"][p], &format!("tn{o}"))
        }))
    })
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(48))]

    /// Translation accepts exactly the well-designed patterns we generate
    /// and produces validated NR-normal-form trees.
    #[test]
    fn translation_produces_valid_nr_trees(p in arb_wd_pattern()) {
        prop_assume!(wdsparql_algebra::is_well_designed(&p));
        let t = wdpt_from_pattern(&p).expect("well-designed translates");
        prop_assert!(t.validate().is_ok());
        prop_assert!(t.is_nr_normal_form());
    }

    /// The inverse translation preserves semantics.
    #[test]
    fn translation_roundtrip_semantics(p in arb_wd_pattern(), g in arb_graph()) {
        prop_assume!(wdsparql_algebra::is_well_designed(&p));
        let t = wdpt_from_pattern(&p).unwrap();
        let back = pattern_from_wdpt(&t);
        prop_assert_eq!(eval(&p, &g), eval(&back, &g));
    }

    /// Subtree enumeration yields only valid subtrees; their children are
    /// disjoint from the subtree and attach to it.
    #[test]
    fn subtree_enumeration_invariants(p in arb_wd_pattern()) {
        prop_assume!(wdsparql_algebra::is_well_designed(&p));
        let t = wdpt_from_pattern(&p).unwrap();
        let subs = enumerate_subtrees(&t);
        // Count: subtrees of a rooted tree = ∏ over children products; at
        // minimum 1 (root alone), at most 2^(n-1) + ... just bound it.
        prop_assert!(!subs.is_empty());
        for s in &subs {
            prop_assert!(is_valid_subtree(&t, s));
            for c in subtree_children(&t, s) {
                prop_assert!(!s.contains(&c));
                prop_assert!(s.contains(&t.parent(c).unwrap()));
            }
        }
        // Subtrees are pairwise distinct.
        let set: std::collections::BTreeSet<_> = subs.iter().cloned().collect();
        prop_assert_eq!(set.len(), subs.len());
    }

    /// NR normalisation preserves semantics on hand-degraded trees: we
    /// build a tree, add a redundant filter child, and compare.
    #[test]
    fn nr_normalisation_preserves_semantics(g in arb_graph(), a in 0..3usize, b in 0..3usize) {
        let mut t = Wdpt::new(TGraph::from_patterns([tp(
            var("nx"), iri("tp"), var("ny"),
        )]));
        // Redundant child: uses only root variables.
        let filt = t.add_child(ROOT, TGraph::from_patterns([tp(
            var(["nx", "ny", "nx"][a]), iri("tq"), var(["ny", "nx", "nx"][b]),
        )]));
        // A real grandchild with a fresh variable.
        t.add_child(filt, TGraph::from_patterns([tp(
            var("ny"), iri("tp"), var("nz"),
        )]));
        let before = pattern_from_wdpt(&t);
        let mut t2 = t.clone();
        t2.nr_normalize();
        prop_assert!(t2.is_nr_normal_form());
        let after = pattern_from_wdpt(&t2);
        prop_assert_eq!(eval(&before, &g), eval(&after, &g));
    }

    /// vars of a subtree = union of node vars, and the witness-subtree
    /// finder returns the subtree back from its variables — the witness is
    /// unique in NR normal form (Lemma 1's premise) — and nothing once a
    /// variable the tree lacks is added.
    #[test]
    fn subtree_vars_are_unions(p in arb_wd_pattern()) {
        prop_assume!(wdsparql_algebra::is_well_designed(&p));
        let t = wdpt_from_pattern(&p).unwrap();
        for s in enumerate_subtrees(&t) {
            let direct = subtree_vars(&t, &s);
            let mut expected = std::collections::BTreeSet::new();
            for &n in &s {
                expected.extend(t.vars(n));
            }
            prop_assert_eq!(&direct, &expected);
            prop_assert_eq!(subtree_with_vars(&t, &direct), Some(s.clone()));
            let mut beyond = direct;
            beyond.insert(Variable::new("not_in_any_tree"));
            prop_assert_eq!(subtree_with_vars(&t, &beyond), None);
        }
    }
}
