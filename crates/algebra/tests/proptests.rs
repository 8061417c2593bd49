//! Property tests for the algebra crate: parser round-trips and algebraic
//! laws of the reference semantics.

use proptest::prelude::*;
use std::collections::BTreeSet;
use wdsparql_algebra::{
    check_well_designed, eval, join, left_outer_join, parse_pattern, GraphPattern, SolutionSet,
    WdViolation,
};
use wdsparql_rdf::{iri, tp, var, RdfGraph, Term, Triple, Variable};

fn arb_term() -> impl Strategy<Value = Term> {
    prop_oneof![
        (0..4usize).prop_map(|i| var(&format!("av{i}"))),
        (0..3usize).prop_map(|i| iri(&format!("ac{i}"))),
    ]
}

fn arb_pattern() -> impl Strategy<Value = GraphPattern> {
    let leaf = (arb_term(), 0..2usize, arb_term())
        .prop_map(|(s, p, o)| GraphPattern::Triple(tp(s, iri(["ap", "aq"][p]), o)));
    leaf.prop_recursive(3, 10, 2, |inner| {
        prop_oneof![
            (inner.clone(), inner.clone()).prop_map(|(l, r)| GraphPattern::and(l, r)),
            (inner.clone(), inner.clone()).prop_map(|(l, r)| GraphPattern::opt(l, r)),
            (inner.clone(), inner).prop_map(|(l, r)| GraphPattern::union(l, r)),
        ]
    })
}

/// Well-designedness straight from the definition (§2): the first
/// violation in a pre-order walk that carries the variables occurring
/// outside the current subpattern.
fn wd_by_definition(p: &GraphPattern) -> Result<(), WdViolation> {
    fn walk(p: &GraphPattern, outside: &BTreeSet<Variable>) -> Result<(), WdViolation> {
        let (l, r) = match p {
            GraphPattern::Triple(_) => return Ok(()),
            GraphPattern::Union(_, _) => return Err(WdViolation::UnionNotTopLevel),
            GraphPattern::And(l, r) | GraphPattern::Opt(l, r) => (l, r),
        };
        let (lv, rv) = (l.vars(), r.vars());
        if matches!(p, GraphPattern::Opt(_, _)) {
            if let Some(&bad) = rv.iter().find(|v| !lv.contains(v) && outside.contains(v)) {
                return Err(WdViolation::OptScope {
                    variable: bad,
                    subpattern: p.to_string(),
                });
            }
        }
        walk(l, &outside.union(&rv).copied().collect())?;
        walk(r, &outside.union(&lv).copied().collect())
    }
    let branches = p.union_branches().ok_or(WdViolation::UnionNotTopLevel)?;
    branches
        .into_iter()
        .try_for_each(|b| walk(b, &BTreeSet::new()))
}

fn arb_graph() -> impl Strategy<Value = RdfGraph> {
    proptest::collection::vec((0..3usize, 0..2usize, 0..3usize), 0..8).prop_map(|ts| {
        RdfGraph::from_triples(ts.into_iter().map(|(s, p, o)| {
            Triple::from_strs(&format!("ac{s}"), ["ap", "aq"][p], &format!("ac{o}"))
        }))
    })
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(96))]

    /// Display → parse is the identity on the AST (for any pattern, not
    /// just well-designed ones).
    #[test]
    fn display_parse_roundtrip(p in arb_pattern()) {
        let text = p.to_string();
        let parsed = parse_pattern(&text).expect("printer output parses");
        prop_assert_eq!(parsed, p);
    }

    /// The linear well-designedness check reports what the definition
    /// does: the same first violation, with the same variable.
    #[test]
    fn well_designedness_follows_the_definition(p in arb_pattern(), q in arb_pattern()) {
        for p in [p.clone(), GraphPattern::opt(p, q)] {
            prop_assert_eq!(check_well_designed(&p), wd_by_definition(&p), "{}", p);
        }
    }

    /// UNION is commutative and associative under the set semantics.
    #[test]
    fn union_laws(a in arb_pattern(), b in arb_pattern(), c in arb_pattern(), g in arb_graph()) {
        let ab = eval(&GraphPattern::union(a.clone(), b.clone()), &g);
        let ba = eval(&GraphPattern::union(b.clone(), a.clone()), &g);
        prop_assert_eq!(&ab, &ba);
        let left = eval(
            &GraphPattern::union(GraphPattern::union(a.clone(), b.clone()), c.clone()),
            &g,
        );
        let right = eval(&GraphPattern::union(a, GraphPattern::union(b, c)), &g);
        prop_assert_eq!(left, right);
    }

    /// AND is commutative and associative.
    #[test]
    fn and_laws(a in arb_pattern(), b in arb_pattern(), c in arb_pattern(), g in arb_graph()) {
        let ab = eval(&GraphPattern::and(a.clone(), b.clone()), &g);
        let ba = eval(&GraphPattern::and(b.clone(), a.clone()), &g);
        prop_assert_eq!(&ab, &ba);
        let left = eval(
            &GraphPattern::and(GraphPattern::and(a.clone(), b.clone()), c.clone()),
            &g,
        );
        let right = eval(&GraphPattern::and(a, GraphPattern::and(b, c)), &g);
        prop_assert_eq!(left, right);
    }

    /// ⟦P1 OPT P2⟧ always contains ⟦P1 AND P2⟧, and every solution of
    /// P1 OPT P2 extends some solution of P1.
    #[test]
    fn opt_sandwich(a in arb_pattern(), b in arb_pattern(), g in arb_graph()) {
        let opt = eval(&GraphPattern::opt(a.clone(), b.clone()), &g);
        let and = eval(&GraphPattern::and(a.clone(), b), &g);
        for mu in &and {
            prop_assert!(opt.contains(mu), "AND ⊄ OPT");
        }
        let base = eval(&a, &g);
        for mu in &opt {
            prop_assert!(
                base.iter().any(|m1| m1.iter().all(|(v, i)| mu.get(v) == Some(i))),
                "OPT solution does not extend a left solution"
            );
        }
    }

    /// The join/outer-join primitives agree with evaluating the operators.
    #[test]
    fn primitives_match_operators(a in arb_pattern(), b in arb_pattern(), g in arb_graph()) {
        let ea: SolutionSet = eval(&a, &g);
        let eb: SolutionSet = eval(&b, &g);
        prop_assert_eq!(join(&ea, &eb), eval(&GraphPattern::and(a.clone(), b.clone()), &g));
        prop_assert_eq!(left_outer_join(&ea, &eb), eval(&GraphPattern::opt(a, b), &g));
    }

    /// Evaluation only binds variables of the pattern.
    #[test]
    fn solutions_bind_pattern_vars_only(p in arb_pattern(), g in arb_graph()) {
        let vars = p.vars();
        for mu in eval(&p, &g) {
            for v in mu.domain() {
                prop_assert!(vars.contains(&v), "{} not in pattern vars", v);
            }
        }
    }
}
