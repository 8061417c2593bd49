//! [`Mapping`] against an ordered map from variables to IRIs, the model
//! it must be indistinguishable from: order, equality, hashing, lookups,
//! iteration, compatibility, union, restriction, `bind`, `Display` and
//! `from_pairs`' conflict panic, on generated pair lists of 0–12
//! bindings (across the six a mapping holds inline). Replays under
//! `PROPTEST_SEED=<u64>`.

use proptest::prelude::*;
use std::collections::hash_map::DefaultHasher;
use std::collections::BTreeMap;
use std::hash::{Hash, Hasher};
use wdsparql_rdf::{Iri, Mapping, Variable};

type Model = BTreeMap<Variable, Iri>;

/// The variable pool: sixteen names, so lists of up to twelve pairs
/// repeat some and cross the inline capacity with others.
const VARS: usize = 16;

fn var(k: usize) -> Variable {
    Variable::new(&format!("mm{k}"))
}

fn iri(k: usize) -> Iri {
    Iri::new(&format!("mmi{k}"))
}

/// Pair lists in generation order, repeated variables included — with
/// four IRIs, a repeat conflicts three times in four.
fn arb_pairs() -> impl Strategy<Value = Vec<(Variable, Iri)>> {
    proptest::collection::vec((0..VARS, 0..4usize), 0..=12)
        .prop_map(|raw| raw.into_iter().map(|(v, i)| (var(v), iri(i))).collect())
}

/// The model of `pairs`, or `None` if some variable is bound twice to
/// different IRIs.
fn model_of(pairs: &[(Variable, Iri)]) -> Option<Model> {
    let mut model = Model::new();
    for &(v, i) in pairs {
        if model.insert(v, i).is_some_and(|prev| prev != i) {
            return None;
        }
    }
    Some(model)
}

/// `pairs` without the repeats of a variable: a list `from_pairs`
/// accepts, still in generation order.
fn first_bindings(pairs: &[(Variable, Iri)]) -> Vec<(Variable, Iri)> {
    let mut seen = Model::new();
    pairs
        .iter()
        .filter(|&&(v, i)| seen.insert(v, i).is_none())
        .copied()
        .collect()
}

fn hash_of(m: &Mapping) -> u64 {
    let mut h = DefaultHasher::new();
    m.hash(&mut h);
    h.finish()
}

/// `Display` of the model: `{?x → a, ?y → b}` in key order.
fn display_of(model: &Model) -> String {
    let body: Vec<String> = model.iter().map(|(v, i)| format!("{v} → {i}")).collect();
    format!("{{{}}}", body.join(", "))
}

/// Everything a single mapping answers equals what its model answers.
fn same_as_model(m: &Mapping, model: &Model) -> Result<(), TestCaseError> {
    prop_assert_eq!(m.len(), model.len());
    prop_assert_eq!(m.is_empty(), model.is_empty());
    prop_assert_eq!(
        m.iter().collect::<Vec<_>>(),
        model.iter().map(|(&v, &i)| (v, i)).collect::<Vec<_>>()
    );
    prop_assert_eq!(
        m.domain().collect::<Vec<_>>(),
        model.keys().copied().collect::<Vec<_>>()
    );
    for k in 0..VARS {
        prop_assert_eq!(m.get(var(k)), model.get(&var(k)).copied());
        prop_assert_eq!(m.contains(var(k)), model.contains_key(&var(k)));
    }
    prop_assert_eq!(m.to_string(), display_of(model));
    Ok(())
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(512))]

    /// `from_pairs` panics exactly when the model meets a conflict, and
    /// otherwise builds the model's mapping.
    #[test]
    fn from_pairs_panics_exactly_on_a_conflict(pairs in arb_pairs()) {
        let built = std::panic::catch_unwind(|| Mapping::from_pairs(pairs.iter().copied()));
        match (model_of(&pairs), built) {
            (Some(model), Ok(m)) => same_as_model(&m, &model)?,
            (None, Err(_)) => {}
            (model, built) => prop_assert!(
                false,
                "model conflict: {}, from_pairs panicked: {} on {:?}",
                model.is_none(),
                built.is_err(),
                &pairs
            ),
        }
    }

    /// Two mappings relate — order, equality, hash, compatibility,
    /// union — as their models do; restriction and `bind` act as the
    /// model's filter and insert.
    #[test]
    fn mappings_relate_as_their_models(
        a in arb_pairs(),
        b in arb_pairs(),
        keep in proptest::collection::vec(0..VARS, 0..8),
        (bind_v, bind_i) in (0..VARS, 0..4usize),
    ) {
        let (a, b) = (first_bindings(&a), first_bindings(&b));
        let (x, y) = (Mapping::from_pairs(a.iter().copied()), Mapping::from_pairs(b.iter().copied()));
        let (mx, my): (Model, Model) = (a.iter().copied().collect(), b.iter().copied().collect());
        same_as_model(&x, &mx)?;
        same_as_model(&y, &my)?;

        prop_assert_eq!(x.cmp(&y), mx.cmp(&my));
        prop_assert_eq!(x == y, mx == my);
        prop_assert_eq!(x.partial_cmp(&y), mx.partial_cmp(&my));
        // Equal mappings hash equal: the same bindings in another order,
        // and a clone.
        let again = Mapping::from_pairs(a.iter().rev().copied());
        prop_assert_eq!(&again, &x);
        prop_assert_eq!(hash_of(&again), hash_of(&x));
        prop_assert_eq!(hash_of(&x.clone()), hash_of(&x));
        if x == y {
            prop_assert_eq!(hash_of(&x), hash_of(&y));
        }

        let compatible = mx.iter().all(|(v, i)| my.get(v).is_none_or(|j| j == i));
        prop_assert_eq!(x.compatible(&y), compatible);
        prop_assert_eq!(y.compatible(&x), compatible);
        match x.union(&y) {
            Some(u) => {
                prop_assert!(compatible);
                let mut mu = mx.clone();
                mu.extend(my.iter().map(|(&v, &i)| (v, i)));
                same_as_model(&u, &mu)?;
            }
            None => prop_assert!(!compatible),
        }

        let kept: Vec<Variable> = keep.iter().map(|&k| var(k)).collect();
        let restricted: Model = mx.iter().filter(|(v, _)| kept.contains(v)).map(|(&v, &i)| (v, i)).collect();
        same_as_model(&x.restrict(kept.iter().copied()), &restricted)?;

        let (mut bound, mut mb) = (x.clone(), mx.clone());
        bound.bind(var(bind_v), iri(bind_i));
        mb.insert(var(bind_v), iri(bind_i));
        same_as_model(&bound, &mb)?;
    }
}
