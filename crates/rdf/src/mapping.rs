//! Mappings: partial functions `µ : V → I` (Pérez et al. semantics).

use crate::term::{spell_bindings, Iri, Variable};
use std::collections::BTreeMap;
use std::fmt;

/// How many bindings [`Mapping`]'s `Display` spells per vocabulary read.
const SPELL_CHUNK: usize = 8;

/// A mapping `µ` — a partial function from variables to IRIs.
///
/// Backed by a `BTreeMap` so iteration, display and equality are
/// deterministic, which matters when mappings are collected into solution
/// sets and compared across evaluation strategies.
#[derive(Clone, PartialEq, Eq, PartialOrd, Ord, Hash, Default)]
pub struct Mapping {
    bindings: BTreeMap<Variable, Iri>,
}

impl Mapping {
    /// The empty mapping `µ_∅`.
    pub fn new() -> Mapping {
        Mapping::default()
    }

    /// Builds a mapping from `(variable, iri)` pairs.
    ///
    /// Panics if the same variable is bound twice to different IRIs, since
    /// that would silently lose a binding.
    pub fn from_pairs<I>(pairs: I) -> Mapping
    where
        I: IntoIterator<Item = (Variable, Iri)>,
    {
        let mut m = Mapping::new();
        for (v, i) in pairs {
            if let Some(prev) = m.bindings.insert(v, i) {
                assert_eq!(prev, i, "conflicting binding for {v}");
            }
        }
        m
    }

    /// Convenience constructor from spellings.
    pub fn from_strs<'a, I>(pairs: I) -> Mapping
    where
        I: IntoIterator<Item = (&'a str, &'a str)>,
    {
        Mapping::from_pairs(
            pairs
                .into_iter()
                .map(|(v, i)| (Variable::new(v), Iri::new(i))),
        )
    }

    pub fn bind(&mut self, v: Variable, i: Iri) {
        self.bindings.insert(v, i);
    }

    pub fn get(&self, v: Variable) -> Option<Iri> {
        self.bindings.get(&v).copied()
    }

    pub fn contains(&self, v: Variable) -> bool {
        self.bindings.contains_key(&v)
    }

    /// `dom(µ)`.
    pub fn domain(&self) -> impl Iterator<Item = Variable> + '_ {
        self.bindings.keys().copied()
    }

    pub fn len(&self) -> usize {
        self.bindings.len()
    }

    pub fn is_empty(&self) -> bool {
        self.bindings.is_empty()
    }

    pub fn iter(&self) -> impl Iterator<Item = (Variable, Iri)> + '_ {
        self.bindings.iter().map(|(&v, &i)| (v, i))
    }

    /// Two mappings are *compatible* if they agree on every shared variable.
    pub fn compatible(&self, other: &Mapping) -> bool {
        // Iterate over the smaller mapping.
        let (small, large) = if self.len() <= other.len() {
            (self, other)
        } else {
            (other, self)
        };
        small
            .iter()
            .all(|(v, i)| large.get(v).is_none_or(|j| j == i))
    }

    /// `µ1 ∪ µ2` for compatible mappings; `None` if incompatible.
    pub fn union(&self, other: &Mapping) -> Option<Mapping> {
        if !self.compatible(other) {
            return None;
        }
        let mut out = self.clone();
        for (v, i) in other.iter() {
            out.bindings.insert(v, i);
        }
        Some(out)
    }

    /// The restriction `µ|_W` to the variables in `W`.
    pub fn restrict<I>(&self, vars: I) -> Mapping
    where
        I: IntoIterator<Item = Variable>,
    {
        let mut out = Mapping::new();
        for v in vars {
            if let Some(i) = self.get(v) {
                out.bind(v, i);
            }
        }
        out
    }

    /// True iff `dom(µ)` equals exactly the given variable set.
    pub fn domain_is<I>(&self, vars: I) -> bool
    where
        I: IntoIterator<Item = Variable>,
    {
        let mut count = 0usize;
        for v in vars {
            if !self.contains(v) {
                return false;
            }
            count += 1;
        }
        count == self.len()
    }
}

impl fmt::Display for Mapping {
    /// `{?x → a, ?y → b}`. The spellings are read from the vocabulary a
    /// chunk of bindings at a time — one lock round trip per mapping of
    /// up to [`SPELL_CHUNK`] bindings, not two per binding — and written
    /// after the lock is released.
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.write_str("{")?;
        let mut bindings = self.iter();
        let mut lead = "?";
        loop {
            let mut chunk = [("", ""); SPELL_CHUNK];
            let filled = spell_bindings(&mut bindings, &mut chunk);
            for (var, iri) in &chunk[..filled] {
                f.write_str(lead)?;
                f.write_str(var)?;
                f.write_str(" → ")?;
                f.write_str(iri)?;
                lead = ", ?";
            }
            if filled < SPELL_CHUNK {
                break;
            }
        }
        f.write_str("}")
    }
}

impl fmt::Debug for Mapping {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "{self}")
    }
}

impl FromIterator<(Variable, Iri)> for Mapping {
    fn from_iter<T: IntoIterator<Item = (Variable, Iri)>>(iter: T) -> Mapping {
        Mapping::from_pairs(iter)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn v(n: &str) -> Variable {
        Variable::new(n)
    }
    fn i(n: &str) -> Iri {
        Iri::new(n)
    }

    #[test]
    fn empty_mapping_is_compatible_with_everything() {
        let e = Mapping::new();
        let m = Mapping::from_strs([("x", "a")]);
        assert!(e.compatible(&m));
        assert!(m.compatible(&e));
        assert_eq!(e.union(&m), Some(m.clone()));
    }

    #[test]
    fn compatibility_is_agreement_on_shared_vars() {
        let m1 = Mapping::from_strs([("x", "a"), ("y", "b")]);
        let m2 = Mapping::from_strs([("y", "b"), ("z", "c")]);
        let m3 = Mapping::from_strs([("y", "c")]);
        assert!(m1.compatible(&m2));
        assert!(!m1.compatible(&m3));
        assert_eq!(m1.union(&m3), None);
    }

    #[test]
    fn union_takes_bindings_from_both() {
        let m1 = Mapping::from_strs([("x", "a")]);
        let m2 = Mapping::from_strs([("y", "b")]);
        let u = m1.union(&m2).unwrap();
        assert_eq!(u.get(v("x")), Some(i("a")));
        assert_eq!(u.get(v("y")), Some(i("b")));
        assert_eq!(u.len(), 2);
    }

    #[test]
    fn restrict_and_domain_is() {
        let m = Mapping::from_strs([("x", "a"), ("y", "b"), ("z", "c")]);
        let r = m.restrict([v("x"), v("z"), v("unbound")]);
        assert_eq!(r.len(), 2);
        assert!(r.domain_is([v("x"), v("z")]));
        assert!(!r.domain_is([v("x")]));
        assert!(!r.domain_is([v("x"), v("z"), v("y")]));
    }

    #[test]
    fn display_is_deterministic() {
        let m = Mapping::from_strs([("b", "1"), ("a", "2")]);
        let n = Mapping::from_strs([("a", "2"), ("b", "1")]);
        assert_eq!(m.to_string(), n.to_string());
    }

    /// The chunked `Display` writes what one `write!` per binding wrote,
    /// on either side of the chunk boundary.
    #[test]
    fn display_is_byte_identical_to_per_binding_formatting() {
        for n in [0usize, 1, 8, 9, 17] {
            let m: Mapping = (0..n)
                .map(|k| (v(&format!("disp{k:02}")), i(&format!("http://e.org/é{k}"))))
                .collect();
            let mut want = String::from("{");
            for (idx, (var, iri)) in m.iter().enumerate() {
                if idx > 0 {
                    want.push_str(", ");
                }
                want.push_str(&format!("{var} → {iri}"));
            }
            want.push('}');
            assert_eq!(m.to_string(), want, "{n} bindings");
            assert_eq!(format!("{m:?}"), want);
            assert_eq!(format!("{m:>40}"), want, "flags never applied");
        }
        assert_eq!(Mapping::new().to_string(), "{}");
        assert_eq!(Mapping::from_strs([("x", "a")]).to_string(), "{?x → a}");
    }

    #[test]
    #[should_panic(expected = "conflicting binding")]
    fn from_pairs_rejects_conflicts() {
        let _ = Mapping::from_strs([("x", "a"), ("x", "b")]);
    }

    #[test]
    fn union_is_commutative_on_compatible() {
        let m1 = Mapping::from_strs([("x", "a"), ("y", "b")]);
        let m2 = Mapping::from_strs([("y", "b"), ("z", "c")]);
        assert_eq!(m1.union(&m2), m2.union(&m1));
    }
}
