//! Mappings: partial functions `µ : V → I` (Pérez et al. semantics).

use crate::term::{spell_bindings, Iri, Variable};
use std::cmp::Ordering;
use std::fmt;
use std::hash::{Hash, Hasher};

/// How many bindings [`Mapping`]'s `Display` spells per vocabulary read.
const SPELL_CHUNK: usize = 8;

/// How many bindings a [`Mapping`] holds without a heap allocation.
const INLINE: usize = 6;

type Pair = (Variable, Iri);

/// What the unused inline slots hold. Never read: every accessor goes
/// through [`Pairs::as_slice`].
const FILLER: Pair = (Variable::from_raw(0), Iri::from_raw(0));

/// A mapping `µ` — a partial function from variables to IRIs.
///
/// Held as its `(variable, IRI)` pairs sorted by variable: inline up to
/// six pairs, on the heap beyond. A lookup is a binary search,
/// [`Mapping::compatible`] and [`Mapping::union`] are merge walks, and
/// cloning a small mapping is a copy. Order, equality and hashing are
/// those of the sorted pair list — lexicographic, the same relations an
/// ordered map from variables to IRIs gives — so iteration, display and
/// comparison are deterministic, which matters when mappings are
/// collected into solution sets and compared across evaluation
/// strategies.
#[derive(Clone, Default)]
pub struct Mapping {
    bindings: Pairs,
}

/// A key-sorted pair list, with no variable twice.
#[derive(Clone)]
enum Pairs {
    Inline { len: u8, pairs: [Pair; INLINE] },
    Heap(Vec<Pair>),
}

impl Default for Pairs {
    fn default() -> Pairs {
        Pairs::Inline {
            len: 0,
            pairs: [FILLER; INLINE],
        }
    }
}

impl Pairs {
    fn as_slice(&self) -> &[Pair] {
        match self {
            Pairs::Inline { len, pairs } => &pairs[..usize::from(*len)],
            Pairs::Heap(pairs) => pairs,
        }
    }

    fn as_mut_slice(&mut self) -> &mut [Pair] {
        match self {
            Pairs::Inline { len, pairs } => &mut pairs[..usize::from(*len)],
            Pairs::Heap(pairs) => pairs,
        }
    }

    /// Inserts `pair` at index `at`, moving to the heap once the inline
    /// slots are full. The caller keeps the list sorted.
    fn insert(&mut self, at: usize, pair: Pair) {
        match self {
            Pairs::Inline { len, pairs } if usize::from(*len) < INLINE => {
                pairs.copy_within(at..usize::from(*len), at + 1);
                pairs[at] = pair;
                *len += 1;
            }
            Pairs::Inline { pairs, .. } => {
                let mut heap = Vec::with_capacity(2 * INLINE);
                heap.extend_from_slice(&pairs[..at]);
                heap.push(pair);
                heap.extend_from_slice(&pairs[at..]);
                *self = Pairs::Heap(heap);
            }
            Pairs::Heap(pairs) => pairs.insert(at, pair),
        }
    }

    /// Appends a pair whose variable is greater than every one held.
    fn push(&mut self, pair: Pair) {
        debug_assert!(self.as_slice().last().is_none_or(|last| last.0 < pair.0));
        match self {
            Pairs::Inline { len, pairs } if usize::from(*len) < INLINE => {
                pairs[usize::from(*len)] = pair;
                *len += 1;
            }
            _ => self.insert(self.as_slice().len(), pair),
        }
    }
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
            match m.search(v) {
                Ok(k) => assert_eq!(m.pairs()[k].1, i, "conflicting binding for {v}"),
                Err(k) => m.bindings.insert(k, (v, i)),
            }
        }
        m
    }

    /// Builds a mapping from pairs already strictly ascending by
    /// variable — no search per pair.
    pub(crate) fn from_sorted<I>(pairs: I) -> Mapping
    where
        I: IntoIterator<Item = (Variable, Iri)>,
    {
        let mut m = Mapping::new();
        for pair in pairs {
            m.bindings.push(pair);
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

    fn pairs(&self) -> &[Pair] {
        self.bindings.as_slice()
    }

    /// Where `v` is, or where it would go.
    fn search(&self, v: Variable) -> Result<usize, usize> {
        self.pairs().binary_search_by_key(&v, |&(u, _)| u)
    }

    pub fn bind(&mut self, v: Variable, i: Iri) {
        match self.search(v) {
            Ok(k) => self.bindings.as_mut_slice()[k].1 = i,
            Err(k) => self.bindings.insert(k, (v, i)),
        }
    }

    pub fn get(&self, v: Variable) -> Option<Iri> {
        self.search(v).ok().map(|k| self.pairs()[k].1)
    }

    pub fn contains(&self, v: Variable) -> bool {
        self.search(v).is_ok()
    }

    /// `dom(µ)`.
    pub fn domain(&self) -> impl Iterator<Item = Variable> + '_ {
        self.pairs().iter().map(|&(v, _)| v)
    }

    pub fn len(&self) -> usize {
        self.pairs().len()
    }

    pub fn is_empty(&self) -> bool {
        self.pairs().is_empty()
    }

    pub fn iter(&self) -> impl Iterator<Item = (Variable, Iri)> + '_ {
        self.pairs().iter().copied()
    }

    /// Two mappings are *compatible* if they agree on every shared variable.
    pub fn compatible(&self, other: &Mapping) -> bool {
        let (mut a, mut b) = (self.pairs(), other.pairs());
        while let (Some(&(va, ia)), Some(&(vb, ib))) = (a.first(), b.first()) {
            match va.cmp(&vb) {
                Ordering::Less => a = &a[1..],
                Ordering::Greater => b = &b[1..],
                Ordering::Equal if ia != ib => return false,
                Ordering::Equal => (a, b) = (&a[1..], &b[1..]),
            }
        }
        true
    }

    /// `µ1 ∪ µ2` for compatible mappings; `None` if incompatible.
    pub fn union(&self, other: &Mapping) -> Option<Mapping> {
        let (mut a, mut b) = (self.pairs(), other.pairs());
        let mut out = Mapping::new();
        while let (Some(&pa), Some(&pb)) = (a.first(), b.first()) {
            match pa.0.cmp(&pb.0) {
                Ordering::Less => {
                    out.bindings.push(pa);
                    a = &a[1..];
                }
                Ordering::Greater => {
                    out.bindings.push(pb);
                    b = &b[1..];
                }
                Ordering::Equal if pa.1 != pb.1 => return None,
                Ordering::Equal => {
                    out.bindings.push(pa);
                    (a, b) = (&a[1..], &b[1..]);
                }
            }
        }
        for &pair in a.iter().chain(b) {
            out.bindings.push(pair);
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
}

impl PartialEq for Mapping {
    fn eq(&self, other: &Mapping) -> bool {
        self.pairs() == other.pairs()
    }
}

impl Eq for Mapping {}

impl PartialOrd for Mapping {
    fn partial_cmp(&self, other: &Mapping) -> Option<Ordering> {
        Some(self.cmp(other))
    }
}

impl Ord for Mapping {
    fn cmp(&self, other: &Mapping) -> Ordering {
        self.pairs().cmp(other.pairs())
    }
}

impl Hash for Mapping {
    fn hash<H: Hasher>(&self, state: &mut H) {
        self.pairs().hash(state);
    }
}

impl fmt::Display for Mapping {
    /// `{?x → a, ?y → b}`. The spellings are read from the vocabulary a
    /// chunk of bindings at a time — one lock round trip per mapping of
    /// up to `SPELL_CHUNK` bindings, not two per binding — and written
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
        let mut want = vec![v("x"), v("z")];
        want.sort();
        assert_eq!(r.domain().collect::<Vec<_>>(), want);
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
