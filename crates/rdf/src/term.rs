//! Interned RDF terms: IRIs, variables, and the [`Term`] sum type.
//!
//! The paper works over a countably infinite set `I` of IRIs and a disjoint
//! countably infinite set `V = {?x, ?y, ...}` of variables. We intern both
//! into process-global tables so that terms are `Copy` 32-bit ids: equality,
//! hashing and ordering are integer operations, and the string spelling can
//! be recovered in O(1) for display.
//!
//! Interned strings are leaked (`Box::leak`) so lookups can hand out
//! `&'static str` without holding a lock. The vocabulary lives for the whole
//! process, which is the intended lifetime of a query workload; the leak is
//! bounded by the number of *distinct* names ever created.
//!
//! **Who pays for what.** [`Iri::new`] and [`Iri::as_str`] each take the
//! vocabulary lock, and `new` hashes the whole spelling: they are priced
//! per *call*, so a caller that meets the same name many times resolves it
//! once and carries the id. The write side does exactly that —
//! [`crate::ntriples::parse_ntriples`] touches the interner once per
//! distinct name per parse, and the store's on-disk images read each
//! spelling once per block; everything between is integer work on ids.

use parking_lot::RwLock;
use std::collections::HashMap;
use std::fmt;
use std::sync::OnceLock;

#[derive(Default)]
struct Vocab {
    iri_names: Vec<&'static str>,
    iri_ids: HashMap<&'static str, u32>,
    var_names: Vec<&'static str>,
    var_ids: HashMap<&'static str, u32>,
    /// Ids of the reserved variables, by pool index.
    reserved: Vec<u32>,
}

impl Vocab {
    /// The id of variable `name`, interning it if it is new.
    fn intern_var(&mut self, name: &str) -> u32 {
        if let Some(&id) = self.var_ids.get(name) {
            return id;
        }
        let leaked: &'static str = Box::leak(name.to_owned().into_boxed_str());
        let id = u32::try_from(self.var_names.len()).expect("variable vocabulary overflow");
        self.var_names.push(leaked);
        self.var_ids.insert(leaked, id);
        id
    }
}

fn vocab() -> &'static RwLock<Vocab> {
    static VOCAB: OnceLock<RwLock<Vocab>> = OnceLock::new();
    VOCAB.get_or_init(|| RwLock::new(Vocab::default()))
}

/// Fills `out` with the spellings of the next bindings of `bindings` —
/// variable name (without `?`) and IRI — under a single vocabulary read,
/// and returns how many it filled: fewer than `out.len()` only once
/// `bindings` is exhausted. The lock is released before the caller
/// writes anything anywhere.
pub(crate) fn spell_bindings(
    bindings: &mut dyn Iterator<Item = (Variable, Iri)>,
    out: &mut [(&'static str, &'static str)],
) -> usize {
    let vocab = vocab().read();
    let mut filled = 0;
    for (slot, (v, i)) in out.iter_mut().zip(bindings) {
        *slot = (vocab.var_names[v.0 as usize], vocab.iri_names[i.0 as usize]);
        filled += 1;
    }
    filled
}

/// An interned IRI (internationalised resource identifier).
///
/// ```
/// use wdsparql_rdf::Iri;
/// let a = Iri::new("http://example.org/p");
/// let b = Iri::new("http://example.org/p");
/// assert_eq!(a, b);
/// assert_eq!(a.as_str(), "http://example.org/p");
/// ```
#[derive(Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash)]
pub struct Iri(u32);

impl Iri {
    /// Interns `name` and returns its id. Idempotent per spelling.
    pub fn new(name: &str) -> Iri {
        let v = vocab();
        if let Some(&id) = v.read().iri_ids.get(name) {
            return Iri(id);
        }
        let mut w = v.write();
        if let Some(&id) = w.iri_ids.get(name) {
            return Iri(id);
        }
        let leaked: &'static str = Box::leak(name.to_owned().into_boxed_str());
        let id = u32::try_from(w.iri_names.len()).expect("IRI vocabulary overflow");
        w.iri_names.push(leaked);
        w.iri_ids.insert(leaked, id);
        Iri(id)
    }

    /// The interned spelling.
    pub fn as_str(self) -> &'static str {
        vocab().read().iri_names[self.0 as usize]
    }

    /// The raw interned id (stable within the process, useful as an index).
    pub fn id(self) -> u32 {
        self.0
    }

    /// Rebuilds an [`Iri`] from an id previously obtained via
    /// [`Iri::id`]. Crate-internal: only ids that came out of the
    /// interner are valid.
    pub(crate) const fn from_raw(id: u32) -> Iri {
        Iri(id)
    }
}

/// Has `name` been interned as an IRI by anyone in this process?
#[cfg(test)]
pub(crate) fn is_interned(name: &str) -> bool {
    vocab().read().iri_ids.contains_key(name)
}

impl fmt::Display for Iri {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.write_str(self.as_str())
    }
}

impl fmt::Debug for Iri {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "Iri({})", self.as_str())
    }
}

/// A set of [`Iri`]s as one bit per interner id, up to the largest
/// member: membership is one bit test, iteration walks the bits in
/// ascending id order (= [`Iri`]'s order). Dense when its members' ids
/// are — the term table of a store holding one dataset.
#[derive(Clone, Debug, Default)]
pub struct IriSet {
    words: Vec<u64>,
    len: usize,
}

impl IriSet {
    pub fn new() -> IriSet {
        IriSet::default()
    }

    /// Adds `i`; returns whether it was new.
    pub fn insert(&mut self, i: Iri) -> bool {
        let (w, bit) = (i.0 as usize / 64, 1u64 << (i.0 % 64));
        if w >= self.words.len() {
            self.words.resize(w + 1, 0);
        }
        let fresh = self.words[w] & bit == 0;
        self.words[w] |= bit;
        self.len += usize::from(fresh);
        fresh
    }

    #[inline]
    pub fn contains(&self, i: Iri) -> bool {
        self.words
            .get(i.0 as usize / 64)
            .is_some_and(|w| w & (1 << (i.0 % 64)) != 0)
    }

    pub fn len(&self) -> usize {
        self.len
    }

    pub fn is_empty(&self) -> bool {
        self.len == 0
    }

    /// The members, ascending.
    pub fn iter(&self) -> impl Iterator<Item = Iri> + '_ {
        self.words.iter().enumerate().flat_map(|(w, &word)| {
            let mut rest = word;
            std::iter::from_fn(move || {
                (rest != 0).then(|| {
                    let bit = rest.trailing_zeros();
                    rest &= rest - 1;
                    Iri(w as u32 * 64 + bit)
                })
            })
        })
    }

    /// The smallest and the largest member, `None` when empty.
    pub fn bounds(&self) -> Option<(Iri, Iri)> {
        let first = self.iter().next()?;
        let (w, word) = self
            .words
            .iter()
            .enumerate()
            .rev()
            .find(|(_, &word)| word != 0)?;
        Some((first, Iri(w as u32 * 64 + 63 - word.leading_zeros())))
    }
}

/// An interned SPARQL variable.
///
/// Names are canonicalised without the leading `?`; [`fmt::Display`] adds it
/// back, so `Variable::new("?x")` and `Variable::new("x")` are the same
/// variable, printed `?x`.
#[derive(Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash)]
pub struct Variable(u32);

impl Variable {
    /// Interns a variable by name (leading `?` optional).
    pub fn new(name: &str) -> Variable {
        let name = name.strip_prefix('?').unwrap_or(name);
        assert!(!name.is_empty(), "variable name must be non-empty");
        let v = vocab();
        if let Some(&id) = v.read().var_ids.get(name) {
            return Variable(id);
        }
        Variable(v.write().intern_var(name))
    }

    /// The `i`-th variable of a reserved pool, for renamings that need
    /// variables apart from a query's own (the ρ_∆ renaming of children
    /// assignments, §3.1). Each is interned once, on first use, under a
    /// name (`<ρi>`) that neither surface syntax can spell, so a process
    /// that renames over and over grows the vocabulary by the largest
    /// index it ever asked for, not by the number of renamings.
    pub fn reserved(i: usize) -> Variable {
        let v = vocab();
        if let Some(&id) = v.read().reserved.get(i) {
            return Variable(id);
        }
        let mut w = v.write();
        while w.reserved.len() <= i {
            let name = format!("<ρ{}>", w.reserved.len());
            let id = w.intern_var(&name);
            w.reserved.push(id);
        }
        Variable(w.reserved[i])
    }

    /// The canonical spelling, without the leading `?`.
    pub fn name(self) -> &'static str {
        vocab().read().var_names[self.0 as usize]
    }

    /// The raw interned id.
    pub fn id(self) -> u32 {
        self.0
    }

    /// As [`Iri::from_raw`]: only ids that came out of the interner are
    /// valid.
    pub(crate) const fn from_raw(id: u32) -> Variable {
        Variable(id)
    }
}

impl fmt::Display for Variable {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "?{}", self.name())
    }
}

impl fmt::Debug for Variable {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "Var(?{})", self.name())
    }
}

/// A term in a triple pattern: either an IRI constant or a variable.
#[derive(Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash)]
pub enum Term {
    Iri(Iri),
    Var(Variable),
}

impl Term {
    pub fn is_var(self) -> bool {
        matches!(self, Term::Var(_))
    }

    pub fn is_iri(self) -> bool {
        matches!(self, Term::Iri(_))
    }

    pub fn as_var(self) -> Option<Variable> {
        match self {
            Term::Var(v) => Some(v),
            Term::Iri(_) => None,
        }
    }

    pub fn as_iri(self) -> Option<Iri> {
        match self {
            Term::Iri(i) => Some(i),
            Term::Var(_) => None,
        }
    }
}

impl From<Iri> for Term {
    fn from(i: Iri) -> Term {
        Term::Iri(i)
    }
}

impl From<Variable> for Term {
    fn from(v: Variable) -> Term {
        Term::Var(v)
    }
}

impl fmt::Display for Term {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            Term::Iri(i) => i.fmt(f),
            Term::Var(v) => v.fmt(f),
        }
    }
}

impl fmt::Debug for Term {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            Term::Iri(i) => i.fmt(f),
            Term::Var(v) => v.fmt(f),
        }
    }
}

/// Convenience constructor for an IRI term.
pub fn iri(name: &str) -> Term {
    Term::Iri(Iri::new(name))
}

/// Convenience constructor for a variable term.
pub fn var(name: &str) -> Term {
    Term::Var(Variable::new(name))
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn iri_interning_is_idempotent() {
        let a = Iri::new("p");
        let b = Iri::new("p");
        let c = Iri::new("q");
        assert_eq!(a, b);
        assert_ne!(a, c);
        assert_eq!(a.as_str(), "p");
        assert_eq!(c.as_str(), "q");
    }

    #[test]
    fn variable_question_mark_is_canonicalised() {
        assert_eq!(Variable::new("?x"), Variable::new("x"));
        assert_eq!(Variable::new("?x").to_string(), "?x");
        assert_eq!(Variable::new("x").name(), "x");
    }

    #[test]
    fn reserved_variables_are_interned_once() {
        let (a, b) = (Variable::reserved(3), Variable::reserved(4));
        assert_ne!(a, b);
        assert_eq!(a, Variable::reserved(3));
        assert_eq!(a.name(), "<ρ3>");
        // The pool owns the name: spelling it reaches the same variable.
        assert_eq!(Variable::new("<ρ3>"), a);
    }

    #[test]
    fn term_accessors() {
        let t = iri("a");
        let u = var("x");
        assert!(t.is_iri() && !t.is_var());
        assert!(u.is_var() && !u.is_iri());
        assert_eq!(t.as_iri(), Some(Iri::new("a")));
        assert_eq!(t.as_var(), None);
        assert_eq!(u.as_var(), Some(Variable::new("x")));
        assert_eq!(u.as_iri(), None);
    }

    #[test]
    fn display_formats() {
        assert_eq!(iri("a").to_string(), "a");
        assert_eq!(var("y").to_string(), "?y");
        assert_eq!(format!("{:?}", Variable::new("y")), "Var(?y)");
        assert_eq!(format!("{:?}", Iri::new("a")), "Iri(a)");
    }

    #[test]
    #[should_panic(expected = "non-empty")]
    fn empty_variable_name_panics() {
        let _ = Variable::new("?");
    }

    #[test]
    fn iri_sets_walk_their_bits_in_id_order() {
        let mut s = IriSet::new();
        assert_eq!((s.len(), s.bounds()), (0, None));
        let names: Vec<Iri> = (0..130)
            .map(|i| Iri::new(&format!("iri-set-{i}")))
            .collect();
        let picked = [names[129], names[0], names[64], names[63], names[0]];
        let fresh: Vec<bool> = picked.iter().map(|&i| s.insert(i)).collect();
        assert_eq!(fresh, [true, true, true, true, false]);
        let mut want = picked[..4].to_vec();
        want.sort();
        assert_eq!(s.iter().collect::<Vec<_>>(), want);
        assert_eq!(s.len(), 4);
        assert_eq!(s.bounds(), Some((names[0], names[129])));
        assert!(s.contains(names[64]) && !s.contains(names[65]));
        assert!(!s.contains(Iri::new("iri-set-interned-after")));
    }

    #[test]
    fn ids_are_dense_and_distinct() {
        let a = Iri::new("dense-test-a");
        let b = Iri::new("dense-test-b");
        assert_ne!(a.id(), b.id());
    }

    #[test]
    fn interning_is_thread_safe() {
        let handles: Vec<_> = (0..8)
            .map(|i| {
                std::thread::spawn(move || {
                    let mut ids = Vec::new();
                    for j in 0..100 {
                        ids.push(Iri::new(&format!("t{}", (i + j) % 50)).id());
                    }
                    ids
                })
            })
            .collect();
        let all: Vec<Vec<u32>> = handles.into_iter().map(|h| h.join().unwrap()).collect();
        // Same spelling must yield the same id in every thread.
        for w in 0..50 {
            let id = Iri::new(&format!("t{w}")).id();
            for (i, ids) in all.iter().enumerate() {
                for (j, &got) in ids.iter().enumerate() {
                    if (i + j) % 50 == w {
                        assert_eq!(got, id);
                    }
                }
            }
        }
    }
}
