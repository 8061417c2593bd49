//! Indexed ground RDF graphs.
//!
//! An [`RdfGraph`] is a finite set of ground [`Triple`]s with positional
//! indexes (S, P, O and the three pairs) so that triple-pattern matching
//! picks the most selective access path — the substrate the evaluation
//! algorithms and the pebble game run against.
//!
//! **Who pays for what.** Inserting keeps two things current: the triples
//! in arrival order and the membership set (`contains`, `len`, `iter`,
//! equality). A graph built in bulk — [`RdfGraph::from_triples`], and so
//! `collect()`, [`RdfGraph::from_strs`] and the N-Triples parser — has no
//! positional indexes and no `dom(G)` until the first reader needs one:
//! that reader builds them in a single pass over the triples, behind a
//! [`OnceLock`] (two threads racing the first read build once), and from
//! then on every insert maintains them. So a graph that is only filled
//! and handed on (a parsed file on its way into a store) never builds
//! them, and a graph that is queried pays the build once, then behaves
//! as if it had been indexed all along. [`RdfGraph::new`] starts indexed:
//! a graph grown triple by triple never meets a build at all.

use crate::mapping::Mapping;
use crate::rows::CellState;
use crate::term::{Iri, Term};
use crate::triple::{Triple, TriplePattern};
use std::collections::{BTreeSet, HashMap, HashSet};
use std::fmt;
use std::sync::OnceLock;

/// A finite set of ground RDF triples with positional indexes.
#[derive(Clone)]
pub struct RdfGraph {
    triples: Vec<Triple>,
    set: HashSet<Triple, CellState>,
    /// Filled by the first read (or by [`RdfGraph::new`]); `insert`
    /// maintains it once it is.
    index: OnceLock<Index>,
}

impl Default for RdfGraph {
    fn default() -> RdfGraph {
        RdfGraph::new()
    }
}

/// The positional indexes: per key, positions into `RdfGraph::triples`.
#[derive(Clone, Default)]
struct Index {
    by_s: HashMap<Iri, Vec<u32>>,
    by_p: HashMap<Iri, Vec<u32>>,
    by_o: HashMap<Iri, Vec<u32>>,
    by_sp: HashMap<(Iri, Iri), Vec<u32>>,
    by_so: HashMap<(Iri, Iri), Vec<u32>>,
    by_po: HashMap<(Iri, Iri), Vec<u32>>,
    dom: BTreeSet<Iri>,
}

impl Index {
    /// Records that `t` sits at position `idx` of the triple list.
    fn add(&mut self, idx: u32, t: Triple) {
        self.by_s.entry(t.s).or_default().push(idx);
        self.by_p.entry(t.p).or_default().push(idx);
        self.by_o.entry(t.o).or_default().push(idx);
        self.by_sp.entry((t.s, t.p)).or_default().push(idx);
        self.by_so.entry((t.s, t.o)).or_default().push(idx);
        self.by_po.entry((t.p, t.o)).or_default().push(idx);
        self.dom.insert(t.s);
        self.dom.insert(t.p);
        self.dom.insert(t.o);
    }
}

impl RdfGraph {
    /// The empty graph. Its indexes exist from the start — there is
    /// nothing to build — so a graph grown by [`RdfGraph::insert`] alone
    /// is indexed all along and its first query costs what any other does.
    pub fn new() -> RdfGraph {
        RdfGraph {
            index: OnceLock::from(Index::default()),
            ..RdfGraph::unindexed(0)
        }
    }

    /// An empty graph with room for `expected` triples and no indexes yet.
    fn unindexed(expected: usize) -> RdfGraph {
        RdfGraph {
            triples: Vec::with_capacity(expected),
            set: HashSet::with_capacity_and_hasher(expected, CellState::default()),
            index: OnceLock::new(),
        }
    }

    /// The graph of `triples`, handed over in bulk: sized once (duplicates
    /// only over-reserve), and indexed when first read.
    pub fn from_triples<I>(triples: I) -> RdfGraph
    where
        I: IntoIterator<Item = Triple>,
    {
        let triples = triples.into_iter();
        let mut g = RdfGraph::unindexed(triples.size_hint().0);
        for t in triples {
            g.insert(t);
        }
        g
    }

    /// Convenience constructor from spellings.
    pub fn from_strs<'a, I>(triples: I) -> RdfGraph
    where
        I: IntoIterator<Item = (&'a str, &'a str, &'a str)>,
    {
        RdfGraph::from_triples(
            triples
                .into_iter()
                .map(|(s, p, o)| Triple::from_strs(s, p, o)),
        )
    }

    /// Inserts a triple; returns `false` if it was already present.
    pub fn insert(&mut self, t: Triple) -> bool {
        if !self.set.insert(t) {
            return false;
        }
        let idx = u32::try_from(self.triples.len()).expect("graph too large");
        self.triples.push(t);
        if let Some(index) = self.index.get_mut() {
            index.add(idx, t);
        }
        true
    }

    /// The indexes, built from the triples so far if nobody asked before.
    fn index(&self) -> &Index {
        self.index.get_or_init(|| {
            let mut index = Index::default();
            for (idx, t) in self.triples.iter().enumerate() {
                // `insert` bounds the list: every position fits a `u32`.
                index.add(idx as u32, *t);
            }
            index
        })
    }

    pub fn contains(&self, t: &Triple) -> bool {
        self.set.contains(t)
    }

    pub fn len(&self) -> usize {
        self.triples.len()
    }

    pub fn is_empty(&self) -> bool {
        self.triples.is_empty()
    }

    pub fn iter(&self) -> impl Iterator<Item = &Triple> {
        self.triples.iter()
    }

    /// `dom(G)`: the IRIs appearing in the graph (in any position).
    pub fn dom(&self) -> impl Iterator<Item = Iri> + '_ {
        self.index().dom.iter().copied()
    }

    pub fn dom_size(&self) -> usize {
        self.index().dom.len()
    }

    pub fn dom_contains(&self, i: Iri) -> bool {
        self.index().dom.contains(&i)
    }

    /// Number of triples matching the pattern's *constant* positions — an
    /// upper bound on the matches of the pattern itself, used by the
    /// homomorphism solver's fail-first heuristic. O(1).
    pub fn candidate_count(&self, pat: &TriplePattern) -> usize {
        match self.access_path(pat) {
            AccessPath::All => self.triples.len(),
            AccessPath::List(list) => list.map_or(0, <[u32]>::len),
        }
    }

    fn access_path(&self, pat: &TriplePattern) -> AccessPath<'_> {
        let s = pat.s.as_iri();
        let p = pat.p.as_iri();
        let o = pat.o.as_iri();
        let list = match (s, p, o) {
            // A full scan reads the triple list alone: no index needed.
            (None, None, None) => return AccessPath::All,
            (Some(s), Some(p), _) => self.index().by_sp.get(&(s, p)),
            (Some(s), _, Some(o)) => self.index().by_so.get(&(s, o)),
            (_, Some(p), Some(o)) => self.index().by_po.get(&(p, o)),
            (Some(s), None, None) => self.index().by_s.get(&s),
            (None, Some(p), None) => self.index().by_p.get(&p),
            (None, None, Some(o)) => self.index().by_o.get(&o),
        };
        AccessPath::List(list.map(Vec::as_slice))
    }

    /// All triples matching `pat`, honouring repeated variables (e.g.
    /// `(?x, p, ?x)` only matches triples with `s = o`).
    pub fn match_pattern(&self, pat: &TriplePattern) -> Vec<Triple> {
        let pat = *pat;
        let check = move |t: &Triple| pattern_matches(&pat, t);
        match self.access_path(&pat) {
            AccessPath::All => self.triples.iter().filter(|t| check(t)).copied().collect(),
            AccessPath::List(None) => Vec::new(),
            AccessPath::List(Some(list)) => list
                .iter()
                .map(|&i| self.triples[i as usize])
                .filter(|t| check(t))
                .collect(),
        }
    }

    /// The solutions of a single triple pattern: `⟦t⟧_G = {µ | dom(µ) =
    /// vars(t) and µ(t) ∈ G}` (Pérez et al., rule 1).
    pub fn solutions(&self, pat: &TriplePattern) -> Vec<Mapping> {
        self.match_pattern(pat)
            .into_iter()
            .filter_map(|t| binding_of(pat, &t))
            .collect()
    }

    /// All distinct subject/object IRIs connected by predicate `p`, as raw
    /// edges — convenient for building adversarial graph families.
    pub fn edges_with_predicate(&self, p: Iri) -> Vec<(Iri, Iri)> {
        self.index()
            .by_p
            .get(&p)
            .map(|list| {
                list.iter()
                    .map(|&i| {
                        let t = self.triples[i as usize];
                        (t.s, t.o)
                    })
                    .collect()
            })
            .unwrap_or_default()
    }
}

enum AccessPath<'g> {
    All,
    List(Option<&'g [u32]>),
}

/// Does ground triple `t` match pattern `pat` (constants equal, repeated
/// variables bound consistently)?
pub fn pattern_matches(pat: &TriplePattern, t: &Triple) -> bool {
    binding_of(pat, t).is_some()
}

/// The mapping `µ` with `dom(µ) = vars(pat)` and `µ(pat) = t`, if any.
pub fn binding_of(pat: &TriplePattern, t: &Triple) -> Option<Mapping> {
    let mut mu = Mapping::new();
    let mut bind = |term: Term, value: Iri| -> bool {
        match term {
            Term::Iri(i) => i == value,
            Term::Var(v) => match mu.get(v) {
                Some(prev) => prev == value,
                None => {
                    mu.bind(v, value);
                    true
                }
            },
        }
    };
    if bind(pat.s, t.s) && bind(pat.p, t.p) && bind(pat.o, t.o) {
        Some(mu)
    } else {
        None
    }
}

impl PartialEq for RdfGraph {
    fn eq(&self, other: &RdfGraph) -> bool {
        self.set == other.set
    }
}

impl Eq for RdfGraph {}

impl fmt::Debug for RdfGraph {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        let mut sorted: Vec<_> = self.triples.clone();
        sorted.sort();
        f.debug_set().entries(sorted).finish()
    }
}

impl FromIterator<Triple> for RdfGraph {
    fn from_iter<T: IntoIterator<Item = Triple>>(iter: T) -> RdfGraph {
        RdfGraph::from_triples(iter)
    }
}

impl Extend<Triple> for RdfGraph {
    fn extend<T: IntoIterator<Item = Triple>>(&mut self, iter: T) {
        for t in iter {
            self.insert(t);
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::term::{iri, var, Variable};
    use crate::triple::tp;

    fn sample() -> RdfGraph {
        RdfGraph::from_strs([
            ("a", "p", "b"),
            ("a", "p", "c"),
            ("b", "p", "c"),
            ("b", "q", "a"),
            ("c", "q", "a"),
        ])
    }

    #[test]
    fn insert_deduplicates() {
        let mut g = RdfGraph::new();
        assert!(g.insert(Triple::from_strs("a", "p", "b")));
        assert!(!g.insert(Triple::from_strs("a", "p", "b")));
        assert_eq!(g.len(), 1);
    }

    #[test]
    fn dom_collects_all_positions() {
        let g = sample();
        let dom: Vec<_> = g.dom().collect();
        assert_eq!(dom.len(), 5); // a, b, c, p, q
        assert!(g.dom_contains(Iri::new("p")));
        assert!(!g.dom_contains(Iri::new("zzz")));
    }

    #[test]
    fn match_fully_bound() {
        let g = sample();
        assert_eq!(g.match_pattern(&tp(iri("a"), iri("p"), iri("b"))).len(), 1);
        assert_eq!(g.match_pattern(&tp(iri("a"), iri("p"), iri("z"))).len(), 0);
    }

    #[test]
    fn match_by_each_index() {
        let g = sample();
        assert_eq!(g.match_pattern(&tp(iri("a"), var("x"), var("y"))).len(), 2);
        assert_eq!(g.match_pattern(&tp(var("x"), iri("q"), var("y"))).len(), 2);
        assert_eq!(g.match_pattern(&tp(var("x"), var("y"), iri("c"))).len(), 2);
        assert_eq!(g.match_pattern(&tp(iri("a"), iri("p"), var("y"))).len(), 2);
        assert_eq!(g.match_pattern(&tp(iri("b"), var("x"), iri("c"))).len(), 1);
        assert_eq!(g.match_pattern(&tp(var("x"), iri("q"), iri("a"))).len(), 2);
        assert_eq!(g.match_pattern(&tp(var("x"), var("y"), var("z"))).len(), 5);
    }

    #[test]
    fn repeated_variables_constrain_matches() {
        let mut g = sample();
        g.insert(Triple::from_strs("d", "p", "d"));
        let loops = g.match_pattern(&tp(var("x"), iri("p"), var("x")));
        assert_eq!(loops, vec![Triple::from_strs("d", "p", "d")]);
    }

    #[test]
    fn solutions_bind_pattern_variables() {
        let g = sample();
        let sols = g.solutions(&tp(var("x"), iri("q"), var("y")));
        assert_eq!(sols.len(), 2);
        let mut want = vec![Variable::new("x"), Variable::new("y")];
        want.sort();
        for mu in &sols {
            assert_eq!(mu.domain().collect::<Vec<_>>(), want);
            assert_eq!(mu.get(Variable::new("y")), Some(Iri::new("a")));
        }
    }

    #[test]
    fn solutions_of_ground_pattern() {
        let g = sample();
        let sols = g.solutions(&tp(iri("a"), iri("p"), iri("b")));
        assert_eq!(sols, vec![Mapping::new()]);
        assert!(g.solutions(&tp(iri("a"), iri("p"), iri("zzz"))).is_empty());
    }

    #[test]
    fn candidate_count_is_an_upper_bound() {
        let g = sample();
        let pat = tp(var("x"), iri("p"), var("x"));
        assert!(g.candidate_count(&pat) >= g.match_pattern(&pat).len());
        assert_eq!(
            g.candidate_count(&tp(var("x"), var("y"), var("z"))),
            g.len()
        );
        assert_eq!(g.candidate_count(&tp(iri("zz"), var("y"), var("z"))), 0);
    }

    #[test]
    fn graph_equality_ignores_insertion_order() {
        let g1 = RdfGraph::from_strs([("a", "p", "b"), ("b", "p", "c")]);
        let g2 = RdfGraph::from_strs([("b", "p", "c"), ("a", "p", "b")]);
        assert_eq!(g1, g2);
    }

    #[test]
    fn edges_with_predicate_projects_pairs() {
        let g = sample();
        let mut qs = g.edges_with_predicate(Iri::new("q"));
        qs.sort();
        assert_eq!(
            qs,
            vec![
                (Iri::new("b"), Iri::new("a")),
                (Iri::new("c"), Iri::new("a"))
            ]
        );
    }
}
