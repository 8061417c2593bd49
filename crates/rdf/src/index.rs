//! The [`TripleIndex`] abstraction: the pattern-matching surface every
//! evaluation algorithm in the workspace consumes.
//!
//! The algorithms of the paper — reference semantics, the Lemma 1
//! machinery, the homomorphism solver's fail-first search, the pebble
//! game — never look at *how* a graph indexes its triples; they only ask
//! four questions: "which triples match this pattern?", "roughly how
//! many?" (for search ordering), "is this ground triple present?", and
//! "what is `dom(G)`?". This trait captures exactly that surface, so the
//! same algorithms run unchanged against [`RdfGraph`]'s hash indexes or
//! against `wdsparql-store`'s sorted permutations.
//!
//! The trait is dyn-compatible on purpose: call sites take
//! `&dyn TripleIndex`, and `&RdfGraph` coerces implicitly, so existing
//! callers did not have to change.

use crate::graph::{binding_of, RdfGraph};
use crate::mapping::Mapping;
use crate::term::{Iri, Variable};
use crate::trie::{MaterializedTrie, TrieCursor};
use crate::triple::{Triple, TriplePattern};

/// Read-only access to an indexed set of ground triples.
pub trait TripleIndex {
    /// Number of triples.
    fn len(&self) -> usize;

    fn is_empty(&self) -> bool {
        self.len() == 0
    }

    /// Is the ground triple present?
    fn contains(&self, t: &Triple) -> bool;

    /// All triples, in implementation order.
    fn triples(&self) -> Box<dyn Iterator<Item = Triple> + '_>;

    /// `dom(G)`: the IRIs appearing in any position, ascending by id.
    fn dom(&self) -> Box<dyn Iterator<Item = Iri> + '_>;

    /// Does `i` appear in the graph (in any position)?
    fn dom_contains(&self, i: Iri) -> bool;

    /// Number of triples matching the pattern's *constant* positions — an
    /// upper bound on the matches of the pattern itself, used by the
    /// homomorphism solver's fail-first heuristic. Must be cheap
    /// (constant or logarithmic).
    fn candidate_count(&self, pat: &TriplePattern) -> usize;

    /// All triples matching `pat`, honouring repeated variables (e.g.
    /// `(?x, p, ?x)` only matches triples with `s = o`).
    fn match_pattern(&self, pat: &TriplePattern) -> Vec<Triple>;

    /// The solutions of a single triple pattern: `⟦t⟧_G = {µ | dom(µ) =
    /// vars(t) and µ(t) ∈ G}` (Pérez et al., rule 1) — the one definition
    /// in the workspace: every backend serves it from its
    /// [`match_pattern`](TripleIndex::match_pattern).
    fn solutions(&self, pat: &TriplePattern) -> Vec<Mapping> {
        self.match_pattern(pat)
            .into_iter()
            .filter_map(|t| binding_of(pat, &t))
            .collect()
    }

    /// The sorted, deduplicated values variable `v` can take in a match
    /// of `pat` — a semi-join / merge-join input. `None` when the
    /// backend has no cheap way to produce it (the default), or when `v`
    /// does not occur in `pat`; callers must treat `None` as "filter
    /// unavailable", never as "no values". Implementations must return
    /// the list ascending in [`Iri`]'s order so callers can probe it by
    /// binary search.
    fn candidate_values(&self, pat: &TriplePattern, v: Variable) -> Option<Vec<Iri>> {
        let _ = (pat, v);
        None
    }

    /// A seekable trie view over the matches of `pat`, with one level
    /// per variable of `vars` — which must list `vars(pat)` exactly,
    /// each once, in the caller's (join) order. The worst-case-optimal
    /// join opens one of these per pattern and intersects levels with
    /// galloping [`TrieCursor::seek`].
    ///
    /// Keys are [`Iri`]s, ascending in [`Iri`]'s order (the default
    /// materialises [`match_pattern`](TripleIndex::match_pattern) into a
    /// [`MaterializedTrie`]; `wdsparql-store` serves the same keys
    /// straight off its sorted permutation arrays).
    fn trie_cursor<'a>(
        &'a self,
        pat: &TriplePattern,
        vars: &[Variable],
    ) -> Box<dyn TrieCursor + 'a> {
        Box::new(MaterializedTrie::from_matches(
            pat,
            self.match_pattern(pat),
            vars,
        ))
    }
}

impl TripleIndex for RdfGraph {
    fn len(&self) -> usize {
        RdfGraph::len(self)
    }

    fn contains(&self, t: &Triple) -> bool {
        RdfGraph::contains(self, t)
    }

    fn triples(&self) -> Box<dyn Iterator<Item = Triple> + '_> {
        Box::new(self.iter().copied())
    }

    fn dom(&self) -> Box<dyn Iterator<Item = Iri> + '_> {
        Box::new(RdfGraph::dom(self))
    }

    fn dom_contains(&self, i: Iri) -> bool {
        RdfGraph::dom_contains(self, i)
    }

    fn candidate_count(&self, pat: &TriplePattern) -> usize {
        RdfGraph::candidate_count(self, pat)
    }

    fn match_pattern(&self, pat: &TriplePattern) -> Vec<Triple> {
        RdfGraph::match_pattern(self, pat)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::term::{iri, var};
    use crate::triple::tp;

    #[test]
    fn rdf_graph_implements_the_trait_consistently() {
        let g = RdfGraph::from_strs([("a", "p", "b"), ("b", "p", "c"), ("b", "q", "a")]);
        let ix: &dyn TripleIndex = &g;
        assert_eq!(ix.len(), 3);
        assert!(!ix.is_empty());
        assert!(ix.contains(&Triple::from_strs("a", "p", "b")));
        assert_eq!(ix.triples().count(), 3);
        assert_eq!(ix.dom().count(), 5);
        assert!(ix.dom_contains(Iri::new("q")));
        let pat = tp(var("x"), iri("p"), var("y"));
        assert_eq!(ix.match_pattern(&pat).len(), 2);
        assert!(ix.candidate_count(&pat) >= 2);
        assert_eq!(ix.solutions(&pat).len(), 2);
    }
}
