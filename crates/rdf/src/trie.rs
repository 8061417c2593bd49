//! Seekable pattern tries: the per-pattern input of a worst-case-optimal
//! (leapfrog) multiway join.
//!
//! A [`TrieCursor`] presents the matches of one triple pattern as a trie
//! with one level per variable, in a caller-chosen variable order: level
//! 0 enumerates the distinct values of the first variable, opening a key
//! descends into the sub-trie of bindings that extend it, and `seek`
//! gallops forward to the first key `≥ target` — the primitive a
//! leapfrog join intersects with instead of materialising pairwise
//! intermediates.
//!
//! Keys are the terms themselves: [`Iri`]s, in [`Iri`]'s order (by
//! interner id) — `wdsparql-store` serves them straight off its sorted
//! permutation arrays. The default backend implementation is
//! [`MaterializedTrie`]: the pattern's matching triples projected onto
//! the variable order, sorted and deduplicated.

use crate::term::{Iri, Term, Variable};
use crate::triple::{Triple, TriplePattern};

/// Cumulative operation counters a [`TrieCursor`] may expose for query
/// profiling: how many `seek`s it served and an estimate of the
/// galloping work they cost (the summed bit-lengths of the row
/// distances galloped over — each doubling probe plus each binary-search
/// halving inspects one position, so a jump of `d` rows costs
/// `O(log d)` ≈ `bit_len(d)` steps).
///
/// Backends that do not count return the default zeros; profilers must
/// treat the stats as best-effort.
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub struct TrieOpStats {
    /// `seek` calls served.
    pub seeks: u64,
    /// Estimated galloping steps (summed `bit_len` of seek distances).
    pub gallop_steps: u64,
}

impl TrieOpStats {
    /// The galloping cost of moving `rows` positions: `bit_len(rows)`,
    /// 0 when the seek did not move.
    pub fn gallop_cost(rows: usize) -> u64 {
        (usize::BITS - rows.leading_zeros()) as u64
    }
}

/// A seekable, sorted cursor over the match trie of one triple pattern.
///
/// The cursor starts at a **virtual root** above level 0 — the leapfrog
/// driver re-enters a trie's first level every time an outer variable
/// advances, and descending from the root is what rewinds it. Levels
/// are opened and closed strictly like a stack; the contract (what
/// leapfrog drives, and what implementations may rely on):
///
/// * [`open`](TrieCursor::open) — descend one level: from the root into
///   level 0 (the full relation), or from a positioned key into its
///   sub-trie; either way the new level starts on its first key;
/// * [`key`](TrieCursor::key) — the current key at the current level,
///   `None` once the level is exhausted (and at the root);
/// * [`advance`](TrieCursor::advance) / [`seek`](TrieCursor::seek) —
///   move to the next distinct key / the first key `≥ target` (both may
///   exhaust the level; `seek` never moves backwards);
/// * [`up`](TrieCursor::up) — return to the parent level, positioned on
///   the key that was opened (callers `advance` past it to move on).
pub trait TrieCursor {
    /// Number of variable levels.
    fn depth(&self) -> usize;

    /// The current key at the current level; `None` when exhausted.
    fn key(&self) -> Option<Iri>;

    /// The current key. Panics when `key()` is `None`.
    fn value(&self) -> Iri {
        self.key().expect("value() requires a current key")
    }

    /// Moves to the next distinct key at this level.
    fn advance(&mut self);

    /// Gallops to the first key `≥ target` at this level.
    fn seek(&mut self, target: Iri);

    /// Descends into the current key's sub-trie.
    fn open(&mut self);

    /// Returns to the parent level (positioned on the opened key).
    fn up(&mut self);

    /// Cumulative [`TrieOpStats`] since construction — a profiling
    /// hook; the default reports nothing.
    fn op_stats(&self) -> TrieOpStats {
        TrieOpStats::default()
    }
}

/// The count of leading elements of `run` satisfying `pred` (which must
/// be monotone: once false, false for the rest), by galloping —
/// exponential probing from the front, then binary search inside the
/// overshot window. `O(log i)` for an answer at position `i`, which is
/// what makes a leapfrog `seek` cheap when intersections are selective.
pub fn gallop<T>(run: &[T], pred: impl Fn(&T) -> bool) -> usize {
    if run.is_empty() || !pred(&run[0]) {
        return 0;
    }
    let mut step = 1usize;
    let mut lo = 0usize; // greatest index known to satisfy `pred`
    while lo + step < run.len() && pred(&run[lo + step]) {
        lo += step;
        step <<= 1;
    }
    let hi = run.len().min(lo + step);
    lo + 1 + run[lo + 1..hi].partition_point(|x| pred(x))
}

/// A [`TrieCursor`] over materialised rows: the pattern's distinct
/// bindings projected onto the variable order, sorted — the default
/// trie of every
/// [`TripleIndex`](crate::TripleIndex) backend, and the fallback
/// `wdsparql-store` uses when no sorted permutation matches a pattern's
/// constant/variable layout.
///
/// Rows are fixed-width `[Iri; 3]`; positions beyond
/// [`depth`](TrieCursor::depth) repeat the last projected term, so the
/// padding is a function of the key and sorting and deduplicating whole
/// rows stays exact.
pub struct MaterializedTrie {
    rows: Vec<[Iri; 3]>,
    depth: usize,
    /// Current half-open row range; meaningful only below the root.
    lo: usize,
    hi: usize,
    /// Saved parent ranges, one per open level (so the current level is
    /// `stack.len() - 1`; an empty stack is the virtual root — the
    /// bottom frame holds the root's unused placeholder range).
    stack: Vec<(usize, usize)>,
    stats: TrieOpStats,
}

impl MaterializedTrie {
    /// Builds the trie of `pat`'s matches, projected onto `vars` (which
    /// must list `vars(pat)` exactly, in the desired order) — a repeated
    /// variable reads its first position, so `matches` must already
    /// honour the pattern's repeats.
    pub fn from_matches(
        pat: &TriplePattern,
        matches: impl IntoIterator<Item = Triple>,
        vars: &[Variable],
    ) -> MaterializedTrie {
        let positions = pat.positions();
        let column = |&v: &Variable| {
            positions
                .iter()
                .position(|&t| t == Term::Var(v))
                .expect("projected variables occur in the pattern")
        };
        // Row positions past the depth repeat the last variable's column.
        let at: [usize; 3] = std::array::from_fn(|i| vars.get(i).or(vars.last()).map_or(0, column));
        let rows = matches
            .into_iter()
            .map(|t| at.map(|p| t.terms()[p]))
            .collect();
        MaterializedTrie::from_rows(rows, vars.len())
    }

    /// Builds a trie from projected rows (positions `depth..` are
    /// padding). Sorts and deduplicates.
    fn from_rows(mut rows: Vec<[Iri; 3]>, depth: usize) -> MaterializedTrie {
        assert!(depth <= 3, "a triple pattern has at most three variables");
        rows.sort_unstable();
        rows.dedup();
        MaterializedTrie {
            rows,
            depth,
            lo: 0,
            hi: 0,
            stack: Vec::new(),
            stats: TrieOpStats::default(),
        }
    }

    /// Current level, `None` at the virtual root.
    fn level(&self) -> Option<usize> {
        self.stack.len().checked_sub(1)
    }
}

impl TrieCursor for MaterializedTrie {
    fn depth(&self) -> usize {
        self.depth
    }

    fn key(&self) -> Option<Iri> {
        let level = self.level()?;
        (self.lo < self.hi).then(|| self.rows[self.lo][level])
    }

    fn advance(&mut self) {
        let Some(level) = self.level() else { return };
        if let Some(k) = self.key() {
            self.lo += gallop(&self.rows[self.lo..self.hi], |r| r[level] <= k);
        }
    }

    fn seek(&mut self, target: Iri) {
        let Some(level) = self.level() else { return };
        let moved = gallop(&self.rows[self.lo..self.hi], |r| r[level] < target);
        self.stats.seeks += 1;
        self.stats.gallop_steps += TrieOpStats::gallop_cost(moved);
        self.lo += moved;
    }

    fn open(&mut self) {
        match self.level() {
            // From the root: level 0 spans the whole relation.
            None => {
                self.stack.push((0, 0));
                self.lo = 0;
                self.hi = self.rows.len();
            }
            Some(level) => {
                let k = self.key().expect("open() requires a current key");
                let end = self.lo + gallop(&self.rows[self.lo..self.hi], |r| r[level] <= k);
                self.stack.push((self.lo, self.hi));
                self.hi = end;
            }
        }
    }

    fn up(&mut self) {
        let (lo, hi) = self.stack.pop().expect("up() without a matching open()");
        self.lo = lo;
        self.hi = hi;
    }

    fn op_stats(&self) -> TrieOpStats {
        self.stats
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn gallop_agrees_with_partition_point() {
        let xs: Vec<u32> = (0..100).map(|i| i * 3).collect();
        for t in 0..320 {
            assert_eq!(
                gallop(&xs, |&x| x < t),
                xs.partition_point(|&x| x < t),
                "target {t}"
            );
        }
        assert_eq!(gallop(&[] as &[u32], |&x| x < 5), 0);
    }

    /// `n` keys in ascending order: names interned in sequence get
    /// ascending ids, whichever test thread interns each first.
    fn keys(n: usize) -> Vec<Iri> {
        (0..n).map(|i| Iri::new(&format!("trie-key-{i}"))).collect()
    }

    #[test]
    fn cursor_walks_a_two_level_trie() {
        // Pairs (x, y): x=1 → {10, 11}; x=5 → {20}.
        let k = keys(21);
        let rows = [[5, 20], [1, 10], [1, 11], [1, 10]].map(|[x, y]| [k[x], k[y], k[y]]);
        let mut t = MaterializedTrie::from_rows(rows.to_vec(), 2);
        assert_eq!(t.depth(), 2);
        assert_eq!(t.key(), None, "the cursor starts at the virtual root");
        t.open();
        assert_eq!(t.key(), Some(k[1]));
        assert_eq!(t.value(), k[1]);
        t.open();
        assert_eq!(t.key(), Some(k[10]));
        t.advance();
        assert_eq!(t.key(), Some(k[11]));
        t.advance();
        assert_eq!(t.key(), None);
        t.up();
        assert_eq!(t.key(), Some(k[1]), "up() restores the opened key");
        t.advance();
        assert_eq!(t.key(), Some(k[5]));
        t.open();
        assert_eq!(t.key(), Some(k[20]));
        t.up();
        t.advance();
        assert_eq!(t.key(), None);
        // Re-entering from the root rewinds the whole level — what lets
        // the leapfrog driver restart a trie when an outer variable
        // advances.
        t.up();
        t.open();
        assert_eq!(t.key(), Some(k[1]));
        t.up();
    }

    #[test]
    fn op_stats_count_seeks_and_their_gallop_cost() {
        let k = keys(64);
        let mut t = MaterializedTrie::from_rows(k.iter().map(|&x| [x; 3]).collect(), 1);
        assert_eq!(t.op_stats(), TrieOpStats::default());
        t.open();
        t.seek(k[32]);
        t.seek(k[32]); // in place: a seek, but zero gallop cost
        let stats = t.op_stats();
        assert_eq!(stats.seeks, 2);
        assert_eq!(stats.gallop_steps, TrieOpStats::gallop_cost(32));
    }

    #[test]
    fn seek_gallops_forward_only() {
        let k = keys(100);
        let rows = (0..50).map(|i| [k[i * 2]; 3]).collect();
        let mut t = MaterializedTrie::from_rows(rows, 1);
        t.open();
        t.seek(k[31]);
        assert_eq!(t.key(), Some(k[32]));
        t.seek(k[32]);
        assert_eq!(t.key(), Some(k[32]), "seek to the current key stays put");
        t.seek(k[7]);
        assert_eq!(t.key(), Some(k[32]), "seek never moves backwards");
        t.seek(k[99]);
        assert_eq!(t.key(), None);
    }
}
