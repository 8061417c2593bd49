//! Row-run plumbing for the log-structured [`EncodedGraph`]: permutation
//! rotations, immutable sorted delta segments, k-way merges, id-window
//! offset tables and the `u32` capacity guard.
//!
//! A [`Segment`] is the unit of the write path: one `insert_batch`
//! becomes one segment holding the batch's rows sorted under all four
//! rotations (SPO at once, the others on first use). Segments are
//! immutable once built; compaction folds their SPO runs back into the
//! base arrays with one k-way merge.
//!
//! [`EncodedGraph`]: crate::EncodedGraph

use std::fmt;
use std::sync::OnceLock;
use wdsparql_rdf::Iri;

/// One row: a triple's terms under some rotation. Rows compare by
/// [`Iri`] interner id, so every sorted run is in interner order.
pub(crate) type Row = [Iri; 3];

/// Which permutation a row slice came from.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub(crate) enum Perm {
    Spo,
    Pos,
    Osp,
    /// Predicate-led, subject-sorted — the merge-join permutation.
    Pso,
}

impl Perm {
    /// Row position of each original component (s, p, o) in this
    /// permutation's rows.
    pub(crate) fn layout(self) -> [usize; 3] {
        match self {
            Perm::Spo => [0, 1, 2],
            Perm::Pos => [2, 0, 1],
            Perm::Osp => [1, 2, 0],
            Perm::Pso => [1, 0, 2],
        }
    }

    /// Rotates an `(s, p, o)` row into this permutation's order.
    pub(crate) fn rotate(self, [s, p, o]: Row) -> Row {
        match self {
            Perm::Spo => [s, p, o],
            Perm::Pos => [p, o, s],
            Perm::Osp => [o, s, p],
            Perm::Pso => [p, s, o],
        }
    }

    /// Reassembles a row of this permutation into (s, p, o) ids.
    pub(crate) fn spo_of(self, row: Row) -> Row {
        let [s, p, o] = self.layout();
        [row[s], row[p], row[o]]
    }
}

/// Hard capacity of one [`EncodedGraph`]: the per-permutation offset
/// tables hold `u32` row indexes, so the triple count must stay
/// representable — at most `u32::MAX` rows.
///
/// [`EncodedGraph`]: crate::EncodedGraph
pub const MAX_TRIPLES: usize = u32::MAX as usize;

/// An insert was refused because it would push the store past its
/// capacity: [`MAX_TRIPLES`] rows (above which the `u32` offset tables
/// would silently truncate), or a lower limit configured with
/// `EncodedGraph::set_capacity_limit` / `TripleStore::set_capacity_limit`
/// (an ingest guard for operators and tests).
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct CapacityError {
    /// The row count the rejected insert would have produced.
    pub attempted: usize,
    /// The capacity it tripped: [`MAX_TRIPLES`] or the configured limit.
    pub limit: usize,
}

impl fmt::Display for CapacityError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        if self.limit < MAX_TRIPLES {
            write!(
                f,
                "store capacity exceeded: {} triples over the configured \
                 limit of {}",
                self.attempted, self.limit
            )
        } else {
            write!(
                f,
                "store capacity exceeded: {} triples would overflow the u32 \
                 offset tables (max {MAX_TRIPLES})",
                self.attempted
            )
        }
    }
}

impl std::error::Error for CapacityError {}

/// Guards the boundary arithmetic behind [`MAX_TRIPLES`] (or a lower
/// configured `limit`): `Ok` exactly when a store of `total_rows`
/// triples stays within the limit — and therefore still indexes with
/// `u32` offsets, since `limit` is clamped to [`MAX_TRIPLES`].
pub(crate) fn check_capacity(total_rows: usize, limit: usize) -> Result<(), CapacityError> {
    let limit = limit.min(MAX_TRIPLES);
    if total_rows > limit {
        return Err(CapacityError {
            attempted: total_rows,
            limit,
        });
    }
    debug_assert!(u32::try_from(total_rows).is_ok());
    Ok(())
}

/// One immutable delta segment: the new rows of a single `insert_batch`,
/// sorted in SPO order. The POS, OSP and PSO rotations are derived lazily
/// on the first scan that needs them — an ingest-only workload (batch
/// after batch, compact, never read between) pays for exactly one sort
/// per batch. Bounded-prefix scans over a segment run use binary search
/// directly — the runs are small, so they carry no offset tables — and
/// compaction consumes only the SPO run (the merged base re-derives the
/// other permutations by counting scatters, see [`scatter_by`]).
#[derive(Clone, Debug)]
pub(crate) struct Segment {
    spo: Vec<Row>,
    pos: OnceLock<Vec<Row>>,
    osp: OnceLock<Vec<Row>>,
    pso: OnceLock<Vec<Row>>,
}

impl Segment {
    /// Builds a segment from rows already sorted in SPO order.
    pub(crate) fn from_sorted_spo(spo: Vec<Row>) -> Segment {
        debug_assert!(spo.is_sorted());
        Segment {
            spo,
            pos: OnceLock::new(),
            osp: OnceLock::new(),
            pso: OnceLock::new(),
        }
    }

    pub(crate) fn len(&self) -> usize {
        self.spo.len()
    }

    fn rotated(&self, perm: Perm) -> Vec<Row> {
        let mut rows: Vec<Row> = self.spo.iter().map(|&r| perm.rotate(r)).collect();
        if perm == Perm::Pso {
            // One predicate's SPO rows are already in (s, o) order, so a
            // stable sort on the predicate alone finishes the run.
            rows.sort_by_key(|r| r[0]);
        } else {
            rows.sort_unstable();
        }
        rows
    }

    /// The segment's sorted run under `perm`.
    pub(crate) fn rows(&self, perm: Perm) -> &[Row] {
        match perm {
            Perm::Spo => &self.spo,
            Perm::Pos => self.pos.get_or_init(|| self.rotated(Perm::Pos)),
            Perm::Osp => self.osp.get_or_init(|| self.rotated(Perm::Osp)),
            Perm::Pso => self.pso.get_or_init(|| self.rotated(Perm::Pso)),
        }
    }

    /// Consumes the segment into its SPO run — the compaction hand-off
    /// (the base rebuilds every other permutation from the merged SPO).
    pub(crate) fn into_spo(self) -> Vec<Row> {
        self.spo
    }
}

/// The **key level** of a predicate-led base permutation (PSO, POS): its
/// distinct `(lead, second)` id pairs in row order — each pair's second
/// id and the row it starts at, plus one end sentinel, 8 bytes a pair.
/// Held in RAM beside the base and never written to disk. A trie walks a
/// block's first variable over these dense keys instead of galloping
/// over 12-byte rows and their duplicates.
#[derive(Clone, Debug)]
pub(crate) struct KeyLevel {
    keys: Vec<Iri>,
    /// `starts[i]..starts[i + 1]` are pair `i`'s rows; the last entry is
    /// the row count.
    starts: Vec<u32>,
}

impl KeyLevel {
    /// The key level of sorted `rows`: one counting walk sizes it, one
    /// more fills it.
    pub(crate) fn of(rows: &[Row]) -> KeyLevel {
        debug_assert!(u32::try_from(rows.len()).is_ok(), "capacity guard bypassed");
        let starts_pair = |i: usize| i == 0 || rows[i - 1][..2] != rows[i][..2];
        let pairs = (0..rows.len()).filter(|&i| starts_pair(i)).count();
        let mut level = KeyLevel {
            keys: Vec::with_capacity(pairs),
            starts: Vec::with_capacity(pairs + 1),
        };
        for i in (0..rows.len()).filter(|&i| starts_pair(i)) {
            level.keys.push(rows[i][1]);
            level.starts.push(i as u32);
        }
        level.starts.push(rows.len() as u32);
        level
    }

    /// The keyed view of one lead id's block, `rows[lo..hi]` of the
    /// permutation this level was built from: two binary searches.
    pub(crate) fn block<'a>(&'a self, rows: &'a [Row], lo: u32, hi: u32) -> KeyedBlock<'a> {
        let first = self.starts.partition_point(|&s| s < lo);
        let end = self.starts.partition_point(|&s| s < hi);
        KeyedBlock {
            keys: &self.keys[first..end],
            starts: &self.starts[first..=end],
            rows,
        }
    }
}

/// One lead id's block of a [`KeyLevel`]: its distinct second ids,
/// ascending, each with its rows. Never empty while a trie holds it.
#[derive(Clone, Copy, Debug)]
pub(crate) struct KeyedBlock<'a> {
    pub(crate) keys: &'a [Iri],
    /// One longer than `keys`: `keys[i]`'s rows are
    /// `rows[starts[i]..starts[i + 1]]`.
    starts: &'a [u32],
    rows: &'a [Row],
}

impl<'a> KeyedBlock<'a> {
    /// Drops the first `n` keys.
    #[inline]
    pub(crate) fn skip(&mut self, n: usize) {
        self.keys = &self.keys[n..];
        self.starts = &self.starts[n..];
    }

    /// The rows of the first key: two loads, no search.
    #[inline]
    pub(crate) fn first_rows(&self) -> &'a [Row] {
        &self.rows[self.starts[0] as usize..self.starts[1] as usize]
    }
}

/// The id window `[lo, lo + len)` an offset table covers: the ids
/// between the smallest and the largest term of a graph. A table indexes
/// `id − lo`, so its size follows the graph's own terms, not how many
/// names the process interned before them.
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub(crate) struct Window {
    pub(crate) lo: u32,
    pub(crate) len: usize,
}

impl Window {
    /// The window spanning `lo..=hi`.
    pub(crate) fn spanning(lo: Iri, hi: Iri) -> Window {
        Window {
            lo: lo.id(),
            len: (hi.id() - lo.id()) as usize + 1,
        }
    }

    /// `id`'s slot, `None` outside the window.
    #[inline]
    pub(crate) fn slot(self, id: Iri) -> Option<usize> {
        let i = id.id().wrapping_sub(self.lo) as usize;
        (i < self.len).then_some(i)
    }
}

/// Stable counting sort of `rows` by the component at `key`, each row
/// rotated by `rotate` on its way out; `off` is that component's offset
/// table over `window` ([`offsets`]). Because counting sort is stable,
/// feeding rows already sorted by a secondary order yields the full
/// lexicographic order of the rotated rows in **O(rows + window)** — no
/// comparisons: SPO scattered by `o` is OSP, OSP scattered by `p` is
/// POS, SPO scattered by `p` is PSO.
pub(crate) fn scatter_by(
    rows: &[Row],
    key: usize,
    off: &[u32],
    window: Window,
    rotate: impl Fn(Row) -> Row,
) -> Vec<Row> {
    let mut cursor: Vec<u32> = off.to_vec();
    let mut out = rows.to_vec();
    for &row in rows {
        let slot = &mut cursor[(row[key].id() - window.lo) as usize];
        out[*slot as usize] = rotate(row);
        *slot += 1;
    }
    out
}

/// Merges two sorted runs into one sorted vector; equal items are all
/// kept.
pub(crate) fn merge_sorted<T: Ord + Copy>(a: &[T], b: &[T]) -> Vec<T> {
    let mut out = Vec::with_capacity(a.len() + b.len());
    let (mut i, mut j) = (0, 0);
    while i < a.len() && j < b.len() {
        if a[i] <= b[j] {
            out.push(a[i]);
            i += 1;
        } else {
            out.push(b[j]);
            j += 1;
        }
    }
    out.extend_from_slice(&a[i..]);
    out.extend_from_slice(&b[j..]);
    out
}

/// K-way merge of sorted runs into one sorted vector — the compaction
/// primitive (row runs, pairwise disjoint) and the sharded fan-out's
/// gather (per-shard value lists, deduplicated by the caller).
/// Tournament rounds merge runs pairwise (similar sizes first), so total
/// work is `O(items · log runs)` rather than the quadratic left fold.
pub(crate) fn merge_many<T: Ord + Copy>(runs: Vec<Vec<T>>) -> Vec<T> {
    let mut runs: Vec<Vec<T>> = runs.into_iter().filter(|r| !r.is_empty()).collect();
    runs.sort_by_key(Vec::len);
    while runs.len() > 1 {
        let mut next = Vec::with_capacity(runs.len().div_ceil(2));
        let mut iter = runs.into_iter();
        while let Some(a) = iter.next() {
            match iter.next() {
                Some(b) => next.push(merge_sorted(&a, &b)),
                None => next.push(a),
            }
        }
        runs = next;
    }
    runs.pop().unwrap_or_default()
}

/// The offset table of component `key` over `window`: `off[id − lo]..
/// off[id − lo + 1]` is the row range a sort by that component gives
/// `id` — for `key == 0` on sorted rows, the rows whose first component
/// is `id`. The caller guarantees (via [`check_capacity`]) that the row
/// count fits `u32`, and that every row's `key` component lies in the
/// window.
pub(crate) fn offsets(rows: &[Row], key: usize, window: Window) -> Vec<u32> {
    debug_assert!(u32::try_from(rows.len()).is_ok(), "capacity guard bypassed");
    let mut off = vec![0u32; window.len + 1];
    for row in rows {
        off[(row[key].id() - window.lo) as usize + 1] += 1;
    }
    for i in 1..off.len() {
        off[i] += off[i - 1];
    }
    off
}

/// Lazy k-way merge over sorted, disjoint row runs, yielding globally
/// sorted rows — the read-side counterpart of [`merge_many`], used by
/// `EncodedGraph::iter` to present base + deltas in SPO order without
/// materialising the merge.
pub(crate) struct MergedRows<'a> {
    /// The remaining suffix of every source run.
    heads: Vec<&'a [Row]>,
}

impl<'a> MergedRows<'a> {
    pub(crate) fn new(sources: impl IntoIterator<Item = &'a [Row]>) -> MergedRows<'a> {
        MergedRows {
            heads: sources.into_iter().filter(|s| !s.is_empty()).collect(),
        }
    }
}

impl Iterator for MergedRows<'_> {
    type Item = Row;

    fn next(&mut self) -> Option<Row> {
        // Linear min over the run heads: the run count is small (one base
        // + a bounded number of segments), so a heap would cost more than
        // it saves.
        let (pos, _) = self
            .heads
            .iter()
            .enumerate()
            .min_by_key(|(_, run)| run[0])?;
        let run = &mut self.heads[pos];
        let row = run[0];
        *run = &run[1..];
        if run.is_empty() {
            self.heads.swap_remove(pos);
        }
        Some(row)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    /// `n` fresh terms, ascending: interned in order under a name
    /// nothing else uses, so `t[i] < t[i + 1]`.
    fn terms(tag: &str, n: usize) -> Vec<Iri> {
        (0..n)
            .map(|i| Iri::new(&format!("segment-test-{tag}-{i}")))
            .collect()
    }

    /// Rows of small indexes into `t`.
    fn rows(t: &[Iri], ix: &[[usize; 3]]) -> Vec<Row> {
        ix.iter().map(|r| r.map(|i| t[i])).collect()
    }

    #[test]
    fn rotations_round_trip() {
        let t = terms("rotate", 3);
        let row: Row = [t[0], t[1], t[2]];
        for perm in [Perm::Spo, Perm::Pos, Perm::Osp, Perm::Pso] {
            assert_eq!(perm.spo_of(perm.rotate(row)), row, "{perm:?}");
        }
    }

    #[test]
    fn capacity_guard_boundary_arithmetic() {
        assert_eq!(check_capacity(0, MAX_TRIPLES), Ok(()));
        assert_eq!(check_capacity(MAX_TRIPLES, MAX_TRIPLES), Ok(()));
        let err = check_capacity(MAX_TRIPLES + 1, MAX_TRIPLES).unwrap_err();
        assert_eq!(err.attempted, MAX_TRIPLES + 1);
        assert_eq!(err.limit, MAX_TRIPLES);
        assert!(err.to_string().contains("capacity exceeded"));
        // A configured limit trips earlier, names itself, and is clamped
        // to the hard u32 bound.
        assert_eq!(check_capacity(10, 10), Ok(()));
        let err = check_capacity(11, 10).unwrap_err();
        assert_eq!((err.attempted, err.limit), (11, 10));
        assert!(err.to_string().contains("configured limit of 10"));
        assert_eq!(
            check_capacity(MAX_TRIPLES + 1, usize::MAX)
                .unwrap_err()
                .limit,
            MAX_TRIPLES
        );
        // The guard is exactly the u32 representability bound the offset
        // tables rely on.
        assert_eq!(MAX_TRIPLES, u32::MAX as usize);
    }

    #[test]
    fn segment_runs_are_sorted_rotations() {
        // Predicates interleave across subjects, so the PSO run's stable
        // predicate pass has subject and object order to keep.
        let t = terms("segment", 3);
        let spo = rows(
            &t,
            &[
                [0, 1, 2],
                [0, 2, 1],
                [1, 0, 0],
                [1, 1, 0],
                [1, 2, 0],
                [2, 1, 1],
            ],
        );
        let seg = Segment::from_sorted_spo(spo.clone());
        assert_eq!(seg.len(), 6);
        let sorted_rotation = |perm: Perm| {
            let mut rows: Vec<Row> = spo.iter().map(|&r| perm.rotate(r)).collect();
            rows.sort_unstable();
            rows
        };
        for perm in [Perm::Spo, Perm::Pos, Perm::Osp, Perm::Pso] {
            assert_eq!(seg.rows(perm), sorted_rotation(perm), "{perm:?}");
        }
    }

    #[test]
    fn scatters_derive_the_other_permutations() {
        // A small but irregular SPO-sorted set.
        let t = terms("scatter", 3);
        let mut spo = rows(
            &t,
            &[
                [0, 1, 2],
                [0, 2, 1],
                [1, 0, 0],
                [1, 1, 2],
                [2, 0, 1],
                [2, 2, 2],
            ],
        );
        spo.sort_unstable();
        let w = Window::spanning(t[0], t[2]);
        let sorted_rotation = |perm: Perm| {
            let mut rows: Vec<Row> = spo.iter().map(|&r| perm.rotate(r)).collect();
            rows.sort_unstable();
            rows
        };
        let osp_off = offsets(&spo, 2, w);
        let osp = scatter_by(&spo, 2, &osp_off, w, |[s, p, o]| [o, s, p]);
        assert_eq!(osp, sorted_rotation(Perm::Osp));
        assert_eq!(osp_off, offsets(&osp, 0, w));
        let pos_off = offsets(&osp, 2, w);
        let pos = scatter_by(&osp, 2, &pos_off, w, |[o, s, p]| [p, o, s]);
        assert_eq!(pos, sorted_rotation(Perm::Pos));
        assert_eq!(pos_off, offsets(&pos, 0, w));
        let pso = scatter_by(&spo, 1, &pos_off, w, |[s, p, o]| [p, s, o]);
        assert_eq!(pso, sorted_rotation(Perm::Pso));
        assert_eq!(pos_off, offsets(&pso, 0, w));
    }

    #[test]
    fn key_levels_index_the_distinct_pairs() {
        // PSO rows; predicate 2's block is rows 3..6, subjects 0 and 2.
        let t = terms("keys", 3);
        let pso = rows(
            &t,
            &[
                [0, 1, 0],
                [1, 0, 2],
                [1, 1, 2],
                [2, 0, 1],
                [2, 2, 0],
                [2, 2, 2],
            ],
        );
        let level = KeyLevel::of(&pso);
        assert_eq!(level.keys, [t[1], t[0], t[1], t[0], t[2]]);
        assert_eq!(level.starts, [0, 1, 2, 3, 4, 6]);
        let mut block = level.block(&pso, 3, 6);
        assert_eq!(block.keys, &[t[0], t[2]]);
        assert_eq!(block.first_rows(), &pso[3..4]);
        block.skip(1);
        assert_eq!(block.first_rows(), &pso[4..6]);
        let first = level.block(&pso, 0, 1);
        assert_eq!((first.keys, first.first_rows()), (&t[1..2], &pso[..1]));
        assert_eq!(KeyLevel::of(&[]).starts, [0]);
    }

    #[test]
    fn merges_agree_with_sorting() {
        let t = terms("merge", 6);
        let a = rows(&t, &[[0, 0, 0], [2, 0, 0], [4, 0, 0]]);
        let b = rows(&t, &[[1, 0, 0], [3, 0, 0]]);
        let c = rows(&t, &[[5, 0, 0]]);
        let mut want: Vec<Row> = [a.clone(), b.clone(), c.clone()].concat();
        want.sort_unstable();
        assert_eq!(merge_sorted(&a, &b), merge_many(vec![a.clone(), b.clone()]));
        assert_eq!(merge_many(vec![a.clone(), b.clone(), c.clone()]), want);
        assert_eq!(merge_many::<Row>(vec![]), Vec::<Row>::new());
        let merged: Vec<Row> =
            MergedRows::new([a.as_slice(), b.as_slice(), c.as_slice()]).collect();
        assert_eq!(merged, want);
    }

    #[test]
    fn offsets_partition_by_leading_id() {
        let t = terms("offsets", 10);
        let rs = rows(&t, &[[7, 9, 9], [7, 9, 9], [9, 1, 1]]);
        // The window spans the rows' leads, not the ids below them.
        let w = Window::spanning(t[7], t[9]);
        let off = offsets(&rs, 0, w);
        assert_eq!(off.len(), w.len + 1);
        let block = |i: Iri| w.slot(i).map(|k| off[k]..off[k + 1]);
        assert_eq!(block(t[7]), Some(0..2));
        assert_eq!(block(t[8]), Some(2..2));
        assert_eq!(block(t[9]), Some(2..3));
        assert_eq!(block(t[6]), None);
        assert_eq!(block(Iri::new("segment-test-later")), None);
    }
}
