//! [`EncodedGraph`]: the triple set as sorted permutation arrays with a
//! log-structured write path.
//!
//! Every triple is stored as a row of its three [`Iri`]s — the interner
//! id is the store's term id — under several component rotations:
//!
//! ```text
//! SPO  rows are (s, p, o)   answers  (s ? ?) (s p ?) (s p o) (? ? ?)
//! POS  rows are (p, o, s)   answers  (? p ?) (? p o)
//! OSP  rows are (o, s, p)   answers  (? ? o) (s ? o)
//! PSO  rows are (p, s, o)   subject-sorted (? p ?) — merge-join inputs
//! ```
//!
//! The **base** arrays hold the compacted bulk. Each base permutation
//! carries an offset array indexed by leading id over the graph's **id
//! window** — the ids between its smallest and its largest term — so a
//! bound *first* component resolves to its contiguous row range in O(1),
//! and the tables' size follows the graph's terms, not how many names
//! the process interned before them. One bitset over the ids is the
//! graph's term table: `dom(G)`, membership, the term count, the window,
//! and the O(1) empty answer for a constant the graph never saw. Writes
//! are **log-structured**: `insert_batch` appends one small sorted
//! `Segment` per call instead of rewriting the base, in two halves —
//! `fresh_rows` sorts and dedups the batch and drops the rows the graph
//! holds (read-only, so the service runs it on a lock-free snapshot),
//! `append_fresh` adds the terms and pushes the segment (under the
//! service's write lock). Reads merge base + segments behind the same
//! bounded-prefix narrowing (segments are tiny, so their leading ranges
//! come from binary search instead of offsets).
//! [`EncodedGraph::compact`] folds the segments back into the base with
//! one k-way merge of the SPO runs and re-derives OSP, POS and PSO by
//! stable counting scatters (PSO shares POS's offset table: both count
//! rows per predicate). A segment derives each of its other three runs
//! on the first read that asks for it. The base's PSO and
//! POS each get a **key level** — per predicate block, its distinct
//! subject / object ids and the row each starts at — which the WCOJ trie
//! walks instead of the rows; it is built by one walk over the
//! permutation the first time a trie asks for it after a compaction, so
//! ingest, reopen and stores never joined by the WCOJ do not pay for it.
//! `append_fresh` folds on its own under one fixed rule: at
//! `MAX_SEGMENTS` (48) pending segments, or once
//! `4 · delta rows > base rows + ADAPTIVE_SLACK` (4096).

use crate::segment::{
    check_capacity, merge_many, offsets, scatter_by, KeyLevel, KeyedBlock, MergedRows, Perm, Row,
    Segment, Window,
};
pub use crate::segment::{CapacityError, MAX_TRIPLES};
use std::collections::BTreeMap;
use std::sync::OnceLock;
use wdsparql_rdf::{Iri, IriSet, RdfGraph, Term, Triple, TripleIndex, TriplePattern};

/// Segment-count bound of the fold rule: every scan binary-searches each
/// pending segment, so [`EncodedGraph::insert_batch`] folds them back
/// into the base once there are this many.
const MAX_SEGMENTS: usize = 48;
/// Size bound of the fold rule: `insert_batch` also folds once
/// `4 · delta rows > base rows + ADAPTIVE_SLACK` — amortised `O(log n)`
/// base rewrites per row, with enough slack that tiny stores do not
/// compact on every batch.
const ADAPTIVE_SLACK: usize = 4096;

/// A permutation-indexed set of ground triples, keyed by [`Iri`] id.
#[derive(Clone, Debug, Default)]
pub struct EncodedGraph {
    /// `dom(G)`: one bit per interner id of a term the graph holds.
    terms: IriSet,
    /// Compacted base permutations.
    spo: Vec<Row>,
    pos: Vec<Row>,
    osp: Vec<Row>,
    /// Subject-sorted merge-join permutation, rebuilt by
    /// [`Self::compact`]; each pending segment carries its own PSO run.
    pso: Vec<Row>,
    /// The ids the offset tables cover: the graph's terms at the last
    /// compaction.
    window: Window,
    /// Leading-id offset tables over `window`. PSO reads POS's: both
    /// count rows per predicate.
    spo_off: Vec<u32>,
    pos_off: Vec<u32>,
    osp_off: Vec<u32>,
    /// Key levels of the two predicate-led base permutations, each built
    /// by the first [`EncodedGraph::block_keys`] call after the
    /// compaction that wrote its permutation.
    pso_keys: OnceLock<KeyLevel>,
    pos_keys: OnceLock<KeyLevel>,
    /// Pending delta segments, oldest first; disjoint from the base and
    /// from each other.
    segments: Vec<Segment>,
    /// Total rows across `segments`.
    delta_rows: usize,
    /// Lifetime count of delta folds (not bumped by no-op compactions).
    compactions: u64,
}

/// The narrowed row runs answering one pattern: the base range plus one
/// run per pending delta segment, all under the same permutation. The
/// base is held apart from the deltas so the common fully-compacted case
/// allocates nothing (an empty `Vec` has no heap block).
pub(crate) struct PatternRuns<'a> {
    pub(crate) base: &'a [Row],
    pub(crate) deltas: Vec<&'a [Row]>,
}

impl<'a> PatternRuns<'a> {
    /// The non-empty runs, base first.
    pub(crate) fn iter(&self) -> impl Iterator<Item = &'a [Row]> + '_ {
        std::iter::once(self.base)
            .chain(self.deltas.iter().copied())
            .filter(|r| !r.is_empty())
    }

    fn total(&self) -> usize {
        self.base.len() + self.deltas.iter().map(|d| d.len()).sum::<usize>()
    }
}

/// The resolution of a pattern against the indexes: the permutation
/// whose sorted prefix covers the bound positions, the narrowed runs,
/// and the per-row tests the runs cannot express. `residual` is `None`
/// on every shape but one — the `(s ? o)` hybrid, where a tiny subject
/// block is scanned with the object as a per-row filter instead of
/// binary-searching a hub object's block; `eqs` is empty unless the
/// pattern repeats a variable.
struct Scan<'a> {
    perm: Perm,
    runs: PatternRuns<'a>,
    /// At most one `(row position, required term)` filter.
    residual: Option<(usize, Iri)>,
    /// Row-position pairs that must hold equal ids.
    eqs: Vec<(usize, usize)>,
}

impl Scan<'_> {
    /// No per-row test: every row of the runs matches.
    #[inline]
    fn exact(&self) -> bool {
        self.residual.is_none() && self.eqs.is_empty()
    }

    /// Calls `f` on every matching row, in `perm`'s layout. Exact runs
    /// take a loop without a test: this is under every pairwise probe.
    #[inline]
    fn for_each(&self, mut f: impl FnMut(&Row)) {
        if self.exact() {
            for src in self.runs.iter() {
                src.iter().for_each(&mut f);
            }
            return;
        }
        for src in self.runs.iter() {
            for row in src {
                if self.residual.is_none_or(|(pos, id)| row[pos] == id)
                    && self.eqs.iter().all(|&(i, j)| row[i] == row[j])
                {
                    f(row);
                }
            }
        }
    }
}

impl EncodedGraph {
    pub fn new() -> EncodedGraph {
        EncodedGraph::default()
    }

    /// One-shot build: a single batch, compacted (so the PSO permutation
    /// is ready before the first query).
    pub fn from_triples<I>(triples: I) -> EncodedGraph
    where
        I: IntoIterator<Item = Triple>,
    {
        let mut g = EncodedGraph::new();
        g.insert_batch(triples)
            .expect("one-shot build exceeds MAX_TRIPLES");
        g.compact();
        g
    }

    /// Re-encodes an [`RdfGraph`].
    pub fn from_rdf(g: &RdfGraph) -> EncodedGraph {
        EncodedGraph::from_triples(g.iter().copied())
    }

    /// Bulk insert: sorts `triples` into one new delta segment per call
    /// — `O(batch · log batch)` plus a containment probe per row, never
    /// a base rewrite (unless the fold rule — see `MAX_SEGMENTS` — is due
    /// afterwards). Returns the number of triples that were not already
    /// present.
    ///
    /// Errors with [`CapacityError`] — leaving the graph (and its term
    /// table) untouched — when the insert would push the store past
    /// [`MAX_TRIPLES`] rows, the bound above which the `u32` offset
    /// tables would silently truncate.
    pub fn insert_batch<I>(&mut self, triples: I) -> Result<usize, CapacityError>
    where
        I: IntoIterator<Item = Triple>,
    {
        self.insert_batch_capped(triples, MAX_TRIPLES)
    }

    /// [`EncodedGraph::insert_batch`] under a row-count `limit` (clamped
    /// to [`MAX_TRIPLES`]): [`EncodedGraph::fresh_rows`], the capacity
    /// check, [`EncodedGraph::append_fresh`]. The limit is a parameter,
    /// not graph state, so configuring it never touches the
    /// copy-on-write payload.
    pub(crate) fn insert_batch_capped(
        &mut self,
        triples: impl IntoIterator<Item = Triple>,
        limit: usize,
    ) -> Result<usize, CapacityError> {
        let rows = self.fresh_rows(triples);
        check_capacity(self.len() + rows.len(), limit)?;
        Ok(self.append_fresh(rows))
    }

    /// The rows of `triples` this graph lacks, sorted and distinct: one
    /// sort, in-batch duplicates dropped by the dedup, then
    /// [`EncodedGraph::retain_absent`].
    pub(crate) fn fresh_rows(&self, triples: impl IntoIterator<Item = Triple>) -> Vec<Row> {
        let mut rows: Vec<Row> = triples.into_iter().map(Triple::terms).collect();
        rows.sort_unstable();
        rows.dedup();
        self.retain_absent(&mut rows);
        rows
    }

    /// Drops from the sorted `rows` those this graph holds: rows a
    /// segment holds in one two-pointer walk per segment, rows the base
    /// holds in one block search each.
    pub(crate) fn retain_absent(&self, rows: &mut Vec<Row>) {
        debug_assert!(rows.is_sorted());
        for seg in &self.segments {
            let run = seg.rows(Perm::Spo);
            let mut i = 0;
            rows.retain(|row| {
                while i < run.len() && run[i] < *row {
                    i += 1;
                }
                run.get(i) != Some(row)
            });
        }
        rows.retain(|&row| !self.base_contains(row));
    }

    /// Appends `rows` — sorted, distinct and absent from the graph, as
    /// [`EncodedGraph::fresh_rows`] returns them — as one delta segment,
    /// then applies the fold rule. Returns the number of rows added.
    /// Terms join the table only here, once the batch is accepted: a
    /// refused batch leaves no terms behind.
    pub(crate) fn append_fresh(&mut self, rows: Vec<Row>) -> usize {
        if rows.is_empty() {
            return 0;
        }
        for &term in rows.iter().flatten() {
            self.terms.insert(term);
        }
        let segment = Segment::from_sorted_spo(rows);
        let added = segment.len();
        self.delta_rows += added;
        self.segments.push(segment);
        crate::obs::on_segment_append();
        if self.auto_compact_due() {
            self.compact();
        }
        added
    }

    fn auto_compact_due(&self) -> bool {
        self.segments.len() >= MAX_SEGMENTS || self.delta_rows * 4 > self.spo.len() + ADAPTIVE_SLACK
    }

    /// Folds every pending delta segment into the base arrays: one k-way
    /// merge of the SPO runs, then the OSP, POS and PSO permutations and
    /// the three offset tables are re-derived from the merged SPO by
    /// stable counting scatters over the new id window (`O(rows +
    /// window)` each, no comparison sorts — see `scatter_by`). Returns
    /// `false` when there was nothing to do. The triple set is unchanged
    /// — only its physical layout.
    pub fn compact(&mut self) -> bool {
        if self.is_compacted() {
            return false;
        }
        let start = std::time::Instant::now();
        if !self.segments.is_empty() {
            self.compactions += 1;
            self.delta_rows = 0;
            let mut spo_runs = vec![std::mem::take(&mut self.spo)];
            for seg in std::mem::take(&mut self.segments) {
                spo_runs.push(seg.into_spo());
            }
            self.spo = merge_many(spo_runs);
        }
        let w = self
            .terms
            .bounds()
            .map_or_else(Window::default, |(lo, hi)| Window::spanning(lo, hi));
        self.window = w;
        self.spo_off = offsets(&self.spo, 0, w);
        // Stability chains the sort keys: SPO scattered by o is OSP,
        // OSP scattered by p is POS, SPO scattered by p is PSO (whose
        // offset table is POS's — both count rows per predicate).
        self.osp_off = offsets(&self.spo, 2, w);
        self.osp = scatter_by(&self.spo, 2, &self.osp_off, w, |[s, p, o]| [o, s, p]);
        self.pos_off = offsets(&self.spo, 1, w);
        self.pos = scatter_by(&self.osp, 2, &self.pos_off, w, |[o, s, p]| [p, o, s]);
        self.pso = scatter_by(&self.spo, 1, &self.pos_off, w, |[s, p, o]| [p, s, o]);
        // The old base's key levels; the new ones are built on first use.
        self.pso_keys.take();
        self.pos_keys.take();
        debug_assert!(self.osp.is_sorted() && self.pos.is_sorted() && self.pso.is_sorted());
        crate::obs::on_compaction(start.elapsed());
        true
    }

    pub fn len(&self) -> usize {
        self.spo.len() + self.delta_rows
    }

    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }

    /// Rows in the compacted base arrays.
    pub fn base_len(&self) -> usize {
        self.spo.len()
    }

    /// Rows pending in delta segments (not yet compacted).
    pub fn delta_len(&self) -> usize {
        self.delta_rows
    }

    /// Pending delta segments.
    pub fn segment_count(&self) -> usize {
        self.segments.len()
    }

    /// True when [`EncodedGraph::compact`] would have nothing to do: no
    /// pending segments and the PSO permutation is in sync with the base.
    pub fn is_compacted(&self) -> bool {
        self.segments.is_empty() && self.pso.len() == self.spo.len()
    }

    /// Lifetime count of delta folds.
    pub fn compactions(&self) -> u64 {
        self.compactions
    }

    /// Number of distinct terms (= `|dom(G)|`).
    pub fn term_count(&self) -> usize {
        self.terms.len()
    }

    pub fn contains(&self, t: &Triple) -> bool {
        let row = t.terms();
        if !row.iter().all(|&i| self.terms.contains(i)) {
            return false;
        }
        self.base_contains(row)
            || self
                .segments
                .iter()
                .any(|s| s.rows(Perm::Spo).binary_search(&row).is_ok())
    }

    fn base_contains(&self, row: Row) -> bool {
        self.leading_range(&self.spo, &self.spo_off, row[0])
            .binary_search(&row)
            .is_ok()
    }

    /// The contiguous row range of base permutation `rows` whose leading
    /// component is `id` — O(1) through the offset array. Empty when the
    /// id is outside the window (terms added after the last compaction
    /// have no base rows yet).
    #[inline]
    fn leading_range<'a>(&self, rows: &'a [Row], off: &[u32], id: Iri) -> &'a [Row] {
        match self.window.slot(id) {
            Some(i) => &rows[off[i] as usize..off[i + 1] as usize],
            None => &[],
        }
    }

    /// Narrows a sorted row slice to the rows with `row[pos] == key` by
    /// binary search. Valid whenever the slice is sorted on `pos` (i.e.
    /// all earlier row positions are constant on the slice; for `pos ==
    /// 0` that holds on any sorted run, which is how segment runs resolve
    /// their leading component without an offset table).
    #[inline]
    fn narrow(slice: &[Row], pos: usize, key: Iri) -> &[Row] {
        let lo = slice.partition_point(|r| r[pos] < key);
        let hi = lo + slice[lo..].partition_point(|r| r[pos] <= key);
        &slice[lo..hi]
    }

    /// The pattern's bound positions, `None` for a variable — or `None`
    /// outright when a bound term is not in the graph (nothing can
    /// match): one bit test per constant.
    #[inline]
    pub(crate) fn bound_terms(&self, pat: &TriplePattern) -> Option<[Option<Iri>; 3]> {
        let mut bound = [None; 3];
        for (slot, term) in bound.iter_mut().zip(pat.positions()) {
            if let Term::Iri(i) = term {
                if !self.terms.contains(i) {
                    return None;
                }
                *slot = Some(i);
            }
        }
        Some(bound)
    }

    /// The permutation whose sorted prefix covers every bound position —
    /// the **exact-run dispatch**: with four permutations every bound
    /// shape has one, so the matching rows always form contiguous runs
    /// (O(1) through the base offset table plus one binary search per
    /// pending segment), with no residual filtering and no candidate
    /// comparison. An exact run *is* the constant-match set, hence
    /// minimal — the adaptive comparison the pre-PSO layout needed would
    /// only re-derive this choice at three times the probe cost (the
    /// `sp?` / `s?o` / `enc_count` gap against `RdfGraph` in
    /// `BENCH_store.json` was exactly that overhead). `None` when no
    /// position is bound. `(? p ?)` takes the subject-sorted PSO block
    /// (sort-free merge-join candidates).
    #[inline]
    fn exact_perm(spo_ids: [Option<Iri>; 3]) -> Option<Perm> {
        match spo_ids.map(|id| id.is_some()) {
            [false, false, false] => None,
            [true, true, _] | [true, false, false] => Some(Perm::Spo),
            [true, false, true] | [false, false, true] => Some(Perm::Osp),
            [false, true, true] => Some(Perm::Pos),
            [false, true, false] => Some(Perm::Pso),
        }
    }

    /// Base rows and leading-id offset table of a permutation.
    #[inline]
    fn perm_base(&self, perm: Perm) -> (&[Row], &[u32]) {
        match perm {
            Perm::Spo => (&self.spo, &self.spo_off),
            Perm::Pos => (&self.pos, &self.pos_off),
            Perm::Osp => (&self.osp, &self.osp_off),
            Perm::Pso => (&self.pso, &self.pos_off),
        }
    }

    /// The bound ids of `spo_ids` rotated into `perm`'s row positions.
    /// For a serving permutation they occupy a prefix.
    #[inline]
    fn prefix_keys(perm: Perm, spo_ids: [Option<Iri>; 3]) -> [Option<Iri>; 3] {
        let layout = perm.layout();
        let mut keys = [None; 3];
        for (component, id) in spo_ids.into_iter().enumerate() {
            keys[layout[component]] = id;
        }
        debug_assert!(
            keys.windows(2).all(|w| w[0].is_some() || w[1].is_none()),
            "bound ids must form a sorted prefix of {perm:?}"
        );
        keys
    }

    /// Narrows one already-lead-resolved run by the remaining prefix
    /// keys, binary search per bound position.
    #[inline]
    fn narrow_prefix<'a>(mut run: &'a [Row], keys: &[Option<Iri>; 3], from: usize) -> &'a [Row] {
        for (pos, key) in keys.iter().enumerate().skip(from) {
            match key {
                Some(k) => run = Self::narrow(run, pos, *k),
                None => break,
            }
        }
        run
    }

    /// The narrowed row runs of `perm` holding exactly the rows whose
    /// leading components equal the bound ids of `spo_ids`. The bound
    /// positions must form a prefix of `perm`'s layout (what
    /// [`EncodedGraph::exact_perm`] and the WCOJ trie planner both
    /// guarantee). Allocation-free when no segments are pending.
    pub(crate) fn pattern_runs(&self, perm: Perm, spo_ids: [Option<Iri>; 3]) -> PatternRuns<'_> {
        let keys = Self::prefix_keys(perm, spo_ids);
        let (rows, off) = self.perm_base(perm);
        let base = match keys[0] {
            Some(lead) => self.leading_range(rows, off, lead),
            None => rows,
        };
        let base = Self::narrow_prefix(base, &keys, 1);
        let deltas: Vec<&[Row]> = self
            .segments
            .iter()
            .map(|seg| Self::narrow_prefix(seg.rows(perm), &keys, 0))
            .filter(|run| !run.is_empty())
            .collect();
        PatternRuns { base, deltas }
    }

    /// The key level of base block `lead` of a predicate-led permutation
    /// (PSO or POS): the block's distinct second-column ids, each with
    /// its rows — what the WCOJ trie walks a bound predicate's first
    /// variable over. `None` for SPO / OSP and for an empty block.
    pub(crate) fn block_keys(&self, perm: Perm, lead: Iri) -> Option<KeyedBlock<'_>> {
        let (rows, level) = match perm {
            Perm::Pso => (&self.pso, &self.pso_keys),
            Perm::Pos => (&self.pos, &self.pos_keys),
            Perm::Spo | Perm::Osp => return None,
        };
        let i = self.window.slot(lead)?;
        let (lo, hi) = (self.pos_off[i], self.pos_off[i + 1]);
        (lo < hi).then(|| level.get_or_init(|| KeyLevel::of(rows)).block(rows, lo, hi))
    }

    /// The [`Scan`] answering `pat`; `None` when a bound term is not in
    /// the graph (nothing can match).
    #[inline]
    fn scan(&self, pat: &TriplePattern) -> Option<Scan<'_>> {
        let spo_ids = self.bound_terms(pat)?;
        let Some(perm) = Self::exact_perm(spo_ids) else {
            // No bound component: full scan over SPO, base + all deltas.
            return Some(Scan {
                perm: Perm::Spo,
                runs: PatternRuns {
                    base: &self.spo,
                    deltas: self.segments.iter().map(|s| s.rows(Perm::Spo)).collect(),
                },
                residual: None,
                eqs: Self::repeat_constraints(pat, Perm::Spo),
            });
        };
        // `(s ? o)` hybrid: both leading block lengths are two offset
        // loads away; when the subject's block is no bigger than the
        // object's, a linear scan of it with the object as a residual
        // filter beats binary-searching a hub object's block (a subject
        // emits a handful of triples; a type-like object collects
        // thousands).
        if perm == Perm::Osp && spo_ids[1].is_none() {
            if let (Some(s), Some(o)) = (spo_ids[0], spo_ids[2]) {
                let s_len = self.leading_range(&self.spo, &self.spo_off, s).len();
                let o_len = self.leading_range(&self.osp, &self.osp_off, o).len();
                if s_len <= o_len {
                    return Some(Scan {
                        perm: Perm::Spo,
                        runs: self.pattern_runs(Perm::Spo, [Some(s), None, None]),
                        residual: Some((2, o)),
                        eqs: Vec::new(),
                    });
                }
            }
        }
        Some(Scan {
            perm,
            runs: self.pattern_runs(perm, spo_ids),
            residual: None,
            eqs: Self::repeat_constraints(pat, perm),
        })
    }

    /// Row-position pairs (in `perm`'s layout) that must hold equal ids
    /// because the pattern repeats a variable there.
    fn repeat_constraints(pat: &TriplePattern, perm: Perm) -> Vec<(usize, usize)> {
        let layout = perm.layout();
        let terms = pat.positions();
        let mut out = Vec::new();
        for i in 0..3 {
            for j in (i + 1)..3 {
                if let (Term::Var(a), Term::Var(b)) = (terms[i], terms[j]) {
                    if a == b {
                        out.push((layout[i], layout[j]));
                    }
                }
            }
        }
        out
    }

    /// The **exact** number of triples matching the pattern's constant
    /// positions: the bound-prefix run lengths of the exact permutation —
    /// two offset loads on the base plus one binary search per pending
    /// segment, cheap enough for the hom solver's per-node fail-first
    /// probes and the BGP planner's selectivity estimates. With the PSO
    /// permutation in place every bound shape resolves to an exact run
    /// (see `EncodedGraph::exact_perm`), so this is no longer merely an
    /// upper bound. Repeated variables are not constants: `(?x p ?x)`
    /// counts every `p`-triple.
    pub fn candidate_count(&self, pat: &TriplePattern) -> usize {
        let Some(spo_ids) = self.bound_terms(pat) else {
            return 0;
        };
        let Some(perm) = Self::exact_perm(spo_ids) else {
            return self.len();
        };
        // Inlined run arithmetic (no `PatternRuns` value): this is the
        // hom solver's per-node probe, called millions of times — it
        // must stay a handful of loads and binary searches with zero
        // allocation.
        let keys = Self::prefix_keys(perm, spo_ids);
        let (rows, off) = self.perm_base(perm);
        let base = match keys[0] {
            Some(lead) => self.leading_range(rows, off, lead),
            None => rows,
        };
        let mut count = Self::narrow_prefix(base, &keys, 1).len();
        for seg in &self.segments {
            count += Self::narrow_prefix(seg.rows(perm), &keys, 0).len();
        }
        count
    }

    /// All triples matching `pat`, honouring repeated variables.
    pub fn match_pattern(&self, pat: &TriplePattern) -> Vec<Triple> {
        let Some(scan) = self.scan(pat) else {
            return Vec::new();
        };
        let mut out = Vec::with_capacity(if scan.exact() { scan.runs.total() } else { 0 });
        scan.for_each(|&row| {
            let [s, p, o] = scan.perm.spo_of(row);
            out.push(Triple::new(s, p, o));
        });
        out
    }

    /// The sorted, deduplicated terms that variable `v` can take in a
    /// match of `pat` — the merge-join input, ascending in [`Iri`] order.
    /// `None` when `v` does not occur in `pat`. When the scan lands on a
    /// run already sorted by `v`'s row position (PSO's subject-sorted
    /// predicate blocks, or any leading position), the comparison sort is
    /// skipped.
    pub fn candidate_ids(
        &self,
        pat: &TriplePattern,
        v: wdsparql_rdf::Variable,
    ) -> Option<Vec<Iri>> {
        let first = pat.positions().iter().position(|&t| t == Term::Var(v))?;
        let Some(scan) = self.scan(pat) else {
            return Some(Vec::new());
        };
        let take = scan.perm.layout()[first];
        let mut ids: Vec<Iri> = Vec::new();
        scan.for_each(|row| ids.push(row[take]));
        if !ids.is_sorted() {
            ids.sort_unstable();
        }
        ids.dedup();
        Some(ids)
    }

    /// [`EncodedGraph::candidate_ids`] — the rows hold the terms
    /// themselves, so the backend-independent semi-join input behind
    /// [`TripleIndex::candidate_values`] is the same list.
    pub fn candidate_values(
        &self,
        pat: &TriplePattern,
        v: wdsparql_rdf::Variable,
    ) -> Option<Vec<Iri>> {
        self.candidate_ids(pat, v)
    }

    /// Sorted-merge intersection of the candidate id lists of a variable
    /// shared by two patterns — the classic merge join on one join
    /// variable. `None` when `v` is missing from either pattern.
    pub fn merge_join_ids(
        &self,
        a: &TriplePattern,
        b: &TriplePattern,
        v: wdsparql_rdf::Variable,
    ) -> Option<Vec<Iri>> {
        let xs = self.candidate_ids(a, v)?;
        let ys = self.candidate_ids(b, v)?;
        Some(intersect_sorted(&xs, &ys))
    }

    /// Distinct predicates with their cardinalities, descending — the
    /// selectivity statistics behind the service's query planner. Base
    /// counts read off the POS offsets; pending segments are folded in.
    pub fn predicate_cardinalities(&self) -> Vec<(Iri, usize)> {
        let mut counts: BTreeMap<Iri, usize> = BTreeMap::new();
        for w in self.pos_off.windows(2).filter(|w| w[1] > w[0]) {
            counts.insert(self.pos[w[0] as usize][0], (w[1] - w[0]) as usize);
        }
        for seg in &self.segments {
            for block in seg.rows(Perm::Pos).chunk_by(|a, b| a[0] == b[0]) {
                *counts.entry(block[0][0]).or_default() += block.len();
            }
        }
        let mut out: Vec<(Iri, usize)> = counts.into_iter().collect();
        out.sort_by(|a, b| b.1.cmp(&a.1).then(a.0.cmp(&b.0)));
        out
    }

    /// Number of distinct terms occurring as subjects / predicates /
    /// objects: the base offset tables plus the pending segments.
    pub fn position_cardinalities(&self) -> (usize, usize, usize) {
        let distinct = |perm: Perm| {
            let (rows, off) = self.perm_base(perm);
            let blocks = off.windows(2).filter(|w| w[1] > w[0]);
            if self.segments.is_empty() {
                return blocks.count();
            }
            let mut seen = IriSet::new();
            for w in blocks {
                seen.insert(rows[w[0] as usize][0]);
            }
            for seg in &self.segments {
                for row in seg.rows(perm) {
                    seen.insert(row[0]);
                }
            }
            seen.len()
        };
        (
            distinct(Perm::Spo),
            distinct(Perm::Pos),
            distinct(Perm::Osp),
        )
    }

    /// All triples in SPO order — a lazy k-way merge of the base run and
    /// every pending segment.
    pub fn iter(&self) -> impl Iterator<Item = Triple> + '_ {
        MergedRows::new(
            std::iter::once(self.spo.as_slice())
                .chain(self.segments.iter().map(|s| s.rows(Perm::Spo))),
        )
        .map(|[s, p, o]| Triple::new(s, p, o))
    }

    /// The whole store as an [`RdfGraph`].
    pub fn to_rdf(&self) -> RdfGraph {
        self.iter().collect()
    }
}

impl TripleIndex for EncodedGraph {
    fn len(&self) -> usize {
        EncodedGraph::len(self)
    }

    fn contains(&self, t: &Triple) -> bool {
        EncodedGraph::contains(self, t)
    }

    fn triples(&self) -> Box<dyn Iterator<Item = Triple> + '_> {
        Box::new(self.iter())
    }

    fn dom(&self) -> Box<dyn Iterator<Item = Iri> + '_> {
        Box::new(self.terms.iter())
    }

    fn dom_contains(&self, i: Iri) -> bool {
        self.terms.contains(i)
    }

    fn candidate_count(&self, pat: &TriplePattern) -> usize {
        EncodedGraph::candidate_count(self, pat)
    }

    fn match_pattern(&self, pat: &TriplePattern) -> Vec<Triple> {
        EncodedGraph::match_pattern(self, pat)
    }

    fn candidate_values(&self, pat: &TriplePattern, v: wdsparql_rdf::Variable) -> Option<Vec<Iri>> {
        EncodedGraph::candidate_values(self, pat, v)
    }

    /// The WCOJ trie view: zero-copy over the permutation whose prefix
    /// matches the pattern's bound positions and variable order (base +
    /// delta segment runs, [`Iri`] ids as keys), falling back to the
    /// materialised trie of the pattern's matches when no permutation
    /// fits — see [`crate::wcoj`].
    fn trie_cursor<'a>(
        &'a self,
        pat: &TriplePattern,
        vars: &[wdsparql_rdf::Variable],
    ) -> Box<dyn wdsparql_rdf::TrieCursor + 'a> {
        crate::wcoj::encoded_trie(self, pat, vars)
    }
}

impl FromIterator<Triple> for EncodedGraph {
    fn from_iter<T: IntoIterator<Item = Triple>>(iter: T) -> EncodedGraph {
        EncodedGraph::from_triples(iter)
    }
}

impl PartialEq for EncodedGraph {
    /// Set equality up to physical layout: both graphs hold the same
    /// ground triples (compacted or not).
    fn eq(&self, other: &EncodedGraph) -> bool {
        self.len() == other.len() && self.iter().all(|t| other.contains(&t))
    }
}

impl Eq for EncodedGraph {}

/// Two-pointer intersection of sorted term lists.
fn intersect_sorted(a: &[Iri], b: &[Iri]) -> Vec<Iri> {
    let mut out = Vec::with_capacity(a.len().min(b.len()));
    let (mut i, mut j) = (0, 0);
    while i < a.len() && j < b.len() {
        match a[i].cmp(&b[j]) {
            std::cmp::Ordering::Less => i += 1,
            std::cmp::Ordering::Greater => j += 1,
            std::cmp::Ordering::Equal => {
                out.push(a[i]);
                i += 1;
                j += 1;
            }
        }
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::collections::BTreeSet;
    use wdsparql_rdf::term::{iri, var};
    use wdsparql_rdf::{tp, Variable};

    fn sample() -> EncodedGraph {
        EncodedGraph::from_triples(
            [
                ("a", "p", "b"),
                ("a", "p", "c"),
                ("b", "p", "c"),
                ("b", "q", "a"),
                ("c", "q", "a"),
            ]
            .map(|(s, p, o)| Triple::from_strs(s, p, o)),
        )
    }

    #[test]
    fn build_deduplicates_and_sorts() {
        let g = EncodedGraph::from_triples([
            Triple::from_strs("x", "r", "y"),
            Triple::from_strs("x", "r", "y"),
        ]);
        assert_eq!(g.len(), 1);
        assert!(g.contains(&Triple::from_strs("x", "r", "y")));
        assert!(!g.contains(&Triple::from_strs("y", "r", "x")));
    }

    /// `name` as an [`Iri`] interned after 100 000 unrelated names, so
    /// its id sits far above every name the other tests use.
    fn late(name: &str) -> Iri {
        static PADDING: std::sync::Once = std::sync::Once::new();
        PADDING.call_once(|| {
            for i in 0..100_000 {
                Iri::new(&format!("id-window-padding-{i}"));
            }
        });
        Iri::new(&format!("late/{name}"))
    }

    /// The id layouts each agreement test runs under: names as given
    /// (small ids), every name late (a narrow window far above zero), and
    /// names ending in an odd byte late (one wide window over both).
    #[derive(Clone, Copy, Debug)]
    enum Ids {
        Early,
        Late,
        Mixed,
    }

    impl Ids {
        const ALL: [Ids; 3] = [Ids::Early, Ids::Late, Ids::Mixed];

        fn iri(self, name: &str) -> Iri {
            let odd = name.bytes().last().is_some_and(|b| b % 2 == 1);
            match self {
                Ids::Late => late(name),
                Ids::Mixed if odd => late(name),
                Ids::Early | Ids::Mixed => Iri::new(name),
            }
        }

        fn triple(self, s: &str, p: &str, o: &str) -> Triple {
            Triple::new(self.iri(s), self.iri(p), self.iri(o))
        }

        /// `pat` with its constants renamed (spelled through [`Iri`]).
        fn pattern(self, pat: &TriplePattern) -> TriplePattern {
            let [s, p, o] = pat.positions().map(|t| match t {
                Term::Iri(i) => Term::Iri(self.iri(i.as_str())),
                v => v,
            });
            tp(s, p, o)
        }
    }

    /// Every walk of a trie, root to leaf, as its terms; checks on the
    /// way that each key is its term's id and that keys ascend.
    fn walk(cur: &mut dyn wdsparql_rdf::TrieCursor) -> Vec<Vec<Iri>> {
        fn go(cur: &mut dyn wdsparql_rdf::TrieCursor, at: &mut Vec<Iri>, out: &mut Vec<Vec<Iri>>) {
            cur.open();
            let mut last = None;
            while let Some(key) = cur.key() {
                assert_eq!(cur.value(), key);
                assert!(last < Some(key), "keys ascend");
                last = Some(key);
                at.push(key);
                if at.len() == cur.depth() {
                    out.push(at.clone());
                } else {
                    go(cur, at, out);
                }
                at.pop();
                cur.advance();
            }
            cur.up();
        }
        let mut out = Vec::new();
        go(cur, &mut Vec::new(), &mut out);
        out
    }

    /// Every ordering of `vs`.
    fn orders(vs: &[Variable]) -> Vec<Vec<Variable>> {
        if vs.len() <= 1 {
            return vec![vs.to_vec()];
        }
        let mut out = Vec::new();
        for (i, &v) in vs.iter().enumerate() {
            let mut rest = vs.to_vec();
            rest.remove(i);
            for mut tail in orders(&rest) {
                tail.insert(0, v);
                out.push(tail);
            }
        }
        out
    }

    /// Holds `g` to `r` (the same triples) on every read it serves, for
    /// each of `pats`: matches, exact constant counts, candidate ids and
    /// values of each variable, and the trie of every variable order
    /// (keyed, row-walked or materialised — whichever `g` picks) against
    /// the default materialised trie; then `dom`, `dom_contains`,
    /// `term_count` and the position and predicate cardinalities. A
    /// compacted `g`'s offset tables must span its id window exactly.
    fn agrees_with(g: &EncodedGraph, r: &RdfGraph, pats: &[TriplePattern], label: &str) {
        assert_eq!(g.len(), r.len(), "{label}");
        for pat in pats {
            let (mut got, mut want) = (g.match_pattern(pat), r.match_pattern(pat));
            got.sort();
            want.sort();
            assert_eq!(got, want, "{label}: pattern {pat}");
            let constant_matches = r
                .iter()
                .filter(|t| {
                    (0..3).all(|i| {
                        pat.positions()[i]
                            .as_iri()
                            .is_none_or(|c| c == t.terms()[i])
                    })
                })
                .count();
            assert_eq!(g.candidate_count(pat), constant_matches, "{label}: {pat}");
            assert_eq!(
                g.solutions(pat).len(),
                r.solutions(pat).len(),
                "{label}: {pat}"
            );
            let vars: Vec<Variable> = pat.vars().into_iter().collect();
            for &v in &vars {
                let mut want: Vec<Iri> = r.solutions(pat).iter().filter_map(|m| m.get(v)).collect();
                want.sort();
                want.dedup();
                assert_eq!(
                    g.candidate_ids(pat, v).as_ref(),
                    Some(&want),
                    "{label}: {pat} {v}"
                );
                assert_eq!(g.candidate_values(pat, v), Some(want), "{label}: {pat} {v}");
            }
            assert_eq!(g.candidate_ids(pat, Variable::new("unused")), None);
            if vars.is_empty() {
                continue;
            }
            for order in orders(&vars) {
                assert_eq!(
                    walk(&mut *g.trie_cursor(pat, &order)),
                    walk(&mut *r.trie_cursor(pat, &order)),
                    "{label}: trie of {pat} over {order:?}"
                );
            }
        }
        let dom: Vec<Iri> = g.dom().collect();
        assert!(dom.is_sorted(), "{label}: dom ascends");
        assert_eq!(dom, r.dom().collect::<Vec<_>>(), "{label}");
        assert_eq!(g.term_count(), dom.len(), "{label}");
        assert!(dom.iter().all(|&i| g.dom_contains(i)), "{label}");
        assert!(!g.dom_contains(Iri::new("never-in-any-graph")), "{label}");
        let distinct = |f: fn(&Triple) -> Iri| r.iter().map(f).collect::<BTreeSet<Iri>>().len();
        assert_eq!(
            g.position_cardinalities(),
            (distinct(|t| t.s), distinct(|t| t.p), distinct(|t| t.o)),
            "{label}"
        );
        let mut per_p: BTreeMap<Iri, usize> = BTreeMap::new();
        for t in r.iter() {
            *per_p.entry(t.p).or_default() += 1;
        }
        let mut want: Vec<(Iri, usize)> = per_p.into_iter().collect();
        want.sort_by(|a, b| b.1.cmp(&a.1).then(a.0.cmp(&b.0)));
        assert_eq!(g.predicate_cardinalities(), want, "{label}");
        if g.is_compacted() {
            let span = g.terms.bounds().map_or(0, |(lo, hi)| hi.id() - lo.id() + 1);
            assert_eq!(g.window.lo, dom.first().map_or(0, |i| i.id()), "{label}");
            for off in [&g.spo_off, &g.pos_off, &g.osp_off] {
                assert_eq!(off.len(), span as usize + 1, "{label}: sized by the window");
            }
        }
    }

    /// `g` as built, and compacted.
    fn agrees_before_and_after_compaction(
        g: &EncodedGraph,
        r: &RdfGraph,
        pats: &[TriplePattern],
        label: &str,
    ) {
        agrees_with(g, r, pats, label);
        let mut folded = g.clone();
        folded.compact();
        agrees_with(&folded, r, pats, &format!("{label}, compacted"));
    }

    #[test]
    fn every_access_pattern_matches_the_rdf_graph() {
        let strs = [
            ("a", "p", "b"),
            ("a", "p", "c"),
            ("b", "p", "c"),
            ("b", "q", "a"),
            ("c", "q", "a"),
            ("c", "q", "c"),
        ];
        let pats = [
            tp(iri("a"), iri("p"), iri("b")),
            tp(iri("a"), iri("p"), var("y")),
            tp(iri("a"), var("x"), iri("b")),
            tp(iri("a"), var("x"), var("y")),
            tp(var("x"), iri("p"), iri("c")),
            tp(var("x"), iri("q"), var("y")),
            tp(var("x"), var("y"), iri("a")),
            tp(var("x"), var("y"), var("z")),
            tp(var("x"), iri("q"), var("x")),
            tp(iri("zz"), iri("p"), var("y")),
        ];
        for ids in Ids::ALL {
            let ts: Vec<Triple> = strs.iter().map(|&(s, p, o)| ids.triple(s, p, o)).collect();
            let pats: Vec<TriplePattern> = pats.iter().map(|p| ids.pattern(p)).collect();
            let r = RdfGraph::from_triples(ts.iter().copied());
            // Once compacted (PSO live), once with every triple still in
            // delta segments, once half-and-half.
            let compacted = EncodedGraph::from_triples(ts.iter().copied());
            let mut all_delta = EncodedGraph::new();
            for &t in &ts {
                all_delta.insert_batch([t]).unwrap();
            }
            let mut half = EncodedGraph::new();
            half.insert_batch(ts[..3].iter().copied()).unwrap();
            half.compact();
            half.insert_batch(ts[3..].iter().copied()).unwrap();
            for (label, g) in [
                ("compacted", &compacted),
                ("all-delta", &all_delta),
                ("half", &half),
            ] {
                agrees_before_and_after_compaction(g, &r, &pats, &format!("{ids:?} {label}"));
            }
            if let Ids::Late = ids {
                assert!(compacted.window.lo >= 100_000 && compacted.spo_off.len() < 100_000);
            }
        }
    }

    #[test]
    fn repeated_variables_constrain_matches() {
        let mut g = sample();
        g.insert_batch([Triple::from_strs("d", "p", "d")]).unwrap();
        let loops = g.match_pattern(&tp(var("x"), iri("p"), var("x")));
        assert_eq!(loops, vec![Triple::from_strs("d", "p", "d")]);
        assert!(g
            .match_pattern(&tp(var("x"), var("x"), var("x")))
            .is_empty());
    }

    /// The exact-run dispatch counts the constant-match set exactly on
    /// **every** bound shape — with rows in the base, in pending
    /// segments, and split across both (the pre-PSO layout could only
    /// upper-bound the residual-filtered shapes).
    #[test]
    fn candidate_count_is_exact_on_every_bound_shape() {
        let strs = [
            ("a", "p", "b"),
            ("a", "p", "c"),
            ("a", "q", "b"),
            ("b", "p", "c"),
            ("b", "q", "a"),
            ("c", "q", "a"),
        ];
        let compacted =
            EncodedGraph::from_triples(strs.map(|(s, p, o)| Triple::from_strs(s, p, o)));
        let mut staged = EncodedGraph::new();
        for t in strs {
            staged
                .insert_batch([Triple::from_strs(t.0, t.1, t.2)])
                .unwrap();
        }
        let mut half = EncodedGraph::new();
        half.insert_batch(strs[..3].iter().map(|t| Triple::from_strs(t.0, t.1, t.2)))
            .unwrap();
        half.compact();
        half.insert_batch(strs[3..].iter().map(|t| Triple::from_strs(t.0, t.1, t.2)))
            .unwrap();
        // (bound shape, expected exact count) — every access path,
        // including the pair-bound shapes the old adaptive comparison
        // could only upper-bound.
        let exact = [
            (tp(iri("a"), var("x"), var("y")), 3),
            (tp(iri("a"), iri("p"), var("y")), 2),
            (tp(iri("a"), iri("p"), iri("c")), 1),
            (tp(var("x"), iri("q"), var("y")), 3),
            (tp(var("x"), var("w"), iri("a")), 2),
            (tp(var("x"), var("w"), var("y")), 6),
            (tp(var("x"), iri("q"), iri("a")), 2),
            (tp(iri("a"), var("w"), iri("b")), 2),
        ];
        for (label, g) in [
            ("compacted", &compacted),
            ("staged", &staged),
            ("half", &half),
        ] {
            for (pat, want) in &exact {
                assert_eq!(g.candidate_count(pat), *want, "{label}: {pat}");
                assert_eq!(
                    g.candidate_count(pat),
                    g.match_pattern(pat).len(),
                    "{label}: {pat} count must equal the match set"
                );
            }
        }
        // Unknown constants still count zero through the fast path.
        assert_eq!(
            compacted.candidate_count(&tp(iri("zz"), iri("p"), var("y"))),
            0
        );
    }

    #[test]
    fn capped_inserts_refuse_cleanly() {
        let mut g = EncodedGraph::new();
        g.insert_batch_capped([Triple::from_strs("a", "p", "b")], 2)
            .unwrap();
        let err = g
            .insert_batch_capped(
                [
                    Triple::from_strs("c", "p", "d"),
                    Triple::from_strs("e", "p", "f"),
                ],
                2,
            )
            .unwrap_err();
        assert_eq!((err.attempted, err.limit), (3, 2));
        assert_eq!(g.len(), 1, "refused batch leaves the graph unchanged");
        assert_eq!(g.term_count(), 3, "refused batch interns nothing");
        // Exactly at the limit is fine; duplicates never count twice.
        g.insert_batch_capped(
            [
                Triple::from_strs("a", "p", "b"),
                Triple::from_strs("c", "p", "d"),
            ],
            2,
        )
        .unwrap();
        assert_eq!(g.len(), 2);
        // The plain insert path is uncapped (up to MAX_TRIPLES).
        g.insert_batch([Triple::from_strs("e", "p", "f")]).unwrap();
        assert_eq!(g.len(), 3);
    }

    #[test]
    fn candidate_values_are_sorted_iris() {
        let g = sample();
        let pat = tp(var("s"), iri("q"), var("o"));
        let vals = g.candidate_values(&pat, Variable::new("s")).unwrap();
        assert!(vals.is_sorted());
        let mut names: Vec<&str> = vals.iter().map(|i| i.as_str()).collect();
        names.sort_unstable();
        assert_eq!(names, vec!["b", "c"]);
        assert!(g.candidate_values(&pat, Variable::new("nope")).is_none());
        // The trait view serves the same list.
        let ix: &dyn TripleIndex = &g;
        assert_eq!(ix.candidate_values(&pat, Variable::new("s")), Some(vals));
    }

    #[test]
    fn unknown_terms_match_nothing() {
        let g = sample();
        assert!(g
            .match_pattern(&tp(iri("zzz"), var("x"), var("y")))
            .is_empty());
        assert_eq!(g.candidate_count(&tp(var("x"), iri("zzz"), var("y"))), 0);
        assert!(!g.contains(&Triple::from_strs("a", "p", "zzz")));
    }

    #[test]
    fn incremental_batches_agree_with_one_shot_build() {
        let pats = [
            tp(var("x"), iri("p1"), var("y")),
            tp(iri("s3"), var("q"), var("y")),
            tp(var("x"), var("q"), iri("o12")),
            tp(var("x"), var("q"), var("y")),
        ];
        for ids in Ids::ALL {
            let all: Vec<Triple> = (0..40)
                .map(|i| {
                    ids.triple(
                        &format!("s{}", i % 7),
                        &format!("p{}", i % 3),
                        &format!("o{i}"),
                    )
                })
                .collect();
            let pats: Vec<TriplePattern> = pats.iter().map(|p| ids.pattern(p)).collect();
            let r = RdfGraph::from_triples(all.iter().copied());
            let one_shot = EncodedGraph::from_triples(all.iter().copied());
            let mut incremental = EncodedGraph::new();
            for chunk in all.chunks(9) {
                incremental.insert_batch(chunk.iter().copied()).unwrap();
            }
            assert_eq!(one_shot, incremental);
            // Re-inserting is a no-op.
            assert_eq!(incremental.insert_batch(all.iter().copied()).unwrap(), 0);
            agrees_with(&one_shot, &r, &pats, &format!("{ids:?} one-shot"));
            agrees_with(&incremental, &r, &pats, &format!("{ids:?} incremental"));
            // Compaction changes the layout, never the contents.
            incremental.compact();
            assert_eq!(incremental.segment_count(), 0);
            assert_eq!(one_shot, incremental);
            agrees_with(&incremental, &r, &pats, &format!("{ids:?} compacted"));
        }
    }

    #[test]
    fn segment_lifecycle_and_stats() {
        let mut g = EncodedGraph::new();
        assert_eq!(
            g.insert_batch([Triple::from_strs("a", "p", "b")]).unwrap(),
            1
        );
        assert_eq!(
            g.insert_batch([Triple::from_strs("c", "p", "d")]).unwrap(),
            1
        );
        assert_eq!((g.base_len(), g.delta_len(), g.segment_count()), (0, 2, 2));
        assert_eq!(g.compactions(), 0);
        // A batch of known triples adds no segment.
        assert_eq!(
            g.insert_batch([Triple::from_strs("a", "p", "b")]).unwrap(),
            0
        );
        assert_eq!(g.segment_count(), 2);
        assert!(g.compact());
        assert_eq!((g.base_len(), g.delta_len(), g.segment_count()), (2, 0, 0));
        assert_eq!(g.compactions(), 1);
        // A second compact is a no-op and does not count.
        assert!(!g.compact());
        assert_eq!(g.compactions(), 1);
    }

    /// The fold rule `insert_batch` runs on its own: at `MAX_SEGMENTS`
    /// pending segments, or once `4 · delta > base + ADAPTIVE_SLACK` —
    /// and not a batch earlier. A fold changes the layout only: `len()`
    /// and the answers track an `RdfGraph` of the same triples on both
    /// sides of it.
    #[test]
    fn deltas_fold_at_the_segment_and_size_thresholds() {
        let t = |i: usize| Triple::from_strs(&format!("s{}", i % 7), "p", &format!("o{i}"));
        let pats = [
            tp(var("x"), iri("p"), var("y")),
            tp(iri("s3"), var("q"), var("y")),
            tp(var("x"), var("q"), iri("o5")),
        ];
        let agrees = |g: &EncodedGraph, n: usize| {
            let oracle = RdfGraph::from_triples((0..n).map(t));
            assert_eq!(g.len(), oracle.len());
            for pat in &pats {
                let (mut got, mut want) = (g.match_pattern(pat), oracle.match_pattern(pat));
                got.sort();
                want.sort();
                assert_eq!(got, want, "{n} triples, pattern {pat}");
            }
        };
        let layout = |g: &EncodedGraph| (g.base_len(), g.delta_len(), g.segment_count());

        // One-triple batches stay staged up to the 47th segment; the
        // 48th folds them all.
        let mut g = EncodedGraph::new();
        for i in 0..MAX_SEGMENTS - 1 {
            g.insert_batch([t(i)]).unwrap();
        }
        assert_eq!(layout(&g), (0, MAX_SEGMENTS - 1, MAX_SEGMENTS - 1));
        assert_eq!(g.compactions(), 0);
        agrees(&g, MAX_SEGMENTS - 1);
        g.insert_batch([t(MAX_SEGMENTS - 1)]).unwrap();
        assert_eq!(layout(&g), (MAX_SEGMENTS, 0, 0));
        assert_eq!(g.compactions(), 1);
        agrees(&g, MAX_SEGMENTS);

        // On a compacted base a delta stays staged at exactly
        // `4 · delta = base + ADAPTIVE_SLACK` and folds one row later.
        let base = 400;
        let staged = (base + ADAPTIVE_SLACK) / 4;
        assert_eq!(4 * staged, base + ADAPTIVE_SLACK);
        let mut g = EncodedGraph::from_triples((0..base).map(t));
        let folds = g.compactions();
        g.insert_batch((base..base + staged).map(t)).unwrap();
        assert_eq!(layout(&g), (base, staged, 1));
        assert_eq!(g.compactions(), folds);
        agrees(&g, base + staged);
        g.insert_batch([t(base + staged)]).unwrap();
        assert_eq!(layout(&g), (base + staged + 1, 0, 0));
        assert_eq!(g.compactions(), folds + 1);
        agrees(&g, base + staged + 1);
    }

    #[test]
    fn queries_agree_before_and_after_compaction() {
        let mut g = EncodedGraph::new();
        for i in 0..30 {
            g.insert_batch((0..4).map(|j| {
                Triple::from_strs(
                    &format!("s{}", i % 5),
                    &format!("p{}", j % 2),
                    &format!("o{j}"),
                )
            }))
            .unwrap();
        }
        let pats = [
            tp(var("x"), iri("p0"), var("y")),
            tp(iri("s1"), var("q"), var("y")),
            tp(var("x"), iri("p1"), iri("o3")),
            tp(var("x"), var("q"), var("y")),
        ];
        let before: Vec<Vec<Triple>> = pats
            .iter()
            .map(|p| {
                let mut m = g.match_pattern(p);
                m.sort();
                m
            })
            .collect();
        assert!(g.segment_count() > 0, "deltas must be present before");
        g.compact();
        for (pat, want) in pats.iter().zip(before) {
            let mut got = g.match_pattern(pat);
            got.sort();
            assert_eq!(got, want, "pattern {pat}");
        }
    }

    #[test]
    fn merge_join_intersects_shared_variable() {
        let g = EncodedGraph::from_triples(
            [
                ("a", "p", "x"),
                ("b", "p", "x"),
                ("c", "p", "x"),
                ("b", "q", "y"),
                ("c", "q", "y"),
                ("d", "q", "y"),
            ]
            .map(|(s, p, o)| Triple::from_strs(s, p, o)),
        );
        let p1 = tp(var("s"), iri("p"), var("o1"));
        let p2 = tp(var("s"), iri("q"), var("o2"));
        let shared = g.merge_join_ids(&p1, &p2, Variable::new("s")).unwrap();
        let mut names: Vec<&str> = shared.iter().map(|i| i.as_str()).collect();
        names.sort_unstable();
        assert_eq!(names, vec!["b", "c"]);
        assert!(g.merge_join_ids(&p1, &p2, Variable::new("nope")).is_none());
    }

    #[test]
    fn candidate_ids_are_sorted_with_and_without_deltas() {
        let triples: Vec<Triple> = (0..40)
            .map(|i| Triple::from_strs(&format!("s{}", (i * 7) % 13), "p", &format!("o{i}")))
            .collect();
        let compacted = EncodedGraph::from_triples(triples.iter().copied());
        let mut staged = EncodedGraph::new();
        for chunk in triples.chunks(11) {
            staged.insert_batch(chunk.iter().copied()).unwrap();
        }
        let pat = tp(var("s"), iri("p"), var("o"));
        let a = compacted.candidate_ids(&pat, Variable::new("s")).unwrap();
        let b = staged.candidate_ids(&pat, Variable::new("s")).unwrap();
        assert!(a.is_sorted());
        assert_eq!(a, b, "the same terms under both layouts");
    }

    #[test]
    fn stats_read_off_the_offsets() {
        let g = sample();
        let cards = g.predicate_cardinalities();
        assert_eq!(cards.len(), 2);
        assert_eq!(cards[0].1, 3); // p
        assert_eq!(cards[1].1, 2); // q
        let (s, p, o) = g.position_cardinalities();
        assert_eq!((s, p, o), (3, 2, 3)); // {a,b,c}, {p,q}, {a,b,c}

        // The same statistics hold with every row still in segments.
        let mut staged = EncodedGraph::new();
        for t in g.iter() {
            staged.insert_batch([t]).unwrap();
        }
        assert_eq!(staged.predicate_cardinalities(), cards);
        assert_eq!(staged.position_cardinalities(), (s, p, o));
    }

    #[test]
    fn trait_view_agrees_with_inherent_api() {
        let g = sample();
        let ix: &dyn TripleIndex = &g;
        assert_eq!(ix.len(), 5);
        assert_eq!(ix.dom().count(), 5);
        assert!(ix.dom_contains(Iri::new("q")));
        assert_eq!(ix.triples().count(), 5);
        assert_eq!(ix.match_pattern(&tp(var("x"), iri("p"), var("y"))).len(), 3);
    }

    #[test]
    fn iter_is_sorted_even_with_segments() {
        let mut g = EncodedGraph::new();
        for i in [5, 1, 9, 3, 7] {
            g.insert_batch([
                Triple::from_strs(&format!("s{i}"), "p", "o"),
                Triple::from_strs(&format!("s{}", i + 1), "q", "o"),
            ])
            .unwrap();
        }
        let rows: Vec<Triple> = g.iter().collect();
        assert_eq!(rows.len(), g.len());
        assert!(rows.is_sorted_by_key(|t| t.terms()));
    }

    /// `(lead, key, rows)` for every key of both predicate-led key
    /// levels, with each key's rows checked to be exactly the rows it
    /// leads.
    fn key_levels(g: &EncodedGraph) -> [Vec<(Iri, Iri, usize)>; 2] {
        [Perm::Pso, Perm::Pos].map(|perm| {
            let mut out = Vec::new();
            for lead in g.terms.iter() {
                let Some(mut block) = g.block_keys(perm, lead) else {
                    continue;
                };
                while let Some(&key) = block.keys.first() {
                    let rows = block.first_rows();
                    assert!(rows.iter().all(|r| r[..2] == [lead, key]), "{perm:?}");
                    out.push((lead, key, rows.len()));
                    block.skip(1);
                }
            }
            out.sort_unstable();
            out
        })
    }

    /// The distinct `(p, s)` and `(p, o)` pairs of `ts`, each with its
    /// triple count — what the PSO and POS key levels must hold.
    fn distinct_pairs(ts: &[Triple]) -> [Vec<(Iri, Iri, usize)>; 2] {
        let count = |pair: fn(&Triple) -> (Iri, Iri)| {
            let mut n = std::collections::BTreeMap::new();
            for t in ts {
                *n.entry(pair(t)).or_insert(0) += 1;
            }
            n.into_iter().map(|((p, k), c)| (p, k, c)).collect()
        };
        [count(|t| (t.p, t.s)), count(|t| (t.p, t.o))]
    }

    /// The key level kept beside PSO and POS holds exactly the distinct
    /// `(p, s)` / `(p, o)` pairs of the base with their rows: after a
    /// one-shot build, after segments fold into a non-empty base (a level
    /// built before the fold is not served after it), and after a
    /// persisted store is reopened. Pending segments leave the base's
    /// level as it was.
    #[test]
    fn key_levels_hold_the_distinct_predicate_pairs() {
        let ts: Vec<Triple> = (0..90)
            .map(|i| {
                Triple::from_strs(
                    &format!("s{}", i % 11),
                    &format!("p{}", i % 4),
                    &format!("o{}", i % 13),
                )
            })
            .collect();
        let (head, tail) = ts.split_at(40);
        let mut g = EncodedGraph::from_triples(head.iter().copied());
        assert_eq!(key_levels(&g), distinct_pairs(head));
        g.insert_batch(tail.iter().copied()).unwrap();
        assert_eq!(g.segment_count(), 1);
        assert_eq!(key_levels(&g), distinct_pairs(head), "deltas stay off it");
        assert!(g.compact());
        assert_eq!(key_levels(&g), distinct_pairs(&ts));

        let dir = std::env::temp_dir().join(format!("wdsparql-key-level-{}", std::process::id()));
        let _ = std::fs::remove_dir_all(&dir);
        let store = crate::TripleStore::new();
        store.bulk_load(head.iter().copied());
        store.persist_to(&dir).unwrap();
        store.bulk_load(tail.iter().copied());
        drop(store);
        // Reopening compacts the checkpoint and replays the tail as a
        // segment; the next compaction folds it in.
        let reopened = crate::TripleStore::open(&dir).unwrap();
        let snap = reopened.read_snapshot();
        assert_eq!(snap.graph().segment_count(), 1);
        assert_eq!(key_levels(snap.graph()), distinct_pairs(head));
        reopened.compact();
        let snap = reopened.read_snapshot();
        assert_eq!(key_levels(snap.graph()), distinct_pairs(&ts));
        drop((snap, reopened));
        let _ = std::fs::remove_dir_all(&dir);
    }

    #[test]
    fn round_trips_through_rdf() {
        let g = sample();
        assert_eq!(EncodedGraph::from_rdf(&g.to_rdf()), g);
    }
}
