//! [`EncodedGraph`]: the triple set as sorted permutation arrays with a
//! log-structured write path.
//!
//! Every triple is dictionary-encoded into a `[TermId; 3]` row and stored
//! under several component rotations:
//!
//! ```text
//! SPO  rows are (s, p, o)   answers  (s ? ?) (s p ?) (s p o) (? ? ?)
//! POS  rows are (p, o, s)   answers  (? p ?) (? p o)
//! OSP  rows are (o, s, p)   answers  (? ? o) (s ? o)
//! PSO  rows are (p, s, o)   subject-sorted (? p ?) — merge-join inputs
//! ```
//!
//! The **base** arrays hold the compacted bulk: dictionary ids are dense,
//! so each base permutation carries an offset array indexed by leading
//! term id, and a bound *first* component resolves to its contiguous row
//! range in O(1). Writes are **log-structured**: `insert_batch` appends
//! one small sorted [`Segment`] per call instead of rewriting the base;
//! reads merge base + segments behind the same bounded-prefix narrowing
//! (segments are tiny, so their leading ranges come from binary search
//! instead of offsets). [`EncodedGraph::compact`] folds the segments
//! back into the base with one k-way merge of the SPO runs and re-derives
//! OSP, POS and the base-only PSO by stable counting scatters.
//! `insert_batch` does that on its own under one fixed rule: at
//! `MAX_SEGMENTS` (48) pending segments, or once
//! `4 · delta rows > base rows + ADAPTIVE_SLACK` (4096).

use crate::dict::{Dictionary, TermId};
use crate::segment::{
    check_capacity, merge_many, merge_sorted, offsets, scatter_by, MergedRows, Perm, Row, Segment,
};
pub use crate::segment::{CapacityError, MAX_TRIPLES};
use wdsparql_rdf::{binding_of, Iri, Mapping, RdfGraph, Term, Triple, TripleIndex, TriplePattern};

/// Segment-count bound of the fold rule: every scan binary-searches each
/// pending segment, so [`EncodedGraph::insert_batch`] folds them back
/// into the base once there are this many.
const MAX_SEGMENTS: usize = 48;
/// Size bound of the fold rule: `insert_batch` also folds once
/// `4 · delta rows > base rows + ADAPTIVE_SLACK` — amortised `O(log n)`
/// base rewrites per row, with enough slack that tiny stores do not
/// compact on every batch.
const ADAPTIVE_SLACK: usize = 4096;

/// A dictionary-encoded, permutation-indexed set of ground triples.
#[derive(Clone, Debug, Default)]
pub struct EncodedGraph {
    dict: Dictionary,
    /// Compacted base permutations and their leading-id offset tables.
    spo: Vec<Row>,
    pos: Vec<Row>,
    osp: Vec<Row>,
    /// Base-only merge-join permutation, rebuilt by [`Self::compact`];
    /// consulted by `scan` only when no delta segments are pending.
    pso: Vec<Row>,
    spo_off: Vec<u32>,
    pos_off: Vec<u32>,
    osp_off: Vec<u32>,
    pso_off: Vec<u32>,
    /// Pending delta segments, oldest first; disjoint from the base and
    /// from each other.
    segments: Vec<Segment>,
    /// Total rows across `segments`.
    delta_rows: usize,
    /// Lifetime count of delta folds (not bumped by no-op compactions).
    compactions: u64,
    dom_sorted: Vec<Iri>,
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
/// whose sorted prefix covers the bound positions, and the narrowed
/// runs. `residual` is `None` on every shape but one — the `(s ? o)`
/// hybrid, where a tiny subject block is scanned with the object as a
/// per-row filter instead of binary-searching a hub object's block.
struct Scan<'a> {
    perm: Perm,
    runs: PatternRuns<'a>,
    /// At most one `(row position, required id)` filter.
    residual: Option<(usize, TermId)>,
}

impl Scan<'_> {
    #[inline]
    fn row_passes(&self, row: &Row) -> bool {
        self.residual.is_none_or(|(pos, id)| row[pos] == id)
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

    /// Bulk insert: encodes and sorts `triples` into one new delta
    /// segment per call — `O(batch · log batch)` plus a containment probe
    /// per triple, never a base rewrite (unless the fold rule — see
    /// `MAX_SEGMENTS` — is due afterwards). Returns the number of triples
    /// that were not already present.
    ///
    /// Errors with [`CapacityError`] — leaving the graph (and its
    /// dictionary) untouched — when the insert would push the store past
    /// [`MAX_TRIPLES`] rows, the bound above which the `u32` offset
    /// tables would silently truncate.
    pub fn insert_batch<I>(&mut self, triples: I) -> Result<usize, CapacityError>
    where
        I: IntoIterator<Item = Triple>,
    {
        self.insert_batch_capped(triples, MAX_TRIPLES)
    }

    /// [`EncodedGraph::insert_batch`] under a row-count `limit` (clamped
    /// to [`MAX_TRIPLES`]) — the hook the service layer uses to enforce
    /// its configurable ingest cap. The limit is a parameter, not graph
    /// state, so configuring it never touches the copy-on-write payload.
    pub(crate) fn insert_batch_capped<I>(
        &mut self,
        triples: I,
        limit: usize,
    ) -> Result<usize, CapacityError>
    where
        I: IntoIterator<Item = Triple>,
    {
        // Phase 1, read-only: drop triples already present *before*
        // interning anything, so a refused batch cannot leave terms in
        // the dictionary that no triple uses. A triple with any unknown
        // term is fresh by definition; the rest are probed in sorted row
        // order — one two-pointer walk per segment and a block binary
        // search against the base, instead of per-triple searches of
        // every run.
        let mut fresh: Vec<Triple> = Vec::new();
        let mut known: Vec<(Row, Triple)> = Vec::new();
        for t in triples {
            match self.encode_triple(&t) {
                None => fresh.push(t),
                Some(row) => known.push((row, t)),
            }
        }
        known.sort_unstable_by_key(|&(row, _)| row);
        known.dedup_by_key(|&mut (row, _)| row);
        let mut present = vec![false; known.len()];
        for seg in &self.segments {
            let run = seg.rows(Perm::Spo);
            let mut i = 0;
            for ((row, _), present) in known.iter().zip(&mut present) {
                while i < run.len() && run[i] < *row {
                    i += 1;
                }
                if i == run.len() {
                    break;
                }
                if run[i] == *row {
                    *present = true;
                }
            }
        }
        for ((row, t), present) in known.into_iter().zip(present) {
            if !present && !self.base_contains(row) {
                fresh.push(t);
            }
        }
        if fresh.is_empty() {
            return Ok(0);
        }
        // `fresh` may still repeat triples whose terms are not all
        // interned yet (in-batch duplicates); those die in the row-level
        // dedup below, after interning — harmless, since a duplicate
        // brings no new terms. The capacity pre-check therefore uses the
        // conservative count, and only a batch failing it pays for an
        // exact triple-level dedup and a re-check.
        if check_capacity(self.len() + fresh.len(), limit).is_err() {
            fresh.sort_unstable();
            fresh.dedup();
            check_capacity(self.len() + fresh.len(), limit)?;
        }
        // Phase 2: intern, sort into one delta segment, fold the newly
        // interned terms into the sorted domain.
        let prev_terms = self.dict.len();
        let mut rows: Vec<Row> = fresh
            .into_iter()
            .map(|t| {
                [
                    self.dict.encode(t.s),
                    self.dict.encode(t.p),
                    self.dict.encode(t.o),
                ]
            })
            .collect();
        rows.sort_unstable();
        rows.dedup();
        let segment = Segment::from_sorted_spo(rows);
        let added = segment.len();
        self.delta_rows += added;
        self.segments.push(segment);
        crate::obs::on_segment_append();
        if self.dict.len() > prev_terms {
            let mut new_terms: Vec<Iri> = (prev_terms..self.dict.len())
                .map(|id| self.dict.decode(id as TermId))
                .collect();
            new_terms.sort_unstable();
            self.dom_sorted = merge_sorted(&self.dom_sorted, &new_terms);
        }
        if self.auto_compact_due() {
            self.compact();
        }
        Ok(added)
    }

    fn auto_compact_due(&self) -> bool {
        self.segments.len() >= MAX_SEGMENTS || self.delta_rows * 4 > self.spo.len() + ADAPTIVE_SLACK
    }

    /// Folds every pending delta segment into the base arrays: one k-way
    /// merge of the SPO runs, then the OSP, POS and PSO permutations and
    /// all four offset tables are re-derived from the merged SPO by
    /// stable counting scatters (`O(rows + terms)` each, no comparison
    /// sorts — see [`scatter_by`]). Returns `false` when there was
    /// nothing to do. The triple set is unchanged — only its physical
    /// layout.
    pub fn compact(&mut self) -> bool {
        if self.segments.is_empty() && self.pso.len() == self.spo.len() {
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
        let terms = self.dict.len();
        self.spo_off = offsets(&self.spo, terms);
        // Stability chains the sort keys: SPO scattered by o is OSP,
        // OSP scattered by p is POS, SPO scattered by p is PSO (whose
        // offset table equals POS's — both count rows per predicate).
        let (osp, osp_off) = scatter_by(&self.spo, 2, terms, |[s, p, o]| [o, s, p]);
        self.osp = osp;
        self.osp_off = osp_off;
        let (pos, pos_off) = scatter_by(&self.osp, 2, terms, |[o, s, p]| [p, o, s]);
        self.pos = pos;
        self.pos_off = pos_off;
        let (pso, pso_off) = scatter_by(&self.spo, 1, terms, |[s, p, o]| [p, s, o]);
        self.pso = pso;
        self.pso_off = pso_off;
        debug_assert!(self.osp.is_sorted() && self.pos.is_sorted() && self.pso.is_sorted());
        debug_assert_eq!(self.pso_off, self.pos_off);
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
        self.dict.len()
    }

    pub fn dictionary(&self) -> &Dictionary {
        &self.dict
    }

    pub fn contains(&self, t: &Triple) -> bool {
        let Some(row) = self.encode_triple(t) else {
            return false;
        };
        self.contains_ids(row)
    }

    fn encode_triple(&self, t: &Triple) -> Option<Row> {
        Some([
            self.dict.lookup(t.s)?,
            self.dict.lookup(t.p)?,
            self.dict.lookup(t.o)?,
        ])
    }

    fn base_contains(&self, row: Row) -> bool {
        self.leading_range(&self.spo, &self.spo_off, row[0])
            .binary_search(&row)
            .is_ok()
    }

    fn contains_ids(&self, row: Row) -> bool {
        self.base_contains(row)
            || self
                .segments
                .iter()
                .any(|s| s.rows(Perm::Spo).binary_search(&row).is_ok())
    }

    fn decode_triple(&self, row: Row) -> Triple {
        Triple::new(
            self.dict.decode(row[0]),
            self.dict.decode(row[1]),
            self.dict.decode(row[2]),
        )
    }

    /// The contiguous row range of base permutation `rows` whose leading
    /// component is `id` — O(1) through the offset array. Empty when the
    /// id is out of the table's range (terms interned after the last
    /// compaction have no base rows yet).
    #[inline]
    fn leading_range<'a>(&self, rows: &'a [Row], off: &[u32], id: TermId) -> &'a [Row] {
        let i = id as usize;
        if i + 1 >= off.len() {
            return &[];
        }
        &rows[off[i] as usize..off[i + 1] as usize]
    }

    /// Narrows a sorted row slice to the rows with `row[pos] == key` by
    /// binary search. Valid whenever the slice is sorted on `pos` (i.e.
    /// all earlier row positions are constant on the slice; for `pos ==
    /// 0` that holds on any sorted run, which is how segment runs resolve
    /// their leading component without an offset table).
    #[inline]
    fn narrow(slice: &[Row], pos: usize, key: TermId) -> &[Row] {
        let lo = slice.partition_point(|r| r[pos] < key);
        let hi = lo + slice[lo..].partition_point(|r| r[pos] <= key);
        &slice[lo..hi]
    }

    /// Resolves the pattern's bound positions to dictionary ids. `None`
    /// when a bound term is not interned (nothing can match).
    #[inline]
    pub(crate) fn resolve_ids(&self, pat: &TriplePattern) -> Option<[Option<TermId>; 3]> {
        let resolve = |term: Term| -> Result<Option<TermId>, ()> {
            match term {
                Term::Var(_) => Ok(None),
                Term::Iri(i) => self.dict.lookup(i).map(Some).ok_or(()),
            }
        };
        Some([
            resolve(pat.s).ok()?,
            resolve(pat.p).ok()?,
            resolve(pat.o).ok()?,
        ])
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
    /// position is bound. `(? p ?)` prefers the subject-sorted PSO block
    /// (sort-free merge-join candidates), which exists only in the
    /// compacted base — with segments pending it uses POS.
    #[inline]
    fn exact_perm(&self, spo_ids: [Option<TermId>; 3]) -> Option<Perm> {
        match spo_ids.map(|id| id.is_some()) {
            [false, false, false] => None,
            [true, true, _] | [true, false, false] => Some(Perm::Spo),
            [true, false, true] | [false, false, true] => Some(Perm::Osp),
            [false, true, true] => Some(Perm::Pos),
            [false, true, false] => Some(if self.segments.is_empty() {
                Perm::Pso
            } else {
                Perm::Pos
            }),
        }
    }

    /// Base rows and leading-id offset table of a permutation.
    #[inline]
    fn perm_base(&self, perm: Perm) -> (&[Row], &[u32]) {
        match perm {
            Perm::Spo => (&self.spo, &self.spo_off),
            Perm::Pos => (&self.pos, &self.pos_off),
            Perm::Osp => (&self.osp, &self.osp_off),
            Perm::Pso => (&self.pso, &self.pso_off),
        }
    }

    /// The bound ids of `spo_ids` rotated into `perm`'s row positions.
    /// For a serving permutation they occupy a prefix.
    #[inline]
    fn prefix_keys(perm: Perm, spo_ids: [Option<TermId>; 3]) -> [Option<TermId>; 3] {
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
    fn narrow_prefix<'a>(mut run: &'a [Row], keys: &[Option<TermId>; 3], from: usize) -> &'a [Row] {
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
    /// guarantee), and `perm` must not be the base-only PSO while
    /// segments are pending. Allocation-free when no segments are
    /// pending.
    pub(crate) fn pattern_runs(&self, perm: Perm, spo_ids: [Option<TermId>; 3]) -> PatternRuns<'_> {
        debug_assert!(perm != Perm::Pso || self.segments.is_empty());
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

    #[inline]
    fn scan(&self, pat: &TriplePattern) -> Option<Scan<'_>> {
        let spo_ids = self.resolve_ids(pat)?;
        let Some(perm) = self.exact_perm(spo_ids) else {
            // No bound component: full scan over SPO, base + all deltas.
            return Some(Scan {
                perm: Perm::Spo,
                runs: PatternRuns {
                    base: &self.spo,
                    deltas: self.segments.iter().map(|s| s.rows(Perm::Spo)).collect(),
                },
                residual: None,
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
                    });
                }
            }
        }
        Some(Scan {
            perm,
            runs: self.pattern_runs(perm, spo_ids),
            residual: None,
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
    /// (see [`EncodedGraph::exact_perm`]), so this is no longer merely an
    /// upper bound. Repeated variables are not constants: `(?x p ?x)`
    /// counts every `p`-triple.
    pub fn candidate_count(&self, pat: &TriplePattern) -> usize {
        let Some(spo_ids) = self.resolve_ids(pat) else {
            return 0;
        };
        let Some(perm) = self.exact_perm(spo_ids) else {
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
        let eqs = Self::repeat_constraints(pat, scan.perm);
        // Bound positions already carry their IRI in the pattern — only
        // the variable positions go through the decode table.
        let fixed = pat.positions().map(Term::as_iri);
        let decode = |row: Row, out: &mut Vec<Triple>| {
            let [s, p, o] = scan.perm.spo_of(row);
            out.push(Triple::new(
                fixed[0].unwrap_or_else(|| self.dict.decode(s)),
                fixed[1].unwrap_or_else(|| self.dict.decode(p)),
                fixed[2].unwrap_or_else(|| self.dict.decode(o)),
            ));
        };
        let exact = eqs.is_empty() && scan.residual.is_none();
        let mut out = Vec::with_capacity(if exact { scan.runs.total() } else { 0 });
        if exact {
            for src in scan.runs.iter() {
                for &row in src {
                    decode(row, &mut out);
                }
            }
        } else {
            for src in scan.runs.iter() {
                for &row in src {
                    if scan.row_passes(&row) && eqs.iter().all(|&(i, j)| row[i] == row[j]) {
                        decode(row, &mut out);
                    }
                }
            }
        }
        out
    }

    /// All rows matching `pat` (honouring repeated variables), as
    /// `(s, p, o)` id triples — the input of the WCOJ's materialised
    /// fallback trie when no permutation fits a variable order.
    pub(crate) fn matching_rows(&self, pat: &TriplePattern) -> Vec<Row> {
        let Some(scan) = self.scan(pat) else {
            return Vec::new();
        };
        let eqs = Self::repeat_constraints(pat, scan.perm);
        let mut out = Vec::new();
        for src in scan.runs.iter() {
            for &row in src {
                if scan.row_passes(&row) && eqs.iter().all(|&(i, j)| row[i] == row[j]) {
                    out.push(scan.perm.spo_of(row));
                }
            }
        }
        out
    }

    /// Single-pattern solutions (Pérez et al., rule 1).
    pub fn solutions(&self, pat: &TriplePattern) -> Vec<Mapping> {
        self.match_pattern(pat)
            .into_iter()
            .filter_map(|t| binding_of(pat, &t))
            .collect()
    }

    /// The sorted, deduplicated ids that variable `v` can take in a match
    /// of `pat` — the merge-join input. `None` when `v` does not occur in
    /// `pat`. When the scan lands on a run already sorted by `v`'s row
    /// position (PSO's subject-sorted predicate blocks, or any leading
    /// position), the comparison sort is skipped.
    pub fn candidate_ids(
        &self,
        pat: &TriplePattern,
        v: wdsparql_rdf::Variable,
    ) -> Option<Vec<TermId>> {
        let positions: Vec<usize> = pat
            .positions()
            .into_iter()
            .enumerate()
            .filter(|&(_, t)| t == Term::Var(v))
            .map(|(i, _)| i)
            .collect();
        if positions.is_empty() {
            return None;
        }
        let Some(scan) = self.scan(pat) else {
            return Some(Vec::new());
        };
        let eqs = Self::repeat_constraints(pat, scan.perm);
        let take = scan.perm.layout()[positions[0]];
        let mut ids: Vec<TermId> = Vec::new();
        for src in scan.runs.iter() {
            ids.extend(
                src.iter()
                    .filter(|row| {
                        scan.row_passes(row) && eqs.iter().all(|&(i, j)| row[i] == row[j])
                    })
                    .map(|row| row[take]),
            );
        }
        if !ids.is_sorted() {
            ids.sort_unstable();
        }
        ids.dedup();
        Some(ids)
    }

    /// As [`EncodedGraph::candidate_ids`], decoded back to IRIs and
    /// re-sorted in [`Iri`] order — the backend-independent semi-join
    /// input behind [`TripleIndex::candidate_values`] (local ids mean
    /// nothing outside this graph's dictionary, so cross-backend callers
    /// get values).
    pub fn candidate_values(
        &self,
        pat: &TriplePattern,
        v: wdsparql_rdf::Variable,
    ) -> Option<Vec<Iri>> {
        let ids = self.candidate_ids(pat, v)?;
        let mut vals: Vec<Iri> = ids.into_iter().map(|id| self.dict.decode(id)).collect();
        vals.sort_unstable();
        Some(vals)
    }

    /// Sorted-merge intersection of the candidate id lists of a variable
    /// shared by two patterns — the classic merge join on one join
    /// variable. `None` when `v` is missing from either pattern.
    pub fn merge_join_ids(
        &self,
        a: &TriplePattern,
        b: &TriplePattern,
        v: wdsparql_rdf::Variable,
    ) -> Option<Vec<TermId>> {
        let xs = self.candidate_ids(a, v)?;
        let ys = self.candidate_ids(b, v)?;
        Some(intersect_sorted(&xs, &ys))
    }

    /// As [`EncodedGraph::merge_join_ids`], decoded back to IRIs.
    pub fn merge_join_values(
        &self,
        a: &TriplePattern,
        b: &TriplePattern,
        v: wdsparql_rdf::Variable,
    ) -> Option<Vec<Iri>> {
        Some(
            self.merge_join_ids(a, b, v)?
                .into_iter()
                .map(|id| self.dict.decode(id))
                .collect(),
        )
    }

    /// Distinct predicates with their cardinalities, descending — the
    /// selectivity statistics behind the service's query planner. Base
    /// counts read off the POS offsets; pending segments are folded in.
    pub fn predicate_cardinalities(&self) -> Vec<(Iri, usize)> {
        let mut counts = vec![0usize; self.dict.len()];
        for (id, count) in counts
            .iter_mut()
            .enumerate()
            .take(self.pos_off.len().saturating_sub(1))
        {
            *count = (self.pos_off[id + 1] - self.pos_off[id]) as usize;
        }
        for seg in &self.segments {
            for row in seg.rows(Perm::Pos) {
                counts[row[0] as usize] += 1;
            }
        }
        let mut out: Vec<(Iri, usize)> = counts
            .iter()
            .enumerate()
            .filter(|&(_, &n)| n > 0)
            .map(|(id, &n)| (self.dict.decode(id as TermId), n))
            .collect();
        out.sort_by(|a, b| b.1.cmp(&a.1).then(a.0.cmp(&b.0)));
        out
    }

    /// Number of distinct terms occurring as subjects / predicates /
    /// objects: the base offset tables plus the pending segments.
    pub fn position_cardinalities(&self) -> (usize, usize, usize) {
        let distinct = |perm: Perm, off: &[u32]| {
            if self.segments.is_empty() {
                return off.windows(2).filter(|w| w[1] > w[0]).count();
            }
            let mut seen = vec![false; self.dict.len()];
            for (id, w) in off.windows(2).enumerate() {
                if w[1] > w[0] {
                    seen[id] = true;
                }
            }
            for seg in &self.segments {
                for row in seg.rows(perm) {
                    seen[row[0] as usize] = true;
                }
            }
            seen.into_iter().filter(|&b| b).count()
        };
        (
            distinct(Perm::Spo, &self.spo_off),
            distinct(Perm::Pos, &self.pos_off),
            distinct(Perm::Osp, &self.osp_off),
        )
    }

    /// All triples in SPO order — a lazy k-way merge of the base run and
    /// every pending segment.
    pub fn iter(&self) -> impl Iterator<Item = Triple> + '_ {
        MergedRows::new(
            std::iter::once(self.spo.as_slice())
                .chain(self.segments.iter().map(|s| s.rows(Perm::Spo))),
        )
        .map(|row| self.decode_triple(row))
    }

    /// Decodes the whole store back into an [`RdfGraph`].
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
        Box::new(self.dom_sorted.iter().copied())
    }

    fn dom_contains(&self, i: Iri) -> bool {
        self.dict.lookup(i).is_some()
    }

    fn candidate_count(&self, pat: &TriplePattern) -> usize {
        EncodedGraph::candidate_count(self, pat)
    }

    fn match_pattern(&self, pat: &TriplePattern) -> Vec<Triple> {
        EncodedGraph::match_pattern(self, pat)
    }

    fn solutions(&self, pat: &TriplePattern) -> Vec<Mapping> {
        EncodedGraph::solutions(self, pat)
    }

    fn candidate_values(&self, pat: &TriplePattern, v: wdsparql_rdf::Variable) -> Option<Vec<Iri>> {
        EncodedGraph::candidate_values(self, pat, v)
    }

    /// The WCOJ trie view: zero-copy over the permutation whose prefix
    /// matches the pattern's bound positions and variable order (base +
    /// delta segment runs, dictionary ids as keys), falling back to a
    /// materialised projection when no permutation fits — see
    /// [`crate::wcoj`].
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
    /// Set equality up to dictionary numbering and physical layout: both
    /// graphs hold the same ground triples (compacted or not).
    fn eq(&self, other: &EncodedGraph) -> bool {
        self.len() == other.len() && self.iter().all(|t| other.contains(&t))
    }
}

impl Eq for EncodedGraph {}

/// Two-pointer intersection of sorted id lists.
fn intersect_sorted(a: &[TermId], b: &[TermId]) -> Vec<TermId> {
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

    #[test]
    fn every_access_pattern_matches_the_rdf_graph() {
        let strs = [
            ("a", "p", "b"),
            ("a", "p", "c"),
            ("b", "p", "c"),
            ("b", "q", "a"),
            ("c", "q", "a"),
        ];
        let r = RdfGraph::from_strs(strs);
        let pats = [
            tp(iri("a"), iri("p"), iri("b")),
            tp(iri("a"), iri("p"), var("y")),
            tp(iri("a"), var("x"), iri("b")),
            tp(iri("a"), var("x"), var("y")),
            tp(var("x"), iri("p"), iri("c")),
            tp(var("x"), iri("q"), var("y")),
            tp(var("x"), var("y"), iri("a")),
            tp(var("x"), var("y"), var("z")),
        ];
        // Once compacted (PSO live), once with every triple still in
        // delta segments, once half-and-half.
        let compacted = sample();
        let mut all_delta = EncodedGraph::new();
        for t in strs {
            all_delta
                .insert_batch([Triple::from_strs(t.0, t.1, t.2)])
                .unwrap();
        }
        let mut half = EncodedGraph::new();
        half.insert_batch(strs[..3].iter().map(|t| Triple::from_strs(t.0, t.1, t.2)))
            .unwrap();
        half.compact();
        half.insert_batch(strs[3..].iter().map(|t| Triple::from_strs(t.0, t.1, t.2)))
            .unwrap();
        for (label, g) in [
            ("compacted", &compacted),
            ("all-delta", &all_delta),
            ("half", &half),
        ] {
            assert_eq!(g.len(), r.len(), "{label}");
            for pat in pats {
                let mut got = g.match_pattern(&pat);
                let mut want = r.match_pattern(&pat);
                got.sort();
                want.sort();
                assert_eq!(got, want, "{label}: pattern {pat}");
                assert!(g.candidate_count(&pat) >= got.len(), "{label}: {pat}");
                assert_eq!(g.solutions(&pat).len(), r.solutions(&pat).len());
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
        let all: Vec<Triple> = (0..40)
            .map(|i| {
                Triple::from_strs(
                    &format!("s{}", i % 7),
                    &format!("p{}", i % 3),
                    &format!("o{i}"),
                )
            })
            .collect();
        let one_shot = EncodedGraph::from_triples(all.iter().copied());
        let mut incremental = EncodedGraph::new();
        for chunk in all.chunks(9) {
            incremental.insert_batch(chunk.iter().copied()).unwrap();
        }
        assert_eq!(one_shot, incremental);
        // Re-inserting is a no-op.
        assert_eq!(incremental.insert_batch(all).unwrap(), 0);
        // Compaction changes the layout, never the contents.
        incremental.compact();
        assert_eq!(incremental.segment_count(), 0);
        assert_eq!(one_shot, incremental);
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
        let shared = g.merge_join_values(&p1, &p2, Variable::new("s")).unwrap();
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
        assert!(a.is_sorted() && b.is_sorted());
        // Same ids under both layouts (dictionaries agree: same insert
        // order of first occurrence is not guaranteed, so compare decoded).
        let decode = |g: &EncodedGraph, ids: &[TermId]| -> Vec<Iri> {
            let mut v: Vec<Iri> = ids.iter().map(|&i| g.dictionary().decode(i)).collect();
            v.sort_unstable();
            v
        };
        assert_eq!(decode(&compacted, &a), decode(&staged, &b));
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
        assert!(rows.is_sorted_by(|a, b| {
            let key = |t: &Triple| {
                let d = g.dictionary();
                [
                    d.lookup(t.s).unwrap(),
                    d.lookup(t.p).unwrap(),
                    d.lookup(t.o).unwrap(),
                ]
            };
            key(a) <= key(b)
        }));
    }

    #[test]
    fn round_trips_through_rdf() {
        let g = sample();
        assert_eq!(EncodedGraph::from_rdf(&g.to_rdf()), g);
    }
}
