//! Flat rows: solution tables in id space, for set-at-a-time evaluation.
//!
//! A [`Mapping`] is the right public type: one sorted list of its own
//! `(variable, IRI)` pairs. Inside an evaluator that touches a hundred
//! thousand rows, repeating the variables in every row is waste, and so
//! is looking a variable up by search. A [`RowTable`] holds the rows
//! flat instead: one fixed, ascending variable schema per table and one
//! [`Cell`] per variable per row in a single `Vec`, `None` standing for
//! "unbound" (the outer-join null of an OPT whose right side did not
//! extend). Copying a row is a `memcpy`, a join key is a slice, and a
//! variable is a column number fixed once per query. Nothing is decoded
//! until [`RowTable::mapping`] / [`RowTable::into_mappings`] at the
//! boundary, which read the schema in order — already the mapping's own
//! pair order — so building a `Mapping` searches for nothing. The store's
//! BGP streams keep their one current row in a table like this too.
//!
//! The table carries the three relational moves a set-at-a-time
//! evaluator is made of, and nothing evaluator-specific:
//!
//! * [`RowTable::distinct_on`] — the distinct projections on some columns
//!   and, per row, which of them it projects to (evaluate the right side
//!   of a join once per distinct key, not once per left row);
//! * [`RowTable::group_by`] — rows made contiguous per producing key,
//!   with an offset table (the lookup side of that join);
//! * [`RowTable::sort_as_mappings`] — rows ordered as the [`Mapping`]s
//!   they decode to, so a sorted set is built from them in one pass.

use crate::mapping::Mapping;
use crate::term::{Iri, Variable};
use std::cmp::Ordering;
use std::collections::hash_map::RandomState;
use std::collections::HashMap;
use std::hash::{BuildHasher, Hasher};

/// One binding slot of a row: the bound IRI, or `None` for unbound.
pub type Cell = Option<Iri>;

/// A `HashMap` keyed by cells (or slices and arrays of them) under
/// [`CellHasher`].
pub type CellMap<K, V> = HashMap<K, V, CellState>;

/// A multiply-rotate hasher for keys made of interned ids: join keys
/// here are one to three dense `u32`s, and SipHash on them costs a
/// quarter of a set-at-a-time join. Which ids meet in a key is still up
/// to whoever wrote the data, so the state starts from a per-map random
/// key ([`CellState`]): colliding keys cannot be worked out beforehand.
#[derive(Clone, Copy)]
pub struct CellHasher(u64);

/// Builds [`CellHasher`]s keyed from the standard library's per-process
/// random hash keys, a fresh key per map.
#[derive(Clone, Copy)]
pub struct CellState(u64);

impl Default for CellState {
    fn default() -> CellState {
        CellState(RandomState::new().hash_one(0u64))
    }
}

impl BuildHasher for CellState {
    type Hasher = CellHasher;

    fn build_hasher(&self) -> CellHasher {
        CellHasher(self.0)
    }
}

impl CellHasher {
    #[inline]
    fn mix(&mut self, word: u64) {
        self.0 = (self.0.rotate_left(5) ^ word).wrapping_mul(0x517c_c1b7_2722_0a95);
    }
}

impl Hasher for CellHasher {
    #[inline]
    fn finish(&self) -> u64 {
        // The multiply leaves the low bits weak; the table indexes by them.
        self.0 ^ (self.0 >> 32)
    }

    fn write(&mut self, bytes: &[u8]) {
        for chunk in bytes.chunks(8) {
            let mut word = [0u8; 8];
            word[..chunk.len()].copy_from_slice(chunk);
            self.mix(u64::from_le_bytes(word));
        }
    }

    #[inline]
    fn write_u32(&mut self, n: u32) {
        self.mix(u64::from(n));
    }

    #[inline]
    fn write_u64(&mut self, n: u64) {
        self.mix(n);
    }

    #[inline]
    fn write_usize(&mut self, n: usize) {
        self.mix(n as u64);
    }
}

/// A table of rows over one fixed variable schema (see the module docs).
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct RowTable {
    /// The schema, strictly ascending — the order a [`Mapping`] iterates in.
    vars: Vec<Variable>,
    /// Row-major, `len * vars.len()` cells.
    cells: Vec<Cell>,
    /// Kept apart from `cells`: a zero-width table (the solutions of a
    /// ground pattern) still has zero or one row.
    len: usize,
}

impl RowTable {
    /// An empty table over `vars`, which must be strictly ascending.
    pub fn new(vars: Vec<Variable>) -> RowTable {
        debug_assert!(vars.windows(2).all(|w| w[0] < w[1]), "schema must ascend");
        RowTable {
            vars,
            cells: Vec::new(),
            len: 0,
        }
    }

    /// The table of the one empty mapping: no columns, one row — the key
    /// a root is evaluated under, and the unit of the join.
    pub fn unit() -> RowTable {
        RowTable {
            vars: Vec::new(),
            cells: Vec::new(),
            len: 1,
        }
    }

    pub fn vars(&self) -> &[Variable] {
        &self.vars
    }

    pub fn width(&self) -> usize {
        self.vars.len()
    }

    pub fn len(&self) -> usize {
        self.len
    }

    pub fn is_empty(&self) -> bool {
        self.len == 0
    }

    /// The column of `v`, if the schema has it.
    pub fn column(&self, v: Variable) -> Option<usize> {
        self.vars.binary_search(&v).ok()
    }

    pub fn row(&self, i: usize) -> &[Cell] {
        let w = self.width();
        &self.cells[i * w..(i + 1) * w]
    }

    pub fn row_mut(&mut self, i: usize) -> &mut [Cell] {
        let w = self.width();
        &mut self.cells[i * w..(i + 1) * w]
    }

    pub fn rows(&self) -> impl Iterator<Item = &[Cell]> {
        (0..self.len).map(|i| self.row(i))
    }

    /// Appends a copy of `row` and returns it for in-place edits.
    pub fn push(&mut self, row: &[Cell]) -> &mut [Cell] {
        debug_assert_eq!(row.len(), self.width());
        self.cells.extend_from_slice(row);
        self.len += 1;
        self.row_mut(self.len - 1)
    }

    /// Appends `row` spread over this (wider) schema: `row[i]` lands in
    /// column `dst[i]`, every other column is unbound.
    pub fn push_spread(&mut self, row: &[Cell], dst: &[usize]) -> &mut [Cell] {
        let w = self.width();
        self.cells.resize(self.cells.len() + w, None);
        self.len += 1;
        let out = self.row_mut(self.len - 1);
        for (&cell, &d) in row.iter().zip(dst) {
            out[d] = cell;
        }
        out
    }

    /// Appends `times` more copies of the block of rows from `start` to
    /// the end (a product replicates the rows it has so far once per
    /// further partner).
    pub fn repeat_tail(&mut self, start: usize, times: usize) {
        let block = self.len - start;
        let from = start * self.width();
        let to = self.cells.len();
        for _ in 0..times {
            self.cells.extend_from_within(from..to);
        }
        self.len += block * times;
    }

    /// For each column of this schema, its column in `wider` (`None` for
    /// a variable `wider` lacks).
    pub fn columns_in(&self, wider: &[Variable]) -> Vec<Option<usize>> {
        self.vars
            .iter()
            .map(|v| wider.binary_search(v).ok())
            .collect()
    }

    /// The distinct projections of the rows on `cols` (ascending column
    /// numbers), in order of first appearance, and for every row the
    /// index of its projection among them.
    pub fn distinct_on(&self, cols: &[usize]) -> (RowTable, Vec<u32>) {
        let vars = cols.iter().map(|&c| self.vars[c]).collect();
        let mut projected = RowTable::new(vars);
        projected.cells.reserve(self.len * cols.len());
        for row in self.rows() {
            projected.cells.extend(cols.iter().map(|&c| row[c]));
        }
        projected.len = self.len;
        let mut seen: CellMap<&[Cell], u32> = CellMap::default();
        seen.reserve(self.len);
        let mut heads: Vec<usize> = Vec::new();
        let key_of: Vec<u32> = projected
            .rows()
            .enumerate()
            .map(|(r, key)| {
                *seen.entry(key).or_insert_with(|| {
                    heads.push(r);
                    (heads.len() - 1) as u32
                })
            })
            .collect();
        drop(seen);
        // Keep the first row of each projection, in place.
        let w = cols.len();
        for (k, &r) in heads.iter().enumerate() {
            projected.cells.copy_within(r * w..(r + 1) * w, k * w);
        }
        projected.cells.truncate(heads.len() * w);
        projected.len = heads.len();
        (projected, key_of)
    }

    /// Makes the rows of each group contiguous, groups ascending, order
    /// inside a group kept: `tags[r]` is the group of row `r`, and the
    /// rows of group `k` end up at `offsets[k]..offsets[k + 1]`.
    pub fn group_by(self, tags: &[u32], groups: usize) -> (RowTable, Vec<u32>) {
        debug_assert_eq!(tags.len(), self.len);
        let mut offsets = vec![0u32; groups + 1];
        for &t in tags {
            offsets[t as usize + 1] += 1;
        }
        for k in 0..groups {
            offsets[k + 1] += offsets[k];
        }
        if tags.windows(2).all(|w| w[0] <= w[1]) {
            return (self, offsets);
        }
        let w = self.width();
        let mut next = offsets.clone();
        let mut cells = vec![None; self.cells.len()];
        for (row, &t) in self.rows().zip(tags) {
            let at = next[t as usize] as usize * w;
            cells[at..at + w].copy_from_slice(row);
            next[t as usize] += 1;
        }
        let grouped = RowTable {
            vars: self.vars,
            cells,
            len: self.len,
        };
        (grouped, offsets)
    }

    /// Sorts the rows in the order of the [`Mapping`]s they decode to and
    /// drops duplicates.
    pub fn sort_as_mappings(&mut self) {
        let w = self.width();
        if w == 0 {
            self.len = self.len.min(1);
            return;
        }
        // A mapping's order starts with its first pair: sort on that as
        // one integer (a lower column is a lesser variable; no pair at
        // all is the empty mapping, least of all) and compare whole rows
        // only to break ties.
        let first_pair = |row: &[Cell]| {
            let bound = row
                .iter()
                .enumerate()
                .find_map(|(c, cell)| Some((c, (*cell)?)));
            bound.map_or(0, |(c, iri)| ((c as u64 + 1) << 32) | u64::from(iri.id()))
        };
        let mut order: Vec<(u64, u32)> = (self.rows().zip(0..))
            .map(|(row, r)| (first_pair(row), r))
            .collect();
        order.sort_unstable_by(|&(ka, a), &(kb, b)| {
            ka.cmp(&kb)
                .then_with(|| cmp_as_mappings(self.row(a as usize), self.row(b as usize)))
        });
        order.dedup_by(|b, a| a.0 == b.0 && self.row(a.1 as usize) == self.row(b.1 as usize));
        let mut cells = Vec::with_capacity(order.len() * w);
        for &(_, r) in &order {
            cells.extend_from_slice(self.row(r as usize));
        }
        self.cells = cells;
        self.len = order.len();
    }

    /// Row `i` as the mapping it stands for: its bound columns, taken in
    /// schema order, which is already the mapping's pair order.
    pub fn mapping(&self, i: usize) -> Mapping {
        Mapping::from_sorted(
            self.vars
                .iter()
                .zip(self.row(i))
                .filter_map(|(&v, &cell)| Some((v, cell?))),
        )
    }

    /// Decodes every row, in row order — the one place flat rows become
    /// [`Mapping`]s.
    pub fn into_mappings(self) -> Vec<Mapping> {
        (0..self.len).map(|i| self.mapping(i)).collect()
    }
}

/// [`Mapping`]'s order (lexicographic over its `(variable, IRI)` pairs)
/// on two rows of one schema. Where one row binds a column the other
/// leaves unbound, the other's next pair — if it has one — is on a later,
/// hence greater, variable; if it has none, it is a proper prefix.
fn cmp_as_mappings(a: &[Cell], b: &[Cell]) -> Ordering {
    let later_binding = |row: &[Cell], i: usize| row[i + 1..].iter().any(Option::is_some);
    for i in 0..a.len() {
        match (a[i], b[i]) {
            (Some(x), Some(y)) if x == y => {}
            (Some(x), Some(y)) => return x.cmp(&y),
            (None, None) => {}
            (Some(_), None) if later_binding(b, i) => return Ordering::Less,
            (Some(_), None) => return Ordering::Greater,
            (None, Some(_)) if later_binding(a, i) => return Ordering::Greater,
            (None, Some(_)) => return Ordering::Less,
        }
    }
    Ordering::Equal
}

#[cfg(test)]
mod tests {
    use super::*;

    fn vars(names: &[&str]) -> Vec<Variable> {
        let mut vs: Vec<Variable> = names.iter().map(|n| Variable::new(n)).collect();
        vs.sort();
        vs
    }

    fn cell(name: &str) -> Cell {
        (!name.is_empty()).then(|| Iri::new(name))
    }

    fn table(names: &[&str], rows: &[&[&str]]) -> RowTable {
        let mut t = RowTable::new(vars(names));
        for row in rows {
            let cells: Vec<Cell> = row.iter().map(|c| cell(c)).collect();
            t.push(&cells);
        }
        t
    }

    #[test]
    fn zero_width_tables_count_rows() {
        let unit = RowTable::unit();
        assert_eq!((unit.len(), unit.width()), (1, 0));
        assert_eq!(unit.rows().count(), 1);
        assert_eq!(unit.into_mappings(), vec![Mapping::new()]);
        let mut twice = RowTable::new(Vec::new());
        twice.push(&[]);
        twice.push(&[]);
        twice.sort_as_mappings();
        assert_eq!(twice.len(), 1, "the empty mapping, once");
        let (keys, key_of) = table(&["rows_a"], &[&["1"], &["2"]]).distinct_on(&[]);
        assert_eq!((keys.len(), keys.width()), (1, 0));
        assert_eq!(key_of, vec![0, 0]);
    }

    #[test]
    fn spread_and_repeat_build_products() {
        let mut t = RowTable::new(vars(&["rows_a", "rows_b", "rows_c"]));
        let (a, c) = (
            t.column(Variable::new("rows_a")).unwrap(),
            t.column(Variable::new("rows_c")).unwrap(),
        );
        t.push_spread(&[cell("1"), cell("3")], &[a, c]);
        assert_eq!(t.row(0).iter().filter(|c| c.is_none()).count(), 1);
        t.push(&[cell("x"), cell("y"), cell("z")]);
        t.repeat_tail(0, 2);
        assert_eq!(t.len(), 6);
        assert_eq!(t.row(4), t.row(0));
        assert_eq!(t.row(5), t.row(1));
    }

    #[test]
    fn distinct_on_numbers_projections_by_first_appearance() {
        let t = table(
            &["rows_a", "rows_b"],
            &[
                &["1", "x"],
                &["2", "x"],
                &["1", "y"],
                &["", "x"],
                &["2", "z"],
            ],
        );
        let a = t.column(Variable::new("rows_a")).unwrap();
        let (keys, key_of) = t.distinct_on(&[a]);
        assert_eq!(keys.vars(), &[Variable::new("rows_a")]);
        assert_eq!(key_of, vec![0, 1, 0, 2, 1]);
        let got: Vec<Cell> = keys.rows().map(|r| r[0]).collect();
        assert_eq!(got, vec![cell("1"), cell("2"), None]);
        // On every column the rows themselves are the keys.
        let (all, key_of) = t.distinct_on(&[0, 1]);
        assert_eq!(all, t);
        assert_eq!(key_of, vec![0, 1, 2, 3, 4]);
    }

    #[test]
    fn group_by_is_a_stable_counting_sort() {
        let t = table(&["rows_a"], &[&["1"], &["2"], &["3"], &["4"], &["5"]]);
        let (g, offsets) = t.clone().group_by(&[2, 0, 2, 3, 0], 5);
        assert_eq!(offsets, vec![0, 2, 2, 4, 5, 5]);
        let got: Vec<Cell> = g.rows().map(|r| r[0]).collect();
        assert_eq!(
            got,
            vec![cell("2"), cell("5"), cell("1"), cell("3"), cell("4")]
        );
        // Already grouped: the rows stay where they are.
        let (same, offsets) = t.clone().group_by(&[0, 0, 1, 3, 3], 4);
        assert_eq!(same, t);
        assert_eq!(offsets, vec![0, 2, 3, 3, 5]);
    }

    /// The flat order is `Mapping`'s order, unbound cells included: every
    /// pair of rows over three columns and three values-or-unbound.
    #[test]
    fn sorted_rows_decode_to_sorted_mappings() {
        let names = ["rows_a", "rows_b", "rows_c"];
        let values = ["", "1", "2"];
        let mut t = RowTable::new(vars(&names));
        for a in values {
            for b in values {
                for c in values {
                    t.push(&[cell(a), cell(b), cell(c)]);
                    t.push(&[cell(c), cell(a), cell(b)]);
                }
            }
        }
        for i in 0..t.len() {
            for j in 0..t.len() {
                assert_eq!(
                    cmp_as_mappings(t.row(i), t.row(j)),
                    t.mapping(i).cmp(&t.mapping(j)),
                    "{:?} vs {:?}",
                    t.mapping(i),
                    t.mapping(j)
                );
            }
        }
        t.sort_as_mappings();
        assert_eq!(t.len(), 27, "duplicates dropped");
        let decoded = t.into_mappings();
        assert!(decoded.windows(2).all(|w| w[0] < w[1]));
    }

    #[test]
    fn cell_hasher_separates_small_keys() {
        let build = CellState::default();
        let hash = |k: &[Cell]| build.hash_one(k);
        let ids: Vec<Cell> = (0..512).map(|i| cell(&format!("rows_h{i}"))).collect();
        let mut low: Vec<u64> = ids.iter().map(|&c| hash(&[c]) & 0xfff).collect();
        low.sort_unstable();
        low.dedup();
        assert!(low.len() > 400, "low bits spread: {} of 512", low.len());
        assert_ne!(hash(&[None, ids[0]]), hash(&[ids[0], None]));
        // Keyed per map: two maps do not agree on where a key goes.
        assert_ne!(
            hash(&[ids[0]]),
            CellState::default().hash_one(&[ids[0]][..])
        );
    }
}
