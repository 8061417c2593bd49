//! Harness-side counting wrappers for the two seams the crates expose:
//! [`CountingIndex`] around any `&dyn TripleIndex` (what the paper-side
//! algorithms ask of the store) and [`CountingFs`] around [`RealFs`]
//! (what the durable store asks of the filesystem). Both delegate every
//! call unchanged and only count and time it.

use std::cell::Cell;
use std::sync::atomic::{AtomicU64, Ordering::Relaxed};
use std::time::{Duration, Instant};
use wdsparql_rdf::{Iri, Mapping, TrieCursor, Triple, TripleIndex, TriplePattern, Variable};
use wdsparql_store::{RealFs, Vfs, VfsError};

#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub struct IndexCounts {
    /// `match_pattern` + `solutions` + `candidate_values` calls.
    pub match_calls: u64,
    pub contains_calls: u64,
    /// `dom` + `dom_contains` calls.
    pub dom_calls: u64,
    /// `candidate_count` calls.
    pub count_calls: u64,
    pub cursor_opens: u64,
    /// Triples, mappings, values and domain elements handed back.
    pub rows_returned: u64,
    /// Time inside the wrapped index. Lazy results (`dom`, `triples`) are
    /// collected inside the call so their cost lands here; a trie
    /// cursor's seeks after it is opened do not.
    pub time: Duration,
}

impl IndexCounts {
    /// Folds another index's counts into these.
    pub fn absorb(&mut self, other: IndexCounts) {
        self.match_calls += other.match_calls;
        self.contains_calls += other.contains_calls;
        self.dom_calls += other.dom_calls;
        self.count_calls += other.count_calls;
        self.cursor_opens += other.cursor_opens;
        self.rows_returned += other.rows_returned;
        self.time += other.time;
    }
}

pub struct CountingIndex<'a> {
    inner: &'a dyn TripleIndex,
    counts: Cell<IndexCounts>,
    time_taken: Cell<Duration>,
}

impl<'a> CountingIndex<'a> {
    pub fn new(inner: &'a dyn TripleIndex) -> CountingIndex<'a> {
        CountingIndex {
            inner,
            counts: Cell::default(),
            time_taken: Cell::default(),
        }
    }

    /// Everything counted since construction.
    pub fn counts(&self) -> IndexCounts {
        self.counts.get()
    }

    /// Time spent in the wrapped index since the last `take_time` — one
    /// op's share, for the op's `index` span.
    pub fn take_time(&self) -> Duration {
        let total = self.counts.get().time;
        total - self.time_taken.replace(total)
    }

    fn timed<R>(&self, f: impl FnOnce() -> R, book: impl FnOnce(&mut IndexCounts, &R)) -> R {
        let start = Instant::now();
        let out = f();
        let mut c = self.counts.get();
        c.time += start.elapsed();
        book(&mut c, &out);
        self.counts.set(c);
        out
    }
}

impl TripleIndex for CountingIndex<'_> {
    fn len(&self) -> usize {
        self.inner.len()
    }

    fn contains(&self, t: &Triple) -> bool {
        self.timed(|| self.inner.contains(t), |c, _| c.contains_calls += 1)
    }

    fn triples(&self) -> Box<dyn Iterator<Item = Triple> + '_> {
        let all = self.timed(
            || self.inner.triples().collect::<Vec<_>>(),
            |c, v| {
                c.match_calls += 1;
                c.rows_returned += v.len() as u64;
            },
        );
        Box::new(all.into_iter())
    }

    fn dom(&self) -> Box<dyn Iterator<Item = Iri> + '_> {
        let all = self.timed(
            || self.inner.dom().collect::<Vec<_>>(),
            |c, v| {
                c.dom_calls += 1;
                c.rows_returned += v.len() as u64;
            },
        );
        Box::new(all.into_iter())
    }

    fn dom_contains(&self, i: Iri) -> bool {
        self.timed(|| self.inner.dom_contains(i), |c, _| c.dom_calls += 1)
    }

    fn candidate_count(&self, pat: &TriplePattern) -> usize {
        self.timed(
            || self.inner.candidate_count(pat),
            |c, _| c.count_calls += 1,
        )
    }

    fn match_pattern(&self, pat: &TriplePattern) -> Vec<Triple> {
        self.timed(
            || self.inner.match_pattern(pat),
            |c, v| {
                c.match_calls += 1;
                c.rows_returned += v.len() as u64;
            },
        )
    }

    fn solutions(&self, pat: &TriplePattern) -> Vec<Mapping> {
        self.timed(
            || self.inner.solutions(pat),
            |c, v| {
                c.match_calls += 1;
                c.rows_returned += v.len() as u64;
            },
        )
    }

    fn candidate_values(&self, pat: &TriplePattern, v: Variable) -> Option<Vec<Iri>> {
        self.timed(
            || self.inner.candidate_values(pat, v),
            |c, out| {
                c.match_calls += 1;
                c.rows_returned += out.as_ref().map_or(0, |v| v.len() as u64);
            },
        )
    }

    fn trie_cursor<'b>(
        &'b self,
        pat: &TriplePattern,
        vars: &[Variable],
    ) -> Box<dyn TrieCursor + 'b> {
        self.timed(
            || self.inner.trie_cursor(pat, vars),
            |c, _| c.cursor_opens += 1,
        )
    }
}

#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub struct FsCounts {
    /// `fsync` + `dir_sync` calls, and the time they took.
    pub fsyncs: u64,
    pub fsync_ns: u64,
    /// `append` + `write_at` calls, and the bytes they carried.
    pub write_calls: u64,
    pub write_bytes: u64,
}

impl FsCounts {
    /// What was counted after `before` was read.
    pub fn since(self, before: FsCounts) -> FsCounts {
        FsCounts {
            fsyncs: self.fsyncs - before.fsyncs,
            fsync_ns: self.fsync_ns - before.fsync_ns,
            write_calls: self.write_calls - before.write_calls,
            write_bytes: self.write_bytes - before.write_bytes,
        }
    }
}

/// [`RealFs`] with exact call counts — handed to
/// `TripleStore::open_with_vfs` by the traced run.
pub struct CountingFs {
    inner: RealFs,
    fsyncs: AtomicU64,
    fsync_ns: AtomicU64,
    write_calls: AtomicU64,
    write_bytes: AtomicU64,
}

impl CountingFs {
    pub fn new(inner: RealFs) -> CountingFs {
        CountingFs {
            inner,
            fsyncs: AtomicU64::new(0),
            fsync_ns: AtomicU64::new(0),
            write_calls: AtomicU64::new(0),
            write_bytes: AtomicU64::new(0),
        }
    }

    // Relaxed throughout: these are statistics read after the store that
    // wrote them is done; they publish no other data.
    pub fn counts(&self) -> FsCounts {
        FsCounts {
            fsyncs: self.fsyncs.load(Relaxed),
            fsync_ns: self.fsync_ns.load(Relaxed),
            write_calls: self.write_calls.load(Relaxed),
            write_bytes: self.write_bytes.load(Relaxed),
        }
    }

    fn synced<R>(&self, f: impl FnOnce() -> R) -> R {
        let start = Instant::now();
        let out = f();
        self.fsyncs.fetch_add(1, Relaxed);
        self.fsync_ns
            .fetch_add(start.elapsed().as_nanos() as u64, Relaxed);
        out
    }

    fn wrote(&self, data: &[u8]) {
        self.write_calls.fetch_add(1, Relaxed);
        self.write_bytes.fetch_add(data.len() as u64, Relaxed);
    }
}

type VfsResult<T> = Result<T, VfsError>;

impl Vfs for CountingFs {
    fn create(&self, name: &str) -> VfsResult<()> {
        self.inner.create(name)
    }

    fn append(&self, name: &str, data: &[u8]) -> VfsResult<()> {
        self.wrote(data);
        self.inner.append(name, data)
    }

    fn write_at(&self, name: &str, offset: u64, data: &[u8]) -> VfsResult<()> {
        self.wrote(data);
        self.inner.write_at(name, offset, data)
    }

    fn truncate(&self, name: &str, len: u64) -> VfsResult<()> {
        self.inner.truncate(name, len)
    }

    fn fsync(&self, name: &str) -> VfsResult<()> {
        self.synced(|| self.inner.fsync(name))
    }

    fn rename(&self, from: &str, to: &str) -> VfsResult<()> {
        self.inner.rename(from, to)
    }

    fn remove(&self, name: &str) -> VfsResult<()> {
        self.inner.remove(name)
    }

    fn dir_sync(&self) -> VfsResult<()> {
        self.synced(|| self.inner.dir_sync())
    }

    fn read(&self, name: &str) -> VfsResult<Option<Vec<u8>>> {
        self.inner.read(name)
    }

    fn read_at(&self, name: &str, offset: u64, len: usize) -> VfsResult<Option<Vec<u8>>> {
        self.inner.read_at(name, offset, len)
    }

    fn list(&self) -> VfsResult<Vec<String>> {
        self.inner.list()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::sync::Arc;
    use wdsparql_rdf::term::{iri, var};
    use wdsparql_rdf::tp;
    use wdsparql_store::{PersistOpts, TripleStore};
    use wdsparql_workloads::social_network;

    /// Every level of a cursor, depth-first, as decoded values.
    fn drain(c: &mut dyn TrieCursor, level: usize, out: &mut Vec<(usize, Iri)>) {
        c.open();
        while c.key().is_some() {
            out.push((level, c.value()));
            if level + 1 < c.depth() {
                drain(c, level + 1, out);
            }
            c.advance();
        }
        c.up();
    }

    #[test]
    fn counting_index_answers_like_the_index_it_wraps() {
        let g = social_network(60, 3);
        let store = TripleStore::from_rdf(&g);
        let snap = store.read_snapshot();
        for inner in [&g as &dyn TripleIndex, snap.graph() as &dyn TripleIndex] {
            let ix = CountingIndex::new(inner);
            let (x, y) = (Variable::new("x"), Variable::new("y"));
            let pat = tp(var("x"), iri("knows"), var("y"));
            let bound = tp(iri("person1"), iri("knows"), var("y"));
            let some = inner.triples().next().expect("non-empty graph");
            let absent = Triple::from_strs("person1", "knows", "nobody");

            assert_eq!(ix.len(), inner.len());
            assert_eq!(ix.is_empty(), inner.is_empty());
            assert!(ix.contains(&some) && !ix.contains(&absent));
            assert_eq!(
                ix.triples().collect::<Vec<_>>(),
                inner.triples().collect::<Vec<_>>()
            );
            assert_eq!(
                ix.dom().collect::<Vec<_>>(),
                inner.dom().collect::<Vec<_>>()
            );
            assert_eq!(ix.dom_contains(some.s), inner.dom_contains(some.s));
            assert!(!ix.dom_contains(Iri::new("nobody")));
            for p in [&pat, &bound] {
                assert_eq!(ix.candidate_count(p), inner.candidate_count(p));
                assert_eq!(ix.match_pattern(p), inner.match_pattern(p));
                assert_eq!(ix.solutions(p), inner.solutions(p));
                assert_eq!(ix.candidate_values(p, y), inner.candidate_values(p, y));
            }
            let (mut a, mut b) = (Vec::new(), Vec::new());
            drain(&mut *ix.trie_cursor(&pat, &[x, y]), 0, &mut a);
            drain(&mut *inner.trie_cursor(&pat, &[x, y]), 0, &mut b);
            assert!(!a.is_empty());
            assert_eq!(a, b);

            let c = ix.counts();
            assert_eq!(c.contains_calls, 2);
            assert_eq!(c.dom_calls, 3);
            assert_eq!(c.count_calls, 2);
            assert_eq!(c.match_calls, 1 + 3 * 2);
            assert_eq!(c.cursor_opens, 1);
            assert!(c.rows_returned as usize >= inner.len() + inner.dom().count());
            assert_eq!(ix.take_time(), c.time);
            assert_eq!(ix.take_time(), Duration::ZERO);
            assert_eq!(ix.counts(), c);
        }
    }

    #[test]
    fn counting_fs_counts_a_three_batch_load() {
        let dir = std::path::Path::new(env!("CARGO_MANIFEST_DIR")).join("out/tmp/test-countingfs");
        let _ = std::fs::remove_dir_all(&dir);
        let fs = Arc::new(CountingFs::new(RealFs::open(&dir).unwrap()));
        let store = TripleStore::open_with_vfs(fs.clone(), PersistOpts::default()).unwrap();
        let formatted = fs.counts();
        let triples: Vec<Triple> = social_network(40, 1).iter().copied().collect();
        let mut per_batch = Vec::new();
        for batch in triples.chunks(triples.len().div_ceil(3)) {
            let before = fs.counts();
            assert_eq!(store.try_bulk_load(batch.to_vec()).unwrap(), batch.len());
            let after = fs.counts();
            per_batch.push((
                after.fsyncs - before.fsyncs,
                after.write_calls - before.write_calls,
            ));
            assert!(after.write_bytes - before.write_bytes >= 12 * batch.len() as u64);
        }
        assert_eq!(per_batch.len(), 3);
        // Every acknowledged batch is fsynced, and every batch costs the
        // same number of calls: the protocol is per commit, not per byte.
        assert!(per_batch[0].0 >= 1 && per_batch[0].1 >= 1);
        assert!(per_batch.iter().all(|b| *b == per_batch[0]));
        let end = fs.counts();
        assert!(end.fsyncs > formatted.fsyncs);
        assert!(end.fsync_ns > 0);
        drop(store);
        let reopened = TripleStore::open(&dir).unwrap();
        assert_eq!(reopened.len(), triples.len());
        std::fs::remove_dir_all(&dir).unwrap();
    }
}
