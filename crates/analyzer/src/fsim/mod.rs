//! Crash-consistency model checking: a simulated storage layer whose
//! every operation is a potential crash point, and an explorer that
//! replays recovery from every reachable crash image.
//!
//! # The storage model
//!
//! [`SimFs`] is a single-directory in-memory file system with the op
//! vocabulary a commit protocol needs: `create`, `append`/`write_at`,
//! `truncate`, `fsync`, `rename`, `remove`, `dir_sync`, `read`, `list`.
//! Every file keeps two byte images:
//!
//! * **live** — what `read` returns: the page-cache view, updated by
//!   every write immediately;
//! * **durable** — what survives a crash: updated only by `fsync`.
//!
//! Namespace changes (`create`/`rename`/`remove`) take effect in the
//! live directory immediately but are queued in an **ordered journal**
//! until `dir_sync`; a crash persists an arbitrary *prefix* of that
//! journal (metadata is journaled in order, so `rename` is atomic and
//! namespace ops never reorder against each other — but they are
//! independent of data-page persistence, which is the classic
//! data-vs-metadata ordering trap).
//!
//! # Crash images
//!
//! A crash image is built from the durable state plus, independently
//! per dirty **page** (live ≠ durable at [`CrashOpts::page_size`]
//! granularity):
//!
//! * the page persisted (the write reached the platter before the
//!   crash), or did not — *any subset* of dirty pages may persist,
//!   which captures arbitrary write reordering by the device;
//! * optionally ([`CrashOpts::torn_pages`]) the page **tore**: the
//!   first half of the live page landed, the rest still reads back the
//!   old durable bytes — the mid-write crash. (One representative cut
//!   per page; already-durable bytes in the untouched half survive, as
//!   on a real device that tears between sector writes.)
//! * a pending file-length change (append/truncate) persists or not,
//!   independently of the pages.
//!
//! [`CrashExplorer::explore`] first runs the workload uncrashed to
//! count its `N` ops, then for each crash point `k ∈ 0..=N` re-runs it
//! with ops `k..` failing ([`Crashed`]), enumerates every crash image
//! of the aborted state, and calls the model's recovery + invariant
//! check on each. The first violated image is reported with the op
//! trace up to the crash and a description of exactly which pages and
//! namespace ops persisted.
//!
//! Ops also call [`crate::sched::shim::sched_yield`], a no-op outside
//! the schedule explorer; inside [`crate::sched::Explorer::check`] each
//! storage op becomes a scheduling decision, so concurrent writers ×
//! crash points explore together (see `tests/fsim_protocol.rs`).
//!
//! The executable commit-protocol specification built on this lives in
//! [`proto`].

pub mod proto;

use crate::sched::shim::sched_yield;
use crate::sched::LockClean;
use std::collections::{BTreeMap, BTreeSet};
use std::fmt;
use std::sync::Mutex as StdMutex;

/// The injected crash: every op from the configured crash point on
/// fails with this. Model workloads propagate it with `?` and the
/// explorer treats the aborted state as the crash image source.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct Crashed;

impl fmt::Display for Crashed {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.write_str("simulated crash")
    }
}

pub type OpResult<T = ()> = Result<T, Crashed>;

#[derive(Clone)]
struct FileData {
    durable: Vec<u8>,
    live: Vec<u8>,
}

#[derive(Clone, Debug)]
enum DirOp {
    Create(String, usize),
    Rename(String, String),
    Remove(String),
}

impl DirOp {
    fn apply(&self, dir: &mut BTreeMap<String, usize>) {
        match self {
            DirOp::Create(name, fid) => {
                dir.insert(name.clone(), *fid);
            }
            DirOp::Rename(old, new) => {
                if let Some(fid) = dir.remove(old) {
                    dir.insert(new.clone(), fid);
                }
            }
            DirOp::Remove(name) => {
                dir.remove(name);
            }
        }
    }
}

struct FsInner {
    /// File arena; directory entries index into it. Unlinked files stay
    /// in the arena (harmless) — only named files are reachable.
    files: Vec<FileData>,
    dir_live: BTreeMap<String, usize>,
    dir_durable: BTreeMap<String, usize>,
    /// Namespace ops since the last `dir_sync`, in order.
    dir_pending: Vec<DirOp>,
    /// Successful ops so far.
    ops: usize,
    /// Ops with index `>= crash_at` fail.
    crash_at: Option<usize>,
    crashed: bool,
    log: Vec<String>,
}

impl FsInner {
    /// The crash gate every op passes through: counts the op, fails it
    /// once the crash point is reached, records the trace line.
    fn gate(&mut self, desc: impl FnOnce() -> String) -> OpResult {
        if self.crashed {
            return Err(Crashed);
        }
        if let Some(k) = self.crash_at {
            if self.ops >= k {
                self.crashed = true;
                return Err(Crashed);
            }
        }
        self.ops += 1;
        self.log.push(desc());
        Ok(())
    }

    fn fid(&self, name: &str) -> usize {
        *self
            .dir_live
            .get(name)
            .unwrap_or_else(|| panic!("fsim: no such file `{name}` (model bug, not a crash)"))
    }
}

/// The simulated single-directory file system. All methods take `&self`
/// (internal locking), so one instance can be shared by the concurrent
/// writers of a [`crate::sched::Explorer`] model.
pub struct SimFs {
    inner: StdMutex<FsInner>,
}

impl Default for SimFs {
    fn default() -> SimFs {
        SimFs::new()
    }
}

impl SimFs {
    pub fn new() -> SimFs {
        SimFs {
            inner: StdMutex::new(FsInner {
                files: Vec::new(),
                dir_live: BTreeMap::new(),
                dir_durable: BTreeMap::new(),
                dir_pending: Vec::new(),
                ops: 0,
                crash_at: None,
                crashed: false,
                log: Vec::new(),
            }),
        }
    }

    /// Arms (or disarms, with `None`) the crash: ops with absolute
    /// index `>= k` fail. Also re-arms a previously crashed instance.
    pub fn set_crash_at(&self, k: Option<usize>) {
        let mut inner = self.inner.lock_clean();
        inner.crash_at = k;
        inner.crashed = false;
    }

    /// Successful ops so far (the crash-point space is `0..=op_count`).
    pub fn op_count(&self) -> usize {
        self.inner.lock_clean().ops
    }

    /// The trace of every successful op, in order.
    pub fn op_log(&self) -> Vec<String> {
        self.inner.lock_clean().log.clone()
    }

    /// Creates an empty file. Panics if the name is taken (model bug).
    pub fn create(&self, name: &str) -> OpResult {
        sched_yield();
        let mut inner = self.inner.lock_clean();
        inner.gate(|| format!("create({name})"))?;
        assert!(
            !inner.dir_live.contains_key(name),
            "fsim: create of existing `{name}`"
        );
        inner.files.push(FileData {
            durable: Vec::new(),
            live: Vec::new(),
        });
        let fid = inner.files.len() - 1;
        inner.dir_live.insert(name.to_string(), fid);
        inner.dir_pending.push(DirOp::Create(name.to_string(), fid));
        Ok(())
    }

    pub fn append(&self, name: &str, data: &[u8]) -> OpResult {
        sched_yield();
        let mut inner = self.inner.lock_clean();
        inner.gate(|| format!("append({name}, {}B)", data.len()))?;
        let fid = inner.fid(name);
        inner.files[fid].live.extend_from_slice(data);
        Ok(())
    }

    /// Overwrites bytes at `offset`, extending the file if needed.
    pub fn write_at(&self, name: &str, offset: usize, data: &[u8]) -> OpResult {
        sched_yield();
        let mut inner = self.inner.lock_clean();
        inner.gate(|| format!("write_at({name}, {offset}, {}B)", data.len()))?;
        let fid = inner.fid(name);
        let live = &mut inner.files[fid].live;
        if live.len() < offset + data.len() {
            live.resize(offset + data.len(), 0);
        }
        live[offset..offset + data.len()].copy_from_slice(data);
        Ok(())
    }

    pub fn truncate(&self, name: &str, len: usize) -> OpResult {
        sched_yield();
        let mut inner = self.inner.lock_clean();
        inner.gate(|| format!("truncate({name}, {len})"))?;
        let fid = inner.fid(name);
        let live = &mut inner.files[fid].live;
        if live.len() > len {
            live.truncate(len);
        } else {
            live.resize(len, 0);
        }
        Ok(())
    }

    /// Makes the file's live bytes durable (content only — the *name*
    /// needs `dir_sync`, exactly the POSIX trap).
    pub fn fsync(&self, name: &str) -> OpResult {
        sched_yield();
        let mut inner = self.inner.lock_clean();
        inner.gate(|| format!("fsync({name})"))?;
        let fid = inner.fid(name);
        inner.files[fid].durable = inner.files[fid].live.clone();
        Ok(())
    }

    /// Atomically replaces `new` with `old`'s file (live immediately;
    /// durable once the journal prefix containing it persists).
    pub fn rename(&self, old: &str, new: &str) -> OpResult {
        sched_yield();
        let mut inner = self.inner.lock_clean();
        inner.gate(|| format!("rename({old} -> {new})"))?;
        let fid = inner.fid(old);
        inner.dir_live.remove(old);
        inner.dir_live.insert(new.to_string(), fid);
        inner
            .dir_pending
            .push(DirOp::Rename(old.to_string(), new.to_string()));
        Ok(())
    }

    pub fn remove(&self, name: &str) -> OpResult {
        sched_yield();
        let mut inner = self.inner.lock_clean();
        inner.gate(|| format!("remove({name})"))?;
        inner.fid(name);
        inner.dir_live.remove(name);
        inner.dir_pending.push(DirOp::Remove(name.to_string()));
        Ok(())
    }

    /// Persists the whole namespace journal, in order.
    pub fn dir_sync(&self) -> OpResult {
        sched_yield();
        let mut inner = self.inner.lock_clean();
        inner.gate(|| "dir_sync()".to_string())?;
        let pending = std::mem::take(&mut inner.dir_pending);
        for op in &pending {
            let mut dir = std::mem::take(&mut inner.dir_durable);
            op.apply(&mut dir);
            inner.dir_durable = dir;
        }
        Ok(())
    }

    /// The live view of a file, `None` if the name does not exist.
    pub fn read(&self, name: &str) -> OpResult<Option<Vec<u8>>> {
        sched_yield();
        let mut inner = self.inner.lock_clean();
        inner.gate(|| format!("read({name})"))?;
        Ok(inner
            .dir_live
            .get(name)
            .map(|&fid| inner.files[fid].live.clone()))
    }

    /// Live directory listing, sorted.
    pub fn list(&self) -> OpResult<Vec<String>> {
        sched_yield();
        let mut inner = self.inner.lock_clean();
        inner.gate(|| "list()".to_string())?;
        Ok(inner.dir_live.keys().cloned().collect())
    }

    /// Every state a crash *now* could leave on disk, as fresh
    /// [`SimFs`] instances (durable == live, empty journal, no crash
    /// armed) plus a human description of what persisted. The second
    /// component is `false` when enumeration was capped at
    /// [`CrashOpts::max_images`].
    pub fn crash_images(&self, opts: &CrashOpts) -> (Vec<(SimFs, String)>, bool) {
        assert!(opts.page_size >= 2, "torn pages need page_size >= 2");
        let inner = self.inner.lock_clean();
        // Dirty items: per file, the pages where live ≠ durable and a
        // pending length change; plus the namespace journal prefix.
        struct Dirty {
            fid: usize,
            pages: Vec<usize>,
            size_differs: bool,
        }
        let ps = opts.page_size;
        // A file can appear in *some* crash image only if the durable
        // directory points at it or a pending `create` could. Orphans
        // (removed, or clobbered by rename) are unreachable in every
        // image, so their dirty pages must not multiply the space.
        let mut reachable: BTreeSet<usize> = inner.dir_durable.values().copied().collect();
        for op in &inner.dir_pending {
            if let DirOp::Create(_, fid) = op {
                reachable.insert(*fid);
            }
        }
        let mut dirty: Vec<Dirty> = Vec::new();
        for (fid, f) in inner.files.iter().enumerate() {
            if !reachable.contains(&fid) {
                continue;
            }
            let n_pages = f.durable.len().max(f.live.len()).div_ceil(ps);
            let pages: Vec<usize> = (0..n_pages)
                .filter(|&p| page_of(&f.durable, p, ps) != page_of(&f.live, p, ps))
                .collect();
            let size_differs = f.durable.len() != f.live.len();
            if !pages.is_empty() || size_differs {
                dirty.push(Dirty {
                    fid,
                    pages,
                    size_differs,
                });
            }
        }
        // Mixed-radix digits: journal prefix, then per file each dirty
        // page (keep / live / torn) and the size bit (old / new).
        let page_radix = if opts.torn_pages { 3 } else { 2 };
        let mut radices: Vec<usize> = vec![inner.dir_pending.len() + 1];
        for d in &dirty {
            radices.extend(std::iter::repeat_n(page_radix, d.pages.len()));
            if d.size_differs {
                radices.push(2);
            }
        }
        let total: u128 = radices.iter().map(|&r| r as u128).product();
        let count = total.min(opts.max_images as u128) as usize;
        let exhausted = total <= opts.max_images as u128;

        // Reverse name lookup for descriptions.
        let name_of = |fid: usize| -> String {
            inner
                .dir_live
                .iter()
                .chain(inner.dir_durable.iter())
                .find(|(_, &f)| f == fid)
                .map(|(n, _)| n.clone())
                .unwrap_or_else(|| format!("#{fid}"))
        };

        let mut out = Vec::with_capacity(count);
        for mut idx in 0..count {
            let mut digits = Vec::with_capacity(radices.len());
            for &r in &radices {
                digits.push(idx % r);
                idx /= r;
            }
            let mut di = digits.into_iter();
            let prefix = di.next().expect("journal digit first");

            let mut files = inner.files.clone();
            let mut desc = format!("dir={prefix}/{}", inner.dir_pending.len());
            for d in &dirty {
                let f = &inner.files[d.fid];
                let n_pages = f.durable.len().max(f.live.len()).div_ceil(ps);
                let mut bytes = Vec::with_capacity(n_pages * ps);
                let mut choices: BTreeMap<usize, usize> = BTreeMap::new();
                for &p in &d.pages {
                    choices.insert(p, di.next().expect("one digit per dirty page"));
                }
                for p in 0..n_pages {
                    match choices.get(&p) {
                        None | Some(0) => bytes.extend(page_of(&f.durable, p, ps)),
                        Some(1) => bytes.extend(page_of(&f.live, p, ps)),
                        Some(_) => {
                            let live = page_of(&f.live, p, ps);
                            let old = page_of(&f.durable, p, ps);
                            bytes.extend(&live[..ps / 2]);
                            bytes.extend(&old[ps / 2..]);
                        }
                    }
                }
                let len = if d.size_differs && di.next().expect("size digit") == 1 {
                    f.live.len()
                } else {
                    f.durable.len()
                };
                bytes.truncate(len);
                desc.push_str(&format!(" {}[", name_of(d.fid)));
                for (i, &p) in d.pages.iter().enumerate() {
                    if i > 0 {
                        desc.push(',');
                    }
                    desc.push_str(&format!("p{p}={}", ["keep", "live", "torn"][choices[&p]]));
                }
                if d.size_differs {
                    desc.push_str(&format!(
                        "{}len={len}",
                        if d.pages.is_empty() { "" } else { "," }
                    ));
                }
                desc.push(']');
                files[d.fid] = FileData {
                    durable: bytes.clone(),
                    live: bytes,
                };
            }
            // Files with no dirty items persist as-is (durable view).
            for (fid, f) in files.iter_mut().enumerate() {
                if !dirty.iter().any(|d| d.fid == fid) {
                    f.live.clone_from(&f.durable);
                }
            }
            let mut dir = inner.dir_durable.clone();
            for op in &inner.dir_pending[..prefix] {
                op.apply(&mut dir);
            }
            out.push((
                SimFs {
                    inner: StdMutex::new(FsInner {
                        files,
                        dir_live: dir.clone(),
                        dir_durable: dir,
                        dir_pending: Vec::new(),
                        ops: 0,
                        crash_at: None,
                        crashed: false,
                        log: Vec::new(),
                    }),
                },
                desc,
            ));
        }
        (out, exhausted)
    }
}

/// The live page `p` of `buf`, zero-padded to `ps` bytes (holes past
/// the end of the file read back as zeros).
fn page_of(buf: &[u8], p: usize, ps: usize) -> Vec<u8> {
    let start = p * ps;
    let mut out = vec![0u8; ps];
    if start < buf.len() {
        let end = (start + ps).min(buf.len());
        out[..end - start].copy_from_slice(&buf[start..end]);
    }
    out
}

/// Crash-image enumeration parameters.
#[derive(Clone, Copy, Debug)]
pub struct CrashOpts {
    /// Write-persistence granularity; smaller = more reordering states.
    pub page_size: usize,
    /// Explore mid-write (half-persisted) pages.
    pub torn_pages: bool,
    /// Per-crash-point image cap; exceeding it clears `exhausted`.
    pub max_images: usize,
}

impl Default for CrashOpts {
    fn default() -> CrashOpts {
        CrashOpts {
            page_size: 8,
            torn_pages: true,
            max_images: 4096,
        }
    }
}

/// What an exhausted exploration covered.
#[derive(Clone, Copy, Debug)]
pub struct FsimReport {
    /// Crash points explored (`0..=N` for an `N`-op workload).
    pub crash_points: usize,
    /// Total crash images recovered and checked.
    pub images: usize,
    /// False when any crash point hit [`CrashOpts::max_images`].
    pub exhausted: bool,
}

/// A recovery invariant that failed on a specific crash image.
#[derive(Clone, Debug)]
pub struct FsimViolation {
    /// The crash point: ops `0..crash_point` completed.
    pub crash_point: usize,
    /// Which pages / journal prefix persisted in the failing image.
    pub image: String,
    /// The invariant-check failure message.
    pub invariant: String,
    /// The op trace up to the crash.
    pub trace: Vec<String>,
}

impl fmt::Display for FsimViolation {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        writeln!(
            f,
            "crash-consistency violation after op {}: {}",
            self.crash_point, self.invariant
        )?;
        writeln!(f, "  persisted image: {}", self.image)?;
        writeln!(f, "  ops before the crash:")?;
        for (i, op) in self.trace.iter().enumerate() {
            writeln!(f, "    {i:3}  {op}")?;
        }
        Ok(())
    }
}

/// Exhaustive crash-point × crash-image exploration of a storage
/// workload. See the module docs for the state model.
#[derive(Clone, Copy, Debug, Default)]
pub struct CrashExplorer {
    pub opts: CrashOpts,
}

impl CrashExplorer {
    /// Runs `workload` once uncrashed to size the crash-point space,
    /// then for every crash point and every crash image runs
    /// `recover_check` (the model's recovery + invariant check, `Err`
    /// = violation) against the oracle state `init` + `workload` built
    /// up to the crash.
    pub fn explore<O>(
        &self,
        init: impl Fn() -> O,
        workload: impl Fn(&SimFs, &mut O) -> OpResult,
        recover_check: impl Fn(&SimFs, &O) -> Result<(), String>,
    ) -> Result<FsimReport, Box<FsimViolation>> {
        let fs = SimFs::new();
        let mut oracle = init();
        workload(&fs, &mut oracle).expect("fsim workload must complete when no crash is injected");
        let total_ops = fs.op_count();

        let mut images_checked = 0usize;
        let mut exhausted = true;
        for k in 0..=total_ops {
            let fs = SimFs::new();
            fs.set_crash_at(Some(k));
            let mut oracle = init();
            // Err(Crashed) is the expected outcome for k < total_ops.
            let _ = workload(&fs, &mut oracle);
            let (images, point_exhausted) = fs.crash_images(&self.opts);
            exhausted &= point_exhausted;
            for (image, desc) in images {
                images_checked += 1;
                if let Err(invariant) = recover_check(&image, &oracle) {
                    return Err(Box::new(FsimViolation {
                        crash_point: k,
                        image: desc,
                        invariant,
                        trace: fs.op_log(),
                    }));
                }
            }
        }
        Ok(FsimReport {
            crash_points: total_ops + 1,
            images: images_checked,
            exhausted,
        })
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn opts(ps: usize, torn: bool) -> CrashOpts {
        CrashOpts {
            page_size: ps,
            torn_pages: torn,
            max_images: 100_000,
        }
    }

    fn contents(images: &[(SimFs, String)], name: &str) -> Vec<Option<Vec<u8>>> {
        images
            .iter()
            .map(|(fs, _)| fs.read(name).expect("image fs has no crash armed"))
            .collect()
    }

    #[test]
    fn unsynced_writes_can_persist_in_any_order() {
        let fs = SimFs::new();
        fs.create("f").unwrap();
        fs.dir_sync().unwrap();
        fs.append("f", b"AAAABBBB").unwrap();
        let (images, exhausted) = fs.crash_images(&opts(4, false));
        assert!(exhausted);
        // Two dirty pages + the length change: 8 combinations.
        assert_eq!(images.len(), 8);
        let got = contents(&images, "f");
        // Length not persisted: the file is empty whatever the pages did.
        assert!(got.contains(&Some(Vec::new())));
        // Reordering witness: the *second* write persisted, the first
        // did not — the tail page landed, the head reads back as zeros.
        assert!(got.contains(&Some(b"\0\0\0\0BBBB".to_vec())));
        // First page only.
        assert!(got.contains(&Some(b"AAAA\0\0\0\0".to_vec())));
        // Everything landed.
        assert!(got.contains(&Some(b"AAAABBBB".to_vec())));
    }

    #[test]
    fn torn_pages_expose_half_written_state() {
        let fs = SimFs::new();
        fs.create("f").unwrap();
        fs.dir_sync().unwrap();
        fs.append("f", b"ABCD").unwrap();
        let (images, _) = fs.crash_images(&opts(4, true));
        let got = contents(&images, "f");
        // One dirty page with keep/live/torn × length old/new = 6.
        assert_eq!(images.len(), 6);
        // The torn image: the first half of the write landed, the rest
        // still reads back the old (hole) bytes.
        assert!(got.contains(&Some(b"AB\0\0".to_vec())), "{got:?}");
    }

    #[test]
    fn fsync_and_dir_sync_collapse_to_one_image() {
        let fs = SimFs::new();
        fs.create("f").unwrap();
        fs.append("f", b"data!").unwrap();
        fs.fsync("f").unwrap();
        fs.dir_sync().unwrap();
        let (images, exhausted) = fs.crash_images(&opts(4, true));
        assert!(exhausted);
        assert_eq!(images.len(), 1, "fully synced state is deterministic");
        assert_eq!(images[0].0.read("f").unwrap(), Some(b"data!".to_vec()));
    }

    #[test]
    fn rename_is_atomic_but_durable_only_after_dir_sync() {
        let fs = SimFs::new();
        fs.create("a").unwrap();
        fs.append("a", b"x").unwrap();
        fs.fsync("a").unwrap();
        fs.dir_sync().unwrap();
        fs.rename("a", "b").unwrap();
        let (images, _) = fs.crash_images(&opts(4, true));
        assert_eq!(images.len(), 2, "journal prefix 0 or 1");
        for (img, desc) in &images {
            let a = img.read("a").unwrap();
            let b = img.read("b").unwrap();
            assert!(
                a.is_some() != b.is_some(),
                "exactly one name exists ({desc}): a={a:?} b={b:?}"
            );
        }
        fs.dir_sync().unwrap();
        let (images, _) = fs.crash_images(&opts(4, true));
        assert_eq!(images.len(), 1);
        assert_eq!(images[0].0.read("b").unwrap(), Some(b"x".to_vec()));
    }

    #[test]
    fn namespace_journal_persists_in_order() {
        let fs = SimFs::new();
        fs.create("a").unwrap();
        fs.create("b").unwrap();
        let (images, _) = fs.crash_images(&opts(4, true));
        // Prefix semantics: `b` can never exist without `a`.
        assert_eq!(images.len(), 3);
        for (img, desc) in &images {
            if img.read("b").unwrap().is_some() {
                assert!(img.read("a").unwrap().is_some(), "{desc}");
            }
        }
    }

    #[test]
    fn crash_at_fails_every_op_from_that_point() {
        let fs = SimFs::new();
        fs.set_crash_at(Some(2));
        fs.create("a").unwrap();
        fs.append("a", b"x").unwrap();
        assert_eq!(fs.fsync("a"), Err(Crashed));
        assert_eq!(fs.dir_sync(), Err(Crashed), "stays crashed");
        assert_eq!(fs.op_count(), 2);
        assert_eq!(fs.op_log(), vec!["create(a)", "append(a, 1B)"]);
    }

    #[test]
    fn truncate_shrinks_live_but_durable_needs_fsync() {
        let fs = SimFs::new();
        fs.create("f").unwrap();
        fs.append("f", b"12345678").unwrap();
        fs.fsync("f").unwrap();
        fs.dir_sync().unwrap();
        fs.truncate("f", 4).unwrap();
        let (images, _) = fs.crash_images(&opts(4, true));
        let got = contents(&images, "f");
        assert!(got.contains(&Some(b"12345678".to_vec())), "old length");
        assert!(got.contains(&Some(b"1234".to_vec())), "new length");
    }

    #[test]
    fn explorer_catches_an_ack_before_sync_and_passes_the_fix() {
        // Toy protocol: write a flag file, then "ack". Buggy variant
        // acks before fsync — some crash image has the ack recorded in
        // the oracle but no durable flag.
        let run = |sync_first: bool| {
            CrashExplorer {
                opts: opts(4, true),
            }
            .explore(
                || false,
                move |fs, acked: &mut bool| {
                    fs.create("flag")?;
                    fs.append("flag", b"ok")?;
                    if sync_first {
                        fs.fsync("flag")?;
                        fs.dir_sync()?;
                        *acked = true;
                    } else {
                        *acked = true;
                        fs.fsync("flag")?;
                        fs.dir_sync()?;
                    }
                    Ok(())
                },
                |img, acked| {
                    if *acked
                        && img.read("flag").map_err(|e| e.to_string())? != Some(b"ok".to_vec())
                    {
                        return Err("acked flag is not durable".to_string());
                    }
                    Ok(())
                },
            )
        };
        let report = run(true).expect("correct ordering exhausts clean");
        assert!(report.exhausted);
        assert!(report.crash_points >= 5);
        let violation = run(false).expect_err("ack before sync is caught");
        assert!(violation.invariant.contains("not durable"));
        assert!(!violation.trace.is_empty());
        let rendered = violation.to_string();
        assert!(
            rendered.contains("crash-consistency violation"),
            "{rendered}"
        );
    }
}
