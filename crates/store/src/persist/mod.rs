//! Durable segment storage: the crash-verified commit protocol from
//! `wdsparql_analyzer::fsim::proto`, implemented for real.
//!
//! A store directory holds:
//!
//! * `manifest` — the root pointer: a paged [`format`](mod@format) file naming the
//!   current checkpoint (`base-<n>`), its payload checksum and the
//!   epoch it covers;
//! * `base-<n>` — the checkpoint: every triple as of its epoch, one
//!   paged triple block whose terms are numbered by spelling, so its
//!   bytes depend on the triple set alone;
//! * `seg-<n>` — immutable delta segments, one per committed batch, its
//!   terms numbered in the batch's first-seen order;
//! * `commit.log` — fixed-size records, one per committed batch:
//!   `(epoch, segment id, payload length, payload checksum)`.
//!
//! **Commit** follows the proven op sequence: write `seg-<n>.tmp`,
//! `fsync` it, `rename` into place, `dir_sync`, append the log record,
//! `fsync` the log — only then is the batch acknowledged. **Checkpoint**
//! publishes a new `base-<n>` and a new manifest the same way, then
//! truncates the log. **Recovery** trusts nothing: tmp files are
//! removed, the manifest and checkpoint are checksum-verified against
//! each other, a torn log tail is truncated, and every referenced
//! segment is verified against its log record. A segment that fails —
//! checksum mismatch, wrong epoch, truncation — is *quarantined*
//! (renamed to `seg-<n>.quarantined`, counted in metrics) and the store
//! degrades to the last consistent epoch instead of panicking; a
//! corrupt manifest or checkpoint is a typed error, never a crash.
//!
//! Invariants (D1–D4, replayed against this exact code by the crash
//! matrix in `tests/persist_crash_matrix.rs`): acknowledged epochs are
//! durable with their exact payload; an interrupted load is invisible;
//! recovery never errors on a crash image and never leaves a missing or
//! torn referenced segment; recovery is idempotent.

pub mod format;
pub mod vfs;

use std::collections::BTreeSet;
use std::fmt;
use std::sync::Arc;
use std::time::Duration;

use wdsparql_rdf::{CellMap, Iri, Triple};

use format::{
    checksum64, decode_manifest, decode_paged, decode_triple_block, encode_manifest, encode_paged,
    encode_record, encode_triple_block, parse_log, LogRecord, Manifest, PageKind, TripleBlock,
    RECORD_LEN,
};
use vfs::{FaultKind, RealFs, Vfs, VfsError};

/// The manifest file name.
pub const MANIFEST: &str = "manifest";
/// The commit-log file name.
pub const LOG: &str = "commit.log";
const TMP_SUFFIX: &str = ".tmp";
const QUARANTINE_SUFFIX: &str = ".quarantined";

fn seg_name(id: u32) -> String {
    format!("seg-{id:08}")
}

fn base_name(id: u32) -> String {
    format!("base-{id:08}")
}

fn parse_id(name: &str, prefix: &str) -> Option<u32> {
    let rest = name.strip_prefix(prefix)?;
    let rest = rest.strip_suffix(QUARANTINE_SUFFIX).unwrap_or(rest);
    rest.parse().ok()
}

// ---------------------------------------------------------------------
// Errors and options
// ---------------------------------------------------------------------

/// A persistence failure, typed by what the caller can do about it.
#[derive(Debug, Clone)]
pub enum PersistError {
    /// An I/O operation failed past the retry budget (or finally).
    Io { op: String, kind: FaultKind },
    /// The manifest is unreadable: missing with store files present,
    /// bad checksum, or malformed. The directory needs operator
    /// attention; nothing was modified.
    CorruptManifest(String),
    /// The checkpoint the manifest references is missing, fails its
    /// cross-checked checksum, or is malformed.
    CorruptCheckpoint(String),
    /// Any other validation failure (e.g. a replayed batch that cannot
    /// fit the in-memory graph).
    Corrupt(String),
}

impl fmt::Display for PersistError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            PersistError::Io { op, kind } => {
                let kind = match kind {
                    FaultKind::Transient => "transient (retries exhausted)",
                    FaultKind::Permanent => "permanent",
                    FaultKind::Crashed => "crashed",
                };
                write!(f, "{kind} i/o failure during {op}")
            }
            PersistError::CorruptManifest(why) => write!(f, "corrupt manifest: {why}"),
            PersistError::CorruptCheckpoint(why) => write!(f, "corrupt checkpoint: {why}"),
            PersistError::Corrupt(why) => write!(f, "corrupt store: {why}"),
        }
    }
}

impl std::error::Error for PersistError {}

impl From<VfsError> for PersistError {
    fn from(e: VfsError) -> PersistError {
        PersistError::Io {
            op: e.op,
            kind: e.kind,
        }
    }
}

/// Tuning knobs for the persistence layer.
#[derive(Debug, Clone)]
pub struct PersistOpts {
    /// Page size of written files (readers use the header, so any
    /// mix of page sizes coexists in one directory).
    pub page_size: usize,
    /// Transient-failure retries per operation.
    pub max_retries: u32,
    /// Base backoff between retries, doubled per attempt.
    pub backoff: Duration,
}

impl Default for PersistOpts {
    fn default() -> PersistOpts {
        PersistOpts {
            page_size: format::DEFAULT_PAGE_SIZE,
            max_retries: 3,
            backoff: Duration::from_micros(500),
        }
    }
}

/// Runs `f`, retrying transient failures with exponential backoff.
fn retried<T>(
    opts: &PersistOpts,
    mut f: impl FnMut() -> Result<T, VfsError>,
) -> Result<T, PersistError> {
    let mut attempt = 0u32;
    loop {
        match f() {
            Ok(v) => return Ok(v),
            Err(e) if e.is_transient() && attempt < opts.max_retries => {
                attempt += 1;
                crate::obs::on_commit_retry();
                let wait = opts.backoff * (1u32 << (attempt - 1).min(8));
                if !wait.is_zero() {
                    std::thread::sleep(wait);
                }
            }
            Err(e) => return Err(PersistError::from(e)),
        }
    }
}

// ---------------------------------------------------------------------
// Directory state and the protocol
// ---------------------------------------------------------------------

/// In-memory bookkeeping for an open store directory. Rebuilt by
/// [`recover`]; advanced by [`commit_batch`] and [`checkpoint`].
#[derive(Debug, Clone, Default)]
pub struct DirState {
    /// Live length of `commit.log`, for rollback truncation.
    pub log_len: u64,
    /// Next segment id to allocate.
    pub next_seg_id: u32,
    /// Next checkpoint id to allocate.
    pub next_base_id: u32,
    /// Set when a failed commit could not be rolled back; the
    /// directory is no longer writable until reopened (reads and the
    /// in-memory store are unaffected).
    pub wedged: bool,
}

/// What recovery reconstructed from disk.
pub struct Recovered {
    /// The last consistent epoch.
    pub epoch: u64,
    /// The checkpoint image (empty without a checkpoint).
    pub checkpoint: Vec<Triple>,
    /// Committed batches after the checkpoint, in epoch order.
    pub deltas: Vec<(u64, Vec<Triple>)>,
    /// Segments renamed aside because they failed verification.
    pub quarantined: usize,
    /// True when corruption forced the store back to an earlier epoch
    /// than the log claimed.
    pub degraded: bool,
}

fn wedged_err() -> PersistError {
    PersistError::Io {
        op: "commit (directory wedged by an earlier failed rollback; reopen to recover)"
            .to_string(),
        kind: FaultKind::Permanent,
    }
}

/// True if the directory already holds a (possibly partial) store.
pub fn is_formatted(fs: &dyn Vfs, opts: &PersistOpts) -> Result<bool, PersistError> {
    Ok(retried(opts, || fs.read_at(MANIFEST, 0, 1))?.is_some())
}

/// Writes `bytes` as `tmp` and atomically publishes it as `dst` — the
/// proven tmp → fsync → rename → dir_sync sequence. The rename is
/// durable only after the data it points to is.
fn publish_file(
    fs: &dyn Vfs,
    opts: &PersistOpts,
    tmp: &str,
    dst: &str,
    bytes: &[u8],
) -> Result<(), PersistError> {
    retried(opts, || fs.create(tmp))?;
    retried(opts, || fs.append(tmp, bytes))?;
    retried(opts, || fs.fsync(tmp))?;
    crate::obs::on_fsync();
    retried(opts, || fs.rename(tmp, dst))?;
    retried(opts, || fs.dir_sync())?;
    crate::obs::on_fsync();
    Ok(())
}

/// Formats an empty store: an empty manifest published atomically,
/// then an empty commit log. Leftover tmp files from an interrupted
/// earlier format are cleared first, so formatting is idempotent.
pub fn format_store(fs: &dyn Vfs, opts: &PersistOpts) -> Result<DirState, PersistError> {
    for name in retried(opts, || fs.list())? {
        if name.ends_with(TMP_SUFFIX) {
            retried(opts, || fs.remove(&name))?;
        }
    }
    let manifest = Manifest {
        epoch: 0,
        checkpoint: None,
        checkpoint_sum: 0,
    };
    let framed = encode_paged(
        PageKind::Manifest,
        0,
        &encode_manifest(&manifest),
        opts.page_size,
    );
    let tmp = format!("{MANIFEST}{TMP_SUFFIX}");
    publish_file(fs, opts, &tmp, MANIFEST, &framed)?;
    if retried(opts, || fs.read_at(LOG, 0, 1))?.is_none() {
        retried(opts, || fs.create(LOG))?;
        retried(opts, || fs.dir_sync())?;
        crate::obs::on_fsync();
    }
    Ok(DirState::default())
}

/// Builds the self-contained term table + rows image of one committed
/// batch.
///
/// Block ids are handed out in first-seen order over the batch — two
/// [`Iri`]s are one spelling exactly when they are one id, so the table
/// never compares strings — and each spelling is read once, when its
/// term is first seen.
fn batch_image(triples: &[Triple]) -> (Vec<&'static str>, Vec<[u32; 3]>) {
    let (terms, mut rows) = first_seen(triples);
    rows.sort_unstable();
    rows.dedup();
    (terms, rows)
}

/// Builds the image of a checkpoint: as [`batch_image`], but block ids
/// rank the terms by spelling. The store hands its triples over in
/// interner order, which differs from process to process; ranked by
/// spelling, a checkpoint depends on nothing but the triple set.
fn checkpoint_image(triples: &[Triple]) -> (Vec<&'static str>, Vec<[u32; 3]>) {
    let (seen, rows) = first_seen(triples);
    let mut by_spelling: Vec<u32> = (0..seen.len() as u32).collect();
    by_spelling.sort_unstable_by_key(|&id| seen[id as usize]);
    let mut rank = vec![0u32; seen.len()];
    for (r, &id) in by_spelling.iter().enumerate() {
        rank[id as usize] = r as u32;
    }
    let terms = by_spelling.iter().map(|&id| seen[id as usize]).collect();
    let mut rows: Vec<[u32; 3]> = rows
        .into_iter()
        .map(|row| row.map(|id| rank[id as usize]))
        .collect();
    rows.sort_unstable();
    rows.dedup();
    (terms, rows)
}

/// The spellings of `triples`' terms in first-seen order, and the
/// triples as rows of indexes into them.
fn first_seen(triples: &[Triple]) -> (Vec<&'static str>, Vec<[u32; 3]>) {
    let mut ids: CellMap<Iri, u32> = CellMap::default();
    let mut terms = Vec::new();
    let rows = triples
        .iter()
        .map(|t| {
            t.terms().map(|iri| {
                *ids.entry(iri).or_insert_with(|| {
                    terms.push(iri.as_str());
                    (terms.len() - 1) as u32
                })
            })
        })
        .collect();
    (terms, rows)
}

/// The block's triples: its term table interned once, rows mapped
/// through it ([`decode_triple_block`] bounds-checked every row index).
fn materialize(block: &TripleBlock) -> Vec<Triple> {
    let terms: Vec<Iri> = block.terms.iter().map(|name| Iri::new(name)).collect();
    block
        .rows
        .iter()
        .map(|row| {
            let [s, p, o] = row.map(|id| terms[id as usize]);
            Triple::new(s, p, o)
        })
        .collect()
}

/// Durably commits one batch as epoch `epoch`: segment published
/// first, then the log record that makes it real. On any failure the
/// commit rolls back — the log is truncated to its prior length and
/// the segment files removed — so an interrupted load is invisible
/// (D2) and the caller's in-memory state needs no change.
pub fn commit_batch(
    fs: &dyn Vfs,
    opts: &PersistOpts,
    st: &mut DirState,
    epoch: u64,
    triples: &[Triple],
) -> Result<(), PersistError> {
    if st.wedged {
        return Err(wedged_err());
    }
    let (terms, rows) = batch_image(triples);
    let payload = encode_triple_block(&terms, &rows);
    let framed = encode_paged(PageKind::Segment, epoch, &payload, opts.page_size);
    let seg_id = st.next_seg_id;
    let seg = seg_name(seg_id);
    let tmp = format!("{seg}{TMP_SUFFIX}");
    let record = encode_record(&LogRecord {
        epoch,
        seg_id,
        payload_len: payload.len() as u64,
        payload_sum: checksum64(&payload),
    });

    let outcome = (|| -> Result<(), PersistError> {
        publish_file(fs, opts, &tmp, &seg, &framed)?;
        retried(opts, || fs.append(LOG, &record))?;
        retried(opts, || fs.fsync(LOG))?;
        crate::obs::on_fsync();
        Ok(())
    })();

    match outcome {
        Ok(()) => {
            st.log_len += RECORD_LEN as u64;
            st.next_seg_id += 1;
            Ok(())
        }
        Err(e) => {
            // Roll back in reverse publish order: un-publish the log
            // record first (it is what makes the segment real), then
            // sweep the segment files. If even the truncate fails the
            // directory is wedged — no further commits until a reopen
            // re-establishes a consistent picture.
            let log_len = st.log_len;
            if retried(opts, || fs.truncate(LOG, log_len)).is_ok() {
                let _ = fs.fsync(LOG);
            } else {
                st.wedged = true;
            }
            let _ = fs.remove(&tmp);
            let _ = fs.remove(&seg);
            let _ = fs.dir_sync();
            // The id is burned either way: a half-published segment
            // name must never be reused for different bytes.
            st.next_seg_id += 1;
            Err(e)
        }
    }
}

/// Publishes a full checkpoint of `triples` at `epoch`: new `base-<n>`,
/// then a new manifest pointing at it (both via tmp → fsync → rename →
/// dir_sync), then the log is truncated and obsolete files swept.
///
/// Failure before the manifest publish leaves the old manifest, log
/// and segments fully intact — the caller may simply carry on; the
/// orphaned tmp or base file is swept by the next recovery. Failures
/// *after* the manifest publish (log truncate, file sweep) are
/// harmless garbage, not inconsistency — stale log records are skipped
/// at recovery because their epochs precede the manifest's — so they
/// are deliberately ignored.
pub fn checkpoint(
    fs: &dyn Vfs,
    opts: &PersistOpts,
    st: &mut DirState,
    epoch: u64,
    triples: &[Triple],
) -> Result<(), PersistError> {
    if st.wedged {
        return Err(wedged_err());
    }
    let (terms, rows) = checkpoint_image(triples);
    let payload = encode_triple_block(&terms, &rows);
    let framed = encode_paged(PageKind::Checkpoint, epoch, &payload, opts.page_size);
    let base_id = st.next_base_id;
    let base = base_name(base_id);
    let base_tmp = format!("{base}{TMP_SUFFIX}");
    publish_file(fs, opts, &base_tmp, &base, &framed)?;

    let manifest = Manifest {
        epoch,
        checkpoint: Some(base.clone()),
        checkpoint_sum: checksum64(&payload),
    };
    let mframed = encode_paged(
        PageKind::Manifest,
        epoch,
        &encode_manifest(&manifest),
        opts.page_size,
    );
    let mtmp = format!("{MANIFEST}{TMP_SUFFIX}");
    publish_file(fs, opts, &mtmp, MANIFEST, &mframed)?;
    st.next_base_id = base_id + 1;

    // Point of no return passed: everything below is cleanup.
    if retried(opts, || fs.truncate(LOG, 0)).is_ok() {
        st.log_len = 0;
        if fs.fsync(LOG).is_ok() {
            crate::obs::on_fsync();
        }
    }
    if let Ok(names) = fs.list() {
        let mut swept = false;
        for name in names {
            let stale_seg = parse_id(&name, "seg-").is_some() && !name.ends_with(QUARANTINE_SUFFIX);
            let stale_base = parse_id(&name, "base-").is_some()
                && !name.ends_with(QUARANTINE_SUFFIX)
                && name != base;
            if stale_seg || stale_base {
                swept |= fs.remove(&name).is_ok();
            }
        }
        if swept {
            let _ = fs.dir_sync();
        }
    }
    Ok(())
}

/// Truncates the log to `len` and syncs it, updating the state.
fn cut_log(
    fs: &dyn Vfs,
    opts: &PersistOpts,
    st: &mut DirState,
    len: u64,
) -> Result<(), PersistError> {
    retried(opts, || fs.truncate(LOG, len))?;
    retried(opts, || fs.fsync(LOG))?;
    crate::obs::on_fsync();
    st.log_len = len;
    Ok(())
}

/// Renames a segment that failed verification aside, out of every
/// future scan, preserving the evidence for operators.
fn quarantine_segment(fs: &dyn Vfs, opts: &PersistOpts, seg: &str) -> Result<(), PersistError> {
    let aside = format!("{seg}{QUARANTINE_SUFFIX}");
    // analyzer-allow: io-ordering this rename publishes nothing — it retires a corrupt segment from the namespace; recovery dir_syncs before returning
    retried(opts, || fs.rename(seg, &aside))?;
    crate::obs::on_quarantine(1);
    Ok(())
}

/// Rebuilds the store from disk, trusting nothing.
///
/// Leftover tmp files are removed; the manifest and its checkpoint are
/// decoded and cross-checked (failures are typed errors — the caller
/// gets a diagnosis, not a panic); a torn log tail is truncated; each
/// referenced segment is verified byte-for-byte against its log
/// record. The first segment that fails is quarantined (missing ones
/// have nothing to rename), the log is cut at its record, and the
/// store degrades to the epochs before it. Unreferenced segment and
/// checkpoint files are swept. Running recovery twice is a no-op (D4).
pub fn recover(fs: &dyn Vfs, opts: &PersistOpts) -> Result<(Recovered, DirState), PersistError> {
    let names = retried(opts, || fs.list())?;
    for name in &names {
        if name.ends_with(TMP_SUFFIX) {
            retried(opts, || fs.remove(name))?;
        }
    }

    // The root pointer. A directory with store files but no manifest
    // is not "empty", it is damaged — surface that, touch nothing.
    let Some(mbytes) = retried(opts, || fs.read(MANIFEST))? else {
        return Err(PersistError::CorruptManifest(
            "manifest missing from a non-empty store directory".to_string(),
        ));
    };
    let manifest = decode_paged(&mbytes, PageKind::Manifest)
        .and_then(|p| decode_manifest(&p.payload))
        .map_err(|e| PersistError::CorruptManifest(e.0))?;

    // The checkpoint, cross-checked against the manifest's checksum.
    let mut checkpoint_triples = Vec::new();
    if let Some(base) = &manifest.checkpoint {
        let Some(bytes) = retried(opts, || fs.read(base))? else {
            return Err(PersistError::CorruptCheckpoint(format!(
                "manifest references {base}, which is missing"
            )));
        };
        let paged = decode_paged(&bytes, PageKind::Checkpoint)
            .map_err(|e| PersistError::CorruptCheckpoint(e.0))?;
        if paged.epoch != manifest.epoch {
            return Err(PersistError::CorruptCheckpoint(format!(
                "{base} is epoch {}, manifest says {}",
                paged.epoch, manifest.epoch
            )));
        }
        if checksum64(&paged.payload) != manifest.checkpoint_sum {
            return Err(PersistError::CorruptCheckpoint(format!(
                "{base} payload checksum does not match the manifest"
            )));
        }
        let block = decode_triple_block(&paged.payload)
            .map_err(|e| PersistError::CorruptCheckpoint(e.0))?;
        checkpoint_triples = materialize(&block);
    }

    let mut st = DirState::default();
    let log_bytes = retried(opts, || fs.read(LOG))?;
    let log_missing = log_bytes.is_none();
    let log_bytes = log_bytes.unwrap_or_default();
    let (records, valid_len) = parse_log(&log_bytes);
    st.log_len = log_bytes.len() as u64;
    if !log_missing && valid_len < st.log_len {
        // Torn tail from a crash mid-append: cut it.
        cut_log(fs, opts, &mut st, valid_len)?;
    }

    // Replay: verify each referenced segment against its record.
    let mut epoch = manifest.epoch;
    let mut deltas: Vec<(u64, Vec<Triple>)> = Vec::new();
    let mut referenced: BTreeSet<u32> = BTreeSet::new();
    let mut quarantined = 0usize;
    let mut degraded = false;
    let mut max_seg_id: Option<u32> = None;
    for (i, rec) in records.iter().enumerate() {
        max_seg_id = max_seg_id.max(Some(rec.seg_id));
        if rec.epoch <= manifest.epoch {
            // Checkpointed already; its segment is swept below.
            continue;
        }
        let seg = seg_name(rec.seg_id);
        let verified = match retried(opts, || fs.read(&seg))? {
            None => Err(format!("segment {seg} is missing")),
            Some(bytes) => decode_paged(&bytes, PageKind::Segment)
                .map_err(|e| e.0)
                .and_then(|p| {
                    if p.epoch != rec.epoch {
                        Err(format!(
                            "{seg} is epoch {}, its record says {}",
                            p.epoch, rec.epoch
                        ))
                    } else if p.payload.len() as u64 != rec.payload_len
                        || checksum64(&p.payload) != rec.payload_sum
                    {
                        Err(format!("{seg} payload does not match its log record"))
                    } else {
                        decode_triple_block(&p.payload).map_err(|e| e.0)
                    }
                }),
        };
        match verified {
            Ok(block) => {
                // A duplicate epoch is rollback residue: last wins.
                deltas.retain(|(e, _)| *e != rec.epoch);
                deltas.push((rec.epoch, materialize(&block)));
                epoch = epoch.max(rec.epoch);
                referenced.insert(rec.seg_id);
            }
            Err(_why) => {
                // Corrupt or missing: quarantine what exists, cut the
                // log at this record, and serve the epochs before it.
                if retried(opts, || fs.read_at(&seg, 0, 1))?.is_some() {
                    quarantine_segment(fs, opts, &seg)?;
                    quarantined += 1;
                }
                cut_log(fs, opts, &mut st, (i * RECORD_LEN) as u64)?;
                degraded = true;
                break;
            }
        }
    }

    // Sweep unreferenced segments and superseded checkpoints.
    for name in &names {
        if name.ends_with(TMP_SUFFIX) || name.ends_with(QUARANTINE_SUFFIX) {
            continue;
        }
        let stale_seg = parse_id(name, "seg-").is_some_and(|id| !referenced.contains(&id));
        let stale_base = parse_id(name, "base-").is_some()
            && manifest.checkpoint.as_deref() != Some(name.as_str());
        if (stale_seg || stale_base) && retried(opts, || fs.read_at(name, 0, 0))?.is_some() {
            retried(opts, || fs.remove(name))?;
        }
        if let Some(id) = parse_id(name, "seg-") {
            max_seg_id = max_seg_id.max(Some(id));
        }
        if let Some(id) = parse_id(name, "base-") {
            st.next_base_id = st.next_base_id.max(id + 1);
        }
    }
    if log_missing {
        // A crash between the manifest publish and the log creation
        // during format: recreate the (empty) log.
        retried(opts, || fs.create(LOG))?;
        st.log_len = 0;
    }
    retried(opts, || fs.dir_sync())?;
    crate::obs::on_fsync();

    st.next_seg_id = max_seg_id.map_or(0, |id| id + 1);
    deltas.sort_by_key(|(e, _)| *e);
    Ok((
        Recovered {
            epoch,
            checkpoint: checkpoint_triples,
            deltas,
            quarantined,
            degraded,
        },
        st,
    ))
}

// ---------------------------------------------------------------------
// StoreDir: the handle the service embeds
// ---------------------------------------------------------------------

/// An open store directory: a [`Vfs`] plus the protocol bookkeeping.
/// All methods delegate to the free protocol functions, which is what
/// lets the crash-matrix tests drive the identical code over a
/// simulated filesystem.
pub struct StoreDir {
    fs: Arc<dyn Vfs + Send + Sync>,
    opts: PersistOpts,
    state: DirState,
}

impl StoreDir {
    pub fn new(fs: Arc<dyn Vfs + Send + Sync>, opts: PersistOpts) -> StoreDir {
        StoreDir {
            fs,
            opts,
            state: DirState::default(),
        }
    }

    /// Opens `root` on the real filesystem, creating it if absent.
    pub fn real(
        root: impl Into<std::path::PathBuf>,
        opts: PersistOpts,
    ) -> Result<StoreDir, PersistError> {
        let fs = RealFs::open(root.into()).map_err(|e| PersistError::Io {
            op: format!("open store directory: {e}"),
            kind: FaultKind::Permanent,
        })?;
        Ok(StoreDir::new(Arc::new(fs), opts))
    }

    pub fn is_formatted(&self) -> Result<bool, PersistError> {
        is_formatted(&*self.fs, &self.opts)
    }

    pub fn format(&mut self) -> Result<(), PersistError> {
        self.state = format_store(&*self.fs, &self.opts)?;
        Ok(())
    }

    pub fn recover(&mut self) -> Result<Recovered, PersistError> {
        let (rec, st) = recover(&*self.fs, &self.opts)?;
        self.state = st;
        Ok(rec)
    }

    pub fn commit_batch(&mut self, epoch: u64, triples: &[Triple]) -> Result<(), PersistError> {
        commit_batch(&*self.fs, &self.opts, &mut self.state, epoch, triples)
    }

    pub fn checkpoint(&mut self, epoch: u64, triples: &[Triple]) -> Result<(), PersistError> {
        checkpoint(&*self.fs, &self.opts, &mut self.state, epoch, triples)
    }

    /// True when a failed rollback froze writes (see [`DirState`]).
    pub fn is_wedged(&self) -> bool {
        self.state.wedged
    }
}
