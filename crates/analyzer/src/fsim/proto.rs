//! The durable-storage commit protocol as an executable model — the
//! specification the store's `persist` module implements, verified here
//! against every crash point. It was written before that code; a
//! protocol change (ROADMAP item 3(c)'s write-ahead log) is specified
//! here first too.
//!
//! # On-disk layout (mirrors the store's base + delta segments)
//!
//! * `seg-<id>` — immutable segment files: a checksummed frame around
//!   an epoch's payload (stand-in for a serialized delta segment).
//! * `commit.log` — append-only log of fixed-size checksummed records
//!   `(epoch, seg id, payload checksum)`; a record is the commit point.
//! * `manifest` — checksummed list of checkpointed epochs; replaced
//!   atomically (write `manifest.tmp`, `fsync`, `rename`, `dir_sync`),
//!   after which the log is truncated.
//!
//! # The correct commit sequence ([`ProtocolVariant::Correct`])
//!
//! ```text
//! create seg-<id>.tmp → append frame → fsync          (data durable)
//! rename seg-<id>.tmp → seg-<id> → dir_sync           (name durable)
//! append commit.log record → fsync commit.log         (commit point)
//! ack                                                 (caller resumes)
//! ```
//!
//! # Recovery ([`recover`])
//!
//! 1. delete orphan `*.tmp` files;
//! 2. parse the manifest (absent + absent log = empty store; torn =
//!    violation) and verify every listed segment parses;
//! 3. replay `commit.log`: truncate at the first torn/short record,
//!    verify each surviving record's segment against the recorded
//!    payload checksum, skip epochs already in the manifest;
//! 4. quarantine (remove) segment files nothing references, then
//!    `dir_sync` the repairs.
//!
//! # Invariants (checked at every crash point, see the analyzer README)
//!
//! * **D1 — acked durability**: every acked epoch is recovered with
//!   its exact payload.
//! * **D2 — interrupted-load atomicity**: recovery never surfaces an
//!   epoch that was not started, nor a partial payload; an interrupted
//!   `bulk_load` is entirely invisible (a durable-but-unacked commit
//!   record may surface its epoch, but only fully intact).
//! * **D3 — reference integrity**: manifest and log never point at a
//!   missing or torn segment; recovery itself never errors.
//! * **D4 — idempotence**: running recovery twice yields the same
//!   state as running it once.
//!
//! The seeded buggy variants each break one step and are provably
//! caught (`tests/fsim_protocol.rs`); the correct protocol exhausts
//! every crash point clean.

use super::{CrashExplorer, CrashOpts, FsimReport, FsimViolation, OpResult, SimFs};
use std::collections::BTreeMap;

const LOG: &str = "commit.log";
const MANIFEST: &str = "manifest";
const LOG_MAGIC: u8 = 0xC7;
const MANIFEST_MAGIC: u8 = 0xAF;
/// Fixed log record size: magic, epoch, seg id, payload len, payload
/// checksum, record checksum.
const RECORD_LEN: usize = 6;

/// The commit-sequence variants under test: one correct, four each
/// breaking a single ordering step of the protocol.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum ProtocolVariant {
    /// The specification sequence (module docs) — exhausts clean.
    Correct,
    /// Publishes the segment name before its data is durable (the
    /// `fsync` moves after the ack): a crash can leave the log pointing
    /// at a torn segment whose epoch was acked.
    RenameBeforeFsync,
    /// Rewrites the manifest in place (truncate + write) instead of
    /// via tmp + rename: a crash mid-rewrite leaves it unparseable.
    InPlaceManifestOverwrite,
    /// Acks before the commit-log fsync: a crash in between loses an
    /// acked epoch.
    AckBeforeLogSync,
    /// Skips the `dir_sync` after publishing the segment name: the
    /// rename may not be durable although the logged commit is.
    MissingDirSync,
}

impl ProtocolVariant {
    /// Every seeded-buggy variant, for test matrices.
    pub const BUGGY: [ProtocolVariant; 4] = [
        ProtocolVariant::RenameBeforeFsync,
        ProtocolVariant::InPlaceManifestOverwrite,
        ProtocolVariant::AckBeforeLogSync,
        ProtocolVariant::MissingDirSync,
    ];

    pub fn name(self) -> &'static str {
        match self {
            ProtocolVariant::Correct => "correct",
            ProtocolVariant::RenameBeforeFsync => "rename-before-fsync",
            ProtocolVariant::InPlaceManifestOverwrite => "in-place-manifest-overwrite",
            ProtocolVariant::AckBeforeLogSync => "ack-before-log-sync",
            ProtocolVariant::MissingDirSync => "missing-dir-sync",
        }
    }
}

/// What the writer side believes happened — the ground truth recovery
/// is checked against.
#[derive(Clone, Debug, Default)]
pub struct Oracle {
    /// Epochs whose `bulk_load` began.
    pub started: Vec<u8>,
    /// Epochs whose commit was acknowledged to the caller.
    pub acked: Vec<u8>,
}

/// The store state recovery reconstructs: epoch → payload.
#[derive(Clone, Debug, Default, PartialEq, Eq)]
pub struct RecoveredView {
    pub payloads: BTreeMap<u8, Vec<u8>>,
}

/// The deterministic payload each epoch's segment carries; invariant
/// checks compare recovered bytes against this.
pub fn payload_for(epoch: u8) -> Vec<u8> {
    (0..(epoch % 5) + 3)
        .map(|i| epoch.wrapping_mul(37).wrapping_add(i))
        .collect()
}

/// Order-sensitive rolling checksum (one byte — collisions only make
/// the checker miss, never false-alarm, and the matrix tests prove it
/// catches every seeded bug).
fn checksum(bytes: &[u8]) -> u8 {
    bytes
        .iter()
        .fold(0u8, |a, &b| a.wrapping_mul(31).wrapping_add(b))
}

/// Secondary checksum so an all-zero frame never validates.
fn checksum2(bytes: &[u8]) -> u8 {
    bytes.iter().fold(0x5Au8, |a, &b| a.rotate_left(3) ^ b)
}

fn seg_name(id: u8) -> String {
    format!("seg-{id}")
}

// --- segment frames -------------------------------------------------

fn frame_segment(payload: &[u8]) -> Vec<u8> {
    let mut out = Vec::with_capacity(payload.len() + 3);
    out.push(payload.len() as u8);
    out.extend_from_slice(payload);
    out.push(checksum(payload));
    out.push(checksum2(payload));
    out
}

fn parse_segment(bytes: &[u8]) -> Result<Vec<u8>, String> {
    if bytes.len() < 3 {
        return Err(format!("segment too short ({}B)", bytes.len()));
    }
    let plen = bytes[0] as usize;
    if bytes.len() != plen + 3 {
        return Err(format!(
            "segment length {} does not match framed payload length {plen}",
            bytes.len()
        ));
    }
    let payload = &bytes[1..1 + plen];
    if bytes[1 + plen] != checksum(payload) || bytes[2 + plen] != checksum2(payload) {
        return Err("segment checksum mismatch".to_string());
    }
    Ok(payload.to_vec())
}

// --- commit log -----------------------------------------------------

struct LogRecord {
    epoch: u8,
    seg_id: u8,
    plen: u8,
    pck: u8,
}

fn frame_record(epoch: u8, seg_id: u8, payload: &[u8]) -> Vec<u8> {
    let mut rec = vec![
        LOG_MAGIC,
        epoch,
        seg_id,
        payload.len() as u8,
        checksum(payload),
    ];
    rec.push(checksum(&rec));
    rec
}

/// Valid records and the byte length they cover; everything after the
/// first short/torn record is an unreachable tail.
fn parse_log(bytes: &[u8]) -> (Vec<LogRecord>, usize) {
    let mut records = Vec::new();
    let mut at = 0;
    while at + RECORD_LEN <= bytes.len() {
        let rec = &bytes[at..at + RECORD_LEN];
        if rec[0] != LOG_MAGIC || rec[RECORD_LEN - 1] != checksum(&rec[..RECORD_LEN - 1]) {
            break;
        }
        records.push(LogRecord {
            epoch: rec[1],
            seg_id: rec[2],
            plen: rec[3],
            pck: rec[4],
        });
        at += RECORD_LEN;
    }
    (records, at)
}

// --- manifest -------------------------------------------------------

fn frame_manifest(epochs: &[u8]) -> Vec<u8> {
    let mut out = vec![MANIFEST_MAGIC, epochs.len() as u8];
    out.extend_from_slice(epochs);
    let (ck1, ck2) = (checksum(&out), checksum2(&out));
    out.push(ck1);
    out.push(ck2);
    out
}

fn parse_manifest(bytes: &[u8]) -> Result<Vec<u8>, String> {
    if bytes.len() < 4 {
        return Err(format!("manifest too short ({}B)", bytes.len()));
    }
    if bytes[0] != MANIFEST_MAGIC {
        return Err("manifest magic mismatch".to_string());
    }
    let n = bytes[1] as usize;
    if bytes.len() != n + 4 {
        return Err(format!(
            "manifest length {} does not match entry count {n}",
            bytes.len()
        ));
    }
    let body = &bytes[..n + 2];
    if bytes[n + 2] != checksum(body) || bytes[n + 3] != checksum2(body) {
        return Err("manifest checksum mismatch".to_string());
    }
    Ok(bytes[2..2 + n].to_vec())
}

// --- the protocol ---------------------------------------------------

/// Initializes an empty store: an empty manifest published atomically,
/// then the commit log.
pub fn format_store(fs: &SimFs) -> OpResult {
    let tmp = format!("{MANIFEST}.tmp");
    fs.create(&tmp)?;
    fs.append(&tmp, &frame_manifest(&[]))?;
    fs.fsync(&tmp)?;
    fs.rename(&tmp, MANIFEST)?;
    fs.dir_sync()?;
    fs.create(LOG)?;
    fs.dir_sync()
}

/// One epoch's `bulk_load` commit under `variant`, publishing the
/// payload as segment `seg-<seg_id>`. `ack` runs at the point the
/// variant acknowledges the caller (the correct protocol: after the
/// log fsync — the commit point is durable).
pub fn commit_with_id(
    fs: &SimFs,
    variant: ProtocolVariant,
    epoch: u8,
    seg_id: u8,
    ack: impl FnOnce(),
) -> OpResult {
    let seg = seg_name(seg_id);
    let tmp = format!("{seg}.tmp");
    let payload = payload_for(epoch);
    fs.create(&tmp)?;
    fs.append(&tmp, &frame_segment(&payload))?;
    match variant {
        ProtocolVariant::RenameBeforeFsync => {
            // BUG: the name goes durable before the bytes do.
            fs.rename(&tmp, &seg)?;
            fs.dir_sync()?;
        }
        ProtocolVariant::MissingDirSync => {
            // BUG: data is durable but the rename may not be.
            fs.fsync(&tmp)?;
            fs.rename(&tmp, &seg)?;
        }
        _ => {
            fs.fsync(&tmp)?;
            fs.rename(&tmp, &seg)?;
            fs.dir_sync()?;
        }
    }
    fs.append(LOG, &frame_record(epoch, seg_id, &payload))?;
    if variant == ProtocolVariant::AckBeforeLogSync {
        // BUG: the caller resumes before the commit point is durable.
        ack();
        fs.fsync(LOG)?;
    } else {
        fs.fsync(LOG)?;
        ack();
    }
    if variant == ProtocolVariant::RenameBeforeFsync {
        // The "eventual" data fsync — too late: the ack already went
        // out while the pages could still be lost.
        fs.fsync(&seg)?;
    }
    Ok(())
}

/// Checkpoints `epochs` into the manifest and truncates the log. The
/// in-place variant skips the tmp + rename dance — the seeded
/// manifest-corruption bug.
pub fn checkpoint(fs: &SimFs, variant: ProtocolVariant, epochs: &[u8]) -> OpResult {
    let body = frame_manifest(epochs);
    if variant == ProtocolVariant::InPlaceManifestOverwrite {
        // BUG: the only copy of the manifest is unparseable mid-write.
        fs.truncate(MANIFEST, 0)?;
        fs.append(MANIFEST, &body)?;
        fs.fsync(MANIFEST)?;
    } else {
        let tmp = format!("{MANIFEST}.tmp");
        fs.create(&tmp)?;
        fs.append(&tmp, &body)?;
        fs.fsync(&tmp)?;
        fs.rename(&tmp, MANIFEST)?;
        fs.dir_sync()?;
    }
    fs.truncate(LOG, 0)?;
    fs.fsync(LOG)
}

/// The standard workload the matrix tests explore: format, then
/// `commits` epochs (seg id = epoch), checkpointing every
/// `checkpoint_every` commits.
pub fn workload(
    fs: &SimFs,
    oracle: &mut Oracle,
    variant: ProtocolVariant,
    commits: u8,
    checkpoint_every: Option<u8>,
) -> OpResult {
    format_store(fs)?;
    for epoch in 1..=commits {
        oracle.started.push(epoch);
        let acked = &mut oracle.acked;
        commit_with_id(fs, variant, epoch, epoch, || acked.push(epoch))?;
        if checkpoint_every.is_some_and(|every| every > 0 && epoch % every == 0) {
            let epochs: Vec<u8> = (1..=epoch).collect();
            checkpoint(fs, variant, &epochs)?;
        }
    }
    Ok(())
}

fn fsr<T>(r: OpResult<T>) -> Result<T, String> {
    r.map_err(|_| "unexpected crash during recovery".to_string())
}

/// Replays a crash image back to a consistent store, repairing what
/// the spec allows (torn log tail, orphan tmp files, unreferenced
/// segments) and erroring on what it does not (D3).
pub fn recover(fs: &SimFs) -> Result<RecoveredView, String> {
    // 1. Orphan tmp files are in-flight writes that never published.
    for name in fsr(fs.list())? {
        if name.ends_with(".tmp") {
            fsr(fs.remove(&name))?;
        }
    }
    // 2. The manifest. Absent manifest + absent log = a crash before
    //    format finished: an empty store. Anything else is D3.
    let manifest_epochs: Vec<u8> = match fsr(fs.read(MANIFEST))? {
        None => {
            if fsr(fs.read(LOG))?.is_some() {
                return Err("D3: commit log exists but the manifest is missing".to_string());
            }
            Vec::new()
        }
        Some(bytes) => {
            parse_manifest(&bytes).map_err(|e| format!("D3: manifest unreadable: {e}"))?
        }
    };
    let mut view = RecoveredView::default();
    for &epoch in &manifest_epochs {
        let seg = seg_name(epoch);
        let bytes = fsr(fs.read(&seg))?
            .ok_or_else(|| format!("D3: manifest points at missing segment `{seg}`"))?;
        let payload = parse_segment(&bytes)
            .map_err(|e| format!("D3: manifest points at torn segment `{seg}`: {e}"))?;
        view.payloads.insert(epoch, payload);
    }
    // 3. Log replay: repair the torn tail, verify every surviving
    //    record's segment.
    let mut referenced: Vec<u8> = manifest_epochs.clone();
    if let Some(log) = fsr(fs.read(LOG))? {
        let (records, valid_len) = parse_log(&log);
        if valid_len < log.len() {
            fsr(fs.truncate(LOG, valid_len))?;
            fsr(fs.fsync(LOG))?;
        }
        for rec in records {
            referenced.push(rec.seg_id);
            if manifest_epochs.contains(&rec.epoch) {
                continue; // checkpointed before the log was truncated
            }
            let seg = seg_name(rec.seg_id);
            let bytes = fsr(fs.read(&seg))?.ok_or_else(|| {
                format!(
                    "D3: commit log references missing segment `{seg}` (epoch {})",
                    rec.epoch
                )
            })?;
            let payload = parse_segment(&bytes)
                .map_err(|e| format!("D3: commit log references torn segment `{seg}`: {e}"))?;
            if payload.len() != rec.plen as usize || checksum(&payload) != rec.pck {
                return Err(format!(
                    "D3: segment `{seg}` does not match its commit record (epoch {})",
                    rec.epoch
                ));
            }
            view.payloads.insert(rec.epoch, payload);
        }
    }
    // 4. Quarantine segments nothing references (published names whose
    //    commit never became durable).
    for name in fsr(fs.list())? {
        if let Some(id) = name.strip_prefix("seg-").and_then(|s| s.parse::<u8>().ok()) {
            if !referenced.contains(&id) {
                fsr(fs.remove(&name))?;
            }
        }
    }
    fsr(fs.dir_sync())?;
    Ok(view)
}

/// Full per-image check: recovery succeeds, is idempotent (D4), and
/// the view satisfies D1/D2 against the oracle.
pub fn recover_and_check(fs: &SimFs, oracle: &Oracle) -> Result<(), String> {
    let first = recover(fs)?;
    let second = recover(fs)
        .map_err(|e| format!("D4: recovery is not idempotent — the second run failed: {e}"))?;
    if first != second {
        return Err("D4: recovery is not idempotent — two runs disagree".to_string());
    }
    check_invariants(&first, oracle)
}

/// D1 + D2 over a recovered view.
pub fn check_invariants(view: &RecoveredView, oracle: &Oracle) -> Result<(), String> {
    for &epoch in &oracle.acked {
        match view.payloads.get(&epoch) {
            None => return Err(format!("D1: acked epoch {epoch} lost after recovery")),
            Some(p) if *p != payload_for(epoch) => {
                return Err(format!(
                    "D1: acked epoch {epoch} recovered with a corrupt payload"
                ))
            }
            _ => {}
        }
    }
    for (&epoch, payload) in &view.payloads {
        if !oracle.started.contains(&epoch) {
            return Err(format!(
                "D2: recovery surfaced epoch {epoch}, which never started"
            ));
        }
        if *payload != payload_for(epoch) {
            return Err(format!(
                "D2: epoch {epoch} visible after recovery with a partial payload"
            ));
        }
    }
    Ok(())
}

/// Exhaustively explores `variant` under the standard workload:
/// `Err` carries the first violated crash point + image + op trace.
pub fn explore(
    variant: ProtocolVariant,
    commits: u8,
    checkpoint_every: Option<u8>,
    opts: CrashOpts,
) -> Result<FsimReport, Box<FsimViolation>> {
    CrashExplorer { opts }.explore(
        Oracle::default,
        |fs, oracle| workload(fs, oracle, variant, commits, checkpoint_every),
        recover_and_check,
    )
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn frames_round_trip_and_reject_corruption() {
        let p = payload_for(3);
        let seg = frame_segment(&p);
        assert_eq!(parse_segment(&seg).unwrap(), p);
        let mut torn = seg.clone();
        torn[1] ^= 0x40;
        assert!(parse_segment(&torn).is_err());
        assert!(parse_segment(&vec![0u8; seg.len()]).is_err(), "zeros");

        let m = frame_manifest(&[1, 2, 3]);
        assert_eq!(parse_manifest(&m).unwrap(), vec![1, 2, 3]);
        assert!(parse_manifest(&m[..m.len() - 1]).is_err());

        let rec = frame_record(2, 2, &p);
        let (recs, len) = parse_log(&rec);
        assert_eq!(len, RECORD_LEN);
        assert_eq!(recs[0].epoch, 2);
        assert_eq!(recs[0].pck, checksum(&p));
        // A torn tail stops the replay at the last whole record.
        let mut log = rec.clone();
        log.extend_from_slice(&frame_record(3, 3, &p)[..4]);
        let (recs, len) = parse_log(&log);
        assert_eq!((recs.len(), len), (1, RECORD_LEN));
    }

    #[test]
    fn correct_single_commit_smoke() {
        let report = explore(ProtocolVariant::Correct, 1, None, CrashOpts::default())
            .unwrap_or_else(|v| panic!("spec violated:\n{v}"));
        assert!(report.exhausted);
        assert!(report.crash_points > 10);
        assert!(report.images > report.crash_points);
    }

    #[test]
    fn recovery_cleans_orphans_idempotently() {
        let fs = SimFs::new();
        let mut oracle = Oracle::default();
        workload(&fs, &mut oracle, ProtocolVariant::Correct, 2, None).unwrap();
        // Litter an orphan tmp and an unreferenced segment.
        fs.create("seg-9.tmp").unwrap();
        fs.create("seg-8").unwrap();
        let view = recover(&fs).unwrap();
        assert_eq!(view.payloads.len(), 2);
        assert_eq!(view.payloads[&1], payload_for(1));
        let names = fs.list().unwrap();
        assert!(!names.contains(&"seg-9.tmp".to_string()));
        assert!(!names.contains(&"seg-8".to_string()));
        assert_eq!(recover(&fs).unwrap(), view, "idempotent");
        check_invariants(&view, &oracle).unwrap();
    }
}
