//! The on-disk byte format: paged container files with per-page
//! checksums, the triple-block payload codec, the length-prefixed
//! manifest payload and the fixed-size commit-log records.
//!
//! Layout of a paged file (`base-<n>` checkpoints and `seg-<n>` delta
//! segments):
//!
//! ```text
//! page 0:  magic u32 | version u16 | kind u8 | flags u8 | page_size u32
//!          | epoch u64 | payload_len u64 | header checksum u64
//!          | zero padding to page_size
//! page i:  (page_size - 8) payload bytes (last page zero-padded)
//!          | checksum u64 over [page index ++ padded chunk]
//! ```
//!
//! Every checksum is [`checksum64`], an XXH64-style rotate-multiply
//! hash; data-page checksums are salted with the page index so swapped
//! or relocated pages fail verification, not just flipped bits. All
//! integers are little-endian. Decoding never panics: every length,
//! index and checksum is validated and a mismatch is a typed
//! [`FormatError`] naming what disagreed.

use std::fmt;

/// File kind tags carried in the paged header.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum PageKind {
    /// A full checkpoint image (`base-<n>`).
    Checkpoint,
    /// One committed batch (`seg-<n>`).
    Segment,
    /// The manifest.
    Manifest,
}

impl PageKind {
    fn code(self) -> u8 {
        match self {
            PageKind::Checkpoint => 1,
            PageKind::Segment => 2,
            PageKind::Manifest => 3,
        }
    }

    fn from_code(code: u8) -> Option<PageKind> {
        match code {
            1 => Some(PageKind::Checkpoint),
            2 => Some(PageKind::Segment),
            3 => Some(PageKind::Manifest),
            _ => None,
        }
    }
}

/// A decode failure: what field disagreed and how.
#[derive(Debug, Clone)]
pub struct FormatError(pub String);

impl fmt::Display for FormatError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.write_str(&self.0)
    }
}

impl std::error::Error for FormatError {}

fn err<T>(msg: impl Into<String>) -> Result<T, FormatError> {
    Err(FormatError(msg.into()))
}

// ---------------------------------------------------------------------
// Checksum
// ---------------------------------------------------------------------

const P1: u64 = 0x9E37_79B1_85EB_CA87;
const P2: u64 = 0xC2B2_AE3D_27D4_EB4F;
const P3: u64 = 0x1656_67B1_9E37_79F9;
const P4: u64 = 0x85EB_CA77_C2B2_AE63;
const P5: u64 = 0x27D4_EB2F_1656_67C5;

/// XXH64-style checksum: 8-byte lanes folded with rotate-multiply
/// rounds and an avalanche finish. Hand-rolled (the container has no
/// crates.io) but keeps the shape — and the diffusion — of the real
/// thing.
pub fn checksum64(bytes: &[u8]) -> u64 {
    let mut acc = P5 ^ (bytes.len() as u64).wrapping_mul(P1);
    let mut chunks = bytes.chunks_exact(8);
    for chunk in &mut chunks {
        let mut lane = [0u8; 8];
        lane.copy_from_slice(chunk);
        let lane = u64::from_le_bytes(lane).wrapping_mul(P2);
        acc = (acc ^ lane.rotate_left(31).wrapping_mul(P1))
            .rotate_left(27)
            .wrapping_mul(P1)
            .wrapping_add(P4);
    }
    for &b in chunks.remainder() {
        acc = (acc ^ u64::from(b).wrapping_mul(P5))
            .rotate_left(11)
            .wrapping_mul(P1);
    }
    acc ^= acc >> 33;
    acc = acc.wrapping_mul(P2);
    acc ^= acc >> 29;
    acc = acc.wrapping_mul(P3);
    acc ^= acc >> 32;
    acc
}

// ---------------------------------------------------------------------
// Paged container
// ---------------------------------------------------------------------

const MAGIC: u32 = 0x5744_5347; // "WDSG"
const VERSION: u16 = 1;
const HEADER_LEN: usize = 4 + 2 + 1 + 1 + 4 + 8 + 8 + 8;

/// The smallest page size the header (and a useful data page) fits in.
pub const MIN_PAGE_SIZE: usize = 64;
/// Production page size.
pub const DEFAULT_PAGE_SIZE: usize = 4096;
const MAX_PAGE_SIZE: usize = 1 << 20;
/// Decoded payloads are refused past this size — a corrupt length
/// prefix must not become a giant allocation.
const MAX_PAYLOAD: u64 = 1 << 40;

/// A decoded paged file.
pub struct Paged {
    pub kind: PageKind,
    pub epoch: u64,
    pub payload: Vec<u8>,
}

/// Frames `payload` into the paged container format.
///
/// `page_size` must be in `MIN_PAGE_SIZE..=MAX_PAGE_SIZE`; it is
/// recorded in the header, so readers do not need to be configured to
/// match.
pub fn encode_paged(kind: PageKind, epoch: u64, payload: &[u8], page_size: usize) -> Vec<u8> {
    let page_size = page_size.clamp(MIN_PAGE_SIZE, MAX_PAGE_SIZE);
    let data_per_page = page_size - 8;
    let pages = payload.len().div_ceil(data_per_page);
    let mut out = Vec::with_capacity((1 + pages) * page_size);

    out.extend_from_slice(&MAGIC.to_le_bytes());
    out.extend_from_slice(&VERSION.to_le_bytes());
    out.push(kind.code());
    out.push(0); // flags
    out.extend_from_slice(&(page_size as u32).to_le_bytes());
    out.extend_from_slice(&epoch.to_le_bytes());
    out.extend_from_slice(&(payload.len() as u64).to_le_bytes());
    let hck = checksum64(&out[..HEADER_LEN - 8]);
    out.extend_from_slice(&hck.to_le_bytes());
    out.resize(page_size, 0);

    let mut chunk = vec![0u8; data_per_page];
    for (i, data) in payload.chunks(data_per_page).enumerate() {
        chunk[..data.len()].copy_from_slice(data);
        chunk[data.len()..].fill(0);
        out.extend_from_slice(&chunk);
        let mut salted = Vec::with_capacity(8 + data_per_page);
        salted.extend_from_slice(&(i as u64).to_le_bytes());
        salted.extend_from_slice(&chunk);
        out.extend_from_slice(&checksum64(&salted).to_le_bytes());
    }
    out
}

fn read_u64(bytes: &[u8], at: usize) -> u64 {
    let mut buf = [0u8; 8];
    buf.copy_from_slice(&bytes[at..at + 8]);
    u64::from_le_bytes(buf)
}

fn read_u32(bytes: &[u8], at: usize) -> u32 {
    let mut buf = [0u8; 4];
    buf.copy_from_slice(&bytes[at..at + 4]);
    u32::from_le_bytes(buf)
}

/// Validates and unpacks a paged file: header magic/version/checksum,
/// page count vs payload length, and every page checksum.
pub fn decode_paged(bytes: &[u8], expect: PageKind) -> Result<Paged, FormatError> {
    if bytes.len() < MIN_PAGE_SIZE {
        return err(format!(
            "file too short for a header: {} bytes",
            bytes.len()
        ));
    }
    if read_u32(bytes, 0) != MAGIC {
        return err("bad magic");
    }
    let version = u16::from_le_bytes([bytes[4], bytes[5]]);
    if version != VERSION {
        return err(format!("unsupported version {version}"));
    }
    let hck = read_u64(bytes, HEADER_LEN - 8);
    if checksum64(&bytes[..HEADER_LEN - 8]) != hck {
        return err("header checksum mismatch");
    }
    let Some(kind) = PageKind::from_code(bytes[6]) else {
        return err(format!("unknown file kind {}", bytes[6]));
    };
    if kind != expect {
        return err(format!("expected a {expect:?} file, found {kind:?}"));
    }
    let page_size = read_u32(bytes, 8) as usize;
    if !(MIN_PAGE_SIZE..=MAX_PAGE_SIZE).contains(&page_size) {
        return err(format!("implausible page size {page_size}"));
    }
    let epoch = read_u64(bytes, 12);
    let payload_len = read_u64(bytes, 20);
    if payload_len > MAX_PAYLOAD {
        return err(format!("implausible payload length {payload_len}"));
    }
    let payload_len = payload_len as usize;
    let data_per_page = page_size - 8;
    let pages = payload_len.div_ceil(data_per_page);
    let want = (1 + pages) * page_size;
    if bytes.len() < want {
        return err(format!(
            "truncated: {} bytes on disk, {want} framed",
            bytes.len()
        ));
    }

    let mut payload = Vec::with_capacity(payload_len);
    for i in 0..pages {
        let start = (1 + i) * page_size;
        let chunk = &bytes[start..start + data_per_page];
        let stored = read_u64(bytes, start + data_per_page);
        let mut salted = Vec::with_capacity(8 + data_per_page);
        salted.extend_from_slice(&(i as u64).to_le_bytes());
        salted.extend_from_slice(chunk);
        if checksum64(&salted) != stored {
            return err(format!("page {i} checksum mismatch"));
        }
        let take = data_per_page.min(payload_len - payload.len());
        payload.extend_from_slice(&chunk[..take]);
    }
    Ok(Paged {
        kind,
        epoch,
        payload,
    })
}

// ---------------------------------------------------------------------
// Triple block payload
// ---------------------------------------------------------------------

/// A decoded triple block: the local term table and rows indexing it.
pub struct TripleBlock {
    pub terms: Vec<String>,
    pub rows: Vec<[u32; 3]>,
}

/// Serializes triples as a local term table (length-prefixed UTF-8
/// spellings) plus `[s, p, o]` index rows into it — self-contained per
/// file.
pub fn encode_triple_block(terms: &[&str], rows: &[[u32; 3]]) -> Vec<u8> {
    let mut out = Vec::new();
    out.extend_from_slice(&(terms.len() as u32).to_le_bytes());
    for t in terms {
        out.extend_from_slice(&(t.len() as u32).to_le_bytes());
        out.extend_from_slice(t.as_bytes());
    }
    out.extend_from_slice(&(rows.len() as u64).to_le_bytes());
    for row in rows {
        for id in row {
            out.extend_from_slice(&id.to_le_bytes());
        }
    }
    out
}

/// Decodes and validates a triple block: every length in bounds, every
/// spelling UTF-8, every row index inside the term table.
pub fn decode_triple_block(payload: &[u8]) -> Result<TripleBlock, FormatError> {
    let mut at = 0usize;
    let need = |at: usize, n: usize, what: &str| -> Result<(), FormatError> {
        if at + n > payload.len() {
            return err(format!("triple block truncated reading {what}"));
        }
        Ok(())
    };
    need(at, 4, "term count")?;
    let term_count = read_u32(payload, at) as usize;
    at += 4;
    if term_count > payload.len() {
        return err(format!("implausible term count {term_count}"));
    }
    let mut terms = Vec::with_capacity(term_count);
    for i in 0..term_count {
        need(at, 4, "term length")?;
        let len = read_u32(payload, at) as usize;
        at += 4;
        need(at, len, "term bytes")?;
        match std::str::from_utf8(&payload[at..at + len]) {
            Ok(s) => terms.push(s.to_string()),
            Err(_) => return err(format!("term {i} is not UTF-8")),
        }
        at += len;
    }
    need(at, 8, "row count")?;
    let row_count = read_u64(payload, at);
    at += 8;
    if row_count > (payload.len() as u64) / 12 + 1 {
        return err(format!("implausible row count {row_count}"));
    }
    let row_count = row_count as usize;
    let mut rows = Vec::with_capacity(row_count);
    for _ in 0..row_count {
        need(at, 12, "row")?;
        let row = [
            read_u32(payload, at),
            read_u32(payload, at + 4),
            read_u32(payload, at + 8),
        ];
        at += 12;
        for id in row {
            if id as usize >= term_count {
                return err(format!("row index {id} out of term table ({term_count})"));
            }
        }
        rows.push(row);
    }
    if at != payload.len() {
        return err(format!(
            "{} trailing bytes after the last row",
            payload.len() - at
        ));
    }
    Ok(TripleBlock { terms, rows })
}

// ---------------------------------------------------------------------
// Manifest payload
// ---------------------------------------------------------------------

/// The decoded manifest: the store's durable root pointer.
pub struct Manifest {
    /// Epoch covered by the checkpoint (0 with no checkpoint).
    pub epoch: u64,
    /// Checkpoint file name; `None` before the first checkpoint.
    pub checkpoint: Option<String>,
    /// [`checksum64`] of the checkpoint file's *payload*, cross-checked
    /// at recovery so the manifest and checkpoint cannot drift apart.
    pub checkpoint_sum: u64,
}

/// Encodes the manifest payload: length-prefixed checkpoint name, its
/// payload checksum, the covered epoch.
pub fn encode_manifest(m: &Manifest) -> Vec<u8> {
    let name = m.checkpoint.as_deref().unwrap_or("");
    let mut out = Vec::with_capacity(4 + name.len() + 16);
    out.extend_from_slice(&(name.len() as u32).to_le_bytes());
    out.extend_from_slice(name.as_bytes());
    out.extend_from_slice(&m.checkpoint_sum.to_le_bytes());
    out.extend_from_slice(&m.epoch.to_le_bytes());
    out
}

pub fn decode_manifest(payload: &[u8]) -> Result<Manifest, FormatError> {
    if payload.len() < 4 {
        return err("manifest payload shorter than its name prefix");
    }
    let name_len = read_u32(payload, 0) as usize;
    if payload.len() != 4 + name_len + 16 {
        return err(format!(
            "manifest payload is {} bytes, framed for {}",
            payload.len(),
            4 + name_len + 16
        ));
    }
    let name = match std::str::from_utf8(&payload[4..4 + name_len]) {
        Ok(s) => s,
        Err(_) => return err("manifest checkpoint name is not UTF-8"),
    };
    let checkpoint_sum = read_u64(payload, 4 + name_len);
    let epoch = read_u64(payload, 4 + name_len + 8);
    Ok(Manifest {
        epoch,
        checkpoint: (!name.is_empty()).then(|| name.to_string()),
        checkpoint_sum,
    })
}

// ---------------------------------------------------------------------
// Commit-log records
// ---------------------------------------------------------------------

const REC_MAGIC: u32 = 0x5744_4C47; // "WDLG"
/// Fixed record size: magic, epoch, segment id, payload length,
/// payload checksum, record checksum.
pub const RECORD_LEN: usize = 4 + 8 + 4 + 8 + 8 + 8;

/// One commit-log record: epoch `epoch` lives in segment `seg_id`,
/// whose payload must be `payload_len` bytes hashing to `payload_sum`.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct LogRecord {
    pub epoch: u64,
    pub seg_id: u32,
    pub payload_len: u64,
    pub payload_sum: u64,
}

pub fn encode_record(rec: &LogRecord) -> [u8; RECORD_LEN] {
    let mut out = [0u8; RECORD_LEN];
    out[0..4].copy_from_slice(&REC_MAGIC.to_le_bytes());
    out[4..12].copy_from_slice(&rec.epoch.to_le_bytes());
    out[12..16].copy_from_slice(&rec.seg_id.to_le_bytes());
    out[16..24].copy_from_slice(&rec.payload_len.to_le_bytes());
    out[24..32].copy_from_slice(&rec.payload_sum.to_le_bytes());
    let sum = checksum64(&out[..RECORD_LEN - 8]);
    out[RECORD_LEN - 8..].copy_from_slice(&sum.to_le_bytes());
    out
}

/// Parses the commit log, stopping at the first record that fails its
/// magic or checksum. Returns the valid records and the byte length of
/// the valid prefix — everything past it is a torn tail to truncate.
pub fn parse_log(bytes: &[u8]) -> (Vec<LogRecord>, u64) {
    let mut records = Vec::new();
    let mut at = 0usize;
    while at + RECORD_LEN <= bytes.len() {
        let rec = &bytes[at..at + RECORD_LEN];
        if read_u32(rec, 0) != REC_MAGIC
            || checksum64(&rec[..RECORD_LEN - 8]) != read_u64(rec, RECORD_LEN - 8)
        {
            break;
        }
        records.push(LogRecord {
            epoch: read_u64(rec, 4),
            seg_id: read_u32(rec, 12),
            payload_len: read_u64(rec, 16),
            payload_sum: read_u64(rec, 24),
        });
        at += RECORD_LEN;
    }
    (records, at as u64)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn checksum_differs_on_single_bit_flips() {
        let base = b"the quick brown fox jumps over the lazy dog".to_vec();
        let sum = checksum64(&base);
        for byte in 0..base.len() {
            for bit in 0..8 {
                let mut flipped = base.clone();
                flipped[byte] ^= 1 << bit;
                assert_ne!(checksum64(&flipped), sum, "byte {byte} bit {bit}");
            }
        }
        assert_ne!(checksum64(b""), checksum64(&[0]));
    }

    #[test]
    fn paged_roundtrip_across_sizes_and_kinds() {
        for size in [MIN_PAGE_SIZE, 128, DEFAULT_PAGE_SIZE] {
            for len in [0usize, 1, 55, 56, 57, 500, 5000] {
                let payload: Vec<u8> = (0..len).map(|i| (i * 7 % 251) as u8).collect();
                let framed = encode_paged(PageKind::Segment, 42, &payload, size);
                assert_eq!(framed.len() % size, 0);
                let back = decode_paged(&framed, PageKind::Segment).expect("roundtrip");
                assert_eq!(back.payload, payload, "size {size} len {len}");
                assert_eq!(back.epoch, 42);
            }
        }
    }

    #[test]
    fn paged_decode_rejects_every_corruption() {
        let payload: Vec<u8> = (0..300).map(|i| (i % 256) as u8).collect();
        let framed = encode_paged(PageKind::Checkpoint, 7, &payload, MIN_PAGE_SIZE);
        // Truncation at any page boundary or mid-page fails.
        for cut in [framed.len() - 1, framed.len() - MIN_PAGE_SIZE, 10] {
            assert!(decode_paged(&framed[..cut], PageKind::Checkpoint).is_err());
        }
        // A flipped bit anywhere fails (header, page data or page sum).
        for at in [0, 5, 20, MIN_PAGE_SIZE + 3, framed.len() - 2] {
            let mut bad = framed.clone();
            bad[at] ^= 0x10;
            assert!(
                decode_paged(&bad, PageKind::Checkpoint).is_err(),
                "flip at {at} undetected"
            );
        }
        // Swapping two data pages fails despite both having valid sums.
        let mut swapped = framed.clone();
        let (a, b) = (MIN_PAGE_SIZE, 2 * MIN_PAGE_SIZE);
        let first: Vec<u8> = swapped[a..a + MIN_PAGE_SIZE].to_vec();
        let second: Vec<u8> = swapped[b..b + MIN_PAGE_SIZE].to_vec();
        swapped[a..a + MIN_PAGE_SIZE].copy_from_slice(&second);
        swapped[b..b + MIN_PAGE_SIZE].copy_from_slice(&first);
        assert!(decode_paged(&swapped, PageKind::Checkpoint).is_err());
        // Wrong kind tag is refused even when the file is intact.
        assert!(decode_paged(&framed, PageKind::Segment).is_err());
    }

    #[test]
    fn triple_block_roundtrip_and_validation() {
        let terms = ["alice", "knows", "bob", ""];
        let rows = [[0, 1, 2], [2, 1, 0], [3, 3, 3]];
        let payload = encode_triple_block(&terms, &rows);
        let block = decode_triple_block(&payload).expect("roundtrip");
        assert_eq!(block.terms, terms);
        assert_eq!(block.rows, rows);

        // An out-of-table row index is refused.
        let bad = encode_triple_block(&terms, &[[0, 1, 4]]);
        assert!(decode_triple_block(&bad).is_err());
        // Truncations at every prefix are refused, never panic.
        for cut in 0..payload.len() {
            assert!(decode_triple_block(&payload[..cut]).is_err(), "cut {cut}");
        }
    }

    #[test]
    fn manifest_roundtrip_with_and_without_checkpoint() {
        for checkpoint in [None, Some("base-3".to_string())] {
            let m = Manifest {
                epoch: 9,
                checkpoint: checkpoint.clone(),
                checkpoint_sum: 0xDEAD_BEEF,
            };
            let back = decode_manifest(&encode_manifest(&m)).expect("roundtrip");
            assert_eq!(back.epoch, 9);
            assert_eq!(back.checkpoint, checkpoint);
            assert_eq!(back.checkpoint_sum, 0xDEAD_BEEF);
        }
        assert!(decode_manifest(&[1, 2]).is_err());
    }

    #[test]
    fn log_parse_stops_at_torn_tail() {
        let recs = [
            LogRecord {
                epoch: 1,
                seg_id: 0,
                payload_len: 10,
                payload_sum: 111,
            },
            LogRecord {
                epoch: 2,
                seg_id: 1,
                payload_len: 20,
                payload_sum: 222,
            },
        ];
        let mut bytes = Vec::new();
        for r in &recs {
            bytes.extend_from_slice(&encode_record(r));
        }
        let full = bytes.clone();
        let (parsed, len) = parse_log(&full);
        assert_eq!(parsed, recs);
        assert_eq!(len as usize, full.len());

        // A half-written third record parses as exactly the first two.
        bytes.extend_from_slice(&encode_record(&recs[0])[..RECORD_LEN / 2]);
        let (parsed, len) = parse_log(&bytes);
        assert_eq!(parsed, recs);
        assert_eq!(len as usize, full.len());

        // A corrupt *first* record hides everything after it.
        let mut bad = full.clone();
        bad[6] ^= 1;
        let (parsed, len) = parse_log(&bad);
        assert!(parsed.is_empty());
        assert_eq!(len, 0);
    }
}
