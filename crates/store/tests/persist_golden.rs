//! The disk format, pinned by bytes rather than by a round trip.
//!
//! Every other durability test writes and reads with the same build, so
//! none of them would notice if `persist::batch_image` numbered a
//! block's terms differently or sorted its rows another way: the store
//! would still reopen its own files. `fixtures/golden-v1/` is a store
//! directory written by the build at commit `6a395ff` (the last one with
//! the string-keyed image builder) from the 40 triples of [`batch`]:
//! two `try_bulk_load`s of 20, then `checkpoint`. It holds one file of
//! every kind — `manifest`, `base-00000000`, `seg-00000000`,
//! `seg-00000001`, `commit.log` — which is the directory as a crash
//! leaves it between the checkpoint's manifest publish and its clean-up
//! (the segments and the log were copied aside before `checkpoint` swept
//! them and copied back afterwards: the same bytes).
//!
//! `fixtures/golden-v2/` is the same directory after the one deliberate
//! change since: a checkpoint numbers its terms by spelling, not in the
//! order the store first met them, so its `base-00000000` (and the
//! `manifest` holding that file's checksum) changed, while the segments
//! and the log are v1's bytes.
//!
//! This build must read both directories, and must write v2 again byte
//! for byte. A deliberate format change adds a `golden-v3` beside them
//! and keeps reading the older ones.

use std::path::{Path, PathBuf};
use wdsparql_rdf::{tp, var, Iri, Triple};
use wdsparql_store::TripleStore;

const FILES: [&str; 5] = [
    "manifest",
    "base-00000000",
    "seg-00000000",
    "seg-00000001",
    "commit.log",
];

/// Batch `k` (0 or 1) of the fixed input: 40 distinct triples over 7
/// subjects, 3 predicates and 11 objects, so every term repeats, with
/// non-ASCII spellings in each position.
fn batch(k: usize) -> Vec<Triple> {
    let preds = ["http://example.org/p", "liegt-in-städte", "関連"];
    (k * 20..(k + 1) * 20)
        .map(|n| {
            Triple::from_strs(
                &format!("http://example.org/node/{}", n % 7),
                preds[n % 3],
                &format!("日本/Ünïcode {}", n % 11),
            )
        })
        .collect()
}

fn golden(version: &str) -> PathBuf {
    Path::new(env!("CARGO_MANIFEST_DIR")).join(format!("tests/fixtures/golden-{version}"))
}

fn scratch(tag: &str) -> PathBuf {
    let dir = std::env::temp_dir().join(format!("wdsparql-golden-{tag}-{}", std::process::id()));
    let _ = std::fs::remove_dir_all(&dir);
    std::fs::create_dir_all(&dir).expect("create scratch directory");
    dir
}

fn read(dir: &Path, name: &str) -> Vec<u8> {
    std::fs::read(dir.join(name)).unwrap_or_else(|e| panic!("{name}: {e}"))
}

#[test]
fn the_golden_store_opens_and_answers() {
    for version in ["v1", "v2"] {
        opens_and_answers(version);
    }
}

fn opens_and_answers(version: &str) {
    // Recovery sweeps the checkpointed segments: open a copy.
    let dir = scratch(&format!("open-{version}"));
    for name in FILES {
        std::fs::write(dir.join(name), read(&golden(version), name)).expect("copy fixture");
    }
    let store = TripleStore::open(&dir).expect("the golden store opens");
    assert_eq!(store.len(), 40);
    assert_eq!(store.epoch(), 2);
    let snapshot = store.read_snapshot();
    for t in batch(0).iter().chain(&batch(1)) {
        assert!(snapshot.graph().contains(t), "{t} is missing");
    }
    // n ≡ 3 (mod 7) and n ≡ 2 (mod 3) below 40: n = 17 and n = 38.
    let mut objects: Vec<String> = store
        .query(&[tp(
            Iri::new("http://example.org/node/3"),
            Iri::new("関連"),
            var("o"),
        )])
        .iter()
        .map(|mu| mu.to_string())
        .collect();
    objects.sort();
    assert_eq!(objects, ["{?o → 日本/Ünïcode 5}", "{?o → 日本/Ünïcode 6}"]);
    assert!(
        !dir.join("seg-00000000").exists() && !dir.join("seg-00000001").exists(),
        "recovery sweeps segments the checkpoint already covers"
    );
    drop(store);
    let _ = std::fs::remove_dir_all(&dir);
}

#[test]
fn this_build_writes_the_golden_bytes() {
    // Block ids follow the order of the batch, not of the process-wide
    // interner: meeting the names backwards first must change nothing.
    for n in (0..11).rev() {
        Iri::new(&format!("日本/Ünïcode {n}"));
    }
    let dir = scratch("write");
    let store = TripleStore::new();
    store.persist_to(&dir).expect("fresh durable store");
    assert_eq!(store.try_bulk_load(batch(0)).expect("durable load"), 20);
    assert_eq!(store.try_bulk_load(batch(1)).expect("durable load"), 20);
    // The checkpoint sweeps these three; compare them first. Commits
    // have not changed since v1.
    for name in ["seg-00000000", "seg-00000001", "commit.log"] {
        assert!(
            read(&dir, name) == read(&golden("v1"), name),
            "{name} differs"
        );
    }
    assert!(matches!(store.checkpoint(), Ok(true)));
    for name in ["base-00000000", "manifest"] {
        assert!(
            read(&dir, name) == read(&golden("v2"), name),
            "{name} differs"
        );
    }
    drop(store);
    let _ = std::fs::remove_dir_all(&dir);
}

/// A checkpoint is a function of the triple set (and its epoch) alone.
/// The same 90 triples go into two durable stores in ten batches each,
/// so both checkpoint epoch 10 — one in order, nine triples a batch; the
/// other backwards, split unevenly and loaded last batch first — with
/// the objects' names interned backwards before either load, so neither
/// load meets the names in interner order. Both checkpoints must be the
/// same bytes.
#[test]
fn checkpoints_depend_only_on_the_triple_set() {
    let name = |kind: &str, n: usize| format!("checkpoint-order/{kind}{n}");
    for n in (0..13).rev() {
        Iri::new(&name("o", n));
    }
    let triples: Vec<Triple> = (0..90)
        .map(|n| Triple::from_strs(&name("s", n % 11), &name("p", n % 4), &name("o", n % 13)))
        .collect();
    let checkpoint = |tag: &str, batches: Vec<Vec<Triple>>| -> Vec<u8> {
        let dir = scratch(tag);
        let store = TripleStore::new();
        store.persist_to(&dir).expect("fresh durable store");
        for batch in batches {
            store.try_bulk_load(batch).expect("durable load");
        }
        assert_eq!(store.len(), 90);
        assert!(matches!(store.checkpoint(), Ok(true)));
        let mut bases: Vec<String> = std::fs::read_dir(&dir)
            .expect("list the store directory")
            .map(|e| {
                e.expect("directory entry")
                    .file_name()
                    .into_string()
                    .expect("UTF-8 name")
            })
            .filter(|name| name.starts_with("base-"))
            .collect();
        assert_eq!(
            bases.len(),
            1,
            "the checkpoint sweeps older bases: {bases:?}"
        );
        let bytes = read(&dir, &bases.pop().expect("one base"));
        drop(store);
        let _ = std::fs::remove_dir_all(&dir);
        bytes
    };
    let forward = checkpoint(
        "forward",
        triples.chunks(9).map(<[Triple]>::to_vec).collect(),
    );
    let mut rest: Vec<Triple> = triples.iter().rev().copied().collect();
    let mut batches: Vec<Vec<Triple>> = [5, 14, 3, 12, 9, 8, 11, 6, 13]
        .map(|n| rest.drain(..n).collect())
        .into();
    batches.push(rest);
    batches.reverse();
    let backward = checkpoint("backward", batches);
    assert!(forward == backward, "the checkpoints differ");
}
