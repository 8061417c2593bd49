//! Project-invariant static analysis and deterministic-schedule race
//! detection for the wdsparql workspace.
//!
//! Three passes, one crate:
//!
//! * [`lints`] — a token-level walker (hand-rolled lexer in [`lex`], no
//!   rustc plumbing) enforcing the store's invariants: snapshot
//!   discipline, justified relaxed orderings, `#[must_use]` on pin-like
//!   types, a service-layer panic ban, budget checkpoints in streaming
//!   loops and sync-before-publish in persistence code. Run it via
//!   `cargo run -p wdsparql-analyzer -- --check`.
//! * [`sched`] — loom/shuttle-style cooperative scheduling shims
//!   (`Mutex`, `RwLock`, `AtomicU64`, `thread`) plus a DFS explorer
//!   with bounded preemptions, used by the model tests under `tests/`
//!   to exhaustively check the store's snapshot, scatter and write-path
//!   protocols.
//! * [`fsim`] — a simulated storage layer whose every op is a crash
//!   point (torn/reordered pages for unsynced data, ordered namespace
//!   journal), an exhaustive crash-image explorer, and the executable
//!   commit-protocol specification ([`fsim::proto`]) the durable store
//!   implements. Storage ops double as [`sched`] yield points,
//!   so concurrent writers × crash points explore together.
//!
//! The passes are complementary: the lints stop new code from
//! *writing* the bug classes we have already fixed, and the two
//! explorers prove the protocol fixes themselves hold under every
//! interleaving and crash point within the bound.

#![forbid(unsafe_code)]

pub mod fsim;
pub mod lex;
pub mod lints;
pub mod sched;
