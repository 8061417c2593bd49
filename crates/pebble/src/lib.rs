//! # wdsparql-pebble
//!
//! The existential k-pebble game of Kolaitis–Vardi, adapted to generalised
//! t-graphs and RDF graphs (§3 of the paper): decides the relation
//! `(S, X) →µ_k G` in polynomial time for fixed `k` (Proposition 2).
//!
//! The Duplicator wins iff there is a non-empty family `F` of partial
//! homomorphisms `f : vars(S) \ X ⇀ dom(G)` with `|dom(f)| ≤ k` that is
//! closed under restrictions and has the forth property up to `k`
//! (every `f` with `|dom(f)| < k` extends to any further variable inside
//! `F`). This is exactly the strong k-consistency test, and [`game`]
//! computes it the way constraint propagation does: it stores the
//! greatest such family on one level only — the subsets of exactly
//! `min(k, n) − 1` variables; the levels below are its restrictions and
//! the level above is tested on the fly — seeds every variable's values
//! from the index columns of the triples that mention it rather than from
//! `dom(G)`, keeps each triple's matches as sorted rows so that
//! extensions are read off by binary search instead of probed value by
//! value, and deletes by worklist until nothing changes or some subset
//! is empty. The module documentation of [`game`] has the induction that
//! makes one level enough and the argument that seeding loses nothing.

#![forbid(unsafe_code)]

pub mod game;

pub use game::{duplicator_wins, pebble_game, PebbleStats};
