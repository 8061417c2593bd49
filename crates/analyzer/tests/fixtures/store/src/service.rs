//! Seeded violation fixture for the analyzer's integration tests.
//!
//! Never compiled — it lives under `tests/fixtures/`, outside every
//! cargo target, and exists only to be scanned by `wdsparql-analyzer`.
//! Each violation marker names a lint that must flag its line;
//! everything else must stay silent (hatched, in tests, or simply
//! conforming), so the integration test can assert exact findings.

use std::sync::atomic::{AtomicU64, Ordering};

pub struct Inner {
    epoch: u64,
}

/// VIOLATION(must-use-snapshot): snapshot type with no `#[must_use]`.
pub struct FixtureSnapshot {
    epoch: u64,
}

#[must_use = "conforming counterpart"]
pub struct FixtureGuard {
    epoch: u64,
}

// analyzer-allow: must-use-snapshot fixture demonstrating the hatch
pub struct HatchedPlannedQuery {
    plan: Vec<usize>,
}

pub struct Service {
    inner: RwLock<Inner>,
    stats: AtomicU64,
    generation: u64,
}

impl Service {
    pub fn hot_path(&self, x: Option<u64>) -> u64 {
        x.unwrap() // VIOLATION(no-unwrap-in-service)
    }

    pub fn hatched_path(&self, x: Option<u64>) -> u64 {
        // analyzer-allow: no-unwrap-in-service callers verified is_some
        x.unwrap()
    }

    pub fn counter(&self) -> u64 {
        self.stats.load(Ordering::Relaxed) // VIOLATION(relaxed-ok-comment)
    }

    pub fn justified_counter(&self) -> u64 {
        // relaxed-ok: reporting-only counter
        self.stats.load(Ordering::Relaxed)
    }

    pub fn plan_then_execute(&self) -> u64 {
        let plan = self.read_snapshot();
        let exec = self.read_snapshot(); // VIOLATION(one-snapshot-per-path)
        plan + exec
    }

    pub fn pinned_query(&self) -> u64 {
        let snap = self.read_snapshot();
        snap + snap
    }

    /// The unwrap this hatch once excused became `unwrap_or`; the
    /// silencer left behind must be flagged as stale.
    pub fn generation_or(&self, g: Option<u64>) -> u64 {
        // analyzer-allow: no-unwrap-in-service VIOLATION(unused-hatch)
        g.unwrap_or(self.generation)
    }

    fn read_snapshot(&self) -> u64 {
        self.inner.read().epoch
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    /// Test code is out of every lint's scope: none of these may be
    /// reported even though each would violate outside `#[cfg(test)]`.
    #[test]
    fn unwraps_and_orderings_are_fine_here(s: &Service) {
        let _ = Some(1u64).unwrap();
        let _ = s.stats.load(Ordering::Relaxed);
        let a = s.read_snapshot();
        let b = s.read_snapshot();
        assert_eq!(a, b);
    }
}
