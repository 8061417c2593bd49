//! The pull-based execution substrate: [`SolutionStream`] (solutions
//! produced one pull at a time), [`QueryBudget`] (deadline +
//! cancellation + op accounting) and the typed [`ExecError`] every
//! evaluator returns instead of running to completion.
//!
//! ## Why pull
//!
//! The paper's enumeration results produce answers one at a time with
//! bounded delay; materialise-all evaluation throws that property away.
//! A `SolutionStream` restores it: `next()` does a bounded slice of
//! work (one alignment round of the leapfrog join, one bind-join probe)
//! and either yields a solution, reports exhaustion, or fails with a
//! typed budget error. `LIMIT k` is then just "stop pulling after k",
//! and a deadline is enforced at every pull *and* inside the evaluator
//! inner loops — no answer costs more than one seek/merge step past
//! the budget.
//!
//! ## Checkpoint placement rule
//!
//! Every unbounded `loop`/`while` on an evaluation hot path calls
//! [`QueryBudget::check`] once per iteration (the store's analyzer
//! enforces this as the `budget-checkpoint` lint). `check` is engineered
//! to be nearly free: cancellation is one relaxed atomic load, and the
//! clock is consulted only every `CHECK_MASK`+1 calls — except the
//! very first, so a zero deadline fails before any work happens.

use std::fmt;
use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};
use std::sync::Arc;
use std::time::{Duration, Instant};

use crate::mapping::Mapping;

/// Why an evaluation stopped before exhausting its solutions.
#[derive(Clone, Copy, Debug, PartialEq, Eq, Hash)]
pub enum ExecError {
    /// The query's deadline passed; checked at pull granularity and
    /// inside evaluator inner loops, so the overshoot is bounded by one
    /// seek/merge step.
    DeadlineExceeded,
    /// The query's [`CancelToken`] was triggered by another thread.
    Cancelled,
}

impl fmt::Display for ExecError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            ExecError::DeadlineExceeded => write!(f, "query deadline exceeded"),
            ExecError::Cancelled => write!(f, "query cancelled"),
        }
    }
}

impl std::error::Error for ExecError {}

/// A shared cancellation flag: clone it, hand one copy to the query,
/// trip the other from any thread.
#[derive(Clone, Debug, Default)]
pub struct CancelToken {
    flag: Arc<AtomicBool>,
}

impl CancelToken {
    pub fn new() -> CancelToken {
        CancelToken::default()
    }

    /// Trips the token; every stream holding it fails its next
    /// checkpoint with [`ExecError::Cancelled`].
    pub fn cancel(&self) {
        // relaxed-ok: a cancellation flag orders nothing — observers
        // only need to see the store eventually, and every checkpoint
        // re-loads it.
        self.flag.store(true, Ordering::Relaxed);
    }

    pub fn is_cancelled(&self) -> bool {
        // relaxed-ok: see `cancel` — a monotone flag with no ordering
        // obligations.
        self.flag.load(Ordering::Relaxed)
    }
}

/// Clock checks happen when `ops & CHECK_MASK == 0`: every 64th
/// checkpoint, *including the first* (op 0), so a zero deadline fails
/// before any work is done and the overshoot past a deadline is at
/// most 64 checkpoint-bounded steps.
const CHECK_MASK: u64 = 0x3F;

/// The resource envelope of one query: an optional deadline, an
/// optional cancellation token, and an op counter that amortises the
/// clock reads. Threaded by reference through every stream; `check()`
/// is the single checkpoint every evaluation loop calls.
#[derive(Debug, Default)]
pub struct QueryBudget {
    deadline: Option<Instant>,
    cancel: Option<CancelToken>,
    ops: AtomicU64,
}

impl QueryBudget {
    /// No deadline, no cancellation: `check()` never fails. The budget
    /// materialising wrappers run under.
    pub fn unlimited() -> QueryBudget {
        QueryBudget::default()
    }

    /// Fails checkpoints once `ttl` has elapsed from now.
    pub fn with_deadline(ttl: Duration) -> QueryBudget {
        QueryBudget {
            deadline: Instant::now().checked_add(ttl),
            cancel: None,
            ops: AtomicU64::new(0),
        }
    }

    /// Fails checkpoints once `token` is cancelled.
    pub fn with_cancel(token: CancelToken) -> QueryBudget {
        QueryBudget {
            deadline: None,
            cancel: Some(token),
            ops: AtomicU64::new(0),
        }
    }

    /// Builder-style cancellation token on an existing budget.
    pub fn and_cancel(mut self, token: CancelToken) -> QueryBudget {
        self.cancel = Some(token);
        self
    }

    /// Checkpoints consumed so far (monotone; one per `check` call).
    pub fn ops(&self) -> u64 {
        // relaxed-ok: a monotone statistics counter read with no
        // cross-variable ordering.
        self.ops.load(Ordering::Relaxed)
    }

    /// The checkpoint: cancellation every call, the clock every
    /// `CHECK_MASK`+1 calls (and always on the first, so a zero
    /// deadline fails before any work). Evaluation loops call this once
    /// per iteration — see the module docs for the placement rule.
    #[inline]
    pub fn check(&self) -> Result<(), ExecError> {
        if let Some(token) = &self.cancel {
            if token.is_cancelled() {
                return Err(ExecError::Cancelled);
            }
        }
        if let Some(deadline) = self.deadline {
            // relaxed-ok: a per-budget op counter; contention-free in
            // practice (one stream drives one budget) and ordering
            // nothing.
            let prev = self.ops.fetch_add(1, Ordering::Relaxed);
            if prev & CHECK_MASK == 0 && Instant::now() >= deadline {
                return Err(ExecError::DeadlineExceeded);
            }
        }
        Ok(())
    }
}

/// A pull-based stream of solution mappings: the execution surface
/// every evaluator implements. `next()` yields `Ok(Some(mu))` per
/// solution, `Ok(None)` once exhausted, or a typed [`ExecError`] when
/// the budget fails — after which the stream must not be pulled again.
pub trait SolutionStream {
    /// Pulls the next solution, doing a bounded slice of work.
    fn next(&mut self) -> Result<Option<Mapping>, ExecError>;

    /// Drains up to `limit` solutions (all of them when `None`) — the
    /// LIMIT-pushdown collector the materialising wrappers are built
    /// on. Stops pulling the instant the k-th solution arrives.
    fn collect_limit(&mut self, limit: Option<usize>) -> Result<Vec<Mapping>, ExecError> {
        let mut out = Vec::new();
        if limit == Some(0) {
            return Ok(out);
        }
        while let Some(mu) = self.next()? {
            out.push(mu);
            if limit.is_some_and(|k| out.len() >= k) {
                break;
            }
        }
        Ok(out)
    }
}

impl SolutionStream for Box<dyn SolutionStream + '_> {
    fn next(&mut self) -> Result<Option<Mapping>, ExecError> {
        self.as_mut().next()
    }

    /// Forwarded, so a boxed stream drains through its own collector (one
    /// dynamic call per collection), not through a dynamic `next` per row.
    fn collect_limit(&mut self, limit: Option<usize>) -> Result<Vec<Mapping>, ExecError> {
        self.as_mut().collect_limit(limit)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn unlimited_budget_never_fails() {
        let b = QueryBudget::unlimited();
        for _ in 0..10_000 {
            b.check().expect("unlimited budget");
        }
        assert_eq!(b.ops(), 0, "no deadline, no op accounting needed");
    }

    #[test]
    fn zero_deadline_fails_the_first_checkpoint() {
        let b = QueryBudget::with_deadline(Duration::ZERO);
        assert_eq!(b.check(), Err(ExecError::DeadlineExceeded));
    }

    #[test]
    fn generous_deadline_passes_checkpoints() {
        let b = QueryBudget::with_deadline(Duration::from_secs(3600));
        for _ in 0..1_000 {
            b.check().expect("one hour is plenty");
        }
        assert_eq!(b.ops(), 1_000);
    }

    #[test]
    fn cancellation_trips_every_holder() {
        let token = CancelToken::new();
        let b = QueryBudget::with_cancel(token.clone());
        b.check().expect("not yet cancelled");
        token.cancel();
        assert_eq!(b.check(), Err(ExecError::Cancelled));
        // Cancellation wins over a live deadline: it is checked first.
        let b2 = QueryBudget::with_deadline(Duration::from_secs(3600)).and_cancel(token);
        assert_eq!(b2.check(), Err(ExecError::Cancelled));
    }

    #[test]
    fn exec_error_displays_and_is_an_error() {
        let e: Box<dyn std::error::Error> = Box::new(ExecError::DeadlineExceeded);
        assert_eq!(e.to_string(), "query deadline exceeded");
        assert_eq!(ExecError::Cancelled.to_string(), "query cancelled");
    }
}
