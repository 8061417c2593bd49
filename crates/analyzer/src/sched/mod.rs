//! Deterministic-schedule exploration for store concurrency protocols.
//!
//! Loom/shuttle-style model checking, vendored-stand-in style: model
//! code uses the [`shim`] primitives (`Mutex`, `RwLock`, `AtomicU64`,
//! `spawn`/`join`) instead of the real ones. Each primitive
//! op is a *yield point* where a cooperative scheduler decides which
//! model thread runs next; [`Explorer::check`] re-runs the model under
//! every schedule reachable within a preemption bound, depth-first,
//! replaying decision prefixes to enumerate alternatives.
//!
//! Model threads are real OS threads serialized by a mutex+condvar
//! controller, so the model code is ordinary Rust — no generators, no
//! unsafe. Code between two yield points executes atomically from the
//! model's point of view; since every cross-thread observation in the
//! shims is itself a yield point, this coarsening loses no
//! distinguishable interleavings.
//!
//! A panic in any model thread (an `assert!` firing) is a violation:
//! the explorer aborts the run, unwinds the other threads with a
//! sentinel panic, and reports the failing schedule as a trace of
//! thread ids. Deadlock (every live thread blocked) and runaway op
//! budgets are violations too.

pub mod shim;

pub use shim::{spawn, AtomicU64, JoinHandle, Mutex, Ordering, RwLock};

use std::any::Any;
use std::fmt;
use std::panic::{self, AssertUnwindSafe};
use std::sync::atomic::{AtomicU64 as StdAtomicU64, Ordering as StdOrdering};
use std::sync::{Arc, Condvar, Mutex as StdMutex, MutexGuard as StdMutexGuard, Once};
use std::thread;

/// Sentinel panic payload used to unwind parked model threads when a
/// run aborts. Never reported as a failure itself.
pub(crate) struct AbortRun;

/// A schedule under which the model failed.
#[derive(Clone, Debug)]
pub struct Violation {
    /// The panic/deadlock message from the failing run.
    pub message: String,
    /// Thread id chosen at each scheduling decision of the failing run.
    pub trace: Vec<usize>,
    /// 1-based index of the failing schedule in exploration order.
    pub schedule: usize,
}

impl fmt::Display for Violation {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(
            f,
            "violation on schedule #{}: {} (thread trace {:?})",
            self.schedule, self.message, self.trace
        )
    }
}

/// Summary of a completed exploration with no violation.
#[derive(Clone, Copy, Debug)]
pub struct Report {
    /// Number of distinct schedules executed.
    pub schedules: usize,
    /// True when the whole bounded schedule space was covered; false
    /// when the run stopped at `max_schedules`.
    pub exhausted: bool,
}

/// Bounded-DFS schedule explorer.
pub struct Explorer {
    /// Max voluntary context switches away from a runnable thread per
    /// schedule. Switches off a blocked/finished thread are free.
    pub preemption_bound: usize,
    /// Safety valve on the number of schedules.
    pub max_schedules: usize,
    /// Safety valve on yield points per schedule (livelock guard).
    pub max_ops: usize,
}

impl Explorer {
    pub fn new(preemption_bound: usize) -> Explorer {
        Explorer {
            preemption_bound,
            max_schedules: 100_000,
            max_ops: 10_000,
        }
    }

    /// Runs `model` under every schedule within the bound (depth-first
    /// over scheduling decisions), until a violation, exhaustion, or
    /// the schedule cap.
    pub fn check<F>(&self, model: F) -> Result<Report, Violation>
    where
        F: Fn() + Send + Sync + 'static,
    {
        install_quiet_hook();
        let model: Arc<dyn Fn() + Send + Sync> = Arc::new(model);
        let mut replay: Vec<usize> = Vec::new();
        let mut schedules = 0usize;
        loop {
            let outcome = self.run_one(Arc::clone(&model), &replay);
            schedules += 1;
            if let Some(message) = outcome.failure {
                return Err(Violation {
                    message,
                    trace: outcome.trace,
                    schedule: schedules,
                });
            }
            if schedules >= self.max_schedules {
                return Ok(Report {
                    schedules,
                    exhausted: false,
                });
            }
            // Backtrack: deepest decision with an untried alternative.
            let mut prefix: Vec<(usize, usize)> = outcome
                .decisions
                .iter()
                .map(|d| (d.chosen, d.alternatives.len()))
                .collect();
            let mut advanced = false;
            while let Some((chosen, n)) = prefix.pop() {
                if chosen + 1 < n {
                    prefix.push((chosen + 1, n));
                    advanced = true;
                    break;
                }
            }
            if !advanced {
                return Ok(Report {
                    schedules,
                    exhausted: true,
                });
            }
            replay = prefix.iter().map(|&(c, _)| c).collect();
        }
    }

    fn run_one(&self, model: Arc<dyn Fn() + Send + Sync>, replay: &[usize]) -> Outcome {
        let ctrl = Arc::new(Controller::new(
            self.preemption_bound,
            self.max_ops,
            replay.to_vec(),
        ));
        let (root, _exit) = ctrl.register_thread();
        debug_assert_eq!(root, 0);
        let c2 = Arc::clone(&ctrl);
        let os = thread::Builder::new()
            .name("sched-model-0".to_string())
            .spawn(move || {
                shim::set_ctx(&c2, 0);
                if c2.wait_until_scheduled(0) {
                    let out = panic::catch_unwind(AssertUnwindSafe(|| model()));
                    c2.thread_done(0, out.err());
                } else {
                    c2.thread_done(0, None);
                }
            })
            .expect("failed to spawn model root thread");
        ctrl.push_handle(os);
        ctrl.wait_all_finished();
        loop {
            let next = ctrl.handles.lock_clean().pop();
            match next {
                Some(h) => {
                    let _ = h.join();
                }
                None => break,
            }
        }
        ctrl.take_outcome()
    }
}

struct Outcome {
    decisions: Vec<Decision>,
    trace: Vec<usize>,
    failure: Option<String>,
}

#[derive(Clone, Copy, PartialEq, Eq, Debug)]
enum Status {
    Runnable,
    /// Waiting for the given resource id to be released/published.
    Blocked(u64),
    Finished,
}

struct Decision {
    alternatives: Vec<usize>,
    chosen: usize,
}

struct RunState {
    threads: Vec<Status>,
    exit_ids: Vec<u64>,
    current: usize,
    replay: Vec<usize>,
    decisions: Vec<Decision>,
    trace: Vec<usize>,
    preemptions: usize,
    ops: usize,
    failure: Option<String>,
    abort: bool,
}

/// Serializes the model threads and records/replays scheduling
/// decisions for one run.
pub(crate) struct Controller {
    state: StdMutex<RunState>,
    cv: Condvar,
    preemption_bound: usize,
    max_ops: usize,
    next_id: StdAtomicU64,
    handles: StdMutex<Vec<thread::JoinHandle<()>>>,
}

/// Poison-tolerant locking: model threads unwind on purpose (violation
/// teardown), and the state must stay readable through that.
pub(crate) trait LockClean<T> {
    fn lock_clean(&self) -> StdMutexGuard<'_, T>;
}

impl<T> LockClean<T> for StdMutex<T> {
    fn lock_clean(&self) -> StdMutexGuard<'_, T> {
        self.lock().unwrap_or_else(|e| e.into_inner())
    }
}

impl Controller {
    fn new(preemption_bound: usize, max_ops: usize, replay: Vec<usize>) -> Controller {
        Controller {
            state: StdMutex::new(RunState {
                threads: Vec::new(),
                exit_ids: Vec::new(),
                current: 0,
                replay,
                decisions: Vec::new(),
                trace: Vec::new(),
                preemptions: 0,
                ops: 0,
                failure: None,
                abort: false,
            }),
            cv: Condvar::new(),
            preemption_bound,
            max_ops,
            next_id: StdAtomicU64::new(0),
            handles: StdMutex::new(Vec::new()),
        }
    }

    pub(crate) fn fresh_id(&self) -> u64 {
        self.next_id.fetch_add(1, StdOrdering::SeqCst)
    }

    pub(crate) fn register_thread(&self) -> (usize, u64) {
        let exit = self.fresh_id();
        let mut st = self.state.lock_clean();
        let tid = st.threads.len();
        st.threads.push(Status::Runnable);
        st.exit_ids.push(exit);
        (tid, exit)
    }

    pub(crate) fn push_handle(&self, h: thread::JoinHandle<()>) {
        self.handles.lock_clean().push(h);
    }

    /// A scheduling decision point: the calling (current) thread offers
    /// to hand off, then waits until it is scheduled again.
    pub(crate) fn yield_point(&self, tid: usize) {
        let mut st = self.state.lock_clean();
        self.charge_op(&mut st);
        self.schedule(&mut st);
        self.wait_my_turn(st, tid);
    }

    /// Marks the calling thread blocked on `resource` and hands off.
    /// Returns when some release makes it runnable *and* the scheduler
    /// picks it.
    pub(crate) fn block_on(&self, tid: usize, resource: u64) {
        let mut st = self.state.lock_clean();
        self.charge_op(&mut st);
        st.threads[tid] = Status::Blocked(resource);
        self.schedule(&mut st);
        self.wait_my_turn(st, tid);
    }

    /// Flips every thread blocked on `resource` back to runnable. They
    /// still wait for the scheduler to pick them.
    pub(crate) fn unblock(&self, resource: u64) {
        let mut st = self.state.lock_clean();
        for s in st.threads.iter_mut() {
            if *s == Status::Blocked(resource) {
                *s = Status::Runnable;
            }
        }
    }

    pub(crate) fn is_finished(&self, tid: usize) -> bool {
        self.state.lock_clean().threads[tid] == Status::Finished
    }

    pub(crate) fn check_abort(&self) {
        if self.state.lock_clean().abort {
            panic::panic_any(AbortRun);
        }
    }

    /// First wait of a freshly spawned thread. False means the run
    /// aborted before the thread was ever scheduled (skip the body).
    pub(crate) fn wait_until_scheduled(&self, tid: usize) -> bool {
        let mut st = self.state.lock_clean();
        while !st.abort && st.current != tid {
            st = self.cv.wait(st).unwrap_or_else(|e| e.into_inner());
        }
        !st.abort
    }

    /// Terminal protocol for a model thread: record any panic as a
    /// violation (except the abort sentinel), wake joiners, hand off.
    pub(crate) fn thread_done(&self, tid: usize, payload: Option<Box<dyn Any + Send>>) {
        let mut st = self.state.lock_clean();
        if let Some(p) = payload {
            if !p.is::<AbortRun>() {
                let msg = panic_message(&p);
                self.fail(&mut st, format!("model thread {tid} panicked: {msg}"));
            }
        }
        st.threads[tid] = Status::Finished;
        let exit = st.exit_ids[tid];
        for s in st.threads.iter_mut() {
            if *s == Status::Blocked(exit) {
                *s = Status::Runnable;
            }
        }
        if !st.abort && st.threads.iter().any(|s| *s != Status::Finished) {
            self.schedule(&mut st);
        }
        self.cv.notify_all();
    }

    fn wait_all_finished(&self) {
        let mut st = self.state.lock_clean();
        while !st.threads.iter().all(|s| *s == Status::Finished) {
            st = self.cv.wait(st).unwrap_or_else(|e| e.into_inner());
        }
    }

    fn take_outcome(&self) -> Outcome {
        let mut st = self.state.lock_clean();
        Outcome {
            decisions: std::mem::take(&mut st.decisions),
            trace: std::mem::take(&mut st.trace),
            failure: st.failure.take(),
        }
    }

    fn charge_op(&self, st: &mut RunState) {
        if st.abort {
            panic::panic_any(AbortRun);
        }
        st.ops += 1;
        if st.ops > self.max_ops {
            self.fail(
                st,
                format!(
                    "operation budget exceeded ({} yields): runaway or livelocked model",
                    self.max_ops
                ),
            );
            panic::panic_any(AbortRun);
        }
    }

    /// Picks the next thread to run. Replays the prescribed decision
    /// while the replay prefix lasts, otherwise defaults to index 0 —
    /// which keeps the current thread running when it can (so the
    /// default path costs zero preemptions, and every index > 0 while
    /// the current thread is runnable is a preemption).
    fn schedule(&self, st: &mut RunState) {
        if st.abort {
            return;
        }
        let cur = st.current;
        let cur_runnable = st.threads.get(cur) == Some(&Status::Runnable);
        let mut alts = Vec::new();
        if cur_runnable {
            alts.push(cur);
        }
        if !(cur_runnable && st.preemptions >= self.preemption_bound) {
            for t in 0..st.threads.len() {
                if t != cur && st.threads[t] == Status::Runnable {
                    alts.push(t);
                }
            }
        }
        if alts.is_empty() {
            if st.threads.iter().any(|s| matches!(s, Status::Blocked(_))) {
                let blocked: Vec<usize> = st
                    .threads
                    .iter()
                    .enumerate()
                    .filter(|(_, s)| matches!(s, Status::Blocked(_)))
                    .map(|(t, _)| t)
                    .collect();
                self.fail(
                    st,
                    format!("deadlock: every live thread is blocked (threads {blocked:?})"),
                );
            }
            self.cv.notify_all();
            return;
        }
        let idx = st.decisions.len();
        let chosen = st.replay.get(idx).copied().unwrap_or(0).min(alts.len() - 1);
        let next = alts[chosen];
        st.decisions.push(Decision {
            alternatives: alts,
            chosen,
        });
        st.trace.push(next);
        if cur_runnable && next != cur {
            st.preemptions += 1;
        }
        st.current = next;
        self.cv.notify_all();
    }

    fn wait_my_turn(&self, mut st: StdMutexGuard<'_, RunState>, tid: usize) {
        while !st.abort && st.current != tid {
            st = self.cv.wait(st).unwrap_or_else(|e| e.into_inner());
        }
        if st.abort {
            drop(st);
            panic::panic_any(AbortRun);
        }
    }

    fn fail(&self, st: &mut RunState, message: String) {
        if st.failure.is_none() {
            st.failure = Some(message);
        }
        st.abort = true;
        self.cv.notify_all();
    }
}

fn panic_message(p: &Box<dyn Any + Send>) -> String {
    if let Some(s) = p.downcast_ref::<&str>() {
        (*s).to_string()
    } else if let Some(s) = p.downcast_ref::<String>() {
        s.clone()
    } else {
        "<non-string panic payload>".to_string()
    }
}

/// Model threads panic on purpose (that is how violations surface);
/// silence the default hook's backtrace spew for them, once, globally.
/// Keyed on the thread name so unrelated test threads keep the default.
fn install_quiet_hook() {
    static QUIET: Once = Once::new();
    QUIET.call_once(|| {
        let prev = panic::take_hook();
        panic::set_hook(Box::new(move |info| {
            let quiet = thread::current()
                .name()
                .is_some_and(|n| n.starts_with("sched-model"));
            if !quiet {
                prev(info);
            }
        }));
    });
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn split_load_store_loses_updates() {
        let found = Explorer::new(2).check(|| {
            let c = Arc::new(AtomicU64::new(0));
            let hs: Vec<JoinHandle<()>> = (0..2)
                .map(|_| {
                    let c = Arc::clone(&c);
                    spawn(move || {
                        let v = c.load(Ordering::SeqCst);
                        c.store(v + 1, Ordering::SeqCst);
                    })
                })
                .collect();
            for h in hs {
                h.join();
            }
            assert_eq!(c.load(Ordering::SeqCst), 2, "lost update");
        });
        let v = found.expect_err("the read-modify-write race must be found");
        assert!(v.message.contains("lost update"), "{v}");
    }

    #[test]
    fn fetch_add_is_clean_and_exhausts() {
        let report = Explorer::new(2)
            .check(|| {
                let c = Arc::new(AtomicU64::new(0));
                let hs: Vec<JoinHandle<()>> = (0..2)
                    .map(|_| {
                        let c = Arc::clone(&c);
                        spawn(move || {
                            c.fetch_add(1, Ordering::SeqCst);
                        })
                    })
                    .collect();
                for h in hs {
                    h.join();
                }
                assert_eq!(c.load(Ordering::SeqCst), 2);
            })
            .expect("atomic increment has no violation");
        assert!(report.exhausted, "bounded space should exhaust: {report:?}");
        assert!(report.schedules > 1, "more than one interleaving explored");
    }

    #[test]
    fn abba_deadlock_detected() {
        let found = Explorer::new(2).check(|| {
            let a = Arc::new(Mutex::new(0u32));
            let b = Arc::new(Mutex::new(0u32));
            let (a2, b2) = (Arc::clone(&a), Arc::clone(&b));
            let h = spawn(move || {
                let _ga = a2.lock();
                let _gb = b2.lock();
            });
            {
                let _gb = b.lock();
                let _ga = a.lock();
            }
            h.join();
        });
        let v = found.expect_err("ABBA ordering must deadlock under some schedule");
        assert!(v.message.contains("deadlock"), "{v}");
    }

    #[test]
    fn rwlock_allows_concurrent_readers() {
        let report = Explorer::new(2)
            .check(|| {
                let l = Arc::new(RwLock::new(7u64));
                let l2 = Arc::clone(&l);
                let h = spawn(move || *l2.read());
                let mine = *l.read();
                assert_eq!(h.join(), 7);
                assert_eq!(mine, 7);
            })
            .expect("two readers never conflict");
        assert!(report.exhausted);
    }
}
