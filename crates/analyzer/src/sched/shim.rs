//! Scheduler-aware stand-ins for the sync primitives the store uses:
//! `Mutex`/`RwLock` (vendored parking_lot API: no poisoning, guards
//! from `lock()`/`read()`/`write()` directly), `AtomicU64`, and
//! `spawn`/`JoinHandle`. Each visible operation calls back into the
//! run's `Controller` at a yield point, so the explorer owns every
//! interleaving decision.
//!
//! Two deliberate approximations, documented for model authors:
//!
//! * Atomic `Ordering` arguments are accepted for API compatibility
//!   but explored as `SeqCst` — the explorer enumerates thread
//!   interleavings, not memory-model reorderings. A `Relaxed` bug that
//!   is *also* an interleaving bug is found; one that needs observable
//!   reordering is not.
//! * Guard *release* is not a separate yield point; it takes effect
//!   atomically with the releasing thread's current slice. Waiters
//!   observe it at their next scheduling, which preserves all
//!   distinguishable outcomes for blocking primitives.

use super::{Controller, LockClean};
use std::cell::RefCell;
use std::ops::{Deref, DerefMut};
use std::panic::{self, AssertUnwindSafe};
use std::sync::atomic::AtomicU64 as StdAtomicU64;
use std::sync::{Arc, Mutex as StdMutex};

pub use std::sync::atomic::Ordering;

thread_local! {
    static CTX: RefCell<Option<(Arc<Controller>, usize)>> = const { RefCell::new(None) };
}

pub(crate) fn set_ctx(ctrl: &Arc<Controller>, tid: usize) {
    CTX.with(|c| *c.borrow_mut() = Some((Arc::clone(ctrl), tid)));
}

fn ctx() -> (Arc<Controller>, usize) {
    CTX.with(|c| c.borrow().clone())
        .expect("wdsparql_analyzer::sched primitives only work inside Explorer::check")
}

fn try_ctx() -> Option<(Arc<Controller>, usize)> {
    CTX.with(|c| c.borrow().clone())
}

/// Explicit yield point for non-shim state machines — the `fsim`
/// storage ops call this before every operation. Inside
/// [`crate::sched::Explorer::check`] it hands the scheduler an
/// interleaving decision; outside it is a no-op, so the same model code
/// runs under both the crash explorer alone and the combined
/// schedules × crash-points product.
pub fn sched_yield() {
    if let Some((ctrl, tid)) = try_ctx() {
        ctrl.yield_point(tid);
    }
}

// ---------------------------------------------------------------------
// Mutex
// ---------------------------------------------------------------------

pub struct Mutex<T> {
    id: u64,
    locked: StdMutex<bool>,
    // Actual storage. Never contended: the controller serializes all
    // model threads, so this lock always succeeds immediately.
    data: StdMutex<T>,
}

impl<T> Mutex<T> {
    pub fn new(value: T) -> Mutex<T> {
        let (ctrl, _) = ctx();
        Mutex {
            id: ctrl.fresh_id(),
            locked: StdMutex::new(false),
            data: StdMutex::new(value),
        }
    }

    pub fn lock(&self) -> MutexGuard<'_, T> {
        let (ctrl, tid) = ctx();
        ctrl.yield_point(tid);
        loop {
            {
                let mut locked = self.locked.lock_clean();
                if !*locked {
                    *locked = true;
                    break;
                }
            }
            ctrl.block_on(tid, self.id);
        }
        MutexGuard {
            owner: self,
            inner: Some(self.data.lock_clean()),
        }
    }
}

#[must_use = "dropping the guard immediately releases the model lock"]
pub struct MutexGuard<'a, T> {
    owner: &'a Mutex<T>,
    inner: Option<std::sync::MutexGuard<'a, T>>,
}

impl<T> Deref for MutexGuard<'_, T> {
    type Target = T;
    fn deref(&self) -> &T {
        self.inner.as_ref().expect("guard holds data until drop")
    }
}

impl<T> DerefMut for MutexGuard<'_, T> {
    fn deref_mut(&mut self) -> &mut T {
        self.inner.as_mut().expect("guard holds data until drop")
    }
}

impl<T> Drop for MutexGuard<'_, T> {
    fn drop(&mut self) {
        self.inner.take();
        *self.owner.locked.lock_clean() = false;
        // No panics here: guard drops run during violation unwinding.
        if let Some((ctrl, _)) = try_ctx() {
            ctrl.unblock(self.owner.id);
        }
    }
}

// ---------------------------------------------------------------------
// RwLock
// ---------------------------------------------------------------------

#[derive(Default)]
struct RwState {
    writer: bool,
    readers: usize,
}

pub struct RwLock<T> {
    id: u64,
    state: StdMutex<RwState>,
    data: StdMutex<T>,
}

impl<T> RwLock<T> {
    pub fn new(value: T) -> RwLock<T> {
        let (ctrl, _) = ctx();
        RwLock {
            id: ctrl.fresh_id(),
            state: StdMutex::new(RwState::default()),
            data: StdMutex::new(value),
        }
    }

    pub fn read(&self) -> RwLockReadGuard<'_, T> {
        let (ctrl, tid) = ctx();
        ctrl.yield_point(tid);
        loop {
            {
                let mut st = self.state.lock_clean();
                if !st.writer {
                    st.readers += 1;
                    break;
                }
            }
            ctrl.block_on(tid, self.id);
        }
        RwLockReadGuard {
            owner: self,
            inner: Some(self.data.lock_clean()),
        }
    }

    pub fn write(&self) -> RwLockWriteGuard<'_, T> {
        let (ctrl, tid) = ctx();
        ctrl.yield_point(tid);
        loop {
            {
                let mut st = self.state.lock_clean();
                if !st.writer && st.readers == 0 {
                    st.writer = true;
                    break;
                }
            }
            ctrl.block_on(tid, self.id);
        }
        RwLockWriteGuard {
            owner: self,
            inner: Some(self.data.lock_clean()),
        }
    }
}

#[must_use = "dropping the guard immediately releases the model read lock"]
pub struct RwLockReadGuard<'a, T> {
    owner: &'a RwLock<T>,
    inner: Option<std::sync::MutexGuard<'a, T>>,
}

impl<T> Deref for RwLockReadGuard<'_, T> {
    type Target = T;
    fn deref(&self) -> &T {
        self.inner.as_ref().expect("guard holds data until drop")
    }
}

impl<T> Drop for RwLockReadGuard<'_, T> {
    fn drop(&mut self) {
        self.inner.take();
        let mut st = self.owner.state.lock_clean();
        st.readers = st.readers.saturating_sub(1);
        let wake = st.readers == 0;
        drop(st);
        if wake {
            if let Some((ctrl, _)) = try_ctx() {
                ctrl.unblock(self.owner.id);
            }
        }
    }
}

#[must_use = "dropping the guard immediately releases the model write lock"]
pub struct RwLockWriteGuard<'a, T> {
    owner: &'a RwLock<T>,
    inner: Option<std::sync::MutexGuard<'a, T>>,
}

impl<T> Deref for RwLockWriteGuard<'_, T> {
    type Target = T;
    fn deref(&self) -> &T {
        self.inner.as_ref().expect("guard holds data until drop")
    }
}

impl<T> DerefMut for RwLockWriteGuard<'_, T> {
    fn deref_mut(&mut self) -> &mut T {
        self.inner.as_mut().expect("guard holds data until drop")
    }
}

impl<T> Drop for RwLockWriteGuard<'_, T> {
    fn drop(&mut self) {
        self.inner.take();
        self.owner.state.lock_clean().writer = false;
        if let Some((ctrl, _)) = try_ctx() {
            ctrl.unblock(self.owner.id);
        }
    }
}

// ---------------------------------------------------------------------
// AtomicU64
// ---------------------------------------------------------------------

pub struct AtomicU64 {
    v: StdAtomicU64,
}

impl AtomicU64 {
    pub const fn new(value: u64) -> AtomicU64 {
        AtomicU64 {
            v: StdAtomicU64::new(value),
        }
    }

    pub fn load(&self, _order: Ordering) -> u64 {
        let (ctrl, tid) = ctx();
        ctrl.yield_point(tid);
        self.v.load(Ordering::SeqCst)
    }

    pub fn store(&self, value: u64, _order: Ordering) {
        let (ctrl, tid) = ctx();
        ctrl.yield_point(tid);
        self.v.store(value, Ordering::SeqCst);
    }

    pub fn fetch_add(&self, value: u64, _order: Ordering) -> u64 {
        let (ctrl, tid) = ctx();
        ctrl.yield_point(tid);
        self.v.fetch_add(value, Ordering::SeqCst)
    }
}

// ---------------------------------------------------------------------
// Threads
// ---------------------------------------------------------------------

pub struct JoinHandle<T> {
    tid: usize,
    exit_id: u64,
    result: Arc<StdMutex<Option<T>>>,
}

impl<T> JoinHandle<T> {
    /// Blocks until the thread finishes, then returns its value. If the
    /// joined thread panicked the run is already aborting and this
    /// unwinds with the abort sentinel instead of returning.
    pub fn join(self) -> T {
        let (ctrl, tid) = ctx();
        ctrl.yield_point(tid);
        while !ctrl.is_finished(self.tid) {
            ctrl.block_on(tid, self.exit_id);
        }
        ctrl.check_abort();
        self.result
            .lock_clean()
            .take()
            .expect("finished model thread left no result")
    }
}

pub fn spawn<F, T>(f: F) -> JoinHandle<T>
where
    F: FnOnce() -> T + Send + 'static,
    T: Send + 'static,
{
    let (ctrl, tid) = ctx();
    ctrl.yield_point(tid);
    let (child, exit_id) = ctrl.register_thread();
    let result = Arc::new(StdMutex::new(None));
    let r2 = Arc::clone(&result);
    let c2 = Arc::clone(&ctrl);
    let os = std::thread::Builder::new()
        .name(format!("sched-model-{child}"))
        .spawn(move || {
            set_ctx(&c2, child);
            if c2.wait_until_scheduled(child) {
                match panic::catch_unwind(AssertUnwindSafe(f)) {
                    Ok(v) => {
                        *r2.lock_clean() = Some(v);
                        c2.thread_done(child, None);
                    }
                    Err(p) => c2.thread_done(child, Some(p)),
                }
            } else {
                c2.thread_done(child, None);
            }
        })
        .expect("failed to spawn model OS thread");
    ctrl.push_handle(os);
    JoinHandle {
        tid: child,
        exit_id,
        result,
    }
}
