//! The shared result cache behind [`TripleStore`] and [`ShardedStore`]:
//! an LRU keyed by an arbitrary key type (query text plus whatever epoch
//! shape the owner validates against), with per-key in-flight
//! deduplication so N concurrent misses of the same key compute the
//! result once.
//!
//! Recency is tracked by a logical clock plus a tick-ordered index
//! ([`std::collections::BTreeMap`]), so eviction pops the stalest entry
//! in `O(log n)` instead of scanning the whole map — the scan was fine
//! at a 128-entry default but not for the service-sized caches the
//! sharded facade fronts.
//!
//! [`TripleStore`]: crate::TripleStore
//! [`ShardedStore`]: crate::ShardedStore

use parking_lot::Mutex;
use std::collections::{BTreeMap, HashMap};
use std::hash::Hash;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::{Arc, OnceLock};
use wdsparql_rdf::{ExecError, Mapping, QueryBudget};

/// Cache hit/miss counters (monotonic over the cache's lifetime).
/// `hits` counts results served without a computation — from the LRU or
/// by joining another thread's in-flight computation; `misses` counts
/// actual evaluations. `evictions` counts entries pushed out by
/// capacity pressure (epoch invalidations via `clear`/`retain` are not
/// evictions), and `stampede_waits` is the subset of `hits` that were
/// served by joining an in-flight computation rather than the LRU.
/// Every counter is mirrored into the process-wide metrics registry
/// ([`crate::obs`]) as `cache.*`.
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub struct CacheStats {
    pub hits: u64,
    pub misses: u64,
    pub evictions: u64,
    pub stampede_waits: u64,
    pub entries: usize,
}

/// In-flight computation slot: filled exactly once, by the leader that
/// registered it; everyone else waits. `Some(rows)` is a completed
/// computation, `None` a failed one — the leader's budget error is its
/// own and is never handed to a waiter, whose budget may be fine.
type PendingSlot = Arc<OnceLock<Option<Arc<Vec<Mapping>>>>>;

/// A small LRU over solution sets. Recency is a logical clock; the
/// tick-ordered index makes eviction `O(log n)` (pop the smallest
/// stamp) while preserving exactly the old full-scan eviction order:
/// the entry with the stalest stamp goes first.
pub(crate) struct LruCache<K> {
    capacity: usize,
    tick: u64,
    map: HashMap<K, (Arc<Vec<Mapping>>, u64)>,
    /// stamp → key, mirror of `map`'s stamps (stamps are unique: the
    /// clock advances on every touch).
    order: BTreeMap<u64, K>,
}

impl<K: Eq + Hash + Clone> LruCache<K> {
    pub(crate) fn new(capacity: usize) -> LruCache<K> {
        LruCache {
            capacity,
            tick: 0,
            map: HashMap::new(),
            order: BTreeMap::new(),
        }
    }

    pub(crate) fn len(&self) -> usize {
        self.map.len()
    }

    pub(crate) fn get(&mut self, key: &K) -> Option<Arc<Vec<Mapping>>> {
        self.tick += 1;
        let tick = self.tick;
        let (value, stamp) = self.map.get_mut(key)?;
        self.order.remove(stamp);
        *stamp = tick;
        self.order.insert(tick, key.clone());
        Some(Arc::clone(value))
    }

    /// Inserts (or refreshes) `key`; returns `true` when a stale entry
    /// was evicted to make room — the owner's eviction counter hook.
    pub(crate) fn put(&mut self, key: K, value: Arc<Vec<Mapping>>) -> bool {
        if self.capacity == 0 {
            return false;
        }
        self.tick += 1;
        let mut evicted = false;
        if let Some((_, stamp)) = self.map.get(&key) {
            self.order.remove(stamp);
        } else if self.map.len() >= self.capacity {
            if let Some((_, oldest)) = self.order.pop_first() {
                self.map.remove(&oldest);
                evicted = true;
            }
        }
        self.order.insert(self.tick, key.clone());
        self.map.insert(key, (value, self.tick));
        evicted
    }

    pub(crate) fn clear(&mut self) {
        self.map.clear();
        self.order.clear();
    }

    /// Drops every entry whose key fails the predicate (the sharded
    /// facade's selective invalidation: only results that read a bumped
    /// shard go).
    pub(crate) fn retain(&mut self, mut keep: impl FnMut(&K) -> bool) {
        let doomed: Vec<(K, u64)> = self
            .map
            .iter()
            .filter(|(k, _)| !keep(k))
            .map(|(k, (_, stamp))| (k.clone(), *stamp))
            .collect();
        for (k, stamp) in doomed {
            self.map.remove(&k);
            self.order.remove(&stamp);
        }
    }
}

/// An LRU result cache with per-key in-flight deduplication, generic
/// over the key (the owner decides what "epoch" means: a single counter
/// for [`TripleStore`], a per-shard epoch vector for [`ShardedStore`]).
///
/// [`TripleStore`]: crate::TripleStore
/// [`ShardedStore`]: crate::ShardedStore
pub(crate) struct ResultCache<K> {
    cache: Mutex<LruCache<K>>,
    /// In-flight computations keyed like the cache: concurrent misses of
    /// the same key join the first thread's slot instead of re-running
    /// the evaluation.
    pending: Mutex<HashMap<K, PendingSlot>>,
    hits: AtomicU64,
    misses: AtomicU64,
    evictions: AtomicU64,
    stampede_waits: AtomicU64,
}

impl<K: Eq + Hash + Clone> ResultCache<K> {
    pub(crate) fn new(capacity: usize) -> ResultCache<K> {
        ResultCache {
            cache: Mutex::new(LruCache::new(capacity)),
            pending: Mutex::new(HashMap::new()),
            hits: AtomicU64::new(0),
            misses: AtomicU64::new(0),
            evictions: AtomicU64::new(0),
            stampede_waits: AtomicU64::new(0),
        }
    }

    pub(crate) fn stats(&self) -> CacheStats {
        CacheStats {
            // relaxed-ok: monotonic counters read for reporting only; no
            // other memory depends on their order.
            hits: self.hits.load(Ordering::Relaxed),
            // relaxed-ok: same reporting-only counter as `hits` above.
            misses: self.misses.load(Ordering::Relaxed),
            // relaxed-ok: same reporting-only counter as `hits` above.
            evictions: self.evictions.load(Ordering::Relaxed),
            // relaxed-ok: same reporting-only counter as `hits` above.
            stampede_waits: self.stampede_waits.load(Ordering::Relaxed),
            entries: self.cache.lock().len(),
        }
    }

    /// Drops every cached entry (the single-epoch owner's invalidation:
    /// after an epoch bump all old entries are unreachable, so freeing
    /// their result sets immediately beats waiting for eviction).
    pub(crate) fn clear(&self) {
        self.cache.lock().clear();
    }

    /// Selectively drops entries whose key fails the predicate.
    pub(crate) fn retain(&self, keep: impl FnMut(&K) -> bool) {
        self.cache.lock().retain(keep);
    }

    /// Serves `key` from the cache, or computes it — at most once across
    /// concurrent callers: the first miss registers an in-flight slot
    /// and becomes its leader, later misses of the same key block on
    /// that slot instead of re-running `compute`. The leader publishes
    /// to the LRU only when `still_valid` holds (the owner re-checks its
    /// epochs there), so a result computed on a snapshot that has since
    /// been superseded is returned to callers but never cached.
    ///
    /// `compute` runs under the caller's `budget` and may fail it. The
    /// failure is the leader's alone: **errors are never inserted into
    /// the LRU** (cached entries only ever hold complete result sets),
    /// and a waiter that finds its slot failed re-checks *its own*
    /// budget and goes around again — joining the next in-flight
    /// computation or leading one itself. Under
    /// [`QueryBudget::unlimited`] the result is therefore always `Ok`.
    pub(crate) fn get_or_try_compute(
        &self,
        key: K,
        budget: &QueryBudget,
        still_valid: impl FnOnce() -> bool,
        compute: impl FnOnce() -> Result<Vec<Mapping>, ExecError>,
    ) -> Result<Arc<Vec<Mapping>>, ExecError> {
        let lead = loop {
            if let Some(hit) = self.cache.lock().get(&key) {
                self.count_hit();
                return Ok(hit);
            }
            let joined = {
                let mut pending = self.pending.lock();
                match pending.entry(key.clone()) {
                    std::collections::hash_map::Entry::Occupied(e) => Arc::clone(e.get()),
                    std::collections::hash_map::Entry::Vacant(e) => {
                        // Double-check the cache while holding the pending
                        // lock: a leader that published and unregistered
                        // between our cache miss and this point must not
                        // trigger a second computation. (Lock order is
                        // pending → cache here; no path nests them the other
                        // way round.)
                        if let Some(hit) = self.cache.lock().get(&key) {
                            self.count_hit();
                            return Ok(hit);
                        }
                        let slot: PendingSlot = Arc::new(OnceLock::new());
                        e.insert(Arc::clone(&slot));
                        break Lead {
                            owner: self,
                            key,
                            slot,
                        };
                    }
                }
            };
            if let Some(rows) = joined.wait() {
                self.count_hit();
                // relaxed-ok: the stampede-wait subset of the hits
                // statistic; joiners synchronized via the slot's OnceLock.
                self.stampede_waits.fetch_add(1, Ordering::Relaxed);
                crate::obs::on_cache_stampede_wait();
                return Ok(Arc::clone(rows));
            }
            budget.check()?;
        };
        // Exactly one leader per slot, so the miss counter counts
        // computations, not callers.
        // relaxed-ok: statistics counter; publication order is carried
        // by the slot's OnceLock, not this add.
        self.misses.fetch_add(1, Ordering::Relaxed);
        crate::obs::on_cache_miss();
        let rows = Arc::new(compute()?);
        // Publish before waking the waiters and unregistering (`lead`'s
        // drop), so a racer either sees the cache entry or the pending
        // slot. Skip the insert when the owner's epochs moved meanwhile:
        // the entry would be keyed to a stale epoch — correct but
        // unreachable, so only dead weight.
        if still_valid() && self.cache.lock().put(lead.key.clone(), Arc::clone(&rows)) {
            // relaxed-ok: statistics counter; eviction itself is ordered
            // by the cache mutex.
            self.evictions.fetch_add(1, Ordering::Relaxed);
            crate::obs::on_cache_eviction();
        }
        let _ = lead.slot.set(Some(Arc::clone(&rows)));
        Ok(rows)
    }

    /// A result served without a computation: from the LRU, or by
    /// joining an in-flight one.
    fn count_hit(&self) {
        // relaxed-ok: statistics counter; the hit itself synchronizes
        // through the cache mutex or the slot's OnceLock.
        self.hits.fetch_add(1, Ordering::Relaxed);
        crate::obs::on_cache_hit();
    }

    #[cfg(test)]
    pub(crate) fn pending_is_empty(&self) -> bool {
        self.pending.lock().is_empty()
    }
}

/// The leader's registration of an in-flight slot. Dropping it — on
/// return, on a failed budget or while unwinding from a panicking
/// computation — unregisters the slot and marks it failed unless the
/// leader filled it first, so waiters are always released and never
/// join a dead slot twice.
struct Lead<'a, K: Eq + Hash + Clone> {
    owner: &'a ResultCache<K>,
    key: K,
    slot: PendingSlot,
}

impl<K: Eq + Hash + Clone> Drop for Lead<'_, K> {
    fn drop(&mut self) {
        self.owner.pending.lock().remove(&self.key);
        let _ = self.slot.set(None);
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn val(n: usize) -> Arc<Vec<Mapping>> {
        Arc::new(vec![Mapping::new(); n])
    }

    /// The tick-ordered index evicts exactly what the old full-scan
    /// `min_by_key` eviction evicted: the entry with the stalest stamp,
    /// where both `get` and `put` refresh a key's stamp.
    #[test]
    fn eviction_order_is_unchanged() {
        let mut lru: LruCache<&str> = LruCache::new(2);
        lru.put("a", val(1));
        lru.put("b", val(2));
        assert!(lru.get(&"a").is_some()); // refresh a → b is stalest
        lru.put("c", val(3)); // evicts b
        assert!(lru.get(&"b").is_none());
        assert!(lru.get(&"a").is_some());
        assert!(lru.get(&"c").is_some());

        // Re-putting an existing key refreshes it without evicting.
        lru.put("a", val(4)); // a newest, c stalest
        lru.put("d", val(5)); // evicts c
        assert!(lru.get(&"c").is_none());
        assert_eq!(lru.get(&"a").unwrap().len(), 4);
        assert_eq!(lru.len(), 2);
    }

    #[test]
    fn zero_capacity_caches_nothing() {
        let mut lru: LruCache<&str> = LruCache::new(0);
        lru.put("a", val(1));
        assert!(lru.get(&"a").is_none());
        assert_eq!(lru.len(), 0);
    }

    #[test]
    fn retain_drops_only_failing_keys() {
        let mut lru: LruCache<u32> = LruCache::new(8);
        for k in 0..6 {
            lru.put(k, val(k as usize));
        }
        lru.retain(|k| k % 2 == 0);
        assert_eq!(lru.len(), 3);
        assert!(lru.get(&1).is_none());
        assert!(lru.get(&2).is_some());
        // The order index stayed in sync: filling to capacity evicts the
        // stalest survivor, not a ghost of a retained-away key.
        for k in 10..15 {
            lru.put(k, val(1));
        }
        assert_eq!(lru.len(), 8);
    }

    /// One row, computed under an unlimited budget — the infallible
    /// callers' shape.
    fn one_row<K: Eq + Hash + Clone>(
        cache: &ResultCache<K>,
        key: K,
        still_valid: bool,
    ) -> Arc<Vec<Mapping>> {
        cache
            .get_or_try_compute(
                key,
                &QueryBudget::unlimited(),
                || still_valid,
                || Ok(vec![Mapping::new()]),
            )
            .expect("an unlimited budget never fails")
    }

    #[test]
    fn invalid_results_are_returned_but_not_cached() {
        let cache: ResultCache<&str> = ResultCache::new(8);
        let out = one_row(&cache, "k", false);
        assert_eq!(out.len(), 1);
        assert_eq!(cache.stats().entries, 0, "stale result must not land");
        assert_eq!(cache.stats().misses, 1);
        let again = one_row(&cache, "k", true);
        assert_eq!(again.len(), 1);
        assert_eq!(cache.stats().misses, 2, "recomputed, not served stale");
        assert_eq!(cache.stats().entries, 1);
    }

    #[test]
    fn concurrent_misses_compute_once() {
        use std::sync::atomic::AtomicUsize;
        use std::sync::Barrier;
        let cache: Arc<ResultCache<String>> = Arc::new(ResultCache::new(8));
        let calls = Arc::new(AtomicUsize::new(0));
        let barrier = Arc::new(Barrier::new(8));
        let mut handles = Vec::new();
        for _ in 0..8 {
            let cache = Arc::clone(&cache);
            let calls = Arc::clone(&calls);
            let barrier = Arc::clone(&barrier);
            handles.push(std::thread::spawn(move || {
                barrier.wait();
                let value = cache.get_or_try_compute(
                    "dedup-key".to_string(),
                    &QueryBudget::unlimited(),
                    || true,
                    || {
                        calls.fetch_add(1, Ordering::SeqCst);
                        // Hold the slot long enough that every thread
                        // passes its cache-miss check while the
                        // computation is still in flight.
                        std::thread::sleep(std::time::Duration::from_millis(200));
                        Ok(vec![Mapping::new()])
                    },
                );
                value.expect("an unlimited budget never fails").len()
            }));
        }
        for h in handles {
            assert_eq!(h.join().unwrap(), 1);
        }
        assert_eq!(calls.load(Ordering::SeqCst), 1, "exactly one computation");
        let cs = cache.stats();
        assert_eq!(cs.misses, 1);
        assert_eq!(cs.hits, 7, "joiners count as hits");
        assert_eq!(cs.stampede_waits, 7, "every joiner waited on the slot");
        assert!(cache.pending_is_empty(), "slot unregistered");
    }

    /// Leads a computation of `"k"` that holds its in-flight slot long
    /// enough for the caller to join it, runs `before_failing`, and then
    /// fails its budget. Returns once that computation is in flight.
    fn doomed_leader(
        cache: &Arc<ResultCache<String>>,
        before_failing: impl FnOnce() + Send + 'static,
    ) -> std::thread::JoinHandle<Result<Arc<Vec<Mapping>>, ExecError>> {
        let (in_flight, started) = std::sync::mpsc::channel();
        let cache = Arc::clone(cache);
        let leader = std::thread::spawn(move || {
            cache.get_or_try_compute(
                "k".to_string(),
                &QueryBudget::unlimited(),
                || true,
                || {
                    in_flight.send(()).expect("the spawner is listening");
                    std::thread::sleep(std::time::Duration::from_millis(200));
                    before_failing();
                    Err(ExecError::DeadlineExceeded)
                },
            )
        });
        started.recv().expect("the leader's computation started");
        leader
    }

    /// The leader's budget is the leader's: a caller that joined the
    /// in-flight slot of a doomed computation does not receive that
    /// error (it used to, and the infallible facade then panicked) — it
    /// re-checks its own budget and computes the rows itself.
    #[test]
    fn waiter_joining_a_doomed_leader_retries_under_its_own_budget() {
        let cache: Arc<ResultCache<String>> = Arc::new(ResultCache::new(8));
        let leader = doomed_leader(&cache, || ());
        let rows = one_row(&cache, "k".to_string(), true);
        assert_eq!(rows.len(), 1, "the waiter gets the rows");
        assert_eq!(
            leader.join().expect("the leader returns, typed"),
            Err(ExecError::DeadlineExceeded),
            "only the leader sees its own error"
        );
        let cs = cache.stats();
        assert_eq!(cs.misses, 2, "the doomed computation, then the waiter's");
        assert_eq!(cs.entries, 1, "only the complete result landed in the LRU");
        assert!(cache.pending_is_empty(), "both slots unregistered");

        // A waiter whose own budget died while it waited fails that
        // re-check, typed, instead of retrying.
        let cache: Arc<ResultCache<String>> = Arc::new(ResultCache::new(8));
        let token = wdsparql_rdf::CancelToken::new();
        let trip = token.clone();
        let leader = doomed_leader(&cache, move || trip.cancel());
        let out = cache.get_or_try_compute(
            "k".to_string(),
            &QueryBudget::with_cancel(token),
            || true,
            || Ok(vec![Mapping::new()]),
        );
        assert_eq!(leader.join().unwrap(), Err(ExecError::DeadlineExceeded));
        match out {
            Err(e) => {
                assert_eq!(e, ExecError::Cancelled);
                assert_eq!(cache.stats().entries, 0, "no error ever lands in the LRU");
                assert!(cache.pending_is_empty(), "slot unregistered after errors");
            }
            // (Scheduled too late to join the slot, the caller led a
            // computation of its own instead — the second miss.)
            Ok(_) => assert_eq!(cache.stats().misses, 2),
        }
    }

    #[test]
    fn capacity_evictions_are_counted() {
        let cache: ResultCache<u32> = ResultCache::new(2);
        for k in 0..4 {
            one_row(&cache, k, true);
        }
        let cs = cache.stats();
        assert_eq!(cs.misses, 4);
        assert_eq!(cs.entries, 2);
        assert_eq!(cs.evictions, 2, "third and fourth insert each evicted");
        assert_eq!(cs.stampede_waits, 0);
        // Epoch-style invalidation is not an eviction.
        cache.clear();
        assert_eq!(cache.stats().evictions, 2);
        assert_eq!(cache.stats().entries, 0);
    }
}
