//! Lock-free metric primitives: [`Counter`], [`Gauge`], and a
//! log-linear bucketed latency [`Histogram`].
//!
//! Every record path is a handful of relaxed atomic RMWs — no locks, no
//! allocation — so instrumentation can sit on warm paths without
//! perturbing what it measures. Reads ([`Histogram::capture`]) are
//! torn-snapshot tolerant by design: concurrent recorders may land
//! between bucket loads, which skews a live snapshot by at most the
//! in-flight events; merged totals are recomputed from the bucket
//! counts so a snapshot is always internally consistent.
//!
//! ## Histogram scheme
//!
//! Values (u64, nanoseconds by convention) are bucketed log-linearly:
//! values below [`SUB_BUCKETS`] get exact singleton buckets, and every
//! power-of-two octave above is split into [`SUB_BUCKETS`] = 16 linear
//! sub-buckets, bounding relative bucket width at 1/16 = 6.25%. The
//! whole u64 range maps into [`BUCKETS`] = 976 buckets, so one
//! histogram is ~8 KiB of atomics. Percentiles are *exact nearest-rank
//! selections over the bucketed distribution*: the reported value is
//! the selected bucket's inclusive upper bound (clamped to the true
//! recorded maximum), i.e. within 6.25% of the true order statistic.

use std::sync::atomic::{AtomicU64, Ordering};

/// A monotonically increasing event tally.
#[derive(Debug, Default)]
pub struct Counter(AtomicU64);

impl Counter {
    pub const fn new() -> Counter {
        Counter(AtomicU64::new(0))
    }

    pub fn inc(&self) {
        self.add(1);
    }

    pub fn add(&self, n: u64) {
        // relaxed-ok: an independent event tally; nothing is ordered
        // against it and snapshots tolerate in-flight increments.
        self.0.fetch_add(n, Ordering::Relaxed);
    }

    pub fn get(&self) -> u64 {
        // relaxed-ok: reading a statistic, not synchronizing state.
        self.0.load(Ordering::Relaxed)
    }
}

/// A last-writer-wins instantaneous value.
#[derive(Debug, Default)]
pub struct Gauge(AtomicU64);

impl Gauge {
    pub const fn new() -> Gauge {
        Gauge(AtomicU64::new(0))
    }

    pub fn set(&self, v: u64) {
        // relaxed-ok: a published observation; readers want *a* recent
        // value, not a synchronized one.
        self.0.store(v, Ordering::Relaxed);
    }

    pub fn get(&self) -> u64 {
        // relaxed-ok: reading a statistic, not synchronizing state.
        self.0.load(Ordering::Relaxed)
    }
}

/// Linear sub-buckets per power-of-two octave (relative width 1/16).
pub const SUB_BUCKETS: usize = 16;

/// Total bucket count covering all of u64: [`SUB_BUCKETS`] exact
/// singleton buckets below 16, then 60 octaves (2^4 … 2^63) of
/// [`SUB_BUCKETS`] each.
pub const BUCKETS: usize = 61 * SUB_BUCKETS;

/// The bucket index of a value. Monotone non-decreasing in `v`.
pub fn bucket_index(v: u64) -> usize {
    if v < SUB_BUCKETS as u64 {
        return v as usize;
    }
    // Highest set bit m ≥ 4; the top 5 bits (1 implicit + 4 linear)
    // select the sub-bucket within the octave.
    let m = 63 - v.leading_zeros() as usize;
    let sub = (v >> (m - 4)) as usize; // in [16, 32)
    (m - 3) * SUB_BUCKETS + (sub - SUB_BUCKETS)
}

/// The smallest value landing in bucket `i` (inverse of
/// [`bucket_index`] on bucket boundaries).
pub fn bucket_floor(i: usize) -> u64 {
    if i < SUB_BUCKETS {
        return i as u64;
    }
    let m = i / SUB_BUCKETS + 3;
    let sub = i % SUB_BUCKETS + SUB_BUCKETS;
    (sub as u64) << (m - 4)
}

/// The largest value landing in bucket `i` (inclusive).
pub fn bucket_ceil(i: usize) -> u64 {
    if i + 1 < BUCKETS {
        bucket_floor(i + 1) - 1
    } else {
        u64::MAX
    }
}

/// A lock-free log-linear histogram of u64 values (latencies in
/// nanoseconds by convention). ~8 KiB of relaxed atomics; `record` is
/// four RMWs and never allocates.
#[derive(Debug)]
pub struct Histogram {
    counts: Vec<AtomicU64>,
    sum: AtomicU64,
    max: AtomicU64,
}

impl Default for Histogram {
    fn default() -> Histogram {
        Histogram::new()
    }
}

impl Histogram {
    pub fn new() -> Histogram {
        Histogram {
            counts: (0..BUCKETS).map(|_| AtomicU64::new(0)).collect(),
            sum: AtomicU64::new(0),
            max: AtomicU64::new(0),
        }
    }

    pub fn record(&self, v: u64) {
        // relaxed-ok: independent tallies; capture() recomputes totals
        // from the bucket counts so torn reads stay self-consistent.
        self.counts[bucket_index(v)].fetch_add(1, Ordering::Relaxed);
        // relaxed-ok: as above.
        self.sum.fetch_add(v, Ordering::Relaxed);
        // relaxed-ok: monotone max; fetch_max commutes with itself. The
        // load only skips the RMW (a CAS loop) when `v` cannot raise the
        // max — nearly always, and one is recorded per query.
        if v > self.max.load(Ordering::Relaxed) {
            // relaxed-ok: as above.
            self.max.fetch_max(v, Ordering::Relaxed);
        }
    }

    /// A point-in-time copy of the distribution. Snapshots of the same
    /// histogram taken under concurrent recording may differ by the
    /// in-flight events; each snapshot is internally consistent.
    pub fn capture(&self) -> HistogramSnapshot {
        let counts: Vec<u64> = self
            .counts
            .iter()
            // relaxed-ok: reading statistics, not synchronizing.
            .map(|c| c.load(Ordering::Relaxed))
            .collect();
        let total = counts.iter().sum();
        HistogramSnapshot {
            counts,
            total,
            // relaxed-ok: reading statistics, not synchronizing.
            sum: self.sum.load(Ordering::Relaxed),
            // relaxed-ok: reading statistics, not synchronizing.
            max: self.max.load(Ordering::Relaxed),
        }
    }
}

/// An owned, mergeable copy of a [`Histogram`]'s state. Merging is
/// commutative and associative (element-wise bucket sums), so per-shard
/// or per-thread histograms fold into one distribution in any order.
#[must_use]
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct HistogramSnapshot {
    counts: Vec<u64>,
    total: u64,
    sum: u64,
    max: u64,
}

impl Default for HistogramSnapshot {
    fn default() -> HistogramSnapshot {
        HistogramSnapshot {
            counts: vec![0; BUCKETS],
            total: 0,
            sum: 0,
            max: 0,
        }
    }
}

impl HistogramSnapshot {
    /// Folds `other` into `self` (element-wise bucket sums).
    pub fn merge(&mut self, other: &HistogramSnapshot) {
        for (a, b) in self.counts.iter_mut().zip(&other.counts) {
            *a += b;
        }
        self.total += other.total;
        // The sum tracks the atomic's wrapping semantics; counts never
        // realistically overflow but a nanosecond sum can.
        self.sum = self.sum.wrapping_add(other.sum);
        self.max = self.max.max(other.max);
    }

    pub fn count(&self) -> u64 {
        self.total
    }

    pub fn sum(&self) -> u64 {
        self.sum
    }

    pub fn max(&self) -> u64 {
        self.max
    }

    pub fn mean(&self) -> u64 {
        self.sum.checked_div(self.total).unwrap_or(0)
    }

    /// The nearest-rank `q`-quantile (`q` in `[0, 1]`): the inclusive
    /// upper bound of the bucket holding the ⌈q·n⌉-th smallest recorded
    /// value, clamped to the recorded maximum. Exact selection over the
    /// bucketed distribution; within one bucket width (≤6.25%) of the
    /// true order statistic.
    pub fn quantile(&self, q: f64) -> u64 {
        if self.total == 0 {
            return 0;
        }
        let rank = ((q * self.total as f64).ceil() as u64).clamp(1, self.total);
        let mut seen = 0u64;
        for (i, &c) in self.counts.iter().enumerate() {
            seen += c;
            if seen >= rank {
                return bucket_ceil(i).min(self.max);
            }
        }
        self.max
    }

    pub fn p50(&self) -> u64 {
        self.quantile(0.50)
    }

    pub fn p90(&self) -> u64 {
        self.quantile(0.90)
    }

    pub fn p99(&self) -> u64 {
        self.quantile(0.99)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn counter_and_gauge_roundtrip() {
        let c = Counter::new();
        c.inc();
        c.add(4);
        assert_eq!(c.get(), 5);
        let g = Gauge::new();
        g.set(42);
        g.set(7);
        assert_eq!(g.get(), 7);
    }

    #[test]
    fn bucket_boundaries_are_exact_below_sixteen_and_log_linear_above() {
        // Singleton buckets: exact.
        for v in 0..16u64 {
            assert_eq!(bucket_index(v), v as usize);
            assert_eq!(bucket_floor(v as usize), v);
            assert_eq!(bucket_ceil(v as usize), v);
        }
        // First octave is still exact (width 1): 16..32 → 16..32.
        assert_eq!(bucket_index(16), 16);
        assert_eq!(bucket_index(31), 31);
        // Second octave: width 2.
        assert_eq!(bucket_index(32), 32);
        assert_eq!(bucket_index(33), 32);
        assert_eq!(bucket_index(34), 33);
        assert_eq!(bucket_floor(32), 32);
        assert_eq!(bucket_ceil(32), 33);
        // Octave boundaries never misalign: the floor of each bucket
        // indexes back to itself, and ceil(i) + 1 == floor(i + 1).
        for i in 0..BUCKETS {
            assert_eq!(bucket_index(bucket_floor(i)), i, "floor of bucket {i}");
            assert_eq!(bucket_index(bucket_ceil(i)), i, "ceil of bucket {i}");
            if i + 1 < BUCKETS {
                assert_eq!(bucket_ceil(i) + 1, bucket_floor(i + 1), "bucket {i} gap");
            }
        }
        // The last bucket absorbs u64::MAX.
        assert_eq!(bucket_index(u64::MAX), BUCKETS - 1);
        assert_eq!(bucket_ceil(BUCKETS - 1), u64::MAX);
    }

    #[test]
    fn percentiles_are_exact_on_singleton_buckets() {
        let h = Histogram::new();
        for v in 1..=100u64 {
            // 1..=15 land in exact buckets; keep all values < 16 so the
            // percentile is the true order statistic.
            h.record(v % 15 + 1);
        }
        let s = h.capture();
        assert_eq!(s.count(), 100);
        // Values cycle 2,3,…,15,1 — the median of the multiset is 8.
        assert_eq!(s.p50(), 8);
        assert_eq!(s.quantile(1.0), 15);
        assert_eq!(s.quantile(0.0), 1, "rank clamps to the minimum");
    }

    #[test]
    fn percentiles_clamp_to_the_recorded_max() {
        let h = Histogram::new();
        h.record(1_000_003);
        let s = h.capture();
        // One sample: every quantile is that sample, not its bucket's
        // upper bound.
        assert_eq!(s.p50(), 1_000_003);
        assert_eq!(s.p99(), 1_000_003);
        assert_eq!(s.max(), 1_000_003);
    }

    #[test]
    fn merge_is_associative_and_commutative() {
        let mk = |vals: &[u64]| {
            let h = Histogram::new();
            for &v in vals {
                h.record(v);
            }
            h.capture()
        };
        let a = mk(&[1, 5, 900, 42]);
        let b = mk(&[17, 17, 1 << 40]);
        let c = mk(&[0, u64::MAX, 333]);
        let mut ab_c = a.clone();
        ab_c.merge(&b);
        ab_c.merge(&c);
        let mut bc = b.clone();
        bc.merge(&c);
        let mut a_bc = a.clone();
        a_bc.merge(&bc);
        assert_eq!(ab_c, a_bc, "merge must be associative");
        let mut ba = b.clone();
        ba.merge(&a);
        let mut ab = a.clone();
        ab.merge(&b);
        assert_eq!(ab, ba, "merge must be commutative");
        assert_eq!(ab_c.count(), 10);
        assert_eq!(ab_c.max(), u64::MAX);
    }

    #[test]
    fn merged_percentiles_match_a_single_histogram_over_the_union() {
        let h_all = Histogram::new();
        let h_lo = Histogram::new();
        let h_hi = Histogram::new();
        for v in 0..1000u64 {
            h_all.record(v * 37);
            if v % 2 == 0 {
                h_lo.record(v * 37);
            } else {
                h_hi.record(v * 37);
            }
        }
        let mut merged = h_lo.capture();
        merged.merge(&h_hi.capture());
        assert_eq!(merged, h_all.capture());
    }

    #[test]
    fn concurrent_recording_is_lossless() {
        let h = std::sync::Arc::new(Histogram::new());
        std::thread::scope(|s| {
            for t in 0..4 {
                let h = std::sync::Arc::clone(&h);
                s.spawn(move || {
                    for i in 0..10_000u64 {
                        h.record(t * 1_000_000 + i);
                    }
                });
            }
        });
        assert_eq!(h.capture().count(), 40_000);
    }
}
