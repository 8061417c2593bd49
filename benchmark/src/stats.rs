//! Seeded randomness, class mixes with exact counts, percentiles, spreads
//! and order-independent answer checksums.

use std::fmt::Write as _;
use wdsparql_rdf::Mapping;

/// splitmix64: the harness's only source of randomness, so equal seeds
/// give byte-identical inputs without touching the crates' own `rand`.
#[derive(Clone)]
pub struct SplitMix(u64);

impl SplitMix {
    pub fn new(seed: u64) -> SplitMix {
        SplitMix(seed)
    }

    pub fn next_u64(&mut self) -> u64 {
        self.0 = self.0.wrapping_add(0x9E37_79B9_7F4A_7C15);
        let mut z = self.0;
        z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
        z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
        z ^ (z >> 31)
    }

    /// Uniform in `0..n` (`n > 0`).
    pub fn below(&mut self, n: usize) -> usize {
        (self.next_u64() % n as u64) as usize
    }

    /// The generators' own subject skew: the minimum of three uniform
    /// draws, so constants hit the hot head of `skewed_triple_stream`.
    pub fn skewed(&mut self, n: usize) -> usize {
        self.below(n).min(self.below(n)).min(self.below(n))
    }

    pub fn shuffle<T>(&mut self, items: &mut [T]) {
        for i in (1..items.len()).rev() {
            items.swap(i, self.below(i + 1));
        }
    }
}

/// A class mix as exact counts: `shares` (summing to 1) of `n` ops,
/// largest-remainder rounded so the counts sum to `n`, then shuffled.
/// Exact counts (not per-op draws) keep the share of each latency regime
/// — and so where p50 and p90 fall — identical across seeds.
pub fn class_sequence(shares: &[f64], n: usize, rng: &mut SplitMix) -> Vec<usize> {
    let mut counts: Vec<usize> = shares.iter().map(|s| (s * n as f64) as usize).collect();
    let mut rest: Vec<usize> = (0..shares.len()).collect();
    rest.sort_by(|&a, &b| {
        let frac = |i: usize| shares[i] * n as f64 - counts[i] as f64;
        frac(b).total_cmp(&frac(a))
    });
    let missing = n - counts.iter().sum::<usize>();
    for &i in rest.iter().cycle().take(missing) {
        counts[i] += 1;
    }
    let mut seq: Vec<usize> = counts
        .iter()
        .enumerate()
        .flat_map(|(class, &c)| std::iter::repeat_n(class, c))
        .collect();
    rng.shuffle(&mut seq);
    seq
}

/// Indices of a quarter of the ops with every class represented in
/// proportion: the first quarter (rounded up) of each class, in issue
/// order. The side passes replay this sample; a plain prefix would hold a
/// different number of the rare, slow classes for every seed.
pub fn quarter_sample(class_of: &[usize]) -> Vec<usize> {
    let classes = class_of.iter().max().map_or(0, |m| m + 1);
    let mut quota: Vec<usize> = (0..classes)
        .map(|c| class_of.iter().filter(|&&x| x == c).count().div_ceil(4))
        .collect();
    (0..class_of.len())
        .filter(|&i| {
            let q = &mut quota[class_of[i]];
            *q > 0 && {
                *q -= 1;
                true
            }
        })
        .collect()
}

/// The latency group quantile `q` (in `0..1`) falls in, given the groups'
/// shares in ascending latency order — `None` if it is within 0.02 of a
/// group boundary, where a little noise would move the percentile from
/// one regime to another.
#[cfg(test)]
pub fn inside_one_group(shares: &[f64], q: f64) -> Option<usize> {
    let mut lo = 0.0;
    for (i, s) in shares.iter().enumerate() {
        if q > lo + 0.02 && q < lo + s - 0.02 {
            return Some(i);
        }
        lo += s;
    }
    None
}

/// The 1-based nearest rank of percentile `p` among `n` samples. Multiplies
/// before dividing so that whole percents of round counts stay exact
/// (`45.0 / 100.0 * 100.0` is not 45).
pub fn nearest_rank(p: f64, n: usize) -> usize {
    (p * n as f64 / 100.0).ceil() as usize
}

/// Nearest-rank percentile of an ascending slice (`p` in `0..=100`).
pub fn percentile(sorted: &[f64], p: f64) -> f64 {
    assert!(!sorted.is_empty(), "percentile of no samples");
    let rank = nearest_rank(p, sorted.len());
    sorted[rank.clamp(1, sorted.len()) - 1]
}

/// The reported latency percentile: the mean of the samples ranked within
/// `half_width` percent either side of `p`. Op latencies cluster in
/// discrete modes (one per result size); a bare percentile sitting between
/// two modes flips from one to the other when the mix shifts by an op,
/// where the band mean moves in proportion.
pub fn percentile_band(sorted: &[f64], p: f64, half_width: f64) -> f64 {
    assert!(!sorted.is_empty(), "percentile of no samples");
    let rank = |q: f64| nearest_rank(q, sorted.len());
    let lo = rank(p - half_width).clamp(1, sorted.len());
    let hi = rank(p + half_width).clamp(lo, sorted.len());
    let band = &sorted[lo - 1..hi];
    band.iter().sum::<f64>() / band.len() as f64
}

pub fn sorted(mut v: Vec<f64>) -> Vec<f64> {
    v.sort_by(f64::total_cmp);
    v
}

pub fn median(v: &[f64]) -> f64 {
    percentile(&sorted(v.to_vec()), 50.0)
}

/// The best of repeated timings of one thing. Neighbour interference on
/// a shared box only ever adds time, so the minimum over identical
/// repetitions repeats run to run where the mean and median do not.
pub fn fastest(seconds: &[f64]) -> f64 {
    seconds
        .iter()
        .copied()
        .reduce(f64::min)
        .expect("nothing timed")
}

/// `(median block − best block) / best block` over block walls.
pub fn block_spread(walls: &[f64]) -> f64 {
    let best = fastest(walls);
    (median(walls) - best) / best
}

/// Interquartile range over the median — the run-to-run spread
/// `run.sh --repeat` holds against each metric's bound.
pub fn relative_spread(values: &[f64]) -> f64 {
    if values.len() < 2 {
        return 0.0;
    }
    let s = sorted(values.to_vec());
    let q = |p: f64| {
        // Python's statistics.quantiles(method="exclusive").
        let pos = p * (s.len() + 1) as f64;
        let lo = (pos.floor() as usize).clamp(1, s.len() - 1);
        let frac = pos - lo as f64;
        s[lo - 1] + frac * (s[lo] - s[lo - 1])
    };
    let med = q(0.5);
    if med == 0.0 {
        0.0
    } else {
        (q(0.75) - q(0.25)) / med.abs()
    }
}

/// Comparisons made against what the oracle expects, and how many failed.
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub struct Checks {
    pub attempted: u64,
    pub failed: u64,
}

impl Checks {
    pub fn check(&mut self, ok: bool, what: &str) {
        self.attempted += 1;
        if !ok {
            self.failed += 1;
            eprintln!("MISMATCH: {what}");
        }
    }
}

/// What an op answered: how many rows, and a checksum of their rendered
/// text that does not depend on row order (streamed, sharded and
/// materialised paths may order rows differently).
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub struct Answer {
    pub rows: u64,
    pub checksum: u64,
}

impl Answer {
    /// A verdict as a one-row answer.
    pub fn verdict(v: bool) -> Answer {
        Answer {
            rows: 1,
            checksum: v as u64,
        }
    }
}

fn fnv1a(bytes: &[u8]) -> u64 {
    bytes.iter().fold(0xcbf2_9ce4_8422_2325, |h, &b| {
        (h ^ b as u64).wrapping_mul(0x0100_0000_01b3)
    })
}

/// Formats every row into `buf` (reused across ops — the printing cost a
/// CLI user pays, without the terminal) and folds the rows into an
/// [`Answer`].
pub fn format_rows<'a>(rows: impl IntoIterator<Item = &'a Mapping>, buf: &mut String) -> Answer {
    let mut out = Answer::default();
    for mu in rows {
        buf.clear();
        write!(buf, "{mu}").expect("writing to a String cannot fail");
        out.rows += 1;
        out.checksum = out.checksum.wrapping_add(fnv1a(buf.as_bytes()));
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn percentile_is_nearest_rank() {
        let v: Vec<f64> = (1..=10).map(f64::from).collect();
        assert_eq!(percentile(&v, 50.0), 5.0);
        assert_eq!(percentile(&v, 90.0), 9.0);
        assert_eq!(percentile(&v, 100.0), 10.0);
        assert_eq!(percentile(&v, 0.0), 1.0);
        assert_eq!(percentile(&[7.0], 90.0), 7.0);
        assert_eq!(median(&[3.0, 1.0, 2.0]), 2.0);
    }

    #[test]
    fn percentile_band_is_the_mean_around_the_rank() {
        let v: Vec<f64> = (1..=100).map(f64::from).collect();
        // Ranks 45..=55 and 88..=93 (ceil of 87.5 and 92.5).
        assert_eq!(percentile_band(&v, 50.0, 5.0), 50.0);
        assert_eq!(percentile_band(&v, 90.0, 2.5), 90.5);
        assert_eq!(percentile_band(&v, 50.0, 0.0), percentile(&v, 50.0));
        assert_eq!(percentile_band(&[7.0], 90.0, 2.5), 7.0);
        // Two modes meeting at the median: the band moves in proportion
        // when one op changes sides, the bare percentile jumps.
        let modes = |low: usize| -> Vec<f64> {
            (0..100).map(|i| if i < low { 1.0 } else { 2.0 }).collect()
        };
        assert_eq!(percentile(&modes(50), 50.0), 1.0);
        assert_eq!(percentile(&modes(49), 50.0), 2.0);
        let shift = percentile_band(&modes(49), 50.0, 5.0) - percentile_band(&modes(50), 50.0, 5.0);
        assert!(shift > 0.0 && shift < 0.1, "{shift}");
    }

    #[test]
    fn quarter_sample_keeps_every_class_in_proportion() {
        let classes = class_sequence(&[0.5, 0.4, 0.1], 200, &mut SplitMix::new(3));
        let sample = quarter_sample(&classes);
        let count = |c| sample.iter().filter(|&&i| classes[i] == c).count();
        assert_eq!([count(0), count(1), count(2)], [25, 20, 5]);
        assert!(sample.windows(2).all(|w| w[0] < w[1]), "issue order");
        assert!(quarter_sample(&[]).is_empty());
    }

    #[test]
    fn best_block_and_spread() {
        let walls = [4.0, 5.0, 4.4];
        assert_eq!(fastest(&walls), 4.0);
        assert!((block_spread(&walls) - 0.1).abs() < 1e-12);
    }

    #[test]
    fn relative_spread_matches_python_quantiles() {
        // statistics.quantiles(range(1, 11), n=4) == [2.75, 5.5, 8.25]
        let v: Vec<f64> = (1..=10).map(f64::from).collect();
        assert!((relative_spread(&v) - 1.0).abs() < 1e-12);
        assert_eq!(relative_spread(&[3.0]), 0.0);
        assert_eq!(relative_spread(&[2.0, 2.0, 2.0]), 0.0);
    }

    #[test]
    fn checksum_ignores_row_order_but_not_content() {
        let a = Mapping::from_strs([("x", "a"), ("y", "b")]);
        let b = Mapping::from_strs([("x", "c")]);
        let c = Mapping::from_strs([("x", "d")]);
        let mut buf = String::new();
        let ab = format_rows([&a, &b], &mut buf);
        let ba = format_rows([&b, &a], &mut buf);
        assert_eq!(ab, ba);
        assert_eq!(ab.rows, 2);
        assert_ne!(ab, format_rows([&a, &c], &mut buf));
        assert_ne!(ab, format_rows([&a], &mut buf));
    }

    #[test]
    fn splitmix_is_deterministic_per_seed() {
        let draw = |seed| {
            let mut r = SplitMix::new(seed);
            (0..8).map(|_| r.next_u64()).collect::<Vec<_>>()
        };
        assert_eq!(draw(42), draw(42));
        assert_ne!(draw(42), draw(43));
        let mut r = SplitMix::new(1);
        assert!((0..1000).all(|_| r.skewed(10) < 10));
    }

    #[test]
    fn class_sequence_has_exact_counts() {
        let shares = [0.30, 0.25, 0.30, 0.12, 0.03];
        let seq = class_sequence(&shares, 2400, &mut SplitMix::new(9));
        let count = |c| seq.iter().filter(|&&x| x == c).count();
        assert_eq!(
            [count(0), count(1), count(2), count(3), count(4)],
            [720, 600, 720, 288, 72]
        );
        // Rounding leftovers still sum to n.
        assert_eq!(class_sequence(&shares, 7, &mut SplitMix::new(9)).len(), 7);
        assert_ne!(seq, class_sequence(&shares, 2400, &mut SplitMix::new(10)));
    }
}
