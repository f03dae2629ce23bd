//! Order statistics for the ledger's reports.
//!
//! Every timing is reported as a median plus the highest percentile the
//! sample can support: a percentile is only trusted when at least
//! [`MIN_BEYOND`] samples lie beyond it, so a 300-sample run reports p95 and
//! says so instead of printing a p99 made of three points.

/// Samples that must lie strictly beyond a reported tail percentile.
pub const MIN_BEYOND: usize = 10;

/// The tail percentiles the ledger is willing to report, best first.
const TAILS: [f64; 4] = [99.0, 95.0, 90.0, 75.0];

/// Five-number summary of one metric's samples.
#[derive(Debug, Clone, PartialEq)]
pub struct Summary {
    pub n: usize,
    pub min: f64,
    pub q1: f64,
    pub median: f64,
    pub q3: f64,
    pub max: f64,
}

impl Summary {
    /// Summarises `samples` (any order). `None` for an empty sample.
    pub fn of(samples: &[f64]) -> Option<Summary> {
        if samples.is_empty() {
            return None;
        }
        let mut s = samples.to_vec();
        s.sort_by(f64::total_cmp);
        Some(Summary {
            n: s.len(),
            min: s[0],
            q1: quantile(&s, 0.25),
            median: quantile(&s, 0.5),
            q3: quantile(&s, 0.75),
            max: s[s.len() - 1],
        })
    }

    /// A one-sample summary, for counters and single measurements.
    pub fn single(v: f64) -> Summary {
        Summary {
            n: 1,
            min: v,
            q1: v,
            median: v,
            q3: v,
            max: v,
        }
    }
}

/// Linear-interpolated quantile of an ascending-sorted, non-empty slice.
pub fn quantile(sorted: &[f64], q: f64) -> f64 {
    debug_assert!(!sorted.is_empty());
    let pos = q.clamp(0.0, 1.0) * (sorted.len() - 1) as f64;
    let lo = pos.floor() as usize;
    let hi = pos.ceil() as usize;
    sorted[lo] + (sorted[hi] - sorted[lo]) * (pos - lo as f64)
}

/// The quantile the end-to-end rows of the direct workloads take over the
/// repetitions of one operation. This host's noise only ever slows: seconds
/// at a time it runs single-threaded code 1.3-1.6x slower, and in a bad
/// minute most repetitions are hit, so the median of them moves by a
/// quarter between runs of one binary while their fastest decile moves by
/// 2 %. The lowest decile rather than the minimum: one freak reading cannot
/// set it.
pub const QUIET: f64 = 0.1;

/// Operations per group when a run's time is put together from quiet
/// quantiles ([`aligned_sum`]): long enough that the sum is a stretch of
/// real execution (a few ms), short enough that some repetition of every
/// group falls outside the host's slow phases.
pub const SEGMENT: usize = 64;

/// The [`QUIET`] quantile of a plain sample.
pub fn quiet(samples: &[f64]) -> f64 {
    let mut s = samples.to_vec();
    s.sort_by(f64::total_cmp);
    if s.is_empty() {
        return f64::NAN;
    }
    quantile(&s, QUIET)
}

/// Replay-aligned quantile. `reps[r][i]` is how long operation `i` of a
/// deterministic replay took in repetition `r` (single precision: the logs
/// are the ledger's own memory, which `peak_rss_mb` should not measure); the result holds, for each
/// `i`, the `q`-quantile over the repetitions that reached it. Comparing an
/// operation only with its own repetitions separates what the operation
/// costs from when the host happened to be slow: a burst that covers some
/// repetitions of an operation moves none of the quantiles below it.
pub fn aligned<R: AsRef<[f32]>>(reps: &[R], q: f64) -> Vec<f64> {
    let len = reps.iter().map(|r| r.as_ref().len()).max().unwrap_or(0);
    let mut column: Vec<f64> = Vec::with_capacity(reps.len());
    (0..len)
        .map(|i| {
            column.clear();
            column.extend(
                reps.iter()
                    .filter_map(|r| r.as_ref().get(i))
                    .map(|x| *x as f64),
            );
            column.sort_by(f64::total_cmp);
            quantile(&column, q)
        })
        .collect()
}

/// [`aligned`] over runs of `seg` consecutive operations: each repetition's
/// operation times are summed in groups of `seg` first (a ragged last group
/// counts only where whole), so jitter that belongs to the operations
/// themselves averages out inside a group before the quantile is taken.
pub fn aligned_sum<R: AsRef<[f32]>>(reps: &[R], seg: usize, q: f64) -> f64 {
    let len = reps.iter().map(|r| r.as_ref().len()).max().unwrap_or(0);
    let grouped: Vec<Vec<f32>> = reps
        .iter()
        .map(|r| {
            r.as_ref()
                .chunks(seg)
                .enumerate()
                .filter(|(g, c)| c.len() == seg || g * seg + c.len() == len)
                .map(|(_, c)| c.iter().sum())
                .collect()
        })
        .collect();
    aligned(&grouped, q).iter().sum()
}

/// Nearest-rank percentile of an ascending-sorted slice: the smallest sample
/// with at least `p` percent of the sample at or below it.
pub fn percentile(sorted: &[f64], p: f64) -> f64 {
    debug_assert!(!sorted.is_empty());
    let rank = ((p / 100.0) * sorted.len() as f64).ceil() as usize;
    sorted[rank.clamp(1, sorted.len()) - 1]
}

/// Samples strictly beyond the nearest-rank `p`-th percentile position.
fn beyond(n: usize, p: f64) -> usize {
    let rank = ((p / 100.0) * n as f64).ceil() as usize;
    n - rank.clamp(1, n)
}

/// The highest of p99/p95/p90/p75 with at least [`MIN_BEYOND`] samples
/// beyond it, as `(percentile, value)`; falls back to the maximum (p100)
/// when the sample is too small for any of them.
pub fn supported_tail(sorted: &[f64]) -> (f64, f64) {
    for p in TAILS {
        if beyond(sorted.len(), p) >= MIN_BEYOND {
            return (p, percentile(sorted, p));
        }
    }
    (100.0, sorted[sorted.len() - 1])
}

/// Latency sample → (p50, p99, tail actually supported). The p99 value is
/// always computed (the metric name is fixed by `BENCHMARK.json`); the third
/// field tells the reader which percentile the sample really supports.
pub struct Latency {
    pub n: usize,
    pub p50: f64,
    pub p99: f64,
    pub supported: (f64, f64),
}

impl Latency {
    pub fn of(samples: &mut [f64]) -> Option<Latency> {
        if samples.is_empty() {
            return None;
        }
        samples.sort_by(f64::total_cmp);
        Some(Latency {
            n: samples.len(),
            p50: percentile(samples, 50.0),
            p99: percentile(samples, 99.0),
            supported: supported_tail(samples),
        })
    }
}

/// The difference between two adjacent shells of an onion measurement
/// (`outer - inner`), which noise can push below zero. A negative
/// difference is never reported as a cost: it is clamped to zero and
/// flagged, so the reader sees "below the noise floor", not a negative time.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct Diff {
    pub value: f64,
    pub clamped: bool,
}

pub fn onion_diff(outer: f64, inner: f64) -> Diff {
    let d = outer - inner;
    if d < 0.0 {
        Diff {
            value: 0.0,
            clamped: true,
        }
    } else {
        Diff {
            value: d,
            clamped: false,
        }
    }
}

/// FNV-1a over bytes, chainable: the ledger's one digest for firing logs,
/// replies and folded conflict sets. Deterministic across runs and hosts.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Fnv(pub u64);

impl Default for Fnv {
    fn default() -> Fnv {
        Fnv(0xcbf2_9ce4_8422_2325)
    }
}

impl Fnv {
    pub fn bytes(&mut self, b: &[u8]) {
        for &x in b {
            self.0 ^= x as u64;
            self.0 = self.0.wrapping_mul(0x0000_0100_0000_01b3);
        }
    }

    pub fn u64(&mut self, v: u64) {
        self.bytes(&v.to_le_bytes());
    }

    pub fn of(b: &[u8]) -> u64 {
        let mut h = Fnv::default();
        h.bytes(b);
        h.0
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn summary_matches_python_inclusive_quartiles() {
        // statistics.quantiles([1..=9], n=4, method="inclusive") = [3, 5, 7]
        let v: Vec<f64> = (1..=9).map(f64::from).collect();
        let s = Summary::of(&v).unwrap();
        assert_eq!(
            (s.min, s.q1, s.median, s.q3, s.max),
            (1.0, 3.0, 5.0, 7.0, 9.0)
        );
        assert_eq!(s.n, 9);
    }

    #[test]
    fn summary_interpolates_and_ignores_input_order() {
        let s = Summary::of(&[4.0, 1.0, 3.0, 2.0]).unwrap();
        assert_eq!(s.median, 2.5);
        assert_eq!(s.q1, 1.75);
        assert_eq!(s.q3, 3.25);
        assert!(Summary::of(&[]).is_none());
        assert_eq!(Summary::single(7.0).q3, 7.0);
    }

    #[test]
    fn nearest_rank_percentiles() {
        let v: Vec<f64> = (1..=100).map(f64::from).collect();
        assert_eq!(percentile(&v, 50.0), 50.0);
        assert_eq!(percentile(&v, 99.0), 99.0);
        assert_eq!(percentile(&v, 100.0), 100.0);
        assert_eq!(percentile(&[5.0], 99.0), 5.0);
    }

    #[test]
    fn tail_needs_ten_samples_beyond() {
        // 1000 samples: p99 sits at rank 990, exactly 10 beyond -> p99.
        let v: Vec<f64> = (1..=1000).map(f64::from).collect();
        assert_eq!(supported_tail(&v), (99.0, 990.0));
        // 999 samples: rank 990, 9 beyond -> p99 refused, p95 it is.
        let v: Vec<f64> = (1..=999).map(f64::from).collect();
        assert_eq!(supported_tail(&v).0, 95.0);
        // 200 samples: p95 has exactly 10 beyond.
        let v: Vec<f64> = (1..=200).map(f64::from).collect();
        assert_eq!(supported_tail(&v), (95.0, 190.0));
        // 100 samples: p90 has 10 beyond.
        let v: Vec<f64> = (1..=100).map(f64::from).collect();
        assert_eq!(supported_tail(&v).0, 90.0);
        // 40 samples: p75 has 10 beyond; 39 samples: nothing qualifies.
        let v: Vec<f64> = (1..=40).map(f64::from).collect();
        assert_eq!(supported_tail(&v).0, 75.0);
        let v: Vec<f64> = (1..=39).map(f64::from).collect();
        assert_eq!(supported_tail(&v), (100.0, 39.0));
    }

    #[test]
    fn latency_reports_fixed_p99_and_supported_tail() {
        let mut v: Vec<f64> = (1..=200).rev().map(f64::from).collect();
        let l = Latency::of(&mut v).unwrap();
        assert_eq!((l.n, l.p50, l.p99), (200, 100.0, 198.0));
        assert_eq!(l.supported, (95.0, 190.0));
        assert!(Latency::of(&mut []).is_none());
    }

    #[test]
    fn aligned_quantiles_ignore_a_slow_minority_of_repetitions() {
        // Ten repetitions of a three-operation replay; two of them ran
        // during a slow phase of the host (3x).
        let quiet = vec![10.0f32, 200.0, 30.0];
        let slow: Vec<f32> = quiet.iter().map(|x| x * 3.0).collect();
        let mut reps = vec![quiet.clone(); 8];
        reps.insert(3, slow.clone());
        reps.push(slow);
        assert_eq!(aligned(&reps, QUIET), vec![10.0, 200.0, 30.0]);
        assert_eq!(aligned(&reps, 0.5), vec![10.0, 200.0, 30.0]);
        // Each operation is compared with itself only: the slow one does not
        // leak into its neighbours' columns.
        assert_eq!(aligned(&reps, 1.0), vec![30.0, 600.0, 90.0]);
        // A repetition cut short counts where it got to.
        let ragged = vec![vec![1.0f32, 2.0, 3.0], vec![3.0]];
        assert_eq!(aligned(&ragged, 0.5), vec![2.0, 2.0, 3.0]);
        assert!(aligned::<Vec<f32>>(&[], 0.5).is_empty());
    }

    #[test]
    fn aligned_sums_average_jitter_inside_a_segment_first() {
        // Two operations that trade 10 us back and forth: per operation the
        // lower quantile picks the lucky side of both, per segment of two it
        // sees the 30 us both repetitions really took.
        let reps = vec![vec![10.0f32, 20.0], vec![20.0, 10.0]];
        assert_eq!(aligned(&reps, 0.0).iter().sum::<f64>(), 20.0);
        assert_eq!(aligned_sum(&reps, 2, 0.0), 30.0);
        assert_eq!(aligned_sum(&reps, 1, 0.0), 20.0);
        // A ragged last group counts only where it is whole.
        let reps = vec![vec![1.0f32, 1.0, 1.0, 5.0, 5.0], vec![1.0, 1.0, 1.0, 9.0]];
        assert_eq!(aligned_sum(&reps, 3, 0.5), 3.0 + 10.0);
        assert_eq!(quiet(&[5.0, 1.0, 3.0]), 1.4);
        assert!(quiet(&[]).is_nan());
    }

    #[test]
    fn onion_differences_are_never_negative_without_a_flag() {
        assert_eq!(
            onion_diff(12.0, 9.5),
            Diff {
                value: 2.5,
                clamped: false
            }
        );
        assert_eq!(
            onion_diff(9.0, 9.5),
            Diff {
                value: 0.0,
                clamped: true
            }
        );
        assert!(!onion_diff(3.0, 3.0).clamped);
    }

    #[test]
    fn fnv_is_order_sensitive_and_stable() {
        assert_eq!(Fnv::of(b""), 0xcbf2_9ce4_8422_2325);
        assert_eq!(Fnv::of(b"a"), 0xaf63_dc4c_8601_ec8c);
        assert_ne!(Fnv::of(b"ab"), Fnv::of(b"ba"));
    }
}
