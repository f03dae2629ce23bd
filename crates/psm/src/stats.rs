//! Contention counters for the parallel matcher's locks (Tables 4-7 and
//! 4-9). Match counters are plain `MatchStats`, one per match process.

use std::sync::atomic::{AtomicU64, Ordering};

/// Contention counters for the shared structures (Tables 4-7 and 4-9).
#[derive(Default)]
pub struct ContentionStats {
    /// Spins observed while acquiring hash-line locks, attributed to the
    /// side the activation arrived on.
    pub hash_spins_left: AtomicU64,
    pub hash_acqs_left: AtomicU64,
    pub hash_spins_right: AtomicU64,
    pub hash_acqs_right: AtomicU64,
    /// MRSW: tokens put back on the task queue because the line was in use
    /// by the other side.
    pub requeues: AtomicU64,
}

impl ContentionStats {
    #[inline]
    pub fn record_hash(&self, left: bool, spins: u64) {
        if left {
            self.hash_spins_left.fetch_add(spins, Ordering::Relaxed);
            self.hash_acqs_left.fetch_add(1, Ordering::Relaxed);
        } else {
            self.hash_spins_right.fetch_add(spins, Ordering::Relaxed);
            self.hash_acqs_right.fetch_add(1, Ordering::Relaxed);
        }
    }

    pub fn snapshot(&self) -> ContentionReport {
        let g = |a: &AtomicU64| a.load(Ordering::Relaxed);
        ContentionReport {
            queue_spins: 0,
            queue_acqs: 0,
            hash_spins_left: g(&self.hash_spins_left),
            hash_acqs_left: g(&self.hash_acqs_left),
            hash_spins_right: g(&self.hash_spins_right),
            hash_acqs_right: g(&self.hash_acqs_right),
            requeues: g(&self.requeues),
        }
    }

    pub fn reset(&self) {
        let z = |a: &AtomicU64| a.store(0, Ordering::Relaxed);
        z(&self.hash_spins_left);
        z(&self.hash_acqs_left);
        z(&self.hash_spins_right);
        z(&self.hash_acqs_right);
        z(&self.requeues);
    }
}

/// A point-in-time contention report.
#[derive(Debug, Clone, Copy, Default)]
pub struct ContentionReport {
    pub queue_spins: u64,
    pub queue_acqs: u64,
    pub hash_spins_left: u64,
    pub hash_acqs_left: u64,
    pub hash_spins_right: u64,
    pub hash_acqs_right: u64,
    pub requeues: u64,
}

impl ContentionReport {
    /// Average spins per queue-lock acquisition (Table 4-7's metric).
    pub fn avg_queue(&self) -> f64 {
        avg(self.queue_spins, self.queue_acqs)
    }
    /// Average spins per left-side hash-line acquisition (Table 4-9).
    pub fn avg_hash_left(&self) -> f64 {
        avg(self.hash_spins_left, self.hash_acqs_left)
    }
    pub fn avg_hash_right(&self) -> f64 {
        avg(self.hash_spins_right, self.hash_acqs_right)
    }
}

fn avg(num: u64, den: u64) -> f64 {
    if den == 0 {
        0.0
    } else {
        num as f64 / den as f64
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn contention_attribution() {
        let c = ContentionStats::default();
        c.record_hash(true, 10);
        c.record_hash(true, 0);
        c.record_hash(false, 4);
        let r = c.snapshot();
        assert_eq!(r.hash_spins_left, 10);
        assert_eq!(r.hash_acqs_left, 2);
        assert!((r.avg_hash_left() - 5.0).abs() < 1e-9);
        assert!((r.avg_hash_right() - 4.0).abs() < 1e-9);
    }

    #[test]
    fn avg_handles_zero_denominator() {
        let r = ContentionReport::default();
        assert_eq!(r.avg_queue(), 0.0);
    }
}
