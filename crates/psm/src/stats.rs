//! psm's counters. Each process — every match process, and the control
//! process — books plain counts into its own slot: its `MatchStats`, the
//! locks it took with the spins each cost (Tables 4-7 and 4-9), and how it
//! idled. No counter is shared, so the instrument adds no write to the
//! locks it measures; the control process sums the slots at quiescence.

use ops5::MatchStats;
use std::ops::AddAssign;

/// Lock contention: spins before acquisition and acquisitions, of the task
/// queues and per side of the hash lines, plus MRSW requeues. A queue
/// acquisition is one that pushed or popped a task; a line acquisition is a
/// simple lock taken, or an MRSW entry lock taken to claim the line.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct ContentionReport {
    pub queue_spins: u64,
    pub queue_acqs: u64,
    pub hash_spins_left: u64,
    pub hash_acqs_left: u64,
    pub hash_spins_right: u64,
    pub hash_acqs_right: u64,
    /// MRSW: tokens put back on a task queue because the line was in use by
    /// the other side.
    pub requeues: u64,
}

impl ContentionReport {
    /// Books one queue acquisition that cost `spins`.
    #[inline]
    pub fn queue(&mut self, spins: u64) {
        self.queue_spins += spins;
        self.queue_acqs += 1;
    }

    /// Books one line acquisition that cost `spins`, on the side the
    /// activation arrived on.
    #[inline]
    pub fn line(&mut self, left: bool, spins: u64) {
        let (s, a) = if left {
            (&mut self.hash_spins_left, &mut self.hash_acqs_left)
        } else {
            (&mut self.hash_spins_right, &mut self.hash_acqs_right)
        };
        *s += spins;
        *a += 1;
    }

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

impl AddAssign for ContentionReport {
    fn add_assign(&mut self, o: ContentionReport) {
        self.queue_spins += o.queue_spins;
        self.queue_acqs += o.queue_acqs;
        self.hash_spins_left += o.hash_spins_left;
        self.hash_acqs_left += o.hash_acqs_left;
        self.hash_spins_right += o.hash_spins_right;
        self.hash_acqs_right += o.hash_acqs_right;
        self.requeues += o.requeues;
    }
}

/// One process's slot: what it books, in plain numbers — its match
/// counters, the locks it took, and its idle transitions.
#[derive(Clone, Copy, Default)]
pub(crate) struct Slot {
    pub stats: MatchStats,
    pub locks: ContentionReport,
    /// Backoff transitions: spin→yield escalations and condvar parks.
    pub spin_to_yield: u64,
    pub parks: u64,
    /// Pushes that found a registered sleeper and notified the condvar.
    pub wakes: u64,
}

/// The registry counters fed from the summed slots at quiescence, with
/// their `side` label, in [`Slot::counts`]' order.
pub(crate) const COUNTERS: [(&str, &str); 10] = [
    ("psm_queue_lock_spins_total", ""),
    ("psm_queue_lock_acquisitions_total", ""),
    ("psm_line_lock_spins_total", "left"),
    ("psm_line_lock_acquisitions_total", "left"),
    ("psm_line_lock_spins_total", "right"),
    ("psm_line_lock_acquisitions_total", "right"),
    ("psm_requeues_total", ""),
    ("psm_spin_to_yield_total", ""),
    ("psm_parks_total", ""),
    ("psm_wakes_total", ""),
];

impl Slot {
    pub fn counts(&self) -> [u64; COUNTERS.len()] {
        let l = &self.locks;
        [
            l.queue_spins,
            l.queue_acqs,
            l.hash_spins_left,
            l.hash_acqs_left,
            l.hash_spins_right,
            l.hash_acqs_right,
            l.requeues,
            self.spin_to_yield,
            self.parks,
            self.wakes,
        ]
    }
}

impl AddAssign for Slot {
    fn add_assign(&mut self, o: Slot) {
        self.stats += o.stats;
        self.locks += o.locks;
        self.spin_to_yield += o.spin_to_yield;
        self.parks += o.parks;
        self.wakes += o.wakes;
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
        let mut c = ContentionReport::default();
        c.line(true, 10);
        c.line(true, 0);
        c.line(false, 4);
        c.queue(3);
        assert_eq!(c.hash_spins_left, 10);
        assert_eq!(c.hash_acqs_left, 2);
        assert!((c.avg_hash_left() - 5.0).abs() < 1e-9);
        assert!((c.avg_hash_right() - 4.0).abs() < 1e-9);
        let mut sum = c;
        sum += c;
        assert_eq!((sum.queue_spins, sum.queue_acqs), (6, 2));
        assert_eq!(sum.hash_acqs_left + sum.hash_acqs_right, 6);
    }

    #[test]
    fn avg_handles_zero_denominator() {
        let r = ContentionReport::default();
        assert_eq!(r.avg_queue(), 0.0);
    }
}
