//! The locally-buffered per-join profile of the sequential matcher.
//!
//! The hot path does plain `u64` increments; the buffered counts fold into
//! the shared atomic [`obs::NodeProfile`] once per quiesce. On
//! null-activation-dominated workloads an activation does so little work
//! that even one relaxed RMW per record costs several percent of wall, and
//! the matcher has no concurrent readers mid-cycle to serve.
//!
//! A right store is an activation of every reader of its memory, dead ones
//! included, and is buffered as one count per *memory*: the walk over the
//! readers happens at [`BufferedProfile::flush`], once per quiesce, not
//! once per change.

use crate::network::{JoinId, Network, RightMemId};
use std::sync::Arc;

pub(crate) struct BufferedProfile {
    pub(crate) shared: Arc<obs::NodeProfile>,
    /// Per join: activations booked to it directly, and tokens examined.
    acts: Vec<u64>,
    scans: Vec<u64>,
    /// Per right memory: changes stored in it since the last flush.
    stores: Vec<u64>,
}

impl BufferedProfile {
    pub(crate) fn new(net: &Network) -> BufferedProfile {
        let n_joins = net.n_joins();
        BufferedProfile {
            shared: Arc::new(obs::NodeProfile::new(n_joins)),
            acts: vec![0; n_joins],
            scans: vec![0; n_joins],
            stores: vec![0; net.right_mems.len()],
        }
    }

    /// An activation of `join` itself (a left activation).
    #[inline]
    pub(crate) fn activation(&mut self, join: JoinId) {
        self.acts[join as usize] += 1;
    }

    /// A change stored in `mem`: an activation of each of its readers.
    #[inline]
    pub(crate) fn right_store(&mut self, mem: RightMemId) {
        self.stores[mem as usize] += 1;
    }

    #[inline]
    pub(crate) fn scan(&mut self, join: JoinId, examined: u64) {
        self.scans[join as usize] += examined;
    }

    pub(crate) fn flush(&mut self, net: &Network) {
        for (spec, n) in net.right_mems.iter().zip(&mut self.stores) {
            if *n != 0 {
                for &join in &spec.readers {
                    self.acts[join as usize] += *n;
                }
                *n = 0;
            }
        }
        for (join, n) in self.acts.iter_mut().enumerate() {
            if *n != 0 {
                self.shared.record_activations(join, *n);
                *n = 0;
            }
        }
        for (join, n) in self.scans.iter_mut().enumerate() {
            if *n != 0 {
                self.shared.record_scan(join, *n);
                *n = 0;
            }
        }
    }
}
