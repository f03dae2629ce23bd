//! Linked reader lists: right-unlinking as list surgery.
//!
//! A shared right memory ([`RightMemSpec`](crate::network::RightMemSpec))
//! lists every join that reads it, and most of them are dead most of the
//! time: their left memory is empty, so a WME entering or leaving the right
//! memory has nothing to pair with (Weaver: 486 of 491 readers per change).
//! [`LinkedReaders`] keeps, per right memory, the readers that are *not*
//! dead. A join links itself when its left memory goes 0 → 1 and unlinks at
//! 1 → 0 — Doorenbos right-unlinking done on a per-matcher successor list,
//! the compiled [`Network`] untouched and shared — so a right store runs
//! `linked(mem)` and books the rest as `null_skipped` by subtraction: it
//! never looks at a dead reader. vs1/vs2 ([`crate::seq`]) and the
//! set-at-a-time `col` ([`crate::colmatch`]) both use this one structure.
//!
//! The lists are ascending, like `RightMemSpec::readers`, so the live
//! readers of a store are met in the order the filter over `readers` met
//! them.

use crate::network::{JoinId, JoinNode, Network, RightMemId, RightMemSpec};

/// The filter the lists replaced: the readers of one memory `live` accepts,
/// in `readers` order.
fn live_of<'a>(
    spec: &'a RightMemSpec,
    live: &'a impl Fn(JoinId) -> bool,
) -> impl Iterator<Item = JoinId> + 'a {
    spec.readers.iter().copied().filter(move |&j| live(j))
}

/// That filter for every right memory of `net`: what tests hold a matcher's
/// `linked_readers()` to, with `live` read off its left memories.
#[doc(hidden)]
pub fn live_readers(net: &Network, live: impl Fn(JoinId) -> bool) -> Vec<Vec<JoinId>> {
    let mems = net.right_mems.iter();
    mems.map(|spec| live_of(spec, &live).collect()).collect()
}

/// Per right memory, the ascending list of readers whose left memory is
/// non-empty.
pub(crate) struct LinkedReaders {
    linked: Vec<Vec<JoinId>>,
}

impl LinkedReaders {
    /// Every left memory starts empty: nothing is linked.
    pub(crate) fn new(net: &Network) -> LinkedReaders {
        LinkedReaders {
            linked: vec![Vec::new(); net.right_mems.len()],
        }
    }

    /// `j`'s left memory went 0 → 1.
    pub(crate) fn link(&mut self, j: &JoinNode) {
        let list = &mut self.linked[j.right_mem as usize];
        match list.binary_search(&j.id) {
            Err(at) => list.insert(at, j.id),
            Ok(_) => debug_assert!(false, "join {} linked twice", j.id),
        }
    }

    /// `j`'s left memory went 1 → 0.
    pub(crate) fn unlink(&mut self, j: &JoinNode) {
        let list = &mut self.linked[j.right_mem as usize];
        match list.binary_search(&j.id) {
            Ok(at) => {
                list.remove(at);
            }
            Err(_) => debug_assert!(false, "join {} was not linked", j.id),
        }
    }

    /// The live readers of `mem`, ascending.
    #[inline]
    pub(crate) fn of(&self, mem: RightMemId) -> &[JoinId] {
        &self.linked[mem as usize]
    }

    /// All lists, indexed by right memory (tests).
    pub(crate) fn lists(&self) -> &[Vec<JoinId>] {
        &self.linked
    }

    /// Is `mem`'s list exactly the filter it replaced — the readers `live`
    /// accepts, in `readers` order? Debug assertion of every right store.
    pub(crate) fn is_the_filter(
        &self,
        net: &Network,
        mem: RightMemId,
        live: impl Fn(JoinId) -> bool,
    ) -> bool {
        live_of(&net.right_mems[mem as usize], &live).eq(self.of(mem).iter().copied())
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use ops5::Program;

    #[test]
    fn lists_stay_ascending_whatever_the_link_order() {
        let src: String = (0..6)
            .map(|i| format!("(p p{i} (a{i} ^x <v>) (b ^y <v>) --> (halt))\n"))
            .collect();
        let prog = Program::from_source(&src).unwrap();
        let net = Network::compile(&prog).unwrap();
        assert_eq!(net.right_mems.len(), 1);
        let mut l = LinkedReaders::new(&net);
        for j in [4, 1, 5, 0] {
            l.link(net.join(j));
        }
        assert_eq!(l.of(0), [0, 1, 4, 5]);
        l.unlink(net.join(1));
        l.unlink(net.join(5));
        l.link(net.join(2));
        assert_eq!(l.of(0), [0, 2, 4]);
        assert!(l.is_the_filter(&net, 0, |j| [0, 2, 4].contains(&j)));
        assert!(!l.is_the_filter(&net, 0, |j| [0, 2].contains(&j)));
    }
}
