//! The conflict set: satisfied instantiations plus refraction state, and
//! conflict resolution over them.
//!
//! Resolution costs what changed since the last cycle, not what the set
//! holds: each unfired instantiation sits in a dense array beside its
//! [`cr::Key`], built the first time a [`select`](ConflictSet::select) sees
//! it, and a select compares keys. Only two instantiations with equal keys
//! are compared in full, by [`cr::order_dominates`]: a key build and such a
//! fallback are the only chain walks a select makes.

use crate::cr::{self, Key};
use ops5::{fxhash, CsChange, Instantiation, ProdId, Strategy, SymbolId, Wme};
use std::cmp::Ordering;
use std::collections::hash_map::{Entry, HashMap};
use std::hash::{BuildHasherDefault, Hasher};
use std::mem::ManuallyDrop;

/// Key identifying an instantiation: production + matched timetags. The
/// table below keys on the instantiation itself; this form survives in the
/// cold accessors that snapshots, the serve layer and the differential
/// tests read.
type InstKey = (ProdId, Vec<u64>);

/// [`Instantiation`]'s `Hash` writes one word, already mixed from the
/// token's cached identity hash and the production: hand it to the table as
/// it is rather than hash a hash.
#[derive(Default)]
struct OneWord(u64);

impl Hasher for OneWord {
    #[inline]
    fn finish(&self) -> u64 {
        self.0
    }

    #[inline]
    fn write_u64(&mut self, word: u64) {
        self.0 = word;
    }

    /// Not reached from `Instantiation`; mixes rather than drops the bytes
    /// so that any other key would still hash.
    fn write(&mut self, bytes: &[u8]) {
        for &b in bytes {
            self.0 = fxhash::mix(self.0, b as u64);
        }
    }
}

/// A table entry's place: its index in [`ConflictSet::keyed`], or this
/// when it has fired.
const FIRED: u32 = u32::MAX;

/// The key of an entry no select has seen yet. No built key has its third
/// word above its second (both strategies put the largest tags there in
/// descending order), so a built key never reads as this.
const UNBUILT: Key = [0, 0, 1];

/// An unfired instantiation and its order key.
///
/// `inst` is the table's own key copied bit for bit, not cloned: a clone
/// would add an atomic increment of the token's count to every insert and a
/// decrement to every removal, which left Weaver's cycles after a burst of
/// 170–250 inserts about a fifth slower (EXPERIMENTS.md, "Order keys built
/// once").
/// The copy is never dropped, and it is valid while its table entry is:
/// nothing takes an entry out of the table before its `Keyed` has left
/// [`ConflictSet::keyed`].
struct Keyed {
    key: Key,
    inst: ManuallyDrop<Instantiation>,
}

impl Keyed {
    /// A key-less `Keyed` for the table entry whose key is `inst`.
    ///
    /// # Safety
    ///
    /// `inst` must be a key in [`ConflictSet::entries`], and stay there
    /// while the result is in [`ConflictSet::keyed`].
    unsafe fn alias(inst: &Instantiation) -> Keyed {
        Keyed {
            key: UNBUILT,
            // SAFETY: the caller keeps the original alive; the copy shares
            // its token without counting it, and is never dropped.
            inst: ManuallyDrop::new(unsafe { std::ptr::read(inst) }),
        }
    }
}

/// What selects have cost since the conflict set was made: every chain walk
/// (a key build or an equal-key fallback to the whole order), and every
/// candidate a select compared.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct ResolveStats {
    pub chain_walks: u64,
    pub candidates: u64,
}

/// The conflict set.
///
/// One table from instantiation to its place, which implements OPS5
/// refraction: an instantiation fires at most once while it remains
/// continuously in the conflict set; if the match phase retracts it and
/// later re-derives it, it becomes eligible again. An unfired entry's place
/// is its index in the dense array of candidates, which removal and firing
/// take it out of; a fired entry stays in the table alone.
///
/// Folding a match-phase delta allocates nothing once the storage has grown
/// and hashes nothing: the entry *is* the token the matcher emitted, found
/// through the word that token has carried since the join that built it.
/// Two instantiations whose words collide are still two entries, because
/// equality is production and timetag sequence (a chain walk), never the
/// word.
#[derive(Default)]
pub struct ConflictSet {
    entries: HashMap<Instantiation, u32, BuildHasherDefault<OneWord>>,
    /// The unfired instantiations, in no order.
    keyed: Vec<Keyed>,
    /// The strategy the built keys were built for.
    keys_for: Option<Strategy>,
    stats: ResolveStats,
}

impl ConflictSet {
    pub fn new() -> Self {
        ConflictSet::default()
    }

    /// Applies one match-phase delta.
    pub fn apply(&mut self, change: CsChange) {
        match change {
            // SAFETY (both aliases): the entry stays in the table until a
            // `Remove`, which takes its `Keyed` out first.
            CsChange::Insert(inst) => match self.entries.entry(inst) {
                // Re-inserting an identical live instantiation is a matcher
                // bug in the sequential engines; the parallel matcher never
                // emits it either (conjugate pairs are annihilated before
                // the terminal). The entry stays, fired state resets.
                Entry::Occupied(mut e) => {
                    if *e.get() == FIRED {
                        e.insert(self.keyed.len() as u32);
                        self.keyed.push(unsafe { Keyed::alias(e.key()) });
                    }
                }
                Entry::Vacant(e) => {
                    let place = self.keyed.len() as u32;
                    self.keyed
                        .push(unsafe { Keyed::alias(e.insert_entry(place).key()) });
                }
            },
            CsChange::Remove(inst) => {
                if let Some((key, place)) = self.entries.remove_entry(&inst) {
                    // The table's key outlives its alias in `keyed`.
                    self.take(place);
                    drop(key);
                }
            }
        }
    }

    pub fn apply_all(&mut self, changes: impl IntoIterator<Item = CsChange>) {
        for c in changes {
            self.apply(c);
        }
    }

    /// Takes the unfired entry at `place` out of the keyed array (nothing
    /// for [`FIRED`]); the last entry moves into its place.
    fn take(&mut self, place: u32) {
        if place == FIRED {
            return;
        }
        let i = place as usize;
        self.keyed.swap_remove(i);
        if let Some(moved) = self.keyed.get(i) {
            *self
                .entries
                .get_mut(&moved.inst)
                .expect("a keyed instantiation is in the table") = place;
        }
    }

    /// The dominant unfired instantiation under `strategy` (`specificity`
    /// is [`cr::specificities`] of the program), or `None` when every entry
    /// has fired. Builds the keys of the entries that arrived since the
    /// last select, or all of them if the strategy changed.
    pub fn select(&mut self, strategy: Strategy, specificity: &[u32]) -> Option<&Instantiation> {
        if self.keys_for != Some(strategy) {
            self.keys_for = Some(strategy);
            self.keyed.iter_mut().for_each(|k| k.key = UNBUILT);
        }
        let mut walks = 0;
        let mut best = 0;
        for i in 0..self.keyed.len() {
            let c = &mut self.keyed[i];
            if c.key == UNBUILT {
                c.key = cr::key(strategy, &c.inst.wmes);
                walks += 1;
            }
            if i == 0 {
                continue;
            }
            let (c, b) = (&self.keyed[i], &self.keyed[best]);
            let wins = match c.key.cmp(&b.key) {
                Ordering::Equal => {
                    walks += 1;
                    cr::order_dominates(strategy, &c.inst, &b.inst, specificity).is_gt()
                }
                order => order.is_gt(),
            };
            if wins {
                best = i;
            }
        }
        self.stats.chain_walks += walks;
        self.stats.candidates += self.keyed.len() as u64;
        self.keyed.get(best).map(|k| &*k.inst)
    }

    /// What selects have cost so far.
    pub fn resolve_stats(&self) -> ResolveStats {
        self.stats
    }

    /// All unfired instantiations (candidates for conflict resolution).
    pub fn candidates(&self) -> impl Iterator<Item = &Instantiation> {
        self.keyed.iter().map(|k| &*k.inst)
    }

    /// Marks an instantiation fired (refraction).
    pub fn mark_fired(&mut self, inst: &Instantiation) -> bool {
        match self.entries.get_mut(inst) {
            Some(place) => {
                let was = std::mem::replace(place, FIRED);
                self.take(was);
                true
            }
            None => false,
        }
    }

    pub fn len(&self) -> usize {
        self.entries.len()
    }

    pub fn is_empty(&self) -> bool {
        self.entries.is_empty()
    }

    /// Keys of entries that have fired (refraction state), sorted — the
    /// durable slice of the conflict set a snapshot must carry.
    pub fn fired_keys(&self) -> Vec<InstKey> {
        let mut v: Vec<InstKey> = self
            .entries
            .iter()
            .filter(|(_, place)| **place == FIRED)
            .map(|(inst, _)| inst.key())
            .collect();
        v.sort();
        v
    }

    /// Marks the entry with this key fired (snapshot restore); `false` if
    /// no such instantiation is present. Reaches the entry through the
    /// table like any other lookup: identity is the timetag sequence alone,
    /// so a token of content-free WMEs carrying `key`'s timetags hashes and
    /// compares as the live instantiation does.
    pub fn mark_fired_key(&mut self, key: &InstKey) -> bool {
        let (prod, tags) = key;
        let probe = Instantiation {
            prod: *prod,
            wmes: tags
                .iter()
                .map(|&t| Wme::new(SymbolId::NIL, Vec::new(), t))
                .collect(),
        };
        self.mark_fired(&probe)
    }

    /// Deterministic dump for differential tests: sorted instantiation keys.
    pub fn sorted_keys(&self) -> Vec<InstKey> {
        let mut v: Vec<InstKey> = self.entries.keys().map(Instantiation::key).collect();
        v.sort();
        v
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use ops5::Value;

    fn inst(prod: u32, tags: &[u64]) -> Instantiation {
        Instantiation {
            prod: ProdId(prod),
            wmes: tags
                .iter()
                .map(|&t| Wme::new(SymbolId(1), vec![Value::Int(t as i64)], t))
                .collect(),
        }
    }

    /// A table bucket is the instantiation and its place: 24 bytes, the
    /// same as with a `bool` flag, because the place fills alignment
    /// padding.
    #[test]
    fn a_bucket_stays_24_bytes() {
        assert_eq!(std::mem::size_of::<(Instantiation, u32)>(), 24);
        assert_eq!(std::mem::size_of::<(Instantiation, bool)>(), 24);
    }

    #[test]
    fn insert_remove_roundtrip() {
        let mut cs = ConflictSet::new();
        cs.apply(CsChange::Insert(inst(0, &[1, 2])));
        assert_eq!(cs.len(), 1);
        cs.apply(CsChange::Remove(inst(0, &[1, 2])));
        assert!(cs.is_empty());
    }

    #[test]
    fn refraction() {
        let mut cs = ConflictSet::new();
        let i = inst(0, &[1]);
        cs.apply(CsChange::Insert(i.clone()));
        assert_eq!(cs.candidates().count(), 1);
        assert!(cs.mark_fired(&i));
        assert_eq!(
            cs.candidates().count(),
            0,
            "fired instantiation not a candidate"
        );
        assert_eq!(cs.len(), 1, "but it remains in the set");
        // Retraction and re-derivation resets refraction.
        cs.apply(CsChange::Remove(i.clone()));
        cs.apply(CsChange::Insert(i));
        assert_eq!(cs.candidates().count(), 1);
    }

    #[test]
    fn reinserting_a_live_instantiation_resets_fired() {
        let mut cs = ConflictSet::new();
        cs.apply(CsChange::Insert(inst(0, &[1, 2])));
        assert!(cs.mark_fired(&inst(0, &[1, 2])));
        assert_eq!(cs.fired_keys(), vec![(ProdId(0), vec![1, 2])]);
        // A second token with the same identity, not the same allocation.
        cs.apply(CsChange::Insert(inst(0, &[1, 2])));
        assert_eq!(cs.len(), 1);
        assert_eq!(cs.candidates().count(), 1);
        assert!(cs.fired_keys().is_empty());
    }

    #[test]
    fn distinct_productions_same_tags() {
        let mut cs = ConflictSet::new();
        cs.apply(CsChange::Insert(inst(0, &[1])));
        cs.apply(CsChange::Insert(inst(1, &[1])));
        assert_eq!(cs.len(), 2);
    }

    #[test]
    fn sorted_keys_deterministic() {
        let mut cs = ConflictSet::new();
        cs.apply(CsChange::Insert(inst(1, &[3])));
        cs.apply(CsChange::Insert(inst(0, &[9])));
        let keys = cs.sorted_keys();
        assert_eq!(keys[0].0, ProdId(0));
        assert_eq!(keys[1].0, ProdId(1));
    }

    #[test]
    fn mark_fired_key_finds_its_entry_among_many() {
        let mut cs = ConflictSet::new();
        for p in 0..3 {
            for a in 1..40u64 {
                cs.apply(CsChange::Insert(inst(p, &[a, a + 1, 100 - a])));
            }
        }
        assert!(cs.mark_fired_key(&(ProdId(1), vec![7, 8, 93])));
        assert!(
            !cs.mark_fired_key(&(ProdId(1), vec![8, 7, 93])),
            "order matters"
        );
        assert!(!cs.mark_fired_key(&(ProdId(3), vec![7, 8, 93])));
        assert!(!cs.mark_fired_key(&(ProdId(1), vec![7, 8])));
        assert_eq!(cs.fired_keys(), vec![(ProdId(1), vec![7, 8, 93])]);
        assert_eq!(cs.candidates().count(), cs.len() - 1);
    }
}
