//! The conflict set: satisfied instantiations plus refraction state.

use ops5::{fxhash, CsChange, Instantiation, ProdId, SymbolId, Wme};
use std::collections::HashMap;
use std::hash::{BuildHasherDefault, Hasher};

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

/// The conflict set.
///
/// One table from instantiation to its `fired` flag, which implements OPS5
/// refraction: an instantiation fires at most once while it remains
/// continuously in the conflict set; if the match phase retracts it and
/// later re-derives it, it becomes eligible again.
///
/// Folding a match-phase delta allocates nothing and hashes nothing: the
/// entry *is* the token the matcher emitted, found through the word that
/// token has carried since the join that built it. Two instantiations whose
/// words collide are still two entries, because equality is production and
/// timetag sequence (a chain walk), never the word.
#[derive(Default)]
pub struct ConflictSet {
    entries: HashMap<Instantiation, bool, BuildHasherDefault<OneWord>>,
}

impl ConflictSet {
    pub fn new() -> Self {
        ConflictSet::default()
    }

    /// Applies one match-phase delta.
    pub fn apply(&mut self, change: CsChange) {
        match change {
            CsChange::Insert(inst) => {
                // Re-inserting an identical live instantiation is a matcher
                // bug in the sequential engines; the parallel matcher never
                // emits it either (conjugate pairs are annihilated before
                // the terminal). The entry stays, fired state resets.
                self.entries.insert(inst, false);
            }
            CsChange::Remove(inst) => {
                self.entries.remove(&inst);
            }
        }
    }

    pub fn apply_all(&mut self, changes: impl IntoIterator<Item = CsChange>) {
        for c in changes {
            self.apply(c);
        }
    }

    /// All unfired instantiations (candidates for conflict resolution).
    pub fn candidates(&self) -> impl Iterator<Item = &Instantiation> {
        self.entries
            .iter()
            .filter(|(_, fired)| !**fired)
            .map(|(inst, _)| inst)
    }

    /// Marks an instantiation fired (refraction).
    pub fn mark_fired(&mut self, inst: &Instantiation) -> bool {
        match self.entries.get_mut(inst) {
            Some(fired) => {
                *fired = true;
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
            .filter(|(_, fired)| **fired)
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
