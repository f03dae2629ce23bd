//! Working memory: the set of live WMEs plus the timetag clock.

use ops5::fxhash::FxHashMap;
use ops5::{SymbolId, Value, Wme, WmeRef};

/// The database of temporary assertions (§2.1).
///
/// WMEs are immutable; `modify` is performed by the interpreter as a remove
/// plus a make. The timetag counter is the OPS5 recency clock used by
/// conflict resolution.
#[derive(Default)]
pub struct WorkingMemory {
    /// Keyed by the timetags this clock assigns: no SipHash.
    live: FxHashMap<u64, WmeRef>,
    next_timetag: u64,
}

impl WorkingMemory {
    pub fn new() -> Self {
        WorkingMemory {
            live: FxHashMap::default(),
            next_timetag: 1,
        }
    }

    /// Creates a WME with the next timetag and registers it live.
    pub fn make(&mut self, class: SymbolId, fields: Vec<Value>) -> WmeRef {
        let tag = self.next_timetag;
        self.next_timetag += 1;
        let w = Wme::new(class, fields, tag);
        self.live.insert(tag, w.clone());
        w
    }

    /// Removes a WME by timetag; `None` if it is not live (double remove).
    pub fn remove(&mut self, timetag: u64) -> Option<WmeRef> {
        self.live.remove(&timetag)
    }

    pub fn is_live(&self, timetag: u64) -> bool {
        self.live.contains_key(&timetag)
    }

    pub fn get(&self, timetag: u64) -> Option<&WmeRef> {
        self.live.get(&timetag)
    }

    pub fn len(&self) -> usize {
        self.live.len()
    }

    pub fn is_empty(&self) -> bool {
        self.live.is_empty()
    }

    /// Iterates live WMEs (order unspecified).
    pub fn iter(&self) -> impl Iterator<Item = &WmeRef> {
        self.live.values()
    }

    /// Live WMEs of one class, sorted by timetag (deterministic dumps).
    pub fn of_class(&self, class: SymbolId) -> Vec<WmeRef> {
        let mut v: Vec<WmeRef> = self
            .live
            .values()
            .filter(|w| w.class == class)
            .cloned()
            .collect();
        v.sort_by_key(|w| w.timetag);
        v
    }

    /// Current value of the timetag clock (next tag to be assigned).
    pub fn clock(&self) -> u64 {
        self.next_timetag
    }

    /// Re-registers a WME under its recorded timetag (snapshot restore).
    /// Advances the clock past the tag; `false` if the tag is already live.
    pub fn restore_insert(&mut self, w: WmeRef) -> bool {
        if self.live.contains_key(&w.timetag) {
            return false;
        }
        self.next_timetag = self.next_timetag.max(w.timetag + 1);
        self.live.insert(w.timetag, w);
        true
    }

    /// Forces the clock forward to `clock` (snapshot restore; retracted
    /// tags must not be reissued). Never moves the clock backwards.
    pub fn set_clock(&mut self, clock: u64) {
        self.next_timetag = self.next_timetag.max(clock);
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use ops5::SymbolTable;

    #[test]
    fn timetags_increase() {
        let mut syms = SymbolTable::new();
        let c = syms.intern("a");
        let mut wm = WorkingMemory::new();
        let w1 = wm.make(c, vec![Value::Int(1)]);
        let w2 = wm.make(c, vec![Value::Int(2)]);
        assert!(w2.timetag > w1.timetag);
        assert_eq!(wm.len(), 2);
    }

    #[test]
    fn remove_is_idempotent_failure() {
        let mut syms = SymbolTable::new();
        let c = syms.intern("a");
        let mut wm = WorkingMemory::new();
        let w = wm.make(c, vec![]);
        assert!(wm.remove(w.timetag).is_some());
        assert!(wm.remove(w.timetag).is_none());
        assert!(!wm.is_live(w.timetag));
    }

    #[test]
    fn of_class_filters_and_sorts() {
        let mut syms = SymbolTable::new();
        let a = syms.intern("a");
        let b = syms.intern("b");
        let mut wm = WorkingMemory::new();
        wm.make(b, vec![]);
        wm.make(a, vec![Value::Int(2)]);
        wm.make(a, vec![Value::Int(1)]);
        let v = wm.of_class(a);
        assert_eq!(v.len(), 2);
        assert!(v[0].timetag < v[1].timetag);
    }
}
