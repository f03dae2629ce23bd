//! Interned symbols.
//!
//! Every identifier that flows through the matcher — class names, attribute
//! names, symbolic constants — is interned once into a [`SymbolTable`] and
//! afterwards handled as a 4-byte [`SymbolId`]. All hot-path comparisons and
//! hashing work on the id, never the string, mirroring the paper's
//! "compiled" representation where symbols are machine words.

use crate::fxhash::FxHashMap;
use std::fmt;
use std::sync::Arc;

/// A 4-byte handle to an interned symbol.
///
/// Ids are dense, starting at 0, and stable for the life of the
/// [`SymbolTable`] that produced them.
#[derive(Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord)]
pub struct SymbolId(pub u32);

impl fmt::Debug for SymbolId {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "sym#{}", self.0)
    }
}

impl SymbolId {
    /// The distinguished `nil` symbol. A fresh [`SymbolTable`] always interns
    /// `nil` first, so this id is valid against any table.
    pub const NIL: SymbolId = SymbolId(0);

    /// Raw index, usable for dense side tables.
    #[inline]
    pub fn index(self) -> usize {
        self.0 as usize
    }
}

/// A string interner. Owned by the control thread; match threads only ever
/// see `SymbolId`s.
///
/// Each name is stored once and shared between the two directions of the
/// map, so cloning a table (one clone per engine instantiated from a shared
/// compiled program) copies pointers, not bytes. Names are hashed with the
/// crate's Fx mix: interning is most of what a parse does per token, and a
/// name is a few bytes.
#[derive(Debug, Clone)]
pub struct SymbolTable {
    by_name: FxHashMap<Arc<str>, SymbolId>,
    names: Vec<Arc<str>>,
    gensym_counter: u64,
}

impl Default for SymbolTable {
    fn default() -> Self {
        Self::new()
    }
}

impl SymbolTable {
    /// Creates a table with `nil` pre-interned as [`SymbolId::NIL`].
    pub fn new() -> Self {
        let mut t = SymbolTable {
            by_name: FxHashMap::default(),
            names: Vec::new(),
            gensym_counter: 0,
        };
        let nil = t.intern("nil");
        debug_assert_eq!(nil, SymbolId::NIL);
        t
    }

    /// Interns `name`, returning the existing id if already present.
    pub fn intern(&mut self, name: &str) -> SymbolId {
        if let Some(&id) = self.by_name.get(name) {
            return id;
        }
        let id = SymbolId(self.names.len() as u32);
        let name: Arc<str> = Arc::from(name);
        self.names.push(name.clone());
        self.by_name.insert(name, id);
        id
    }

    /// Looks up an already-interned symbol without inserting.
    pub fn get(&self, name: &str) -> Option<SymbolId> {
        self.by_name.get(name).copied()
    }

    /// The name behind an id. Panics on a foreign id.
    pub fn name(&self, id: SymbolId) -> &str {
        &self.names[id.index()]
    }

    /// Number of interned symbols.
    pub fn len(&self) -> usize {
        self.names.len()
    }

    /// True when only `nil` is interned.
    pub fn is_empty(&self) -> bool {
        self.names.len() <= 1
    }

    /// Generates a fresh unique symbol (`g1`, `g2`, ...), used by the RHS
    /// `bind` action with no expression (OPS5 `genatom` semantics).
    pub fn gensym(&mut self) -> SymbolId {
        loop {
            self.gensym_counter += 1;
            let name = format!("g{}", self.gensym_counter);
            if !self.by_name.contains_key(name.as_str()) {
                return self.intern(&name);
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn nil_is_zero() {
        let t = SymbolTable::new();
        assert_eq!(t.name(SymbolId::NIL), "nil");
        assert_eq!(t.get("nil"), Some(SymbolId::NIL));
    }

    #[test]
    fn intern_is_idempotent() {
        let mut t = SymbolTable::new();
        let a = t.intern("goal");
        let b = t.intern("goal");
        assert_eq!(a, b);
        assert_eq!(t.name(a), "goal");
        assert_eq!(t.len(), 2);
    }

    #[test]
    fn distinct_names_get_distinct_ids() {
        let mut t = SymbolTable::new();
        let a = t.intern("a");
        let b = t.intern("b");
        assert_ne!(a, b);
    }

    #[test]
    fn gensym_never_collides() {
        let mut t = SymbolTable::new();
        t.intern("g1");
        let g = t.gensym();
        assert_eq!(t.name(g), "g2");
        let g2 = t.gensym();
        assert_eq!(t.name(g2), "g3");
    }

    #[test]
    fn clone_shares_name_storage_and_diverges_independently() {
        let mut a = SymbolTable::new();
        let goal = a.intern("goal");
        let mut b = a.clone();
        // One allocation per name, shared by both maps of both tables.
        assert!(Arc::ptr_eq(&a.names[goal.index()], &b.names[goal.index()]));
        let (key, _) = b.by_name.get_key_value("goal").unwrap();
        assert!(Arc::ptr_eq(key, &a.names[goal.index()]));
        // The clones extend the same prefix, each on its own.
        let xa = a.intern("only-a");
        let xb = b.intern("only-b");
        assert_eq!(xa, xb, "both take the next free id");
        assert_eq!(a.name(xa), "only-a");
        assert_eq!(b.name(xb), "only-b");
        assert_eq!(a.get("only-b"), None);
        assert_eq!(a.gensym(), b.gensym(), "gensym counters are per table");
    }

    #[test]
    fn get_does_not_insert() {
        let t = SymbolTable::new();
        assert_eq!(t.get("missing"), None);
        assert_eq!(t.len(), 1);
    }
}
