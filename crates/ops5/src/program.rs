//! Program container: class table, productions, strategy.

use crate::ast::Production;
use crate::error::{Ops5Error, Result};
use crate::fxhash::FxHashMap;
use crate::symbol::{SymbolId, SymbolTable};
use std::sync::Arc;

/// Dense production identifier (index into `Program::productions`).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord)]
pub struct ProdId(pub u32);

impl ProdId {
    #[inline]
    pub fn index(self) -> usize {
        self.0 as usize
    }
}

/// Conflict-resolution strategy (OPS5 LEX or MEA).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub enum Strategy {
    #[default]
    Lex,
    Mea,
}

/// Per-class attribute layout: attribute name → field index.
#[derive(Debug, Clone, Default)]
pub struct ClassInfo {
    /// Attribute names in field order.
    pub attrs: Vec<SymbolId>,
    index: FxHashMap<SymbolId, u16>,
}

impl ClassInfo {
    pub fn field_of(&self, attr: SymbolId) -> Option<u16> {
        self.index.get(&attr).copied()
    }

    pub fn arity(&self) -> u16 {
        self.attrs.len() as u16
    }

    fn add(&mut self, attr: SymbolId) -> u16 {
        if let Some(&i) = self.index.get(&attr) {
            return i;
        }
        let i = self.attrs.len() as u16;
        self.attrs.push(attr);
        self.index.insert(attr, i);
        i
    }
}

/// Maps class names to their attribute layouts.
///
/// Layouts come from `literalize` declarations; in *auto* mode (the default)
/// attributes first seen in a production or a `make` are appended to the
/// class layout, which is how most small OPS5 programs are written.
#[derive(Debug, Clone, Default)]
pub struct ClassTable {
    classes: FxHashMap<SymbolId, ClassInfo>,
    /// When false, referencing an undeclared attribute is an error.
    pub auto_extend: bool,
}

impl ClassTable {
    pub fn new() -> Self {
        ClassTable {
            classes: FxHashMap::default(),
            auto_extend: true,
        }
    }

    /// Handles a `(literalize class a b c)` declaration.
    pub fn literalize(&mut self, class: SymbolId, attrs: &[SymbolId]) {
        let info = self.classes.entry(class).or_default();
        for &a in attrs {
            info.add(a);
        }
    }

    /// Resolves `class ^attr` to a field index, extending the layout in auto
    /// mode.
    pub fn resolve(&mut self, class: SymbolId, attr: SymbolId) -> Result<u16> {
        let auto = self.auto_extend;
        let info = self.classes.entry(class).or_default();
        if let Some(i) = info.field_of(attr) {
            return Ok(i);
        }
        if auto {
            Ok(info.add(attr))
        } else {
            Err(Ops5Error::Semantic(format!(
                "attribute sym#{} not literalized for class sym#{}",
                attr.0, class.0
            )))
        }
    }

    pub fn info(&self, class: SymbolId) -> Option<&ClassInfo> {
        self.classes.get(&class)
    }

    /// Field arity of a class (0 for unknown classes).
    pub fn arity(&self, class: SymbolId) -> u16 {
        self.classes.get(&class).map_or(0, |c| c.arity())
    }

    pub fn classes(&self) -> impl Iterator<Item = (&SymbolId, &ClassInfo)> {
        self.classes.iter()
    }
}

/// A top-level `(make ...)` startup form: initial working memory declared
/// in the source file.
#[derive(Debug, Clone, PartialEq)]
pub struct StartupWme {
    pub class: SymbolId,
    /// (field index, value) pairs.
    pub sets: Vec<(u16, crate::value::Value)>,
}

/// A parsed OPS5 program: symbol table, class layouts, productions,
/// startup working memory, and the conflict-resolution strategy.
///
/// The productions are immutable once parsed and shared between clones
/// (every engine instantiated from one compiled program holds the same
/// AST); the symbol and class tables are per clone, because a running
/// engine interns symbols and auto-extends class layouts.
#[derive(Debug, Clone)]
pub struct Program {
    pub symbols: SymbolTable,
    pub classes: ClassTable,
    pub productions: Arc<Vec<Production>>,
    /// Top-level `(make ...)` forms, in source order.
    pub startup: Vec<StartupWme>,
    pub strategy: Strategy,
}

impl Default for Program {
    fn default() -> Self {
        Self::new()
    }
}

impl Program {
    pub fn new() -> Self {
        Program {
            symbols: SymbolTable::new(),
            classes: ClassTable::new(),
            productions: Arc::new(Vec::new()),
            startup: Vec::new(),
            strategy: Strategy::Lex,
        }
    }

    /// Parses OPS5 source text into this program (appending productions).
    pub fn parse_str(&mut self, src: &str) -> Result<()> {
        crate::parser::parse_into(self, src)
    }

    /// Convenience: parse a whole program from scratch.
    pub fn from_source(src: &str) -> Result<Program> {
        let mut p = Program::new();
        p.parse_str(src)?;
        Ok(p)
    }

    pub fn production(&self, id: ProdId) -> &Production {
        &self.productions[id.index()]
    }

    pub fn find_production(&self, name: &str) -> Option<ProdId> {
        let sym = self.symbols.get(name)?;
        self.productions
            .iter()
            .position(|p| p.name == sym)
            .map(|i| ProdId(i as u32))
    }

    pub fn prod_name(&self, id: ProdId) -> &str {
        self.symbols.name(self.productions[id.index()].name)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn literalize_fixes_field_order() {
        let mut syms = SymbolTable::new();
        let c = syms.intern("goal");
        let a1 = syms.intern("type");
        let a2 = syms.intern("color");
        let mut ct = ClassTable::new();
        ct.literalize(c, &[a1, a2]);
        assert_eq!(ct.resolve(c, a1).unwrap(), 0);
        assert_eq!(ct.resolve(c, a2).unwrap(), 1);
        assert_eq!(ct.arity(c), 2);
    }

    #[test]
    fn auto_extend_appends() {
        let mut syms = SymbolTable::new();
        let c = syms.intern("goal");
        let a1 = syms.intern("x");
        let a2 = syms.intern("y");
        let mut ct = ClassTable::new();
        assert_eq!(ct.resolve(c, a1).unwrap(), 0);
        assert_eq!(ct.resolve(c, a2).unwrap(), 1);
        assert_eq!(ct.resolve(c, a1).unwrap(), 0, "stable on re-resolve");
    }

    #[test]
    fn strict_mode_rejects_unknown() {
        let mut syms = SymbolTable::new();
        let c = syms.intern("goal");
        let a1 = syms.intern("x");
        let mut ct = ClassTable::new();
        ct.auto_extend = false;
        assert!(ct.resolve(c, a1).is_err());
    }
}
