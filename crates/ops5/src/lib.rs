//! # ops5 — the OPS5 production-system language
//!
//! This crate implements the OPS5 language layer of the PSM-E reproduction:
//! interned symbols, runtime values, working-memory elements (WMEs), the
//! lexer/parser for OPS5 source, the production AST, and the `Matcher` API
//! through which every match engine (sequential list/hash Rete, the
//! interpretive "lisp" baseline, and the parallel PSM-E matcher) is driven.
//!
//! The language subset implemented is the one exercised by the paper's three
//! benchmark programs (Weaver, Rubik, Tourney):
//!
//! * `(literalize class attr ...)` attribute declarations,
//! * `(strategy lex | mea)` conflict-resolution directives,
//! * productions `(p name LHS --> RHS)` with
//!   - positive and negated condition elements,
//!   - constant, variable, and predicate tests (`=`, `<>`, `<`, `<=`, `>`,
//!     `>=`, `<=>`),
//!   - conjunctive `{ ... }` and disjunctive `<< ... >>` attribute tests,
//! * RHS actions `make`, `modify`, `remove`, `write`, `bind`, `halt`, and
//!   `(compute ...)` arithmetic.
//!
//! Scalar attributes only (the paper's programs do not use vector
//! attributes).

pub mod ast;
pub mod error;
pub mod fxhash;
pub mod lexer;
pub mod matchapi;
pub mod parser;
pub mod printer;
pub mod program;
pub mod symbol;
pub mod token;
pub mod value;
pub mod wire;
pub mod wme;

pub use ast::{Action, AttrTest, CondElem, Production, RhsExpr, RhsValue, WriteItem};
pub use error::{Ops5Error, Result};
pub use matchapi::{
    ChangeBatch, CsChange, Instantiation, MatchStats, Matcher, PhaseNanos, QuiesceReport, Sign,
    StatsDeltaTracker, WmeChange,
};
pub use program::{ClassInfo, ClassTable, ProdId, Program, Strategy};
pub use symbol::{SymbolId, SymbolTable};
pub use token::Token;
pub use value::{Pred, Value};
pub use wme::{Wme, WmeRef};
