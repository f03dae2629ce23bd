//! # engine — the OPS5 recognize-act interpreter
//!
//! This crate is the paper's *control process* (§3.1): everything except the
//! match. It owns working memory, performs conflict resolution (OPS5 LEX and
//! MEA strategies), compiles production right-hand sides to threaded code
//! (§3.3) and interprets them, and drives a pluggable
//! [`ops5::Matcher`] through the recognize-act cycle:
//!
//! 1. **Match** — delegated to the matcher. Each firing's WME changes go
//!    out as one [`ops5::ChangeBatch`]: a `modify`'s delete/add conjugate
//!    pair annihilates inside the batch, and the matcher sees the surviving
//!    changes grouped by class so it amortises per-change dispatch.
//! 2. **Conflict resolution** — pick the dominant unfired instantiation.
//! 3. **Act** — interpret the winner's threaded RHS code.
//!
//! Construct engines with [`EngineBuilder`]; it selects between all four of
//! the paper's match engines (vs1, vs2, the lisp baseline, PSM-E) plus the
//! trace recorder. Everything derived from the source text alone — AST,
//! Rete network, RHS code — lives in one immutable [`CompiledProgram`];
//! hosts that open many engines on one program compile it once and hand
//! the builder the shared artefact.

pub mod builder;
pub mod compiled;
pub mod cr;
pub mod cs;
pub mod interp;
#[cfg(test)]
mod resolve_model;
pub mod rhs;
pub mod state;
pub mod wm;

pub use builder::{EngineBuilder, MatcherKind};
pub use compiled::CompiledProgram;
pub use cr::order_dominates;
pub use cs::ConflictSet;
pub use interp::{Engine, EngineLimits, RunResult, StopReason};
pub use rhs::{Instr, RhsProgram};
pub use state::{program_fingerprint, ChangeLog, LogRecord, SnapVal, SnapWme, Snapshot};
pub use wm::WorkingMemory;
