//! # lispsim — the interpretive lisp-style OPS5 matcher
//!
//! The paper measures its C implementation against "the standard lisp
//! implementation distributed by Carnegie Mellon University" and reports a
//! 10-20× gap (Table 4-4): one Rete algorithm, run twice. The original
//! Franz Lisp OPS5 is not available to this reproduction, so this crate
//! runs the sequential kernel (`rete::SeqMatcher`: alpha dispatch, the
//! network's shared right memories, linked readers, a batch's retractions
//! first, the node profile) on vs1's line per memory, and keeps only what
//! makes a lisp implementation slow:
//!
//! * values are boxed cons-cell [`LispVal`]s; every comparison is a deep,
//!   tag-dispatched `equal` walk (symbols compare by name),
//! * WMEs are association lists keyed by attribute name, tokens lists of
//!   them, built for every memory entry and every scan's probe,
//! * a join's tests are an interpreted list of steps ([`LispTests`]): every
//!   pair a scan looks at pays an `nth` and two `assoc`s per test.
//!
//! So its `MatchStats` are vs1's, counter for counter, and only the clock
//! tells the two apart — which is what Table 4-4 measures (EXPERIMENTS.md).

pub mod matcher;
pub mod value;

pub use matcher::{LispEngineMatcher, LispTests};
pub use value::{assoc, lisp_equal, LispVal};
