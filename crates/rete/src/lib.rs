//! # rete — the compiled Rete match network
//!
//! This crate is the Rust analogue of the paper's "compile the Rete network
//! directly into machine code": the network is compiled from production LHSs
//! into flat, index-addressed instruction arrays (constant tests with
//! pre-resolved field indices, join tests with pre-computed token positions,
//! pre-extracted equality specs for hashing) that the matchers execute with
//! static dispatch and no per-node interpretation. The deliberately
//! *interpretive* counterpart, the `lispsim` crate, is this crate's
//! sequential matcher with its join tests interpreted.
//!
//! Contents:
//!
//! * [`network`] — network types and the LHS → network compiler. Constant-test
//!   nodes are shared across productions (the paper's Figure 2-2 sharing);
//!   memory nodes are coalesced into the two-input nodes below them (§3.1),
//!   and identical join-chain prefixes are shared between productions too,
//!   so the beta layer is a DAG. The paper's one unshared chain per
//!   production (footnote 6: sharing is impossible in the parallel
//!   implementation) is [`NetworkOptions::PAPER`], which the tables
//!   compile. The compiler also records which joins could read one right
//!   memory, and indexes each class's patterns on the constant they test;
//!   the sequential matchers (lispsim and col among them) use both, the
//!   parallel and trace matchers neither.
//! * [`memory`] — token memories: linear lists (*vs1*; with interpreted
//!   join tests, lispsim's) and the two global
//!   hash tables holding all left/right tokens for the whole network
//!   (*vs2*, §3.2), organised in "lines" (pairs of same-index buckets) and
//!   sized by their population unless a fixed line count is asked for.
//!   Left memories are per join; right memories are the network's shared
//!   ones ([`RightMemSpec`]), so each WME is stored once.
//! * [`seq`] — the sequential matcher over any memory kind, instrumented
//!   with the Table 4-1/4-2/4-3 statistics: the node activations, written
//!   once, and vs1/vs2's depth-first agenda. A WME change is applied to
//!   each right memory once and only the readers linked to it — the ones
//!   with a non-empty left memory — are looked at.
//! * [`colmatch`] — *col*: vs2's kernel under its own name, kept because the
//!   benchmark measures `changes_per_s.col`.
//! * [`dot`] — Graphviz/ASCII rendering of the network (Figure 2-2).

pub mod colmatch;
pub mod dot;
pub mod memory;
pub mod network;
mod profile;
mod readers;
pub mod seq;

pub use memory::HashMemConfig;
pub use network::{
    AlphaPatternId, AlphaSucc, ClassPatterns, EqSpec, JoinId, JoinNode, JoinTest, Network,
    NetworkOptions, NetworkSummary, RightMemId, RightMemSpec, Succ,
};
// Tokens and the Fx mix live in `ops5` (an instantiation is a token);
// re-exported so `rete::token::Token` and `rete::fxhash` keep resolving.
pub use ops5::{fxhash, token, Token};
#[doc(hidden)]
pub use readers::live_readers;
pub use seq::SeqMatcher;
