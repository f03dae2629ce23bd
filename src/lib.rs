//! # parallel-ops5 — a Rust reproduction of *Parallel OPS5 on the Encore Multimax* (ICPP 1988)
//!
//! This workspace rebuilds PSM-E — Gupta, Forgy, Kalp, Newell and Tambe's
//! parallel OPS5 implementation — end to end:
//!
//! * [`ops5`] — the OPS5 language: parser, working-memory elements, matcher API;
//! * [`rete`] — the compiled Rete network with list (*vs1*) and global
//!   hash-table (*vs2*) token memories and the sequential matcher;
//! * [`engine`] — the recognize-act interpreter (conflict resolution,
//!   threaded-code RHS evaluation);
//! * [`lispsim`] — the interpretive lisp-style baseline (the Table 4-4
//!   comparison);
//! * [`psm`] — the parallel matcher itself: TTAS spin locks, MRSW hash-line
//!   locks, multi-queue task scheduling, conjugate-pair handling, and the
//!   task-trace recorder;
//! * [`multimax`] — a discrete-event Encore Multimax simulator that replays
//!   recorded task traces to regenerate the paper's speed-up and contention
//!   tables on any host;
//! * [`workloads`] — the three benchmark programs rebuilt: Rubik, Tourney
//!   (pathological and fixed), and a Weaver-scale generated VLSI router;
//! * [`serve`] — a multi-session TCP server multiplexing many independent
//!   engines over a bounded worker pool, with batched ingestion and
//!   explicit backpressure (the `ops5-serve` binary).
//!
//! ## Quickstart
//!
//! ```
//! use parallel_ops5::prelude::*;
//!
//! let src = "(p find-colored-block
//!              (goal ^type find-block ^color <c>)
//!              (block ^id <i> ^color <c> ^selected no)
//!              -->
//!              (modify 2 ^selected yes))";
//! let mut engine = EngineBuilder::from_source(src).unwrap().vs2().build().unwrap();
//! let red = engine.sym("red");
//! let no = engine.sym("no");
//! let fb = engine.sym("find-block");
//! engine.make_wme("goal", &[("type", fb), ("color", red)]).unwrap();
//! engine.make_wme("block", &[("id", Value::Int(1)), ("color", red), ("selected", no)]).unwrap();
//! let result = engine.run(10).unwrap();
//! assert_eq!(result.cycles, 1);
//! ```
//!
//! See `examples/` for the paper's workloads and `crates/bench` for the
//! binaries that regenerate every table of the evaluation section.

pub use engine;
pub use lispsim;
pub use multimax;
pub use obs;
pub use ops5;
pub use psm;
pub use rete;
pub use serve;
pub use workloads;

/// Common imports for applications.
pub mod prelude {
    pub use engine::{Engine, EngineBuilder, MatcherKind, RunResult, StopReason};
    pub use multimax::{simulate, SimConfig, SimResult};
    pub use obs::ObsConfig;
    pub use ops5::{
        ChangeBatch, CsChange, Instantiation, MatchStats, Matcher, PhaseNanos, Pred, ProdId,
        Program, QuiesceReport, Sign, SymbolId, Value, Wme, WmeChange, WmeRef,
    };
    pub use psm::{LockScheme, ParMatcher, PsmConfig};
    pub use rete::network::Network;
    pub use rete::{HashMemConfig, NetworkOptions, NetworkSummary, SeqMatcher};
    pub use serve::{Client, ServeConfig, Server};
    pub use workloads::{build_engine, run_workload, Workload};
}

#[cfg(test)]
mod tests {
    use super::prelude::*;

    #[test]
    fn facade_reexports_work() {
        let p = Program::from_source("(p q (a ^x 1) --> (halt))").unwrap();
        let net = Network::compile(&p).unwrap();
        assert_eq!(net.n_patterns(), 1);
    }
}
