//! # psm — the PSM-E parallel match engine
//!
//! This crate is the paper's primary contribution: a fine-grained parallel
//! Rete matcher for shared-memory multiprocessors (§3).
//!
//! Architecture (Figure 3-1): one *control process* (the thread driving
//! the `engine::Engine` interpreter) and `k` *match processes* (worker
//! threads) share
//!
//! * a single read-only copy of the compiled Rete network,
//! * one or more **task queues** holding tokens awaiting processing,
//! * the global **left/right token hash tables**, organised in lines
//!   (same-index bucket pairs plus their extra-deletes lists), each guarded
//!   by a simple exclusive spin lock or the paper's
//!   multiple-reader-single-writer line protocol,
//! * the **TaskCount** counter that detects match-phase termination,
//! * a conflict-set accumulator.
//!
//! Synchronization uses test-and-test-and-set spin locks built on atomics
//! (§3.2 — OS primitives are too heavy for 100-700-instruction tasks). A
//! lock holds only its state word; each acquisition reports how often the
//! process spun before getting it, and the process books that — the
//! paper's contention metric (Tables 4-7 and 4-9) — into its own counters.
//!
//! Out-of-order token processing is handled with **conjugate token pairs**:
//! a `−` token arriving before its `+` parks on the line's extra-deletes
//! list; when the `+` arrives, both annihilate without propagating.
//!
//! Every task runs through one `process_task` and the node activation over
//! a line is written once (the private `walk` module), generic over how the
//! line is held — the simple lock or an MRSW entry — and over where a
//! successor goes: the shared queues, or, with no match process
//! (`match_processes: 0`), a FIFO the control thread drains itself, root by
//! root. The walk books the match counters itself, into the running
//! process's own `MatchStats`; the same slot takes the process's queue and
//! line acquisitions and its idle transitions ([`stats`]).
//!
//! The [`trace`] module is that inline driver recording a deterministic
//! task trace (task graph, per-task work counters, hash-line footprint)
//! that the `multimax` crate replays on a simulated Encore Multimax to
//! regenerate the paper's speed-up and contention tables on any host.

pub mod line;
pub mod matcher;
pub mod queue;
pub mod stats;
pub mod sync;
pub mod trace;
mod walk;

pub use line::{LineLock, LockScheme, ParLine, Side};
pub use matcher::{ParMatcher, PsmConfig, PsmProbe};
pub use queue::{Scheduler, TaskCount};
pub use sync::{RwSpinLock, SpinLock};
pub use trace::{CycleTrace, RunTrace, TaskKind, TaskRecord, TraceMatcher};
