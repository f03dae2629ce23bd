//! Offline stand-in for the `crossbeam` facade crate.
//!
//! The build environment has no network access to a crates registry, so the
//! workspace vendored the *subset* of crossbeam psm's work-stealing
//! scheduler used: the `deque` primitives (`Worker`, `Stealer`, `Injector`,
//! `Steal`). That scheduler has been deleted, never measured; nothing uses
//! this crate. It stays, with psm's dependency line, until a change that
//! may rewrite the ledger's lockfile removes both.
//!
//! The implementation is intentionally simple — each deque is a
//! `Mutex<VecDeque<T>>` — which is slower under contention than the real
//! lock-free Chase–Lev deque but is API- and semantics-compatible: FIFO
//! local order, single-item steals from peers, batched steals from the
//! injector.

pub mod deque;
