//! The deterministic tables, byte for byte.
//!
//! Tables 4-2, 4-3, 4-5..4-9, `tourney_fix`, `hw_scheduler` and
//! `ablation_overhead` print counters and simulated Multimax times only: no
//! wall clock, no host dependence. A change that is not meant to move them
//! must leave them byte-identical; this test is that gate. Each table
//! function's output is compared with `tests/golden/<name>.txt`. Table 4-3
//! was captured at a809a15 (the parent of the change that made vs1/vs2 take
//! a batch's retractions first — it did not move with it: 4-3 counts delete
//! searches, which no order changes).
//!
//! Tables 4-5..4-9, `tourney_fix` and the two ablations replay
//! `psm::trace`, psm's inline driver, which takes a batch as written. They
//! were re-pinned when a root task came to carry one WME change instead of
//! a batch's per-class group (DESIGN §2, "small groups of constant-test
//! node activations"): the control process now pushes each root as the
//! change is computed, so the match processes start while it is still
//! evaluating the firing. Rubik, ≈ 41 changes of one class per move, moved
//! the most: Table 4-6 at 1+13 4.72 -> 9.43, 4-5 3.87 -> 5.37, 4-8 5.88 ->
//! 10.71, the hardware scheduler 4.90 -> 9.98, the overhead ablation's 2-instruction
//! column 4.86 -> 9.84 (its mean task 83 -> 80); its 8-queue spins in 4-7 5.13 -> 1.29 and its MRSW
//! requeues in 4-9 432 -> 929. Tourney's `tourney_fix` went 2.36 -> 2.48 and
//! 5.36 -> 5.61, 4-8 2.95 -> 3.10, its requeues 1153 -> 1618. Weaver's
//! speed-ups moved by 0.01 at most and its 4-7 spins by 0.04 at most. The
//! uniprocessor column moved a little (Rubik 8.18 -> 8.12 Mop, Tourney
//! 84.41 -> 84.57) because each change's cascade now drains before the next
//! root. Every cell was predicted on a copy of the edit and committed
//! before it. Tables 4-2 and 4-3 did not move.
//!
//! Table 4-2 averages the scans of vs1 and vs2, so a kernel change that
//! adds or removes scans moves it, and re-pins it with a reason here and in
//! EXPERIMENTS.md, as a change to delete searches would re-pin 4-3. Pinned
//! when vs1/vs2 stopped rescanning on a left `-` at a join that keeps its
//! children (tree-based removal): the left cells moved, Weaver 175.1/1.6 ->
//! 169.0/1.3, Rubik lin 4.5 -> 5.5, Tourney 92.1/7.0 -> 94.0/6.7, as
//! predicted by not booking those scans on the parent; the right cells did
//! not. Re-pinned when every positive join came to keep its children, the
//! joins that feed a terminal or several successors too, so that no left
//! `-` at a positive join scans: the left cells moved again, Weaver lin
//! 169.0 -> 167.9, Rubik lin 5.5 -> 5.6, Tourney 94.0/6.7 -> 111.1/5.7 (a
//! mean per non-empty scan: the scans dropped were shorter than the lin
//! mean and longer than the hash one), predicted the same way; the right
//! cells did not.
//!
//! Tables 4-1 and 4-4 are not here: they print wall-clock seconds.
//!
//! The tables build every engine on the paper's configuration in code, and
//! this test runs them in-process.
//!
//! To re-pin a table: `cargo run --release -p bench --bin tables -- <name> >
//! crates/bench/tests/golden/<name>.txt`, in the same commit as the reason.

use bench::tables::{self, Table};

fn check(name: &str, table: Table, golden: &str) {
    let mut out = Vec::new();
    table(&mut out).expect("write to a Vec");
    let now = String::from_utf8(out).expect("utf-8 table");
    assert!(
        now == golden,
        "{name}: output differs from tests/golden/{name}.txt\nnow:\n{now}\ngolden:\n{golden}"
    );
}

macro_rules! golden {
    ($($name:ident),*) => {$(
        #[test]
        fn $name() {
            check(
                stringify!($name),
                tables::$name,
                include_str!(concat!("golden/", stringify!($name), ".txt")),
            );
        }
    )*};
}

golden!(
    table_4_2,
    table_4_3,
    table_4_5,
    table_4_6,
    table_4_7,
    table_4_8,
    table_4_9,
    tourney_fix,
    hw_scheduler,
    ablation_overhead
);
