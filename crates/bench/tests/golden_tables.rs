//! The deterministic tables, byte for byte.
//!
//! Tables 4-2, 4-3, 4-5..4-9, `tourney_fix`, `hw_scheduler` and
//! `ablation_overhead` print counters and simulated Multimax times only: no
//! wall clock, no host dependence. ROADMAP items 1 and 4 gate on them
//! staying "byte-identical"; this test is that gate. Each table function's
//! output is compared with `tests/golden/<name>.txt`. Tables 4-3 and
//! 4-5..4-9 and `tourney_fix` were captured at a809a15 (the parent of the
//! change that made vs1/vs2 take a batch's retractions first — none of them
//! moved with it: 4-3 counts delete searches, which no order changes, and
//! 4-5..4-9 replay `psm::trace`, which takes a batch as written); the two
//! ablations at 9e2cd57, from the binaries the table functions replaced.
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
//! The tables build every engine on the paper's configuration in code, so
//! this test runs them in-process under whatever `OPS5_*` knobs the suite
//! around it has set.
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
