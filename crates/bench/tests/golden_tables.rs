//! The deterministic tables, byte for byte.
//!
//! Tables 4-3, 4-5..4-9 and `tourney_fix` print counters and simulated
//! Multimax times only: no wall clock, no host dependence. ROADMAP items 1
//! and 4 gate on them staying "byte-identical"; this test is that gate. Each
//! binary's stdout is compared with `tests/golden/<bin>.txt`, captured at
//! a809a15 (the parent of the PR that made vs1/vs2 take a batch's
//! retractions first — none of the seven moved with it: 4-3 counts delete
//! searches, which no order changes, and 4-5..4-9 replay `psm::trace`,
//! which takes a batch as written).
//!
//! Tables 4-1, 4-2 and 4-4 are not here: 4-1 and 4-4 print wall-clock
//! seconds, and 4-2's linear-memory cells are vs1's scan lengths, which a
//! kernel change may move with a reason (EXPERIMENTS.md records each).
//!
//! To re-pin a table: `cargo run --release -p bench --bin <bin> >
//! crates/bench/tests/golden/<bin>.txt`, in the same commit as the reason.

use std::process::Command;

fn check(bin: &str, exe: &str, golden: &str) {
    let mut cmd = Command::new(exe);
    // The tables are defined on the paper-faithful defaults, whatever knob
    // the test matrix has set for the suite around them.
    for (key, _) in std::env::vars_os() {
        if key.to_string_lossy().starts_with("OPS5_") {
            cmd.env_remove(key);
        }
    }
    let out = cmd
        .output()
        .unwrap_or_else(|e| panic!("failed to run {exe}: {e}"));
    assert!(out.status.success(), "{bin} failed: {:?}", out.status);
    let stdout = String::from_utf8(out.stdout).expect("utf-8 table");
    assert!(
        stdout == golden,
        "{bin}: stdout differs from tests/golden/{bin}.txt\nnow:\n{stdout}\ngolden:\n{golden}"
    );
}

macro_rules! golden {
    ($($bin:ident),*) => {$(
        #[test]
        fn $bin() {
            check(
                stringify!($bin),
                env!(concat!("CARGO_BIN_EXE_", stringify!($bin))),
                include_str!(concat!("golden/", stringify!($bin), ".txt")),
            );
        }
    )*};
}

golden!(
    table_4_3,
    table_4_5,
    table_4_6,
    table_4_7,
    table_4_8,
    table_4_9,
    tourney_fix
);
