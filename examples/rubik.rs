//! Rubik: scramble a cube, then watch the production system solve it.
//!
//! The cube lives entirely in working memory (54 facelet WMEs); the 18 move
//! productions were generated from 3D rotation permutations; the plan is
//! executed and verified by rule firings. Runs the same program on the
//! sequential vs2 engine and on PSM-E with several match processes.
//!
//! Run with: `cargo run --release --example rubik [scramble-length]`

use parallel_ops5::prelude::*;
use std::time::Instant;
use workloads::rubik::{self, PlanMode, RubikConfig};

fn main() {
    let scramble_len: usize = std::env::args()
        .nth(1)
        .and_then(|s| s.parse().ok())
        .unwrap_or(15);

    let cfg = RubikConfig {
        seed: 2026,
        scramble_len,
        plan: PlanMode::Inverse,
    };
    println!("scramble length: {scramble_len}");

    for choice in [
        MatcherChoice::Vs1,
        MatcherChoice::Vs2,
        MatcherChoice::Psm(PsmConfig {
            match_processes: 3,
            queues: 4,
            lock_scheme: LockScheme::Simple,
            buckets: 1024,
        }),
    ] {
        let w = rubik::workload(cfg);
        let started = Instant::now();
        let (engine, result) = run_workload(&w, &choice).expect("rubik run");
        let elapsed = started.elapsed();
        let stats = engine.match_stats();
        println!(
            "[{:>6}] {:>5} cycles, {:>6} wme-changes, {:>8} activations, {:?} ({:.1?})",
            choice.label(),
            result.cycles,
            stats.wme_changes,
            stats.activations,
            result.reason,
            elapsed,
        );
        for line in engine.output() {
            println!("[{:>6}]   rule output: {line}", choice.label());
        }
    }

    // Show the solver itself on a short scramble.
    let scr = rubik::scramble(7, 4);
    let mut cube = rubik::Cube::solved();
    cube.apply_seq(&scr);
    let plan = rubik::solve_iddfs(&cube, 4).expect("IDDFS solution");
    println!(
        "IDDFS found a {}-move solution for a 4-move scramble: {}",
        plan.len(),
        plan.iter().map(|m| m.name()).collect::<Vec<_>>().join(" ")
    );
}
