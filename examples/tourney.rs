//! Tourney: round-robin scheduling, pathological vs fixed.
//!
//! Demonstrates the paper's §4.2 lesson: the pathological variant's pairing
//! production has condition elements with no common variables (a
//! cross-product join — every token in one hash line), while the fixed
//! variant joins through equality tests. Both produce valid schedules; the
//! match statistics show where the work goes.
//!
//! Run with: `cargo run --release --example tourney [teams]`

use parallel_ops5::prelude::*;
use workloads::tourney::{self, TourneyConfig, Variant};

fn main() {
    let teams: usize = std::env::args()
        .nth(1)
        .and_then(|s| s.parse().ok())
        .unwrap_or(10);

    for variant in [Variant::Pathological, Variant::Fixed] {
        let w = tourney::workload(TourneyConfig { teams, variant });
        let (engine, result) =
            run_workload(&w, &MatcherKind::Vs2(HashMemConfig::PAPER)).expect("tourney");
        let stats = engine.match_stats();
        println!(
            "[{:?}] {} teams: {} cycles, {} wme-changes, {} activations",
            variant, teams, result.cycles, stats.wme_changes, stats.activations
        );
        println!(
            "[{:?}]   avg tokens examined in opposite memory: left {:.1}, right {:.1}",
            variant,
            stats.avg_opp_left(),
            stats.avg_opp_right()
        );

        // Print the schedule itself.
        let game = engine.prog.symbols.get("game").unwrap();
        let games = engine.wm().of_class(game);
        let mut by_round: std::collections::BTreeMap<i64, Vec<String>> = Default::default();
        for g in &games {
            if let (Value::Int(r), Value::Sym(h), Value::Sym(a)) =
                (g.field(0), g.field(1), g.field(2))
            {
                by_round.entry(r).or_default().push(format!(
                    "{}-{}",
                    engine.prog.symbols.name(h),
                    engine.prog.symbols.name(a)
                ));
            }
        }
        for (r, gs) in &by_round {
            println!("[{variant:?}]   round {r}: {}", gs.join("  "));
        }
    }
}
