//! Quickstart: the paper's Figure 2-1 production, end to end.
//!
//! Builds a tiny blocks-world program, runs it on the optimized sequential
//! engine (vs2) and then on the parallel PSM-E matcher, and shows that both
//! reach the same working-memory state.
//!
//! Run with: `cargo run --example quickstart`

use parallel_ops5::prelude::*;

const SRC: &str = "
; Figure 2-1 of the paper.
(literalize goal type color)
(literalize block id color selected)
(p find-colored-block
  (goal ^type find-block ^color <c>)
  (block ^id <i> ^color <c> ^selected no)
  -->
  (write selected block <i> (crlf))
  (modify 2 ^selected yes))
";

fn run(mut engine: Engine, label: &str) {
    let red = engine.sym("red");
    let blue = engine.sym("blue");
    let no = engine.sym("no");
    let fb = engine.sym("find-block");
    engine
        .make_wme("goal", &[("type", fb), ("color", red)])
        .unwrap();
    for (id, color) in [(1, blue), (2, red), (3, red), (4, blue)] {
        engine
            .make_wme(
                "block",
                &[("id", Value::Int(id)), ("color", color), ("selected", no)],
            )
            .unwrap();
    }

    let result = engine.run(100).unwrap();
    println!(
        "[{label}] fired {} productions ({:?})",
        result.cycles, result.reason
    );
    for line in engine.output() {
        println!("[{label}]   {line}");
    }
    let stats = engine.match_stats();
    println!(
        "[{label}] match stats: {} wme-changes, {} node activations, {} conflict-set changes",
        stats.wme_changes, stats.activations, stats.cs_changes
    );
}

fn main() {
    let eng = EngineBuilder::from_source(SRC)
        .expect("parse")
        .vs2()
        .build()
        .expect("build vs2");
    run(eng, "vs2 sequential");

    let cfg = PsmConfig {
        match_processes: 3,
        queues: 2,
        ..Default::default()
    };
    let eng = EngineBuilder::from_source(SRC)
        .expect("parse")
        .psm(cfg)
        .build()
        .expect("build psm");
    run(eng, "psm 1+3");
}
