//! Weaver: route a two-layer grid with a generated ~600-rule expert.
//!
//! Prints the routed board: layer 0 routes east-west, layer 1 north-south,
//! vias connect them. Each net's wire is shown by its id.
//!
//! Run with: `cargo run --release --example weaver [width] [height] [nets]`

use parallel_ops5::prelude::*;
use workloads::weaver::{self, WeaverConfig};

fn main() {
    let mut args = std::env::args().skip(1);
    let width: usize = args.next().and_then(|s| s.parse().ok()).unwrap_or(8);
    let height: usize = args.next().and_then(|s| s.parse().ok()).unwrap_or(8);
    let nets: usize = args.next().and_then(|s| s.parse().ok()).unwrap_or(4);

    let cfg = WeaverConfig {
        width,
        height,
        kinds: 12,
        nets,
        blocked_pct: 6,
        seed: 11,
    };
    let w = weaver::workload(cfg);
    println!("{} — {} productions", w.name, {
        let p = Program::from_source(&w.source).unwrap();
        p.productions.len()
    });

    let (engine, result) =
        run_workload(&w, &MatcherKind::Vs2(HashMemConfig::PAPER)).expect("weaver run");
    let stats = engine.match_stats();
    println!(
        "{} cycles, {} wme-changes, {} node activations ({:?})",
        result.cycles, stats.wme_changes, stats.activations, result.reason
    );

    // Net statuses.
    let net_class = engine.prog.symbols.get("net").unwrap();
    for n in engine.wm().of_class(net_class) {
        if let (Value::Int(id), Value::Sym(st)) = (n.field(0), n.field(2)) {
            println!("net {id}: {}", engine.prog.symbols.name(st));
        }
    }

    // Draw the board, one grid per layer.
    let cell_class = engine.prog.symbols.get("cell").unwrap();
    let mut grid = vec![vec![vec!['.'; width]; height]; 2];
    for c in engine.wm().of_class(cell_class) {
        let (Value::Int(x), Value::Int(y), Value::Int(layer)) =
            (c.field(1), c.field(2), c.field(3))
        else {
            continue;
        };
        let state = c.field(4);
        let ch = if Some(state) == engine.prog.symbols.get("blocked").map(Value::Sym) {
            '#'
        } else if let Value::Int(netid) = c.field(5) {
            char::from_digit((netid % 36) as u32, 36).unwrap_or('?')
        } else {
            '.'
        };
        grid[layer as usize][y as usize][x as usize] = ch;
    }
    for (l, layer) in grid.iter().enumerate() {
        println!(
            "layer {l} ({}):",
            if l == 0 { "east-west" } else { "north-south" }
        );
        for row in layer {
            println!("  {}", row.iter().collect::<String>());
        }
    }
}
