//! Hash-table-size ablation — how many lines do the global token tables
//! need?
//!
//! The paper fixes one hash-table size; this sweep varies the line count
//! and reports (a) real vs2 wall time (bucket sharing costs skip-scans, a
//! sparse table costs cache misses) and (b) simulated 1+13 line contention
//! (fewer lines → more false sharing between unrelated tokens). The last
//! column is vs2's default, the table sized by its population
//! (`rete::memory::LOAD` entries per line): its load factor was read off
//! this sweep's wall-clock rows.
//!
//! Run with: `cargo run --release -p bench --bin ablation_buckets`

use bench::{header, programs, record_trace_with_lines};
use multimax::{simulate, SimConfig};
use psm::line::LockScheme;
use std::time::Instant;

const SIZES: [usize; 5] = [256, 1024, 4096, 16384, 65536];
/// Runs per cell; the fastest is reported (this host has slow phases).
const RUNS: usize = 7;

/// vs2 wall time at `buckets` lines (0: sized by population).
fn vs2_time(w: &workloads::Workload, buckets: usize) -> f64 {
    let run = || {
        let mut eng = engine::EngineBuilder::from_source(&w.source)
            .unwrap()
            .matcher(engine::MatcherKind::Vs2(rete::HashMemConfig { buckets }))
            .build()
            .unwrap();
        workloads::load_setup(&mut eng, &w.setup).unwrap();
        let t = Instant::now();
        eng.run(w.max_cycles).unwrap();
        t.elapsed().as_secs_f64()
    };
    (0..RUNS).map(|_| run()).fold(f64::INFINITY, f64::min)
}

fn main() {
    header(
        "Hash-table size ablation: vs2 wall time (s, best of 7) and simulated 1+13 line contention",
    );
    print!("{:<10} {:>6}", "PROGRAM", "");
    for s in SIZES {
        print!(" {:>12}", format!("{s} lines"));
    }
    println!(" {:>14}", "by population");
    for (name, make) in programs() {
        print!("{:<10} {:>6}", name, "time");
        for s in SIZES.into_iter().chain([0]) {
            print!(" {:>12.4}", vs2_time(&make(), s));
        }
        println!();
        print!("{:<10} {:>6}", "", "spins");
        for s in SIZES {
            let trace = record_trace_with_lines(&make(), s).expect("trace");
            let r = simulate(&trace, &SimConfig::new(13, 8, LockScheme::Simple));
            print!(" {:>12.2}", r.avg_hash_left() + r.avg_hash_right());
        }
        println!();
    }
    println!();
    println!("(shape: wall time is flat to slightly better towards small tables; simulated");
    println!(" line contention falls as lines grow — except Tourney, whose cross-product");
    println!(" tokens share a line at ANY table size: more memory cannot fix it)");
}
