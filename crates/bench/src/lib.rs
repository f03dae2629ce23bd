//! Shared harness for the table-regeneration binaries.
//!
//! Each `src/bin/table_4_*.rs` binary regenerates one table of the paper's
//! evaluation section against the three rebuilt benchmark programs. The
//! binaries print rows in the paper's layout so EXPERIMENTS.md can place
//! them side by side with the original numbers.
//!
//! Benchmark configurations live here so every table measures the same
//! three programs; the sizes are chosen to finish in seconds per engine in
//! release builds while producing match profiles (memory sizes,
//! cross-products, WME-change counts) in the paper's regime.

use engine::Engine;
use multimax::{simulate, SimConfig, SimResult};
use ops5::Result;
use psm::line::LockScheme;
use psm::trace::RunTrace;
use std::sync::{Arc, Mutex};
use std::time::{Duration, Instant};
use workloads::{rubik, tourney, weaver, MatcherChoice, Workload};

/// The paper's process counts ("1+k" columns of Tables 4-5..4-8).
pub const PROC_COLUMNS: [usize; 6] = [1, 3, 5, 7, 11, 13];

/// Queue counts used by Table 4-6/4-8 per column.
pub const QUEUE_COLUMNS: [usize; 6] = [1, 2, 4, 8, 8, 8];

/// Builds the benchmark instance of Weaver.
pub fn weaver_bench() -> Workload {
    weaver::workload(weaver::WeaverConfig {
        width: 12,
        height: 12,
        kinds: 36,
        nets: 8,
        blocked_pct: 8,
        seed: 42,
    })
}

/// Builds the benchmark instance of Rubik.
pub fn rubik_bench() -> Workload {
    rubik::workload(rubik::RubikConfig {
        seed: 2026,
        scramble_len: 100,
        plan: rubik::PlanMode::Inverse,
    })
}

/// Builds the benchmark instance of Tourney (pathological).
pub fn tourney_bench() -> Workload {
    tourney::workload(tourney::TourneyConfig {
        teams: 24,
        variant: tourney::Variant::Pathological,
    })
}

/// Builds the fixed Tourney (the §4.2 "domain knowledge" experiment).
pub fn tourney_fixed_bench() -> Workload {
    tourney::workload(tourney::TourneyConfig {
        teams: 24,
        variant: tourney::Variant::Fixed,
    })
}

/// A named workload constructor.
pub type ProgramEntry = (&'static str, fn() -> Workload);

/// The three benchmark programs, in the paper's row order.
pub fn programs() -> Vec<ProgramEntry> {
    vec![
        ("Weaver", weaver_bench as fn() -> Workload),
        ("Rubik", rubik_bench),
        ("Tourney", tourney_bench),
    ]
}

/// Runs a workload under a matcher, returning wall-clock time and the
/// engine (for statistics).
pub fn timed_run(w: &Workload, choice: &MatcherChoice) -> Result<(Duration, Engine)> {
    let mut eng = workloads::build_engine(w, choice)?;
    let started = Instant::now();
    eng.run(w.max_cycles)?;
    let elapsed = started.elapsed();
    if let Err(e) = (w.validate)(&eng) {
        return Err(ops5::Ops5Error::Runtime(format!(
            "{} failed validation: {e}",
            w.name
        )));
    }
    Ok((elapsed, eng))
}

/// Hash-table lines used when recording simulation traces.
///
/// The table-size regime matters for Table 4-9: the 1988 implementation's
/// hash tables (on a 32 MB Multimax) plausibly had a few hundred to a few
/// thousand lines, so unrelated tokens occasionally share a line and even
/// Weaver/Rubik see some line contention. The modern vs2 engine runs its
/// tables much larger; the simulator models the period hardware.
pub const TRACE_LINES: usize = 1024;

/// Records the deterministic task trace of a workload (for the Multimax
/// simulation tables).
pub fn record_trace(w: &Workload) -> Result<RunTrace> {
    record_trace_with_lines(w, TRACE_LINES)
}

/// Records a trace with an explicit hash-line count.
pub fn record_trace_with_lines(w: &Workload, lines: usize) -> Result<RunTrace> {
    let sink = Arc::new(Mutex::new(RunTrace::default()));
    let mut eng = engine::EngineBuilder::from_source(&w.source)?
        .trace(lines, sink.clone())
        .build()?;
    workloads::load_setup(&mut eng, &w.setup)?;
    eng.run(w.max_cycles)?;
    if let Err(e) = (w.validate)(&eng) {
        return Err(ops5::Ops5Error::Runtime(format!(
            "{} failed validation during trace: {e}",
            w.name
        )));
    }
    let trace = sink.lock().unwrap().clone();
    Ok(trace)
}

/// Simulates a trace at one configuration.
pub fn sim(trace: &RunTrace, procs: usize, queues: usize, scheme: LockScheme) -> SimResult {
    simulate(trace, &SimConfig::new(procs, queues, scheme))
}

/// Speed-up of `procs` match processes relative to one (same queue count
/// and lock scheme as configured per column, uniprocessor with 1 queue).
pub fn speedup(
    trace: &RunTrace,
    uni: &SimResult,
    procs: usize,
    queues: usize,
    scheme: LockScheme,
) -> f64 {
    let r = sim(trace, procs, queues, scheme);
    uni.match_time as f64 / r.match_time as f64
}

/// Formats seconds with millisecond precision.
pub fn secs(d: Duration) -> String {
    format!("{:.3}", d.as_secs_f64())
}

/// Prints a table header in the paper's style.
pub fn header(title: &str) {
    println!();
    println!("{title}");
    println!("{}", "-".repeat(title.len().min(78)));
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn traces_are_deterministic() {
        // Same workload → byte-identical trace shape (the foundation of the
        // simulation tables). Tourney is the cheapest of the three.
        let w = workloads::tourney::workload(workloads::tourney::TourneyConfig {
            teams: 6,
            variant: workloads::tourney::Variant::Pathological,
        });
        let t1 = record_trace(&w).unwrap();
        let w = workloads::tourney::workload(workloads::tourney::TourneyConfig {
            teams: 6,
            variant: workloads::tourney::Variant::Pathological,
        });
        let t2 = record_trace(&w).unwrap();
        assert_eq!(t1.cycles.len(), t2.cycles.len());
        assert_eq!(t1.total_tasks(), t2.total_tasks());
        for (c1, c2) in t1.cycles.iter().zip(&t2.cycles) {
            assert_eq!(c1.roots, c2.roots);
            assert_eq!(c1.tasks.len(), c2.tasks.len());
            for (a, b) in c1.tasks.iter().zip(&c2.tasks) {
                assert_eq!(a.id, b.id);
                assert_eq!(a.line, b.line);
                assert_eq!(a.examined, b.examined);
            }
        }
    }

    #[test]
    fn simulation_is_deterministic_over_recorded_trace() {
        let w = workloads::tourney::workload(workloads::tourney::TourneyConfig {
            teams: 6,
            variant: workloads::tourney::Variant::Fixed,
        });
        let t = record_trace(&w).unwrap();
        let a = sim(&t, 5, 2, LockScheme::Simple);
        let b = sim(&t, 5, 2, LockScheme::Simple);
        assert_eq!(a.match_time, b.match_time);
        assert_eq!(a.queue_spins, b.queue_spins);
        assert_eq!(a.hash_spins_left, b.hash_spins_left);
    }

    #[test]
    fn bench_workloads_build() {
        // Small sanity: sources parse and networks compile.
        for (name, make) in programs() {
            let w = make();
            let prog = ops5::Program::from_source(&w.source).unwrap();
            assert!(!prog.productions.is_empty(), "{name}");
        }
    }
}
