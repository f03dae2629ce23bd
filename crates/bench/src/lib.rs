//! The paper's evaluation section, regenerated.
//!
//! [`tables`] holds one function per table of the paper (and per ablation
//! beyond it); the `tables` binary prints them. This root module is the
//! harness they share: the three rebuilt benchmark programs, the engine
//! configuration every table runs on, and the trace/simulation plumbing of
//! the Multimax tables.
//!
//! The benchmark sizes are chosen to finish in seconds per engine in
//! release builds while producing match profiles (memory sizes,
//! cross-products, WME-change counts) in the paper's regime.

pub mod tables;

use engine::{Engine, EngineBuilder, MatcherKind};
use multimax::{simulate, SimConfig, SimResult};
use ops5::Result;
use psm::line::LockScheme;
use psm::trace::RunTrace;
use std::io::{self, Write};
use std::sync::{Arc, Mutex};
use std::time::{Duration, Instant};
use workloads::{rubik, tourney, weaver, Workload};

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

/// Builds `w` on `kind` in the paper's configuration: the matcher is
/// explicit, the network is the paper's ([`rete::NetworkOptions::PAPER`]:
/// one unshared join chain per production), and the act phase fires one
/// instantiation per cycle.
pub(crate) fn paper_engine(w: &Workload, kind: MatcherKind) -> Result<Engine> {
    let mut eng = EngineBuilder::from_source(&w.source)?
        .matcher(kind)
        .network_options(rete::NetworkOptions::PAPER)
        .build()?;
    workloads::load_setup(&mut eng, &w.setup)?;
    Ok(eng)
}

/// Runs `eng` to completion and checks the workload's outcome.
fn run_validated(w: &Workload, eng: &mut Engine) -> Result<Duration> {
    let started = Instant::now();
    eng.run(w.max_cycles)?;
    let elapsed = started.elapsed();
    (w.validate)(eng)
        .map_err(|e| ops5::Ops5Error::Runtime(format!("{} failed validation: {e}", w.name)))?;
    Ok(elapsed)
}

/// Runs a workload under a matcher, returning wall-clock time and the
/// engine (for statistics).
pub fn timed_run(w: &Workload, kind: &MatcherKind) -> Result<(Duration, Engine)> {
    let mut eng = paper_engine(w, kind.clone())?;
    let elapsed = run_validated(w, &mut eng)?;
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
    let kind = MatcherKind::Trace {
        buckets: lines,
        sink: sink.clone(),
    };
    run_validated(w, &mut paper_engine(w, kind)?)?;
    let trace = sink.lock().unwrap().clone();
    Ok(trace)
}

/// Simulates a trace at one configuration.
pub fn sim(trace: &RunTrace, procs: usize, queues: usize, scheme: LockScheme) -> SimResult {
    simulate(trace, &SimConfig::new(procs, queues, scheme))
}

/// Formats seconds with millisecond precision.
pub fn secs(d: Duration) -> String {
    format!("{:.3}", d.as_secs_f64())
}

/// Formats milliseconds to three significant digits (all the digits of a
/// value of 1000 ms or more).
pub fn millis(d: Duration) -> String {
    let ms = d.as_secs_f64() * 1e3;
    let decimals = (2.0 - ms.log10().floor()).clamp(0.0, 9.0) as usize;
    format!("{ms:.decimals$}")
}

/// Writes a table header in the paper's style.
pub fn header(out: &mut dyn Write, title: &str) -> io::Result<()> {
    writeln!(out)?;
    writeln!(out, "{title}")?;
    writeln!(out, "{}", "-".repeat(title.len().min(78)))
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
