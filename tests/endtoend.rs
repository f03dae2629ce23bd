//! End-to-end tests: workloads complete and validate under every engine,
//! traces feed the Multimax simulator, and the simulated speed-up shapes
//! match the paper's qualitative findings on small instances.

use multimax::{simulate, SimConfig};
use parallel_ops5::prelude::*;
use psm::trace::RunTrace;
use std::sync::{Arc, Mutex};
use workloads::{rubik, run_workload, tourney, weaver, MatcherChoice};

fn psm(procs: usize, queues: usize, scheme: LockScheme) -> MatcherChoice {
    MatcherChoice::Psm(PsmConfig {
        match_processes: procs,
        queues,
        lock_scheme: scheme,
        buckets: 256,
    })
}

#[test]
fn rubik_validates_under_all_engines() {
    for choice in [
        MatcherChoice::Vs1,
        MatcherChoice::Vs2,
        MatcherChoice::Lisp,
        psm(2, 1, LockScheme::Simple),
        psm(3, 2, LockScheme::Mrsw),
    ] {
        let w = rubik::workload(rubik::RubikConfig {
            seed: 21,
            scramble_len: 6,
            plan: rubik::PlanMode::Inverse,
        });
        let (_e, res) = run_workload(&w, &choice).unwrap();
        assert_eq!(res.reason, StopReason::Halt, "engine {}", choice.label());
    }
}

#[test]
fn tourney_both_variants_validate_under_parallel() {
    for variant in [tourney::Variant::Pathological, tourney::Variant::Fixed] {
        let w = tourney::workload(tourney::TourneyConfig { teams: 8, variant });
        let (_e, res) = run_workload(&w, &psm(3, 2, LockScheme::Simple)).unwrap();
        assert_eq!(res.reason, StopReason::Halt, "{variant:?}");
    }
}

#[test]
fn weaver_validates_under_parallel_mrsw() {
    let w = weaver::workload(weaver::WeaverConfig {
        width: 6,
        height: 5,
        kinds: 4,
        nets: 3,
        blocked_pct: 5,
        seed: 23,
    });
    let (_e, res) = run_workload(&w, &psm(4, 4, LockScheme::Mrsw)).unwrap();
    assert_eq!(res.reason, StopReason::Halt);
}

/// Records a trace for a workload.
fn record(w: &workloads::Workload) -> RunTrace {
    let sink = Arc::new(Mutex::new(RunTrace::default()));
    let (_e, _res) = run_workload(w, &MatcherChoice::Trace(sink.clone())).unwrap();
    let trace = sink.lock().unwrap().clone();
    trace
}

#[test]
fn simulated_speedup_shapes_match_paper() {
    // Rubik-style workload: independent move applications → good speed-ups,
    // improved by multiple queues.
    let rw = rubik::workload(rubik::RubikConfig {
        seed: 33,
        scramble_len: 12,
        plan: rubik::PlanMode::Inverse,
    });
    let rt = record(&rw);

    let t1 = simulate(&rt, &SimConfig::new(1, 1, LockScheme::Simple)).match_time as f64;
    let t5_1q = simulate(&rt, &SimConfig::new(5, 1, LockScheme::Simple)).match_time as f64;
    let t5_4q = simulate(&rt, &SimConfig::new(5, 4, LockScheme::Simple)).match_time as f64;
    let s_1q = t1 / t5_1q;
    let s_4q = t1 / t5_4q;
    assert!(
        s_1q > 1.5,
        "some speed-up even with one queue (got {s_1q:.2})"
    );
    assert!(
        s_4q >= s_1q * 0.98,
        "multiple queues should not hurt (1q {s_1q:.2}, 4q {s_4q:.2})"
    );

    // Queue contention grows with processes on a single queue (Table 4-7).
    let c2 = simulate(&rt, &SimConfig::new(2, 1, LockScheme::Simple)).avg_queue_spins();
    let c13 = simulate(&rt, &SimConfig::new(13, 1, LockScheme::Simple)).avg_queue_spins();
    assert!(
        c13 > c2,
        "contention grows with processes (2: {c2:.2}, 13: {c13:.2})"
    );
    let c13_8q = simulate(&rt, &SimConfig::new(13, 8, LockScheme::Simple)).avg_queue_spins();
    assert!(
        c13_8q < c13,
        "8 queues reduce contention (1q {c13:.2}, 8q {c13_8q:.2})"
    );
}

#[test]
fn tourney_cross_products_resist_speedup() {
    // Pathological Tourney serializes on a shared hash line; the fixed
    // variant distributes. Compare simulated speed-ups at 1+8.
    // The pathology is quadratic: enough teams make the single shared hash
    // line the bottleneck (the paper's Tourney examined ~270 tokens per
    // activation on its cross-product join).
    let wp = tourney::workload(tourney::TourneyConfig {
        teams: 16,
        variant: tourney::Variant::Pathological,
    });
    let tp = record(&wp);
    let wf = tourney::workload(tourney::TourneyConfig {
        teams: 16,
        variant: tourney::Variant::Fixed,
    });
    let tf = record(&wf);

    let sp = {
        let t1 = simulate(&tp, &SimConfig::new(1, 8, LockScheme::Simple)).match_time as f64;
        let t8 = simulate(&tp, &SimConfig::new(8, 8, LockScheme::Simple)).match_time as f64;
        t1 / t8
    };
    let sf = {
        let t1 = simulate(&tf, &SimConfig::new(1, 8, LockScheme::Simple)).match_time as f64;
        let t8 = simulate(&tf, &SimConfig::new(8, 8, LockScheme::Simple)).match_time as f64;
        t1 / t8
    };
    assert!(
        sf > sp,
        "fixed variant must out-scale the pathological one (fixed {sf:.2} vs pathological {sp:.2})"
    );
}

#[test]
fn mrsw_reduces_line_contention_but_costs_overhead() {
    let wp = tourney::workload(tourney::TourneyConfig {
        teams: 10,
        variant: tourney::Variant::Pathological,
    });
    let tp = record(&wp);

    let simple = simulate(&tp, &SimConfig::new(6, 8, LockScheme::Simple));
    let mrsw = simulate(&tp, &SimConfig::new(6, 8, LockScheme::Mrsw));
    // Table 4-9: contention drops under MRSW.
    assert!(
        mrsw.avg_hash_left() <= simple.avg_hash_left(),
        "MRSW should not increase left-side line contention (simple {:.2}, mrsw {:.2})",
        simple.avg_hash_left(),
        mrsw.avg_hash_left()
    );
    // Table 4-8 vs 4-6: the uniprocessor pays for the complex locks.
    let u_simple = simulate(&tp, &SimConfig::new(1, 1, LockScheme::Simple)).match_time;
    let u_mrsw = simulate(&tp, &SimConfig::new(1, 1, LockScheme::Mrsw)).match_time;
    assert!(
        u_mrsw > u_simple,
        "complex locks must slow the uniprocessor ({u_mrsw} vs {u_simple})"
    );
}

#[test]
fn real_threads_show_no_loss_vs_sequential_results() {
    // The threaded matcher on this host may not speed anything up (the CI
    // box can have one core), but it must produce identical outcomes with
    // real concurrency — covered by stats equality here.
    let w = rubik::workload(rubik::RubikConfig {
        seed: 5,
        scramble_len: 8,
        plan: rubik::PlanMode::Inverse,
    });
    let (e_seq, _) = run_workload(&w, &MatcherChoice::Vs2).unwrap();
    let w = rubik::workload(rubik::RubikConfig {
        seed: 5,
        scramble_len: 8,
        plan: rubik::PlanMode::Inverse,
    });
    let (e_par, _) = run_workload(&w, &psm(4, 4, LockScheme::Simple)).unwrap();
    assert_eq!(
        e_seq.match_stats().wme_changes,
        e_par.match_stats().wme_changes
    );
    assert_eq!(e_seq.cycles(), e_par.cycles());
}
