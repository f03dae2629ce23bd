//! PSM-E stress sweep: queues x lock schemes x beta-prefix sharing.
//!
//! Every configuration must (a) keep the scheduler's TaskCount non-negative
//! and at zero across quiescence points, (b) leave no tokens parked on hash
//! lines once quiescent, (c) reconcile its node profile and its registry's
//! lock counts with the counters its processes booked at every quiescence
//! point, and fill its registry with valid histograms, and (d)
//! produce a per-cycle conflict-set history byte-identical to the
//! sequential vs2 reference — the strongest cross-matcher observable we
//! have.

use parallel_ops5::prelude::*;
use psm::PsmProbe;
use std::sync::{Arc, Mutex};

const PROGRAMS: [&str; 2] = ["blocks", "monkey"];

fn sweep_configs() -> Vec<(PsmConfig, NetworkOptions)> {
    let mut configs = Vec::new();
    // No match process: the control thread runs every task itself.
    for (match_processes, queues) in [(4, 1usize), (4, 4), (0, 1)] {
        for scheme in [LockScheme::Simple, LockScheme::Mrsw] {
            for options in [NetworkOptions::PAPER, NetworkOptions::default()] {
                configs.push((
                    PsmConfig {
                        match_processes,
                        queues,
                        lock_scheme: scheme,
                        buckets: 64,
                    },
                    options,
                ));
            }
        }
    }
    configs
}

/// Per-cycle conflict-set history on the vs2 reference (the paper's
/// network).
fn vs2_history(src: &str) -> Vec<u8> {
    let mut eng = EngineBuilder::from_source(src)
        .expect("parse")
        .vs2()
        .network_options(NetworkOptions::PAPER)
        .build()
        .expect("build vs2");
    eng.load_startup().expect("startup");
    cs_history(&mut eng, None, "vs2")
}

/// Runs the engine one cycle at a time, rendering the conflict set after
/// each, and checks the scheduler invariants and the counters at every
/// quiescence point when a probe is supplied.
///
/// The act phase submits RHS changes to the matcher immediately (match/act
/// overlap is the parallel design), so the state right after `run` is not a
/// quiescence point — `settle` is what flushes and blocks for one. Applied
/// to reference and candidate alike so the histories stay comparable.
fn cs_history(eng: &mut Engine, probe: Option<(&PsmProbe, PsmConfig)>, label: &str) -> Vec<u8> {
    let mut out = Vec::new();
    loop {
        let r = eng.run(1).expect("run");
        eng.settle();
        if let Some((p, cfg)) = probe {
            assert!(p.quiescent(), "{label}: tasks outstanding at quiescence");
            assert_eq!(
                p.task_count(),
                0,
                "{label}: TaskCount must be exactly zero at quiescence"
            );
            assert_eq!(
                p.parked_tokens(),
                0,
                "{label}: tokens left parked on hash lines at quiescence"
            );
            reconcile(eng, label);
            identities(eng, cfg, label);
        }
        for (prod, tags) in eng.conflict_set().sorted_keys() {
            out.extend_from_slice(format!("{}:{tags:?};", prod.0).as_bytes());
        }
        out.push(b'\n');
        if r.reason != StopReason::CycleLimit {
            break;
        }
    }
    out
}

/// The node profile records at exactly the statements that book the join
/// counters, and a match process books a task before the task leaves
/// TaskCount: at a quiescence point the profile and the summed per-process
/// counters agree. A task whose counts landed after it left TaskCount
/// would be missing from the counters here.
fn reconcile(eng: &Engine, label: &str) {
    let stats = eng.match_stats();
    let profile = eng.node_profile().expect("psm node profile");
    assert_eq!(
        profile.total_activations(),
        stats.join_activations,
        "{label}: profile activations != MatchStats.join_activations"
    );
    assert_eq!(
        profile.total_scanned(),
        stats.opp_tokens_left + stats.opp_tokens_right,
        "{label}: profile scan volume != opposite-memory token count"
    );
}

/// The lock counts the registry absorbed at a quiescence point, against the
/// tasks the counters booked. A task is pushed once and popped once, and an
/// MRSW requeue pushes and pops it once more; the inline driver takes no
/// queue lock. A join activation takes its line once, and a claim MRSW
/// refused took the entry lock once more.
fn identities(eng: &Engine, cfg: PsmConfig, label: &str) {
    let stats = eng.match_stats();
    let snap = eng.obs_registry().expect("registry").snapshot();
    // Summed over the `side` label where there is one.
    let counter = |name: &str| -> u64 {
        let values = snap.metrics.iter().filter(|m| m.name == name);
        values
            .map(|m| match m.data {
                obs::MetricData::Counter(v) => v,
                ref other => panic!("{label}: {name} is {other:?}"),
            })
            .sum()
    };
    let requeues = counter("psm_requeues_total");
    let tasks = stats.alpha_activations + stats.activations;
    let queue_acqs = match cfg.match_processes {
        0 => 0,
        _ => 2 * (tasks + requeues),
    };
    assert_eq!(
        counter("psm_queue_lock_acquisitions_total"),
        queue_acqs,
        "{label}: queue acquisitions"
    );
    assert_eq!(
        counter("psm_line_lock_acquisitions_total"),
        stats.join_activations + requeues,
        "{label}: line acquisitions"
    );
    if cfg.lock_scheme == LockScheme::Simple {
        assert_eq!(requeues, 0, "{label}: the simple lock never requeues");
    }
}

#[test]
fn psm_sweep_keeps_invariants_and_matches_vs2() {
    for name in PROGRAMS {
        let src = std::fs::read_to_string(format!("programs/{name}.ops")).expect("read corpus");
        let reference = vs2_history(&src);
        assert!(
            reference.len() > 4,
            "{name} produced no conflict-set history"
        );
        for (cfg, opts) in sweep_configs() {
            let label = format!(
                "{name} k{} q{} {:?} sharing={}",
                cfg.match_processes, cfg.queues, cfg.lock_scheme, opts.sharing
            );
            let probe_slot: Arc<Mutex<Option<PsmProbe>>> = Arc::new(Mutex::new(None));
            let slot = probe_slot.clone();
            let mut eng = EngineBuilder::from_source(&src)
                .expect("parse")
                .custom_matcher(move |net| {
                    let m = ParMatcher::new(net, cfg);
                    *slot.lock().unwrap() = Some(m.probe());
                    Box::new(m)
                })
                .network_options(opts)
                .obs(ObsConfig::enabled())
                .build()
                .expect("build psm");
            eng.load_startup().expect("startup");
            let probe = probe_slot.lock().unwrap().take().expect("probe captured");

            let history = cs_history(&mut eng, Some((&probe, cfg)), &label);
            assert_eq!(history, reference, "CS history diverges: {label}");

            // Every histogram must be internally consistent.
            let snap = eng.obs_registry().expect("registry").snapshot();
            for (hname, h) in snap.histograms() {
                h.validate()
                    .unwrap_or_else(|e| panic!("{label}: {hname}: {e}"));
            }
        }
    }
}
