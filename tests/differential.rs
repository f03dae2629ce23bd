//! Differential tests: every match engine must produce the same firing
//! sequence on the same program.
//!
//! The engines differ in memory organisation (vs1 lists, vs2 hash tables),
//! execution style (compiled vs interpreted), and concurrency (sequential vs
//! 1..4 match processes with either lock scheme) — but the recognize-act
//! semantics must be identical. The firing log (production, matched
//! timetags, in firing order) is the strongest observable.

use parallel_ops5::prelude::*;
use workloads::{build_engine, rubik, synth, tourney, weaver, Workload};

fn firing_log(w: &Workload, choice: &MatcherKind) -> Vec<(u32, Vec<u64>)> {
    let mut eng = build_engine(w, choice).expect("build engine");
    eng.run(w.max_cycles).expect("run");
    eng.fired_log()
        .iter()
        .map(|(p, tags)| (p.0, tags.clone()))
        .collect()
}

fn all_choices() -> Vec<MatcherKind> {
    vec![
        MatcherKind::Vs1,
        MatcherKind::Vs2(HashMemConfig::PAPER),
        MatcherKind::Lisp,
        MatcherKind::Col,
        MatcherKind::Psm(PsmConfig {
            match_processes: 1,
            queues: 1,
            lock_scheme: LockScheme::Simple,
            buckets: 64,
        }),
        MatcherKind::Psm(PsmConfig {
            match_processes: 4,
            queues: 2,
            lock_scheme: LockScheme::Simple,
            buckets: 64,
        }),
        MatcherKind::Psm(PsmConfig {
            match_processes: 4,
            queues: 4,
            lock_scheme: LockScheme::Mrsw,
            buckets: 64,
        }),
    ]
}

fn assert_all_engines_agree(w: Workload) {
    let reference = firing_log(&w, &MatcherKind::Vs2(HashMemConfig::PAPER));
    assert!(!reference.is_empty(), "workload {} did nothing", w.name);
    for choice in all_choices() {
        let log = firing_log(&w, &choice);
        assert_eq!(
            log,
            reference,
            "firing log mismatch: {} under {}",
            w.name,
            choice.name()
        );
    }
}

#[test]
fn rubik_firings_identical_everywhere() {
    assert_all_engines_agree(rubik::workload(rubik::RubikConfig {
        seed: 3,
        scramble_len: 5,
        plan: rubik::PlanMode::Inverse,
    }));
}

#[test]
fn tourney_pathological_firings_identical() {
    assert_all_engines_agree(tourney::workload(tourney::TourneyConfig {
        teams: 6,
        variant: tourney::Variant::Pathological,
    }));
}

#[test]
fn tourney_fixed_firings_identical() {
    assert_all_engines_agree(tourney::workload(tourney::TourneyConfig {
        teams: 6,
        variant: tourney::Variant::Fixed,
    }));
}

#[test]
fn weaver_firings_identical() {
    assert_all_engines_agree(weaver::workload(weaver::WeaverConfig {
        width: 5,
        height: 4,
        kinds: 2,
        nets: 2,
        blocked_pct: 5,
        seed: 17,
    }));
}

#[test]
fn synthetic_cross_product_firings_identical() {
    assert_all_engines_agree(synth::cross_product(5));
}

#[test]
fn synthetic_chain_firings_identical() {
    assert_all_engines_agree(synth::long_chain(30));
}

#[test]
fn synthetic_fat_memories_firings_identical() {
    assert_all_engines_agree(synth::fat_memories(6, 12));
}

/// The Rubik idiom at two depths: a firing that modifies every WME it
/// matched, the control element last. vs1 and vs2 take its retractions
/// first, col sweeps it pattern-major, the rest take it as written.
#[test]
fn synthetic_carousel_firings_identical() {
    assert_all_engines_agree(synth::carousel(4, 6));
    assert_all_engines_agree(synth::carousel(9, 5));
}

/// The `programs/` corpus (the server's session profiles). `carousel` is
/// the multi-modify program: every firing of `rotate` is a batch whose
/// order the matchers disagree on.
const CORPUS: [&str; 6] = [
    "blocks",
    "fibonacci",
    "monkey",
    "hanoi",
    "triage",
    "carousel",
];

/// The corpus must also fire identically everywhere, and leave the same
/// working memory and `write` output behind. These load their startup
/// forms from source, unlike the generated workloads above.
#[test]
fn corpus_programs_identical_on_all_matchers() {
    for name in CORPUS {
        let src = std::fs::read_to_string(format!("programs/{name}.ops")).expect("read corpus");
        let log = |choice: &MatcherKind| {
            let mut eng = EngineBuilder::from_source(&src)
                .expect("parse")
                .matcher(choice.clone())
                .build()
                .expect("build");
            eng.load_startup().expect("startup");
            eng.run(100_000).expect("run");
            let fired: Vec<(u32, Vec<u64>)> = (eng.fired_log().iter())
                .map(|(p, tags)| (p.0, tags.clone()))
                .collect();
            let mut wm: Vec<String> = eng.wm().iter().map(|w| format!("{w:?}")).collect();
            wm.sort();
            (fired, wm, eng.output().to_vec())
        };
        let reference = log(&MatcherKind::Vs2(HashMemConfig::PAPER));
        assert!(!reference.0.is_empty(), "{name} did nothing");
        for choice in all_choices() {
            assert_eq!(
                log(&choice),
                reference,
                "firing log, working memory or output mismatch: {name} under {}",
                choice.name()
            );
        }
    }
}

/// Stronger than the firing log: the conflict-set contents after every
/// recognize-act cycle, rendered to bytes, must be identical on all five
/// matchers for every corpus program. Firing order alone could mask a
/// memory-level divergence that conflict resolution happens to hide.
#[test]
fn corpus_cs_history_identical_on_all_matchers() {
    for name in CORPUS {
        let src = std::fs::read_to_string(format!("programs/{name}.ops")).expect("read corpus");
        let history = |choice: &MatcherKind| -> Vec<u8> {
            let mut eng = EngineBuilder::from_source(&src)
                .expect("parse")
                .matcher(choice.clone())
                .build()
                .expect("build");
            eng.load_startup().expect("startup");
            let mut out = Vec::new();
            loop {
                let r = eng.run(1).expect("run");
                for (prod, tags) in eng.conflict_set().sorted_keys() {
                    out.extend_from_slice(format!("{}:{tags:?};", prod.0).as_bytes());
                }
                out.push(b'\n');
                if r.reason != StopReason::CycleLimit {
                    break;
                }
            }
            out
        };
        let reference = history(&MatcherKind::Vs2(HashMemConfig::PAPER));
        assert!(
            reference.len() > 4,
            "{name} produced no conflict-set history"
        );
        for choice in all_choices() {
            assert_eq!(
                history(&choice),
                reference,
                "CS history mismatch: {name} under {}",
                choice.name()
            );
        }
    }
}

/// Beta-prefix sharing and unlinking are pure optimizations: on the
/// default network (sharing) and with unlinking on as well, every matcher
/// must still produce a byte-identical per-cycle conflict-set history on
/// the whole corpus. The reference is vs2 on the paper's network
/// ([`NetworkOptions::PAPER`]: no sharing, no unlinking), so any emission
/// the shared DAG or the skip-scan gates add, drop, or reorder shows up
/// here.
#[test]
fn corpus_cs_history_identical_with_sharing_and_unlinking() {
    let tuned = NetworkOptions {
        sharing: true,
        unlinking: true,
    };
    for name in CORPUS {
        let src = std::fs::read_to_string(format!("programs/{name}.ops")).expect("read corpus");
        let history = |choice: &MatcherKind, options: NetworkOptions| -> Vec<u8> {
            let mut eng = EngineBuilder::from_source(&src)
                .expect("parse")
                .matcher(choice.clone())
                .network_options(options)
                .build()
                .expect("build");
            eng.load_startup().expect("startup");
            let mut out = Vec::new();
            loop {
                let r = eng.run(1).expect("run");
                for (prod, tags) in eng.conflict_set().sorted_keys() {
                    out.extend_from_slice(format!("{}:{tags:?};", prod.0).as_bytes());
                }
                out.push(b'\n');
                if r.reason != StopReason::CycleLimit {
                    break;
                }
            }
            out
        };
        let reference = history(
            &MatcherKind::Vs2(HashMemConfig::PAPER),
            NetworkOptions::PAPER,
        );
        assert!(
            reference.len() > 4,
            "{name} produced no conflict-set history"
        );
        for options in [NetworkOptions::default(), tuned] {
            for choice in all_choices() {
                assert_eq!(
                    history(&choice, options),
                    reference,
                    "CS history diverges on {options:?}: {name} under {}",
                    choice.name()
                );
            }
        }
    }
}

/// The parallel matcher must reach every quiescence point with TaskCount at
/// zero and no tokens parked on hash lines — the scheduler-level invariants
/// behind the firing-log equivalence the rest of this suite checks.
#[test]
fn psm_quiescence_points_are_clean() {
    use std::sync::{Arc, Mutex};
    let src = std::fs::read_to_string("programs/monkey.ops").expect("read corpus");
    let probe_slot: Arc<Mutex<Option<psm::PsmProbe>>> = Arc::new(Mutex::new(None));
    let slot = probe_slot.clone();
    let cfg = PsmConfig {
        match_processes: 4,
        queues: 2,
        lock_scheme: LockScheme::Mrsw,
        buckets: 64,
    };
    let mut eng = EngineBuilder::from_source(&src)
        .expect("parse")
        .custom_matcher(move |net| {
            let m = ParMatcher::new(net, cfg);
            *slot.lock().unwrap() = Some(m.probe());
            Box::new(m)
        })
        .build()
        .expect("build");
    let probe = probe_slot.lock().unwrap().take().expect("probe captured");
    // The act phase submits RHS changes to the matcher immediately, so the
    // state right after `run` is not a quiescence point; `settle` flushes
    // and blocks for one, and the invariants must hold there.
    eng.load_startup().expect("startup");
    eng.settle();
    assert!(probe.quiescent(), "not quiescent after startup settle");
    assert_eq!(probe.parked_tokens(), 0, "tokens parked after startup");
    loop {
        let r = eng.run(1).expect("run");
        eng.settle();
        assert!(probe.quiescent(), "tasks outstanding at quiescence");
        assert_eq!(probe.task_count(), 0, "TaskCount nonzero at quiescence");
        assert_eq!(probe.parked_tokens(), 0, "tokens parked at quiescence");
        if r.reason != StopReason::CycleLimit {
            break;
        }
    }
}

#[test]
fn trace_matcher_agrees_too() {
    let w = rubik::workload(rubik::RubikConfig {
        seed: 9,
        scramble_len: 4,
        plan: rubik::PlanMode::Inverse,
    });
    let reference = firing_log(&w, &MatcherKind::Vs2(HashMemConfig::PAPER));
    let sink = std::sync::Arc::new(std::sync::Mutex::new(psm::trace::RunTrace::default()));
    let log = firing_log(
        &w,
        &MatcherKind::Trace {
            buckets: 32768,
            sink: sink.clone(),
        },
    );
    assert_eq!(log, reference);
    assert!(sink.lock().unwrap().total_tasks() > 100);
}

/// Runs `src` to quiescence on every matcher and checks the output a
/// serial run must write: one firing per line of `want`.
fn assert_serial_output_on_all_matchers(src: &str, want: &[&str]) {
    for choice in all_choices() {
        let mut eng = EngineBuilder::from_source(src)
            .unwrap()
            .matcher(choice.clone())
            .build()
            .unwrap();
        eng.load_startup().unwrap();
        let r = eng.run(1_000).unwrap();
        assert_eq!(r.reason, StopReason::Quiescent, "{}", choice.name());
        assert_eq!(r.cycles, want.len() as u64, "{}", choice.name());
        assert_eq!(eng.output(), want, "{}", choice.name());
    }
}

/// A firing that retracts what a dominated instantiation matched: `keep`
/// fires first, then `kill` removes the WME both matched.
#[test]
fn a_retracting_firing_follows_the_rival_it_dominates() {
    assert_serial_output_on_all_matchers(
        "(literalize a v)(literalize b v)\n\
         (p keep (a ^v <v>) (b ^v <v>) --> (write keep <v> (crlf)))\n\
         (p kill (b ^v <v>) --> (remove 1) (write kill <v> (crlf)))\n\
         (make a ^v 7)\n\
         (make b ^v 7)",
        &["keep 7", "kill 7"],
    );
}

/// Rivals for one WME: the first firing removes the token, so only one
/// `grab` fires.
#[test]
fn rivals_for_one_wme_fire_once() {
    assert_serial_output_on_all_matchers(
        "(literalize item v)(literalize token id)\n\
         (p grab (item ^v <v>) (token ^id <t>) --> (remove 2) (write got <v> (crlf)))\n\
         (make token ^id 1)\n\
         (make item ^v 1)\n\
         (make item ^v 2)",
        &["got 2"],
    );
}

/// Gensyms are drawn in firing order: g1..g4 go to the seeds in recency
/// order.
#[test]
fn gensyms_are_drawn_in_firing_order() {
    assert_serial_output_on_all_matchers(
        "(literalize seed v)(literalize out tag src)\n\
         (p spawn (seed ^v <v>) --> (bind <g>) (write made <g> from <v> (crlf)) (remove 1))\n\
         (make seed ^v 1)\n\
         (make seed ^v 2)\n\
         (make seed ^v 3)\n\
         (make seed ^v 4)",
        &[
            "made g1 from 4",
            "made g2 from 3",
            "made g3 from 2",
            "made g4 from 1",
        ],
    );
}

/// A firing that fails stops the run with its error, and draws nothing
/// past it: the next run's `label` writes the first gensym, `a g1`.
#[test]
fn a_failing_firing_leaves_the_next_gensym_undrawn() {
    let src = "(literalize bad v)(literalize item id tag)\n\
               (p boom (bad ^v <v>) --> (remove 1) (remove 1))\n\
               (p label (item ^id <i> ^tag nil) --> \
                  (bind <g>) (modify 1 ^tag <g>) (write <i> <g> (crlf)))\n\
               (make item ^id a)\n\
               (make bad ^v 1)";
    for choice in all_choices() {
        let label = choice.name();
        let mut eng = EngineBuilder::from_source(src)
            .unwrap()
            .matcher(choice.clone())
            .build()
            .unwrap();
        eng.load_startup().unwrap();
        let err = eng.run(100).expect_err(label).to_string();
        assert!(err.contains("RHS removed wme 2 twice"), "{label}: {err}");
        eng.run(100).unwrap();
        assert_eq!(eng.output().to_vec(), vec!["a g1".to_string()], "{label}");
    }
}

/// `run(n)` stops after exactly `n` firings and the lifetime budget after
/// exactly its cycles, on every matcher, and both leave the same state.
#[test]
fn run_caps_and_the_lifetime_budget_stop_on_their_cycle() {
    let src = std::fs::read_to_string("programs/triage.ops").expect("read corpus");
    let build = |choice: &MatcherKind, limits: engine::EngineLimits| {
        let mut eng = EngineBuilder::from_source(&src)
            .unwrap()
            .matcher(choice.clone())
            .limits(limits)
            .build()
            .unwrap();
        eng.load_startup().unwrap();
        eng
    };
    for cap in [1u64, 3, 5, 8, 17] {
        let mut reference = None;
        for choice in all_choices() {
            let mut eng = build(&choice, Default::default());
            let r = eng.run(cap).unwrap();
            assert_eq!((r.cycles, r.reason), (cap, StopReason::CycleLimit));
            let snap = eng.snapshot().to_text();
            let reference = reference.get_or_insert_with(|| snap.clone());
            assert_eq!(&snap, reference, "cap {cap} under {}", choice.name());
        }
    }
    let limits = engine::EngineLimits {
        max_wm: None,
        max_cycles: Some(6),
    };
    for choice in all_choices() {
        let mut eng = build(&choice, limits);
        let r = eng.run(100).unwrap();
        assert_eq!((r.cycles, r.reason), (6, StopReason::Budget));
        assert!(eng.budget_exhausted());
    }
}
