//! What observability costs in allocations.
//!
//! An engine built with metrics on (per-node match profile, phase
//! histograms, matcher instruments) must allocate at most 5 % more per
//! WME change than the same engine with them off, on every matcher: the
//! instruments are sized when the engine is built and buffered per
//! quiescence, not grown per activation. The allocator counts every thread
//! of the process, so this binary holds one test.
//!
//! vs1, vs2, lisp and col allocate exactly as much with metrics on as off
//! on these three programs. psm runs one match process, and even so its
//! count moves with how that process interleaves with the control process
//! (6×6 Weaver: 17.98 per change in most runs, 13.1..17.5 in some; Rubik
//! 11.17..11.95), so one pair of runs could read anywhere in ×0.73..×1.37.
//! The bound is therefore on the fewest allocations of [`RUNS`] runs with
//! metrics on against the most of [`RUNS`] with them off: a matcher that
//! repeats exactly is held to ×1.05, and an instrument that allocates per
//! event still fails on any matcher (one box per psm task latency sample
//! reads 23.8 against 18.0 on Weaver, one per col bucket scan 21.6 against
//! 13.1).

use engine::{EngineBuilder, MatcherKind};
use std::alloc::{GlobalAlloc, Layout, System};
use std::sync::atomic::{AtomicU64, Ordering};
use workloads::{rubik, tourney, weaver, Workload};

struct CountingAlloc;

static ALLOCS: AtomicU64 = AtomicU64::new(0);

unsafe impl GlobalAlloc for CountingAlloc {
    unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
        ALLOCS.fetch_add(1, Ordering::Relaxed);
        System.alloc(layout)
    }

    unsafe fn dealloc(&self, ptr: *mut u8, layout: Layout) {
        System.dealloc(ptr, layout)
    }

    unsafe fn realloc(&self, ptr: *mut u8, layout: Layout, new_size: usize) -> *mut u8 {
        ALLOCS.fetch_add(1, Ordering::Relaxed);
        System.realloc(ptr, layout, new_size)
    }
}

#[global_allocator]
static ALLOCATOR: CountingAlloc = CountingAlloc;

/// Runs per matcher and setting.
const RUNS: usize = 5;

/// Allocations per WME change of one run of `w` (build and set-up excluded).
fn allocs_per_change(w: &Workload, kind: MatcherKind, obs: obs::ObsConfig) -> f64 {
    let enabled = obs.enabled;
    let mut eng = EngineBuilder::from_source(&w.source)
        .expect("parse")
        .matcher(kind)
        .network_options(rete::NetworkOptions::default())
        .obs(obs)
        .build()
        .expect("build");
    workloads::load_setup(&mut eng, &w.setup).expect("setup");
    let before = ALLOCS.load(Ordering::Relaxed);
    eng.run(w.max_cycles).expect("run");
    let allocs = ALLOCS.load(Ordering::Relaxed) - before;
    (w.validate)(&eng).expect("workload validates");
    assert_eq!(eng.obs_registry().is_some(), enabled);
    allocs as f64 / eng.match_stats().wme_changes as f64
}

/// The fewest and the most allocations per change over [`RUNS`] runs.
fn spread(w: &Workload, kind: &MatcherKind, obs: obs::ObsConfig) -> (f64, f64) {
    (0..RUNS)
        .map(|_| allocs_per_change(w, kind.clone(), obs))
        .fold((f64::INFINITY, 0.0), |(lo, hi), a| (lo.min(a), hi.max(a)))
}

#[test]
fn metrics_cost_at_most_five_percent_more_allocations_per_change() {
    let programs = [
        weaver::workload(weaver::WeaverConfig {
            width: 6,
            height: 6,
            kinds: 12,
            nets: 3,
            blocked_pct: 8,
            seed: 42,
        }),
        rubik::workload(rubik::RubikConfig {
            seed: 2026,
            scramble_len: 12,
            plan: rubik::PlanMode::Inverse,
        }),
        tourney::workload(tourney::TourneyConfig {
            teams: 8,
            variant: tourney::Variant::Pathological,
        }),
    ];
    for w in &programs {
        for kind in [
            MatcherKind::Vs1,
            MatcherKind::Vs2(rete::HashMemConfig::default()),
            MatcherKind::Lisp,
            MatcherKind::Psm(psm::PsmConfig {
                match_processes: 1,
                ..psm::PsmConfig::default()
            }),
            MatcherKind::Col,
        ] {
            let name = kind.name();
            let (off_lo, off_hi) = spread(w, &kind, obs::ObsConfig::default());
            let (on_lo, on_hi) = spread(w, &kind, obs::ObsConfig::enabled());
            assert!(
                on_lo <= 1.05 * off_hi,
                "{} on {name}: {on_lo:.2}..{on_hi:.2} allocations per change with \
                 metrics on, {off_lo:.2}..{off_hi:.2} with them off (bound x1.05)",
                w.name
            );
        }
    }
}
