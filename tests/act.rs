//! Differential tests for the parallel act phase.
//!
//! `ActStrategy::Parallel` is serial-equivalent *by construction* (prefix
//! selection in dominance order, fertile firings close their group, doomed
//! candidates skipped only when a selected member retracts their support).
//! This suite checks the construction: on the corpus, on hand-written
//! interference shapes, and on random programs × random scripts, a
//! parallel-act engine must be byte-identical to a serial one — firing
//! log, working memory, `write` output, stop reason, and the full snapshot
//! text — on all five matchers.

use engine::EngineLimits;
use parallel_ops5::prelude::*;
use proptest::prelude::*;
use proptest::strategy::Just;

fn five_matchers() -> Vec<MatcherKind> {
    vec![
        MatcherKind::Vs1,
        MatcherKind::Vs2(rete::HashMemConfig::default()),
        MatcherKind::Lisp,
        MatcherKind::Col,
        MatcherKind::Psm(PsmConfig {
            match_processes: 2,
            ..PsmConfig::default()
        }),
    ]
}

/// Everything observable about a finished run, as comparable bytes.
struct Observed {
    snapshot: String,
    output: Vec<String>,
    cycles: u64,
    reason: StopReason,
    stats: ActStats,
}

fn observe(
    src: &str,
    kind: MatcherKind,
    act: ActStrategy,
    max_cycles: u64,
) -> Result<Observed, String> {
    let mut eng = EngineBuilder::from_source(src)
        .map_err(|e| e.to_string())?
        .matcher(kind)
        .act_strategy(act)
        .build()
        .map_err(|e| e.to_string())?;
    eng.load_startup().map_err(|e| e.to_string())?;
    let r = eng.run(max_cycles).map_err(|e| e.to_string())?;
    Ok(Observed {
        snapshot: eng.snapshot().to_text(),
        output: eng.output().to_vec(),
        cycles: r.cycles,
        reason: r.reason,
        stats: eng.act_stats(),
    })
}

fn assert_equivalent(src: &str, kind: MatcherKind, max_cycles: u64, label: &str) -> ActStats {
    let serial = observe(src, kind.clone(), ActStrategy::Serial, max_cycles);
    let parallel = observe(src, kind, ActStrategy::parallel(), max_cycles);
    match (serial, parallel) {
        (Ok(s), Ok(p)) => {
            assert_eq!(p.snapshot, s.snapshot, "{label}: snapshot diverged");
            assert_eq!(p.output, s.output, "{label}: output diverged");
            assert_eq!(p.cycles, s.cycles, "{label}: cycle count diverged");
            assert_eq!(p.reason, s.reason, "{label}: stop reason diverged");
            assert_eq!(p.stats.fired, s.stats.fired, "{label}: firings diverged");
            p.stats
        }
        // Runtime errors (e.g. a generated RHS removing the same WME
        // twice) must surface identically under both strategies.
        (Err(se), Err(pe)) => {
            assert_eq!(pe, se, "{label}: errors diverged");
            ActStats::default()
        }
        (s, p) => panic!(
            "{label}: one strategy errored: serial={:?} parallel={:?}",
            s.as_ref().map(|_| "ok").map_err(|e| e.clone()),
            p.as_ref().map(|_| "ok").map_err(|e| e.clone())
        ),
    }
}

/// The programs/ corpus, serial vs parallel, on all five matchers: the
/// snapshot (working memory, fired conflict set, firing log, output) must
/// be byte-identical.
#[test]
fn corpus_parallel_act_equals_serial_on_all_matchers() {
    for name in [
        "blocks",
        "fibonacci",
        "monkey",
        "hanoi",
        "triage",
        "carousel",
    ] {
        let src = std::fs::read_to_string(format!("programs/{name}.ops")).expect("read corpus");
        for kind in five_matchers() {
            let label = format!("{name}/{}", kind.name());
            assert_equivalent(&src, kind, 100_000, &label);
        }
    }
}

/// Triage is the grouping showcase: remove-only route rules are infertile
/// and pairwise independent, so groups actually form — and each group
/// costs one match pass and one submit where serial pays one per firing.
/// On vs2 and on col: grouping is the act phase's, whatever matches.
#[test]
fn triage_groups_and_cuts_match_passes() {
    let src = std::fs::read_to_string("programs/triage.ops").expect("read corpus");
    for kind in [MatcherKind::default(), MatcherKind::Col] {
        let name = kind.name();
        let serial = observe(&src, kind.clone(), ActStrategy::Serial, 100_000).unwrap();
        let parallel = observe(&src, kind, ActStrategy::parallel(), 100_000).unwrap();
        let (s, p) = (serial.stats, parallel.stats);
        assert_eq!(p.fired, s.fired, "{name}");
        assert!(
            p.mean_group_size() > 1.5,
            "{name}: triage should group: {p:?}"
        );
        assert!(
            p.match_passes < s.match_passes,
            "{name}: grouping must cut match passes: parallel {} vs serial {}",
            p.match_passes,
            s.match_passes
        );
        assert!(
            p.act_submits < s.act_submits,
            "{name}: grouping must cut submits: parallel {} vs serial {}",
            p.act_submits,
            s.act_submits
        );
    }
}

/// Hand-written interference: `kill` retracts the WME `keep` matched, and
/// `keep` dominates (longer timetag list, equal prefix). They must NOT
/// group — firing them together would let `kill` destroy `keep`'s support
/// in the same batch — but both still fire, serially, in two groups.
#[test]
fn retract_of_selected_support_does_not_group() {
    let src = "(literalize a v)(literalize b v)\n\
               (p keep (a ^v <v>) (b ^v <v>) --> (write keep <v> (crlf)))\n\
               (p kill (b ^v <v>) --> (remove 1) (write kill <v> (crlf)))\n\
               (make a ^v 7)\n\
               (make b ^v 7)";
    for kind in five_matchers() {
        let label = format!("interference/{}", kind.name());
        let stats = assert_equivalent(src, kind, 1_000, &label);
        assert_eq!(stats.fired, 2, "{label}: both productions fire");
        assert_eq!(stats.groups, 2, "{label}: but never in one group");
        assert!(
            stats.interference_rejects >= 1,
            "{label}: the rejected extension is counted: {stats:?}"
        );
    }
}

/// Doomed skip: two instantiations share the token WME and both would
/// retract it. In a serial run the second dies when the first fires; in a
/// parallel run it is skipped during selection (not fired, not a group
/// stopper) and the walk continues past it.
#[test]
fn doomed_candidate_is_skipped_not_fired() {
    let src = "(literalize item v)(literalize token id)\n\
               (p grab (item ^v <v>) (token ^id <t>) --> (remove 2) (write got <v> (crlf)))\n\
               (make token ^id 1)\n\
               (make item ^v 1)\n\
               (make item ^v 2)";
    for kind in five_matchers() {
        let label = format!("doomed/{}", kind.name());
        let stats = assert_equivalent(src, kind, 1_000, &label);
        assert_eq!(stats.fired, 1, "{label}: only one grab gets the token");
        assert!(
            stats.doomed_skips >= 1,
            "{label}: the doomed rival is skipped: {stats:?}"
        );
    }
}

/// A `run` cap must land on the same cycle and reason under both
/// strategies: a k-firing group counts k cycles, and a cap below the
/// natural group size shrinks the group rather than overshooting.
#[test]
fn cycle_caps_and_budget_count_group_members() {
    let src = std::fs::read_to_string("programs/triage.ops").expect("read corpus");
    // Caller cap (CycleLimit), including caps that bisect a group.
    for cap in [1u64, 3, 5, 8, 17] {
        let mut serial = EngineBuilder::from_source(&src)
            .unwrap()
            .act_strategy(ActStrategy::Serial)
            .build()
            .unwrap();
        let mut parallel = EngineBuilder::from_source(&src)
            .unwrap()
            .act_strategy(ActStrategy::parallel())
            .build()
            .unwrap();
        for eng in [&mut serial, &mut parallel] {
            eng.load_startup().unwrap();
        }
        let rs = serial.run(cap).unwrap();
        let rp = parallel.run(cap).unwrap();
        assert_eq!((rp.cycles, rp.reason), (rs.cycles, rs.reason), "cap {cap}");
        assert_eq!(
            parallel.snapshot().to_text(),
            serial.snapshot().to_text(),
            "cap {cap}"
        );
    }
    // Lifetime budget (Budget), resumable, same semantics.
    let limits = EngineLimits {
        max_wm: None,
        max_cycles: Some(6),
    };
    let mut eng = EngineBuilder::from_source(&src)
        .unwrap()
        .act_strategy(ActStrategy::parallel())
        .limits(limits)
        .build()
        .unwrap();
    eng.load_startup().unwrap();
    let r = eng.run(100).unwrap();
    assert_eq!(r.reason, StopReason::Budget);
    assert_eq!(r.cycles, 6);
    assert!(eng.budget_exhausted());
}

/// `run(1)` degrades to exactly the serial single-fire cycle, so per-cycle
/// observation loops (CLI trace, CS-history differential tests) are
/// unaffected by the strategy.
#[test]
fn run_one_fires_one_under_parallel() {
    let src = std::fs::read_to_string("programs/triage.ops").expect("read corpus");
    let mut eng = EngineBuilder::from_source(&src)
        .unwrap()
        .act_strategy(ActStrategy::parallel())
        .build()
        .unwrap();
    eng.load_startup().unwrap();
    loop {
        let r = eng.run(1).unwrap();
        if r.reason != StopReason::CycleLimit {
            break;
        }
        assert_eq!(r.cycles, 1);
    }
    let stats = eng.act_stats();
    assert_eq!(stats.fired, stats.groups, "every group was a singleton");
}

/// Gensyms drawn inside a group must come out of the symbol table in
/// conflict-set order, so symbol interning stays byte-identical to serial
/// (the snapshot comparison covers the table via rendered WME fields).
#[test]
fn gensym_order_is_serial_under_grouping() {
    let src = "(literalize seed v)(literalize out tag src)\n\
               (p spawn (seed ^v <v>) --> (bind <g>) (write made <g> from <v> (crlf)) (remove 1))\n\
               (make seed ^v 1)\n\
               (make seed ^v 2)\n\
               (make seed ^v 3)\n\
               (make seed ^v 4)";
    for kind in five_matchers() {
        let label = format!("gensym/{}", kind.name());
        let stats = assert_equivalent(src, kind, 1_000, &label);
        assert_eq!(stats.fired, 4, "{label}");
    }
}

/// A group stops at its first failing member, and the members it did not
/// reach have drawn nothing: `boom` dominates `label` and the two group,
/// `boom` fails, and the next run's `label` draws the first gensym, as it
/// does in a serial run.
#[test]
fn a_failing_member_leaves_the_rest_of_its_group_undrawn() {
    let src = "(literalize bad v)(literalize item id tag)\n\
               (p boom (bad ^v <v>) --> (remove 1) (remove 1))\n\
               (p label (item ^id <i> ^tag nil) --> \
                  (bind <g>) (modify 1 ^tag <g>) (write <i> <g> (crlf)))\n\
               (make item ^id a)\n\
               (make bad ^v 1)";
    for kind in five_matchers() {
        let mut snapshots = Vec::new();
        for act in [ActStrategy::Serial, ActStrategy::parallel()] {
            let label = format!("{}/{}", kind.name(), act.name());
            let mut eng = EngineBuilder::from_source(src)
                .unwrap()
                .matcher(kind.clone())
                .act_strategy(act)
                .build()
                .unwrap();
            eng.load_startup().unwrap();
            let err = eng.run(100).expect_err(&label).to_string();
            assert!(err.contains("RHS removed wme 2 twice"), "{label}: {err}");
            eng.run(100).unwrap();
            assert_eq!(eng.output().to_vec(), vec!["a g1".to_string()], "{label}");
            snapshots.push(eng.snapshot().to_text());
        }
        assert_eq!(snapshots[0], snapshots[1], "{}", kind.name());
    }
}

// ---------------------------------------------------------------------------
// Random programs × random scripts.

/// A random RHS action over classes c0..c2 / fields f0..f2, always legal
/// for a production whose first CE binds <v0> <v1> <v2>.
#[derive(Debug, Clone)]
enum GenAction {
    RemoveFirst,
    ModifyFirst(u8, i64),
    Make(u8, u8),
    WriteV(u8),
    BindGensymMake,
    Halt,
}

fn gen_action() -> impl Strategy<Value = GenAction> {
    // Repeated arms weight the distribution toward the consuming actions
    // that keep runs short (the vendored proptest has no `w =>` syntax).
    prop_oneof![
        Just(GenAction::RemoveFirst),
        Just(GenAction::RemoveFirst),
        Just(GenAction::RemoveFirst),
        (0u8..3, 0i64..4).prop_map(|(f, k)| GenAction::ModifyFirst(f, k)),
        (0u8..3, 0u8..3).prop_map(|(c, v)| GenAction::Make(c, v)),
        (0u8..3).prop_map(GenAction::WriteV),
        Just(GenAction::BindGensymMake),
        Just(GenAction::Halt),
    ]
}

#[derive(Debug, Clone)]
struct GenProd {
    classes: Vec<(u8, bool)>, // (class, negated); first is never negated
    tests: Vec<(u8, u8)>,     // (field, const) tests on the first CE
    actions: Vec<GenAction>,
}

fn gen_prod() -> impl Strategy<Value = GenProd> {
    (
        0u8..3,
        proptest::collection::vec((0u8..3, any::<bool>()), 0..2),
        proptest::collection::vec((0u8..3, 0u8..3), 0..2),
        proptest::collection::vec(gen_action(), 1..4),
    )
        .prop_map(|(first, rest, tests, actions)| GenProd {
            classes: std::iter::once((first, false)).chain(rest).collect(),
            tests,
            actions,
        })
}

/// Renders a generated program. The first CE binds all three variables so
/// every action is legal; `remove`/`modify` always target CE 1.
fn render(prods: &[GenProd], wmes: &[(u8, [i64; 3])]) -> String {
    let mut s = String::new();
    for c in 0..3 {
        s.push_str(&format!("(literalize c{c} f0 f1 f2)\n"));
    }
    for (pi, p) in prods.iter().enumerate() {
        s.push_str(&format!("(p p{pi}\n  (c{}", p.classes[0].0));
        s.push_str(" ^f0 <v0> ^f1 <v1> ^f2 <v2>");
        for (f, k) in &p.tests {
            s.push_str(&format!(" ^f{f} {k}"));
        }
        s.push(')');
        for (c, neg) in &p.classes[1..] {
            s.push_str(if *neg { "\n  - (c" } else { "\n  (c" });
            s.push_str(&format!("{c})"));
        }
        s.push_str("\n  -->");
        for a in &p.actions {
            match a {
                GenAction::RemoveFirst => s.push_str(" (remove 1)"),
                GenAction::ModifyFirst(f, k) => {
                    s.push_str(&format!(" (modify 1 ^f{f} (compute <v{f}> + {k}))"))
                }
                GenAction::Make(c, v) => s.push_str(&format!(" (make c{c} ^f0 <v{v}> ^f1 9)")),
                GenAction::WriteV(v) => s.push_str(&format!(" (write p{pi} <v{v}> (crlf))")),
                GenAction::BindGensymMake => {
                    s.push_str(" (bind <gg>) (make c2 ^f2 <gg>)");
                }
                GenAction::Halt => s.push_str(" (halt)"),
            }
        }
        s.push_str(")\n");
    }
    for (c, fields) in wmes {
        s.push_str(&format!(
            "(make c{c} ^f0 {} ^f1 {} ^f2 {})\n",
            fields[0], fields[1], fields[2]
        ));
    }
    s
}

proptest! {
    #![proptest_config(ProptestConfig {
        cases: 12, ..ProptestConfig::default()
    })]

    /// Random programs (make/modify/remove/write/gensym/halt RHSes,
    /// negated CEs, constant tests) on random initial working memory:
    /// parallel act must be indistinguishable from serial on all five
    /// matchers — including which runtime error a bad program raises.
    #[test]
    fn parallel_act_equiv_serial(
        prods in proptest::collection::vec(gen_prod(), 1..4),
        wmes in proptest::collection::vec((0u8..3, [0i64..4, 0i64..4, 0i64..4]), 1..8),
        cap in 1u64..60,
    ) {
        let src = render(&prods, &wmes);
        for kind in five_matchers() {
            let label = format!("{}/cap{cap}\n{src}", kind.name());
            assert_equivalent(&src, kind, cap, &label);
        }
    }
}
