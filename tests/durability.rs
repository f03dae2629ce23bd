//! Property-based tests for the durability subsystem (`engine::state`).
//!
//! Strategy: generate small random programs whose productions actually fire
//! (`(remove 1)` RHS, so firings consume matches and every run terminates),
//! plus random command sequences of staged asserts, staged retracts, and
//! bounded runs. Two properties must hold on every matcher:
//!
//! * **Snapshot transparency** — cutting the sequence at any point,
//!   serializing the engine through snapshot *text*, restoring into a fresh
//!   engine (on the same or a *different* matcher), and continuing produces
//!   the byte-identical observation trace (per-run cycle counts, stop
//!   reasons, sorted conflict sets) and identical final state as the
//!   uninterrupted engine.
//! * **Journal replay** — an initial snapshot plus the change/firing log
//!   journaled during the run reconstructs the final state exactly.

use engine::{Engine, EngineBuilder, MatcherKind, Snapshot};
use ops5::{wire, Value};
use proptest::prelude::*;

/// A random condition element over classes c0..c2, fields f0..f2.
#[derive(Debug, Clone)]
struct GenCe {
    class: u8,
    negated: bool,
    tests: Vec<(u8, GenTest)>,
}

#[derive(Debug, Clone)]
enum GenTest {
    Const(u8),
    Var(u8),
    VarNe(u8),
}

fn gen_test() -> impl Strategy<Value = GenTest> {
    prop_oneof![
        (0u8..4).prop_map(GenTest::Const),
        (0u8..3).prop_map(GenTest::Var),
        (0u8..3).prop_map(GenTest::VarNe),
    ]
}

fn gen_ce() -> impl Strategy<Value = GenCe> {
    (
        0u8..3,
        proptest::collection::vec((0u8..3, gen_test()), 0..3),
    )
        .prop_map(|(class, tests)| GenCe {
            class,
            negated: false,
            tests,
        })
}

#[derive(Debug, Clone)]
struct GenProgram {
    prods: Vec<Vec<GenCe>>,
}

fn gen_program() -> impl Strategy<Value = GenProgram> {
    proptest::collection::vec(
        (
            gen_ce(),
            proptest::collection::vec((gen_ce(), any::<bool>()), 0..2),
        ),
        1..4,
    )
    .prop_map(|prods| GenProgram {
        prods: prods
            .into_iter()
            .map(|(first, rest)| {
                let mut lhs = vec![first];
                for (mut ce, neg) in rest {
                    ce.negated = neg;
                    lhs.push(ce);
                }
                lhs
            })
            .collect(),
    })
}

/// Renders the generated program as OPS5 source. Every production's first
/// CE binds all three variables (so predicate tests are always legal) and
/// its RHS removes that CE's WME — firings consume their own support, so
/// runs terminate and the firing log stays interesting.
fn render(prog: &GenProgram) -> String {
    let mut s = String::new();
    for c in 0..3 {
        s.push_str(&format!("(literalize c{c} f0 f1 f2)\n"));
    }
    for (pi, lhs) in prog.prods.iter().enumerate() {
        s.push_str(&format!("(p p{pi}\n"));
        for (ci, ce) in lhs.iter().enumerate() {
            if ce.negated && ci > 0 {
                s.push_str("  - ");
            } else {
                s.push_str("  ");
            }
            s.push_str(&format!("(c{}", ce.class));
            if ci == 0 {
                s.push_str(" ^f0 <v0> ^f1 <v1> ^f2 <v2>");
            }
            for (field, t) in &ce.tests {
                match t {
                    GenTest::Const(v) => s.push_str(&format!(" ^f{field} {v}")),
                    GenTest::Var(v) => s.push_str(&format!(" ^f{field} <v{v}>")),
                    GenTest::VarNe(v) => s.push_str(&format!(" ^f{field} <> <v{v}>")),
                }
            }
            s.push_str(")\n");
        }
        s.push_str("  --> (remove 1))\n");
    }
    s
}

/// A random session command: staged assert, staged retract (of some
/// previously issued timetag), or a bounded run.
#[derive(Debug, Clone)]
enum Cmd {
    Stage(u8, [u8; 3]),
    Retract(usize),
    Run(u8),
}

fn gen_cmds() -> impl Strategy<Value = Vec<Cmd>> {
    proptest::collection::vec(
        prop_oneof![
            (0u8..3, [0u8..4, 0u8..4, 0u8..4]).prop_map(|(c, f)| Cmd::Stage(c, f)),
            (0u8..3, [0u8..4, 0u8..4, 0u8..4]).prop_map(|(c, f)| Cmd::Stage(c, f)),
            (0usize..64).prop_map(Cmd::Retract),
            (1u8..4).prop_map(Cmd::Run),
        ],
        1..20,
    )
}

fn kinds() -> Vec<(&'static str, MatcherKind)> {
    vec![
        ("vs1", MatcherKind::Vs1),
        ("vs2", MatcherKind::Vs2(rete::HashMemConfig::default())),
        ("lisp", MatcherKind::Lisp),
        (
            "psm",
            MatcherKind::Psm(psm::PsmConfig {
                match_processes: 1,
                ..psm::PsmConfig::default()
            }),
        ),
        ("col", MatcherKind::Col),
    ]
}

fn build(src: &str, kind: &MatcherKind) -> Engine {
    EngineBuilder::from_source(src)
        .expect("generated source parses")
        .matcher(kind.clone())
        .build()
        .expect("engine builds")
}

/// Applies a command slice, appending one observation line per command.
/// `tags` carries the staged-timetag pool across a snapshot cut, so the
/// continued engine retracts exactly what the uninterrupted one would.
fn apply(eng: &mut Engine, cmds: &[Cmd], tags: &mut Vec<u64>, trace: &mut Vec<String>) {
    for cmd in cmds {
        match cmd {
            Cmd::Stage(c, f) => {
                let class = eng
                    .prog
                    .symbols
                    .get(&format!("c{c}"))
                    .expect("class interned");
                let fields: Vec<Value> = f.iter().map(|x| Value::Int(i64::from(*x))).collect();
                let w = eng.stage(class, fields).expect("stage");
                tags.push(w.timetag);
                trace.push(format!("stage {}", w.timetag));
            }
            Cmd::Retract(i) => {
                if tags.is_empty() {
                    trace.push("retract none".into());
                    continue;
                }
                let t = tags[i % tags.len()];
                let ok = eng.stage_retract(t).is_ok();
                trace.push(format!("retract {t} {ok}"));
            }
            Cmd::Run(k) => {
                let res = eng.run(u64::from(*k)).expect("run");
                eng.settle();
                let cs: Vec<String> = eng
                    .conflict_set()
                    .sorted_keys()
                    .iter()
                    .map(|(p, tags)| format!("{}:{tags:?}", eng.prog.prod_name(*p)))
                    .collect();
                trace.push(format!("run {} {:?} cs={cs:?}", res.cycles, res.reason));
            }
        }
    }
}

/// Everything observable about an engine's final state, as one string.
fn state_sig(eng: &Engine) -> String {
    let prog = &eng.prog;
    let mut wm: Vec<String> = eng
        .wm()
        .iter()
        .map(|w| {
            format!(
                "{} {}",
                w.timetag,
                wire::print_wme(w, &prog.symbols, &prog.classes)
            )
        })
        .collect();
    wm.sort();
    let fired: Vec<String> = eng
        .fired_log()
        .iter()
        .map(|(p, tags)| format!("{}:{tags:?}", prog.prod_name(*p)))
        .collect();
    let cs: Vec<String> = eng
        .conflict_set()
        .sorted_keys()
        .iter()
        .map(|(p, tags)| format!("{}:{tags:?}", prog.prod_name(*p)))
        .collect();
    format!(
        "cycles={} clock={} staged={} wm={wm:?} cs={cs:?} fired={fired:?}",
        eng.cycles(),
        eng.wm().clock(),
        eng.staged_len(),
    )
}

proptest! {
    #![proptest_config(ProptestConfig { cases: 24, .. ProptestConfig::default() })]

    /// snapshot → text → parse → restore → continue ≡ uninterrupted, with
    /// the restore landing on the *next* matcher in the rotation — so every
    /// matcher is exercised both as snapshot source and as restore target.
    #[test]
    fn snapshot_cut_is_invisible(
        genp in gen_program(),
        cmds in gen_cmds(),
        cut_seed in 0usize..64,
    ) {
        let src = render(&genp);
        let kinds = kinds();
        let cut = cut_seed % (cmds.len() + 1);
        for (i, (_, kind)) in kinds.iter().enumerate() {
            // Uninterrupted reference.
            let mut a = build(&src, kind);
            let mut tags_a = Vec::new();
            let mut trace_a = Vec::new();
            apply(&mut a, &cmds, &mut tags_a, &mut trace_a);

            // Same prefix, snapshot at the cut, restore onto the next
            // matcher kind, continue with the suffix.
            let (_, kind_c) = &kinds[(i + 1) % kinds.len()];
            let mut b = build(&src, kind);
            let mut tags_bc = Vec::new();
            let mut trace_bc = Vec::new();
            apply(&mut b, &cmds[..cut], &mut tags_bc, &mut trace_bc);
            let text = b.snapshot().to_text();
            let snap = Snapshot::parse(&text).expect("snapshot text parses");
            let mut c = build(&src, kind_c);
            c.restore(&snap).expect("restore");
            apply(&mut c, &cmds[cut..], &mut tags_bc, &mut trace_bc);

            prop_assert_eq!(&trace_a, &trace_bc, "trace diverged (cut {})", cut);
            prop_assert_eq!(state_sig(&a), state_sig(&c), "final state diverged (cut {})", cut);
        }
    }

    /// An initial snapshot plus the journaled change/firing log replays to
    /// the exact final state, on every matcher.
    #[test]
    fn journal_replay_reconstructs_state(
        genp in gen_program(),
        cmds in gen_cmds(),
    ) {
        let src = render(&genp);
        for (_, kind) in kinds() {
            let mut j = build(&src, &kind);
            let snap0 = Snapshot::parse(&j.snapshot().to_text()).expect("snapshot parses");
            j.enable_journal();
            let mut tags = Vec::new();
            let mut trace = Vec::new();
            apply(&mut j, &cmds, &mut tags, &mut trace);
            let log_text = j.journal().expect("journal on").to_text();

            let mut k = build(&src, &kind);
            k.restore(&snap0).expect("restore initial snapshot");
            let log = engine::ChangeLog::parse(&log_text).expect("log parses");
            log.replay(&mut k).expect("replay");
            // Replayed firings leave the matcher un-quiesced right after the
            // last fire; settle both sides so the comparison sees the same
            // fold point.
            j.settle();
            k.settle();
            prop_assert_eq!(state_sig(&j), state_sig(&k));
        }
    }
}

/// A conflict set of Tourney's size survives a snapshot cut entry for entry:
/// the fired key of the snapshot finds its re-derived entry among thousands
/// (restore reaches it through the table, not by scanning them), and
/// refraction then holds on the restored side as on the uninterrupted one.
///
/// Every Tourney firing modifies its own support, so no fired entry of the
/// program proper outlives its cycle. The observer rule appended here fires
/// once on a WME staged mid-run (the newest element, so it wins the next
/// resolve) and changes nothing: its instantiation stays, refracted.
#[test]
fn tourney_sized_conflict_set_survives_a_snapshot_cut() {
    // 24 teams, the benchmark's size: a round opens on 552 ordered pairs x
    // 12 courts and still offers 3800 candidates two pairings in.
    let w = workloads::tourney::workload(workloads::tourney::TourneyConfig {
        teams: 24,
        ..Default::default()
    });
    let src = format!(
        "{}(literalize probe n)\n(p probe-seen (probe ^n <n>) --> (write probe <n> (crlf)))\n",
        w.source
    );
    let kinds = kinds();
    for (i, (name, kind)) in kinds.iter().enumerate() {
        let mut a = build(&src, kind);
        workloads::load_setup(&mut a, &w.setup).expect("setup loads");
        assert_eq!(a.run(2).expect("run").cycles, 2);
        let probe = a.prog.symbols.get("probe").expect("class interned");
        a.stage(probe, vec![Value::Int(7)]).expect("stage");
        assert_eq!(a.run(1).expect("run").cycles, 1);
        assert_eq!(a.output().last().map(String::as_str), Some("probe 7"));

        let text = a.snapshot().to_text();
        let snap = Snapshot::parse(&text).expect("snapshot text parses");
        assert_eq!(snap.fired_cs.len(), 1, "{name}: {:?}", snap.fired_cs);
        assert_eq!(snap.fired_cs[0].0, "probe-seen");

        let (name_b, kind_b) = &kinds[(i + 1) % kinds.len()];
        let mut b = build(&src, kind_b);
        b.restore(&snap).expect("restore");
        let cs = a.conflict_set();
        assert!(cs.len() >= 1000, "{name}: {} entries", cs.len());
        assert_eq!(b.conflict_set().sorted_keys(), cs.sorted_keys());
        assert_eq!(b.conflict_set().fired_keys(), cs.fired_keys());

        // The probe's instantiation still dominates every candidate; only
        // refraction keeps it from firing again.
        for eng in [&mut a, &mut b] {
            assert_eq!(eng.run(5).expect("run").cycles, 5);
            eng.settle();
            assert_eq!(eng.output().iter().filter(|l| *l == "probe 7").count(), 1);
        }
        assert_eq!(state_sig(&a), state_sig(&b), "{name} -> {name_b}");
    }
}
