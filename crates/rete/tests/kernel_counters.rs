//! Golden counters for the sequential activation kernel.
//!
//! vs1/vs2 are the baseline every other matcher and every table is read
//! against, so a kernel change must leave the *work* it reports exactly
//! where it was: all of [`MatchStats`] and, for vs2 and col, the
//! conflict-set changes of every quiescence in emission order. The literals below were
//! captured on the commit before the borrowed kernel landed; on a mismatch
//! the test prints the whole measured table in the layout of [`GOLDEN`].
//! Only change a row together with a reason the counter should have moved.
//!
//! The `col` rows pin the same columns for the set-at-a-time matcher,
//! captured when its right memories became shared: `same_searches_right`
//! counts one delete search per right *memory*, and a right activation of a
//! reader with an empty left memory is `null_skipped` with unlinking off as
//! well.
//!
//! vs1/vs2 were re-pinned once, when their right memories became the
//! network's shared ones too (one per alpha pattern x equality signature
//! instead of one per join). Exactly four columns moved, on all three
//! programs, for the reason col's did: a reader with an empty left memory
//! is retired without being run, so right nulls leave `null_activations`
//! for `null_skipped` whatever the unlinking option says (smoke Weaver
//! 5840/0 -> 125/5715; the 125 are left nulls, still the option's to move),
//! and a WME is searched for once per memory, not once per join
//! (`same_searches_right` 2843 -> 244, 168 -> 99, 54 -> 15, col's numbers;
//! `same_tokens_right` with it). The other twelve columns, every col row
//! and all three CS-order digests are the parent's: the kernel takes a
//! change's right activations in descending join order, which is the order
//! the per-join agenda popped them in.
//!
//! The last two columns ([`TOUCHED`]: `alpha_tests`, `readers_visited`) were
//! appended when those counters were added, and are the only ones a change
//! to how the alpha network is dispatched or how a right store finds its
//! readers may move. They moved once, with the other sixteen and the digests
//! untouched, when the class's constant index and the linked reader lists
//! replaced the walk over every pattern and every reader (vs1/vs2: smoke
//! Weaver 1052/6848 -> 367/1133, Tourney 435/385 -> 203/192, negated
//! 108/108 -> 36/50): `readers_visited` is now exactly the right activations
//! performed, `opp_nonempty_right` plus those that found their line empty.
//! vs2 runs on the explicit 16 384-line table every literal
//! here was recorded with: inside a line `swap_remove` moves the line's last
//! entry, which may belong to another memory, so the order of a memory's own
//! entries — and with it `same_tokens_*` and the CS-change order the digests
//! hash — depends on which memories share a line, i.e. on the geometry. The
//! folded conflict set, every `opp_*` counter and every firing do not.
//!
//! vs1/vs2 were re-pinned a third time when `SeqMatcher::submit` began to
//! take a batch's retractions before its assertions, and the fourth program
//! (the Rubik shape: 8 chained single-WME CEs, all modified by the firing,
//! the control element last) was added with it so the table shows the
//! effect and not only its absence. What moved is the work spent on tokens
//! a firing used to derive and retract again inside its own batch, which
//! are no longer derived; every col row, every `quiescences` count and the
//! columns `wme_changes`, `alpha_activations`, `conjugate_pairs` and
//! `alpha_tests` are the parent's.
//! - carousel (measured on the parent with this file's fourth program):
//!   `activations` 438 -> 158, `join_activations` 357 -> 147, `cs_changes`
//!   81 -> 11 (one `Insert` at set-up, then one `Remove` + one `Insert` per
//!   firing instead of 8 + 8), left scans and delete searches 279/140 ->
//!   64/35, `readers_visited` 71 -> 6. The chain comes down once per firing
//!   (`-slot 1`), every other slot change finds its reader dead
//!   (`null_skipped` 6 -> 71), `-turn` meets an emptied right memory (the one
//!   left null per firing: `null_activations` 1 -> 6), and only `+turn`
//!   builds. In the sixteen work columns the parent's vs1/vs2 row was
//!   col's, which reads as it did. Digest moved.
//! - negated: `cs_changes` 60 -> 48 — six instantiations of `steal`, asserted
//!   by `claim`'s `make lock` while the item is still `new` and retracted by
//!   the `modify 1` that follows — and `activations` 258 -> 246 with them.
//!   `join_activations` is 198 on both (a dead reader is booked too): two
//!   right activations find their reader dead (`readers_visited` 50 -> 48,
//!   `null_skipped` 58 -> 60) and two left ones an empty right memory
//!   (`null_activations` 23 -> 25). Digest moved.
//! - Weaver: 14 transient tokens, none of which reached a terminal:
//!   `join_activations` 8593 -> 8565 (14 `+` and 14 `-` left activations),
//!   `same_searches_left` 871 -> 857, `readers_visited` 1133 -> 1094 (39
//!   right activations now find their reader dead: `null_skipped`
//!   5715 -> 5754), `null_activations` 125 -> 109, the `opp_*` columns by
//!   what those activations scanned. `cs_changes` 251 and the digest did
//!   not move: no firing of this Weaver emitted a transient.
//! - Tourney: 28 right activations that used to run and find their line
//!   empty (vs2) or scan tokens of other keys (vs1: `opp_tokens_right`
//!   477 -> 305, `opp_nonempty_right` 192 -> 164) meet a reader whose token
//!   has already been retracted: `readers_visited` 192 -> 164, `null_skipped`
//!   193 -> 221. Every other column, `cs_changes` 984 and the digest stand:
//!   `count`'s re-derivation after each firing is needed in any order.
//!
//! vs1/vs2 were re-pinned a fourth time when a positive join feeding one
//! join began to keep, in each left entry, the children it sent on, and to
//! take them from there on a left `-` instead of scanning its right memory
//! again (tree-based removal). Exactly two columns moved, `opp_tokens_left`
//! and `opp_nonempty_left`: the scans those removals no longer make. Weaver
//! vs1 32205/1513 -> 17640/832, vs2 1100/757 -> 509/432; Tourney vs1
//! 5435/1048 -> 5118/942, vs2 1839/708 -> 1522/602; negated vs1 54/38 ->
//! 48/34 (vs2's 18/18 stand: its removed tokens met an empty line);
//! carousel 64/64 -> 39/39 on both. The rows were predicted before the
//! change by not booking those scans on the parent, and matched. A right
//! `-` at such a join still examines its left line (no join test, but the
//! same entries), every other column, every col row and all four CS-order
//! digests are the parent's: the children go out in the order the scan
//! would have found them.
//!
//! The col rows were re-pinned once, when col dropped its own columnar
//! lines for vs2's `HashMem` (same schedule, vs2's line geometry). Only the
//! six columns that count entries examined on a line moved:
//! `opp_tokens_left`/`opp_nonempty_left`, `opp_tokens_right`/
//! `opp_nonempty_right` and `same_tokens_left`/`same_tokens_right`. A vs2
//! line holds every memory's entries but a scan examines only its own
//! memory's, where a columnar line held one memory's entries of every key
//! (Weaver 9257/1555, 1686/1105, 871/359 -> 1170/823, 820/820, 872/674;
//! Tourney 4061/1045, 575/201, 2152/118 -> 1837/776, 471/201, 1550/249;
//! negated 54/34, 156/62, 90/15 -> 18/18, 42/42, 45/15). Every other column
//! and the whole carousel row are the parent's.
//!
//! The col rows were re-pinned a second time when col, too, began to keep
//! children at a positive join feeding one join and to send them on a left
//! `-` instead of rescanning its right memory (tree-based removal in both
//! passes). Exactly two columns moved, `opp_tokens_left` and
//! `opp_nonempty_left`: the scans those removals no longer make. Weaver
//! 1170/823 -> 550/471, Tourney 1837/776 -> 1535/671, carousel 279/279 ->
//! 174/174; negated's 18/18 stand, as vs2's did (no removal at such a join
//! examined anything there). The rows were predicted before the change by not
//! booking those scans on the parent, and matched. Pass 1's right `-` at
//! such a join still examines its left line (the same entries, no join
//! test); every other column, every vs1/vs2 row and all four CS-order
//! digests are the parent's.
//!
//! At the same time the `unlinking = true` rows were dropped. The option
//! used to move the left nulls of vs1, vs2 and col from `null_activations`
//! to `null_skipped`, and nothing else; now it moves nothing for them (it
//! is psm's and `psm::trace`'s alone), and the test asserts that every
//! counter and the CS-change sequence read the same with it on.
//!
//! col's four CS-order digests were added, as captured on the commit before
//! col and vs1/vs2 came to share one node activation, so that the sharing
//! could not reorder col's emissions unnoticed. Before that only vs2's order
//! was pinned.
//!
//! lispsim has no rows of its own: it is the kernel over vs1's list
//! memories with interpreted join tests, and must read every vs1 row.
//!
//! [`GOLDEN_TRACE`] pins `psm::trace`'s recorder on the same four programs:
//! its eighteen columns and an FNV-1a digest of every recorded task and
//! every cycle's roots, which is what the Multimax simulator replays. It
//! keeps footnote 6's per-join memories and its own line geometry, so its
//! rows are compared with nothing but themselves. Unlinking moves only
//! `null_activations`/`null_skipped`; the trace is the same either way.

use engine::{ActStrategy, EngineBuilder, MatcherKind};
use ops5::{ChangeBatch, CsChange, MatchStats, Matcher, QuiesceReport};
use psm::trace::{RunTrace, TaskKind, TaskRecord};
use rete::{HashMemConfig, Network, NetworkOptions};
use std::sync::{Arc, Mutex};
use workloads::{rubik, synth, tourney, weaver, SetupVal, Workload};

fn programs() -> Vec<Workload> {
    let mut setup = Vec::new();
    for id in 1..=6 {
        setup.push(workloads::SetupWme::new(
            "item",
            &[("id", SetupVal::Int(id)), ("state", SetupVal::sym("new"))],
        ));
        if id % 2 == 0 {
            // Pre-existing blockers: `claim` starts blocked, `steal` unblocks.
            setup.push(workloads::SetupWme::new(
                "lock",
                &[("id", SetupVal::Int(id))],
            ));
        }
    }
    vec![
        weaver::workload(weaver::WeaverConfig {
            width: 5,
            height: 4,
            kinds: 2,
            nets: 2,
            blocked_pct: 5,
            seed: 17,
        }),
        tourney::workload(tourney::TourneyConfig {
            teams: 6,
            variant: tourney::Variant::Pathological,
        }),
        Workload {
            name: "negated".into(),
            source: synth::NEGATED.into(),
            setup,
            max_cycles: 1000,
            validate: Box::new(|_| Ok(())),
        },
        // The Rubik shape: 8 chained single-WME CEs, every one modified by
        // the firing, the control element last.
        synth::carousel(8, 5),
    ]
}

/// FNV-1a over every quiescence's CS changes, in emission order, with a
/// separator per quiescence; plus the number of quiescences.
#[derive(Clone, Copy, PartialEq, Eq, Debug)]
struct CsDigest {
    hash: u64,
    quiescences: u64,
}

impl CsDigest {
    fn word(&mut self, w: u64) {
        for b in w.to_le_bytes() {
            self.hash = (self.hash ^ b as u64).wrapping_mul(0x100_0000_01b3);
        }
    }
}

struct Recorded {
    inner: Box<dyn Matcher>,
    digest: Arc<Mutex<CsDigest>>,
}

impl Matcher for Recorded {
    fn submit(&mut self, batch: &ChangeBatch) {
        self.inner.submit(batch)
    }

    fn quiesce(&mut self) -> QuiesceReport {
        let r = self.inner.quiesce();
        let mut d = self.digest.lock().unwrap();
        d.quiescences += 1;
        d.word(u64::MAX);
        for c in &r.cs_changes {
            let (sign, inst) = match c {
                CsChange::Insert(i) => (1, i),
                CsChange::Remove(i) => (2, i),
            };
            d.word(sign);
            d.word(inst.prod.0 as u64);
            for w in &inst.wmes {
                d.word(w.timetag);
            }
        }
        r
    }

    fn stats(&self) -> MatchStats {
        self.inner.stats()
    }

    fn reset_stats(&mut self) {
        self.inner.reset_stats()
    }

    fn name(&self) -> &'static str {
        self.inner.name()
    }
}

const COLUMNS: usize = 16;
/// Appended columns: `alpha_tests`, `readers_visited`.
const TOUCHED: usize = 2;

fn columns(s: &MatchStats) -> ([u64; COLUMNS], [u64; TOUCHED]) {
    (work_columns(s), [s.alpha_tests, s.readers_visited])
}

fn work_columns(s: &MatchStats) -> [u64; COLUMNS] {
    [
        s.wme_changes,
        s.activations,
        s.alpha_activations,
        s.join_activations,
        s.null_activations,
        s.null_skipped,
        s.opp_tokens_left,
        s.opp_nonempty_left,
        s.opp_tokens_right,
        s.opp_nonempty_right,
        s.same_tokens_left,
        s.same_searches_left,
        s.same_tokens_right,
        s.same_searches_right,
        s.cs_changes,
        s.conjugate_pairs,
    ]
}

type Measured = ([u64; COLUMNS], [u64; TOUCHED]);

fn run(w: &Workload, matcher: &'static str, unlinking: bool) -> (Measured, CsDigest) {
    let digest = Arc::new(Mutex::new(CsDigest {
        hash: 0xcbf2_9ce4_8422_2325,
        quiescences: 0,
    }));
    let sink = digest.clone();
    let factory = move |net: Arc<Network>| -> Box<dyn Matcher> {
        let inner = match matcher {
            "vs1" => rete::seq::boxed_vs1(net),
            "vs2" => rete::seq::boxed_vs2(net, HashMemConfig::PAPER),
            _ => rete::colmatch::boxed_col(net),
        };
        Box::new(Recorded {
            inner,
            digest: sink,
        })
    };
    // Everything an environment knob could re-point is pinned: the matcher
    // (factory), the network options and the act strategy.
    let mut eng = EngineBuilder::from_source(&w.source)
        .expect("parse")
        .custom_matcher(factory)
        .network_options(NetworkOptions {
            sharing: false,
            unlinking,
        })
        .act_strategy(ActStrategy::Serial)
        .build()
        .expect("build");
    workloads::load_setup(&mut eng, &w.setup).expect("setup");
    eng.run(w.max_cycles).expect("run");
    (w.validate)(&eng).expect("workload validates");
    let stats = columns(&eng.match_stats());
    let d = *digest.lock().unwrap();
    (stats, d)
}

/// One row per (program, matcher), columns as in [`columns`]: the same
/// with the network's `unlinking` option on and off.
type Row = (&'static str, &'static str, [u64; COLUMNS], [u64; TOUCHED]);

#[rustfmt::skip]
const GOLDEN: &[Row] = &[
    ("weaver(5x4x2, 2 nets, 2 kinds)", "vs1", [361, 8816, 295, 8565, 109, 5754, 17640, 832, 1809, 1094, 4642, 857, 2174, 244, 251, 0], [367, 1094]),
    ("weaver(5x4x2, 2 nets, 2 kinds)", "vs2", [361, 8816, 295, 8565, 109, 5754, 509, 432, 778, 778, 858, 857, 674, 244, 251, 0], [367, 1094]),
    ("weaver(5x4x2, 2 nets, 2 kinds)", "col", [361, 8898, 295, 8593, 93, 5743, 550, 471, 820, 820, 872, 871, 674, 244, 305, 0], [367, 875]),
    ("tourney(6 teams, pathological)", "vs1", [263, 3065, 137, 2081, 95, 221, 5118, 942, 305, 164, 4099, 844, 249, 99, 984, 0], [203, 164]),
    ("tourney(6 teams, pathological)", "vs2", [263, 3065, 137, 2081, 95, 221, 1522, 602, 305, 164, 1546, 844, 249, 99, 984, 0], [203, 164]),
    ("tourney(6 teams, pathological)", "col", [263, 3065, 137, 2081, 98, 184, 1535, 671, 471, 201, 1550, 844, 249, 99, 984, 0], [203, 156]),
    ("negated", "vs1", [66, 246, 54, 198, 25, 60, 48, 34, 132, 48, 90, 45, 24, 15, 48, 0], [36, 48]),
    ("negated", "vs2", [66, 246, 54, 198, 25, 60, 18, 18, 18, 18, 45, 45, 15, 15, 48, 0], [36, 48]),
    ("negated", "col", [66, 258, 54, 198, 29, 46, 18, 18, 42, 42, 45, 45, 15, 15, 60, 0], [36, 62]),
    ("synth-carousel(8 CEs, 5 turns)", "vs1", [88, 158, 18, 147, 6, 71, 39, 39, 6, 6, 35, 35, 35, 35, 11, 0], [99, 6]),
    ("synth-carousel(8 CEs, 5 turns)", "vs2", [88, 158, 18, 147, 6, 71, 39, 39, 6, 6, 35, 35, 35, 35, 11, 0], [99, 6]),
    ("synth-carousel(8 CEs, 5 turns)", "col", [88, 438, 18, 357, 1, 6, 174, 174, 71, 71, 140, 140, 35, 35, 81, 0], [99, 36]),
];

/// vs2's and col's CS-change digest per program; identical with unlinking
/// off and on.
#[rustfmt::skip]
const GOLDEN_CS: &[(&str, &str, CsDigest)] = &[
    ("weaver(5x4x2, 2 nets, 2 kinds)", "vs2", CsDigest { hash: 0xacbedc7a38366a7f, quiescences: 114 }),
    ("weaver(5x4x2, 2 nets, 2 kinds)", "col", CsDigest { hash: 0x21610ba4d5a4fafc, quiescences: 114 }),
    ("tourney(6 teams, pathological)", "vs2", CsDigest { hash: 0xe008df502d996622, quiescences: 67 }),
    ("tourney(6 teams, pathological)", "col", CsDigest { hash: 0x945c72442f68cec2, quiescences: 67 }),
    ("negated", "vs2", CsDigest { hash: 0x4954e9356e0baa65, quiescences: 22 }),
    ("negated", "col", CsDigest { hash: 0x7acbbf6c5da99105, quiescences: 22 }),
    ("synth-carousel(8 CEs, 5 turns)", "vs2", CsDigest { hash: 0xbb09e5a53c681956, quiescences: 6 }),
    ("synth-carousel(8 CEs, 5 turns)", "col", CsDigest { hash: 0xd9296c3f3394b7f5, quiescences: 6 }),
];

#[test]
fn counters_and_cs_order_match_the_parent_commit() {
    let mut rows: Vec<(String, &'static str, Measured)> = Vec::new();
    let mut digests: Vec<(String, &'static str, CsDigest)> = Vec::new();
    for w in programs() {
        for label in ["vs1", "vs2", "col"] {
            let off = run(&w, label, false);
            assert_eq!(
                run(&w, label, true),
                off,
                "{} {label}: the unlinking option moved a counter or the CS-change sequence",
                w.name
            );
            rows.push((w.name.clone(), label, off.0));
            if label != "vs1" {
                digests.push((w.name.clone(), label, off.1));
            }
        }
    }
    let mut table = String::from("const GOLDEN: &[Row] = &[\n");
    for (name, label, (stats, touched)) in &rows {
        table += &format!("    ({name:?}, {label:?}, {stats:?}, {touched:?}),\n");
    }
    table += "];\nconst GOLDEN_CS: &[(&str, &str, CsDigest)] = &[\n";
    for (name, label, d) in &digests {
        table += &format!(
            "    ({name:?}, {label:?}, CsDigest {{ hash: {:#x}, quiescences: {} }}),\n",
            d.hash, d.quiescences
        );
    }
    table += "];";
    let same_rows = rows.len() == GOLDEN.len()
        && rows
            .iter()
            .zip(GOLDEN)
            .all(|(a, b)| (a.0.as_str(), a.1, a.2) == (b.0, b.1, (b.2, b.3)));
    let same_cs = digests.len() == GOLDEN_CS.len()
        && digests
            .iter()
            .zip(GOLDEN_CS)
            .all(|(a, b)| (a.0.as_str(), a.1, a.2) == *b);
    assert!(
        same_rows && same_cs,
        "kernel counters moved; measured:\n{table}"
    );
    // The programs must actually reach the arms the kernel special-cases:
    // left nulls are performed, and the dead readers of a right memory are
    // never run.
    for (name, label, (s, _)) in &rows {
        let (null, skipped, cs) = (s[4], s[5], s[14]);
        assert!(cs > 0, "{name} {label}: no conflict-set change");
        assert!(null > 0 && skipped > 0, "{name} {label}: no null work");
    }
}

/// FNV-1a over a recorded trace: every field of every [`TaskRecord`] and
/// every cycle's root ids, with a separator per cycle; plus the task count.
#[derive(Clone, Copy, PartialEq, Eq, Debug)]
struct TraceDigest {
    hash: u64,
    tasks: u64,
}

fn trace_digest(trace: &RunTrace) -> TraceDigest {
    let mut d = CsDigest {
        hash: 0xcbf2_9ce4_8422_2325,
        quiescences: 0,
    };
    d.word(trace.n_lines as u64);
    for c in &trace.cycles {
        d.word(u64::MAX);
        for &r in &c.roots {
            d.word(r as u64);
        }
        d.word(u64::MAX - 1);
        for t in &c.tasks {
            let TaskRecord {
                id,
                parent,
                kind,
                line,
                examined,
                same_examined,
                emitted,
                alpha_tests,
                group,
            } = *t;
            let kind = match kind {
                TaskKind::Root => 0,
                TaskKind::Left { negated } => 1 + negated as u64,
                TaskKind::Right { negated } => 3 + negated as u64,
                TaskKind::Terminal => 5,
            };
            for w in [
                id as u64,
                parent.map_or(u64::MAX, |p| p as u64),
                kind,
                line as u64,
                examined as u64,
                same_examined as u64,
                emitted as u64,
                alpha_tests as u64,
                group as u64,
            ] {
                d.word(w);
            }
        }
    }
    TraceDigest {
        hash: d.hash,
        tasks: trace.total_tasks() as u64,
    }
}

/// The trace recorder on the paper's line count, serial act, network
/// options as given: all eighteen counter columns and the trace's digest.
fn trace_run(w: &Workload, unlinking: bool) -> (Measured, TraceDigest) {
    let sink = Arc::new(Mutex::new(RunTrace::default()));
    let mut eng = EngineBuilder::from_source(&w.source)
        .expect("parse")
        .matcher(MatcherKind::Trace {
            buckets: HashMemConfig::PAPER.buckets,
            sink: sink.clone(),
        })
        .network_options(NetworkOptions {
            sharing: false,
            unlinking,
        })
        .act_strategy(ActStrategy::Serial)
        .build()
        .expect("build");
    workloads::load_setup(&mut eng, &w.setup).expect("setup");
    eng.run(w.max_cycles).expect("run");
    (w.validate)(&eng).expect("workload validates");
    let stats = columns(&eng.match_stats());
    let d = trace_digest(&sink.lock().unwrap());
    (stats, d)
}

/// One row per (program, unlinking): columns as in [`columns`], then the
/// digest of the recorded trace.
type TraceRow = (
    &'static str,
    bool,
    [u64; COLUMNS],
    [u64; TOUCHED],
    TraceDigest,
);

#[rustfmt::skip]
const GOLDEN_TRACE: &[TraceRow] = &[
    ("weaver(5x4x2, 2 nets, 2 kinds)", false, [361, 8844, 295, 8593, 5840, 0, 1114, 771, 792, 792, 871, 871, 10137, 2843, 251, 0], [0, 0], TraceDigest { hash: 0x9b7a3b66cfbfdc97, tasks: 9139 }),
    ("weaver(5x4x2, 2 nets, 2 kinds)", true, [361, 8844, 295, 8593, 0, 5840, 1114, 771, 792, 792, 871, 871, 10137, 2843, 251, 0], [0, 0], TraceDigest { hash: 0x9b7a3b66cfbfdc97, tasks: 9139 }),
    ("tourney(6 teams, pathological)", false, [263, 3065, 137, 2081, 289, 0, 1824, 707, 320, 164, 1505, 844, 447, 168, 984, 0], [0, 0], TraceDigest { hash: 0xe8fde6645681ab99, tasks: 3202 }),
    ("tourney(6 teams, pathological)", true, [263, 3065, 137, 2081, 0, 289, 1824, 707, 320, 164, 1505, 844, 447, 168, 984, 0], [0, 0], TraceDigest { hash: 0xe8fde6645681ab99, tasks: 3202 }),
    ("negated", false, [66, 258, 54, 198, 81, 0, 24, 24, 30, 30, 45, 45, 54, 54, 60, 0], [0, 0], TraceDigest { hash: 0xa613ebe94116fb9a, tasks: 312 }),
    ("negated", true, [66, 258, 54, 198, 0, 81, 24, 24, 30, 30, 45, 45, 54, 54, 60, 0], [0, 0], TraceDigest { hash: 0xa613ebe94116fb9a, tasks: 312 }),
    ("synth-carousel(8 CEs, 5 turns)", false, [88, 438, 18, 357, 7, 0, 279, 279, 71, 71, 140, 140, 35, 35, 81, 0], [0, 0], TraceDigest { hash: 0x73a5ca925c3fe462, tasks: 456 }),
    ("synth-carousel(8 CEs, 5 turns)", true, [88, 438, 18, 357, 0, 7, 279, 279, 71, 71, 140, 140, 35, 35, 81, 0], [0, 0], TraceDigest { hash: 0x73a5ca925c3fe462, tasks: 456 }),
];

/// The trace recorder feeds every simulated table (4-5..4-9), so its work
/// and the task graph it records are pinned like the kernel's: the same
/// four programs, unlinking off and on.
#[test]
fn trace_counters_and_task_graph_match_the_parent_commit() {
    let mut rows = Vec::new();
    for w in programs() {
        for unlinking in [false, true] {
            let (stats, d) = trace_run(&w, unlinking);
            rows.push((w.name.clone(), unlinking, stats, d));
        }
    }
    let mut table = String::from("const GOLDEN_TRACE: &[TraceRow] = &[\n");
    for (name, unlinking, (stats, touched), d) in &rows {
        table += &format!(
            "    ({name:?}, {unlinking}, {stats:?}, {touched:?}, TraceDigest {{ hash: {:#x}, tasks: {} }}),\n",
            d.hash, d.tasks
        );
    }
    table += "];";
    let same = rows.len() == GOLDEN_TRACE.len()
        && rows
            .iter()
            .zip(GOLDEN_TRACE)
            .all(|(a, b)| (a.0.as_str(), a.1, a.2, a.3) == (b.0, b.1, (b.2, b.3), b.4));
    assert!(same, "trace counters moved; measured:\n{table}");
}

/// `kind` with serial act, network options as given.
fn kind_stats(w: &Workload, kind: MatcherKind, options: NetworkOptions) -> MatchStats {
    let mut eng = EngineBuilder::from_source(&w.source)
        .expect("parse")
        .matcher(kind)
        .network_options(options)
        .act_strategy(ActStrategy::Serial)
        .build()
        .expect("build");
    workloads::load_setup(&mut eng, &w.setup).expect("setup");
    eng.run(w.max_cycles).expect("run");
    (w.validate)(&eng).expect("workload validates");
    eng.match_stats()
}

/// vs2 on the paper's table.
fn vs2_stats(w: &Workload, options: NetworkOptions) -> MatchStats {
    kind_stats(w, MatcherKind::Vs2(HashMemConfig::PAPER), options)
}

/// lispsim is the kernel over vs1's list memories with its join tests
/// interpreted, so it does vs1's work exactly: all eighteen columns of
/// every vs1 row of [`GOLDEN`], with unlinking off and on alike. Only the
/// clock tells the two apart, which is what Table 4-4 measures.
#[test]
fn lispsim_counts_what_vs1_counts() {
    for w in programs() {
        for unlinking in [false, true] {
            let options = NetworkOptions {
                sharing: false,
                unlinking,
            };
            let lisp = columns(&kind_stats(&w, MatcherKind::Lisp, options));
            let vs1 = (GOLDEN.iter())
                .find(|r| (r.0, r.1) == (w.name.as_str(), "vs1"))
                .expect("a vs1 row");
            assert_eq!(lisp, (vs1.2, vs1.3), "{} unlinking {unlinking}", w.name);
        }
    }
}

/// A Rubik change is dispatched through its class's constant index, not
/// the chain of every pattern of its class (which evaluated 50.6 constant
/// tests per change to find the 1.02 that pass). Measured on this
/// 12-move scramble: 0.955 per change (553 tests, 579 changes); on the
/// 100-move benchmark cube 0.95. The bound is the benchmark-size gate's.
#[test]
fn a_rubik_change_evaluates_at_most_four_constant_tests() {
    let w = rubik::workload(rubik::RubikConfig {
        seed: 2026,
        scramble_len: 12,
        plan: rubik::PlanMode::Inverse,
    });
    let s = vs2_stats(&w, NetworkOptions::default());
    let per_change = s.alpha_tests as f64 / s.wme_changes as f64;
    assert!(
        per_change <= 4.0,
        "vs2 evaluated {per_change:.2} constant tests per Rubik change: the \
         alpha network must be looked up, not walked"
    );
}

/// Beta-prefix sharing plus unlinking cut Weaver's join activations by at
/// least a fifth. Measured on this 6x6 grid: 23.2 % (68 153 -> 52 350);
/// the 5x4 grid of [`programs`] reads 20.7 %, too close to the bound to
/// gate on. The cut is sharing's: for vs1, vs2 and col the unlinking option
/// moves no counter ([`counters_and_cs_order_match_the_parent_commit`]).
#[test]
fn sharing_and_unlinking_cut_weaver_join_activations_by_a_fifth() {
    let w = weaver::workload(weaver::WeaverConfig {
        width: 6,
        height: 6,
        kinds: 12,
        nets: 3,
        blocked_pct: 8,
        seed: 42,
    });
    let base = vs2_stats(&w, NetworkOptions::default());
    let tuned = vs2_stats(
        &w,
        NetworkOptions {
            sharing: true,
            unlinking: true,
        },
    );
    let cut = 1.0 - tuned.join_activations as f64 / base.join_activations as f64;
    assert!(
        cut >= 0.20,
        "sharing + unlinking cut Weaver's join activations by {:.1} % ({} -> {}), \
         not by a fifth",
        100.0 * cut,
        base.join_activations,
        tuned.join_activations
    );
}

/// The network the ledger's `weaver` workload compiles: 2562 joins read 125
/// right memories (the test-free `wave` pattern alone feeds 829 joins from
/// 3), each join's memory has exactly its own equality signature, and
/// `validate` notices when one does not.
#[test]
fn benchmark_weaver_joins_share_125_right_memories() {
    let prog = ops5::Program::from_source(&weaver::generate_source(36)).expect("parse");
    let mut net = Network::compile_with(&prog, NetworkOptions::default()).expect("compile");
    assert_eq!((net.n_joins(), net.right_mems.len()), (2562, 125));
    assert_eq!(net.summary().right_memories, 125);
    for j in &net.joins {
        let sig: Vec<u16> = j.eq_specs.iter().map(|s| s.right_field).collect();
        assert_eq!(
            *net.right_mems[j.right_mem as usize].fields, *sig,
            "{}",
            j.id
        );
    }
    let widest = net.patterns.iter().map(|p| p.succs.len()).max();
    let wave = net.patterns.iter().find(|p| Some(p.succs.len()) == widest);
    assert_eq!(
        wave.map(|p| (p.succs.len(), p.right_mems.len())),
        Some((829, 3))
    );
    assert_eq!(net.validate(), Vec::<String>::new());

    // Any other memory belongs to another pattern or signature.
    net.joins[0].right_mem ^= 1;
    assert!(!net.validate().is_empty());
}
