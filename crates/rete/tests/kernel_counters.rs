//! Golden counters for the sequential activation kernel.
//!
//! vs1/vs2 are the baseline every other matcher and every table is read
//! against, so a kernel change must leave the *work* it reports exactly
//! where it was: all of [`MatchStats`] and, for vs2, the conflict-set
//! changes of every quiescence in emission order. The literals below were
//! captured on the commit before the borrowed kernel landed; on a mismatch
//! the test prints the whole measured table in the layout of [`GOLDEN`].
//! Only change a row together with a reason the counter should have moved.
//!
//! col has no rows of its own: it is vs2 with a table sized by its
//! population (`rete::colmatch`), and must read that vs2's row and CS order.
//! Its rows and digests went with its set-at-a-time schedule.
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
//! hash — depends on which memories share a line, i.e. on the geometry, and
//! so do the `opp_tokens_*` and `opp_nonempty_*` counters: a scan examines
//! its join's entries on the line whatever their key (the small
//! Weaver's `opp_tokens_left`/`opp_nonempty_left` read 479/402 on the paper's
//! table and 494/415 on one sized by its population). The folded conflict
//! set and every firing do not.
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
//! At the same time the `unlinking = true` rows were dropped. The option
//! used to move the left nulls of vs1, vs2 and col from `null_activations`
//! to `null_skipped`, and nothing else; now it moves nothing for them (it
//! is psm's and `psm::trace`'s alone), and the test asserts that every
//! counter and the CS-change sequence read the same with it on.
//!
//! Every vs1, vs2 and col row was re-pinned when every positive join came
//! to keep its children — a join that feeds a terminal, or several
//! successors under sharing, as well as one that feeds one join — so that
//! no left `-` at a positive join scans its right memory. Exactly two
//! columns moved, `opp_tokens_left` and `opp_nonempty_left`, on both
//! network shapes: paper Weaver vs1 17640/832 -> 16519/802, vs2 509/432 ->
//! 479/402, col 550/471 -> 520/441; Tourney vs1 5118/942 -> 4728/778, vs2
//! 1522/602 -> 1132/438, col 1535/671 -> 1259/509; negated vs1 48/34 ->
//! 36/24, vs2 and col 18/18 -> 12/12; carousel vs1/vs2 39/39 -> 34/34, col
//! 174/174 -> 139/139; shared Weaver vs2 525/410 -> 453/376, col 626/465 ->
//! 550/431. The rows were predicted before the change by not booking those
//! scans on the parent. Every other column and all sixteen CS-order
//! digests, eight per shape, are the parent's: a terminal's list leaves in the order the
//! rescan found, and col still runs each reader over a group's changes
//! before the next reader.
//!
//! [`GOLDEN`] and [`GOLDEN_CS`] are the paper's network
//! ([`NetworkOptions::PAPER`]: one unshared join chain per production).
//! [`GOLDEN_SHARED`] and [`GOLDEN_CS_SHARED`] pin vs2 on the network
//! with beta-prefix sharing, captured on the commit before sharing became
//! the compiled default. Only Weaver has a shareable prefix: the other three
//! programs compile the same network either way and read their paper rows.
//! On Weaver the shared joins cut vs2's `join_activations` 8565 -> 6795;
//! its CS changes come out in another order (its digest differs, the
//! folded set does not).
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

use engine::{EngineBuilder, MatcherKind};
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

fn run(w: &Workload, matcher: &'static str, options: NetworkOptions) -> (Measured, CsDigest) {
    let digest = Arc::new(Mutex::new(CsDigest {
        hash: 0xcbf2_9ce4_8422_2325,
        quiescences: 0,
    }));
    let sink = digest.clone();
    let factory = move |net: Arc<Network>| -> Box<dyn Matcher> {
        let inner = match matcher {
            "vs1" => rete::seq::boxed_vs1(net),
            "vs2" => rete::seq::boxed_vs2(net, HashMemConfig::PAPER),
            "vs2 sized" => rete::seq::boxed_vs2(net, HashMemConfig::default()),
            _ => rete::colmatch::boxed_col(net),
        };
        Box::new(Recorded {
            inner,
            digest: sink,
        })
    };
    // Everything an environment knob could re-point is pinned (the matcher,
    // by the factory), and the act strategy is the paper's.
    let mut eng = EngineBuilder::from_source(&w.source)
        .expect("parse")
        .custom_matcher(factory)
        .network_options(options)
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
    ("weaver(5x4x2, 2 nets, 2 kinds)", "vs1", [361, 8816, 295, 8565, 109, 5754, 16519, 802, 1809, 1094, 4642, 857, 2174, 244, 251, 0], [367, 1094]),
    ("weaver(5x4x2, 2 nets, 2 kinds)", "vs2", [361, 8816, 295, 8565, 109, 5754, 479, 402, 778, 778, 858, 857, 674, 244, 251, 0], [367, 1094]),
    ("tourney(6 teams, pathological)", "vs1", [263, 3065, 137, 2081, 95, 221, 4728, 778, 305, 164, 4099, 844, 249, 99, 984, 0], [203, 164]),
    ("tourney(6 teams, pathological)", "vs2", [263, 3065, 137, 2081, 95, 221, 1132, 438, 305, 164, 1546, 844, 249, 99, 984, 0], [203, 164]),
    ("negated", "vs1", [66, 246, 54, 198, 25, 60, 36, 24, 132, 48, 90, 45, 24, 15, 48, 0], [36, 48]),
    ("negated", "vs2", [66, 246, 54, 198, 25, 60, 12, 12, 18, 18, 45, 45, 15, 15, 48, 0], [36, 48]),
    ("synth-carousel(8 CEs, 5 turns)", "vs1", [88, 158, 18, 147, 6, 71, 34, 34, 6, 6, 35, 35, 35, 35, 11, 0], [99, 6]),
    ("synth-carousel(8 CEs, 5 turns)", "vs2", [88, 158, 18, 147, 6, 71, 34, 34, 6, 6, 35, 35, 35, 35, 11, 0], [99, 6]),
];

/// vs2's CS-change digest per program; identical with unlinking
/// off and on.
#[rustfmt::skip]
const GOLDEN_CS: &[CsRow] = &[
    ("weaver(5x4x2, 2 nets, 2 kinds)", "vs2", CsDigest { hash: 0xacbedc7a38366a7f, quiescences: 114 }),
    ("tourney(6 teams, pathological)", "vs2", CsDigest { hash: 0xe008df502d996622, quiescences: 67 }),
    ("negated", "vs2", CsDigest { hash: 0x4954e9356e0baa65, quiescences: 22 }),
    ("synth-carousel(8 CEs, 5 turns)", "vs2", CsDigest { hash: 0xbb09e5a53c681956, quiescences: 6 }),
];

/// A pinned CS-change digest: (program, matcher, digest).
type CsRow = (&'static str, &'static str, CsDigest);

/// Runs every program on each of `labels` over the network `shape`
/// compiles, with unlinking off and on (which must read alike), and
/// compares with the pinned `(name, rows)` and `(name, digests)`; on a
/// mismatch prints the measured tables under those names.
fn check_kernel(
    shape: NetworkOptions,
    labels: &[&'static str],
    (golden_name, golden): (&str, &[Row]),
    (cs_name, golden_cs): (&str, &[CsRow]),
) {
    let mut rows: Vec<(String, &'static str, Measured)> = Vec::new();
    let mut digests: Vec<(String, &'static str, CsDigest)> = Vec::new();
    for w in programs() {
        for &label in labels {
            let off = run(&w, label, shape);
            let on = NetworkOptions {
                unlinking: true,
                ..shape
            };
            assert_eq!(
                run(&w, label, on),
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
    let mut table = format!("const {golden_name}: &[Row] = &[\n");
    for (name, label, (stats, touched)) in &rows {
        table += &format!("    ({name:?}, {label:?}, {stats:?}, {touched:?}),\n");
    }
    table += &format!("];\nconst {cs_name}: &[CsRow] = &[\n");
    for (name, label, d) in &digests {
        table += &format!(
            "    ({name:?}, {label:?}, CsDigest {{ hash: {:#x}, quiescences: {} }}),\n",
            d.hash, d.quiescences
        );
    }
    table += "];";
    let same_rows = rows.len() == golden.len()
        && rows
            .iter()
            .zip(golden)
            .all(|(a, b)| (a.0.as_str(), a.1, a.2) == (b.0, b.1, (b.2, b.3)));
    let same_cs = digests.len() == golden_cs.len()
        && digests
            .iter()
            .zip(golden_cs)
            .all(|(a, b)| (a.0.as_str(), a.1, a.2) == *b);
    assert!(
        same_rows && same_cs,
        "kernel counters moved; measured:\n{table}"
    );
    // col is vs2 on a table sized by its population, under its own name:
    // its row and CS order are that vs2's, built through `MatcherKind::Col`
    // as through `rete::colmatch`. The table's geometry moves the columns
    // that count entries examined on a line, so the row is not the pinned
    // one on the paper's table.
    for w in programs() {
        let col = run(&w, "col", shape);
        assert_eq!(
            col,
            run(&w, "vs2 sized", shape),
            "{}: col is not vs2",
            w.name
        );
        let kind = columns(&kind_stats(&w, MatcherKind::Col, shape));
        assert_eq!(kind, col.0, "{}: MatcherKind::Col is not col", w.name);
    }
    // The programs must actually reach the arms the kernel special-cases:
    // left nulls are performed, and the dead readers of a right memory are
    // never run.
    for (name, label, (s, _)) in &rows {
        let (null, skipped, cs) = (s[4], s[5], s[14]);
        assert!(cs > 0, "{name} {label}: no conflict-set change");
        assert!(null > 0 && skipped > 0, "{name} {label}: no null work");
    }
}

/// vs2 on the network with beta-prefix sharing, the one an engine
/// compiles by default: every program's row and CS-change digest.
#[rustfmt::skip]
const GOLDEN_SHARED: &[Row] = &[
    ("weaver(5x4x2, 2 nets, 2 kinds)", "vs2", [361, 7046, 295, 6795, 35, 4672, 453, 376, 238, 238, 784, 783, 674, 244, 251, 0], [367, 554]),
    ("tourney(6 teams, pathological)", "vs2", [263, 3065, 137, 2081, 95, 221, 1132, 438, 305, 164, 1546, 844, 249, 99, 984, 0], [203, 164]),
    ("negated", "vs2", [66, 246, 54, 198, 25, 60, 12, 12, 18, 18, 45, 45, 15, 15, 48, 0], [36, 48]),
    ("synth-carousel(8 CEs, 5 turns)", "vs2", [88, 158, 18, 147, 6, 71, 34, 34, 6, 6, 35, 35, 35, 35, 11, 0], [99, 6]),
];

#[rustfmt::skip]
const GOLDEN_CS_SHARED: &[CsRow] = &[
    ("weaver(5x4x2, 2 nets, 2 kinds)", "vs2", CsDigest { hash: 0xedecc035ca03cf7f, quiescences: 114 }),
    ("tourney(6 teams, pathological)", "vs2", CsDigest { hash: 0xe008df502d996622, quiescences: 67 }),
    ("negated", "vs2", CsDigest { hash: 0x4954e9356e0baa65, quiescences: 22 }),
    ("synth-carousel(8 CEs, 5 turns)", "vs2", CsDigest { hash: 0xbb09e5a53c681956, quiescences: 6 }),
];

#[test]
fn counters_and_cs_order_match_the_parent_commit() {
    check_kernel(
        NetworkOptions::PAPER,
        &["vs1", "vs2"],
        ("GOLDEN", GOLDEN),
        ("GOLDEN_CS", GOLDEN_CS),
    );
}

#[test]
fn counters_and_cs_order_on_the_shared_network_match_their_pins() {
    assert!(NetworkOptions::default().sharing);
    check_kernel(
        NetworkOptions::default(),
        &["vs2"],
        ("GOLDEN_SHARED", GOLDEN_SHARED),
        ("GOLDEN_CS_SHARED", GOLDEN_CS_SHARED),
    );
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
            unlinking,
            ..NetworkOptions::PAPER
        })
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
                unlinking,
                ..NetworkOptions::PAPER
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

/// The network an engine compiles by default, with beta-prefix sharing,
/// cuts Weaver's vs2 join activations against the paper's by at least a
/// fifth. Measured on this 6x6 grid: 23.2 % (68 153 -> 52 350); the 5x4
/// grid of [`programs`] reads 20.7 %, too close to the bound to gate on.
/// The cut is sharing's: for vs1 and vs2 the unlinking option moves no
/// counter ([`check_kernel`]).
#[test]
fn the_default_network_cuts_weaver_join_activations_by_a_fifth_against_the_papers() {
    let w = weaver::workload(weaver::WeaverConfig {
        width: 6,
        height: 6,
        kinds: 12,
        nets: 3,
        blocked_pct: 8,
        seed: 42,
    });
    let paper = vs2_stats(&w, NetworkOptions::PAPER);
    let shared = vs2_stats(&w, NetworkOptions::default());
    let cut = 1.0 - shared.join_activations as f64 / paper.join_activations as f64;
    assert!(
        cut >= 0.20,
        "sharing cut Weaver's join activations by {:.1} % ({} -> {}), not by a fifth",
        100.0 * cut,
        paper.join_activations,
        shared.join_activations
    );
}

/// The ledger's `weaver` program on the paper's network: 2562 joins read
/// 125 right memories (the test-free `wave` pattern alone feeds 829 joins
/// from 3), each join's memory has exactly its own equality signature, and
/// `validate` notices when one does not. On the default network 864 of the
/// 2562 join constructions reuse a join (beta-prefix sharing): 1698 joins
/// read the same 125 memories, and 108 of them feed more than one successor
/// (no kept children there).
#[test]
fn benchmark_weaver_joins_share_125_right_memories() {
    let prog = ops5::Program::from_source(&weaver::generate_source(36)).expect("parse");
    let mut net = Network::compile_with(&prog, NetworkOptions::PAPER).expect("compile");
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

    let net = Network::compile(&prog).expect("compile");
    let fan_out = net.joins.iter().filter(|j| j.succs.len() > 1).count();
    assert_eq!(
        (net.n_joins(), net.shared_prefixes, net.right_mems.len()),
        (1698, 864, 125)
    );
    assert_eq!(fan_out, 108, "joins with more than one successor");
    assert_eq!(net.validate(), Vec::<String>::new());
}
