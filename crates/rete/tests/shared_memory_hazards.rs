//! The ordering hazards of one shared right memory per signature, folded
//! against a per-join reference.
//!
//! vs1 and vs2 store a WME once per right memory and let every reader of it
//! see the change (`rete::seq` module docs, steps 0-3). These programs put
//! both sides of a pair in one change, or a reader below another reader of
//! the same memory, and check the folded conflict set after every change
//! against `psm::trace::TraceMatcher`: it keeps footnote 6's private right
//! memory per join, runs on one thread, takes a batch as written and shares
//! no code with `rete::seq`. vs1 and vs2 run with their debug assertions (a
//! delete must find its token) and fold strictly: an insert of a present
//! instantiation or a remove of an absent one fails the test.
//!
//! These are integration tests because a unit test of `rete` cannot hand a
//! `rete::Network` to psm: through the dev-dependency cycle the two would be
//! different builds of the crate.

use ops5::{ChangeBatch, CsChange, Matcher, Program, Sign, Value, Wme, WmeChange, WmeRef};
use psm::trace::{RunTrace, TraceMatcher};
use rete::{HashMemConfig, Network, SeqMatcher};
use std::sync::{Arc, Mutex};

fn net_of(src: &str) -> (Program, Arc<Network>) {
    let prog = Program::from_source(src).unwrap();
    let net = Arc::new(Network::compile(&prog).unwrap());
    (prog, net)
}

fn ints(prog: &mut Program, class: &str, vals: &[i64], tag: u64) -> WmeRef {
    let c = prog.symbols.intern(class);
    Wme::new(c, vals.iter().map(|&v| Value::Int(v)).collect(), tag)
}

fn add(m: &mut dyn Matcher, w: WmeRef) {
    m.submit(&ChangeBatch::single(WmeChange {
        sign: Sign::Plus,
        wme: w,
    }));
}

fn del(m: &mut dyn Matcher, w: WmeRef) {
    m.submit(&ChangeBatch::single(WmeChange {
        sign: Sign::Minus,
        wme: w,
    }));
}

/// vs1 and vs2 (a 16-line table) on `src`'s network.
fn both(src: &str) -> Vec<Box<dyn Matcher>> {
    let net = net_of(src).1;
    vec![
        rete::seq::boxed_vs1(net.clone()),
        rete::seq::boxed_vs2(net, HashMemConfig { buckets: 16 }),
    ]
}

/// The per-join reference on `net`.
fn reference(net: Arc<Network>) -> TraceMatcher {
    TraceMatcher::new(net, 16, Arc::new(Mutex::new(RunTrace::default())))
}

type Step = (Sign, WmeRef);
/// A folded conflict set: (production, timetags) of each instantiation.
type Folded = std::collections::BTreeSet<(u32, Vec<u64>)>;

/// Folds one quiescence's changes into `state`. `strict`: an insert of a
/// present instantiation or a remove of an absent one panics — a pair
/// emitted or retracted twice, or a `-t` overtaking its `+t`, trips that.
fn fold_into(state: &mut Folded, cs: Vec<CsChange>, strict: bool, at: &str) {
    for c in cs {
        let (insert, inst) = match c {
            CsChange::Insert(i) => (true, i),
            CsChange::Remove(i) => (false, i),
        };
        let (p, tags) = inst.key();
        let key = (p.0, tags);
        let in_turn = if insert {
            state.insert(key.clone())
        } else {
            state.remove(&key)
        };
        let what = if insert { "insert of" } else { "remove of" };
        assert!(in_turn || !strict, "{at}: {what} {key:?} out of turn");
    }
}

/// Feeds `steps` one change per quiescence and returns the folded
/// conflict set after each ([`fold_into`]'s `strict`).
fn fold_history(m: &mut dyn Matcher, steps: &[Step], strict: bool) -> Vec<Folded> {
    let mut state = Folded::new();
    let mut history = Vec::new();
    for (i, (sign, w)) in steps.iter().enumerate() {
        m.submit(&ChangeBatch::single(WmeChange {
            sign: *sign,
            wme: w.clone(),
        }));
        let at = format!("{} step {i}", m.name());
        fold_into(&mut state, m.quiesce().cs_changes, strict, &at);
        history.push(state.clone());
    }
    history
}

/// Drives `steps` through vs1 and vs2 (strict fold) and through the trace
/// matcher, the per-join reference: the folded conflict sets must agree
/// after every change. Returns vs1's and vs2's final memory populations.
fn fold_against_the_trace(src: &str, prog: &Program, steps: &[Step]) -> [usize; 2] {
    let net = Arc::new(Network::compile(prog).unwrap());
    let mut vs1 = SeqMatcher::vs1(net.clone());
    let mut vs2 = SeqMatcher::vs2(net.clone(), HashMemConfig { buckets: 16 });
    let reference = fold_history(&mut reference(net), steps, false);
    assert_eq!(fold_history(&mut vs1, steps, true), reference, "vs1: {src}");
    assert_eq!(fold_history(&mut vs2, steps, true), reference, "vs2: {src}");
    [vs1.memory_entries(), vs2.memory_entries()]
}

/// Adds `wmes` in order, then removes them in order, then adds and
/// removes them in reverse: every WME meets every other from both sides.
fn churn(wmes: &[WmeRef]) -> Vec<Step> {
    let fwd = wmes.iter().cloned();
    let rev = wmes.iter().rev().cloned();
    (fwd.clone().map(|w| (Sign::Plus, w)))
        .chain(fwd.map(|w| (Sign::Minus, w)))
        .chain(rev.clone().map(|w| (Sign::Plus, w)))
        .chain(rev.map(|w| (Sign::Minus, w)))
        .collect()
}

/// Hazard 1 — a self-join. One WME enters the left input and the right
/// memory of the same join in one change. The memory takes it first and
/// the left activation runs after every right activation, so the pair
/// (w, w) is the left activation's alone: emitted once, retracted once.
#[test]
fn a_self_join_pairs_a_wme_with_itself_exactly_once() {
    let src = "(p q (a ^x <v>) (a ^x <v>) --> (halt))";
    let mut prog = Program::from_source(src).unwrap();
    let ws = [
        ints(&mut prog, "a", &[1], 1),
        ints(&mut prog, "a", &[1], 2),
        ints(&mut prog, "a", &[2], 3),
    ];
    assert_eq!(fold_against_the_trace(src, &prog, &churn(&ws)), [0, 0]);

    let mut m = SeqMatcher::vs2(net_of(src).1, HashMemConfig { buckets: 16 });
    add(&mut m, ws[0].clone());
    let cs = m.quiesce().cs_changes;
    assert_eq!(cs.len(), 1, "(w, w) once: {cs:?}");
    add(&mut m, ws[1].clone());
    assert_eq!(m.quiesce().cs_changes.len(), 3, "(1,2) (2,1) (2,2)");
    del(&mut m, ws[0].clone());
    assert_eq!(m.quiesce().cs_changes.len(), 3, "(1,1) (1,2) (2,1)");
}

/// Hazard 2 — a reader downstream of another reader of the same memory.
/// J2 reads the memory J1 reads; J1's emission reaches J2's left input
/// in the same change that put the WME into their memory. J2's right
/// activation must already be over by then (it would pair the WME with
/// the token J1 just sent, and so would the token's left activation).
#[test]
fn a_reader_downstream_of_another_reader_emits_each_pair_once() {
    let src = "(p q (a ^x <v>) (b ^y <v>) (b ^y <v>) --> (halt))";
    let mut prog = Program::from_source(src).unwrap();
    let net = Network::compile(&prog).unwrap();
    assert_eq!((net.n_joins(), net.right_mems.len()), (2, 1));
    let ws = [
        ints(&mut prog, "a", &[1], 1),
        ints(&mut prog, "b", &[1], 2),
        ints(&mut prog, "b", &[1], 3),
        ints(&mut prog, "b", &[2], 4),
        ints(&mut prog, "a", &[2], 5),
    ];
    assert_eq!(fold_against_the_trace(src, &prog, &churn(&ws)), [0, 0]);

    for mut m in both(src) {
        add(m.as_mut(), ws[0].clone());
        add(m.as_mut(), ws[1].clone());
        let cs = m.quiesce().cs_changes;
        assert_eq!(cs.len(), 1, "{}: (a, b, b) once: {cs:?}", m.name());
        add(m.as_mut(), ws[2].clone());
        assert_eq!(m.quiesce().cs_changes.len(), 3);
        del(m.as_mut(), ws[1].clone());
        let cs = m.quiesce().cs_changes;
        assert_eq!(cs.len(), 3, "{}: each retracted once: {cs:?}", m.name());
        assert!(cs.iter().all(|c| matches!(c, CsChange::Remove(_))));
    }
}

/// Hazard 3 — a not-node whose blocker is the token's own WME. Removing
/// it unblocks the token (right activation: `+t` below the not-node)
/// and deletes it (left activation: `-t`). The `+t` must reach the
/// downstream join first, or the `-t` finds nothing and the `+t` stays
/// behind for good.
#[test]
fn a_blocker_that_is_its_own_token_passes_plus_before_minus() {
    let src = "(p q (a ^x <v>) - (a ^y <v>) (c ^z <v>) --> (halt))";
    let mut prog = Program::from_source(src).unwrap();
    let own = ints(&mut prog, "a", &[1, 1], 1); // blocks itself
    let free = ints(&mut prog, "a", &[1, 2], 2); // blocked by `own` only
    let other = ints(&mut prog, "a", &[2, 2], 3); // blocked by itself and `free`
    let c1 = ints(&mut prog, "c", &[1], 4);
    let c2 = ints(&mut prog, "c", &[2], 5);
    let ws = [c1.clone(), own.clone(), free, other, c2];
    assert_eq!(fold_against_the_trace(src, &prog, &churn(&ws)), [0, 0]);

    for mut m in both(src) {
        add(m.as_mut(), c1.clone());
        add(m.as_mut(), own.clone());
        assert!(m.quiesce().cs_changes.is_empty(), "blocked by itself");
        del(m.as_mut(), own.clone());
        let cs = m.quiesce().cs_changes;
        assert!(
            matches!(&cs[..], [CsChange::Insert(i), CsChange::Remove(r)] if i.key() == r.key()),
            "{}: transient +t then -t: {cs:?}",
            m.name()
        );
        del(m.as_mut(), c1.clone());
        assert!(m.quiesce().cs_changes.is_empty(), "nothing left behind");
    }
}

/// Hazard 3, one level down: the token comes from a join, not from the
/// alpha network, so the `-t` is the tail of another reader's right
/// activation. `p0` makes the not-node's memory the older one, so its
/// readers are met first; the kernel still has to send the upstream
/// join's emissions through after the not-node's.
#[test]
fn a_blocker_inside_its_token_passes_plus_before_minus() {
    let src = "(literalize b y z)
         (p p0 (x ^q <v>) (b ^z <v>) --> (halt))
         (p p1 (a ^x <v>) (b ^y <v>) - (b ^z <v>) (c ^w <v>) --> (halt))";
    let mut prog = Program::from_source(src).unwrap();
    let net = Network::compile(&prog).unwrap();
    let (upstream, not_node) = (net.join(1), net.join(2));
    assert!(not_node.negated && not_node.right_mem < upstream.right_mem);
    let a = ints(&mut prog, "a", &[1], 1);
    let c = ints(&mut prog, "c", &[1], 2);
    let own = ints(&mut prog, "b", &[1, 1], 3); // joins `a`, then blocks (a, own)
    let free = ints(&mut prog, "b", &[1, 2], 4); // joins `a`, blocks nothing
    let ws = [a.clone(), c.clone(), own.clone(), free];
    assert_eq!(fold_against_the_trace(src, &prog, &churn(&ws)), [0, 0]);

    for mut m in both(src) {
        add(m.as_mut(), a.clone());
        add(m.as_mut(), c.clone());
        add(m.as_mut(), own.clone());
        assert!(m.quiesce().cs_changes.is_empty(), "blocked by its own b");
        del(m.as_mut(), own.clone());
        let cs = m.quiesce().cs_changes;
        assert!(
            matches!(&cs[..], [CsChange::Insert(i), CsChange::Remove(r)] if i.key() == r.key()),
            "{}: transient +t then -t: {cs:?}",
            m.name()
        );
    }
}

/// The relink case (col's twin): `b`s arrive and leave while every
/// reader's left memory is empty — stored once per signature, no reader
/// run — then the token arrives, pairs with exactly the survivors, and
/// leaves again.
#[test]
fn a_reader_that_comes_alive_late_scans_the_shared_memory() {
    // One test-free `b` pattern read under three signatures (`[y]`,
    // `[y u]`, `[]`) by five joins, one of them a not-node.
    let src = "(literalize a x z) (literalize b y u) (literalize c x)
         (p p1 (a ^x <v>) (b ^y <v>) --> (halt))
         (p p2 (a ^x <v> ^z <w>) (b ^y <v> ^u <w>) --> (halt))
         (p p3 (a ^x <v>) (b ^y <q>) --> (halt))
         (p p4 (a ^x <v>) - (b ^y <v>) --> (halt))
         (p p5 (c ^x <v>) (b ^y <v>) --> (halt))";
    let (mut prog, net) = net_of(src);
    assert_eq!((net.n_joins(), net.right_mems.len()), (5, 3));
    let bs: Vec<WmeRef> = (0..6)
        .map(|i| ints(&mut prog, "b", &[i % 2, 2], i as u64 + 1))
        .collect();
    let a = ints(&mut prog, "a", &[1, 2], 10);
    let mut steps: Vec<Step> = bs.iter().map(|w| (Sign::Plus, w.clone())).collect();
    steps.extend([
        (Sign::Minus, bs[1].clone()),
        (Sign::Minus, bs[2].clone()),
        (Sign::Plus, a.clone()),
        (Sign::Minus, bs[3].clone()),
        (Sign::Minus, a.clone()),
        (Sign::Plus, bs[1].clone()),
        (Sign::Plus, a.clone()),
    ]);
    // b0 b1 b4 b5 under three signatures, `a` in four left memories.
    assert_eq!(fold_against_the_trace(src, &prog, &steps), [16, 16]);

    for mut m in both(src) {
        for (sign, w) in &steps[..8] {
            m.submit(&ChangeBatch::single(WmeChange {
                sign: *sign,
                wme: w.clone(),
            }));
        }
        let s = m.stats();
        assert_eq!(s.join_activations, 5 * 8);
        assert_eq!((s.null_skipped, s.null_activations), (5 * 8, 0));
        assert_eq!(s.same_searches_right, 2 * 3, "one search per memory");
        assert_eq!(s.opp_tokens_right + s.opp_nonempty_right, 0);
        add(m.as_mut(), a.clone());
        // p1 and p2: b3 b5 each; p3: b0 b3 b4 b5; p4 stays blocked.
        assert_eq!(m.quiesce().cs_changes.len(), 8, "{}", m.name());
    }
}

/// vs2 sized by its population against vs2 at a fixed 16 and at the
/// paper's 16 384 lines, and the trace matcher: a Tourney-shaped program (a
/// cross product, an equality join and a not-node off one first CE) fed
/// and then drained in chunks. After every chunk the folded conflict sets
/// are identical and the three tables hold the same number of entries; the
/// growing one doubles at least three times on the way up, and every line
/// it splits keeps each of its entries exactly once.
#[test]
fn a_table_that_doubles_mid_run_agrees_with_the_fixed_ones() {
    let src = "(p cross (a ^x <v>) (b ^y <w>) --> (halt))
         (p equal (a ^x <v>) (c ^z <v>) --> (halt))
         (p alone (a ^x <v>) - (b ^y <v>) (c ^z <> <v>) --> (halt))";
    let (mut prog, net) = net_of(src);
    let mut tag = 0;
    let mut wmes = Vec::new();
    for i in 0..40 {
        for class in ["a", "b", "c"] {
            tag += 1;
            wmes.push(ints(&mut prog, class, &[i % 7], tag));
        }
    }
    let steps: Vec<Step> = (wmes.iter().map(|w| (Sign::Plus, w.clone())))
        .chain(wmes.iter().rev().map(|w| (Sign::Minus, w.clone())))
        .collect();

    let grown = HashMemConfig::default();
    let mut vs2 = [grown, HashMemConfig { buckets: 16 }, HashMemConfig::PAPER]
        .map(|cfg| SeqMatcher::vs2(net.clone(), cfg));
    let mut trace = reference(net);
    let start = vs2[0].table_lines();
    assert_eq!((start, vs2[1].table_lines()), (16, 16));
    let mut sets = vec![Folded::new(); 4];
    let mut peak = 0;
    for (i, chunk) in steps.chunks(7).enumerate() {
        let batch: ChangeBatch = (chunk.iter())
            .map(|(sign, wme)| WmeChange {
                sign: *sign,
                wme: wme.clone(),
            })
            .collect();
        let ms = vs2.iter_mut().map(|m| m as &mut dyn Matcher);
        let trace: &mut dyn Matcher = &mut trace;
        for (k, (m, set)) in ms.chain([trace]).zip(&mut sets).enumerate() {
            m.submit(&batch);
            // The trace is the reference; the three vs2 fold strictly.
            fold_into(set, m.quiesce().cs_changes, k < 3, &format!("chunk {i}"));
        }
        assert!(
            sets.iter().all(|s| *s == sets[3]),
            "chunk {i}: folds differ"
        );
        let entries = vs2.each_ref().map(|m| m.memory_entries());
        assert!(
            entries.iter().all(|&n| n == entries[0]),
            "chunk {i}: {entries:?}"
        );
        peak = peak.max(entries[0]);
    }
    // The third doubling is the one at four times the starting load.
    assert!(peak > 4 * rete::memory::LOAD * start, "peak {peak}");
    // Drained: nothing left, and the table keeps the size it grew to.
    assert_eq!(vs2.each_ref().map(|m| m.memory_entries()), [0, 0, 0]);
    assert!(vs2[0].table_lines() >= 8 * start);
    assert_eq!(vs2[1].table_lines(), 16);
}
