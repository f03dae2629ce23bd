//! The ordering hazards of one shared right memory per signature, and of
//! the children a join keeps, folded against a per-join reference.
//!
//! vs1, vs2 and lispsim (the sequential kernel over three memory policies)
//! store a WME once per right memory and let every reader of it see the
//! change (`rete::seq` module docs, steps 0-3), and every positive join
//! keeps, in each left entry, the children it sent on, so that a removal
//! sends them again without rematching: to a join under the key the
//! fan-out computes, to a terminal as the token the conflict set holds, to
//! each successor of a shared join. These programs put both sides of a
//! pair in one change, a reader below another reader of the same memory,
//! or a child whose two halves leave at different times, and check the
//! folded conflict set after every change (and, for the kept children and
//! the not-nodes, after every batch of several changes too: the kernel
//! takes a batch's retractions first) against psm's inline driver
//! (`psm::trace::TraceMatcher`): it keeps footnote 6's private right memory
//! per join, rematches every removal, runs on one thread, takes a batch as
//! written and shares no code with `rete::seq`. The sequential matchers run with their debug
//! assertions (a delete must find its token; the children a removal takes
//! are what a rematch would find, in its order) and fold strictly: an
//! insert of a present instantiation or a remove of an absent one fails the
//! test.
//!
//! These are integration tests because a unit test of `rete` cannot hand a
//! `rete::Network` to psm: through the dev-dependency cycle the two would be
//! different builds of the crate.

use lispsim::LispEngineMatcher;
use ops5::{ChangeBatch, CsChange, Matcher, Program, Sign, Value, Wme, WmeChange, WmeRef};
use psm::trace::{RunTrace, TraceMatcher};
use psm::ParMatcher;
use rete::{HashMemConfig, Network, NetworkOptions, SeqMatcher, Succ};
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

/// vs1, vs2 (a 16-line table) and lispsim on `net`, a network of `prog`.
fn seq_matchers(prog: &Program, net: &Arc<Network>) -> Vec<Box<dyn Matcher>> {
    vec![
        Box::new(SeqMatcher::vs1(net.clone())),
        Box::new(SeqMatcher::vs2(net.clone(), HashMemConfig { buckets: 16 })),
        Box::new(LispEngineMatcher::on(prog, net.clone())),
    ]
}

/// [`seq_matchers`] on `src`'s network.
fn all_three(src: &str) -> Vec<Box<dyn Matcher>> {
    let (prog, net) = net_of(src);
    seq_matchers(&prog, &net)
}

/// The per-join reference on `net`.
fn reference(net: Arc<Network>) -> ParMatcher {
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

/// Feeds `batches`, one quiescence each, and returns the folded conflict
/// set after each ([`fold_into`]'s `strict`).
fn fold_batches(m: &mut dyn Matcher, batches: &[Vec<Step>], strict: bool) -> Vec<Folded> {
    let mut state = Folded::new();
    let mut history = Vec::new();
    for (i, steps) in batches.iter().enumerate() {
        let batch: ChangeBatch = (steps.iter())
            .map(|(sign, w)| WmeChange {
                sign: *sign,
                wme: w.clone(),
            })
            .collect();
        m.submit(&batch);
        let at = format!("{} batch {i}", m.name());
        fold_into(&mut state, m.quiesce().cs_changes, strict, &at);
        history.push(state.clone());
    }
    history
}

/// `steps` in batches of `len` changes.
fn chunks(steps: &[Step], len: usize) -> Vec<Vec<Step>> {
    steps.chunks(len).map(<[Step]>::to_vec).collect()
}

/// [`fold_batches`] one change per quiescence.
fn fold_history(m: &mut dyn Matcher, steps: &[Step], strict: bool) -> Vec<Folded> {
    fold_batches(m, &chunks(steps, 1), strict)
}

/// Drives `batches` through vs1, vs2 and lispsim (strict fold) and through
/// the trace matcher, the per-join reference, on a network of `prog`
/// compiled with `options`: the folded conflict sets must agree after
/// every batch. Returns the three matchers' final memory populations.
fn fold_in_batches(
    src: &str,
    prog: &Program,
    options: NetworkOptions,
    batches: &[Vec<Step>],
) -> [usize; 3] {
    let net = Arc::new(Network::compile_with(prog, options).unwrap());
    let mut vs1 = SeqMatcher::vs1(net.clone());
    let mut vs2 = SeqMatcher::vs2(net.clone(), HashMemConfig { buckets: 16 });
    let mut lisp = LispEngineMatcher::on(prog, net.clone());
    let reference = fold_batches(&mut reference(net), batches, false);
    let ms: [&mut dyn Matcher; 3] = [&mut vs1, &mut vs2, &mut lisp];
    for m in ms {
        let folds = fold_batches(m, batches, true);
        let lens: Vec<usize> = batches.iter().map(Vec::len).collect();
        assert_eq!(
            folds,
            reference,
            "{} in batches of {lens:?}: {src}",
            m.name()
        );
    }
    [
        vs1.memory_entries(),
        vs2.memory_entries(),
        lisp.memory_entries(),
    ]
}

/// [`fold_in_batches`] in batches of `len` changes.
fn fold_in_chunks(
    src: &str,
    prog: &Program,
    options: NetworkOptions,
    steps: &[Step],
    len: usize,
) -> [usize; 3] {
    fold_in_batches(src, prog, options, &chunks(steps, len))
}

/// [`fold_in_chunks`] one change per quiescence.
fn fold_with(src: &str, prog: &Program, options: NetworkOptions, steps: &[Step]) -> [usize; 3] {
    fold_in_chunks(src, prog, options, steps, 1)
}

/// [`fold_with`] on the default network, with beta-prefix sharing.
fn fold_against_the_trace(src: &str, prog: &Program, steps: &[Step]) -> [usize; 3] {
    fold_with(src, prog, NetworkOptions::default(), steps)
}

/// A batch case: a program, its WMEs (class and values; the i-th has
/// timetag i + 1), and its batches, `|`-separated, each change `+i` or
/// `-i` of the i-th WME.
type Case = (
    &'static str,
    &'static [(&'static str, &'static [i64])],
    &'static str,
);

/// Folds each case's batches against the trace ([`fold_in_batches`], the
/// paper's network); every case leaves the memories empty.
fn fold_cases(cases: &[Case]) {
    for &(src, wmes, spec) in cases {
        let mut prog = Program::from_source(src).unwrap();
        let ws: Vec<WmeRef> = (wmes.iter().zip(1..))
            .map(|(&(class, vals), tag)| ints(&mut prog, class, vals, tag))
            .collect();
        let batches: Vec<Vec<Step>> = (spec.split('|'))
            .map(|batch| {
                (batch.split_whitespace())
                    .map(|c| {
                        let sign = if c.starts_with('+') {
                            Sign::Plus
                        } else {
                            Sign::Minus
                        };
                        (sign, ws[c[1..].parse::<usize>().unwrap()].clone())
                    })
                    .collect()
            })
            .collect();
        let options = NetworkOptions::default();
        let left = fold_in_batches(src, &prog, options, &batches);
        assert_eq!(left, [0, 0, 0], "{spec}: {src}");
    }
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
    assert_eq!(fold_against_the_trace(src, &prog, &churn(&ws)), [0, 0, 0]);

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
    assert_eq!(fold_against_the_trace(src, &prog, &churn(&ws)), [0, 0, 0]);

    for mut m in all_three(src) {
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
    assert_eq!(fold_against_the_trace(src, &prog, &churn(&ws)), [0, 0, 0]);

    for mut m in all_three(src) {
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
    assert_eq!(fold_against_the_trace(src, &prog, &churn(&ws)), [0, 0, 0]);

    for mut m in all_three(src) {
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

/// One test-free `b` pattern read under three signatures (`[y]`, `[y u]`,
/// `[]`) by five joins, one of them a not-node.
const SHARED_B: &str = "(literalize a x z) (literalize b y u) (literalize c x)
     (p p1 (a ^x <v>) (b ^y <v>) --> (halt))
     (p p2 (a ^x <v> ^z <w>) (b ^y <v> ^u <w>) --> (halt))
     (p p3 (a ^x <v>) (b ^y <q>) --> (halt))
     (p p4 (a ^x <v>) - (b ^y <v>) --> (halt))
     (p p5 (c ^x <v>) (b ^y <v>) --> (halt))";

/// The relink case: `b`s arrive and leave while every
/// reader's left memory is empty — stored once per signature, no reader
/// run — then the token arrives, pairs with exactly the survivors, and
/// leaves again.
#[test]
fn a_reader_that_comes_alive_late_scans_the_shared_memory() {
    let (mut prog, net) = net_of(SHARED_B);
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
    assert_eq!(
        fold_against_the_trace(SHARED_B, &prog, &steps),
        [16, 16, 16]
    );

    for mut m in all_three(SHARED_B) {
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
/// are identical and the three tables hold the same number of entries; the growing one doubles at least three times on the
/// way up, and every line it splits keeps each of its entries exactly once.
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

/// `(p q (a ^x <v>) (b ^y <v>) (c ^z <v>))`: J0 feeds J1 alone, J1 a
/// terminal, so J0's children are J1's left tokens and J1's are
/// instantiations.
const CHAIN: &str = "(p q (a ^x <v>) (b ^y <v>) (c ^z <v>) --> (halt))";

/// A matcher's counters since `before`: (join activations, non-empty left
/// scans).
fn since(m: &dyn Matcher, before: ops5::MatchStats) -> (u64, u64) {
    let s = m.stats();
    (
        s.join_activations - before.join_activations,
        s.opp_nonempty_left - before.opp_nonempty_left,
    )
}

/// Children, hazard 1: a child whose right WME leaves before its parent.
/// `-b1` takes `(a, b1)` out of `a`'s list at J0's right activation, so the
/// `-a` that follows sends only `(a, b2)` on: no second `-` for `(a, b1)`
/// (the strict fold would catch it, and so would J1's delete search), and
/// neither J0's removal nor J1's scans anything.
#[test]
fn a_child_whose_right_wme_leaves_first_is_not_sent_twice() {
    let (mut prog, net) = net_of(CHAIN);
    assert!(matches!(net.join(0).succs[..], [Succ::Join(1)]));
    assert!(matches!(net.join(1).succs[..], [Succ::Terminal(_)]));
    let a = ints(&mut prog, "a", &[1], 1);
    let b1 = ints(&mut prog, "b", &[1], 2);
    let b2 = ints(&mut prog, "b", &[1], 3);
    let c = ints(&mut prog, "c", &[1], 4);
    let steps: Vec<Step> = [
        (Sign::Plus, &a),
        (Sign::Plus, &b1),
        (Sign::Plus, &b2),
        (Sign::Plus, &c),
        (Sign::Minus, &b1),
        (Sign::Minus, &a),
        (Sign::Plus, &a),
        (Sign::Minus, &c),
        (Sign::Minus, &b2),
        (Sign::Minus, &a),
    ]
    .map(|(sign, w)| (sign, w.clone()))
    .into();
    assert_eq!(fold_against_the_trace(CHAIN, &prog, &steps), [0, 0, 0]);

    for mut m in seq_matchers(&prog, &net) {
        for w in [&a, &b1, &b2, &c] {
            add(m.as_mut(), w.clone());
        }
        assert_eq!(m.quiesce().cs_changes.len(), 2);
        del(m.as_mut(), b1.clone());
        assert_eq!(m.quiesce().cs_changes.len(), 1, "{}: (a b1 c)", m.name());
        let before = m.stats();
        del(m.as_mut(), a.clone());
        let cs = m.quiesce().cs_changes;
        assert!(
            matches!(&cs[..], [CsChange::Remove(r)] if r.wmes.timetags() == [1, 3, 4]),
            "{}: {cs:?}",
            m.name()
        );
        // J0's removal and the one child it still held; J1 sends its own.
        assert_eq!(since(m.as_ref(), before), (2, 0), "{}", m.name());
    }
}

/// Children, hazard 2: a self-join WME inside the token and on the right
/// input, retracted in one change. J0's right activation takes every child
/// made with `w` — `(w, w)` out of `w`'s own entry among them — and the
/// left activation that follows sends the rest of `w`'s list, `(w, w')`:
/// each child once.
#[test]
fn a_self_join_wme_in_its_token_and_on_the_right_leaves_in_one_change() {
    let src = "(p q (a ^x <v>) (a ^x <v>) (c ^z <v>) --> (halt))";
    let (mut prog, net) = net_of(src);
    assert!(matches!(net.join(0).succs[..], [Succ::Join(1)]));
    let a1 = ints(&mut prog, "a", &[1], 1);
    let a2 = ints(&mut prog, "a", &[1], 2);
    let ws = [
        a1.clone(),
        ints(&mut prog, "c", &[1], 3),
        a2.clone(),
        ints(&mut prog, "a", &[2], 4),
        ints(&mut prog, "c", &[2], 5),
    ];
    assert_eq!(fold_against_the_trace(src, &prog, &churn(&ws)), [0, 0, 0]);

    for mut m in seq_matchers(&prog, &net) {
        for w in &ws[..3] {
            add(m.as_mut(), w.clone());
        }
        assert_eq!(m.quiesce().cs_changes.len(), 4, "(a1|a2, a1|a2, c)");
        del(m.as_mut(), a1.clone());
        let cs = m.quiesce().cs_changes;
        let mut gone: Vec<_> = (cs.iter())
            .map(|c| match c {
                CsChange::Remove(r) => r.wmes.timetags(),
                CsChange::Insert(i) => panic!("{}: insert {i:?}", m.name()),
            })
            .collect();
        gone.sort();
        assert_eq!(gone, [[1, 1, 3], [1, 2, 3], [2, 1, 3]], "{}", m.name());
    }
}

/// Children under `sharing`: J0 (a × b) feeds J1 alone; J1 (ab × c) is
/// shared by three productions, feeding two joins and a terminal, and sends
/// each child it kept to all three. Removals through both, from either
/// side, fold as the per-join reference does.
#[test]
fn a_join_with_two_successors_under_sharing_sends_its_children_to_each() {
    let src = "(p p1 (a ^x <v>) (b ^y <v>) (c ^z <v>) --> (halt))
         (p p2 (a ^x <v>) (b ^y <v>) (c ^z <v>) (d ^w <v>) --> (halt))
         (p p3 (a ^x <v>) (b ^y <v>) (c ^z <v>) (e ^w <v>) --> (halt))";
    let mut prog = Program::from_source(src).unwrap();
    let sharing = NetworkOptions::default();
    let net = Network::compile_with(&prog, sharing).unwrap();
    assert_eq!(net.n_joins(), 4);
    assert!(matches!(net.join(0).succs[..], [Succ::Join(1)]));
    assert_eq!(net.join(1).succs.len(), 3);
    let ws: Vec<WmeRef> = [("a", 1), ("b", 1), ("c", 1), ("d", 1), ("b", 1)]
        .into_iter()
        .chain([("e", 1), ("a", 1), ("c", 1), ("a", 2), ("e", 2)])
        .zip(1..)
        .map(|((class, v), tag)| ints(&mut prog, class, &[v], tag))
        .collect();
    assert_eq!(fold_with(src, &prog, sharing, &churn(&ws)), [0, 0, 0]);
}

/// Children across a vs2 table that doubles between a child's insert and
/// its removal. A child leaves under its key in the successor's left
/// memory, computed when it is sent; after the table has doubled twice,
/// that key must still address the line the child was stored on (a key is
/// a whole hash, a line its low bits), on both removal paths: `-b` takes one child out at a right activation, `-a`
/// sends a whole list.
#[test]
fn a_child_keyed_before_the_table_doubled_is_removed_after() {
    let src = "(p q (a ^x <v>) (b ^y <v>) (c ^z <v>) --> (halt))
         (p fill (f ^x <v>) (g ^y <v>) --> (halt))";
    let (mut prog, net) = net_of(src);
    let mut tag = 0;
    let mut wme = |class, v| {
        tag += 1;
        ints(&mut prog, class, &[v], tag)
    };
    // Per value: a, b, c, b'.
    let chain: Vec<WmeRef> = (0..4)
        .flat_map(|v| ["a", "b", "c", "b"].map(|class| (class, v)))
        .map(|(class, v)| wme(class, v))
        .collect();
    let fill: Vec<WmeRef> = (0..200).map(|v| wme("f", v)).collect();
    let (built, filled) = (chain.len(), chain.len() + fill.len());
    // Each value's first b (a right removal), then each a (its list still
    // holds (a, b')), then the rest.
    let leaving = ([1, 0, 3, 2].into_iter())
        .flat_map(|k| chain.iter().skip(k).step_by(4))
        .chain(&fill);
    let steps: Vec<Step> = (chain.iter().chain(&fill).map(|w| (Sign::Plus, w.clone())))
        .chain(leaving.map(|w| (Sign::Minus, w.clone())))
        .collect();
    assert_eq!(fold_against_the_trace(src, &prog, &steps), [0, 0, 0]);

    let reference = fold_history(&mut reference(net.clone()), &steps, false);
    let mut grown = SeqMatcher::vs2(net, HashMemConfig::default());
    let (mut state, mut history, mut lines) = (Folded::new(), Vec::new(), Vec::new());
    for (i, (sign, w)) in steps.iter().enumerate() {
        if i == built || i == filled {
            lines.push(grown.table_lines());
        }
        grown.submit(&ChangeBatch::single(WmeChange {
            sign: *sign,
            wme: w.clone(),
        }));
        fold_into(
            &mut state,
            grown.quiesce().cs_changes,
            true,
            &format!("step {i}"),
        );
        history.push(state.clone());
    }
    assert_eq!(history, reference);
    assert!(
        lines[1] >= 4 * lines[0],
        "the table did not double twice: {lines:?}"
    );
    assert_eq!(grown.memory_entries(), 0);
}

/// A terminal join below a join that keeps children: `-a` sends `a`'s two
/// children without scanning J0's right memory, and each of them sends the
/// instantiations J1 kept without scanning its, so no left activation
/// scans and the four instantiations are removed once each.
#[test]
fn a_terminal_join_below_a_join_that_keeps_children_keeps_its_own() {
    let (mut prog, net) = net_of(CHAIN);
    let ws: Vec<WmeRef> = [("a", 1), ("b", 1), ("b", 1), ("c", 1), ("c", 1)]
        .into_iter()
        .chain([("a", 2), ("b", 2), ("c", 2)])
        .zip(1..)
        .map(|((class, v), tag)| ints(&mut prog, class, &[v], tag))
        .collect();
    assert_eq!(fold_against_the_trace(CHAIN, &prog, &churn(&ws)), [0, 0, 0]);

    for mut m in seq_matchers(&prog, &net) {
        for w in &ws {
            add(m.as_mut(), w.clone());
        }
        assert_eq!(m.quiesce().cs_changes.len(), 5);
        let before = m.stats();
        del(m.as_mut(), ws[0].clone());
        let cs = m.quiesce().cs_changes;
        assert_eq!(cs.len(), 4, "{}: {cs:?}", m.name());
        assert!(cs.iter().all(|c| matches!(c, CsChange::Remove(_))));
        assert_eq!(since(m.as_ref(), before), (3, 0), "{}", m.name());
    }
}

/// Children leave in the order a rescan would find them, after a right
/// removal has moved one forward. `b`s pair with `a` by `>` alone, so all
/// of them share one line (vs1's vector, vs2's id-only line): `[b0 b1 b2]`,
/// `a` keeping `(a, b1) (a, b2)`. `-b0` moves `b2` into its place, `[b2
/// b1]`, so `-a` must send `(a, b2)` then `(a, b1)`, as the rematch did: the
/// stack pops `(a, b1)` first and its instantiation is removed first. A
/// list sent in the order it was made reverses the two.
#[test]
fn children_leave_in_line_order_after_a_removal_moved_one_forward() {
    let src = "(p q (a ^x <v>) (b ^y > <v>) (c ^z <v>) --> (halt))";
    let (mut prog, net) = net_of(src);
    assert!(matches!(net.join(0).succs[..], [Succ::Join(1)]));
    let a = ints(&mut prog, "a", &[1], 1);
    let b0 = ints(&mut prog, "b", &[0], 2);
    let b1 = ints(&mut prog, "b", &[5], 3);
    let b2 = ints(&mut prog, "b", &[6], 4);
    let c = ints(&mut prog, "c", &[1], 5);
    let ws = [b0.clone(), b1, b2, a.clone(), c];
    assert_eq!(fold_against_the_trace(src, &prog, &churn(&ws)), [0, 0, 0]);

    for mut m in seq_matchers(&prog, &net) {
        for w in &ws {
            add(m.as_mut(), w.clone());
        }
        assert_eq!(m.quiesce().cs_changes.len(), 2);
        del(m.as_mut(), b0.clone());
        assert!(m.quiesce().cs_changes.is_empty());
        del(m.as_mut(), a.clone());
        let gone: Vec<_> = (m.quiesce().cs_changes.iter())
            .map(|c| match c {
                CsChange::Remove(r) => r.wmes.timetags(),
                CsChange::Insert(i) => panic!("{}: insert {i:?}", m.name()),
            })
            .collect();
        assert_eq!(gone, [[1, 3, 5], [1, 4, 5]], "{}", m.name());
    }
}

/// Children leave in line order after the table doubled under them. `b`s
/// pair with `a` by `>` alone, so they share one key, and `f`s of another
/// memory are picked to share their line at 16 lines and leave it at 32.
/// `a` adopts `(a, b0) .. (a, b3)` while the line reads `[b0 f f b1 f f b2
/// f f b3]`; fillers double the table, which packs the line to `[b0 b1 b2
/// b3]`; `-b2` then moves `b3` into the hole. The positions a list is
/// sorted by must have followed the doubling: `-a` sends `(a, b0) (a, b1)
/// (a, b3)`, so the stack removes `(a, b3, c)` first and `(a, b0, c)` last,
/// as the rematch did.
#[test]
fn children_leave_in_line_order_after_the_table_doubled() {
    let src = "(p q (a ^x <v>) (b ^y > <v>) (c ^z <v>) --> (halt))
         (p fill (g ^x <v>) (f ^y <v>) --> (halt))";
    let (mut prog, net) = net_of(src);
    let (mb, mf) = (net.join(0).right_mem, net.join(2).right_mem);
    assert!(matches!(net.join(0).succs[..], [Succ::Join(1)]));
    let store_key =
        |mem: u32, w: &Wme| rete::fxhash::mix(net.right_mems[mem as usize].key(w), mem as u64);
    let mut tag = 0;
    let mut wme = |class, v| {
        tag += 1;
        ints(&mut prog, class, &[v], tag)
    };
    let bs: Vec<WmeRef> = (5..9).map(|v| wme("b", v)).collect();
    let kb = store_key(mb, &bs[0]);
    let fs: Vec<WmeRef> = (0..)
        .map(|v| wme("f", v))
        .filter(|f| {
            let k = store_key(mf, f);
            k & 15 == kb & 15 && k & 16 != kb & 16
        })
        .take(6)
        .collect();
    let (a, c) = (wme("a", 1), wme("c", 1));
    let fillers: Vec<WmeRef> = (0..60).map(|v| wme("g", 1000 + v)).collect();

    let mut m = SeqMatcher::vs2(net.clone(), HashMemConfig::default());
    assert_eq!(m.table_lines(), 16);
    let line = [&bs[0], &fs[0], &fs[1], &bs[1], &fs[2], &fs[3], &bs[2]];
    for w in line.into_iter().chain([&fs[4], &fs[5], &bs[3], &c, &a]) {
        add(&mut m, w.clone());
    }
    assert_eq!(m.quiesce().cs_changes.len(), 4);
    for w in &fillers {
        if m.table_lines() > 16 {
            break;
        }
        add(&mut m, w.clone());
    }
    assert_eq!(m.table_lines(), 32, "the fillers doubled the table once");
    del(&mut m, bs[2].clone());
    assert_eq!(m.quiesce().cs_changes.len(), 1);
    del(&mut m, a.clone());
    let gone: Vec<_> = (m.quiesce().cs_changes.iter())
        .map(|ch| match ch {
            CsChange::Remove(r) => r.wmes.timetags(),
            CsChange::Insert(i) => panic!("insert {i:?}"),
        })
        .collect();
    let tags = |b: &WmeRef| vec![a.timetag, b.timetag, c.timetag];
    assert_eq!(gone, [tags(&bs[3]), tags(&bs[1]), tags(&bs[0])]);
}

/// `a ⋈ b` feeds `(a b) ⋈ c` and nothing else, so J0's children are J1's
/// left tokens; J1's are instantiations.
const KEEPING: &str = "(literalize a x) (literalize b y z) (literalize c u)
     (p q (a ^x <v>) (b ^y <v> ^z <w>) (c ^u <w>) --> (halt))";

/// [`KEEPING`] below a not-node: J0 is `- (n ^x <v>)`, J1 `⋈ b` keeps its
/// children for J2 `⋈ c`.
const BLOCKED: &str = "(literalize a x) (literalize n x) (literalize b y z)
     (literalize c u)
     (p q (a ^x <v>) - (n ^x <v>) (b ^y <v> ^z <w>) (c ^u <w>) --> (halt))";

/// Batches in which two changes meet at one join.
const BATCHED: &[Case] = &[
    // A pair made in one batch, and both its sides deleted in one.
    (
        PAIR,
        &[("a", &[1]), ("b", &[1])],
        "+0 +1 | -0 | -1 | +0 +1 | -0 -1",
    ),
    // A cross product made in one batch, then one side of it deleted.
    (
        "(p q (a ^x <v>) (b ^y <w>) --> (halt))",
        &[
            ("a", &[0]),
            ("a", &[1]),
            ("a", &[2]),
            ("b", &[0]),
            ("b", &[1]),
            ("b", &[2]),
            ("b", &[3]),
        ],
        "+0 +1 +2 +3 +4 +5 +6 | -0 | -1 -2 -3 -4 -5 -6",
    ),
    // A three-CE chain built in one batch, its middle out and back.
    (
        KEEPING,
        &[("a", &[1]), ("b", &[1, 9]), ("c", &[9])],
        "+2 +1 +0 | -1 | +1 | -0 -2 | -1",
    ),
    // A child whose two halves (`a1`, `b`) arrive in one batch, beside a
    // token that pairs with neither.
    (
        KEEPING,
        &[("a", &[2]), ("c", &[9]), ("a", &[1]), ("b", &[1, 9])],
        "+0 +1 | +3 +2 | -2 | -3 | -0 -1",
    ),
    // A child whose two halves leave in one batch, in either order.
    (
        KEEPING,
        &[("a", &[1]), ("b", &[1, 9]), ("b", &[1, 9]), ("c", &[9])],
        "+0 +1 +2 +3 | -0 -1 | -2 -3",
    ),
    (
        KEEPING,
        &[("a", &[1]), ("b", &[1, 9]), ("b", &[1, 9]), ("c", &[9])],
        "+0 +1 +2 +3 | -1 -0 | -2 -3",
    ),
    // A token that would gain a child and leaves in the same batch; below
    // a not-node, a blocker arriving with the child's right half takes the
    // token away.
    (
        KEEPING,
        &[("a", &[1]), ("c", &[9]), ("b", &[1, 9])],
        "+0 +1 | +2 -0 | -2 -1",
    ),
    (
        BLOCKED,
        &[("a", &[1]), ("c", &[9]), ("b", &[1, 9]), ("n", &[1])],
        "+0 +1 | +2 +3 | -2 -1 -3 -0",
    ),
    // A self-join WME that is both halves, `a ^x` on J0's left and `a ^y`
    // on its right, two of them arriving in one batch.
    (
        "(literalize a x y z) (literalize c u)
         (p q (a ^x <v>) (a ^y <v> ^z <w>) (c ^u <w>) --> (halt))",
        &[
            ("a", &[5, 6, 9]),
            ("c", &[9]),
            ("a", &[1, 1, 9]),
            ("a", &[1, 1, 9]),
        ],
        "+0 +1 | +2 +3 | -2 | -3 -0 | -1",
    ),
    // One memory's WMEs under three signatures and a token of its readers
    // in and out together.
    (
        SHARED_B,
        &[
            ("a", &[1, 2]),
            ("a", &[3, 2]),
            ("c", &[1]),
            ("b", &[1, 2]),
            ("b", &[1, 3]),
            ("b", &[3, 2]),
        ],
        "+0 +3 | +4 +2 | +1 -3 | +5 -0 | -4 -2 | -1 -5",
    ),
];

/// The kept-children programs above submit one change at a time; here the
/// same programs, and a carousel of `b`s under a changing `a` (each `+b`
/// joins the `a` that still holds the child of the `b` leaving next), go in
/// batches of 2 to 7 changes, so every such pair meets inside some batch,
/// and the cases of [`BATCHED`] go in the batches they name. vs1, vs2 and
/// lispsim take each batch retractions first, the trace matcher as written;
/// all fold alike after every batch.
#[test]
fn kept_children_fold_alike_when_changes_arrive_in_batches() {
    let (mut prog, net) = net_of(CHAIN);
    assert!(matches!(net.join(0).succs[..], [Succ::Join(1)]));
    let mut tag = 0;
    let mut wme = |class, v| {
        tag += 1;
        ints(&mut prog, class, &[v], tag)
    };
    let c = wme("c", 1);
    let a: Vec<WmeRef> = (0..3).map(|_| wme("a", 1)).collect();
    let b: Vec<WmeRef> = (0..8).map(|_| wme("b", 1)).collect();
    let (plus, minus) = (
        |w: &WmeRef| (Sign::Plus, w.clone()),
        |w: &WmeRef| (Sign::Minus, w.clone()),
    );
    let mut carousel = vec![plus(&c), plus(&a[0]), plus(&b[0])];
    for i in 0..7 {
        carousel.extend([plus(&b[i + 1]), minus(&b[i])]);
        if i % 3 == 1 {
            carousel.extend([minus(&a[i / 3]), plus(&a[i / 3 + 1])]);
        }
    }
    carousel.extend([minus(&b[7]), minus(&a[2]), minus(&c)]);

    let self_join = "(p q (a ^x <v>) (a ^x <v>) (c ^z <v>) --> (halt))";
    let line_order = "(p q (a ^x <v>) (b ^y > <v>) (c ^z <v>) --> (halt))";
    let mut programs = vec![(CHAIN, prog, carousel)];
    for (src, ws) in [
        (
            self_join,
            &[("a", 1), ("c", 1), ("a", 1), ("a", 2), ("c", 2)][..],
        ),
        (
            line_order,
            &[("b", 0), ("b", 5), ("b", 6), ("a", 1), ("c", 1)],
        ),
        (
            CHAIN,
            &[
                ("a", 1),
                ("b", 1),
                ("b", 1),
                ("c", 1),
                ("c", 1),
                ("a", 2),
                ("b", 2),
            ],
        ),
    ] {
        let mut prog = Program::from_source(src).unwrap();
        let ws: Vec<WmeRef> = (ws.iter().zip(1..))
            .map(|(&(class, v), tag)| ints(&mut prog, class, &[v], tag))
            .collect();
        programs.push((src, prog, churn(&ws)));
    }
    for (src, prog, steps) in &programs {
        for len in 2..=7 {
            let options = NetworkOptions::default();
            assert_eq!(fold_in_chunks(src, prog, options, steps, len), [0, 0, 0]);
        }
    }
    fold_cases(BATCHED);
}

/// The timetags of each instantiation `cs` removes, in emission order; an
/// insert fails the test.
fn removed(name: &str, cs: Vec<CsChange>) -> Vec<Vec<u64>> {
    (cs.into_iter())
        .map(|c| match c {
            CsChange::Remove(r) => r.wmes.timetags(),
            CsChange::Insert(i) => panic!("{name}: insert {i:?}"),
        })
        .collect()
}

/// `(p q (a ^x <v>) (b ^y <v>))`: J0 feeds a terminal, so its children are
/// instantiations.
const PAIR: &str = "(p q (a ^x <v>) (b ^y <v>) --> (halt))";

/// Terminal children, hazard 1: a right WME that leaves first. `-b1` takes
/// `(a, b1)` out of `a`'s list and removes that instantiation, so the `-a`
/// that follows removes only `(a, b2)`, and scans nothing.
#[test]
fn a_terminal_child_whose_right_wme_leaves_first_is_removed_once() {
    let (mut prog, net) = net_of(PAIR);
    assert_eq!(net.n_joins(), 1);
    assert!(matches!(net.join(0).succs[..], [Succ::Terminal(_)]));
    let a = ints(&mut prog, "a", &[1], 1);
    let b1 = ints(&mut prog, "b", &[1], 2);
    let b2 = ints(&mut prog, "b", &[1], 3);
    let steps: Vec<Step> = [
        (Sign::Plus, &a),
        (Sign::Plus, &b1),
        (Sign::Plus, &b2),
        (Sign::Minus, &b1),
        (Sign::Minus, &a),
        (Sign::Plus, &a),
        (Sign::Minus, &b2),
        (Sign::Minus, &a),
    ]
    .map(|(sign, w)| (sign, w.clone()))
    .into();
    assert_eq!(fold_against_the_trace(PAIR, &prog, &steps), [0, 0, 0]);

    for mut m in seq_matchers(&prog, &net) {
        for w in [&a, &b1, &b2] {
            add(m.as_mut(), w.clone());
        }
        assert_eq!(m.quiesce().cs_changes.len(), 2);
        del(m.as_mut(), b1.clone());
        assert_eq!(removed(m.name(), m.quiesce().cs_changes), [[1, 2]]);
        let before = m.stats();
        del(m.as_mut(), a.clone());
        assert_eq!(removed(m.name(), m.quiesce().cs_changes), [[1, 3]]);
        assert_eq!(since(m.as_ref(), before), (1, 0), "{}", m.name());
    }
}

/// Terminal children, hazard 2: a self-join WME in the token and on the
/// right input leaves both in one change. J0's right activation removes
/// every instantiation made with `a1` on the right, `(a1, a1)` among them,
/// and the left activation that follows removes the rest of `a1`'s list,
/// `(a1, a2)`: each once, no scan.
#[test]
fn a_self_join_wme_leaving_both_inputs_of_a_terminal_join_removes_each_once() {
    let src = "(p q (a ^x <v>) (a ^x <v>) --> (halt))";
    let (mut prog, net) = net_of(src);
    let ws = [
        ints(&mut prog, "a", &[1], 1),
        ints(&mut prog, "a", &[1], 2),
        ints(&mut prog, "a", &[2], 3),
    ];
    assert_eq!(fold_against_the_trace(src, &prog, &churn(&ws)), [0, 0, 0]);

    for mut m in seq_matchers(&prog, &net) {
        add(m.as_mut(), ws[0].clone());
        add(m.as_mut(), ws[1].clone());
        assert_eq!(m.quiesce().cs_changes.len(), 4, "{}", m.name());
        let before = m.stats();
        del(m.as_mut(), ws[0].clone());
        let mut gone = removed(m.name(), m.quiesce().cs_changes);
        gone.sort();
        assert_eq!(gone, [[1, 1], [1, 2], [2, 1]], "{}", m.name());
        // One right and one left activation of J0.
        assert_eq!(since(m.as_ref(), before), (2, 0), "{}", m.name());
    }
}

/// Terminal children leave in the order the rematch found them, before and
/// after a right removal moved one forward. `b`s pair with `a` by `>` alone,
/// so they share one line: `[b0 b1 b2]`, `a` keeping `(a, b1) (a, b2)`. The
/// first `-a` sends them in that order (a list sent newest first reverses
/// the two); after `-b0` has moved `b2` into its place, `[b2 b1]`, the
/// second `-a` sends `(a, b2)` first (a list sent in the order it was made
/// reverses the two).
#[test]
fn terminal_removals_leave_in_line_order_after_a_swap_remove() {
    let src = "(p q (a ^x <v>) (b ^y > <v>) --> (halt))";
    let (mut prog, net) = net_of(src);
    let a = ints(&mut prog, "a", &[1], 1);
    let b0 = ints(&mut prog, "b", &[0], 2);
    let b1 = ints(&mut prog, "b", &[5], 3);
    let b2 = ints(&mut prog, "b", &[6], 4);
    let ws = [b0.clone(), b1, b2, a.clone()];
    let mut steps: Vec<Step> = ws.iter().map(|w| (Sign::Plus, w.clone())).collect();
    steps.extend([
        (Sign::Minus, a.clone()),
        (Sign::Plus, a.clone()),
        (Sign::Minus, b0.clone()),
        (Sign::Minus, a.clone()),
    ]);
    assert_eq!(fold_against_the_trace(src, &prog, &steps), [2, 2, 2]);

    for mut m in seq_matchers(&prog, &net) {
        let name = m.name();
        for w in &ws {
            add(m.as_mut(), w.clone());
        }
        assert_eq!(m.quiesce().cs_changes.len(), 2);
        del(m.as_mut(), a.clone());
        // The agenda pops a list's terminal tasks last first: line order
        // `(a, b1) (a, b2)` is removed `(a, b2)` first.
        let gone = removed(name, m.quiesce().cs_changes);
        assert_eq!(gone, [[1, 4], [1, 3]], "{name}");
        add(m.as_mut(), a.clone());
        del(m.as_mut(), b0.clone());
        assert_eq!(m.quiesce().cs_changes.len(), 2, "{name}: only the inserts");
        del(m.as_mut(), a.clone());
        let gone = removed(name, m.quiesce().cs_changes);
        assert_eq!(gone, [[1, 3], [1, 4]], "{name}");
    }
}

/// Terminal children leave in line order after the table doubled under
/// them: the terminal twin of
/// [`children_leave_in_line_order_after_the_table_doubled`]. `a` keeps the
/// instantiations `(a, b0) .. (a, b3)` while their line reads `[b0 f f b1 f
/// f b2 f f b3]`; fillers double the table, which packs it to `[b0 b1 b2
/// b3]`; `-b2` moves `b3` into the hole, so `-a` sends `(a, b0) (a, b1)
/// (a, b3)`, as the rematch did.
#[test]
fn terminal_removals_leave_in_line_order_after_the_table_doubled() {
    let src = "(p q (a ^x <v>) (b ^y > <v>) --> (halt))
         (p fill (g ^x <v>) (f ^y <v>) --> (halt))";
    let (mut prog, net) = net_of(src);
    let (mb, mf) = (net.join(0).right_mem, net.join(1).right_mem);
    let store_key =
        |mem: u32, w: &Wme| rete::fxhash::mix(net.right_mems[mem as usize].key(w), mem as u64);
    let mut tag = 0;
    let mut wme = |class, v| {
        tag += 1;
        ints(&mut prog, class, &[v], tag)
    };
    let bs: Vec<WmeRef> = (5..9).map(|v| wme("b", v)).collect();
    let kb = store_key(mb, &bs[0]);
    let fs: Vec<WmeRef> = (0..)
        .map(|v| wme("f", v))
        .filter(|f| {
            let k = store_key(mf, f);
            k & 15 == kb & 15 && k & 16 != kb & 16
        })
        .take(6)
        .collect();
    let a = wme("a", 1);
    let fillers: Vec<WmeRef> = (0..60).map(|v| wme("g", 1000 + v)).collect();
    let line = [&bs[0], &fs[0], &fs[1], &bs[1], &fs[2], &fs[3], &bs[2]];
    let built: Vec<&WmeRef> = line
        .into_iter()
        .chain([&fs[4], &fs[5], &bs[3], &a])
        .collect();

    // vs2 finds how many fillers double its table.
    let mut vs2 = SeqMatcher::vs2(net.clone(), HashMemConfig::default());
    for w in &built {
        add(&mut vs2, (*w).clone());
    }
    let mut fill = 0;
    while vs2.table_lines() == 16 {
        add(&mut vs2, fillers[fill].clone());
        fill += 1;
    }
    assert_eq!(vs2.table_lines(), 32, "the fillers doubled the table once");
    let mut steps: Vec<Step> = (built.iter().copied().chain(&fillers[..fill]))
        .map(|w| (Sign::Plus, w.clone()))
        .collect();
    steps.extend([(Sign::Minus, bs[2].clone()), (Sign::Minus, a.clone())]);
    fold_against_the_trace(src, &prog, &steps);

    let tags = |b: &WmeRef| vec![a.timetag, b.timetag];
    assert_eq!(vs2.quiesce().cs_changes.len(), 4);
    del(&mut vs2, bs[2].clone());
    assert_eq!(removed("vs2", vs2.quiesce().cs_changes), [tags(&bs[2])]);
    del(&mut vs2, a.clone());
    // Line order `b0 b1 b3`, popped last first.
    let gone = removed("vs2", vs2.quiesce().cs_changes);
    assert_eq!(gone, [tags(&bs[3]), tags(&bs[1]), tags(&bs[0])]);
}

/// A join shared by two productions feeds a join and a terminal, and sends
/// each child it kept to both: `-b1` (a right removal) and `-a` (a left
/// one) remove `p1`'s instantiation at J0's terminal and `p2`'s through J1,
/// with no left activation scanning. A child sent to one successor only
/// would leave the other's behind, which the folds catch.
#[test]
fn a_shared_join_feeding_a_join_and_a_terminal_sends_its_children_to_both() {
    let src = "(p p1 (a ^x <v>) (b ^y <v>) --> (halt))
         (p p2 (a ^x <v>) (b ^y <v>) (c ^z <v>) --> (halt))";
    let (mut prog, net) = net_of(src);
    assert_eq!(net.n_joins(), 2);
    let succs = &net.join(0).succs;
    assert_eq!(succs.len(), 2);
    assert!(succs.contains(&Succ::Join(1)));
    assert!(succs.iter().any(|s| matches!(s, Succ::Terminal(_))));
    let ws: Vec<WmeRef> = [("a", 1), ("b", 1), ("b", 1), ("c", 1), ("a", 2)]
        .into_iter()
        .chain([("b", 2), ("c", 2), ("c", 1)])
        .zip(1..)
        .map(|((class, v), tag)| ints(&mut prog, class, &[v], tag))
        .collect();
    assert_eq!(fold_against_the_trace(src, &prog, &churn(&ws)), [0, 0, 0]);

    for mut m in seq_matchers(&prog, &net) {
        let name = m.name();
        for w in &ws[..4] {
            add(m.as_mut(), w.clone());
        }
        assert_eq!(
            m.quiesce().cs_changes.len(),
            4,
            "{name}: p1 twice, p2 twice"
        );
        let before = m.stats();
        del(m.as_mut(), ws[1].clone());
        let mut gone = removed(name, m.quiesce().cs_changes);
        gone.sort();
        assert_eq!(gone, [vec![1, 2], vec![1, 2, 4]], "{name}");
        // J0's right activation and J1's left one.
        assert_eq!(since(m.as_ref(), before), (2, 0), "{name}");
        let before = m.stats();
        del(m.as_mut(), ws[0].clone());
        let mut gone = removed(name, m.quiesce().cs_changes);
        gone.sort();
        assert_eq!(gone, [vec![1, 3], vec![1, 3, 4]], "{name}");
        assert_eq!(since(m.as_ref(), before), (2, 0), "{name}");
    }
}

/// A terminal join below a not-node, with a blocker in and a blocker out in
/// one batch: `[+b2 -b1]` blocks `a2` and frees `a1`, `[+b1 -b2]` the other
/// way round, and `[+b3 -b1]` blocks and frees `a1` at once. Whatever the
/// not-node lets through or takes back reaches J1, which removes from what
/// it kept. The cases of [`BLOCKERS`] put a blocker and a token it blocks,
/// or a blocker of a not-node and of a positive join, into one batch. vs1,
/// vs2 and lispsim take each batch retractions first; all fold as the trace
/// does after every batch.
#[test]
fn a_terminal_join_below_a_not_node_folds_alike_with_blockers_in_and_out_in_one_batch() {
    let src = "(p q (a ^x <v>) - (b ^y <v>) (c ^z <v>) --> (halt))";
    let mut prog = Program::from_source(src).unwrap();
    let mut tag = 0;
    let mut wme = |class, v| {
        tag += 1;
        ints(&mut prog, class, &[v], tag)
    };
    let (a1, a2) = (wme("a", 1), wme("a", 2));
    let (c1, c2, c3) = (wme("c", 1), wme("c", 2), wme("c", 1));
    let (b1, b2, b3) = (wme("b", 1), wme("b", 2), wme("b", 1));
    let (plus, minus) = (
        |w: &WmeRef| (Sign::Plus, w.clone()),
        |w: &WmeRef| (Sign::Minus, w.clone()),
    );
    let steps = vec![
        plus(&a1),
        plus(&a2),
        plus(&c1),
        plus(&c2),
        plus(&b1),
        plus(&c3),
        plus(&b2),
        minus(&b1),
        plus(&b1),
        minus(&b2),
        plus(&b3),
        minus(&b1),
        minus(&b3),
        minus(&a1),
        minus(&a2),
        minus(&c1),
        minus(&c2),
        minus(&c3),
    ];
    for len in [1, 2, 3, 4, 6] {
        let options = NetworkOptions::default();
        assert_eq!(fold_in_chunks(src, &prog, options, &steps, len), [0, 0, 0]);
    }
    fold_cases(BLOCKERS);
}

/// `(p q (a ^x <v>) - (b ^y <v>))` over `a1`, `b1`, `b2`, all of value 1.
const NOT_B: &str = "(p q (a ^x <v>) - (b ^y <v>) --> (halt))";

/// Batches in which a blocker meets a token it blocks.
const BLOCKERS: &[Case] = &[
    // Two blockers arriving in one batch.
    (
        NOT_B,
        &[("a", &[1]), ("b", &[1]), ("b", &[1])],
        "+0 | +1 +2 | -1 | -2 | -0",
    ),
    // A blocker and its token in one batch.
    (NOT_B, &[("a", &[1]), ("b", &[1])], "+0 +1 | -1 | -0"),
    // A blocker shared by a not-node and a positive join.
    (
        "(p pos (a ^x <v>) (b ^y <v>) --> (halt))
         (p neg (a ^x <v>) - (b ^y <v>) --> (halt))",
        &[("a", &[1]), ("b", &[1]), ("b", &[1])],
        "+1 +0 | -1 | +1 +2 | -2 | -0 -1",
    ),
];
