//! *col*: vs2 under its own name.
//!
//! A col matcher is [`SeqMatcher::vs2`] with a table sized by its
//! population, reporting `"col"`; it runs no code vs2 does not. The name is
//! kept because the benchmark measures `changes_per_s.col` and the
//! server's `OPEN` reply names the matcher. DESIGN.md §9 says what col was
//! and why it went.

use crate::memory::{HashMem, HashMemConfig};
use crate::network::Network;
use crate::seq::SeqMatcher;
use ops5::Matcher;
use std::sync::Arc;

/// col: vs2 with the default table, named `"col"`.
pub fn col(net: Arc<Network>) -> SeqMatcher<HashMem> {
    let mut m = SeqMatcher::vs2(net, HashMemConfig::default());
    m.name = "col";
    m
}

/// Factory helper returning a boxed matcher (table-driven harnesses).
pub fn boxed_col(net: Arc<Network>) -> Box<dyn Matcher> {
    Box::new(col(net))
}

/// col's wiring and its batches. Each case feeds col several changes per
/// batch and vs1 (list memories, no hash table) the same changes one at a
/// time, and folds both strictly: an insert of a present instantiation or
/// a remove of an absent one fails the test. The hazard suite
/// (`tests/shared_memory_hazards.rs`) folds the same batch sequences on vs1,
/// vs2 and lispsim against the trace matcher; these cases pin what col
/// itself emits and counts.
#[cfg(test)]
mod tests {
    use super::*;
    use crate::Succ;
    use ops5::{ChangeBatch, CsChange, Program, Sign, Value, Wme, WmeChange, WmeRef};
    use std::collections::BTreeSet;

    fn net_of(src: &str) -> (Program, Arc<Network>) {
        let prog = Program::from_source(src).unwrap();
        let net = Arc::new(Network::compile(&prog).unwrap());
        (prog, net)
    }

    fn wme(prog: &mut Program, class: &str, vals: Vec<Value>, tag: u64) -> WmeRef {
        let c = prog.symbols.intern(class);
        Wme::new(c, vals, tag)
    }

    fn ints(prog: &mut Program, class: &str, vals: &[i64], tag: u64) -> WmeRef {
        wme(
            prog,
            class,
            vals.iter().map(|&v| Value::Int(v)).collect(),
            tag,
        )
    }

    fn change(sign: Sign, wme: WmeRef) -> WmeChange {
        WmeChange { sign, wme }
    }

    /// The conflict set after folding `cs` into `state`, strictly.
    fn fold_keys(
        state: &mut BTreeSet<(u32, Vec<u64>)>,
        cs: Vec<CsChange>,
        at: &str,
    ) -> Vec<(u32, Vec<u64>)> {
        for c in cs {
            match c {
                CsChange::Insert(i) => {
                    let (p, tags) = i.key();
                    assert!(state.insert((p.0, tags.clone())), "{at}: +{tags:?} twice");
                }
                CsChange::Remove(i) => {
                    let (p, tags) = i.key();
                    assert!(state.remove(&(p.0, tags.clone())), "{at}: -{tags:?} absent");
                }
            }
        }
        state.iter().cloned().collect()
    }

    /// col takes each cycle as one batch, vs1 one change at a time; the
    /// folded conflict sets agree after every cycle.
    fn assert_agrees(src: &str, cycles: &[Vec<WmeChange>]) {
        let (_prog, net) = net_of(src);
        let mut m = col(net.clone());
        assert_eq!(m.name(), "col");
        let mut vs1 = SeqMatcher::vs1(net);
        let (mut col_state, mut vs1_state) = (BTreeSet::new(), BTreeSet::new());
        for (i, cycle) in cycles.iter().enumerate() {
            m.submit(&cycle.iter().cloned().collect());
            for c in cycle {
                vs1.submit(&ChangeBatch::single(c.clone()));
            }
            let at = format!("cycle {i}");
            let a = fold_keys(&mut col_state, m.quiesce().cs_changes, &at);
            let b = fold_keys(&mut vs1_state, vs1.quiesce().cs_changes, &at);
            assert_eq!(a, b, "{at} diverged");
        }
    }

    #[test]
    fn two_ce_join_fires_batched() {
        let src = "(p q (a ^x <v>) (b ^y <v>) --> (halt))";
        let (mut prog, _net) = net_of(src);
        let wa = ints(&mut prog, "a", &[1], 1);
        let wb = ints(&mut prog, "b", &[1], 2);
        assert_agrees(
            src,
            &[
                vec![
                    change(Sign::Plus, wa.clone()),
                    change(Sign::Plus, wb.clone()),
                ],
                vec![change(Sign::Minus, wa)],
                vec![change(Sign::Minus, wb)],
            ],
        );
    }

    #[test]
    fn cross_product_and_deletes() {
        let src = "(p q (a ^x <v>) (b ^y <w>) --> (halt))";
        let (mut prog, _net) = net_of(src);
        let mut adds = Vec::new();
        for i in 0..3 {
            adds.push(change(Sign::Plus, ints(&mut prog, "a", &[i], i as u64 + 1)));
        }
        for i in 0..4 {
            adds.push(change(
                Sign::Plus,
                ints(&mut prog, "b", &[i], i as u64 + 10),
            ));
        }
        let a0 = ints(&mut prog, "a", &[0], 1);
        assert_agrees(src, &[adds, vec![change(Sign::Minus, a0)]]);
    }

    #[test]
    fn negated_ce_blocks_and_unblocks_batched() {
        let src = "(p q (a ^x <v>) - (b ^y <v>) --> (halt))";
        let (mut prog, _net) = net_of(src);
        let wa = ints(&mut prog, "a", &[1], 1);
        let wb = ints(&mut prog, "b", &[1], 2);
        let wb2 = ints(&mut prog, "b", &[1], 3);
        assert_agrees(
            src,
            &[
                vec![change(Sign::Plus, wa.clone())],
                vec![
                    change(Sign::Plus, wb.clone()),
                    change(Sign::Plus, wb2.clone()),
                ],
                vec![change(Sign::Minus, wb)],
                vec![change(Sign::Minus, wb2)],
                vec![change(Sign::Minus, wa)],
            ],
        );
    }

    #[test]
    fn blocker_and_token_in_one_batch() {
        let src = "(p q (a ^x <v>) - (b ^y <v>) --> (halt))";
        let (mut prog, _net) = net_of(src);
        let wa = ints(&mut prog, "a", &[1], 1);
        let wb = ints(&mut prog, "b", &[1], 2);
        assert_agrees(
            src,
            &[
                vec![
                    change(Sign::Plus, wa.clone()),
                    change(Sign::Plus, wb.clone()),
                ],
                vec![change(Sign::Minus, wb)],
                vec![change(Sign::Minus, wa)],
            ],
        );
    }

    #[test]
    fn three_ce_chain_mixed_batches() {
        let src = "(p q (a ^x <v>) (b ^y <v> ^z <w>) (c ^u <w>) --> (halt))";
        let (mut prog, _net) = net_of(src);
        let wa = ints(&mut prog, "a", &[1], 1);
        let wb = ints(&mut prog, "b", &[1, 9], 2);
        let wc = ints(&mut prog, "c", &[9], 3);
        assert_agrees(
            src,
            &[
                vec![
                    change(Sign::Plus, wc.clone()),
                    change(Sign::Plus, wb.clone()),
                    change(Sign::Plus, wa.clone()),
                ],
                vec![change(Sign::Minus, wb.clone())],
                vec![change(Sign::Plus, wb)],
                vec![change(Sign::Minus, wa), change(Sign::Minus, wc)],
            ],
        );
    }

    /// Both sides of a matched pair deleted in one batch: the first
    /// removal takes the pair, the second finds nothing left to send, so the
    /// Remove is emitted exactly once.
    #[test]
    fn double_delete_of_a_pair_emits_once() {
        let src = "(p q (a ^x <v>) (b ^y <v>) --> (halt))";
        let (mut prog, net) = net_of(src);
        let wa = ints(&mut prog, "a", &[1], 1);
        let wb = ints(&mut prog, "b", &[1], 2);
        let mut m = col(net);
        m.submit(
            &[
                change(Sign::Plus, wa.clone()),
                change(Sign::Plus, wb.clone()),
            ]
            .into_iter()
            .collect(),
        );
        assert_eq!(m.quiesce().cs_changes.len(), 1);
        m.submit(
            &[change(Sign::Minus, wa), change(Sign::Minus, wb)]
                .into_iter()
                .collect(),
        );
        let cs = m.quiesce().cs_changes;
        assert_eq!(cs.len(), 1, "exactly one Remove: {cs:?}");
        assert!(matches!(cs[0], CsChange::Remove(_)));
        assert_eq!(m.memory_entries(), 0);
    }

    /// `a ⋈ b` feeds `(a b) ⋈ c` and nothing else, so J0's children are
    /// J1's left tokens; J1's are instantiations.
    const KEEPING: &str = "(literalize a x) (literalize b y z) (literalize c u)
         (p q (a ^x <v>) (b ^y <v> ^z <w>) (c ^u <w>) --> (halt))";

    /// [`KEEPING`] below a not-node: J0 is `- (n ^x <v>)`, J1 `⋈ b` keeps
    /// its children for J2 `⋈ c`.
    const BLOCKED: &str = "(literalize a x) (literalize n x) (literalize b y z)
         (literalize c u)
         (p q (a ^x <v>) - (n ^x <v>) (b ^y <v> ^z <w>) (c ^u <w>) --> (halt))";

    /// `cycles` through col against vs1 ([`assert_agrees`]), then col's raw
    /// conflict-set changes per cycle, as (+1 | -1, timetags).
    fn cs_of(src: &str, cycles: &[Vec<WmeChange>]) -> Vec<Vec<(i8, Vec<u64>)>> {
        assert_agrees(src, cycles);
        let (_prog, net) = net_of(src);
        assert_eq!(net.join(0).succs, [Succ::Join(1)]);
        let mut m = col(net);
        let out = cycles.iter().map(|cycle| {
            m.submit(&cycle.iter().cloned().collect());
            let cs = m.quiesce().cs_changes.into_iter();
            cs.map(|c| match c {
                CsChange::Insert(i) => (1, i.wmes.timetags()),
                CsChange::Remove(i) => (-1, i.wmes.timetags()),
            })
            .collect()
        });
        let out = out.collect();
        assert_eq!(m.memory_entries(), 0, "the cycles leave the memories empty");
        out
    }

    /// Kept children: `+b` and `+a1` in one batch. `+b` pairs with `a0`'s
    /// value, not its own; `+a1` then finds `b` and keeps `(a1, b)` once.
    /// Kept twice, `-a1` would send two `-`s and J1's second delete search
    /// would fail.
    #[test]
    fn a_child_whose_halves_arrive_in_one_batch_is_adopted_once() {
        let (mut prog, _net) = net_of(KEEPING);
        let a0 = ints(&mut prog, "a", &[2], 1);
        let c = ints(&mut prog, "c", &[9], 2);
        let a1 = ints(&mut prog, "a", &[1], 3);
        let b = ints(&mut prog, "b", &[1, 9], 4);
        let cs = cs_of(
            KEEPING,
            &[
                vec![
                    change(Sign::Plus, a0.clone()),
                    change(Sign::Plus, c.clone()),
                ],
                vec![
                    change(Sign::Plus, b.clone()),
                    change(Sign::Plus, a1.clone()),
                ],
                vec![change(Sign::Minus, a1)],
                vec![change(Sign::Minus, b)],
                vec![change(Sign::Minus, a0), change(Sign::Minus, c)],
            ],
        );
        assert_eq!(
            cs,
            [
                vec![],
                vec![(1, vec![3, 4, 2])],
                vec![(-1, vec![3, 4, 2])],
                vec![],
                vec![]
            ]
        );
    }

    /// Kept children: `-a1` and `-b` in one batch, in either order. The
    /// first removal takes `(a1, b)` out of `a1`'s list, so the second sends
    /// only what is left: each child once.
    #[test]
    fn a_child_whose_halves_leave_in_one_batch_is_sent_once() {
        let (mut prog, _net) = net_of(KEEPING);
        let a1 = ints(&mut prog, "a", &[1], 1);
        let b = ints(&mut prog, "b", &[1, 9], 2);
        let b2 = ints(&mut prog, "b", &[1, 9], 3);
        let c = ints(&mut prog, "c", &[9], 4);
        let build: Vec<_> = [&a1, &b, &b2, &c]
            .map(|w| change(Sign::Plus, w.clone()))
            .to_vec();
        let leave = [change(Sign::Minus, a1), change(Sign::Minus, b)];
        for order in [leave.to_vec(), leave.iter().rev().cloned().collect()] {
            let rest = [&b2, &c].map(|w| change(Sign::Minus, w.clone())).to_vec();
            let cs = cs_of(KEEPING, &[build.clone(), order, rest]);
            assert_eq!(cs[0].len(), 2);
            let mut gone = cs[1].clone();
            gone.sort();
            assert_eq!(gone, [(-1, vec![1, 2, 4]), (-1, vec![1, 3, 4])]);
            assert!(cs[2].is_empty());
        }
    }

    /// Kept children: a token that gains a child and leaves in one batch.
    /// `+b` and `-a1` in one batch do not reach it: the batch's retractions
    /// go first, so `a1` leaves before `b` is stored and nothing is built.
    /// A blocker does: `+b` gives `a1` the child `(a1, b)` at J1 and sends
    /// `+(a1, b, c)`; `+n` then blocks `a1` at J0, and J1 sends the `-` from
    /// `a1`'s list, once.
    #[test]
    fn a_token_that_gains_a_child_and_leaves_in_one_batch_sends_it_once() {
        let (mut prog, _net) = net_of(KEEPING);
        let a1 = ints(&mut prog, "a", &[1], 1);
        let c = ints(&mut prog, "c", &[9], 2);
        let b = ints(&mut prog, "b", &[1, 9], 3);
        let cs = cs_of(
            KEEPING,
            &[
                vec![
                    change(Sign::Plus, a1.clone()),
                    change(Sign::Plus, c.clone()),
                ],
                vec![change(Sign::Plus, b.clone()), change(Sign::Minus, a1)],
                vec![change(Sign::Minus, b), change(Sign::Minus, c)],
            ],
        );
        assert_eq!(cs, [vec![], vec![], vec![]]);

        let (mut prog, _net) = net_of(BLOCKED);
        let a1 = ints(&mut prog, "a", &[1], 1);
        let c = ints(&mut prog, "c", &[9], 2);
        let b = ints(&mut prog, "b", &[1, 9], 3);
        let n = ints(&mut prog, "n", &[1], 4);
        let cs = cs_of(
            BLOCKED,
            &[
                vec![
                    change(Sign::Plus, a1.clone()),
                    change(Sign::Plus, c.clone()),
                ],
                vec![change(Sign::Plus, b.clone()), change(Sign::Plus, n.clone())],
                [b, c, n, a1].map(|w| change(Sign::Minus, w)).to_vec(),
            ],
        );
        let made = vec![1, 3, 2];
        assert_eq!(cs, [vec![], vec![(1, made.clone()), (-1, made)], vec![]]);
    }

    /// Kept children, a self-join WME that is both halves: `a ^x` on J0's
    /// left, `a ^y` on its right. `+w1 +w2` in one batch make all four
    /// pairs; `-w1` takes `(w1, w1)`, `(w1, w2)` and `(w2, w1)`, each once,
    /// and `-w2` the last.
    #[test]
    fn a_self_join_wme_that_is_both_halves_keeps_each_child_once() {
        let src = "(literalize a x y z) (literalize c u)
             (p q (a ^x <v>) (a ^y <v> ^z <w>) (c ^u <w>) --> (halt))";
        let (mut prog, _net) = net_of(src);
        let w0 = ints(&mut prog, "a", &[5, 6, 9], 1);
        let c = ints(&mut prog, "c", &[9], 2);
        let w1 = ints(&mut prog, "a", &[1, 1, 9], 3);
        let w2 = ints(&mut prog, "a", &[1, 1, 9], 4);
        let cs = cs_of(
            src,
            &[
                vec![
                    change(Sign::Plus, w0.clone()),
                    change(Sign::Plus, c.clone()),
                ],
                vec![
                    change(Sign::Plus, w1.clone()),
                    change(Sign::Plus, w2.clone()),
                ],
                vec![change(Sign::Minus, w1)],
                vec![change(Sign::Minus, w2), change(Sign::Minus, w0)],
                vec![change(Sign::Minus, c)],
            ],
        );
        let sorted = |mut v: Vec<(i8, Vec<u64>)>| {
            v.sort();
            v
        };
        let pairs = [[3, 3], [3, 4], [4, 3], [4, 4]].map(|[l, r]| vec![l, r, 2]);
        assert_eq!(sorted(cs[1].clone()), pairs.clone().map(|t| (1, t)));
        let first_three: Vec<_> = pairs[..3].iter().map(|t| (-1, t.clone())).collect();
        assert_eq!(sorted(cs[2].clone()), first_three);
        assert_eq!(cs[3], [(-1, pairs[3].clone())]);
    }

    /// One test-free `b` pattern read under three signatures (`[y]`,
    /// `[y u]`, `[]`) by five joins, one of them a not-node.
    const SHARED_B: &str = "(literalize a x z) (literalize b y u) (literalize c x)
         (p p1 (a ^x <v>) (b ^y <v>) --> (halt))
         (p p2 (a ^x <v> ^z <w>) (b ^y <v> ^u <w>) --> (halt))
         (p p3 (a ^x <v>) (b ^y <q>) --> (halt))
         (p p4 (a ^x <v>) - (b ^y <v>) --> (halt))
         (p p5 (c ^x <v>) (b ^y <v>) --> (halt))";

    #[test]
    fn a_wme_is_stored_once_per_signature_not_per_join() {
        let (mut prog, net) = net_of(SHARED_B);
        assert_eq!((net.n_joins(), net.right_mems.len()), (5, 3));
        let mut m = col(net);
        let b1 = ints(&mut prog, "b", &[1, 2], 1);
        m.submit(&ChangeBatch::single(change(Sign::Plus, b1.clone())));
        assert_eq!(m.memory_entries(), 3, "one row per signature");
        // No left memory is alive: all five readers retire unvisited.
        assert_eq!(m.stats().join_activations, 5);
        assert_eq!(m.stats().null_skipped, 5);
        assert_eq!(m.stats().same_searches_right, 0);
        m.submit(&ChangeBatch::single(change(Sign::Minus, b1)));
        assert_eq!(m.memory_entries(), 0);
        assert_eq!(m.stats().same_searches_right, 3, "one search per memory");
        assert!(m.quiesce().cs_changes.is_empty());

        let a1 = ints(&mut prog, "a", &[1, 2], 10);
        let a2 = ints(&mut prog, "a", &[3, 2], 11);
        let c1 = ints(&mut prog, "c", &[1], 12);
        let b12 = ints(&mut prog, "b", &[1, 2], 20);
        let b13 = ints(&mut prog, "b", &[1, 3], 21);
        let b32 = ints(&mut prog, "b", &[3, 2], 22);
        assert_agrees(
            SHARED_B,
            &[
                vec![
                    change(Sign::Plus, a1.clone()),
                    change(Sign::Plus, b12.clone()),
                ],
                vec![
                    change(Sign::Plus, b13.clone()),
                    change(Sign::Plus, c1.clone()),
                ],
                vec![change(Sign::Plus, a2.clone()), change(Sign::Minus, b12)],
                vec![change(Sign::Plus, b32.clone()), change(Sign::Minus, a1)],
                vec![change(Sign::Minus, b13), change(Sign::Minus, c1)],
                vec![change(Sign::Minus, a2), change(Sign::Minus, b32)],
            ],
        );
    }

    /// The relink case: `b`s arrive and leave while every reader's left
    /// memory is empty (no reader is run), then the token arrives, pairs
    /// with exactly the survivors, and leaves again.
    #[test]
    fn a_reader_that_comes_alive_late_scans_the_shared_memory() {
        let (mut prog, net) = net_of(SHARED_B);
        let bs: Vec<WmeRef> = (0..6)
            .map(|i| ints(&mut prog, "b", &[i % 2, 2], i as u64 + 1))
            .collect();
        let a = ints(&mut prog, "a", &[1, 2], 10);
        let cycles = [
            bs.iter().map(|w| change(Sign::Plus, w.clone())).collect(),
            vec![
                change(Sign::Minus, bs[1].clone()),
                change(Sign::Minus, bs[2].clone()),
            ],
            vec![change(Sign::Plus, a.clone())],
            vec![change(Sign::Minus, bs[3].clone())],
            vec![change(Sign::Minus, a.clone())],
            vec![change(Sign::Plus, bs[1].clone())],
            vec![change(Sign::Plus, a)],
        ];
        assert_agrees(SHARED_B, &cycles);
        let mut m = col(net);
        for cycle in &cycles[..2] {
            m.submit(&cycle.iter().cloned().collect());
        }
        let s = m.stats();
        assert_eq!(s.join_activations, 5 * 8);
        assert_eq!((s.null_skipped, s.null_activations), (5 * 8, 0));
        assert_eq!(s.opp_tokens_right + s.opp_nonempty_right, 0);
        m.submit(&cycles[2].iter().cloned().collect());
        // p1 and p2: b3 b5 each; p3: b0 b3 b4 b5; p4 stays blocked.
        assert_eq!(m.quiesce().cs_changes.len(), 8);
    }

    #[test]
    fn blocker_shared_by_a_not_node_and_a_positive_join() {
        let src = "(p pos (a ^x <v>) (b ^y <v>) --> (halt))
                   (p neg (a ^x <v>) - (b ^y <v>) --> (halt))";
        let (mut prog, net) = net_of(src);
        assert_eq!(net.right_mems.len(), 1);
        let wa = ints(&mut prog, "a", &[1], 1);
        let wb = ints(&mut prog, "b", &[1], 2);
        let wb2 = ints(&mut prog, "b", &[1], 3);
        assert_agrees(
            src,
            &[
                vec![
                    change(Sign::Plus, wb.clone()),
                    change(Sign::Plus, wa.clone()),
                ],
                vec![change(Sign::Minus, wb.clone())],
                vec![
                    change(Sign::Plus, wb.clone()),
                    change(Sign::Plus, wb2.clone()),
                ],
                vec![change(Sign::Minus, wb2)],
                vec![change(Sign::Minus, wa), change(Sign::Minus, wb)],
            ],
        );
    }
}
