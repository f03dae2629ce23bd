//! The set-at-a-time matcher — *col*.
//!
//! The paper's matchers (and vs1/vs2/`psm` here) are tuple-at-a-time Rete:
//! every WME change walks the network one token at a time, paying pointer
//! chases and per-activation bookkeeping per tuple. `ColMatcher` processes
//! the same [`ChangeBatch`] groups set-at-a-time instead. It is
//! [`rete::seq`](crate::seq)'s kernel — vs2's memories (one [`HashMem`],
//! the two global hash tables of §3.2, used only through [`TokenMem`]), the
//! linked reader lists, the counters and the node activations, kept
//! children included — under a schedule of its own, [`Sweep`]. The kernel
//! hands it a batch's retractions, then its assertions ([`crate::seq`]),
//! and each of the two sweeps, one sign each, runs two passes:
//!
//! * **Pattern-major alpha walk.** Per class group a sweep buckets its
//!   sign's changes by candidate pattern (the class's constant index,
//!   [`ClassPatterns::candidates`]) and walks the patterns ascending: per
//!   pattern it computes the passing subset once, applies it to each of the
//!   pattern's right memories, and runs *pass 1* — each right change's
//!   right activation against the reader's left line — for the linked
//!   readers only, reader by reader, each over the whole set (the order in
//!   which terminals reach the conflict set).
//! * **Bitset worklist.** Left activations (alpha tokens and join
//!   emissions) are queued per join, each under its key in the join's left
//!   memory, and the join is flagged in a bitset; terminals go straight to
//!   the conflict set. A single ascending sweep (*pass 2*) then runs each
//!   flagged join's queue against its settled right memory, so whether that
//!   memory is empty is read once per join. The compiler numbers successors
//!   after their predecessors, so an emission only sets a bit ahead of the
//!   cursor and every join has all its deltas when the sweep reaches it.
//!
//! Why the two passes count every (left, right) pair exactly once on shared
//! hash lines: the lines hold entries of many memories, but every operation
//! addresses one memory's entries by key and id, so what a pass sees is
//! what a private memory would hold. Right memories change only in the
//! alpha walk, left memories only in the sweep. Pass 1 runs during the walk
//! and so meets the *pre-sweep* left memories, and the linked lists, which
//! only the sweep updates, are frozen: the filter
//! `readers.filter(left_count != 0)` for every change of the set. Pass 2
//! runs after the walk and so meets the *post-sweep* right memories. A pair
//! whose right side changed is seen by pass 1 if its left side is old, by
//! pass 2 if its left side is new, and a pair whose right side left in this
//! sweep only by pass 1. A table that doubles between two operations is
//! invisible: callers hold keys, never line indices. Within one sweep the
//! net-delta emission is equivalent to the per-change cascade because
//! conjugate-pair annihilation makes WME re-entry impossible, so the
//! support of any instantiation changes monotonically inside a batch.
//!
//! **Kept children** (the activations' half is in [`crate::seq`]: where a
//! child is adopted and taken, and in which order a list leaves). Pass 1's
//! right activations adopt and take children, pass 2's left ones list and
//! send them, and each child is sent once, by the argument that counts each
//! pair once:
//!
//! * a child whose two halves arrive in one sweep is adopted once, by pass
//!   2: pass 1's right `+` walks the pre-sweep entries, which do not hold
//!   the new token, and pass 2's left `+` scans a memory the WME is in;
//! * a child whose two halves leave in one sweep is sent once, by pass 1's
//!   `take_child`: it leaves the list then, so the left `-` of pass 2 no
//!   longer holds it, as the rematch it replaces met a memory the WME had
//!   left;
//! * a pre-sweep token that gains a child in pass 1 and leaves in pass 2
//!   sends it once: the `+` went to the successor's queue in pass 1 and the
//!   `-` follows it from the list in pass 2, as the rematch of the settled
//!   memory found it (in an assertion sweep, a blocker's arrival above).
//!
//! A self-join WME that is both halves is the first case in an assertion
//! sweep and the second in a retraction sweep. A sweep stores one sign, so
//! the slot a removal frees goes to no entry before every reader has taken
//! the children made with it.
//!
//! The observable contract is the per-cycle conflict-set key history: the
//! differential suite holds it byte-identical to vs2 across the corpus.

use crate::memory::{HashMem, HashMemConfig, TokenMem};
use crate::network::{ClassPatterns, JoinId, Network, RightMemId};
use crate::seq::{fire, Kernel, Schedule, SeqMatcher};
use crate::token::Token;
use ops5::{ChangeBatch, CsChange, MatchStats, Matcher, ProdId, Sign, WmeChange};
use std::sync::Arc;

/// The set-at-a-time matcher: the sequential kernel over vs2's memories,
/// under col's schedule.
pub type ColMatcher = SeqMatcher<HashMem, Sweep>;

/// col's schedule (module docs): per-join queues of left activations,
/// swept ascending once the alpha walk is over.
pub struct Sweep {
    /// Signed per-join left-input deltas for the current sweep, each with
    /// its key in the join's left memory: alpha-produced 1-WME tokens and
    /// upstream join emissions, in emission order. Right (alpha) deltas are
    /// not queued — they are processed eagerly during the alpha walk, which
    /// sees the identical pre-sweep left memories pass 1 requires.
    left_deltas: Vec<Vec<(Sign, Token, u64)>>,
    /// Worklist of joins with pending deltas: one bit per join id, walked
    /// ascending via `trailing_zeros`. Submits never pay for the hundreds
    /// of joins a small batch doesn't touch, and marking is a branch-free
    /// word OR.
    dirty: Vec<u64>,
    /// Scratch of the alpha walk, kept across submits so a small batch
    /// does not pay for it.
    alpha: AlphaScratch,
    /// The entries one right memory gave a pattern's passing set: key and,
    /// for a `-`, the slot it left, by which each reader takes its children.
    stored: Vec<(u64, u32)>,
}

/// Scratch of one class group's alpha walk.
#[derive(Default)]
struct AlphaScratch {
    /// `(pattern << 32) | change index` of every (change, candidate
    /// pattern) pair of the group; sorted, the pattern-major sweep order.
    candidates: Vec<u64>,
    /// Indices of the group's changes passing the pattern in hand.
    passing: Vec<u32>,
    /// One 1-WME token per change of the group, shared across every first
    /// join it feeds.
    singles: Vec<Option<Token>>,
}

impl ColMatcher {
    pub fn new(net: Arc<Network>) -> ColMatcher {
        let n = net.n_joins();
        let sweep = Sweep {
            left_deltas: (0..n).map(|_| Vec::new()).collect(),
            dirty: vec![0u64; n.div_ceil(64)],
            alpha: AlphaScratch::default(),
            stored: Vec::new(),
        };
        let mem = HashMem::new(HashMemConfig::default(), &net);
        SeqMatcher::with(net, mem, sweep)
    }
}

/// Factory helper returning a boxed matcher (table-driven harnesses).
pub fn boxed_col(net: Arc<Network>) -> Box<dyn Matcher> {
    Box::new(ColMatcher::new(net))
}

impl Schedule for Sweep {
    fn name<M: TokenMem>(_: &M) -> &'static str {
        "col"
    }

    /// Queues a left delta on join `join` under `key` and flags `join`.
    #[inline]
    fn left(&mut self, join: JoinId, sign: Sign, token: Token, key: u64) {
        self.left_deltas[join as usize].push((sign, token, key));
        self.dirty[(join >> 6) as usize] |= 1u64 << (join & 63);
    }

    #[inline]
    fn terminal(
        &mut self,
        prod: ProdId,
        sign: Sign,
        token: Token,
        out: &mut Vec<CsChange>,
        stats: &mut MatchStats,
    ) {
        fire(out, stats, prod, sign, token);
    }

    fn submit<M: TokenMem>(
        k: &mut Kernel<M, Sweep>,
        net: &Network,
        batch: &ChangeBatch,
        sign: Sign,
    ) {
        // Alpha network, the sign's whole set, pattern-major: each right
        // memory and each successor consumes a pattern's passing set while
        // its state is cache-hot. Right deltas run pass 1 in place; left
        // deltas and emissions queue on their join for the pass-2 sweep, in
        // submission order per join (interleaving across joins is not
        // observable once folded).
        let mut alpha = std::mem::take(&mut k.sched.alpha);
        for (class, group) in batch.groups() {
            if let Some(patterns) = net.class_patterns(class) {
                k.alpha_group(net, patterns, group, sign, &mut alpha);
            }
        }
        k.sched.alpha = alpha;
        k.drain(net);
    }

    fn is_idle(&self) -> bool {
        self.left_deltas.iter().all(Vec::is_empty)
    }
}

impl<M: TokenMem> Kernel<M, Sweep> {
    /// The alpha walk of one class group's changes of sign `sign`. Each
    /// asks the class's constant index for its candidate patterns; the
    /// (pattern, change) pairs, sorted, are the pattern-major sweep:
    /// patterns ascending, each running its test list on its candidate
    /// changes only, in submission order.
    fn alpha_group(
        &mut self,
        net: &Network,
        patterns: &ClassPatterns,
        group: &[WmeChange],
        sign: Sign,
        scratch: &mut AlphaScratch,
    ) {
        let AlphaScratch {
            candidates,
            passing,
            singles,
        } = scratch;
        candidates.clear();
        for (ci, change) in group.iter().enumerate().filter(|(_, c)| c.sign == sign) {
            debug_assert!(
                net.index_covers(&change.wme),
                "alpha index dropped a pattern"
            );
            let of = patterns.candidates(&change.wme);
            candidates.extend(of.map(|pid| (pid as u64) << 32 | ci as u64));
        }
        candidates.sort_unstable();
        singles.clear();
        singles.resize(group.len(), None);
        for of_pattern in candidates.chunk_by(|a, b| a >> 32 == b >> 32) {
            let pat = net.pattern((of_pattern[0] >> 32) as u32);
            passing.clear();
            for &pair in of_pattern {
                let ci = pair as u32;
                if pat.passes(&group[ci as usize].wme, &mut self.tally.stats.alpha_tests) {
                    passing.push(ci);
                }
            }
            if passing.is_empty() {
                continue;
            }
            for &mem in &pat.right_mems {
                self.right_group(net, mem, group, passing, sign);
            }
            for succ in pat.succs.iter().filter_map(|s| s.left_input()) {
                for &ci in passing.iter() {
                    let wme = &group[ci as usize].wme;
                    let t = singles[ci as usize].get_or_insert_with(|| Token::single(wme.clone()));
                    self.emit(net, succ, sign, t.clone());
                }
            }
        }
        // The tokens go where they were sent; the scratch keeps no handle.
        singles.clear();
    }

    /// A pattern's passing set against one of its right memories: apply
    /// every change to the memory once, then run pass 1 for each reader
    /// linked to it over the whole set. The left memories — and with them
    /// the linked lists, which only the sweep updates — are frozen for the
    /// entire alpha walk, so the list read here is the filter
    /// `readers.filter(left_count != 0)` for every change of the set: same
    /// readers, same ascending order. A dead reader is not looked at; the
    /// dead are retired by count.
    fn right_group(
        &mut self,
        net: &Network,
        mem: RightMemId,
        group: &[WmeChange],
        passing: &[u32],
        sign: Sign,
    ) {
        let linked = self.book_readers(net, mem, passing.len() as u64);
        let mut stored = std::mem::take(&mut self.sched.stored);
        for &ci in passing {
            let wme = &group[ci as usize].wme;
            debug_assert_eq!(group[ci as usize].sign, sign, "a sweep applies one sign");
            stored.push(self.store(net, mem, wme, sign));
        }
        // Pass 1 mutates no left memory's population, so the list cannot
        // change under the loops; indexing keeps `self` free for the calls.
        for i in 0..linked {
            let j = net.join(self.linked.of(mem)[i]);
            for (&ci, &(key, slot)) in passing.iter().zip(&stored) {
                let wme = &group[ci as usize].wme;
                self.right_activation(net, j, wme, sign, key, slot);
            }
        }
        stored.clear();
        self.sched.stored = stored;
    }

    /// One forward sweep over the dirty joins in ascending id order
    /// (topological, so every join's delta set is complete when the sweep
    /// reaches it; emissions only set bits ahead of the cursor, so
    /// re-reading the current word after a join picks them up).
    fn drain(&mut self, net: &Network) {
        let mut wi = 0;
        while wi < self.sched.dirty.len() {
            let word = self.sched.dirty[wi];
            if word == 0 {
                wi += 1;
                continue;
            }
            let bit = word.trailing_zeros() as usize;
            self.sched.dirty[wi] &= !(1u64 << bit);
            self.process_join(net, wi * 64 + bit);
        }
    }

    /// Pass 2: the join's accumulated left deltas (alpha 1-WME tokens and
    /// upstream emissions), in emission order, each a left activation
    /// against the post-sweep (settled) right memory it shares.
    fn process_join(&mut self, net: &Network, jid: usize) {
        let j = net.join(jid as JoinId);
        let mut deltas = std::mem::take(&mut self.sched.left_deltas[jid]);
        // The sweep never mutates right memories, so emptiness is invariant
        // across every delta queued for this join.
        let opp_empty = self.mem.right_count(j.right_mem) == 0;
        self.tally.join_activations(j.id, deltas.len() as u64);
        for (sign, t, key) in deltas.drain(..) {
            self.left_activation(net, j, sign, t, key, opp_empty);
        }
        self.sched.left_deltas[jid] = deltas;
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::seq::boxed_vs2;
    use crate::Succ;
    use ops5::{Program, Sign, Value, Wme, WmeChange, WmeRef};

    fn net_of(src: &str) -> (Program, Arc<Network>) {
        let prog = Program::from_source(src).unwrap();
        let net = Arc::new(Network::compile(&prog).unwrap());
        (prog, net)
    }

    fn wme(prog: &mut Program, class: &str, vals: Vec<Value>, tag: u64) -> WmeRef {
        let c = prog.symbols.intern(class);
        Wme::new(c, vals, tag)
    }

    fn change(sign: Sign, wme: WmeRef) -> WmeChange {
        WmeChange { sign, wme }
    }

    /// Sorted conflict-set keys after folding one quiesce's deltas, for
    /// col-vs-vs2 equivalence checks.
    fn fold_keys(
        state: &mut std::collections::BTreeSet<(u32, Vec<u64>)>,
        cs: Vec<CsChange>,
    ) -> Vec<(u32, Vec<u64>)> {
        for c in cs {
            match c {
                CsChange::Insert(i) => {
                    let (p, tags) = i.key();
                    state.insert((p.0, tags));
                }
                CsChange::Remove(i) => {
                    let (p, tags) = i.key();
                    state.remove(&(p.0, tags));
                }
            }
        }
        state.iter().cloned().collect()
    }

    /// Drive col and vs2 through the same per-cycle batches and assert the
    /// folded conflict sets agree after every quiesce.
    fn assert_agrees(src: &str, cycles: &[Vec<WmeChange>]) {
        let (_prog, net) = net_of(src);
        let mut col = ColMatcher::new(net.clone());
        let mut vs2 = boxed_vs2(net, crate::memory::HashMemConfig { buckets: 16 });
        let mut col_state = std::collections::BTreeSet::new();
        let mut vs2_state = std::collections::BTreeSet::new();
        for (i, cycle) in cycles.iter().enumerate() {
            let batch: ChangeBatch = cycle.iter().cloned().collect();
            col.submit(&batch);
            vs2.submit(&batch);
            let a = fold_keys(&mut col_state, col.quiesce().cs_changes);
            let b = fold_keys(&mut vs2_state, vs2.quiesce().cs_changes);
            assert_eq!(a, b, "cycle {i} diverged");
        }
    }

    #[test]
    fn two_ce_join_fires_batched() {
        let src = "(p q (a ^x <v>) (b ^y <v>) --> (halt))";
        let (mut prog, _net) = net_of(src);
        let wa = wme(&mut prog, "a", vec![Value::Int(1)], 1);
        let wb = wme(&mut prog, "b", vec![Value::Int(1)], 2);
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
        let mut cycles = Vec::new();
        let mut adds = Vec::new();
        for i in 0..3 {
            adds.push(change(
                Sign::Plus,
                wme(&mut prog, "a", vec![Value::Int(i)], i as u64 + 1),
            ));
        }
        for i in 0..4 {
            adds.push(change(
                Sign::Plus,
                wme(&mut prog, "b", vec![Value::Int(i)], i as u64 + 10),
            ));
        }
        cycles.push(adds);
        cycles.push(vec![change(
            Sign::Minus,
            wme(&mut prog, "a", vec![Value::Int(0)], 1),
        )]);
        assert_agrees(src, &cycles);
    }

    #[test]
    fn negated_ce_blocks_and_unblocks_batched() {
        let src = "(p q (a ^x <v>) - (b ^y <v>) --> (halt))";
        let (mut prog, _net) = net_of(src);
        let wa = wme(&mut prog, "a", vec![Value::Int(1)], 1);
        let wb = wme(&mut prog, "b", vec![Value::Int(1)], 2);
        let wb2 = wme(&mut prog, "b", vec![Value::Int(1)], 3);
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
        let wa = wme(&mut prog, "a", vec![Value::Int(1)], 1);
        let wb = wme(&mut prog, "b", vec![Value::Int(1)], 2);
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
        let wa = wme(&mut prog, "a", vec![Value::Int(1)], 1);
        let wb = wme(&mut prog, "b", vec![Value::Int(1), Value::Int(9)], 2);
        let wc = wme(&mut prog, "c", vec![Value::Int(9)], 3);
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

    #[test]
    fn double_delete_of_a_pair_emits_once() {
        // Both sides of a matched pair deleted in one batch: the Remove
        // must be emitted exactly once (pass 1 sees it, pass 2 must not).
        let src = "(p q (a ^x <v>) (b ^y <v>) --> (halt))";
        let (mut prog, net) = net_of(src);
        let wa = wme(&mut prog, "a", vec![Value::Int(1)], 1);
        let wb = wme(&mut prog, "b", vec![Value::Int(1)], 2);
        let mut m = ColMatcher::new(net);
        let b: ChangeBatch = [
            change(Sign::Plus, wa.clone()),
            change(Sign::Plus, wb.clone()),
        ]
        .into_iter()
        .collect();
        m.submit(&b);
        assert_eq!(m.quiesce().cs_changes.len(), 1);
        let b: ChangeBatch = [change(Sign::Minus, wa), change(Sign::Minus, wb)]
            .into_iter()
            .collect();
        m.submit(&b);
        let cs = m.quiesce().cs_changes;
        assert_eq!(cs.len(), 1, "exactly one Remove: {cs:?}");
        assert!(matches!(cs[0], CsChange::Remove(_)));
        assert_eq!(m.memory_entries(), 0);
    }

    /// `a ⋈ b` feeds `(a b) ⋈ c` and nothing else, so J0's children are
    /// J1's left tokens; J1's are instantiations.
    const KEEPING: &str = "(literalize a x) (literalize b y z) (literalize c u)
         (p q (a ^x <v>) (b ^y <v> ^z <w>) (c ^u <w>) --> (halt))";

    /// `cycles` through col against vs2 ([`assert_agrees`]), then col's raw
    /// conflict-set changes per cycle, as (+1 | -1, timetags).
    fn cs_of(src: &str, cycles: &[Vec<WmeChange>]) -> Vec<Vec<(i8, Vec<u64>)>> {
        assert_agrees(src, cycles);
        let (_prog, net) = net_of(src);
        assert_eq!(net.join(0).succs, [Succ::Join(1)]);
        let mut m = ColMatcher::new(net);
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

    fn ints(prog: &mut Program, class: &str, vals: &[i64], tag: u64) -> WmeRef {
        wme(
            prog,
            class,
            vals.iter().map(|&v| Value::Int(v)).collect(),
            tag,
        )
    }

    /// Kept children, batch case 1: `+a1` and `+b` in one batch. Pass 1's
    /// `+b` walks J0's pre-batch entries (`a0`, linking J0, pairs with
    /// nothing), which do not hold `a1`; pass 2's `+a1` finds `b` and adopts
    /// `(a1, b)`. Adopted twice, `-a1` would send two `-`s and J1's second
    /// delete search would fail.
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

    /// Kept children, batch case 2: `-a1` and `-b` in one batch, in either
    /// order. Pass 1's `-b` takes `(a1, b)` out of `a1`'s list, so pass 2's
    /// `-a1` sends only `(a1, b2)`: each child once.
    #[test]
    fn a_child_whose_halves_leave_in_one_batch_is_sent_once() {
        let (mut prog, _net) = net_of(KEEPING);
        let a1 = ints(&mut prog, "a", &[1], 1);
        let b = ints(&mut prog, "b", &[1, 9], 2);
        let b2 = ints(&mut prog, "b", &[1, 9], 3);
        let c = ints(&mut prog, "c", &[9], 4);
        let build = vec![
            change(Sign::Plus, a1.clone()),
            change(Sign::Plus, b.clone()),
            change(Sign::Plus, b2.clone()),
            change(Sign::Plus, c.clone()),
        ];
        let leave = [change(Sign::Minus, a1), change(Sign::Minus, b)];
        for order in [leave.to_vec(), leave.iter().rev().cloned().collect()] {
            let cs = cs_of(
                KEEPING,
                &[
                    build.clone(),
                    order,
                    vec![
                        change(Sign::Minus, b2.clone()),
                        change(Sign::Minus, c.clone()),
                    ],
                ],
            );
            assert_eq!(cs[0].len(), 2);
            let mut gone = cs[1].clone();
            gone.sort();
            assert_eq!(gone, [(-1, vec![1, 2, 4]), (-1, vec![1, 3, 4])]);
            assert!(cs[2].is_empty());
        }
    }

    /// [`KEEPING`] below a not-node: J0 is `- (n ^x <v>)`, J1 `⋈ b` keeps
    /// its children for J2 `⋈ c`. A blocker's `+` sends a pre-batch token's
    /// `-` down from pass 1 of an assertion sweep.
    const BLOCKED: &str = "(literalize a x) (literalize n x) (literalize b y z)
         (literalize c u)
         (p q (a ^x <v>) - (n ^x <v>) (b ^y <v> ^z <w>) (c ^u <w>) --> (halt))";

    /// Kept children, batch case 3: a pre-batch token gains a child in pass
    /// 1 and leaves in pass 2 of one sweep. `+b` and `-a1` in one batch no
    /// longer reach it: the retraction sweep takes `a1` out before the
    /// assertion sweep stores `b`, and nothing is built. A blocker still
    /// does: `+b` and `+n` are one assertion sweep, pass 1's `+b` gives `a1`
    /// the child `(a1, b)` at J1 and sends the `+`, pass 1's `+n` blocks
    /// `a1` at J0, and pass 2's `-a1` at J1 sends the `-` from its list,
    /// once.
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
    /// left, `a ^y` on its right. `+w1 +w2` in one batch make all four pairs
    /// in pass 2 (pass 1 walks only `w0`, which pairs with neither); `-w1`
    /// takes `(w1, w1)` and `(w2, w1)` in pass 1 and sends the rest of
    /// `w1`'s list, `(w1, w2)`, in pass 2: each once.
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
        assert_eq!(
            sorted(cs[2].clone()),
            pairs[..3]
                .iter()
                .map(|t| (-1, t.clone()))
                .collect::<Vec<_>>()
        );
        assert_eq!(cs[3], [(-1, pairs[3].clone())]);
    }

    /// A removal frees its right entry's slot, and the next entry a child is
    /// joined with may be given it. `+b2` comes before `-b1` in one group,
    /// and `a1` pairs with both: `b2` must not get `b1`'s slot while `a1`
    /// still holds `(a1, b1)`, or `-b1` takes `(a1, b2)` in its place. The
    /// retraction sweep takes `(a1, b1)` before the assertion sweep stores
    /// `b2`, so the slot is free by then.
    #[test]
    fn a_slot_a_removal_frees_is_not_given_out_before_its_child_leaves() {
        let (mut prog, _net) = net_of(KEEPING);
        let a1 = ints(&mut prog, "a", &[1], 1);
        let b1 = ints(&mut prog, "b", &[1, 9], 2);
        let c = ints(&mut prog, "c", &[9], 3);
        let b2 = ints(&mut prog, "b", &[1, 9], 4);
        let cs = cs_of(
            KEEPING,
            &[
                vec![
                    change(Sign::Plus, a1.clone()),
                    change(Sign::Plus, b1.clone()),
                    change(Sign::Plus, c.clone()),
                ],
                vec![change(Sign::Plus, b2.clone()), change(Sign::Minus, b1)],
                vec![change(Sign::Minus, a1)],
                vec![change(Sign::Minus, b2), change(Sign::Minus, c)],
            ],
        );
        assert_eq!(
            cs,
            [
                vec![(1, vec![1, 2, 3])],
                vec![(-1, vec![1, 2, 3]), (1, vec![1, 4, 3])],
                vec![(-1, vec![1, 4, 3])],
                vec![],
            ]
        );
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
        let mut m = ColMatcher::new(net);
        let b1 = wme(&mut prog, "b", vec![Value::Int(1), Value::Int(2)], 1);
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

        let b =
            |prog: &mut Program, y, u, tag| wme(prog, "b", vec![Value::Int(y), Value::Int(u)], tag);
        let a1 = wme(&mut prog, "a", vec![Value::Int(1), Value::Int(2)], 10);
        let a2 = wme(&mut prog, "a", vec![Value::Int(3), Value::Int(2)], 11);
        let c1 = wme(&mut prog, "c", vec![Value::Int(1)], 12);
        let (b12, b13, b32) = (
            b(&mut prog, 1, 2, 20),
            b(&mut prog, 1, 3, 21),
            b(&mut prog, 3, 2, 22),
        );
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
                vec![
                    change(Sign::Plus, a2.clone()),
                    change(Sign::Minus, b12.clone()),
                ],
                vec![change(Sign::Plus, b32.clone()), change(Sign::Minus, a1)],
                vec![change(Sign::Minus, b13), change(Sign::Minus, c1)],
                vec![change(Sign::Minus, a2), change(Sign::Minus, b32)],
            ],
        );
    }

    #[test]
    fn a_reader_that_comes_alive_late_scans_the_shared_memory() {
        // The relink case: `b`s arrive and leave while every reader's left
        // memory is empty (no reader is run), then the token arrives, pairs
        // with exactly the survivors, and leaves again.
        let (mut prog, net) = net_of(SHARED_B);
        let bs: Vec<WmeRef> = (0..6)
            .map(|i| {
                wme(
                    &mut prog,
                    "b",
                    vec![Value::Int(i % 2), Value::Int(2)],
                    i as u64 + 1,
                )
            })
            .collect();
        let a = wme(&mut prog, "a", vec![Value::Int(1), Value::Int(2)], 10);
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
        let mut m = ColMatcher::new(net);
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

    /// A reader goes dead → live → dead inside one batch. `[+b, +c, -a]`
    /// no longer takes J1 there: the retraction sweep empties J0 before
    /// anything is built, and `+b` and `+c` meet dead readers. One sign per
    /// sweep leaves it to a blocker ([`BLOCKED`]): in `[+b, +c, +n]` pass 1
    /// reads the frozen pre-batch lists (`+b` finds J1 live and gives `a`
    /// the child `(a, b)`; `+c` finds J2 dead and is right, the token it
    /// could pair with arrives in pass 2, which scans the settled memory;
    /// `+n` blocks `a` at J0), and pass 2 links J2 for `+(a, b)` and
    /// unlinks it for `-(a, b)` in one `process_join`, so the next batch's
    /// `+c` looks at nobody.
    #[test]
    fn a_reader_goes_dead_live_dead_inside_one_batch() {
        let src = "(p q (a ^x <v>) (b ^y <v>) (c ^z <v>) --> (halt))";
        let (mut prog, net) = net_of(src);
        assert_eq!((net.n_joins(), net.right_mems.len()), (2, 2));
        let mut w = |class, tag| wme(&mut prog, class, vec![Value::Int(1)], tag);
        let (a1, b1, c1) = (w("a", 1), w("b", 2), w("c", 3));
        let cycles = [
            vec![change(Sign::Plus, a1.clone())],
            vec![
                change(Sign::Plus, b1.clone()),
                change(Sign::Plus, c1.clone()),
                change(Sign::Minus, a1),
            ],
            [b1, c1].map(|w| change(Sign::Minus, w)).to_vec(),
        ];
        assert_agrees(src, &cycles);
        let mut m = ColMatcher::new(net);
        m.submit(&cycles[0].iter().cloned().collect());
        assert_eq!(m.linked_readers(), [vec![0], vec![]]);
        m.submit(&cycles[1].iter().cloned().collect());
        assert!(m.quiesce().cs_changes.is_empty());
        assert_eq!(m.linked_readers(), [vec![], vec![]]);
        let s = m.stats();
        assert_eq!((s.readers_visited, s.null_skipped), (0, 2));

        let (mut prog, net) = net_of(BLOCKED);
        let a = ints(&mut prog, "a", &[1], 1);
        let b = ints(&mut prog, "b", &[1, 9], 2);
        let c = ints(&mut prog, "c", &[9], 3);
        let n = ints(&mut prog, "n", &[1], 4);
        let c2 = ints(&mut prog, "c", &[9], 5);
        let cycles = [
            vec![change(Sign::Plus, a.clone())],
            [&b, &c, &n].map(|w| change(Sign::Plus, w.clone())).to_vec(),
            vec![change(Sign::Plus, c2.clone())],
            [a, b, c, n, c2].map(|w| change(Sign::Minus, w)).to_vec(),
        ];
        assert_agrees(BLOCKED, &cycles);
        let mut m = ColMatcher::new(net);
        m.submit(&cycles[0].iter().cloned().collect());
        m.submit(&cycles[1].iter().cloned().collect());
        let cs = m.quiesce().cs_changes;
        assert!(
            matches!(&cs[..], [CsChange::Insert(i), CsChange::Remove(r)]
                if i.key() == r.key() && i.wmes.len() == 3),
            "+(a, b, c) then -(a, b, c): {cs:?}"
        );
        let live = crate::readers::live_readers(m.network(), |j| m.left_entries(j) != 0);
        assert_eq!(m.linked_readers(), live);
        assert_eq!(m.left_entries(2), 0);
        // J1 ran for `+b`, J0 for `+n`; `+c` met J2 dead, in this batch and
        // the next.
        let s = m.stats();
        assert_eq!((s.readers_visited, s.null_skipped), (2, 1));
        m.submit(&cycles[2].iter().cloned().collect());
        let s = m.stats();
        assert_eq!((s.readers_visited, s.null_skipped), (2, 2));
        assert!(m.quiesce().cs_changes.is_empty());
    }

    #[test]
    fn blocker_shared_by_a_not_node_and_a_positive_join() {
        let src = "(p pos (a ^x <v>) (b ^y <v>) --> (halt))
                   (p neg (a ^x <v>) - (b ^y <v>) --> (halt))";
        let (mut prog, net) = net_of(src);
        assert_eq!(net.right_mems.len(), 1);
        let wa = wme(&mut prog, "a", vec![Value::Int(1)], 1);
        let wb = wme(&mut prog, "b", vec![Value::Int(1)], 2);
        let wb2 = wme(&mut prog, "b", vec![Value::Int(1)], 3);
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

    /// The unlinking option moves no counter of col's: a left activation
    /// whose right memory is empty is booked as a null activation, on or
    /// off, and a right change never runs a reader whose left memory is
    /// empty, option or not.
    #[test]
    fn unlinking_moves_no_counter() {
        let src = "(p q (a ^x <v>) (b ^y <v>) --> (halt))";
        let mut prog = Program::from_source(src).unwrap();
        let wa = wme(&mut prog, "a", vec![Value::Int(1)], 1);
        let wb = wme(&mut prog, "b", vec![Value::Int(1)], 2);
        let stats = [false, true].map(|unlinking| {
            let options = crate::network::NetworkOptions {
                unlinking,
                ..Default::default()
            };
            let net = Arc::new(Network::compile_with(&prog, options).unwrap());
            let mut m = ColMatcher::new(net);
            // `+a` meets an empty `b` memory: a left null.
            m.submit(&ChangeBatch::single(change(Sign::Plus, wa.clone())));
            assert!(m.quiesce().cs_changes.is_empty());
            let s = m.stats();
            assert_eq!((s.null_activations, s.null_skipped), (1, 0));
            // `-a` leaves J0 dead, `+b` retires it unvisited, `+a` finds `b`.
            m.submit(&ChangeBatch::single(change(Sign::Minus, wa.clone())));
            m.submit(&ChangeBatch::single(change(Sign::Plus, wb.clone())));
            m.submit(&ChangeBatch::single(change(Sign::Plus, wa.clone())));
            assert_eq!(m.quiesce().cs_changes.len(), 1, "the pair is found");
            m.stats()
        });
        assert_eq!(stats[0], stats[1]);
        assert_eq!((stats[0].null_activations, stats[0].null_skipped), (2, 1));
    }

    #[test]
    fn obs_profile_reconciles_with_stats() {
        let src = "(p q (a ^x <v>) (b ^y <v>) --> (halt))";
        let (mut prog, net) = net_of(src);
        let mut m = ColMatcher::new(net);
        let reg = Arc::new(obs::Registry::new());
        m.enable_obs(&reg);
        let mut b = ChangeBatch::new();
        for i in 0..8 {
            b.push(change(
                Sign::Plus,
                wme(&mut prog, "a", vec![Value::Int(i % 3)], i as u64 + 1),
            ));
            b.push(change(
                Sign::Plus,
                wme(&mut prog, "b", vec![Value::Int(i % 3)], i as u64 + 100),
            ));
        }
        m.submit(&b);
        m.quiesce();
        let p = m.node_profile().unwrap();
        let s = m.stats();
        assert_eq!(p.total_activations(), s.join_activations);
        assert_eq!(p.total_scanned(), s.opp_tokens_left + s.opp_tokens_right);
    }
}
