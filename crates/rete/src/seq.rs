//! The sequential matcher — the paper's uniprocessor C implementations.
//!
//! `SeqMatcher<ListMem>` is *vs1*, `SeqMatcher<HashMem>` is *vs2*
//! (Table 4-1). Node activations are processed depth-first off an explicit
//! stack; each activation updates the memories and schedules successor
//! activations, exactly the task structure the parallel matcher distributes
//! across match processes.

use crate::memory::{HashMem, HashMemConfig, ListMem, ScanStats, TokenMem};
use crate::network::{AlphaSucc, JoinId, Network, Succ};
use crate::token::Token;
use ops5::{
    ChangeBatch, CsChange, Instantiation, MatchStats, Matcher, ProdId, QuiesceReport, Sign,
    StatsDeltaTracker, WmeRef,
};
use std::sync::Arc;

/// One schedulable unit of match work (§3.1: a node activation).
#[derive(Debug, Clone)]
pub enum Task {
    Left {
        join: JoinId,
        sign: Sign,
        token: Token,
    },
    Right {
        join: JoinId,
        sign: Sign,
        wme: WmeRef,
    },
    Terminal {
        prod: ProdId,
        sign: Sign,
        token: Token,
    },
}

/// Locally-buffered per-join profile. The hot path does plain `u64`
/// increments; the buffered counts fold into the shared atomic
/// [`obs::NodeProfile`] once per quiesce. On null-activation-dominated
/// workloads an activation does so little work that even one relaxed RMW
/// per record costs several percent of wall, and the sequential matcher
/// has no concurrent readers mid-cycle to serve.
struct BufferedProfile {
    shared: Arc<obs::NodeProfile>,
    acts: Vec<u64>,
    scans: Vec<u64>,
}

impl BufferedProfile {
    fn new(n_joins: usize) -> BufferedProfile {
        BufferedProfile {
            shared: Arc::new(obs::NodeProfile::new(n_joins)),
            acts: vec![0; n_joins],
            scans: vec![0; n_joins],
        }
    }

    #[inline]
    fn record_activation(&mut self, join: usize) {
        self.acts[join] += 1;
    }

    #[inline]
    fn record_scan(&mut self, join: usize, examined: u64) {
        self.scans[join] += examined;
    }

    fn flush(&mut self) {
        for (join, n) in self.acts.iter_mut().enumerate() {
            if *n != 0 {
                self.shared.record_activations(join, *n);
                *n = 0;
            }
        }
        for (join, n) in self.scans.iter_mut().enumerate() {
            if *n != 0 {
                self.shared.record_scan(join, *n);
                *n = 0;
            }
        }
    }
}

/// What the kernel counts: [`MatchStats`] plus the optional per-join
/// profile. One field of the matcher, so an activation can book its work
/// while it holds a node borrowed from `net`.
struct Tally {
    stats: MatchStats,
    /// `None` (the default) keeps the hot path free of recording.
    profile: Option<BufferedProfile>,
}

impl Tally {
    #[inline]
    fn join_activation(&mut self, join: JoinId) {
        self.stats.activations += 1;
        self.stats.join_activations += 1;
        if let Some(p) = &mut self.profile {
            p.record_activation(join as usize);
        }
    }

    /// An activation whose opposite memory is empty network-wide: the scan
    /// would examine nothing and emit nothing, so none is made. `unlinking`
    /// only selects which counter the activation lands in.
    #[inline]
    fn null(&mut self, unlinking: bool) {
        if unlinking {
            self.stats.null_skipped += 1;
        } else {
            self.stats.null_activations += 1;
        }
    }

    /// A left activation's scan of the right memory.
    #[inline]
    fn scan_from_left(&mut self, join: JoinId, scan: ScanStats) {
        self.stats.opp_tokens_left += scan.examined;
        self.stats.opp_nonempty_left += scan.nonempty as u64;
        if let Some(p) = &mut self.profile {
            p.record_scan(join as usize, scan.examined);
        }
    }

    /// A right activation's scan of the left memory.
    #[inline]
    fn scan_from_right(&mut self, join: JoinId, scan: ScanStats) {
        self.stats.opp_tokens_right += scan.examined;
        self.stats.opp_nonempty_right += scan.nonempty as u64;
        if let Some(p) = &mut self.profile {
            p.record_scan(join as usize, scan.examined);
        }
    }
}

/// Sequential Rete matcher over a pluggable memory implementation.
pub struct SeqMatcher<M: TokenMem> {
    net: Arc<Network>,
    mem: M,
    agenda: Vec<Task>,
    out: Vec<CsChange>,
    tally: Tally,
    delta: StatsDeltaTracker,
    /// Reusable scan buffers: a steady-state activation allocates nothing.
    scratch_wmes: Vec<WmeRef>,
    scratch_tokens: Vec<Token>,
}

impl<M: TokenMem> SeqMatcher<M> {
    fn over(net: Arc<Network>, mem: M) -> Self {
        SeqMatcher {
            net,
            mem,
            agenda: Vec::new(),
            out: Vec::new(),
            tally: Tally {
                stats: MatchStats::default(),
                profile: None,
            },
            delta: StatsDeltaTracker::default(),
            scratch_wmes: Vec::new(),
            scratch_tokens: Vec::new(),
        }
    }
}

impl SeqMatcher<ListMem> {
    /// vs1: linear-list memories.
    pub fn vs1(net: Arc<Network>) -> Self {
        let mem = ListMem::new(net.n_joins());
        SeqMatcher::over(net, mem)
    }
}

impl SeqMatcher<HashMem> {
    /// vs2: global hash-table memories.
    pub fn vs2(net: Arc<Network>, cfg: HashMemConfig) -> Self {
        let mem = HashMem::new(cfg, net.n_joins());
        SeqMatcher::over(net, mem)
    }
}

/// Factory helpers returning boxed matchers (for table-driven harnesses).
pub fn boxed_vs1(net: Arc<Network>) -> Box<dyn Matcher> {
    Box::new(SeqMatcher::vs1(net))
}

pub fn boxed_vs2(net: Arc<Network>, cfg: HashMemConfig) -> Box<dyn Matcher> {
    Box::new(SeqMatcher::vs2(net, cfg))
}

/// Schedules a join output to every successor (free function so scan-buffer
/// drains can push while the buffer is borrowed from `self`). With sharing
/// off every join has exactly one successor; with it on a shared join fans
/// the token out to each consumer (token clones are `Arc` bumps).
fn push_succs(agenda: &mut Vec<Task>, succs: &[Succ], token: &Token, sign: Sign) {
    for succ in succs {
        match *succ {
            Succ::Join(j) => agenda.push(Task::Left {
                join: j,
                sign,
                token: token.clone(),
            }),
            Succ::Terminal(p) => agenda.push(Task::Terminal {
                prod: p,
                sign,
                token: token.clone(),
            }),
        }
    }
}

impl<M: TokenMem + Send> SeqMatcher<M> {
    /// One node activation. The node is borrowed from the shared network
    /// for the whole activation — `net`, `mem`, `agenda`, `tally` and the
    /// scratch buffers are disjoint fields — and nothing here allocates
    /// beyond what the memories and the agenda have to keep.
    fn run_task(&mut self, task: Task) {
        let unlinking = self.net.options.unlinking;
        match task {
            Task::Left { join, sign, token } => {
                self.tally.join_activation(join);
                let j = self.net.join(join);
                // One key per activation: the same key addresses the remove
                // or insert and the opposite-memory scan.
                let key = self.mem.left_key(j, &token);
                let opp_empty = self.mem.right_count(j) == 0;
                match (j.negated, sign) {
                    (false, _) => {
                        match sign {
                            Sign::Plus => self.mem.insert_left(j, key, token.clone(), 0),
                            Sign::Minus => {
                                let r = self.mem.remove_left(j, key, &token);
                                self.tally.stats.same_tokens_left += r.examined;
                                self.tally.stats.same_searches_left += 1;
                                debug_assert!(
                                    r.entry.is_some(),
                                    "sequential delete must find its token"
                                );
                            }
                        }
                        if opp_empty {
                            self.tally.null(unlinking);
                        } else {
                            let scan = self.mem.scan_right(j, key, &token, &mut self.scratch_wmes);
                            self.tally.scan_from_left(join, scan);
                            for w in self.scratch_wmes.drain(..) {
                                push_succs(&mut self.agenda, &j.succs, &token.extended(w), sign);
                            }
                        }
                    }
                    (true, Sign::Plus) => {
                        // No right WME at all: the count is 0 without looking.
                        let n = if opp_empty {
                            self.tally.null(unlinking);
                            0
                        } else {
                            let (n, scan) = self.mem.count_right(j, key, &token);
                            self.tally.scan_from_left(join, scan);
                            n
                        };
                        self.mem.insert_left(j, key, token.clone(), n);
                        if n == 0 {
                            push_succs(&mut self.agenda, &j.succs, &token, Sign::Plus);
                        }
                    }
                    (true, Sign::Minus) => {
                        let r = self.mem.remove_left(j, key, &token);
                        self.tally.stats.same_tokens_left += r.examined;
                        self.tally.stats.same_searches_left += 1;
                        if r.entry == Some(0) {
                            push_succs(&mut self.agenda, &j.succs, &token, Sign::Minus);
                        }
                    }
                }
            }
            Task::Right { join, sign, wme } => {
                self.tally.join_activation(join);
                let j = self.net.join(join);
                let key = self.mem.right_key(j, &wme);
                // An empty left memory means no token can pair with (or be
                // count-adjusted by) this WME.
                let opp_empty = self.mem.left_count(j) == 0;
                match sign {
                    Sign::Plus => self.mem.insert_right(j, key, wme.clone()),
                    Sign::Minus => {
                        let r = self.mem.remove_right(j, key, &wme);
                        self.tally.stats.same_tokens_right += r.examined;
                        self.tally.stats.same_searches_right += 1;
                        debug_assert!(r.entry.is_some(), "sequential delete must find its wme");
                    }
                }
                if opp_empty {
                    self.tally.null(unlinking);
                } else if !j.negated {
                    let scan = self.mem.scan_left(j, key, &wme, &mut self.scratch_tokens);
                    self.tally.scan_from_right(join, scan);
                    for t in self.scratch_tokens.drain(..) {
                        push_succs(&mut self.agenda, &j.succs, &t.extended(wme.clone()), sign);
                    }
                } else {
                    // Not-node: a new blocker takes the support of the tokens
                    // it moves 0→1, a removed one returns it to those it
                    // moves 1→0.
                    let delta = match sign {
                        Sign::Plus => 1,
                        Sign::Minus => -1,
                    };
                    let scan =
                        self.mem
                            .adjust_left_counts(j, key, &wme, delta, &mut self.scratch_tokens);
                    self.tally.scan_from_right(join, scan);
                    for t in self.scratch_tokens.drain(..) {
                        push_succs(&mut self.agenda, &j.succs, &t, sign.flip());
                    }
                }
            }
            Task::Terminal { prod, sign, token } => {
                self.tally.stats.activations += 1;
                self.tally.stats.cs_changes += 1;
                let inst = Instantiation { prod, wmes: token };
                self.out.push(match sign {
                    Sign::Plus => CsChange::Insert(inst),
                    Sign::Minus => CsChange::Remove(inst),
                });
            }
        }
    }

    fn drain(&mut self) {
        while let Some(t) = self.agenda.pop() {
            self.run_task(t);
        }
    }

    /// Direct access to the network (tests, tooling).
    pub fn network(&self) -> &Arc<Network> {
        &self.net
    }

    /// Total memory entries (invariant checks in tests).
    pub fn memory_entries(&self) -> usize {
        self.mem.total_entries()
    }
}

impl<M: TokenMem + Send> Matcher for SeqMatcher<M> {
    fn submit(&mut self, batch: &ChangeBatch) {
        // Pairs already annihilated inside the batch never reach the
        // network; account for them like the parallel matcher does.
        self.tally.stats.conjugate_pairs += batch.annihilated();
        // `drain` needs `&mut self` between changes, so the alpha walk reads
        // the network through its own handle: one refcount bump per batch.
        let net = Arc::clone(&self.net);
        for (class, group) in batch.groups() {
            // One grouped constant-test task per class (§3.1): the
            // pattern chain for the class is resolved once per *group*,
            // then every change in the group is tested against it.
            self.tally.stats.alpha_activations += 1;
            self.tally.stats.wme_changes += group.len() as u64;
            let pats = net.patterns_for_class(class);
            for change in group {
                let (wme, sign) = (&change.wme, change.sign);
                for &pid in pats {
                    let pat = net.pattern(pid);
                    if !pat.tests.iter().all(|t| t.passes(wme)) {
                        continue;
                    }
                    for succ in &pat.succs {
                        self.agenda.push(match *succ {
                            AlphaSucc::JoinLeft(join) => Task::Left {
                                join,
                                sign,
                                token: Token::single(wme.clone()),
                            },
                            AlphaSucc::JoinRight(join) => Task::Right {
                                join,
                                sign,
                                wme: wme.clone(),
                            },
                            AlphaSucc::Terminal(prod) => Task::Terminal {
                                prod,
                                sign,
                                token: Token::single(wme.clone()),
                            },
                        });
                    }
                }
                // Each change's beta cascade completes before the next
                // change's begins: the sequential memories rely on the
                // one-change-at-a-time discipline (no conjugate-pair
                // parking here, unlike the parallel matcher).
                self.drain();
            }
        }
    }

    fn quiesce(&mut self) -> QuiesceReport {
        debug_assert!(self.agenda.is_empty());
        if let Some(p) = &mut self.tally.profile {
            p.flush();
        }
        QuiesceReport {
            cs_changes: std::mem::take(&mut self.out),
            stats_delta: self.delta.take(self.tally.stats),
            phase: None,
        }
    }

    fn stats(&self) -> MatchStats {
        self.tally.stats
    }

    fn reset_stats(&mut self) {
        self.tally.stats = MatchStats::default();
        self.delta.reset();
    }

    fn name(&self) -> &'static str {
        self.mem.kind_name()
    }

    fn enable_obs(&mut self, _registry: &Arc<obs::Registry>) {
        if self.tally.profile.is_none() {
            self.tally.profile = Some(BufferedProfile::new(self.net.n_joins()));
        }
    }

    fn node_profile(&self) -> Option<Arc<obs::NodeProfile>> {
        self.tally.profile.as_ref().map(|p| p.shared.clone())
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use ops5::{Program, Sign, Value, Wme, WmeChange};

    fn net_of(src: &str) -> (Program, Arc<Network>) {
        let prog = Program::from_source(src).unwrap();
        let net = Arc::new(Network::compile(&prog).unwrap());
        (prog, net)
    }

    fn wme(prog: &mut Program, class: &str, vals: Vec<Value>, tag: u64) -> WmeRef {
        let c = prog.symbols.intern(class);
        Wme::new(c, vals, tag)
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

    fn both(src: &str) -> (Program, Arc<Network>, Vec<Box<dyn Matcher>>) {
        let (prog, net) = net_of(src);
        let ms: Vec<Box<dyn Matcher>> = vec![
            boxed_vs1(net.clone()),
            boxed_vs2(net.clone(), HashMemConfig { buckets: 16 }),
        ];
        (prog, net, ms)
    }

    #[test]
    fn two_ce_join_fires() {
        let (mut prog, _net, ms) = both("(p q (a ^x <v>) (b ^y <v>) --> (halt))");
        for mut m in ms {
            let wa = wme(&mut prog, "a", vec![Value::Int(1)], 1);
            let wb = wme(&mut prog, "b", vec![Value::Int(1)], 2);
            add(m.as_mut(), wa.clone());
            assert!(m.quiesce().cs_changes.is_empty(), "no match with one wme");
            add(m.as_mut(), wb.clone());
            let cs = m.quiesce().cs_changes;
            assert_eq!(cs.len(), 1);
            match &cs[0] {
                CsChange::Insert(inst) => {
                    assert_eq!(inst.wmes.len(), 2);
                    assert_eq!(inst.wmes[0].timetag, 1);
                    assert_eq!(inst.wmes[1].timetag, 2);
                }
                other => panic!("{other:?}"),
            }
        }
    }

    #[test]
    fn right_then_left_order_also_fires() {
        let (mut prog, _net, ms) = both("(p q (a ^x <v>) (b ^y <v>) --> (halt))");
        for mut m in ms {
            let wa = wme(&mut prog, "a", vec![Value::Int(1)], 1);
            let wb = wme(&mut prog, "b", vec![Value::Int(1)], 2);
            add(m.as_mut(), wb);
            add(m.as_mut(), wa);
            assert_eq!(m.quiesce().cs_changes.len(), 1);
        }
    }

    #[test]
    fn delete_retracts_instantiation() {
        let (mut prog, _net, ms) = both("(p q (a ^x <v>) (b ^y <v>) --> (halt))");
        for mut m in ms {
            let wa = wme(&mut prog, "a", vec![Value::Int(1)], 1);
            let wb = wme(&mut prog, "b", vec![Value::Int(1)], 2);
            add(m.as_mut(), wa.clone());
            add(m.as_mut(), wb.clone());
            m.quiesce();
            del(m.as_mut(), wa);
            let cs = m.quiesce().cs_changes;
            assert_eq!(cs.len(), 1);
            assert!(matches!(cs[0], CsChange::Remove(_)));
        }
    }

    #[test]
    fn negated_ce_blocks_and_unblocks() {
        let (mut prog, _net, ms) = both("(p q (a ^x <v>) - (b ^y <v>) --> (halt))");
        for mut m in ms {
            let wa = wme(&mut prog, "a", vec![Value::Int(1)], 1);
            let wb = wme(&mut prog, "b", vec![Value::Int(1)], 2);
            add(m.as_mut(), wa.clone());
            let cs = m.quiesce().cs_changes;
            assert_eq!(cs.len(), 1, "fires while no blocker exists");
            assert!(matches!(cs[0], CsChange::Insert(_)));

            add(m.as_mut(), wb.clone());
            let cs = m.quiesce().cs_changes;
            assert_eq!(cs.len(), 1, "blocker retracts it");
            assert!(matches!(cs[0], CsChange::Remove(_)));

            del(m.as_mut(), wb);
            let cs = m.quiesce().cs_changes;
            assert_eq!(cs.len(), 1, "removing blocker re-fires");
            assert!(matches!(cs[0], CsChange::Insert(_)));
        }
    }

    #[test]
    fn blocker_added_first() {
        let (mut prog, _net, ms) = both("(p q (a ^x <v>) - (b ^y <v>) --> (halt))");
        for mut m in ms {
            let wa = wme(&mut prog, "a", vec![Value::Int(1)], 1);
            let wb = wme(&mut prog, "b", vec![Value::Int(1)], 2);
            add(m.as_mut(), wb);
            add(m.as_mut(), wa);
            assert!(m.quiesce().cs_changes.is_empty(), "blocked from the start");
        }
    }

    #[test]
    fn three_ce_chain() {
        let (mut prog, _net, ms) = both("(p q (a ^x <v>) (b ^y <v> ^z <w>) (c ^u <w>) --> (halt))");
        for mut m in ms {
            add(m.as_mut(), wme(&mut prog, "a", vec![Value::Int(1)], 1));
            add(
                m.as_mut(),
                wme(&mut prog, "b", vec![Value::Int(1), Value::Int(9)], 2),
            );
            add(m.as_mut(), wme(&mut prog, "c", vec![Value::Int(9)], 3));
            let cs = m.quiesce().cs_changes;
            assert_eq!(cs.len(), 1);
            match &cs[0] {
                CsChange::Insert(i) => assert_eq!(i.wmes.len(), 3),
                other => panic!("{other:?}"),
            }
        }
    }

    #[test]
    fn cross_product_counts() {
        let (mut prog, _net, ms) = both("(p q (a ^x <v>) (b ^y <w>) --> (halt))");
        for mut m in ms {
            for i in 0..3 {
                add(
                    m.as_mut(),
                    wme(&mut prog, "a", vec![Value::Int(i)], i as u64 + 1),
                );
            }
            for i in 0..4 {
                add(
                    m.as_mut(),
                    wme(&mut prog, "b", vec![Value::Int(i)], i as u64 + 10),
                );
            }
            let cs = m.quiesce().cs_changes;
            assert_eq!(cs.len(), 12, "3x4 cross product");
        }
    }

    #[test]
    fn modify_as_delete_add() {
        let (mut prog, _net, ms) = both("(p q (a ^x 1) --> (halt))");
        for mut m in ms {
            let w1 = wme(&mut prog, "a", vec![Value::Int(1)], 1);
            add(m.as_mut(), w1.clone());
            assert_eq!(m.quiesce().cs_changes.len(), 1);
            // modify: delete then add with new timetag and value 2.
            del(m.as_mut(), w1);
            let w2 = wme(&mut prog, "a", vec![Value::Int(2)], 2);
            add(m.as_mut(), w2);
            let cs = m.quiesce().cs_changes;
            assert_eq!(cs.len(), 1);
            assert!(matches!(cs[0], CsChange::Remove(_)));
        }
    }

    #[test]
    fn stats_are_recorded() {
        let (mut prog, _net, ms) = both("(p q (a ^x <v>) (b ^y <v>) --> (halt))");
        for mut m in ms {
            add(m.as_mut(), wme(&mut prog, "a", vec![Value::Int(1)], 1));
            add(m.as_mut(), wme(&mut prog, "b", vec![Value::Int(1)], 2));
            m.quiesce();
            let s = m.stats();
            assert_eq!(s.wme_changes, 2);
            assert!(s.activations >= 2);
            assert_eq!(s.cs_changes, 1);
            assert_eq!(s.opp_nonempty_right, 1);
        }
    }

    #[test]
    fn vs1_examines_more_than_vs2() {
        let src = "(p q (a ^x <v>) (b ^y <v>) --> (halt))";
        let (mut prog, net) = net_of(src);
        let mut m1 = SeqMatcher::vs1(net.clone());
        let mut m2 = SeqMatcher::vs2(net.clone(), HashMemConfig { buckets: 64 });
        for i in 0..20i64 {
            let wb = wme(&mut prog, "b", vec![Value::Int(i)], i as u64 + 1);
            m1.submit(&ChangeBatch::single(WmeChange {
                sign: Sign::Plus,
                wme: wb.clone(),
            }));
            m2.submit(&ChangeBatch::single(WmeChange {
                sign: Sign::Plus,
                wme: wb,
            }));
        }
        let wa = wme(&mut prog, "a", vec![Value::Int(5)], 100);
        m1.submit(&ChangeBatch::single(WmeChange {
            sign: Sign::Plus,
            wme: wa.clone(),
        }));
        m2.submit(&ChangeBatch::single(WmeChange {
            sign: Sign::Plus,
            wme: wa,
        }));
        assert_eq!(m1.quiesce().cs_changes.len(), 1);
        assert_eq!(m2.quiesce().cs_changes.len(), 1);
        assert!(m1.stats().opp_tokens_left > m2.stats().opp_tokens_left * 3);
    }

    /// Unlinking gate lifecycle: a join whose opposite memory is empty
    /// skips its scans (unlinked), starts scanning again the moment the
    /// memory becomes non-empty (relinked), and survives a conjugate
    /// add/delete pair that empties the memory again — producing exactly
    /// the CS changes of an unlinking-off matcher throughout.
    #[test]
    fn unlinking_gate_relinks_after_conjugate_add_delete() {
        let src = "(p q (a ^x <v>) (b ^y <v>) --> (halt))";
        let prog = Program::from_source(src).unwrap();
        let on = Arc::new(
            Network::compile_with(
                &prog,
                crate::network::NetworkOptions {
                    sharing: false,
                    unlinking: true,
                },
            )
            .unwrap(),
        );
        let off = Arc::new(Network::compile(&prog).unwrap());
        let mut prog = prog;
        let mut m_on = SeqMatcher::vs2(on, HashMemConfig { buckets: 16 });
        let mut m_off = SeqMatcher::vs2(off, HashMemConfig { buckets: 16 });

        let wa = wme(&mut prog, "a", vec![Value::Int(1)], 1);
        let wb = wme(&mut prog, "b", vec![Value::Int(1)], 2);
        let wb2 = wme(&mut prog, "b", vec![Value::Int(1)], 3);

        let step = |m_on: &mut SeqMatcher<HashMem>,
                    m_off: &mut SeqMatcher<HashMem>,
                    sign: Sign,
                    w: &WmeRef,
                    label: &str| {
            for m in [&mut *m_on, &mut *m_off] {
                m.submit(&ChangeBatch::single(WmeChange {
                    sign,
                    wme: w.clone(),
                }));
            }
            let a = format!("{:?}", m_on.quiesce().cs_changes);
            let b = format!("{:?}", m_off.quiesce().cs_changes);
            assert_eq!(a, b, "CS divergence at step {label}");
        };

        // Left memory empty: the right activation for wa's join is gated.
        step(&mut m_on, &mut m_off, Sign::Plus, &wb, "add b (unlinked)");
        assert_eq!(m_on.stats().null_skipped, 1);
        assert_eq!(m_on.stats().null_activations, 0);
        // Non-empty right memory: the gate must relink and find the pair.
        step(&mut m_on, &mut m_off, Sign::Plus, &wa, "add a (relinked)");
        assert_eq!(m_on.stats().null_skipped, 1, "relinked scan performed");
        // Conjugate pair through the (now populated) join.
        step(&mut m_on, &mut m_off, Sign::Plus, &wb2, "conjugate add");
        step(&mut m_on, &mut m_off, Sign::Minus, &wb2, "conjugate delete");
        // Empty the left memory again; b's retract is gated once more.
        step(&mut m_on, &mut m_off, Sign::Minus, &wa, "remove a");
        step(
            &mut m_on,
            &mut m_off,
            Sign::Minus,
            &wb,
            "remove b (unlinked)",
        );
        assert!(m_on.stats().null_skipped > 1);
        assert_eq!(
            m_on.stats().null_activations,
            0,
            "unlinking leaves no null activation performed"
        );
        assert_eq!(m_off.stats().null_skipped, 0);
        assert!(m_off.stats().null_activations > 0);
        assert_eq!(m_on.memory_entries(), 0);
        assert_eq!(m_off.memory_entries(), 0);
    }

    #[test]
    fn duplicate_value_wmes_are_distinct() {
        let (mut prog, _net, ms) = both("(p q (a ^x <v>) (b ^y <v>) --> (halt))");
        for mut m in ms {
            let wa1 = wme(&mut prog, "a", vec![Value::Int(1)], 1);
            let wa2 = wme(&mut prog, "a", vec![Value::Int(1)], 2);
            let wb = wme(&mut prog, "b", vec![Value::Int(1)], 3);
            add(m.as_mut(), wa1.clone());
            add(m.as_mut(), wa2);
            add(m.as_mut(), wb);
            assert_eq!(m.quiesce().cs_changes.len(), 2);
            del(m.as_mut(), wa1);
            let cs = m.quiesce().cs_changes;
            assert_eq!(cs.len(), 1, "only the instantiation with wa1 retracts");
        }
    }
}
