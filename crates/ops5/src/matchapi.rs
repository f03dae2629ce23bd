//! The matcher API: the contract between the recognize-act interpreter (the
//! paper's *control process*) and any match engine.
//!
//! Four engines implement this in the workspace: the sequential Rete with
//! list memories (*vs1*), the sequential Rete with global hash-table
//! memories (*vs2*), the interpretive `lispsim` baseline, and the parallel
//! PSM-E matcher. The interpreter pipelines WME changes into the matcher as
//! RHS evaluation computes them (`submit`), then blocks for quiescence
//! (`quiesce`) before conflict resolution — exactly the structure of §3.1 of
//! the paper.

use crate::fxhash::{self, FxHashMap};
use crate::program::ProdId;
use crate::symbol::SymbolId;
use crate::token::Token;
use crate::wme::WmeRef;
use std::fmt;
use std::hash::{Hash, Hasher};
use std::ops::{Add, AddAssign, Sub};

/// Add or delete, the paper's `+`/`−` token tags.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum Sign {
    Plus,
    Minus,
}

impl Sign {
    #[inline]
    pub fn flip(self) -> Sign {
        match self {
            Sign::Plus => Sign::Minus,
            Sign::Minus => Sign::Plus,
        }
    }
}

impl fmt::Display for Sign {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            Sign::Plus => write!(f, "+"),
            Sign::Minus => write!(f, "-"),
        }
    }
}

/// One working-memory change flowing into the match network.
#[derive(Debug, Clone)]
pub struct WmeChange {
    pub sign: Sign,
    pub wme: WmeRef,
}

/// A batch of WME changes submitted to a matcher as one unit — the
/// ingestion granularity of the batched match pipeline.
///
/// The control process accumulates every change a production firing
/// produces (a `modify` contributes a delete *and* an add) into one
/// `ChangeBatch` and ships the whole batch with a single
/// [`Matcher::submit`] call, amortizing per-call scheduling, locking, and
/// constant-test dispatch. Batches apply three normalizations as changes
/// are pushed:
///
/// 1. **Conjugate-pair annihilation.** A delete whose timetag matches an
///    add still pending in the same batch cancels it: both changes vanish
///    before the network ever sees a token. (Timetags are unique, so the
///    reverse order — delete before add of the same tag — cannot occur.)
///    The number of cancelled pairs is reported by [`annihilated`] and
///    rolled into the matcher's `conjugate_pairs` statistic.
/// 2. **Per-class grouping.** Changes are bucketed by WME class so that
///    one batch entry drives one alpha-chain walk: a matcher visits the
///    constant-test patterns of a class once per *group*, not once per
///    change — the paper's "small groups of constant-test node
///    activations constitute a task". Groups list classes by first
///    appearance and a group its changes as pushed (except where an
///    annihilation back-fills a hole): how the batch is stored, not an
///    order a matcher owes anyone — rule 3.
/// 3. **A batch is a set.** After rule 1 it holds changes to *distinct*
///    WMEs, and those commute in the final match state; that is what made
///    regrouping by class sound, and it makes every other order sound too.
///    The order in which a batch's changes reach the network is the
///    matcher's ([`Matcher::submit`] lists who does what); what is common
///    to all of them is the folded conflict set after `quiesce`. Callers
///    must not push the same signed change twice, nor the delete of a WME
///    ahead of its add (the engine's working memory guards both: a timetag
///    is issued once and removed once).
///
/// [`annihilated`]: ChangeBatch::annihilated
#[derive(Debug, Clone, Default)]
pub struct ChangeBatch {
    /// Per-class groups in first-appearance order of the class.
    groups: Vec<(SymbolId, Vec<WmeChange>)>,
    /// Class → index into `groups`. Both maps are keyed by ids this
    /// program assigns (interned classes, engine timetags): no SipHash.
    class_index: FxHashMap<SymbolId, usize>,
    /// Timetag → (group, position) of a pending add, for annihilation.
    pending_adds: FxHashMap<u64, (usize, usize)>,
    /// Conjugate pairs cancelled inside this batch.
    annihilated: u64,
    /// Live changes across all groups.
    len: usize,
}

impl ChangeBatch {
    pub fn new() -> ChangeBatch {
        ChangeBatch::default()
    }

    /// A batch holding a single change.
    pub fn from_change(change: WmeChange) -> ChangeBatch {
        let mut b = ChangeBatch::new();
        b.push(change);
        b
    }

    /// Fast path for a one-change batch: builds the single per-class group
    /// directly, skipping the `class_index` and `pending_adds` bookkeeping
    /// that [`push`](Self::push) maintains for grouping and conjugate-pair
    /// annihilation — neither can apply to a lone change.
    ///
    /// The returned batch is intended for immediate submission. Pushing
    /// further changes onto it keeps the flattened change order, but a
    /// second change of the same class lands in a fresh group and a
    /// conjugate delete is not annihilated — the batch then names one WME
    /// twice, which a matcher that picks its own order (rule 3) must never
    /// be handed. Use [`from_change`](Self::from_change) when the batch
    /// will grow.
    pub fn single(change: WmeChange) -> ChangeBatch {
        ChangeBatch {
            groups: vec![(change.wme.class, vec![change])],
            class_index: FxHashMap::default(),
            pending_adds: FxHashMap::default(),
            annihilated: 0,
            len: 1,
        }
    }

    /// Pushes one change, applying the coalescing rules above.
    pub fn push(&mut self, change: WmeChange) {
        let tag = change.wme.timetag;
        if change.sign == Sign::Minus {
            if let Some((g, pos)) = self.pending_adds.remove(&tag) {
                // Annihilate: the pending add and this delete cancel.
                let group = &mut self.groups[g].1;
                group.swap_remove(pos);
                if let Some(moved) = group.get(pos) {
                    // The former last element now sits at `pos`; fix its
                    // index if it is a tracked add.
                    if moved.sign == Sign::Plus {
                        self.pending_adds.insert(moved.wme.timetag, (g, pos));
                    }
                }
                self.annihilated += 1;
                self.len -= 1;
                return;
            }
        }
        let class = change.wme.class;
        let g = match self.class_index.get(&class) {
            Some(&g) => g,
            None => {
                let g = self.groups.len();
                self.groups.push((class, Vec::new()));
                self.class_index.insert(class, g);
                g
            }
        };
        if change.sign == Sign::Plus {
            self.pending_adds.insert(tag, (g, self.groups[g].1.len()));
        }
        self.groups[g].1.push(change);
        self.len += 1;
    }

    /// Convenience: push an add.
    pub fn add(&mut self, wme: WmeRef) {
        self.push(WmeChange {
            sign: Sign::Plus,
            wme,
        });
    }

    /// Convenience: push a delete.
    pub fn delete(&mut self, wme: WmeRef) {
        self.push(WmeChange {
            sign: Sign::Minus,
            wme,
        });
    }

    /// Live changes in the batch (after annihilation).
    pub fn len(&self) -> usize {
        self.len
    }

    pub fn is_empty(&self) -> bool {
        self.len == 0
    }

    /// Conjugate add/delete pairs cancelled inside this batch.
    pub fn annihilated(&self) -> u64 {
        self.annihilated
    }

    /// Number of non-empty per-class groups.
    pub fn group_count(&self) -> usize {
        self.groups.iter().filter(|(_, g)| !g.is_empty()).count()
    }

    /// Per-class groups in first-appearance order. Groups emptied by
    /// annihilation are skipped.
    pub fn groups(&self) -> impl Iterator<Item = (SymbolId, &[WmeChange])> {
        self.groups
            .iter()
            .filter(|(_, g)| !g.is_empty())
            .map(|(c, g)| (*c, g.as_slice()))
    }

    /// All live changes, flattened in group order.
    pub fn iter(&self) -> impl Iterator<Item = &WmeChange> {
        self.groups.iter().flat_map(|(_, g)| g.iter())
    }

    /// Empties the batch for reuse, keeping allocations.
    pub fn clear(&mut self) {
        self.groups.clear();
        self.class_index.clear();
        self.pending_adds.clear();
        self.annihilated = 0;
        self.len = 0;
    }
}

impl FromIterator<WmeChange> for ChangeBatch {
    fn from_iter<I: IntoIterator<Item = WmeChange>>(iter: I) -> ChangeBatch {
        let mut b = ChangeBatch::new();
        for c in iter {
            b.push(c);
        }
        b
    }
}

/// A satisfied production instance: the production plus the WMEs matched by
/// its positive condition elements, in CE order — the very token that
/// reached the production's terminal node, shared with the match memories
/// rather than copied out of them.
#[derive(Debug, Clone)]
pub struct Instantiation {
    pub prod: ProdId,
    pub wmes: Token,
}

impl Instantiation {
    /// Identity key: production + matched timetags. Two instantiations are
    /// the same iff they fire the same rule on the same elements. Allocates;
    /// tables key on the instantiation itself (`Hash`/`Eq` below).
    pub fn key(&self) -> (ProdId, Vec<u64>) {
        (self.prod, self.wmes.timetags())
    }
}

impl PartialEq for Instantiation {
    fn eq(&self, other: &Self) -> bool {
        self.prod == other.prod && self.wmes.same_wmes(&other.wmes)
    }
}
impl Eq for Instantiation {}

/// One word: the token's cached identity hash mixed with the production.
/// Equal instantiations hash equal because the cached hash is a function of
/// the timetag sequence alone; unequal ones that collide are told apart by
/// `Eq`, which walks the chains.
impl Hash for Instantiation {
    #[inline]
    fn hash<H: Hasher>(&self, state: &mut H) {
        state.write_u64(fxhash::mix(self.wmes.identity_hash(), self.prod.0 as u64));
    }
}

/// A conflict-set delta emitted by the match phase.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum CsChange {
    Insert(Instantiation),
    Remove(Instantiation),
}

/// Match-phase statistics, the raw material for Tables 4-1, 4-2, 4-3 and the
/// task-length analysis in §5.
///
/// "Opposite memory" statistics are recorded per two-input-node activation
/// *whose opposite memory is non-empty* (the paper's Table 4-2 counts only
/// those); "same memory" statistics are recorded per delete request.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct MatchStats {
    /// WME changes submitted to the network.
    pub wme_changes: u64,
    /// Total node activations processed (tasks, in the parallel framing).
    pub activations: u64,
    /// Constant-test node activations (grouped into tasks separately).
    pub alpha_activations: u64,

    /// Σ tokens examined in the opposite memory, for left activations.
    pub opp_tokens_left: u64,
    /// Number of left activations with a non-empty opposite memory.
    pub opp_nonempty_left: u64,
    /// Σ tokens examined in the opposite memory, for right activations.
    pub opp_tokens_right: u64,
    /// Number of right activations with a non-empty opposite memory.
    pub opp_nonempty_right: u64,

    /// Σ tokens examined in the same memory to locate a delete target, left.
    pub same_tokens_left: u64,
    /// Number of left delete searches.
    pub same_searches_left: u64,
    /// Σ tokens examined in the same memory to locate a delete target, right.
    pub same_tokens_right: u64,
    /// Number of right delete searches.
    pub same_searches_right: u64,

    /// Conflict-set insert/remove operations.
    pub cs_changes: u64,
    /// Conjugate token pairs annihilated (parallel matcher only).
    pub conjugate_pairs: u64,

    /// Two-input (join) node activations: every Left/Right task delivered
    /// to a join, whether or not its scan was performed. With beta-prefix
    /// sharing this is the counter that shrinks. vs1, vs2, lispsim and
    /// `col` count a right change once per reader of the shared right
    /// memory it entered, run or not, so the number stays comparable with
    /// the per-join matchers'.
    pub join_activations: u64,
    /// Join activations *performed* whose opposite memory was empty
    /// network-wide (null activations). vs1, vs2, lispsim and `col` book
    /// every left activation that meets an empty right memory here, whatever
    /// the network's `unlinking` option says; with it on, psm and
    /// `psm::trace` book theirs as `null_skipped` instead.
    pub null_activations: u64,
    /// Opposite-memory scans skipped because that memory was empty: by
    /// psm's and `psm::trace`'s unlinking emptiness gate, and — for vs1,
    /// vs2, lispsim and `col`, whatever `unlinking` says — every right
    /// activation of a join whose left memory is empty. Those matchers keep
    /// the right memory for the alpha pattern, not for the join, so such a
    /// join is never run at all.
    pub null_skipped: u64,

    /// Constant tests evaluated in the alpha network (a pattern's chain
    /// stops at its first failing test). Counted by vs1, vs2, lispsim and
    /// `col`; psm and `psm::trace` leave it 0.
    pub alpha_tests: u64,
    /// Readers of a shared right memory looked at when a change was stored
    /// in it, dead or live — the part of a right store that scales with the
    /// network instead of the change. Counted by vs1, vs2, lispsim and
    /// `col`; psm and `psm::trace` keep one right memory per join and leave
    /// it 0.
    pub readers_visited: u64,
}

impl MatchStats {
    /// Mean tokens examined in the opposite memory per left activation
    /// (over activations with non-empty opposite memory), Table 4-2 style.
    pub fn avg_opp_left(&self) -> f64 {
        ratio(self.opp_tokens_left, self.opp_nonempty_left)
    }
    pub fn avg_opp_right(&self) -> f64 {
        ratio(self.opp_tokens_right, self.opp_nonempty_right)
    }
    /// Mean tokens examined in the same memory per delete, Table 4-3 style.
    pub fn avg_same_left(&self) -> f64 {
        ratio(self.same_tokens_left, self.same_searches_left)
    }
    pub fn avg_same_right(&self) -> f64 {
        ratio(self.same_tokens_right, self.same_searches_right)
    }
}

fn ratio(num: u64, den: u64) -> f64 {
    if den == 0 {
        0.0
    } else {
        num as f64 / den as f64
    }
}

/// Applies a macro to every counter field of `MatchStats`.
macro_rules! for_each_stat {
    ($m:ident, $($args:tt)*) => {
        $m! { $($args)*;
            wme_changes, activations, alpha_activations,
            opp_tokens_left, opp_nonempty_left, opp_tokens_right, opp_nonempty_right,
            same_tokens_left, same_searches_left, same_tokens_right, same_searches_right,
            cs_changes, conjugate_pairs,
            join_activations, null_activations, null_skipped,
            alpha_tests, readers_visited
        }
    };
}

macro_rules! stats_binop {
    ($a:ident, $b:ident, $op:ident; $($field:ident),+) => {
        MatchStats { $($field: $a.$field.$op($b.$field)),+ }
    };
}

impl Add for MatchStats {
    type Output = MatchStats;
    fn add(self, o: MatchStats) -> MatchStats {
        for_each_stat!(stats_binop, self, o, wrapping_add)
    }
}

impl AddAssign for MatchStats {
    fn add_assign(&mut self, o: MatchStats) {
        *self = *self + o;
    }
}

/// Counter-wise difference (saturating), for `stats_delta` reporting.
impl Sub for MatchStats {
    type Output = MatchStats;
    fn sub(self, o: MatchStats) -> MatchStats {
        for_each_stat!(stats_binop, self, o, saturating_sub)
    }
}

/// Tracks the statistics snapshot taken at the previous quiesce so a
/// matcher can report per-cycle deltas. Every engine embeds one.
#[derive(Debug, Clone, Copy, Default)]
pub struct StatsDeltaTracker {
    last: MatchStats,
}

impl StatsDeltaTracker {
    /// Returns the delta from the previous call and re-snapshots.
    pub fn take(&mut self, now: MatchStats) -> MatchStats {
        let delta = now - self.last;
        self.last = now;
        delta
    }

    /// Forgets the snapshot (call from `reset_stats`).
    pub fn reset(&mut self) {
        self.last = MatchStats::default();
    }
}

/// Recognize-act phase durations for one cycle, in nanoseconds.
///
/// Matchers report `None`; the *engine* driving them measures the phases
/// (it owns the match/resolve/act boundaries) and attaches the timings to
/// the report while also recording them into its latency histograms when
/// observability is enabled.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct PhaseNanos {
    /// flush staged changes + matcher quiesce + conflict-set fold-in.
    pub match_ns: u64,
    /// Conflict resolution (`select` + `mark_fired`).
    pub resolve_ns: u64,
    /// RHS execution of the winning instantiation.
    pub act_ns: u64,
}

/// What one `quiesce` produced: the conflict-set deltas of the completed
/// match phase plus the statistics delta since the previous quiesce.
///
/// Bundling the two closes a race in the old five-method API, where
/// callers pairing `quiesce()` with a separate `stats()` call could
/// observe counters from a neighbouring cycle.
#[derive(Debug, Clone, Default)]
pub struct QuiesceReport {
    /// Conflict-set inserts/removes produced since the previous quiesce.
    pub cs_changes: Vec<CsChange>,
    /// Statistics accumulated since the previous quiesce.
    pub stats_delta: MatchStats,
    /// Phase timings, filled in by the driving engine (`None` from raw
    /// matchers and when observability is disabled).
    pub phase: Option<PhaseNanos>,
}

/// A match engine.
///
/// Lifecycle per recognize-act cycle: zero or more `submit` calls (the
/// control process ships each production firing's changes as one
/// [`ChangeBatch`]), then one `quiesce` that blocks until the match phase
/// is complete and returns the conflict-set deltas plus the cycle's
/// statistics. Engines may process eagerly inside `submit` (sequential
/// engines do) or defer to worker threads (PSM-E does).
pub trait Matcher: Send {
    /// Feed a batch of WME changes into the network. May return
    /// immediately.
    ///
    /// A batch is a *set* of changes to distinct WMEs ([`ChangeBatch`],
    /// rule 3) and the order inside it is the matcher's: vs1, vs2, lispsim
    /// and col take every retraction, then every assertion, one change at a
    /// time; psm runs the changes in
    /// parallel under conjugate pairs; `psm::trace` takes them as written,
    /// which is the paper's order and the reference. What all of
    /// them owe is the same folded conflict set *with its fired flags*
    /// after [`quiesce`](Self::quiesce): an instantiation leaves the set
    /// only because one of its WMEs was retracted (timetags are never
    /// reissued) or a blocker was asserted (whose retraction in the same
    /// batch would have annihilated in `push`); neither can be undone
    /// inside the batch, so what is in the set before and after a batch is
    /// never removed inside it, whatever the order. Order only decides
    /// which transient instantiations get built and retracted on the way.
    fn submit(&mut self, batch: &ChangeBatch);

    /// Block until the match phase completes; drain and return the
    /// conflict-set deltas and statistics produced since the previous
    /// `quiesce`.
    fn quiesce(&mut self) -> QuiesceReport;

    /// Cumulative statistics since construction or the last `reset_stats`.
    fn stats(&self) -> MatchStats;

    /// Zero the statistics counters.
    fn reset_stats(&mut self);

    /// Human-readable engine name for reports.
    fn name(&self) -> &'static str;

    /// Turns on observability: the matcher builds its per-node profile and
    /// registers any additional instruments (worker latency histograms,
    /// lock-contention counters...) into `registry`. Called at most once,
    /// before the first `submit`. The default is a no-op — a matcher
    /// without instrumentation (the trace matcher, test doubles) stays
    /// byte-for-byte on its old paths.
    fn enable_obs(&mut self, _registry: &std::sync::Arc<obs::Registry>) {}

    /// The per-join-node activation/scan profile, when observability is
    /// enabled and the matcher supports it.
    fn node_profile(&self) -> Option<std::sync::Arc<obs::NodeProfile>> {
        None
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::symbol::SymbolId;
    use crate::value::Value;
    use crate::wme::Wme;

    #[test]
    fn sign_flip() {
        assert_eq!(Sign::Plus.flip(), Sign::Minus);
        assert_eq!(Sign::Minus.flip(), Sign::Plus);
    }

    #[test]
    fn instantiation_identity_is_timetags() {
        let w1 = Wme::new(SymbolId(1), vec![Value::Int(1)], 10);
        let w1b = Wme::new(SymbolId(1), vec![Value::Int(1)], 10);
        let w2 = Wme::new(SymbolId(1), vec![Value::Int(1)], 11);
        let a = Instantiation {
            prod: ProdId(0),
            wmes: Token::single(w1),
        };
        let b = Instantiation {
            prod: ProdId(0),
            wmes: Token::single(w1b),
        };
        let c = Instantiation {
            prod: ProdId(0),
            wmes: Token::single(w2),
        };
        assert_eq!(a, b);
        assert_ne!(a, c);
        let word = |i: &Instantiation| {
            let mut h = fxhash::FxHasher::default();
            i.hash(&mut h);
            h.finish()
        };
        assert_eq!(word(&a), word(&b));
        assert_eq!(a.key(), (ProdId(0), vec![10]));
        // Same elements under another production: a different instantiation.
        let d = Instantiation {
            prod: ProdId(1),
            wmes: a.wmes.clone(),
        };
        assert_ne!(a, d);
        assert_ne!(word(&a), word(&d));
    }

    #[test]
    fn stats_averages() {
        let s = MatchStats {
            opp_tokens_left: 30,
            opp_nonempty_left: 10,
            ..Default::default()
        };
        assert!((s.avg_opp_left() - 3.0).abs() < 1e-12);
        assert_eq!(s.avg_opp_right(), 0.0);
    }

    #[test]
    fn stats_add() {
        let a = MatchStats {
            wme_changes: 1,
            activations: 2,
            ..Default::default()
        };
        let b = MatchStats {
            wme_changes: 3,
            activations: 4,
            ..Default::default()
        };
        let c = a + b;
        assert_eq!(c.wme_changes, 4);
        assert_eq!(c.activations, 6);
    }

    #[test]
    fn stats_sub_and_delta_tracker() {
        let a = MatchStats {
            wme_changes: 5,
            cs_changes: 2,
            ..Default::default()
        };
        let b = MatchStats {
            wme_changes: 8,
            cs_changes: 2,
            ..Default::default()
        };
        let d = b - a;
        assert_eq!(d.wme_changes, 3);
        assert_eq!(d.cs_changes, 0);

        let mut t = StatsDeltaTracker::default();
        assert_eq!(t.take(a).wme_changes, 5);
        assert_eq!(t.take(b).wme_changes, 3);
        assert_eq!(t.take(b).wme_changes, 0);
    }

    fn wme(class: u32, tag: u64) -> WmeRef {
        Wme::new(SymbolId(class), vec![Value::Int(tag as i64)], tag)
    }

    #[test]
    fn batch_groups_by_class_in_first_appearance_order() {
        let mut b = ChangeBatch::new();
        b.add(wme(2, 1));
        b.add(wme(1, 2));
        b.add(wme(2, 3));
        b.delete(wme(1, 99)); // delete of an element from an earlier cycle
        assert_eq!(b.len(), 4);
        assert_eq!(b.group_count(), 2);
        let groups: Vec<(SymbolId, usize)> = b.groups().map(|(c, g)| (c, g.len())).collect();
        assert_eq!(groups, vec![(SymbolId(2), 2), (SymbolId(1), 2)]);
        // Flattened iteration follows group order.
        let tags: Vec<u64> = b.iter().map(|c| c.wme.timetag).collect();
        assert_eq!(tags, vec![1, 3, 2, 99]);
    }

    #[test]
    fn batch_annihilates_conjugate_pairs() {
        let mut b = ChangeBatch::new();
        b.add(wme(1, 10));
        b.add(wme(1, 11));
        b.delete(wme(1, 10)); // cancels the pending add of tag 10
        assert_eq!(b.len(), 1);
        assert_eq!(b.annihilated(), 1);
        let tags: Vec<u64> = b.iter().map(|c| c.wme.timetag).collect();
        assert_eq!(tags, vec![11]);
    }

    #[test]
    fn batch_annihilation_can_empty_a_group() {
        let mut b = ChangeBatch::new();
        b.add(wme(3, 20));
        b.delete(wme(3, 20));
        assert!(b.is_empty());
        assert_eq!(b.group_count(), 0);
        assert_eq!(b.groups().count(), 0);
        assert_eq!(b.annihilated(), 1);
    }

    #[test]
    fn batch_annihilation_repairs_swap_index() {
        // Three pending adds; annihilating the first moves the last into
        // its slot. A later delete of the moved add must still annihilate.
        let mut b = ChangeBatch::new();
        b.add(wme(1, 1));
        b.add(wme(1, 2));
        b.add(wme(1, 3));
        b.delete(wme(1, 1));
        b.delete(wme(1, 3));
        assert_eq!(b.annihilated(), 2);
        let tags: Vec<u64> = b.iter().map(|c| c.wme.timetag).collect();
        assert_eq!(tags, vec![2]);
    }

    #[test]
    fn batch_from_iterator_and_clear() {
        let changes = vec![
            WmeChange {
                sign: Sign::Plus,
                wme: wme(1, 1),
            },
            WmeChange {
                sign: Sign::Minus,
                wme: wme(1, 1),
            },
            WmeChange {
                sign: Sign::Plus,
                wme: wme(2, 2),
            },
        ];
        let mut b: ChangeBatch = changes.into_iter().collect();
        assert_eq!(b.len(), 1);
        b.clear();
        assert!(b.is_empty());
        assert_eq!(b.annihilated(), 0);
    }

    #[test]
    fn from_change_is_singleton() {
        let b = ChangeBatch::from_change(WmeChange {
            sign: Sign::Minus,
            wme: wme(1, 7),
        });
        assert_eq!(b.len(), 1);
        assert_eq!(b.group_count(), 1);
    }

    #[test]
    fn single_matches_from_change_observably() {
        for sign in [Sign::Plus, Sign::Minus] {
            let c = WmeChange {
                sign,
                wme: wme(3, 9),
            };
            let fast = ChangeBatch::single(c.clone());
            let slow = ChangeBatch::from_change(c);
            assert_eq!(fast.len(), slow.len());
            assert_eq!(fast.group_count(), slow.group_count());
            assert_eq!(fast.annihilated(), slow.annihilated());
            let f: Vec<(SymbolId, Sign, u64)> = fast
                .iter()
                .map(|c| (c.wme.class, c.sign, c.wme.timetag))
                .collect();
            let s: Vec<(SymbolId, Sign, u64)> = slow
                .iter()
                .map(|c| (c.wme.class, c.sign, c.wme.timetag))
                .collect();
            assert_eq!(f, s);
        }
    }

    #[test]
    fn pushing_onto_single_keeps_change_order() {
        // Not the intended use, but must stay semantically sound: the
        // flattened order still replays add-before-delete.
        let mut b = ChangeBatch::single(WmeChange {
            sign: Sign::Plus,
            wme: wme(1, 1),
        });
        b.delete(wme(1, 1));
        let flat: Vec<(Sign, u64)> = b.iter().map(|c| (c.sign, c.wme.timetag)).collect();
        assert_eq!(flat, vec![(Sign::Plus, 1), (Sign::Minus, 1)]);
    }
}
