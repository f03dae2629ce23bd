//! The columnar collection-oriented matcher — *col*.
//!
//! The paper's matchers (and `seq`/`psm` here) are tuple-at-a-time Rete:
//! every WME change walks the network one token at a time, paying pointer
//! chases and per-activation bookkeeping per tuple. `ColMatcher` processes
//! the same [`ChangeBatch`] groups set-at-a-time instead, the Hiperfact
//! "Rete as in-memory fact tables" framing:
//!
//! * **Each WME stored once.** The paper folds a memory node into the
//!   two-input node below it and shares none (§3.1, footnote 6), so a WME
//!   passing an alpha pattern with 829 join successors is copied 829 times.
//!   Here the right memories belong to the *network*, one per (alpha
//!   pattern, equality signature) — [`crate::network::RightMemSpec`],
//!   computed by the compiler — and every join or not-node with that right
//!   input reads the one table. Its key hashes the signature's field values
//!   and nothing else, so a (memory, change) pair has one key whoever reads
//!   it; the left memories, still one per join, hash their side of the same
//!   tests the same way ([`JoinNode::shared_key`]).
//! * **Dead joins are never looked at.** A reader whose left memory is
//!   empty cannot pair with anything, so it is not on its right memory's
//!   linked list (`readers::LinkedReaders`, the structure vs1/vs2 use): a
//!   right change runs the linked readers and retires the rest as
//!   `null_skipped` by subtraction. That is Doorenbos right-unlinking, and sharing is what
//!   makes it safe with no relink replay: the memory is maintained for the
//!   pattern, not for the join, so a join whose left memory comes alive
//!   later scans a table that was kept up all along.
//! * **Columnar memories.** A memory is a power-of-two table of *lines*:
//!   one [`Row`] array carrying the per-entry header (key, identity tag,
//!   not-node counter, liveness) together with the token/WME handle —
//!   merged into a single array so an insert touches one allocation — and,
//!   in left memories, one `Vec<Value>` column per join test holding the
//!   token's operand (right entries are read through their `WmeRef`: a
//!   shared memory serves joins with different tests). Entries land on the
//!   line their key hashes to; a scan is a tight loop over the dense row
//!   array that evaluates tests only on key match. A line splits (the
//!   table doubles) when its live population exceeds [`LINE_TARGET`] *and*
//!   it holds more than one distinct key (doubling cannot shorten a
//!   single-key line; tracked O(1) via `key0`/`mixed`).
//! * **Set-at-a-time sweep.** A submit walks the batch pattern-major: per
//!   class it buckets the group's changes by candidate pattern (the
//!   class's constant index, [`ClassPatterns::candidates`]), then sweeps
//!   the patterns ascending: per pattern it computes the passing change
//!   subset once, applies it to each of the pattern's right memories, and
//!   runs *pass 1* — each right change against the left line — for the
//!   linked readers only. That is sound because left memories are only
//!   mutated afterwards, so pass 1 sees exactly the pre-batch left state
//!   the sequential two-pass order requires. Left-side deltas (alpha tokens and join emissions) are
//!   queued per join and the join is flagged in a bitset worklist; a
//!   single ascending sweep (*pass 2*) then drains each flagged join's
//!   deltas against the settled post-batch right memory (the compiler
//!   guarantees successors are forward, so emissions only mark bits ahead
//!   of the cursor). Every (left, right) pair is counted exactly once, and
//!   downstream joins receive their deltas before the sweep reaches them.
//! * **Tombstone deletes + inline compaction.** Deletes mark the liveness
//!   flag and compact the line in place once tombstones reach
//!   [`COMPACT_TOMBSTONE_RATIO`] of its entries, so columns stay dense
//!   without per-delete `swap_remove` churn in every parallel column.
//!
//! The observable contract is the per-cycle conflict-set key history: the
//! differential suite holds it byte-identical to vs2 across the corpus.
//! Within one batch the net-delta emission is equivalent to the
//! per-change cascade because conjugate-pair annihilation makes WME
//! re-entry impossible, so the support of any instantiation changes
//! monotonically inside a batch.

use crate::network::{
    AlphaSucc, ClassPatterns, JoinId, JoinNode, Network, RightMemId, Succ, MAX_RESOLVED_TESTS,
};
use crate::profile::BufferedProfile;
use crate::readers::LinkedReaders;
use crate::token::Token;
use ops5::{
    ChangeBatch, CsChange, Instantiation, MatchStats, Matcher, QuiesceReport, Sign,
    StatsDeltaTracker, Value, WmeChange, WmeRef,
};
use std::sync::Arc;

/// A line compacts in place once `dead / len` reaches this ratio, so the
/// tombstone ratio observed at quiescence is always strictly below it.
pub const COMPACT_TOMBSTONE_RATIO: f64 = 0.5;

/// A line splits (the side's table doubles) once its live population
/// exceeds this, keeping bucket scans short as memories grow.
pub const LINE_TARGET: usize = 8;

/// Per-entry row header: bookkeeping plus the handle, one slot per row of
/// a line. Kept in a single array so an insert — the dominant operation on
/// joins whose scans are mostly null — touches one allocation, not two.
struct Row<H> {
    /// The join-test key the entry's values hash to (scan filter).
    key: u64,
    /// Identity: WME timetag (right) or token identity hash (left).
    tag: u64,
    /// Not-node match counter (left memories of negated joins; kept in
    /// every line so compaction is uniform).
    neg: u32,
    alive: bool,
    /// The stored entry: token (left) or WME (right).
    handle: H,
}

/// One hash line of a columnar memory: parallel arrays, one slot per entry.
struct Bucket<H> {
    /// Left memories: one column per join test, the token-side operand.
    /// Right memories have none.
    cols: Box<[Vec<Value>]>,
    rows: Vec<Row<H>>,
    dead: usize,
    /// Key of the line's first entry, and whether any later entry carried
    /// a different key. Doubling the table cannot shorten a line whose
    /// entries all share one key (they rehash together), so only mixed
    /// lines trigger growth — an O(1) check per insert. `mixed` is
    /// conservative: compaction never clears it, redistribution recomputes
    /// it per destination line.
    key0: u64,
    mixed: bool,
}

impl<H> Bucket<H> {
    fn new(ncols: usize) -> Bucket<H> {
        Bucket {
            cols: (0..ncols).map(|_| Vec::new()).collect(),
            rows: Vec::new(),
            dead: 0,
            key0: 0,
            mixed: false,
        }
    }

    /// Update the split heuristic for an entry about to be pushed.
    #[inline]
    fn note_key(&mut self, key: u64) {
        if self.rows.is_empty() {
            self.key0 = key;
            self.mixed = false;
        } else if !self.mixed && key != self.key0 {
            self.mixed = true;
        }
    }

    #[inline]
    fn len(&self) -> usize {
        self.rows.len()
    }

    #[inline]
    fn live(&self) -> usize {
        self.rows.len() - self.dead
    }

    /// Tombstone entry `i` and compact if the dead ratio hit the threshold.
    fn tombstone(&mut self, i: usize) {
        debug_assert!(self.rows[i].alive);
        self.rows[i].alive = false;
        self.dead += 1;
        if self.dead * 2 >= self.len() {
            self.compact();
        }
    }

    /// Drop tombstoned rows from every parallel column, in place.
    fn compact(&mut self) {
        let mut w = 0;
        for r in 0..self.len() {
            if self.rows[r].alive {
                if w != r {
                    self.rows.swap(w, r);
                    for c in self.cols.iter_mut() {
                        c[w] = c[r];
                    }
                }
                w += 1;
            }
        }
        self.rows.truncate(w);
        for c in self.cols.iter_mut() {
            c.truncate(w);
        }
        self.dead = 0;
    }
}

/// One memory — a join's left side, or a shared right memory: a
/// power-of-two line table indexed by the low bits of the entry key.
/// Starts empty, materializes one line on first insert, and doubles
/// whenever the line an insert landed on exceeds [`LINE_TARGET`] live
/// entries — small memories stay a single dense line, large ones keep
/// scans bounded.
struct SideMem<H> {
    lines: Vec<Bucket<H>>,
    ncols: usize,
}

impl<H> SideMem<H> {
    fn new(ncols: usize) -> SideMem<H> {
        SideMem {
            lines: Vec::new(),
            ncols,
        }
    }

    #[inline]
    fn idx(&self, key: u64) -> usize {
        (key as usize) & (self.lines.len() - 1)
    }

    /// The line `key` hashes to, if the table is materialized.
    #[inline]
    fn line(&self, key: u64) -> Option<&Bucket<H>> {
        if self.lines.is_empty() {
            None
        } else {
            let i = self.idx(key);
            Some(&self.lines[i])
        }
    }

    #[inline]
    fn line_mut(&mut self, key: u64) -> Option<&mut Bucket<H>> {
        if self.lines.is_empty() {
            None
        } else {
            let i = self.idx(key);
            Some(&mut self.lines[i])
        }
    }

    /// Append an entry (its columns first) to the line `key` hashes to,
    /// materializing the table and splitting an overfull mixed line.
    fn insert(
        &mut self,
        key: u64,
        tag: u64,
        neg: u32,
        handle: H,
        cols: impl Iterator<Item = Value>,
    ) {
        if self.lines.is_empty() {
            self.lines.push(Bucket::new(self.ncols));
        }
        let i = self.idx(key);
        let b = &mut self.lines[i];
        b.note_key(key);
        for (c, v) in b.cols.iter_mut().zip(cols) {
            c.push(v);
        }
        b.rows.push(Row {
            key,
            tag,
            neg,
            alive: true,
            handle,
        });
        if b.live() > LINE_TARGET && b.mixed {
            self.grow();
        }
    }

    /// Double the line count, redistributing live entries by key.
    fn grow(&mut self) {
        let n = self.lines.len() * 2;
        let ncols = self.ncols;
        let mut next: Vec<Bucket<H>> = (0..n).map(|_| Bucket::new(ncols)).collect();
        for b in std::mem::take(&mut self.lines) {
            let Bucket { cols, rows, .. } = b;
            for (i, r) in rows.into_iter().enumerate() {
                if !r.alive {
                    continue;
                }
                let t = &mut next[(r.key as usize) & (n - 1)];
                t.note_key(r.key);
                for (k, c) in cols.iter().enumerate() {
                    t.cols[k].push(c[i]);
                }
                t.rows.push(r);
            }
        }
        self.lines = next;
    }
}

type LeftMem = SideMem<Token>;
type RightMem = SideMem<WmeRef>;

/// Live entries across `mems`, and the worst `dead / len` of their lines.
fn occupancy<H>(mems: &[SideMem<H>]) -> (usize, f64) {
    let lines = mems.iter().flat_map(|m| m.lines.iter());
    lines.fold((0, 0.0f64), |(live, worst), b| {
        let ratio = b.dead as f64 / b.len().max(1) as f64;
        (live + b.live(), worst.max(ratio))
    })
}

/// Locally-buffered bucket scan-length histogram, folded into the shared
/// `col_bucket_scan_len` instrument at quiesce.
struct ScanHist {
    shared: Arc<obs::Histogram>,
    counts: [u64; obs::N_BUCKETS],
    sums: [u64; obs::N_BUCKETS],
}

impl ScanHist {
    #[inline]
    fn record(&mut self, v: u64) {
        let b = obs::bucket_index(v);
        self.counts[b] += 1;
        self.sums[b] += v;
    }

    fn flush(&mut self) {
        for b in 0..obs::N_BUCKETS {
            if self.counts[b] != 0 {
                self.shared.record_bucketed(b, self.counts[b], self.sums[b]);
                self.counts[b] = 0;
                self.sums[b] = 0;
            }
        }
    }
}

/// The columnar set-at-a-time matcher.
pub struct ColMatcher {
    net: Arc<Network>,
    /// One left memory per join.
    left: Vec<LeftMem>,
    /// One right memory per [`RightMemSpec`] of the network.
    right: Vec<RightMem>,
    /// Live entry counts: per join (left), per right memory (right).
    left_live: Vec<u32>,
    right_live: Vec<u32>,
    /// Per right memory, the readers with `left_live != 0`.
    linked: LinkedReaders,
    /// Signed per-join left-input deltas for the current sweep: alpha-
    /// produced 1-WME tokens and upstream join emissions, in emission
    /// order. Right (alpha) deltas are not queued — they are processed
    /// eagerly during the alpha walk, which sees the identical pre-batch
    /// left memories pass 1 requires.
    left_deltas: Vec<Vec<(Sign, Token)>>,
    /// Worklist of joins with pending deltas: one bit per join id. The
    /// sweep walks it ascending via `trailing_zeros`, which is correct
    /// because emissions only travel forward (the compiler's topological
    /// id order) — a processed join can only set bits ahead of the
    /// cursor. Submits never pay for the hundreds of joins a small batch
    /// doesn't touch, and marking is a branch-free word OR.
    dirty: Vec<u64>,
    /// Scratch of the alpha walk, kept across submits so a small batch
    /// does not pay for it.
    alpha: AlphaScratch,
    out: Vec<CsChange>,
    stats: MatchStats,
    delta: StatsDeltaTracker,
    profile: Option<BufferedProfile>,
    scan_hist: Option<ScanHist>,
}

/// Scratch of one class group's alpha walk.
#[derive(Default)]
struct AlphaScratch {
    /// `(pattern << 32) | change index` of every (change, candidate
    /// pattern) pair of the group; sorted, the pattern-major sweep order.
    candidates: Vec<u64>,
    /// Indices of the group's changes passing the pattern in hand.
    passing: Vec<u32>,
    /// Their keys in the right memory in hand, shared by every reader.
    keys: Vec<u64>,
    /// One 1-WME token per change of the group, shared across every first
    /// join it feeds (token clones are `Arc` bumps).
    singles: Vec<Option<Token>>,
}

/// Flag join `j` as having pending deltas.
#[inline]
fn mark(dirty: &mut [u64], j: u32) {
    dirty[(j >> 6) as usize] |= 1u64 << (j & 63);
}

/// Fan a join emission out to its successors: downstream joins get a left
/// delta, terminals get a conflict-set change. Free function so scans can
/// emit while borrowing a line from a disjoint field.
fn emit(
    succs: &[Succ],
    sign: Sign,
    token: &Token,
    left_deltas: &mut [Vec<(Sign, Token)>],
    dirty: &mut [u64],
    out: &mut Vec<CsChange>,
    stats: &mut MatchStats,
) {
    for succ in succs {
        match *succ {
            Succ::Join(j2) => {
                left_deltas[j2 as usize].push((sign, token.clone()));
                mark(dirty, j2);
            }
            Succ::Terminal(p) => {
                stats.activations += 1;
                stats.cs_changes += 1;
                let inst = Instantiation {
                    prod: p,
                    wmes: token.clone(),
                };
                out.push(match sign {
                    Sign::Plus => CsChange::Insert(inst),
                    Sign::Minus => CsChange::Remove(inst),
                });
            }
        }
    }
}

/// Do all tests pass for entry `i` of a left line against right delta `w`?
/// Column values are the token-side operands; `rvals` the WME side,
/// resolved once per scan (`None`: more tests than the inline capacity).
#[inline]
fn left_entry_passes(
    j: &JoinNode,
    b: &Bucket<Token>,
    i: usize,
    rvals: &Option<[Value; MAX_RESOLVED_TESTS]>,
    w: &WmeRef,
) -> bool {
    match rvals {
        Some(rvals) => j
            .tests
            .iter()
            .zip(rvals.iter())
            .enumerate()
            .all(|(k, (t, rv))| t.pred.eval(*rv, b.cols[k][i])),
        None => j.passes(&b.rows[i].handle, w),
    }
}

/// Tombstone the entry whose identity matches `token`; returns its stored
/// neg count and the live entries examined.
fn remove_left_entry(mem: &mut LeftMem, key: u64, token: &Token) -> (Option<u32>, u64) {
    let mut examined = 0u64;
    if let Some(b) = mem.line_mut(key) {
        let tag = token.identity_hash();
        for i in 0..b.len() {
            let m = &b.rows[i];
            if !m.alive {
                continue;
            }
            examined += 1;
            if m.key == key && m.tag == tag && m.handle.same_wmes(token) {
                let neg = m.neg;
                b.tombstone(i);
                return (Some(neg), examined);
            }
        }
    }
    (None, examined)
}

fn remove_right_entry(mem: &mut RightMem, key: u64, timetag: u64) -> (bool, u64) {
    let mut examined = 0u64;
    if let Some(b) = mem.line_mut(key) {
        // Scan newest-first: working-memory churn removes recent insertions
        // far more often than old ones, and rows append in arrival order, so
        // the target is usually within a step or two of the end.
        for i in (0..b.len()).rev() {
            let m = &b.rows[i];
            if !m.alive {
                continue;
            }
            examined += 1;
            // Timetags are unique, so the tag alone is the identity.
            if m.tag == timetag {
                b.tombstone(i);
                return (true, examined);
            }
        }
    }
    (false, examined)
}

impl ColMatcher {
    pub fn new(net: Arc<Network>) -> ColMatcher {
        let n = net.n_joins();
        ColMatcher {
            left: net
                .joins
                .iter()
                .map(|j| SideMem::new(j.tests.len()))
                .collect(),
            right: net.right_mems.iter().map(|_| SideMem::new(0)).collect(),
            left_live: vec![0; n],
            right_live: vec![0; net.right_mems.len()],
            linked: LinkedReaders::new(&net),
            left_deltas: (0..n).map(|_| Vec::new()).collect(),
            dirty: vec![0u64; n.div_ceil(64)],
            alpha: AlphaScratch::default(),
            out: Vec::new(),
            stats: MatchStats::default(),
            delta: StatsDeltaTracker::default(),
            profile: None,
            scan_hist: None,
            net,
        }
    }

    pub fn network(&self) -> &Arc<Network> {
        &self.net
    }

    /// Live entries stored across all memories (invariant checks in tests).
    pub fn memory_entries(&self) -> usize {
        occupancy(&self.left).0 + occupancy(&self.right).0
    }

    /// Per right memory, the readers linked to it, and the live entries of
    /// one join's left memory (counted, not read off `left_live`): tests
    /// hold the lists to the filter they replaced.
    #[doc(hidden)]
    pub fn linked_readers(&self) -> &[Vec<JoinId>] {
        self.linked.lists()
    }

    #[doc(hidden)]
    pub fn left_entries(&self, join: JoinId) -> u32 {
        occupancy(std::slice::from_ref(&self.left[join as usize])).0 as u32
    }

    /// The worst tombstone ratio across all lines. The compaction policy
    /// keeps this strictly below [`COMPACT_TOMBSTONE_RATIO`] after every
    /// operation; the compaction proptest asserts it at quiescence.
    pub fn max_tombstone_ratio(&self) -> f64 {
        occupancy(&self.left).1.max(occupancy(&self.right).1)
    }

    /// Books one performed opposite-memory scan of join `jid`.
    #[inline]
    fn note_scan(&mut self, jid: usize, examined: u64, right_activation: bool) {
        let (tokens, nonempty) = if right_activation {
            (
                &mut self.stats.opp_tokens_right,
                &mut self.stats.opp_nonempty_right,
            )
        } else {
            (
                &mut self.stats.opp_tokens_left,
                &mut self.stats.opp_nonempty_left,
            )
        };
        *tokens += examined;
        *nonempty += (examined > 0) as u64;
        if let Some(p) = &mut self.profile {
            p.scan(jid as JoinId, examined);
        }
        if let Some(h) = &mut self.scan_hist {
            h.record(examined);
        }
    }

    /// A pattern's passing set against one of its right memories: apply
    /// every change to the memory once, then run pass 1 for the readers
    /// linked to it. The left memories — and with them `left_live` and the
    /// linked lists, which only `process_join` updates — are frozen for the
    /// entire alpha walk, so the list read here is the filter
    /// `readers.filter(left_live != 0)` for every change of the set: same
    /// readers, same ascending order. A dead reader is not looked at; the
    /// dead are retired by count. `keys` is scratch: the memory key of each
    /// passing change, shared by every reader.
    fn right_group(
        &mut self,
        net: &Network,
        mem: RightMemId,
        group: &[WmeChange],
        passing: &[u32],
        keys: &mut Vec<u64>,
    ) {
        let (mid, spec) = (mem as usize, &net.right_mems[mem as usize]);
        keys.clear();
        for &ci in passing {
            let change = &group[ci as usize];
            let (w, key) = (&change.wme, spec.key(&change.wme));
            keys.push(key);
            match change.sign {
                Sign::Plus => {
                    self.right[mid].insert(key, w.timetag, 0, w.clone(), std::iter::empty());
                    self.right_live[mid] += 1;
                }
                Sign::Minus => {
                    let (found, examined) =
                        remove_right_entry(&mut self.right[mid], key, w.timetag);
                    self.stats.same_tokens_right += examined;
                    self.stats.same_searches_right += 1;
                    debug_assert!(found, "col delete must find its wme");
                    self.right_live[mid] -= 1;
                }
            }
        }
        debug_assert!(
            self.linked
                .is_the_filter(net, mem, |j| self.left_live[j as usize] != 0),
            "memory {mem}: linked readers are not the live ones"
        );
        let n = passing.len() as u64;
        let (readers, linked) = (spec.readers.len() as u64, self.linked.of(mem).len());
        self.stats.activations += n * readers;
        self.stats.join_activations += n * readers;
        self.stats.null_skipped += n * (readers - linked as u64);
        self.stats.readers_visited += linked as u64;
        if let Some(p) = &mut self.profile {
            p.right_stores(mem, n);
        }
        // Pass 1 mutates no left memory's population, so the list cannot
        // change under the loop; indexing keeps `self` free for the call.
        for i in 0..linked {
            let j = net.join(self.linked.of(mem)[i]);
            for (&ci, &key) in passing.iter().zip(keys.iter()) {
                let change = &group[ci as usize];
                self.right_delta(j, key, change.sign, &change.wme);
            }
        }
    }

    /// Pass 1 of the two-pass split: one right (alpha) delta against the
    /// pre-batch left memory. Called from the alpha walk — left memories
    /// are only mutated by the pass-2 sweep, which runs after the whole
    /// alpha walk, so the left memory seen here *is* the pre-batch one.
    /// Together with pass 2 (left deltas against the post-batch right
    /// memory) every (left, right) pair is counted exactly once: a pair
    /// where both sides changed this batch is seen only by pass 2, a pair
    /// whose right side was deleted only by pass 1. A positive join emits
    /// each pair; a not-node adjusts the frozen entries' blocker counters
    /// and emits each 0-boundary crossing.
    fn right_delta(&mut self, j: &JoinNode, key: u64, sign: Sign, w: &WmeRef) {
        let jid = j.id as usize;
        let mut examined = 0u64;
        if let Some(b) = self.left[jid].line_mut(key) {
            let rvals = (j.tests.len() <= MAX_RESOLVED_TESTS).then(|| {
                let mut vals = [Value::Int(0); MAX_RESOLVED_TESTS];
                for (v, t) in vals.iter_mut().zip(j.tests.iter()) {
                    *v = w.field(t.right_field);
                }
                vals
            });
            for i in 0..b.len() {
                let m = &b.rows[i];
                if !m.alive {
                    continue;
                }
                examined += 1;
                if m.key != key || !left_entry_passes(j, b, i, &rvals, w) {
                    continue;
                }
                let m = &mut b.rows[i];
                let (sign, token) = if !j.negated {
                    (sign, m.handle.extended(w.clone()))
                } else {
                    let crossed = match sign {
                        Sign::Plus => {
                            m.neg += 1;
                            m.neg == 1
                        }
                        Sign::Minus => {
                            debug_assert!(m.neg > 0, "not-node counter underflow");
                            m.neg -= 1;
                            m.neg == 0
                        }
                    };
                    if !crossed {
                        continue;
                    }
                    (sign.flip(), m.handle.clone())
                };
                emit(
                    &j.succs,
                    sign,
                    &token,
                    &mut self.left_deltas,
                    &mut self.dirty,
                    &mut self.out,
                    &mut self.stats,
                );
            }
        }
        self.note_scan(jid, examined, true);
    }

    /// The alpha walk of one class group. Each change asks the class's
    /// constant index for its candidate patterns; the (pattern, change)
    /// pairs, sorted, are the pattern-major sweep: patterns ascending, each
    /// running its test list on its candidate changes only, in submission
    /// order.
    fn alpha_group(
        &mut self,
        net: &Network,
        patterns: &ClassPatterns,
        group: &[WmeChange],
        scratch: &mut AlphaScratch,
    ) {
        let AlphaScratch {
            candidates,
            passing,
            keys,
            singles,
        } = scratch;
        candidates.clear();
        for (ci, change) in group.iter().enumerate() {
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
                if pat.passes(&group[ci as usize].wme, &mut self.stats.alpha_tests) {
                    passing.push(ci);
                }
            }
            if passing.is_empty() {
                continue;
            }
            for &mem in &pat.right_mems {
                self.right_group(net, mem, group, passing, keys);
            }
            for succ in &pat.succs {
                match *succ {
                    AlphaSucc::JoinLeft(j) => {
                        for &ci in passing.iter() {
                            let change = &group[ci as usize];
                            let t = singles[ci as usize]
                                .get_or_insert_with(|| Token::single(change.wme.clone()))
                                .clone();
                            self.left_deltas[j as usize].push((change.sign, t));
                        }
                        mark(&mut self.dirty, j);
                    }
                    // Served through the pattern's right memories above.
                    AlphaSucc::JoinRight(_) => {}
                    AlphaSucc::Terminal(p) => {
                        for &ci in passing.iter() {
                            let change = &group[ci as usize];
                            self.stats.activations += 1;
                            self.stats.cs_changes += 1;
                            let inst = Instantiation {
                                prod: p,
                                wmes: singles[ci as usize]
                                    .get_or_insert_with(|| Token::single(change.wme.clone()))
                                    .clone(),
                            };
                            self.out.push(match change.sign {
                                Sign::Plus => CsChange::Insert(inst),
                                Sign::Minus => CsChange::Remove(inst),
                            });
                        }
                    }
                }
            }
        }
        // The tokens go where they were sent; the scratch keeps no handle.
        singles.clear();
    }

    /// Pass 2 of the two-pass split: the join's accumulated left deltas
    /// (alpha 1-WME tokens and upstream emissions), in emission order,
    /// against the post-batch (settled) right memory it shares.
    fn process_join(&mut self, net: &Network, jid: usize) {
        let j = net.join(jid as u32);
        let mid = j.right_mem as usize;
        let unlink = net.options.unlinking;
        let mut ldeltas = std::mem::take(&mut self.left_deltas[jid]);
        // The sweep never mutates right memories, so the opposite-side live
        // count is invariant across every delta queued for this join.
        let opp_live = self.right_live[mid];
        let n = ldeltas.len() as u64;
        self.stats.activations += n;
        self.stats.join_activations += n;
        if let Some(p) = &mut self.profile {
            p.activations(j.id, n);
        }
        for (sign, t) in ldeltas.drain(..) {
            let key = j.shared_key(&t);
            if sign == Sign::Minus {
                let (neg, examined) = remove_left_entry(&mut self.left[jid], key, &t);
                self.stats.same_tokens_left += examined;
                self.stats.same_searches_left += 1;
                debug_assert!(neg.is_some(), "col delete must find its token");
                self.left_live[jid] -= 1;
                if self.left_live[jid] == 0 {
                    self.linked.unlink(j);
                }
                if j.negated {
                    // The stored count says whether the token was passed on.
                    if neg == Some(0) {
                        emit(
                            &j.succs,
                            Sign::Minus,
                            &t,
                            &mut self.left_deltas,
                            &mut self.dirty,
                            &mut self.out,
                            &mut self.stats,
                        );
                    }
                    continue;
                }
            }
            // Scan the settled right memory: a positive join emits each
            // match, a not-node counts its blockers and the token joins
            // with the final count directly.
            let mut blockers = 0u32;
            if opp_live == 0 && unlink {
                self.stats.null_skipped += 1;
            } else if opp_live == 0 {
                // Null fast path: zero live entries opposite means any
                // line scan would examine nothing — record the empty
                // scan and skip the memory access.
                self.stats.null_activations += 1;
                if let Some(h) = &mut self.scan_hist {
                    h.record(0);
                }
            } else {
                let mut examined = 0u64;
                if let Some(b) = self.right[mid].line(key) {
                    let ops = j.resolve_left(&t);
                    for m in b.rows.iter().filter(|m| m.alive) {
                        examined += 1;
                        if m.key != key || !j.passes_resolved(&ops, &t, &m.handle) {
                            continue;
                        }
                        if j.negated {
                            blockers += 1;
                            continue;
                        }
                        emit(
                            &j.succs,
                            sign,
                            &t.extended(m.handle.clone()),
                            &mut self.left_deltas,
                            &mut self.dirty,
                            &mut self.out,
                            &mut self.stats,
                        );
                    }
                }
                self.note_scan(jid, examined, false);
            }
            if sign == Sign::Plus {
                if j.negated && blockers == 0 {
                    emit(
                        &j.succs,
                        Sign::Plus,
                        &t,
                        &mut self.left_deltas,
                        &mut self.dirty,
                        &mut self.out,
                        &mut self.stats,
                    );
                }
                let cols = j.tests.iter().map(|c| t.value(c.left_ce, c.left_field));
                let tag = t.identity_hash();
                self.left[jid].insert(key, tag, blockers, t.clone(), cols);
                self.left_live[jid] += 1;
                if self.left_live[jid] == 1 {
                    self.linked.link(j);
                }
            }
        }
        self.left_deltas[jid] = ldeltas;
    }
}

impl Matcher for ColMatcher {
    fn submit(&mut self, batch: &ChangeBatch) {
        self.stats.conjugate_pairs += batch.annihilated();
        let net = self.net.clone();
        // Alpha network, whole batch, pattern-major: the group's passing
        // changes are resolved once per pattern, then each right memory
        // and each successor consumes the whole set while its state is
        // cache-hot. Right deltas run pass 1 in place (left memories stay
        // untouched until the sweep); left deltas and emissions queue on
        // their join for the pass-2 sweep. Per-join delta order stays
        // submission order — only interleaving across joins changes,
        // which folding cannot observe.
        let mut alpha = std::mem::take(&mut self.alpha);
        for (class, group) in batch.groups() {
            self.stats.alpha_activations += 1;
            self.stats.wme_changes += group.len() as u64;
            if let Some(patterns) = net.class_patterns(class) {
                self.alpha_group(&net, patterns, group, &mut alpha);
            }
        }
        self.alpha = alpha;
        // One forward sweep over the dirty joins in ascending id order
        // (topological, so every join's delta set is complete when the
        // sweep reaches it; emissions only set bits ahead of the cursor,
        // so re-reading the current word after a join picks them up).
        let mut wi = 0;
        while wi < self.dirty.len() {
            let word = self.dirty[wi];
            if word == 0 {
                wi += 1;
                continue;
            }
            let bit = word.trailing_zeros() as usize;
            self.dirty[wi] &= !(1u64 << bit);
            self.process_join(&net, wi * 64 + bit);
        }
        debug_assert!(self.left_deltas.iter().all(Vec::is_empty));
    }

    fn quiesce(&mut self) -> QuiesceReport {
        debug_assert!(self.left_deltas.iter().all(Vec::is_empty));
        if let Some(p) = &mut self.profile {
            p.flush(&self.net);
        }
        if let Some(h) = &mut self.scan_hist {
            h.flush();
        }
        QuiesceReport {
            cs_changes: std::mem::take(&mut self.out),
            stats_delta: self.delta.take(self.stats),
            phase: None,
        }
    }

    fn stats(&self) -> MatchStats {
        self.stats
    }

    fn reset_stats(&mut self) {
        self.stats = MatchStats::default();
        self.delta.reset();
    }

    fn name(&self) -> &'static str {
        "col"
    }

    fn enable_obs(&mut self, registry: &Arc<obs::Registry>) {
        if self.profile.is_none() {
            self.profile = Some(BufferedProfile::new(&self.net));
        }
        if self.scan_hist.is_none() {
            self.scan_hist = Some(ScanHist {
                shared: registry.histogram("col_bucket_scan_len", vec![]),
                counts: [0; obs::N_BUCKETS],
                sums: [0; obs::N_BUCKETS],
            });
        }
    }

    fn node_profile(&self) -> Option<Arc<obs::NodeProfile>> {
        self.profile.as_ref().map(|p| p.shared.clone())
    }
}

/// Factory helper returning a boxed matcher (table-driven harnesses).
pub fn boxed_col(net: Arc<Network>) -> Box<dyn Matcher> {
    Box::new(ColMatcher::new(net))
}
#[cfg(test)]
mod tests {
    use super::*;
    use crate::seq::boxed_vs2;
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
        assert!(col.max_tombstone_ratio() < COMPACT_TOMBSTONE_RATIO);
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

    /// A reader goes dead → live → dead inside one batch. Pass 1 reads the
    /// frozen pre-batch lists (`+c` finds J1 dead and is right: the token it
    /// could pair with arrives in pass 2, which scans the settled memory);
    /// pass 2 links J1 for `+(a, b)` and unlinks it for `-(a, b)` in one
    /// `process_join`, so the next batch's `+c` looks at nobody.
    #[test]
    fn a_reader_goes_dead_live_dead_inside_one_batch() {
        let src = "(p q (a ^x <v>) (b ^y <v>) (c ^z <v>) --> (halt))";
        let (mut prog, net) = net_of(src);
        assert_eq!((net.n_joins(), net.right_mems.len()), (2, 2));
        let mut w = |class, tag| wme(&mut prog, class, vec![Value::Int(1)], tag);
        let (a1, b1, c1, c2) = (w("a", 1), w("b", 2), w("c", 3), w("c", 4));

        let mut m = ColMatcher::new(net);
        m.submit(&ChangeBatch::single(change(Sign::Plus, a1.clone())));
        assert_eq!(m.linked_readers(), [vec![0], vec![]]);
        let batch: ChangeBatch = [
            change(Sign::Plus, b1),
            change(Sign::Plus, c1),
            change(Sign::Minus, a1),
        ]
        .into_iter()
        .collect();
        m.submit(&batch);
        let mut state = std::collections::BTreeSet::new();
        let cs = m.quiesce().cs_changes;
        assert_eq!(cs.len(), 2, "+(a, b, c) then -(a, b, c): {cs:?}");
        assert!(fold_keys(&mut state, cs).is_empty());
        let live = crate::readers::live_readers(m.network(), |j| m.left_entries(j) != 0);
        assert_eq!(m.linked_readers(), live);
        assert_eq!(m.linked_readers(), [vec![], vec![]]);
        // J0 ran for `+b`; `+c` met J1 dead, in this batch and the next.
        let s = m.stats();
        assert_eq!((s.readers_visited, s.null_skipped), (1, 1));
        m.submit(&ChangeBatch::single(change(Sign::Plus, c2)));
        let s = m.stats();
        assert_eq!((s.readers_visited, s.null_skipped), (1, 2));
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

    #[test]
    fn compaction_keeps_ratio_below_threshold() {
        let src = "(p q (a ^x <v>) (b ^y <w>) --> (halt))";
        let (mut prog, net) = net_of(src);
        let mut m = ColMatcher::new(net);
        // Fill one cross-product bucket, then delete most of it.
        let mut adds = ChangeBatch::new();
        for i in 0..32 {
            adds.push(change(
                Sign::Plus,
                wme(&mut prog, "b", vec![Value::Int(i)], i as u64 + 1),
            ));
        }
        m.submit(&adds);
        m.quiesce();
        for i in 0..30 {
            let b = ChangeBatch::single(change(
                Sign::Minus,
                wme(&mut prog, "b", vec![Value::Int(i)], i as u64 + 1),
            ));
            m.submit(&b);
            assert!(
                m.max_tombstone_ratio() < COMPACT_TOMBSTONE_RATIO,
                "ratio {} after delete {i}",
                m.max_tombstone_ratio()
            );
        }
        m.quiesce();
        assert_eq!(m.memory_entries(), 2);
    }

    #[test]
    fn unlinking_gate_skips_null_scans() {
        let src = "(p q (a ^x <v>) (b ^y <v>) --> (halt))";
        let prog = Program::from_source(src).unwrap();
        let net = Arc::new(
            Network::compile_with(
                &prog,
                crate::network::NetworkOptions {
                    sharing: false,
                    unlinking: true,
                },
            )
            .unwrap(),
        );
        let mut prog = prog;
        let mut m = ColMatcher::new(net);
        let wb = wme(&mut prog, "b", vec![Value::Int(1)], 1);
        m.submit(&ChangeBatch::single(change(Sign::Plus, wb)));
        m.quiesce();
        assert_eq!(m.stats().null_skipped, 1);
        assert_eq!(m.stats().null_activations, 0);
        let wa = wme(&mut prog, "a", vec![Value::Int(1)], 2);
        m.submit(&ChangeBatch::single(change(Sign::Plus, wa)));
        let cs = m.quiesce().cs_changes;
        assert_eq!(cs.len(), 1, "relinked scan finds the pair");
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
        let snap = reg.snapshot();
        let (_, hist) = snap
            .histograms()
            .find(|(n, _)| *n == "col_bucket_scan_len")
            .expect("histogram registered");
        hist.validate().unwrap();
        assert!(hist.count > 0);
    }
}
