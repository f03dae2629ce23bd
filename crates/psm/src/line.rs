//! Hash-table lines: the shared token memories and their locks (§3.2).
//!
//! A *line* is a pair of corresponding buckets (same hash index) of the
//! global left and right token tables, together with their extra-deletes
//! lists. Any single node activation touches exactly one line (paper
//! footnote 4), which makes the line the locking granule.
//!
//! Two lock schemes, as in the paper:
//!
//! * **Simple** — one exclusive TTAS spin lock per line, held for the whole
//!   activation.
//! * **MRSW** — the multiple-reader-single-writer protocol: a per-line flag
//!   (`Unused`/`Left`/`Right`) plus user counter behind an entry lock, and a
//!   reader-writer lock for the token lists. A process finding the line in
//!   use by the *other* side puts its token back on the task queue; same-side
//!   processes proceed concurrently, serializing only destructive list
//!   modifications.
//!
//! **Conjugate token pairs**: a `−` token whose `+` has not arrived yet
//! parks on the line's extra-deletes list; the matching `+` annihilates it
//! without inserting or propagating (§3.2).

use crate::sync::{RwReadGuard, RwSpinLock, RwWriteGuard, SpinLock};
use ops5::{Wme, WmeRef};
use rete::network::JoinNode;
use rete::token::Token;

/// Which input of a two-input node an activation arrived on.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Side {
    Left,
    Right,
}

/// Lock scheme selection (Tables 4-5/4-6 vs Table 4-8).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub enum LockScheme {
    #[default]
    Simple,
    Mrsw,
}

struct LeftEntry {
    join: u32,
    key: u64,
    token: Token,
    neg_count: u32,
}

struct RightEntry {
    join: u32,
    key: u64,
    wme: WmeRef,
}

/// One line's storage: left bucket, right bucket, extra-deletes lists.
#[derive(Default)]
pub struct ParLine {
    left: Vec<LeftEntry>,
    right: Vec<RightEntry>,
    extra_del_left: Vec<(u32, u64, Token)>,
    extra_del_right: Vec<(u32, u64, WmeRef)>,
}

/// Outcome of applying a `+` token to a memory.
#[derive(Debug, PartialEq, Eq)]
pub enum PlusOutcome {
    /// Normal insertion.
    Inserted,
    /// A parked `−` was waiting: both discarded (conjugate pair).
    Annihilated,
}

/// Outcome of applying a `−` token to a memory.
#[derive(Debug, PartialEq, Eq)]
pub enum MinusOutcome {
    /// Entry found and removed; `neg_count` is the stored not-node counter.
    Removed { neg_count: u32, examined: u64 },
    /// No entry yet — parked on the extra-deletes list.
    Parked,
}

impl ParLine {
    /// Applies a `+` token to the left memory of `j`.
    pub fn left_plus(
        &mut self,
        j: &JoinNode,
        key: u64,
        token: &Token,
        neg_count: u32,
    ) -> PlusOutcome {
        if let Some(i) = self
            .extra_del_left
            .iter()
            .position(|(jj, kk, t)| *jj == j.id && *kk == key && t.same_wmes(token))
        {
            self.extra_del_left.swap_remove(i);
            return PlusOutcome::Annihilated;
        }
        self.left.push(LeftEntry {
            join: j.id,
            key,
            token: token.clone(),
            neg_count,
        });
        PlusOutcome::Inserted
    }

    /// Applies a `−` token to the left memory of `j`.
    pub fn left_minus(&mut self, j: &JoinNode, key: u64, token: &Token) -> MinusOutcome {
        let mut examined = 0u64;
        for i in 0..self.left.len() {
            let e = &self.left[i];
            if e.join != j.id {
                continue;
            }
            examined += 1;
            if e.key == key && e.token.same_wmes(token) {
                let e = self.left.swap_remove(i);
                return MinusOutcome::Removed {
                    neg_count: e.neg_count,
                    examined,
                };
            }
        }
        self.extra_del_left.push((j.id, key, token.clone()));
        MinusOutcome::Parked
    }

    /// Applies a `+` WME to the right memory of `j`.
    pub fn right_plus(&mut self, j: &JoinNode, key: u64, wme: &WmeRef) -> PlusOutcome {
        if let Some(i) = self
            .extra_del_right
            .iter()
            .position(|(jj, kk, w)| *jj == j.id && *kk == key && w.timetag == wme.timetag)
        {
            self.extra_del_right.swap_remove(i);
            return PlusOutcome::Annihilated;
        }
        self.right.push(RightEntry {
            join: j.id,
            key,
            wme: wme.clone(),
        });
        PlusOutcome::Inserted
    }

    /// Applies a `−` WME to the right memory of `j`.
    pub fn right_minus(&mut self, j: &JoinNode, key: u64, wme: &WmeRef) -> MinusOutcome {
        let mut examined = 0u64;
        for i in 0..self.right.len() {
            let e = &self.right[i];
            if e.join != j.id {
                continue;
            }
            examined += 1;
            if e.key == key && e.wme.timetag == wme.timetag {
                self.right.swap_remove(i);
                return MinusOutcome::Removed {
                    neg_count: 0,
                    examined,
                };
            }
        }
        self.extra_del_right.push((j.id, key, wme.clone()));
        MinusOutcome::Parked
    }

    /// Right-memory WMEs pairing with `token` under the join tests,
    /// appended to `out` (cleared first). Returns tokens examined. The
    /// caller owns `out` so the scan allocates nothing in steady state.
    pub fn scan_right(&self, j: &JoinNode, key: u64, token: &Token, out: &mut Vec<WmeRef>) -> u64 {
        out.clear();
        let ops = j.resolve_left(token);
        let mut examined = 0u64;
        for e in &self.right {
            if e.join != j.id {
                continue;
            }
            examined += 1;
            if e.key == key && j.passes_resolved(&ops, token, &e.wme) {
                out.push(e.wme.clone());
            }
        }
        examined
    }

    /// Left-memory tokens pairing with `wme` under the join tests,
    /// appended to `out` (cleared first). Returns tokens examined.
    pub fn scan_left(&self, j: &JoinNode, key: u64, wme: &Wme, out: &mut Vec<Token>) -> u64 {
        out.clear();
        let mut examined = 0u64;
        for e in &self.left {
            if e.join != j.id {
                continue;
            }
            examined += 1;
            if e.key == key && j.passes(&e.token, wme) {
                out.push(e.token.clone());
            }
        }
        examined
    }

    /// Not-node counter maintenance for a right activation: bump matching
    /// left entries by `delta`, appending tokens that crossed 0 to `out`
    /// (cleared first). Returns tokens examined.
    pub fn adjust_left_counts(
        &mut self,
        j: &JoinNode,
        key: u64,
        wme: &Wme,
        delta: i32,
        out: &mut Vec<Token>,
    ) -> u64 {
        out.clear();
        let mut examined = 0u64;
        for e in self.left.iter_mut() {
            if e.join != j.id {
                continue;
            }
            examined += 1;
            if e.key == key && j.passes(&e.token, wme) {
                if delta > 0 {
                    e.neg_count += 1;
                    if e.neg_count == 1 {
                        out.push(e.token.clone());
                    }
                } else {
                    debug_assert!(e.neg_count > 0, "not-node counter underflow");
                    e.neg_count = e.neg_count.saturating_sub(1);
                    if e.neg_count == 0 {
                        out.push(e.token.clone());
                    }
                }
            }
        }
        examined
    }

    /// Matching right-memory WME count for a not-node left activation.
    pub fn count_right(&self, j: &JoinNode, key: u64, token: &Token) -> (u32, u64) {
        let ops = j.resolve_left(token);
        let mut n = 0u32;
        let mut examined = 0u64;
        for e in &self.right {
            if e.join != j.id {
                continue;
            }
            examined += 1;
            if e.key == key && j.passes_resolved(&ops, token, &e.wme) {
                n += 1;
            }
        }
        (n, examined)
    }

    /// Entries stored (for quiescence invariants in tests).
    pub fn entries(&self) -> usize {
        self.left.len() + self.right.len()
    }

    /// Parked extra-deletes (must be empty at quiescence).
    pub fn parked(&self) -> usize {
        self.extra_del_left.len() + self.extra_del_right.len()
    }
}

// --------------------------------------------------------------- line locks

const FLAG_UNUSED: u8 = 0;
const FLAG_LEFT: u8 = 1;
const FLAG_RIGHT: u8 = 2;

struct EntryState {
    flag: u8,
    count: u32,
}

/// A line and its lock, in the configured scheme only.
pub enum LineLock {
    /// One exclusive spin lock, held for the whole activation.
    Simple(SpinLock<ParLine>),
    /// The multiple-reader-single-writer protocol.
    Mrsw(MrswLine),
}

impl LineLock {
    pub fn new(scheme: LockScheme) -> LineLock {
        match scheme {
            LockScheme::Simple => LineLock::Simple(SpinLock::new(ParLine::default())),
            LockScheme::Mrsw => LineLock::Mrsw(MrswLine::default()),
        }
    }

    /// Entries stored and parked on the line (tests / invariant checks).
    pub fn peek_entries(&self) -> (usize, usize) {
        let count = |l: &ParLine| (l.entries(), l.parked());
        match self {
            LineLock::Simple(l) => count(&l.lock()),
            LineLock::Mrsw(l) => count(&l.read()),
        }
    }
}

/// An MRSW line: the entry lock over the side flag and user count, and the
/// reader-writer lock over the lists.
pub struct MrswLine {
    entry: SpinLock<EntryState>,
    data: RwSpinLock<ParLine>,
}

impl Default for MrswLine {
    fn default() -> Self {
        MrswLine {
            entry: SpinLock::new(EntryState {
                flag: FLAG_UNUSED,
                count: 0,
            }),
            data: RwSpinLock::new(ParLine::default()),
        }
    }
}

impl MrswLine {
    /// First phase of the MRSW protocol: try to claim the line for `side`.
    /// Returns `(entered, spins_on_entry_lock)`; on `false` the caller must
    /// requeue the token.
    pub fn try_enter(&self, side: Side) -> (bool, u64) {
        let mut st = self.entry.lock();
        let spins = st.spins;
        let want = match side {
            Side::Left => FLAG_LEFT,
            Side::Right => FLAG_RIGHT,
        };
        if st.flag == FLAG_UNUSED {
            st.flag = want;
            st.count = 1;
            (true, spins)
        } else if st.flag == want {
            st.count += 1;
            (true, spins)
        } else {
            (false, spins)
        }
    }

    /// Last phase: release the claim; the last user resets the flag.
    pub fn exit(&self) {
        let mut st = self.entry.lock();
        debug_assert!(st.count > 0);
        st.count -= 1;
        if st.count == 0 {
            st.flag = FLAG_UNUSED;
        }
    }

    /// Modification lock (serializes destructive list updates).
    pub fn write(&self) -> RwWriteGuard<'_, ParLine> {
        self.data.write()
    }

    /// Shared read access for scanning the opposite memory.
    pub fn read(&self) -> RwReadGuard<'_, ParLine> {
        self.data.read()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use ops5::{Program, Value, Wme};
    use rete::network::Network;

    fn join() -> (ops5::SymbolId, ops5::SymbolId, JoinNode) {
        let mut prog = Program::from_source("(p q (a ^x <v>) (b ^y <v>) --> (halt))").unwrap();
        let net = Network::compile(&prog).unwrap();
        let ca = prog.symbols.intern("a");
        let cb = prog.symbols.intern("b");
        (ca, cb, net.join(0).clone())
    }

    #[test]
    fn conjugate_pair_left() {
        let (ca, _, j) = join();
        let mut line = ParLine::default();
        let tok = Token::single(Wme::new(ca, vec![Value::Int(1)], 1));
        let key = j.left_key(&tok);
        // Minus first: parks.
        assert_eq!(line.left_minus(&j, key, &tok), MinusOutcome::Parked);
        assert_eq!(line.parked(), 1);
        // Plus finds the parked minus: both annihilate.
        assert_eq!(line.left_plus(&j, key, &tok, 0), PlusOutcome::Annihilated);
        assert_eq!(line.parked(), 0);
        assert_eq!(line.entries(), 0);
    }

    #[test]
    fn conjugate_pair_right() {
        let (_, cb, j) = join();
        let mut line = ParLine::default();
        let w = Wme::new(cb, vec![Value::Int(1)], 2);
        let key = j.right_key(&w);
        assert_eq!(line.right_minus(&j, key, &w), MinusOutcome::Parked);
        assert_eq!(line.right_plus(&j, key, &w), PlusOutcome::Annihilated);
        assert_eq!(line.entries() + line.parked(), 0);
    }

    #[test]
    fn in_order_plus_minus() {
        let (ca, _, j) = join();
        let mut line = ParLine::default();
        let tok = Token::single(Wme::new(ca, vec![Value::Int(1)], 1));
        let key = j.left_key(&tok);
        assert_eq!(line.left_plus(&j, key, &tok, 0), PlusOutcome::Inserted);
        match line.left_minus(&j, key, &tok) {
            MinusOutcome::Removed { neg_count: 0, .. } => {}
            other => panic!("{other:?}"),
        }
        assert_eq!(line.entries(), 0);
    }

    #[test]
    fn scan_respects_join_and_key() {
        let (ca, cb, j) = join();
        let mut line = ParLine::default();
        let w1 = Wme::new(cb, vec![Value::Int(1)], 1);
        let w2 = Wme::new(cb, vec![Value::Int(2)], 2);
        line.right_plus(&j, j.right_key(&w1), &w1);
        line.right_plus(&j, j.right_key(&w2), &w2);
        let tok = Token::single(Wme::new(ca, vec![Value::Int(1)], 3));
        let mut m = Vec::new();
        let examined = line.scan_right(&j, j.left_key(&tok), &tok, &mut m);
        assert_eq!(m.len(), 1);
        assert_eq!(m[0].timetag, 1);
        // Both entries share the line only if their keys collide in a real
        // table; here we inserted both into one ParLine, so both examined.
        assert_eq!(examined, 2);
    }

    #[test]
    fn mrsw_same_side_concurrent_opposite_requeued() {
        let l = MrswLine::default();
        let (ok, _) = l.try_enter(Side::Left);
        assert!(ok);
        let (ok2, _) = l.try_enter(Side::Left);
        assert!(ok2, "same side may share the line");
        let (ok3, _) = l.try_enter(Side::Right);
        assert!(!ok3, "opposite side must requeue");
        l.exit();
        let (ok4, _) = l.try_enter(Side::Right);
        assert!(!ok4, "still one left user");
        l.exit();
        let (ok5, _) = l.try_enter(Side::Right);
        assert!(ok5, "line free again");
        l.exit();
    }

    #[test]
    fn simple_lock_is_exclusive() {
        let LineLock::Simple(l) = LineLock::new(LockScheme::Simple) else {
            panic!("the simple scheme builds a simple line");
        };
        let g = l.lock();
        drop(g);
        let _g2 = l.lock();
    }

    #[test]
    fn adjust_counts_cross_zero() {
        let prog = Program::from_source("(p q (a ^x <v>) - (b ^y <v>) --> (halt))").unwrap();
        let net = Network::compile(&prog).unwrap();
        let j = net.join(0).clone();
        let mut prog = prog;
        let ca = prog.symbols.intern("a");
        let cb = prog.symbols.intern("b");
        let mut line = ParLine::default();
        let tok = Token::single(Wme::new(ca, vec![Value::Int(1)], 1));
        line.left_plus(&j, j.left_key(&tok), &tok, 0);
        let w = Wme::new(cb, vec![Value::Int(1)], 2);
        let key = j.right_key(&w);
        let mut c = Vec::new();
        line.adjust_left_counts(&j, key, &w, 1, &mut c);
        assert_eq!(c.len(), 1, "0→1 crossing");
        line.adjust_left_counts(&j, key, &w, -1, &mut c);
        assert_eq!(c.len(), 1, "1→0 crossing");
    }
}
