//! Token memories: per-join linear lists (*vs1*) and the two global hash
//! tables (*vs2*).
//!
//! The matcher sees one interface, [`TokenMem`]; the two implementations
//! reproduce the paper's uniprocessor versions:
//!
//! * [`ListMem`] — vs1: every join keeps its left tokens and right WMEs in
//!   plain vectors, "just as uniprocessor lisp implementations do". Every
//!   scan examines the entire opposite memory; every delete searches the
//!   entire same memory.
//! * [`HashMem`] — vs2: two global hash tables hold all left tokens and all
//!   right WMEs for the whole network. The key covers the join id and the
//!   values under the join's equality tests, so a scan only examines the
//!   entries of one bucket (a "line"). Joins without equality tests (the
//!   cross-product case) hash on the join id alone and degenerate to the
//!   list behaviour — the Tourney pathology.
//!
//! Hot-path contract: the caller computes the activation's bucket key once
//! (via [`TokenMem::left_key`]/[`TokenMem::right_key`]) and threads it
//! through every operation of that activation, so vs2 hashes once per
//! activation instead of once per operation. Scans append matches into a
//! caller-owned scratch buffer instead of allocating a fresh `Vec`, so a
//! steady-state node activation performs no heap allocation in the memory
//! layer. Every operation still reports how many tokens it *examined*, the
//! raw data for Tables 4-2 and 4-3.

use crate::network::JoinNode;
use crate::token::Token;
use ops5::{Wme, WmeRef};

/// Which memory implementation a matcher uses.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum MemoryKind {
    /// vs1 — per-join linear lists.
    List,
    /// vs2 — global left/right hash tables.
    Hash(HashMemConfig),
}

/// Configuration for the global hash tables.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct HashMemConfig {
    /// Bucket count per table; rounded up to a power of two.
    pub buckets: usize,
}

impl Default for HashMemConfig {
    fn default() -> Self {
        // "Two large hash tables which hold all the tokens for the entire
        // network": with hundreds of rules the tables hold tens of
        // thousands of entries, and bucket sharing between joins costs
        // skip-scans, so size generously.
        HashMemConfig { buckets: 16384 }
    }
}

/// Work counters of a scan of the opposite memory (matches go into the
/// caller's scratch buffer).
#[derive(Debug, Clone, Copy)]
pub struct ScanStats {
    /// Tokens examined in the opposite memory.
    pub examined: u64,
    /// Whether the opposite memory contained any candidate for this join.
    pub nonempty: bool,
}

/// Result of a delete search in the same memory.
pub struct Removed<T> {
    pub entry: Option<T>,
    /// Tokens examined before the target was found.
    pub examined: u64,
}

/// Storage interface shared by vs1 and vs2.
///
/// `key` arguments are the activation's bucket key, computed once via
/// [`TokenMem::left_key`] (left activations) or [`TokenMem::right_key`]
/// (right activations) and reused for the removes, inserts, and scans of
/// that activation. [`ListMem`] has no buckets and returns 0.
pub trait TokenMem {
    /// The canonical matcher-variant name this memory kind implements
    /// ("vs1" for linear lists, "vs2" for the hashed lines). Surfaced as
    /// `SeqMatcher::name()` so every matcher kind reports a distinct name.
    fn kind_name(&self) -> &'static str;

    /// Bucket key for a token entering this join's left memory.
    fn left_key(&self, j: &JoinNode, token: &Token) -> u64;

    /// Bucket key for a WME entering this join's right memory.
    fn right_key(&self, j: &JoinNode, wme: &Wme) -> u64;

    /// Insert a token into the join's left memory. `neg_count` is the
    /// matching-WME counter for not-nodes (0 for positive joins).
    fn insert_left(&mut self, j: &JoinNode, key: u64, token: Token, neg_count: u32);

    /// Remove a token (by WME identity) from the left memory, returning its
    /// stored `neg_count`.
    fn remove_left(&mut self, j: &JoinNode, key: u64, token: &Token) -> Removed<u32>;

    fn insert_right(&mut self, j: &JoinNode, key: u64, wme: WmeRef);

    fn remove_right(&mut self, j: &JoinNode, key: u64, wme: &Wme) -> Removed<()>;

    /// Right-memory WMEs pairing with `token` under the join tests,
    /// appended to `out` (cleared first).
    fn scan_right(&self, j: &JoinNode, key: u64, token: &Token, out: &mut Vec<WmeRef>)
        -> ScanStats;

    /// Left-memory tokens pairing with `wme` under the join tests
    /// (positive joins), appended to `out` (cleared first).
    fn scan_left(&self, j: &JoinNode, key: u64, wme: &Wme, out: &mut Vec<Token>) -> ScanStats;

    /// Not-node right activation: bump every matching left entry's counter
    /// by `delta` (+1/-1) and append the tokens whose counter crossed the
    /// 0 boundary (0→1 on insert, 1→0 on delete) to `out` (cleared first).
    fn adjust_left_counts(
        &mut self,
        j: &JoinNode,
        key: u64,
        wme: &Wme,
        delta: i32,
        out: &mut Vec<Token>,
    ) -> ScanStats;

    /// Not-node left activation: count matching right WMEs.
    fn count_right(&self, j: &JoinNode, key: u64, token: &Token) -> (u32, ScanStats);

    /// Entries stored network-wide in the join's left memory — the
    /// emptiness gate for right-activation unlinking. 0 means any left
    /// scan of this join is a null activation.
    fn left_count(&self, j: &JoinNode) -> u32;

    /// Entries stored network-wide in the join's right memory — the
    /// emptiness gate for left-activation unlinking.
    fn right_count(&self, j: &JoinNode) -> u32;

    /// Total stored entries (diagnostics / invariant checks).
    fn total_entries(&self) -> usize;
}

// ---------------------------------------------------------------- vs1: lists

struct ListLeftEntry {
    token: Token,
    neg_count: u32,
}

/// vs1 memories: one vector pair per join.
pub struct ListMem {
    left: Vec<Vec<ListLeftEntry>>,
    right: Vec<Vec<WmeRef>>,
}

impl ListMem {
    pub fn new(n_joins: usize) -> ListMem {
        ListMem {
            left: (0..n_joins).map(|_| Vec::new()).collect(),
            right: (0..n_joins).map(|_| Vec::new()).collect(),
        }
    }
}

impl TokenMem for ListMem {
    fn kind_name(&self) -> &'static str {
        "vs1"
    }

    fn left_key(&self, _j: &JoinNode, _token: &Token) -> u64 {
        0
    }

    fn right_key(&self, _j: &JoinNode, _wme: &Wme) -> u64 {
        0
    }

    fn insert_left(&mut self, j: &JoinNode, _key: u64, token: Token, neg_count: u32) {
        self.left[j.id as usize].push(ListLeftEntry { token, neg_count });
    }

    fn remove_left(&mut self, j: &JoinNode, _key: u64, token: &Token) -> Removed<u32> {
        let mem = &mut self.left[j.id as usize];
        for (i, e) in mem.iter().enumerate() {
            if e.token.same_wmes(token) {
                let e = mem.swap_remove(i);
                return Removed {
                    entry: Some(e.neg_count),
                    examined: (i + 1) as u64,
                };
            }
        }
        Removed {
            entry: None,
            examined: mem.len() as u64,
        }
    }

    fn insert_right(&mut self, j: &JoinNode, _key: u64, wme: WmeRef) {
        self.right[j.id as usize].push(wme);
    }

    fn remove_right(&mut self, j: &JoinNode, _key: u64, wme: &Wme) -> Removed<()> {
        let mem = &mut self.right[j.id as usize];
        for (i, w) in mem.iter().enumerate() {
            if w.timetag == wme.timetag {
                mem.swap_remove(i);
                return Removed {
                    entry: Some(()),
                    examined: (i + 1) as u64,
                };
            }
        }
        Removed {
            entry: None,
            examined: mem.len() as u64,
        }
    }

    fn scan_right(
        &self,
        j: &JoinNode,
        _key: u64,
        token: &Token,
        out: &mut Vec<WmeRef>,
    ) -> ScanStats {
        out.clear();
        let mem = &self.right[j.id as usize];
        let ops = j.resolve_left(token);
        for w in mem {
            if j.passes_resolved(&ops, token, w) {
                out.push(w.clone());
            }
        }
        ScanStats {
            examined: mem.len() as u64,
            nonempty: !mem.is_empty(),
        }
    }

    fn scan_left(&self, j: &JoinNode, _key: u64, wme: &Wme, out: &mut Vec<Token>) -> ScanStats {
        out.clear();
        let mem = &self.left[j.id as usize];
        for e in mem {
            if j.passes(&e.token, wme) {
                out.push(e.token.clone());
            }
        }
        ScanStats {
            examined: mem.len() as u64,
            nonempty: !mem.is_empty(),
        }
    }

    fn adjust_left_counts(
        &mut self,
        j: &JoinNode,
        _key: u64,
        wme: &Wme,
        delta: i32,
        out: &mut Vec<Token>,
    ) -> ScanStats {
        out.clear();
        let mem = &mut self.left[j.id as usize];
        for e in mem.iter_mut() {
            if j.passes(&e.token, wme) {
                if delta > 0 {
                    e.neg_count += 1;
                    if e.neg_count == 1 {
                        out.push(e.token.clone());
                    }
                } else {
                    debug_assert!(e.neg_count > 0, "not-node counter underflow");
                    e.neg_count -= 1;
                    if e.neg_count == 0 {
                        out.push(e.token.clone());
                    }
                }
            }
        }
        ScanStats {
            examined: mem.len() as u64,
            nonempty: !mem.is_empty(),
        }
    }

    fn count_right(&self, j: &JoinNode, _key: u64, token: &Token) -> (u32, ScanStats) {
        let mem = &self.right[j.id as usize];
        let ops = j.resolve_left(token);
        let n = mem
            .iter()
            .filter(|w| j.passes_resolved(&ops, token, w))
            .count() as u32;
        let scan = ScanStats {
            examined: mem.len() as u64,
            nonempty: !mem.is_empty(),
        };
        (n, scan)
    }

    fn left_count(&self, j: &JoinNode) -> u32 {
        self.left[j.id as usize].len() as u32
    }

    fn right_count(&self, j: &JoinNode) -> u32 {
        self.right[j.id as usize].len() as u32
    }

    fn total_entries(&self) -> usize {
        self.left.iter().map(Vec::len).sum::<usize>()
            + self.right.iter().map(Vec::len).sum::<usize>()
    }
}

// ----------------------------------------------------------- vs2: hash lines

struct HashLeftEntry {
    join: u32,
    key: u64,
    token: Token,
    neg_count: u32,
}

struct HashRightEntry {
    join: u32,
    key: u64,
    wme: WmeRef,
}

/// One line: the same-index buckets of the left and the right table, side
/// by side. An activation touches both — it inserts into or removes from
/// one and scans the other — and the table is one allocation: as two
/// half-size ones, glibc handed the pair back to the OS whenever a served
/// session closed and the next `OPEN` faulted ~160 pages in again.
#[derive(Default)]
struct HashLine {
    left: Vec<HashLeftEntry>,
    right: Vec<HashRightEntry>,
}

/// vs2 memories: the two global hash tables of §3.2.
///
/// A "line" is the pair of same-index buckets of the left and right tables;
/// any single node activation touches exactly one line. The bucket index of
/// an entry is `key & mask`, where the key hashes the join id and the values
/// covered by the join's equality tests. Each entry stores its key, so
/// probes compare one cached word before touching token identity.
pub struct HashMem {
    lines: Vec<HashLine>,
    mask: u64,
    /// Per-join entry counts, one slot per join of the network: the
    /// buckets interleave joins, so per-join emptiness must be maintained,
    /// not derived.
    left_counts: Vec<u32>,
    right_counts: Vec<u32>,
}

#[inline]
fn bump(counts: &mut [u32], join: u32, delta: i32) {
    let c = &mut counts[join as usize];
    if delta > 0 {
        *c += 1;
    } else {
        debug_assert!(*c > 0, "memory count underflow for join {join}");
        *c -= 1;
    }
}

impl HashMem {
    /// Tables for a network of `n_joins` joins (join ids index the per-join
    /// counters directly, as they index [`ListMem`]'s vectors).
    pub fn new(cfg: HashMemConfig, n_joins: usize) -> HashMem {
        let n = cfg.buckets.next_power_of_two().max(2);
        HashMem {
            lines: (0..n).map(|_| HashLine::default()).collect(),
            mask: (n - 1) as u64,
            left_counts: vec![0; n_joins],
            right_counts: vec![0; n_joins],
        }
    }

    /// Line index for a key — exposed so the parallel matcher and the
    /// Multimax simulator use identical line geometry.
    #[inline]
    pub fn line_of(&self, key: u64) -> usize {
        (key & self.mask) as usize
    }

    pub fn n_lines(&self) -> usize {
        self.lines.len()
    }
}

impl TokenMem for HashMem {
    fn kind_name(&self) -> &'static str {
        "vs2"
    }

    fn left_key(&self, j: &JoinNode, token: &Token) -> u64 {
        j.left_key(token)
    }

    fn right_key(&self, j: &JoinNode, wme: &Wme) -> u64 {
        j.right_key(wme)
    }

    fn insert_left(&mut self, j: &JoinNode, key: u64, token: Token, neg_count: u32) {
        let b = self.line_of(key);
        self.lines[b].left.push(HashLeftEntry {
            join: j.id,
            key,
            token,
            neg_count,
        });
        bump(&mut self.left_counts, j.id, 1);
    }

    fn remove_left(&mut self, j: &JoinNode, key: u64, token: &Token) -> Removed<u32> {
        let b = self.line_of(key);
        let mem = &mut self.lines[b].left;
        let mut examined = 0u64;
        for i in 0..mem.len() {
            let e = &mem[i];
            if e.join != j.id {
                continue;
            }
            examined += 1;
            if e.key == key && e.token.same_wmes(token) {
                let e = mem.swap_remove(i);
                bump(&mut self.left_counts, j.id, -1);
                return Removed {
                    entry: Some(e.neg_count),
                    examined,
                };
            }
        }
        Removed {
            entry: None,
            examined,
        }
    }

    fn insert_right(&mut self, j: &JoinNode, key: u64, wme: WmeRef) {
        let b = self.line_of(key);
        self.lines[b].right.push(HashRightEntry {
            join: j.id,
            key,
            wme,
        });
        bump(&mut self.right_counts, j.id, 1);
    }

    fn remove_right(&mut self, j: &JoinNode, key: u64, wme: &Wme) -> Removed<()> {
        let b = self.line_of(key);
        let mem = &mut self.lines[b].right;
        let mut examined = 0u64;
        for i in 0..mem.len() {
            let e = &mem[i];
            if e.join != j.id {
                continue;
            }
            examined += 1;
            if e.key == key && e.wme.timetag == wme.timetag {
                mem.swap_remove(i);
                bump(&mut self.right_counts, j.id, -1);
                return Removed {
                    entry: Some(()),
                    examined,
                };
            }
        }
        Removed {
            entry: None,
            examined,
        }
    }

    fn scan_right(
        &self,
        j: &JoinNode,
        key: u64,
        token: &Token,
        out: &mut Vec<WmeRef>,
    ) -> ScanStats {
        out.clear();
        let mem = &self.lines[self.line_of(key)].right;
        let ops = j.resolve_left(token);
        let mut examined = 0u64;
        for e in mem {
            if e.join != j.id {
                continue;
            }
            examined += 1;
            if e.key == key && j.passes_resolved(&ops, token, &e.wme) {
                out.push(e.wme.clone());
            }
        }
        ScanStats {
            examined,
            nonempty: examined > 0,
        }
    }

    fn scan_left(&self, j: &JoinNode, key: u64, wme: &Wme, out: &mut Vec<Token>) -> ScanStats {
        out.clear();
        let mem = &self.lines[self.line_of(key)].left;
        let mut examined = 0u64;
        for e in mem {
            if e.join != j.id {
                continue;
            }
            examined += 1;
            if e.key == key && j.passes(&e.token, wme) {
                out.push(e.token.clone());
            }
        }
        ScanStats {
            examined,
            nonempty: examined > 0,
        }
    }

    fn adjust_left_counts(
        &mut self,
        j: &JoinNode,
        key: u64,
        wme: &Wme,
        delta: i32,
        out: &mut Vec<Token>,
    ) -> ScanStats {
        out.clear();
        let b = self.line_of(key);
        let mem = &mut self.lines[b].left;
        let mut examined = 0u64;
        for e in mem.iter_mut() {
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
                    e.neg_count -= 1;
                    if e.neg_count == 0 {
                        out.push(e.token.clone());
                    }
                }
            }
        }
        ScanStats {
            examined,
            nonempty: examined > 0,
        }
    }

    fn count_right(&self, j: &JoinNode, key: u64, token: &Token) -> (u32, ScanStats) {
        let mem = &self.lines[self.line_of(key)].right;
        let ops = j.resolve_left(token);
        let mut n = 0u32;
        let mut examined = 0u64;
        for e in mem {
            if e.join != j.id {
                continue;
            }
            examined += 1;
            if e.key == key && j.passes_resolved(&ops, token, &e.wme) {
                n += 1;
            }
        }
        let scan = ScanStats {
            examined,
            nonempty: examined > 0,
        };
        (n, scan)
    }

    fn left_count(&self, j: &JoinNode) -> u32 {
        self.left_counts[j.id as usize]
    }

    fn right_count(&self, j: &JoinNode) -> u32 {
        self.right_counts[j.id as usize]
    }

    fn total_entries(&self) -> usize {
        self.lines
            .iter()
            .map(|l| l.left.len() + l.right.len())
            .sum()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::network::Network;
    use ops5::{Program, Value, Wme};

    fn setup() -> (Program, Network) {
        let prog = Program::from_source("(p q (a ^x <v>) (b ^y <v>) --> (halt))").unwrap();
        let net = Network::compile(&prog).unwrap();
        (prog, net)
    }

    fn run_common(mem: &mut dyn TokenMem) {
        let (mut prog, net) = setup();
        let ca = prog.symbols.intern("a");
        let cb = prog.symbols.intern("b");
        let j = net.join(0).clone();

        let wa = Wme::new(ca, vec![Value::Int(1)], 1);
        let wb1 = Wme::new(cb, vec![Value::Int(1)], 2);
        let wb2 = Wme::new(cb, vec![Value::Int(2)], 3);
        let tok = Token::single(wa);

        let lk = mem.left_key(&j, &tok);
        mem.insert_left(&j, lk, tok.clone(), 0);
        mem.insert_right(&j, mem.right_key(&j, &wb1), wb1.clone());
        mem.insert_right(&j, mem.right_key(&j, &wb2), wb2.clone());

        // Left scan finds only the matching wme.
        let mut wmes = Vec::new();
        let s = mem.scan_right(&j, lk, &tok, &mut wmes);
        assert_eq!(wmes.len(), 1);
        assert_eq!(wmes[0].timetag, 2);
        assert!(s.nonempty);

        // Right scan from the matching wme finds the token.
        let mut toks = Vec::new();
        mem.scan_left(&j, mem.right_key(&j, &wb1), &wb1, &mut toks);
        assert_eq!(toks.len(), 1);
        // Right scan from the non-matching wme finds nothing.
        mem.scan_left(&j, mem.right_key(&j, &wb2), &wb2, &mut toks);
        assert_eq!(toks.len(), 0);

        // Delete the token; second delete fails.
        let r = mem.remove_left(&j, lk, &tok);
        assert_eq!(r.entry, Some(0));
        let r = mem.remove_left(&j, lk, &tok);
        assert!(r.entry.is_none());

        // Delete a right wme.
        let r = mem.remove_right(&j, mem.right_key(&j, &wb2), &wb2);
        assert!(r.entry.is_some());
        assert_eq!(mem.total_entries(), 1);
    }

    #[test]
    fn list_mem_basics() {
        let (_, net) = setup();
        let mut mem = ListMem::new(net.n_joins());
        run_common(&mut mem);
    }

    #[test]
    fn hash_mem_basics() {
        let mut mem = HashMem::new(HashMemConfig { buckets: 8 }, 1);
        run_common(&mut mem);
    }

    #[test]
    fn hash_mem_examines_fewer_tokens() {
        let (mut prog, net) = setup();
        let ca = prog.symbols.intern("a");
        let cb = prog.symbols.intern("b");
        let j = net.join(0).clone();

        let mut list = ListMem::new(net.n_joins());
        let mut hash = HashMem::new(HashMemConfig { buckets: 256 }, net.n_joins());

        // 100 right wmes with distinct join values.
        for i in 0..100 {
            let w = Wme::new(cb, vec![Value::Int(i)], 10 + i as u64);
            list.insert_right(&j, list.right_key(&j, &w), w.clone());
            hash.insert_right(&j, hash.right_key(&j, &w), w);
        }
        let tok = Token::single(Wme::new(ca, vec![Value::Int(5)], 1));
        let mut out = Vec::new();
        let sl = list.scan_right(&j, list.left_key(&j, &tok), &tok, &mut out);
        assert_eq!(out.len(), 1);
        let sh = hash.scan_right(&j, hash.left_key(&j, &tok), &tok, &mut out);
        assert_eq!(out.len(), 1);
        assert_eq!(sl.examined, 100, "vs1 examines the whole opposite memory");
        assert!(
            sh.examined < 10,
            "vs2 examines only one line (got {})",
            sh.examined
        );
    }

    #[test]
    fn neg_count_transitions() {
        // Not-node counters: insert two matching right wmes, remove them.
        let (mut prog, _) = setup();
        // Build a negated join by hand: reuse join 0's tests but negated.
        let prog2 = Program::from_source("(p q (a ^x <v>) - (b ^y <v>) --> (halt))").unwrap();
        let net2 = Network::compile(&prog2).unwrap();
        let j = net2.join(0).clone();
        assert!(j.negated);

        let ca = prog.symbols.intern("a");
        let cb = prog.symbols.intern("b");
        let mut mem = HashMem::new(HashMemConfig { buckets: 8 }, net2.n_joins());
        let tok = Token::single(Wme::new(ca, vec![Value::Int(1)], 1));
        mem.insert_left(&j, mem.left_key(&j, &tok), tok.clone(), 0);

        let wb = Wme::new(cb, vec![Value::Int(1)], 2);
        let wb2 = Wme::new(cb, vec![Value::Int(1)], 3);
        let kb = mem.right_key(&j, &wb);
        let kb2 = mem.right_key(&j, &wb2);

        let mut crossed = Vec::new();
        // 0 -> 1 crossing reported once.
        mem.adjust_left_counts(&j, kb, &wb, 1, &mut crossed);
        assert_eq!(crossed.len(), 1);
        // 1 -> 2: no crossing.
        mem.adjust_left_counts(&j, kb2, &wb2, 1, &mut crossed);
        assert_eq!(crossed.len(), 0);
        // 2 -> 1: no crossing.
        mem.adjust_left_counts(&j, kb2, &wb2, -1, &mut crossed);
        assert_eq!(crossed.len(), 0);
        // 1 -> 0: crossing.
        mem.adjust_left_counts(&j, kb, &wb, -1, &mut crossed);
        assert_eq!(crossed.len(), 1);
    }

    #[test]
    fn per_join_counts_track_inserts_and_removes() {
        let (mut prog, net) = setup();
        let ca = prog.symbols.intern("a");
        let cb = prog.symbols.intern("b");
        let j = net.join(0).clone();
        for mem in [
            Box::new(ListMem::new(net.n_joins())) as Box<dyn TokenMem>,
            Box::new(HashMem::new(HashMemConfig { buckets: 8 }, net.n_joins())),
        ]
        .iter_mut()
        {
            assert_eq!(mem.left_count(&j), 0);
            assert_eq!(mem.right_count(&j), 0);
            let tok = Token::single(Wme::new(ca, vec![Value::Int(1)], 1));
            let lk = mem.left_key(&j, &tok);
            mem.insert_left(&j, lk, tok.clone(), 0);
            assert_eq!(mem.left_count(&j), 1);
            let wb = Wme::new(cb, vec![Value::Int(1)], 2);
            let rk = mem.right_key(&j, &wb);
            mem.insert_right(&j, rk, wb.clone());
            mem.insert_right(&j, rk, wb.clone());
            assert_eq!(mem.right_count(&j), 2);
            mem.remove_right(&j, rk, &wb);
            assert_eq!(mem.right_count(&j), 1);
            mem.remove_left(&j, lk, &tok);
            assert_eq!(mem.left_count(&j), 0);
            // A failed remove must not disturb the count.
            mem.remove_left(&j, lk, &tok);
            assert_eq!(mem.left_count(&j), 0);
        }
    }

    #[test]
    fn cross_product_join_shares_one_line() {
        // No eq tests: every token of the join lands in the same line.
        let prog = Program::from_source("(p q (a ^x <v>) (b ^y <w>) --> (halt))").unwrap();
        let net = Network::compile(&prog).unwrap();
        let j = net.join(0).clone();
        let mut prog = prog;
        let cb = prog.symbols.intern("b");
        let mut mem = HashMem::new(HashMemConfig { buckets: 256 }, net.n_joins());
        for i in 0..50 {
            let w = Wme::new(cb, vec![Value::Int(i)], i as u64 + 1);
            mem.insert_right(&j, mem.right_key(&j, &w), w);
        }
        let ca = prog.symbols.intern("a");
        let tok = Token::single(Wme::new(ca, vec![Value::Int(0)], 100));
        let mut out = Vec::new();
        let s = mem.scan_right(&j, mem.left_key(&j, &tok), &tok, &mut out);
        assert_eq!(out.len(), 50, "cross-product matches everything");
        assert_eq!(
            s.examined, 50,
            "and examines everything — the Tourney pathology"
        );
    }
}
