//! Token memories: linear lists (*vs1*) and the two global hash tables
//! (*vs2*).
//!
//! The matcher sees one interface, [`TokenMem`]; the two implementations
//! reproduce the paper's uniprocessor versions:
//!
//! * [`ListMem`] — vs1: left tokens and right WMEs are kept in plain
//!   vectors, "just as uniprocessor lisp implementations do". Every scan
//!   examines the entire opposite memory; every delete searches the entire
//!   same memory. How a scan tests a pair is its [`JoinTests`] policy:
//!   vs1's compiled compares, or lispsim's interpreted test lists over the
//!   boxed association lists it keeps beside each entry.
//! * [`HashMem`] — vs2: two global hash tables hold all left tokens and all
//!   right WMEs for the whole network. The key covers the memory's id and
//!   the values under the equality tests, so a scan only examines the
//!   entries of one bucket (a "line"). Joins without equality tests (the
//!   cross-product case) hash on the id alone and degenerate to the list
//!   behaviour — the Tourney pathology. The paper fixes the table's size;
//!   by default this one is sized by what is in it (it starts at the size
//!   of the network and doubles under a constant load), and an explicit
//!   line count ([`HashMemConfig`]) is the paper's fixed table.
//!
//! The two sides are not symmetric. A **left** memory belongs to its join,
//! as in the paper (the memory node is folded into the two-input node below
//! it, §3.1), and its hash key is [`JoinNode::left_key`]/`right_key` — the
//! line geometry psm, `psm::trace` and the tables share. A **right** memory
//! belongs to the *network*: one per [`RightMemSpec`] (alpha pattern ×
//! equality signature), read by every join with that right input, so a WME
//! is stored once however many joins can pair with it. That departs from
//! footnote 6 (memories are not shared) for the sequential kernel only; psm
//! and `psm::trace` keep one right memory per join, and the trace matcher
//! is the per-join reference the shared-memory folds compare against. A
//! right entry's key is [`RightMemSpec::key`] mixed with the memory id; a
//! left activation probes with [`JoinNode::shared_key`] mixed the same way
//! ([`TokenMem::probe_key`]).
//!
//! A left entry of a positive join keeps its children (tree-based
//! removal): it holds the head of its children list where a not-node's
//! entry holds its count of blockers. A child is a token and the slot of
//! its right half ([`Child`]); the key it is sent on under belongs to the
//! successor that stores it. `rete::seq`'s kernel keeps them through the
//! same calls over every memory here. The lists of one memory live in one slab with a free list, so keeping them
//! costs no allocation per entry or per child once the slab has grown. A
//! right entry takes a slot when the first child is joined with it and
//! gives it back when it is removed; the readers of the removal still find
//! its children by the slot, because the kernel gives no entry a slot
//! before they have run. The slab records where each slotted entry
//! stands in its line, updated by the `swap_remove` that moves it and by a
//! doubling of the table. A list is appended to in the order its children
//! are made and is sorted by those positions when a removal takes it whole:
//! the order a scan of the line would find the children in.
//!
//! Hot-path contract: the caller computes a line's key once and threads it
//! through every operation on that line, so vs2 hashes once per line
//! touched instead of once per operation. Scans append matches into a
//! caller-owned scratch buffer instead of allocating a fresh `Vec`, so a
//! steady-state node activation performs no heap allocation in the memory
//! layer. Every operation still reports how many tokens it *examined*, the
//! raw data for Tables 4-2 and 4-3.

use crate::fxhash;
use crate::network::{JoinId, JoinNode, Network, RightMemId, RightMemSpec};
use crate::token::Token;
use ops5::{Wme, WmeRef};

/// Configuration for the global hash tables.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub struct HashMemConfig {
    /// Lines (bucket pairs) of the table, rounded up to a power of two and
    /// fixed for the matcher's life. 0, the default, sizes the table by its
    /// population instead: it starts from the size of the network and
    /// doubles whenever it holds more than [`LOAD`] entries per line.
    pub buckets: usize,
}

impl HashMemConfig {
    /// The paper's vs2: "two large hash tables which hold all the tokens
    /// for the entire network", one fixed size for every program. What the
    /// paper's tables (`bench::tables`) and the geometry-pinned goldens run
    /// on.
    pub const PAPER: HashMemConfig = HashMemConfig { buckets: 16384 };
}

/// Entries (left tokens + right WMEs) per line beyond which a table sized
/// by its population doubles. A line is two vectors scanned front to back,
/// so a handful of entries costs less than the cache miss of reaching a
/// line of their own: over fixed sizes, the `ablation_buckets` table (best of 7)
/// reads Weaver fastest at 1024–4096 lines — 1.6–6.3 entries per line at its
/// peak of 6419 — and 8–24 % slower at 16 Ki and 64 Ki, with Rubik (368
/// entries) and Tourney (peak 1720) flat from 256 lines up (EXPERIMENTS.md,
/// "A change costs what it touches").
pub const LOAD: usize = 4;

/// A table sized by its population starts with one line per join and per
/// right memory (rounded up to a power of two), within these bounds: a
/// 2-rule session allocates 16 lines, not 16 384, and a 2562-join network
/// grows past 1024 only if its population does.
const START_LINES: std::ops::RangeInclusive<usize> = 16..=1024;

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

/// The end of a children list and the empty list; the slot of a right entry
/// no child has been joined with.
pub const NIL: u32 = u32::MAX;

/// A token a positive join sent on, kept by the left entry it extends
/// while both its halves stand: the token and the slot of its right half.
/// What a terminal removes is the token it inserted; a successor's key is
/// the successor's to compute.
#[derive(Clone)]
pub struct Child {
    pub token: Token,
    /// The slot of the right entry holding `token`'s last WME.
    pub(crate) slot: u32,
}

/// One link of a children list, free or in use.
struct ChildNode {
    token: Token,
    slot: u32,
    next: u32,
}

/// The children lists of one memory's left entries, all in one slab with a
/// free list, and where each right entry a child points at stands in its
/// line: a list is kept in the order its children were made, and taking one
/// whole sorts it by those positions, which is the order a scan of the line
/// would find them in whatever `swap_remove` has moved since. A right entry
/// takes a slot when the first child is joined with it, so a WME no
/// positive join pairs with costs nothing here.
#[derive(Default)]
struct Children {
    nodes: Vec<ChildNode>,
    free_node: u32,
    /// Per slot, its right entry's index in its line; a free slot holds the
    /// next free one.
    pos: Vec<u32>,
    free_slot: u32,
}

impl Children {
    fn new() -> Children {
        Children {
            free_node: NIL,
            free_slot: NIL,
            ..Children::default()
        }
    }

    /// The slot of a right entry standing at `at` in its line, given one if
    /// it has none.
    fn slot(&mut self, slot: &mut u32, at: usize) -> u32 {
        if *slot == NIL {
            *slot = match self.free_slot {
                NIL => {
                    self.pos.push(at as u32);
                    (self.pos.len() - 1) as u32
                }
                s => {
                    self.free_slot = self.pos[s as usize];
                    self.pos[s as usize] = at as u32;
                    s
                }
            };
        }
        *slot
    }

    /// The entry of `slot` now stands at `at` in its line.
    #[inline]
    fn moved(&mut self, slot: u32, at: usize) {
        if slot != NIL {
            self.pos[slot as usize] = at as u32;
        }
    }

    /// The entry of `slot` left its memory.
    fn release(&mut self, slot: u32) {
        if slot != NIL {
            self.pos[slot as usize] = self.free_slot;
            self.free_slot = slot;
        }
    }

    fn adopt(&mut self, kids: &mut u32, child: Child) {
        debug_assert!(child.slot != NIL, "a child of an unslotted right entry");
        let node = ChildNode {
            token: child.token,
            slot: child.slot,
            next: *kids,
        };
        *kids = match self.free_node {
            NIL => {
                self.nodes.push(node);
                (self.nodes.len() - 1) as u32
            }
            n => {
                self.free_node = self.nodes[n as usize].next;
                self.nodes[n as usize] = node;
                n
            }
        };
    }

    /// Node `n`'s child, the node put on the free list.
    fn free(&mut self, n: u32) -> Child {
        let node = &mut self.nodes[n as usize];
        let child = Child {
            token: std::mem::replace(&mut node.token, Token::empty()),
            slot: node.slot,
        };
        node.next = self.free_node;
        self.free_node = n;
        child
    }

    /// Takes the child joined with right entry `slot` out of `kids`.
    fn take(&mut self, kids: &mut u32, slot: u32) -> Option<Child> {
        let (mut prev, mut n) = (NIL, *kids);
        while n != NIL {
            let node = &self.nodes[n as usize];
            let next = node.next;
            if node.slot == slot {
                match prev {
                    NIL => *kids = next,
                    p => self.nodes[p as usize].next = next,
                }
                return Some(self.free(n));
            }
            (prev, n) = (n, next);
        }
        None
    }

    /// All of `kids` into `out` (cleared first), in their right entries'
    /// line order; the list is freed.
    fn drain(&mut self, kids: u32, out: &mut Vec<Child>) {
        out.clear();
        let mut n = kids;
        while n != NIL {
            let next = self.nodes[n as usize].next;
            out.push(self.free(n));
            n = next;
        }
        // Adopted at the head: the list runs newest first, and creation
        // order is line order unless a removal moved an entry forward.
        out.reverse();
        let pos = &self.pos;
        out.sort_unstable_by_key(|c| pos[c.slot as usize]);
    }
}

/// Storage interface of the sequential kernel (vs1, vs2, lispsim and col).
///
/// `key` arguments address one line and are computed once per line touched:
/// [`TokenMem::left_key`] / [`TokenMem::right_key`] give the line of a
/// join's *left* memory from either side, [`TokenMem::store_key`] /
/// [`TokenMem::probe_key`] the line of a shared *right* memory from either
/// side. [`ListMem`] has no buckets and returns 0.
pub trait TokenMem {
    /// The canonical matcher-variant name this memory kind implements
    /// ("vs1" or "lispsim" for linear lists, "vs2" for the hashed lines).
    /// Surfaced as `SeqMatcher::name()` so every matcher kind reports a
    /// distinct name.
    fn kind_name(&self) -> &'static str;

    /// Left-memory key of a token entering this join's left memory.
    fn left_key(&self, j: &JoinNode, token: &Token) -> u64;

    /// Left-memory key of the tokens `wme` can pair with at this join.
    fn right_key(&self, j: &JoinNode, wme: &Wme) -> u64;

    /// Right-memory key of a WME entering memory `mem`.
    fn store_key(&self, mem: RightMemId, spec: &RightMemSpec, wme: &Wme) -> u64;

    /// Right-memory key of the WMEs `token` can pair with at this join
    /// (in `j.right_mem`).
    fn probe_key(&self, j: &JoinNode, token: &Token) -> u64;

    /// Insert a token into the join's left memory with `aux` beside it: a
    /// not-node's count of the right WMEs blocking the token, a positive
    /// join's list of the token's children ([`NIL`]: none kept).
    fn insert_left(&mut self, j: &JoinNode, key: u64, token: Token, aux: u32);

    /// Remove a token (by WME identity) from the left memory, returning its
    /// `aux`.
    fn remove_left(&mut self, j: &JoinNode, key: u64, token: &Token) -> Removed<u32>;

    /// Store a WME in a shared right memory: once, whoever reads it.
    fn insert_right(&mut self, mem: RightMemId, key: u64, wme: WmeRef);

    /// Remove a WME from a shared right memory, returning its entry's slot
    /// ([`NIL`]: no child was ever joined with it), by which the memory's
    /// readers take the children made with it. The slot is free again: the
    /// kernel gives no entry a slot before those readers have run.
    fn remove_right(&mut self, mem: RightMemId, key: u64, wme: &Wme) -> Removed<u32>;

    /// WMEs of the join's right memory pairing with `token` under the join
    /// tests, each with its entry's index in the line (for
    /// [`TokenMem::slot_at`]), appended to `out` (cleared first). `key` is
    /// a `probe_key`.
    fn scan_right(
        &self,
        j: &JoinNode,
        key: u64,
        token: &Token,
        out: &mut Vec<(WmeRef, u32)>,
    ) -> ScanStats;

    /// The slot of the entry at `at` on `key`'s line of memory `mem`, given
    /// one if no child was joined with it before.
    fn slot_at(&mut self, mem: RightMemId, key: u64, at: u32) -> u32;

    /// Left-memory tokens pairing with `wme` under the join tests
    /// (positive joins), appended to `out` (cleared first).
    fn scan_left(&self, j: &JoinNode, key: u64, wme: &Wme, out: &mut Vec<Token>) -> ScanStats;

    /// Right `+` at a positive join: every left entry pairing with `wme`
    /// (stored under `store_key` in `j.right_mem`) adopts the child
    /// `token.extended(wme)` with `wme`'s slot, and the new children are
    /// appended to `out` (cleared first). Examines what
    /// [`TokenMem::scan_left`] would.
    fn extend_left(
        &mut self,
        j: &JoinNode,
        key: u64,
        wme: &WmeRef,
        store_key: u64,
        out: &mut Vec<Child>,
    ) -> ScanStats;

    /// Right `-` at a positive join: every left entry on `key`'s
    /// line gives up its child joined with right entry `slot`, appended to
    /// `out` (cleared first). No join test; examines what
    /// [`TokenMem::scan_left`] would, and walks no list if `slot` is
    /// [`NIL`].
    fn take_child(&mut self, j: &JoinNode, key: u64, slot: u32, out: &mut Vec<Child>) -> ScanStats;

    /// Appends `child` to the list `kids` (a left `+` builds its entry's
    /// list before the entry is stored).
    fn adopt(&mut self, kids: &mut u32, child: Child);

    /// Left `-` at a positive join: the list `kids`, taken from
    /// the removed entry, into `out` (cleared first) in the order a scan of
    /// the right memory would find them.
    fn take_children(&mut self, kids: u32, out: &mut Vec<Child>);

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

    /// Not-node left activation: count matching right WMEs. `key` is a
    /// `probe_key`.
    fn count_right(&self, j: &JoinNode, key: u64, token: &Token) -> (u32, ScanStats);

    /// Entries stored network-wide in the join's left memory. 0 means no
    /// token can pair with a WME entering or leaving its right memory: the
    /// reader is dead and its right activation is never run.
    fn left_count(&self, join: JoinId) -> u32;

    /// Entries stored network-wide in a right memory — the emptiness gate
    /// of its readers' left activations.
    fn right_count(&self, mem: RightMemId) -> u32;

    /// Total stored entries (diagnostics / invariant checks).
    fn total_entries(&self) -> usize;
}

// ---------------------------------------------------------------- vs1: lists

/// How a list memory evaluates a join's tests, and what it keeps beside
/// each entry to evaluate them on: vs1's compiled compares ([`Compiled`]),
/// or another representation of tokens and WMEs and an interpreter over it
/// (lispsim's boxed association lists). Either way a scan examines every
/// entry of the opposite list in the same order, so two list memories on
/// one network count the same work.
pub trait JoinTests {
    /// The matcher's name ([`TokenMem::kind_name`]).
    const NAME: &'static str;
    /// Kept beside each left token.
    type Left;
    /// Kept beside each right WME.
    type Right;

    fn left(&self, token: &Token) -> Self::Left;

    fn right(&self, wme: &Wme) -> Self::Right;

    /// `j`'s tests of `token` against one right entry, set up once per scan.
    fn of_token<'a>(
        &'a self,
        j: &'a JoinNode,
        token: &'a Token,
    ) -> impl Fn(&Wme, &Self::Right) -> bool + 'a;

    /// `j`'s tests of `wme` against one left entry, set up once per scan.
    fn of_wme<'a>(
        &'a self,
        j: &'a JoinNode,
        wme: &'a Wme,
    ) -> impl Fn(&Token, &Self::Left) -> bool + 'a;
}

/// vs1's join tests: the network's compiled compares, nothing kept beside
/// an entry. A left scan resolves the token's operands once.
pub struct Compiled;

impl JoinTests for Compiled {
    const NAME: &'static str = "vs1";
    type Left = ();
    type Right = ();

    fn left(&self, _token: &Token) {}

    fn right(&self, _wme: &Wme) {}

    fn of_token<'a>(
        &'a self,
        j: &'a JoinNode,
        token: &'a Token,
    ) -> impl Fn(&Wme, &()) -> bool + 'a {
        let ops = j.resolve_left(token);
        move |w, _| j.passes_resolved(&ops, token, w)
    }

    fn of_wme<'a>(&'a self, j: &'a JoinNode, wme: &'a Wme) -> impl Fn(&Token, &()) -> bool + 'a {
        move |t, _| j.passes(t, wme)
    }
}

struct ListLeftEntry<L> {
    token: Token,
    /// See [`TokenMem::insert_left`].
    aux: u32,
    beside: L,
}

struct ListRightEntry<R> {
    wme: WmeRef,
    slot: u32,
    beside: R,
}

/// vs1 memories: one vector per join (left) and per right memory (right),
/// joined under `T`'s tests.
pub struct ListMem<T: JoinTests = Compiled> {
    tests: T,
    left: Vec<Vec<ListLeftEntry<T::Left>>>,
    right: Vec<Vec<ListRightEntry<T::Right>>>,
    kids: Children,
}

impl ListMem {
    pub fn new(net: &Network) -> ListMem {
        ListMem::with_tests(Compiled, net)
    }
}

impl<T: JoinTests> ListMem<T> {
    pub fn with_tests(tests: T, net: &Network) -> ListMem<T> {
        ListMem {
            tests,
            left: (0..net.n_joins()).map(|_| Vec::new()).collect(),
            right: net.right_mems.iter().map(|_| Vec::new()).collect(),
            kids: Children::new(),
        }
    }
}

impl ScanStats {
    /// A scan of a whole list of `len` entries.
    fn list(len: usize) -> ScanStats {
        ScanStats {
            examined: len as u64,
            nonempty: len != 0,
        }
    }
}

impl<T: JoinTests> TokenMem for ListMem<T> {
    fn kind_name(&self) -> &'static str {
        T::NAME
    }

    fn left_key(&self, _j: &JoinNode, _token: &Token) -> u64 {
        0
    }

    fn right_key(&self, _j: &JoinNode, _wme: &Wme) -> u64 {
        0
    }

    fn store_key(&self, _mem: RightMemId, _spec: &RightMemSpec, _wme: &Wme) -> u64 {
        0
    }

    fn probe_key(&self, _j: &JoinNode, _token: &Token) -> u64 {
        0
    }

    fn insert_left(&mut self, j: &JoinNode, _key: u64, token: Token, aux: u32) {
        let beside = self.tests.left(&token);
        self.left[j.id as usize].push(ListLeftEntry { token, aux, beside });
    }

    fn remove_left(&mut self, j: &JoinNode, _key: u64, token: &Token) -> Removed<u32> {
        let mem = &mut self.left[j.id as usize];
        for (i, e) in mem.iter().enumerate() {
            if e.token.same_wmes(token) {
                let e = mem.swap_remove(i);
                return Removed {
                    entry: Some(e.aux),
                    examined: (i + 1) as u64,
                };
            }
        }
        Removed {
            entry: None,
            examined: mem.len() as u64,
        }
    }

    fn insert_right(&mut self, mem: RightMemId, _key: u64, wme: WmeRef) {
        let beside = self.tests.right(&wme);
        self.right[mem as usize].push(ListRightEntry {
            wme,
            slot: NIL,
            beside,
        });
    }

    fn remove_right(&mut self, mem: RightMemId, _key: u64, wme: &Wme) -> Removed<u32> {
        let entries = &mut self.right[mem as usize];
        for (i, e) in entries.iter().enumerate() {
            if e.wme.timetag == wme.timetag {
                let e = entries.swap_remove(i);
                if let Some(moved) = entries.get(i) {
                    self.kids.moved(moved.slot, i);
                }
                self.kids.release(e.slot);
                return Removed {
                    entry: Some(e.slot),
                    examined: (i + 1) as u64,
                };
            }
        }
        Removed {
            entry: None,
            examined: entries.len() as u64,
        }
    }

    fn scan_right(
        &self,
        j: &JoinNode,
        _key: u64,
        token: &Token,
        out: &mut Vec<(WmeRef, u32)>,
    ) -> ScanStats {
        out.clear();
        let mem = &self.right[j.right_mem as usize];
        let passes = self.tests.of_token(j, token);
        for (at, e) in mem.iter().enumerate() {
            if passes(&e.wme, &e.beside) {
                out.push((e.wme.clone(), at as u32));
            }
        }
        ScanStats::list(mem.len())
    }

    fn slot_at(&mut self, mem: RightMemId, _key: u64, at: u32) -> u32 {
        let e = &mut self.right[mem as usize][at as usize];
        self.kids.slot(&mut e.slot, at as usize)
    }

    fn scan_left(&self, j: &JoinNode, _key: u64, wme: &Wme, out: &mut Vec<Token>) -> ScanStats {
        out.clear();
        let mem = &self.left[j.id as usize];
        let passes = self.tests.of_wme(j, wme);
        for e in mem {
            if passes(&e.token, &e.beside) {
                out.push(e.token.clone());
            }
        }
        ScanStats::list(mem.len())
    }

    fn extend_left(
        &mut self,
        j: &JoinNode,
        _key: u64,
        wme: &WmeRef,
        _store_key: u64,
        out: &mut Vec<Child>,
    ) -> ScanStats {
        out.clear();
        let mem = &mut self.left[j.id as usize];
        let right = &mut self.right[j.right_mem as usize];
        let passes = self.tests.of_wme(j, wme);
        let mut slot = NIL;
        for e in mem.iter_mut() {
            if passes(&e.token, &e.beside) {
                if slot == NIL {
                    // Stored by this change: at or near the end.
                    let at = (right.iter().rposition(|r| r.wme.timetag == wme.timetag))
                        .expect("a right activation's wme is in its memory");
                    slot = self.kids.slot(&mut right[at].slot, at);
                }
                let child = Child {
                    token: e.token.extended(wme.clone()),
                    slot,
                };
                out.push(child.clone());
                self.kids.adopt(&mut e.aux, child);
            }
        }
        ScanStats::list(mem.len())
    }

    fn take_child(
        &mut self,
        j: &JoinNode,
        _key: u64,
        slot: u32,
        out: &mut Vec<Child>,
    ) -> ScanStats {
        out.clear();
        let mem = &mut self.left[j.id as usize];
        if slot != NIL {
            let kids = &mut self.kids;
            out.extend(mem.iter_mut().filter_map(|e| kids.take(&mut e.aux, slot)));
        }
        ScanStats::list(mem.len())
    }

    fn adopt(&mut self, kids: &mut u32, child: Child) {
        self.kids.adopt(kids, child);
    }

    fn take_children(&mut self, kids: u32, out: &mut Vec<Child>) {
        self.kids.drain(kids, out);
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
        let passes = self.tests.of_wme(j, wme);
        for e in mem.iter_mut() {
            if passes(&e.token, &e.beside) {
                if delta > 0 {
                    e.aux += 1;
                    if e.aux == 1 {
                        out.push(e.token.clone());
                    }
                } else {
                    debug_assert!(e.aux > 0, "not-node counter underflow");
                    e.aux -= 1;
                    if e.aux == 0 {
                        out.push(e.token.clone());
                    }
                }
            }
        }
        ScanStats::list(mem.len())
    }

    fn count_right(&self, j: &JoinNode, _key: u64, token: &Token) -> (u32, ScanStats) {
        let mem = &self.right[j.right_mem as usize];
        let passes = self.tests.of_token(j, token);
        let n = mem.iter().filter(|e| passes(&e.wme, &e.beside)).count() as u32;
        (n, ScanStats::list(mem.len()))
    }

    fn left_count(&self, join: JoinId) -> u32 {
        self.left[join as usize].len() as u32
    }

    fn right_count(&self, mem: RightMemId) -> u32 {
        self.right[mem as usize].len() as u32
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
    /// See [`TokenMem::insert_left`].
    aux: u32,
}

struct HashRightEntry {
    mem: RightMemId,
    slot: u32,
    key: u64,
    wme: WmeRef,
}

/// One line: the same-index buckets of the left and the right table, side
/// by side, so the table is one allocation: as two half-size ones, glibc
/// handed the pair back to the OS whenever a served session closed and the
/// next `OPEN` faulted ~160 pages in again.
#[derive(Default)]
struct HashLine {
    left: Vec<HashLeftEntry>,
    right: Vec<HashRightEntry>,
}

/// vs2 memories: the two global hash tables of §3.2.
///
/// A "line" is the pair of same-index buckets of the left and right tables.
/// The bucket index of an entry is `key & mask`. A left entry's key hashes
/// its join's id and the token's values under the join's equality tests; a
/// right entry's key hashes its memory's id and the WME's values under the
/// memory's signature, so the readers of a shared memory all find it on the
/// one line. Each entry stores its key, so probes compare one cached word
/// before touching token identity.
///
/// With growth on (the default) the table doubles when its population
/// passes [`LOAD`] entries per line, splitting every line on the next bit
/// of the stored keys, and never shrinks: a program that retracts and
/// rebuilds its memories every cycle (Tourney) pays for each size once.
/// Doubling pulls apart keys that shared a line; it cannot shorten a line
/// whose entries share one key (Tourney's id-only cross products), at any
/// size. Callers hold keys, never line indices, so a growth between two
/// operations of one activation is invisible to them.
pub struct HashMem {
    lines: Vec<HashLine>,
    mask: u64,
    /// Entry counts per join (left) and per right memory (right): the
    /// buckets interleave memories, so emptiness must be maintained, not
    /// derived.
    left_counts: Vec<u32>,
    right_counts: Vec<u32>,
    /// Entries stored, and the population at which the table next doubles
    /// (`usize::MAX`: a fixed table).
    entries: usize,
    grow_above: usize,
    kids: Children,
}

#[inline]
fn bump(counts: &mut [u32], id: u32, delta: i32) {
    let c = &mut counts[id as usize];
    if delta > 0 {
        *c += 1;
    } else {
        debug_assert!(*c > 0, "memory count underflow for memory {id}");
        *c -= 1;
    }
}

impl HashMem {
    /// Tables for `net` (join ids and right-memory ids index the counters
    /// directly, as they index [`ListMem`]'s vectors).
    pub fn new(cfg: HashMemConfig, net: &Network) -> HashMem {
        let grows = cfg.buckets == 0;
        let n = if grows {
            let memories = net.n_joins() + net.right_mems.len();
            memories.clamp(*START_LINES.start(), *START_LINES.end())
        } else {
            cfg.buckets.max(2)
        }
        .next_power_of_two();
        HashMem {
            lines: (0..n).map(|_| HashLine::default()).collect(),
            mask: (n - 1) as u64,
            left_counts: vec![0; net.n_joins()],
            right_counts: vec![0; net.right_mems.len()],
            entries: 0,
            grow_above: if grows { n * LOAD } else { usize::MAX },
            kids: Children::new(),
        }
    }

    #[inline]
    fn line_of(&self, key: u64) -> usize {
        (key & self.mask) as usize
    }

    pub(crate) fn n_lines(&self) -> usize {
        self.lines.len()
    }

    /// Books one stored entry; past the load, doubles the table.
    #[inline]
    fn stored(&mut self) {
        self.entries += 1;
        if self.entries > self.grow_above {
            self.grow();
        }
    }

    /// Line `i` of `n` splits into `i` and `i + n` on bit `n` of each
    /// entry's stored key, both halves keeping their entries' order.
    #[cold]
    fn grow(&mut self) {
        let n = self.lines.len();
        self.lines.resize_with(2 * n, HashLine::default);
        let (low, high) = self.lines.split_at_mut(n);
        let bit = n as u64;
        for (from, to) in low.iter_mut().zip(high) {
            to.left
                .extend(from.left.extract_if(.., |e| e.key & bit != 0));
            to.right
                .extend(from.right.extract_if(.., |e| e.key & bit != 0));
            for (at, e) in from.right.iter().enumerate() {
                self.kids.moved(e.slot, at);
            }
            for (at, e) in to.right.iter().enumerate() {
                self.kids.moved(e.slot, at);
            }
        }
        self.mask = (2 * n - 1) as u64;
        self.grow_above = 2 * n * LOAD;
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

    fn store_key(&self, mem: RightMemId, spec: &RightMemSpec, wme: &Wme) -> u64 {
        fxhash::mix(spec.key(wme), mem as u64)
    }

    fn probe_key(&self, j: &JoinNode, token: &Token) -> u64 {
        fxhash::mix(j.shared_key(token), j.right_mem as u64)
    }

    fn insert_left(&mut self, j: &JoinNode, key: u64, token: Token, aux: u32) {
        let b = self.line_of(key);
        self.lines[b].left.push(HashLeftEntry {
            join: j.id,
            key,
            token,
            aux,
        });
        bump(&mut self.left_counts, j.id, 1);
        self.stored();
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
                self.entries -= 1;
                return Removed {
                    entry: Some(e.aux),
                    examined,
                };
            }
        }
        Removed {
            entry: None,
            examined,
        }
    }

    fn insert_right(&mut self, mem: RightMemId, key: u64, wme: WmeRef) {
        let b = self.line_of(key);
        self.lines[b].right.push(HashRightEntry {
            mem,
            slot: NIL,
            key,
            wme,
        });
        bump(&mut self.right_counts, mem, 1);
        self.stored();
    }

    fn remove_right(&mut self, mem: RightMemId, key: u64, wme: &Wme) -> Removed<u32> {
        let b = self.line_of(key);
        let line = &mut self.lines[b].right;
        let mut examined = 0u64;
        for i in 0..line.len() {
            let e = &line[i];
            if e.mem != mem {
                continue;
            }
            examined += 1;
            if e.key == key && e.wme.timetag == wme.timetag {
                let e = line.swap_remove(i);
                if let Some(moved) = line.get(i) {
                    self.kids.moved(moved.slot, i);
                }
                self.kids.release(e.slot);
                bump(&mut self.right_counts, mem, -1);
                self.entries -= 1;
                return Removed {
                    entry: Some(e.slot),
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
        out: &mut Vec<(WmeRef, u32)>,
    ) -> ScanStats {
        out.clear();
        let line = &self.lines[self.line_of(key)].right;
        let ops = j.resolve_left(token);
        let mut examined = 0u64;
        for (at, e) in line.iter().enumerate() {
            if e.mem != j.right_mem {
                continue;
            }
            examined += 1;
            if e.key == key && j.passes_resolved(&ops, token, &e.wme) {
                out.push((e.wme.clone(), at as u32));
            }
        }
        ScanStats {
            examined,
            nonempty: examined > 0,
        }
    }

    fn slot_at(&mut self, mem: RightMemId, key: u64, at: u32) -> u32 {
        let b = self.line_of(key);
        let e = &mut self.lines[b].right[at as usize];
        debug_assert_eq!(e.mem, mem);
        self.kids.slot(&mut e.slot, at as usize)
    }

    fn extend_left(
        &mut self,
        j: &JoinNode,
        key: u64,
        wme: &WmeRef,
        store_key: u64,
        out: &mut Vec<Child>,
    ) -> ScanStats {
        out.clear();
        let (b, mut slot) = (self.line_of(key), NIL);
        let mut examined = 0u64;
        for i in 0..self.lines[b].left.len() {
            let e = &self.lines[b].left[i];
            if e.join != j.id {
                continue;
            }
            examined += 1;
            if e.key != key || !j.passes(&e.token, wme) {
                continue;
            }
            let token = e.token.extended(wme.clone());
            if slot == NIL {
                // Stored by this change: at or near the end of its line.
                let r = self.line_of(store_key);
                let line = &mut self.lines[r].right;
                let at = (line.iter())
                    .rposition(|r| r.mem == j.right_mem && r.wme.timetag == wme.timetag)
                    .expect("a right activation's wme is in its memory");
                slot = self.kids.slot(&mut line[at].slot, at);
            }
            let child = Child { token, slot };
            out.push(child.clone());
            self.kids.adopt(&mut self.lines[b].left[i].aux, child);
        }
        ScanStats {
            examined,
            nonempty: examined > 0,
        }
    }

    fn take_child(&mut self, j: &JoinNode, key: u64, slot: u32, out: &mut Vec<Child>) -> ScanStats {
        out.clear();
        let b = self.line_of(key);
        let mut examined = 0u64;
        for e in self.lines[b].left.iter_mut() {
            if e.join != j.id {
                continue;
            }
            examined += 1;
            if e.key == key && slot != NIL {
                out.extend(self.kids.take(&mut e.aux, slot));
            }
        }
        ScanStats {
            examined,
            nonempty: examined > 0,
        }
    }

    fn adopt(&mut self, kids: &mut u32, child: Child) {
        self.kids.adopt(kids, child);
    }

    fn take_children(&mut self, kids: u32, out: &mut Vec<Child>) {
        self.kids.drain(kids, out);
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
                    e.aux += 1;
                    if e.aux == 1 {
                        out.push(e.token.clone());
                    }
                } else {
                    debug_assert!(e.aux > 0, "not-node counter underflow");
                    e.aux -= 1;
                    if e.aux == 0 {
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
        let line = &self.lines[self.line_of(key)].right;
        let ops = j.resolve_left(token);
        let mut n = 0u32;
        let mut examined = 0u64;
        for e in line {
            if e.mem != j.right_mem {
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

    fn left_count(&self, join: JoinId) -> u32 {
        self.left_counts[join as usize]
    }

    fn right_count(&self, mem: RightMemId) -> u32 {
        self.right_counts[mem as usize]
    }

    fn total_entries(&self) -> usize {
        let lines = self.lines.iter();
        let stored = lines.map(|l| l.left.len() + l.right.len()).sum();
        debug_assert_eq!(self.entries, stored);
        stored
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

    fn both(net: &Network, buckets: usize) -> [Box<dyn TokenMem>; 2] {
        [
            Box::new(ListMem::new(net)),
            Box::new(HashMem::new(HashMemConfig { buckets }, net)),
        ]
    }

    /// Stores `w` in the right memory join `j` reads.
    fn store(mem: &mut dyn TokenMem, net: &Network, j: &JoinNode, w: &WmeRef) -> u64 {
        let spec = &net.right_mems[j.right_mem as usize];
        let key = mem.store_key(j.right_mem, spec, w);
        mem.insert_right(j.right_mem, key, w.clone());
        key
    }

    /// A kept child is a token and a slot: a slab node is the token's one
    /// pointer and two `u32` links, 16 bytes on every memory policy. Its
    /// successor's key is computed when it is sent.
    #[test]
    fn a_kept_child_is_a_token_and_a_slot() {
        assert_eq!(std::mem::size_of::<ChildNode>(), 16);
    }

    #[test]
    fn insert_scan_remove_on_both_kinds() {
        let (mut prog, net) = setup();
        let ca = prog.symbols.intern("a");
        let cb = prog.symbols.intern("b");
        let j = net.join(0);
        for mut mem in both(&net, 8) {
            let mem = mem.as_mut();
            let wa = Wme::new(ca, vec![Value::Int(1)], 1);
            let wb1 = Wme::new(cb, vec![Value::Int(1)], 2);
            let wb2 = Wme::new(cb, vec![Value::Int(2)], 3);
            let tok = Token::single(wa);

            let lk = mem.left_key(j, &tok);
            mem.insert_left(j, lk, tok.clone(), 0);
            store(mem, &net, j, &wb1);
            let k2 = store(mem, &net, j, &wb2);

            // Left scan finds only the matching wme.
            let mut wmes = Vec::new();
            let s = mem.scan_right(j, mem.probe_key(j, &tok), &tok, &mut wmes);
            assert_eq!(wmes.len(), 1);
            assert_eq!(wmes[0].0.timetag, 2);
            assert!(s.nonempty);

            // Right scan from the matching wme finds the token.
            let mut toks = Vec::new();
            mem.scan_left(j, mem.right_key(j, &wb1), &wb1, &mut toks);
            assert_eq!(toks.len(), 1);
            // Right scan from the non-matching wme finds nothing.
            mem.scan_left(j, mem.right_key(j, &wb2), &wb2, &mut toks);
            assert_eq!(toks.len(), 0);

            // Delete the token; second delete fails.
            let r = mem.remove_left(j, lk, &tok);
            assert_eq!(r.entry, Some(0));
            let r = mem.remove_left(j, lk, &tok);
            assert!(r.entry.is_none());

            // Delete a right wme.
            let r = mem.remove_right(j.right_mem, k2, &wb2);
            assert!(r.entry.is_some());
            assert_eq!(mem.total_entries(), 1);
        }
    }

    #[test]
    fn hash_mem_examines_fewer_tokens() {
        let (mut prog, net) = setup();
        let ca = prog.symbols.intern("a");
        let cb = prog.symbols.intern("b");
        let j = net.join(0);
        let [mut list, mut hash] = both(&net, 256);

        // 100 right wmes with distinct join values.
        for i in 0..100 {
            let w = Wme::new(cb, vec![Value::Int(i)], 10 + i as u64);
            store(list.as_mut(), &net, j, &w);
            store(hash.as_mut(), &net, j, &w);
        }
        let tok = Token::single(Wme::new(ca, vec![Value::Int(5)], 1));
        let mut out = Vec::new();
        let sl = list.scan_right(j, list.probe_key(j, &tok), &tok, &mut out);
        assert_eq!(out.len(), 1);
        let sh = hash.scan_right(j, hash.probe_key(j, &tok), &tok, &mut out);
        assert_eq!(out.len(), 1);
        assert_eq!(sl.examined, 100, "vs1 examines the whole opposite memory");
        assert!(
            sh.examined < 10,
            "vs2 examines only one line (got {})",
            sh.examined
        );
    }

    /// One stored WME serves every reader of its memory, under each
    /// reader's own tests; a memory of another signature never sees it.
    #[test]
    fn a_right_entry_is_shared_by_the_readers_of_its_memory() {
        let mut prog = Program::from_source(
            "(p p1 (a ^x <v>) (b ^y <v>) --> (halt))
             (p p2 (c ^x <v> ^k <w>) (b ^y <v> ^z > <w>) --> (halt))
             (p p3 (a ^x <v>) (b ^z <v>) --> (halt))",
        )
        .unwrap();
        let net = Network::compile(&prog).unwrap();
        let [ca, cb, cc] = ["a", "b", "c"].map(|s| prog.symbols.intern(s));
        let (j1, j2, j3) = (net.join(0), net.join(1), net.join(2));
        assert_eq!(j1.right_mem, j2.right_mem, "same pattern, same signature");
        assert_ne!(j1.right_mem, j3.right_mem, "another signature");
        for mut mem in both(&net, 8) {
            let mem = mem.as_mut();
            // Both pass p1's test (y = v); only `hi` passes p2's z > w too.
            let hi = Wme::new(cb, vec![Value::Int(1), Value::Int(7)], 1);
            let lo = Wme::new(cb, vec![Value::Int(1), Value::Int(0)], 2);
            let key = store(mem, &net, j1, &hi);
            store(mem, &net, j1, &lo);
            assert_eq!(mem.total_entries(), 2);
            assert_eq!(mem.right_count(j1.right_mem), 2);
            assert_eq!(mem.right_count(j3.right_mem), 0);

            let ta = Token::single(Wme::new(ca, vec![Value::Int(1)], 3));
            let tc = Token::single(Wme::new(cc, vec![Value::Int(1), Value::Int(1)], 4));
            let mut out = Vec::new();
            mem.scan_right(j1, mem.probe_key(j1, &ta), &ta, &mut out);
            assert_eq!(out.len(), 2, "{}: p1 reads both", mem.kind_name());
            mem.scan_right(j2, mem.probe_key(j2, &tc), &tc, &mut out);
            assert_eq!(out.len(), 1, "{}: p2 applies its own test", mem.kind_name());
            assert_eq!(out[0].0.timetag, 1);
            let (n, _) = mem.count_right(j2, mem.probe_key(j2, &tc), &tc);
            assert_eq!(n, 1);

            assert!(mem.remove_right(j1.right_mem, key, &hi).entry.is_some());
            assert_eq!(mem.total_entries(), 1);
            mem.scan_right(j2, mem.probe_key(j2, &tc), &tc, &mut out);
            assert!(out.is_empty(), "one remove retires it for every reader");
        }
    }

    #[test]
    fn neg_count_transitions() {
        // Not-node counters: insert two matching right wmes, remove them.
        let mut prog = Program::from_source("(p q (a ^x <v>) - (b ^y <v>) --> (halt))").unwrap();
        let net = Network::compile(&prog).unwrap();
        let j = net.join(0);
        assert!(j.negated);

        let ca = prog.symbols.intern("a");
        let cb = prog.symbols.intern("b");
        let mut mem = HashMem::new(HashMemConfig { buckets: 8 }, &net);
        let tok = Token::single(Wme::new(ca, vec![Value::Int(1)], 1));
        mem.insert_left(j, mem.left_key(j, &tok), tok.clone(), 0);

        let wb = Wme::new(cb, vec![Value::Int(1)], 2);
        let wb2 = Wme::new(cb, vec![Value::Int(1)], 3);
        let kb = mem.right_key(j, &wb);
        let kb2 = mem.right_key(j, &wb2);

        let mut crossed = Vec::new();
        // 0 -> 1 crossing reported once.
        mem.adjust_left_counts(j, kb, &wb, 1, &mut crossed);
        assert_eq!(crossed.len(), 1);
        // 1 -> 2: no crossing.
        mem.adjust_left_counts(j, kb2, &wb2, 1, &mut crossed);
        assert_eq!(crossed.len(), 0);
        // 2 -> 1: no crossing.
        mem.adjust_left_counts(j, kb2, &wb2, -1, &mut crossed);
        assert_eq!(crossed.len(), 0);
        // 1 -> 0: crossing.
        mem.adjust_left_counts(j, kb, &wb, -1, &mut crossed);
        assert_eq!(crossed.len(), 1);
    }

    #[test]
    fn counts_track_inserts_and_removes() {
        let (mut prog, net) = setup();
        let ca = prog.symbols.intern("a");
        let cb = prog.symbols.intern("b");
        let j = net.join(0);
        for mut mem in both(&net, 8) {
            let mem = mem.as_mut();
            assert_eq!(mem.left_count(j.id), 0);
            assert_eq!(mem.right_count(j.right_mem), 0);
            let tok = Token::single(Wme::new(ca, vec![Value::Int(1)], 1));
            let lk = mem.left_key(j, &tok);
            mem.insert_left(j, lk, tok.clone(), 0);
            assert_eq!(mem.left_count(j.id), 1);
            let wb = Wme::new(cb, vec![Value::Int(1)], 2);
            let rk = store(mem, &net, j, &wb);
            store(mem, &net, j, &wb);
            assert_eq!(mem.right_count(j.right_mem), 2);
            mem.remove_right(j.right_mem, rk, &wb);
            assert_eq!(mem.right_count(j.right_mem), 1);
            mem.remove_left(j, lk, &tok);
            assert_eq!(mem.left_count(j.id), 0);
            // A failed remove must not disturb the count.
            mem.remove_left(j, lk, &tok);
            assert_eq!(mem.left_count(j.id), 0);
        }
    }

    #[test]
    fn cross_product_join_shares_one_line() {
        // No eq tests: every token of the join lands in the same line.
        let mut prog = Program::from_source("(p q (a ^x <v>) (b ^y <w>) --> (halt))").unwrap();
        let net = Network::compile(&prog).unwrap();
        let j = net.join(0);
        let cb = prog.symbols.intern("b");
        let mut mem = HashMem::new(HashMemConfig { buckets: 256 }, &net);
        for i in 0..50 {
            let w = Wme::new(cb, vec![Value::Int(i)], i as u64 + 1);
            store(&mut mem, &net, j, &w);
        }
        let ca = prog.symbols.intern("a");
        let tok = Token::single(Wme::new(ca, vec![Value::Int(0)], 100));
        let mut out = Vec::new();
        let s = mem.scan_right(j, mem.probe_key(j, &tok), &tok, &mut out);
        assert_eq!(out.len(), 50, "cross-product matches everything");
        assert_eq!(
            s.examined, 50,
            "and examines everything — the Tourney pathology"
        );
    }
}
