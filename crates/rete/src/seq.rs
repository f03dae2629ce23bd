//! The sequential matcher — the paper's uniprocessor C implementations —
//! and the one node activation it runs.
//!
//! `SeqMatcher<Lists>` is *vs1*, `SeqMatcher<Hashed>` is *vs2* (Table
//! 4-1), and the `lispsim` crate's matcher is a `SeqMatcher` over vs1's line
//! per memory whose join tests are interpreted (Table 4-4): three policies
//! of one memory, [`HashMem`], and one algorithm. *col*
//! ([`crate::colmatch`]) is vs2 under its own name. All of them run one
//! schedule, the agenda below.
//!
//! # The node activation
//!
//! The paper's unit of match work is one node activation (§3.1). The kernel
//! has four:
//!
//! * the **right store** applies one change to one right memory, once. A
//!   right memory belongs to the network, not to a join
//!   ([`Network::right_mems`], one per alpha pattern × equality signature).
//!   All its readers are booked as join activations; the ones *linked* to
//!   it — left memory non-empty, `readers::LinkedReaders` — run their right
//!   activation, and the rest are retired as `null_skipped` by subtraction,
//!   never looked at;
//! * a linked reader's **right activation** meets the change already in (or
//!   out of) the memory it shares, so only its left side remains: a
//!   positive join pairs the WME with its left line, a not-node adjusts the
//!   blocker counts there and passes on each token that crosses zero;
//! * the **left activation** of a positive join or a not-node, `+` or `-`,
//!   stores or removes the token and scans (or counts) the right memory; a
//!   join whose left memory goes 0 → 1 or 1 → 0 links or unlinks itself;
//! * the **fan-out** sends an output to every successor: a downstream
//!   join's left input under its key in that join's left memory, or a
//!   terminal.
//!
//! The outputs wait on an [`Agenda`] (terminals as [`Task::Terminal`]),
//! which runs them depth-first, below.
//!
//! **A firing retracts before it asserts.** A batch is the *set* it is
//! ([`ChangeBatch`]), not the order the RHS wrote it in, and
//! [`SeqMatcher::submit`] fixes one order: the batch's retractions (all
//! classes, group order, order within a group kept), run to quiescence, and
//! then its assertions. The paper's `modify` is "a delete followed by an
//! add", so a firing that modifies the
//! k WMEs it matched would, as written, tear down and rebuild the chain
//! below each CE in turn, k times, for an instantiation its last action
//! retracts anyway. With the deletes first the chain comes down once and
//! whatever goes up is built from WMEs that stay. The folded conflict set,
//! fired flags included, is the same in any order: an instantiation leaves
//! the set only because one of its WMEs was retracted (timetags are never
//! reissued) or a blocker was asserted (whose retraction in the same batch
//! would have annihilated in `push`), and neither can be undone inside the
//! batch, so what is in the set before and after a batch is never removed
//! inside it. Order only decides which transients get built. psm and
//! `psm::trace` take a batch as written (Tables 4-5..4-9 are its goldens).
//!
//! **A retraction costs what it removes** (Doorenbos's tree-based removal,
//! kept in the memory policy). Every positive join keeps, in each left
//! entry, the children it sent on: a child is a token and a slot,
//! `token.extended(w)` and the slot of `w`'s right entry ([`Child`]). The
//! entry's `aux` is the head of its list, where a not-node's is its blocker
//! count. The activations change the lists where
//! they already touch the entries:
//!
//! * right `+`: each entry the join tests pass on its line adopts its child
//!   ([`HashMem::extend_left`], given the change's store key), and the
//!   child goes down as before;
//! * right `-`: each entry on its line gives up the child made with the
//!   leaving right entry, found by the slot its removal returned, with no
//!   join test ([`HashMem::take_child`]);
//! * left `+`: the scan's hits become the new entry's list
//!   ([`HashMem::slot_at`], [`HashMem::adopt`]);
//! * left `-`: the entry is taken out and its list sent as it is
//!   ([`HashMem::take_children`]): no probe key, no scan, no join test, no
//!   token built.
//!
//! A kept child leaves through the fan-out like any output: to a join under
//! the key the fan-out computes in that join's left memory, and to a
//! terminal as the very token the conflict set holds (a removal finds its
//! entry at `Arc::ptr_eq`). Only not-nodes rematch: their output is the
//! token itself, and a leaving blocker must re-test.
//!
//! A list stands in for the rematch it replaces only if, whenever a removal
//! takes from it, it is exactly what the rematch would find, in the order
//! it would find it. The order is the activation's: a list taken whole is
//! sorted by where its right entries stand in their line now (`swap_remove`
//! moves a line's last entry forward), so the children leave in the
//! rematch's order and everything downstream — left memory orders, Table
//! 4-3, the CS-change order — is unchanged. The set is the agenda's: each
//! child must join a list once, when the second of its halves arrives, and
//! leave it once, when the first half leaves (the argument is below).
//! Debug builds check every removal at a positive join, as they check the
//! reader lists on every store: the children taken are the rematch's tokens
//! in the rematch's order, and an empty right memory leaves none.
//!
//! # The agenda
//!
//! Node activations are processed depth-first off an explicit stack; each
//! activation updates the memories and schedules successor activations,
//! exactly the task structure the parallel matcher distributes across match
//! processes. Where it departs from the paper, besides the shared right
//! memories, is the batch order above. Within one sign each change goes
//! alone through steps 0-3, to quiescence before the next:
//!
//! 0. the change's candidate patterns come out of the class's constant
//!    index ([`ClassPatterns::candidates`](crate::network::ClassPatterns),
//!    ascending, as the linear chain met them) and run their test lists;
//! 1. the passing patterns' alpha-direct left tokens and terminals go to the
//!    *bottom* of the agenda;
//! 2. every right memory of a passing pattern takes the change (the right
//!    store), and its linked readers run their right activation in
//!    ascending join order (no own-side insert, against left memories
//!    nothing of this change has touched yet);
//! 3. the agenda drains, one left or terminal activation at a time.
//!
//! That order is what makes one shared memory equivalent to a private one
//! per join. Every right activation of a change runs before any left
//! activation of it and sees the change already applied, so a pair whose
//! two sides arrive in the same change (a self-join; a join downstream of
//! another reader of the same memory) is found by the left activation and
//! only by it. The stack pops the highest reader's emissions first and the
//! alpha-direct tokens last, so whatever a right activation sent below a
//! join gets there before anything this change sends through the join's
//! left input: a not-node that lets a token through because its blocker is
//! leaving, when the token is leaving too, passes the `+` on before the `-`.
//! It is the per-join kernel's result with the right activations taken in
//! descending join order — successors are always forward, so a reader's
//! left memory cannot change before its turn — and every dead one dropped.
//!
//! The same order is why the linked list of a memory *is* the filter
//! `readers.filter(left_count != 0)` it replaced, at the moment a store
//! reads it: left memories, and so the lists, only change in step 3, and
//! step 2 of a change is over before its step 3 begins and after the
//! previous change's has ended. Same set, same ascending order, same
//! counters; debug builds assert it on every store.
//!
//! And it is why each kept child is sent once. A child joins a list when the
//! second of its halves arrives — a right `+` runs before any left
//! activation of its change, and a left `+` scans a memory the change is
//! already in, so a pair whose two halves arrive together is adopted once,
//! by the left side, as it was emitted once — and leaves when the first half
//! leaves: a right `-` takes it in step 2, before the left `-` of the same
//! change can send it, so a self-join WME that leaves the token and the
//! right memory at once sends each child once.

use crate::memory::{
    Child, HashMem, HashMemConfig, Hashed, JoinTests, Lists, Removed, ScanStats, NIL,
};
use crate::network::{ClassPatterns, JoinId, JoinNode, Network, RightMemId, Succ};
use crate::profile::BufferedProfile;
use crate::readers::LinkedReaders;
use crate::token::Token;
use ops5::{
    ChangeBatch, CsChange, Instantiation, MatchStats, Matcher, ProdId, QuiesceReport, Sign,
    StatsDeltaTracker, Wme, WmeRef,
};
use std::sync::Arc;

/// One schedulable unit of match work (§3.1: a node activation). Right
/// activations never wait on the agenda: they run as their memory changes.
#[derive(Debug, Clone)]
pub enum Task {
    Left {
        join: JoinId,
        sign: Sign,
        token: Token,
    },
    Terminal {
        prod: ProdId,
        sign: Sign,
        token: Token,
    },
}

/// The schedule: the stack of pending activations (module docs). A left
/// task's key in its join's left memory rides on a stack of its own, pushed
/// and popped with the task, so a [`Task`] stays two words: a key field
/// would make every task three, terminal ones included.
#[derive(Default)]
pub struct Agenda {
    tasks: Vec<Task>,
    keys: Vec<u64>,
    /// The live readers of the change in flight (step 2), ascending, each
    /// with the change's entry in the memory it reads: its slot (a `-`
    /// only) and its key.
    live: Vec<(JoinId, u32, u64)>,
}

impl Agenda {
    /// `token` is to enter `join`'s left input, under `key` in its left
    /// memory.
    #[inline]
    fn left(&mut self, join: JoinId, sign: Sign, token: Token, key: u64) {
        self.tasks.push(Task::Left { join, sign, token });
        self.keys.push(key);
    }

    /// The next task, with its key if it is a left one.
    #[inline]
    fn pop(&mut self) -> Option<(Task, u64)> {
        let task = self.tasks.pop()?;
        let key = match task {
            Task::Left { .. } => self.keys.pop().expect("every left task pushed its key"),
            Task::Terminal { .. } => 0,
        };
        Some((task, key))
    }
}

/// What the kernel counts: [`MatchStats`] plus the optional per-join
/// profile. One field of the kernel, so an activation can book its work
/// while it holds a node borrowed from the network.
#[derive(Default)]
struct Tally {
    stats: MatchStats,
    /// `None` (the default) keeps the hot path free of recording.
    profile: Option<BufferedProfile>,
}

impl Tally {
    /// A left activation of `join`.
    #[inline]
    fn join_activation(&mut self, join: JoinId) {
        self.stats.activations += 1;
        self.stats.join_activations += 1;
        if let Some(p) = &mut self.profile {
            p.activation(join);
        }
    }

    /// A change delivered to all `readers` of `mem`: the `linked` ones will
    /// run, and the dead rest is retired here without being visited.
    #[inline]
    fn right_store(&mut self, mem: RightMemId, readers: usize, linked: usize) {
        self.stats.activations += readers as u64;
        self.stats.join_activations += readers as u64;
        self.stats.null_skipped += (readers - linked) as u64;
        self.stats.readers_visited += linked as u64;
        if let Some(p) = &mut self.profile {
            p.right_store(mem);
        }
    }

    /// A left activation whose right memory is empty network-wide: the scan
    /// would examine nothing and emit nothing, so none is made.
    #[inline]
    fn null(&mut self) {
        self.stats.null_activations += 1;
    }

    /// A left activation's scan of the right memory.
    #[inline]
    fn scan_from_left(&mut self, join: JoinId, scan: ScanStats) {
        self.stats.opp_tokens_left += scan.examined;
        self.stats.opp_nonempty_left += scan.nonempty as u64;
        if let Some(p) = &mut self.profile {
            p.scan(join, scan.examined);
        }
    }

    /// A right activation's scan of the left memory.
    #[inline]
    fn scan_from_right(&mut self, join: JoinId, scan: ScanStats) {
        self.stats.opp_tokens_right += scan.examined;
        self.stats.opp_nonempty_right += scan.nonempty as u64;
        if let Some(p) = &mut self.profile {
            p.scan(join, scan.examined);
        }
    }
}

/// Everything a match mutates. The network it walks is passed in, so
/// [`SeqMatcher`] lends out `net` and `kernel` as two disjoint fields and a
/// submit never touches the `Arc`'s count — a cache line every session of
/// one compiled program shares.
struct Kernel<T: JoinTests> {
    mem: HashMem<T>,
    /// Per right memory, the readers whose left memory in `mem` is
    /// non-empty.
    linked: LinkedReaders,
    tally: Tally,
    /// Where the activations' outputs wait.
    agenda: Agenda,
    out: Vec<CsChange>,
    /// Reusable buffers: a steady-state activation allocates nothing.
    scratch_wmes: Vec<(WmeRef, u32)>,
    scratch_tokens: Vec<Token>,
    scratch_kids: Vec<Child>,
}

/// Sequential Rete matcher over the memory policy `T`.
pub struct SeqMatcher<T: JoinTests> {
    net: Arc<Network>,
    kernel: Kernel<T>,
    delta: StatsDeltaTracker,
    /// [`Matcher::name`]: the memory policy's, or col's
    /// ([`crate::colmatch`]).
    pub(crate) name: &'static str,
}

impl<T: JoinTests> SeqMatcher<T> {
    /// The kernel on `net` over the memories `mem` (built for `net`).
    pub fn over(net: Arc<Network>, mem: HashMem<T>) -> Self {
        SeqMatcher {
            name: T::NAME,
            kernel: Kernel {
                mem,
                linked: LinkedReaders::new(&net),
                tally: Tally::default(),
                agenda: Agenda::default(),
                out: Vec::new(),
                scratch_wmes: Vec::new(),
                scratch_tokens: Vec::new(),
                scratch_kids: Vec::new(),
            },
            net,
            delta: StatsDeltaTracker::default(),
        }
    }

    /// Direct access to the network (tests, tooling).
    pub fn network(&self) -> &Arc<Network> {
        &self.net
    }

    /// Total memory entries (invariant checks in tests).
    pub fn memory_entries(&self) -> usize {
        self.kernel.mem.total_entries()
    }

    /// Per right memory, the readers linked to it, and the entries of one
    /// join's left memory: tests hold the lists to the filter they replaced.
    #[doc(hidden)]
    pub fn linked_readers(&self) -> &[Vec<JoinId>] {
        self.kernel.linked.lists()
    }

    #[doc(hidden)]
    pub fn left_entries(&self, join: JoinId) -> u32 {
        self.kernel.mem.left_count(join)
    }

    /// Lines of the table now: tests watch one sized by its population grow.
    #[doc(hidden)]
    pub fn table_lines(&self) -> usize {
        self.kernel.mem.n_lines()
    }
}

impl SeqMatcher<Lists> {
    /// vs1: linear-list memories, a line per memory.
    pub fn vs1(net: Arc<Network>) -> Self {
        let mem = HashMem::lists(Lists, &net);
        SeqMatcher::over(net, mem)
    }
}

impl SeqMatcher<Hashed> {
    /// vs2: global hash-table memories.
    pub fn vs2(net: Arc<Network>, cfg: HashMemConfig) -> Self {
        let mem = HashMem::new(cfg, &net);
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

/// Is `child` `token` extended by `w`? Compared by timetags, allocating
/// nothing (debug checks run inside the allocation gates too).
fn extends(child: &Token, token: &Token, w: &Wme) -> bool {
    child.len() == token.len() + 1
        && child.last_wme().is_some_and(|l| l.timetag == w.timetag)
        && (child.iter_back().skip(1).zip(token.iter_back())).all(|(a, b)| a.timetag == b.timetag)
}

/// A removal at a positive join, as the rematch it replaces
/// would see it.
enum Removal<'a> {
    /// A left `-` of a token; `true`: the join's right memory is empty.
    Left(&'a Token, bool),
    /// A right `-` of a WME, with the key of its line in the join's left
    /// memory.
    Right(u64, &'a Wme),
}

/// Are `kids`, just taken at `j` for `removal`, what the rematch they
/// replace would have sent: for each (token, WME) pair a scan finds — of
/// `j`'s right memory for a left `-`, of its left line for a right `-` — in
/// the scan's order, the token extended by the WME? An empty right memory
/// leaves no child. The scans go into the caller's scratch buffers, left
/// empty, so the check allocates nothing inside the allocation gates.
fn kids_are_the_rematch<T: JoinTests>(
    mem: &HashMem<T>,
    j: &JoinNode,
    removal: Removal<'_>,
    kids: &[Child],
    wmes: &mut Vec<(WmeRef, u32)>,
    tokens: &mut Vec<Token>,
) -> bool {
    let same = match removal {
        Removal::Left(_, true) => kids.is_empty(),
        Removal::Left(token, false) => {
            mem.scan_right(j, T::probe_key(j, token), token, wmes);
            wmes.len() == kids.len()
                && (wmes.iter().zip(kids)).all(|((w, _), c)| extends(&c.token, token, w))
        }
        Removal::Right(key, wme) => {
            mem.scan_left(j, key, wme, tokens);
            tokens.len() == kids.len()
                && (tokens.iter().zip(kids)).all(|(t, c)| extends(&c.token, t, wme))
        }
    };
    wmes.clear();
    tokens.clear();
    same
}

impl<T: JoinTests> Kernel<T> {
    /// Sends `token` to every successor in `succs`: a shared join fans it
    /// out to each consumer (token clones are `Arc` bumps); on the paper's
    /// network every join has exactly one successor.
    fn send(&mut self, net: &Network, succs: &[Succ], token: Token, sign: Sign) {
        if let [rest @ .., last] = succs {
            for &succ in rest {
                self.emit(net, succ, sign, token.clone());
            }
            self.emit(net, *last, sign, token);
        }
    }

    /// Sends `token` to one successor: a downstream join's left input under
    /// its key in that join's left memory, or a terminal.
    fn emit(&mut self, net: &Network, succ: Succ, sign: Sign, token: Token) {
        match succ {
            Succ::Join(j) => {
                let key = T::left_key(net.join(j), &token);
                self.agenda.left(j, sign, token, key);
            }
            Succ::Terminal(prod) => self.agenda.tasks.push(Task::Terminal { prod, sign, token }),
        }
    }

    /// Books a change to right memory `mem` as a join activation of every
    /// one of its readers. The linked ones will run; the dead rest is
    /// retired by count without being looked at.
    fn book_readers(&mut self, net: &Network, mem: RightMemId) {
        debug_assert!(
            self.linked
                .is_the_filter(net, mem, |j| self.mem.left_count(j) != 0),
            "memory {mem}: linked readers are not the live ones"
        );
        let linked = self.linked.of(mem).len();
        let readers = net.right_mems[mem as usize].readers.len();
        self.tally.right_store(mem, readers, linked);
    }

    /// The right store: applies one change to right memory `mem`, once.
    /// Returns the change's entry there: its key and, for a `-`, the slot it
    /// left, by which the readers take the children made with it. No entry
    /// is given a slot before they have: a change's right activations run
    /// before its left ones.
    fn store(&mut self, net: &Network, mem: RightMemId, wme: &WmeRef, sign: Sign) -> (u64, u32) {
        let key = T::store_key(mem, &net.right_mems[mem as usize], wme);
        let slot = match sign {
            Sign::Plus => {
                self.mem.insert_right(mem, key, wme.clone());
                NIL
            }
            Sign::Minus => {
                let r = self.mem.remove_right(mem, key, wme);
                self.tally.stats.same_tokens_right += r.examined;
                self.tally.stats.same_searches_right += 1;
                debug_assert!(r.entry.is_some(), "sequential delete must find its wme");
                r.entry.unwrap_or(NIL)
            }
        };
        (key, slot)
    }

    /// The right activation of `j`, a reader linked to the memory that has
    /// just taken (or given up) `wme` under `store_key` — in `slot`, for a
    /// `-`; a not-node reads neither. The change is already in (or out of)
    /// the memory `j` shares, so only the left side remains.
    fn right_activation(
        &mut self,
        net: &Network,
        j: &JoinNode,
        wme: &WmeRef,
        sign: Sign,
        store_key: u64,
        slot: u32,
    ) {
        let key = T::right_key(j, wme);
        if j.negated {
            // Not-node: a new blocker takes the support of the tokens it
            // moves 0→1, a removed one returns it to those it moves 1→0.
            let delta = match sign {
                Sign::Plus => 1,
                Sign::Minus => -1,
            };
            let mut tokens = std::mem::take(&mut self.scratch_tokens);
            let scan = self.mem.adjust_left_counts(j, key, wme, delta, &mut tokens);
            self.tally.scan_from_right(j.id, scan);
            for t in tokens.drain(..) {
                self.send(net, &j.succs, t, sign.flip());
            }
            self.scratch_tokens = tokens;
        } else {
            // The pairing entries adopt the new child, or give up the one
            // made with the leaving entry.
            let scan = match sign {
                Sign::Plus => {
                    let kids = &mut self.scratch_kids;
                    self.mem.extend_left(j, key, wme, store_key, kids)
                }
                Sign::Minus => self.mem.take_child(j, key, slot, &mut self.scratch_kids),
            };
            self.tally.scan_from_right(j.id, scan);
            debug_assert!(
                sign == Sign::Plus
                    || kids_are_the_rematch(
                        &self.mem,
                        j,
                        Removal::Right(key, wme),
                        &self.scratch_kids,
                        &mut self.scratch_wmes,
                        &mut self.scratch_tokens,
                    ),
                "join {}: the children taken for -{} are not the rematch's",
                j.id,
                wme.timetag
            );
            self.send_children(net, j, sign);
        }
    }

    /// The left activation of `j` for `token`, to be stored under `key` in
    /// `j`'s left memory (`+`) or taken out of it (`-`); `opp_empty`: `j`'s
    /// right memory is empty network-wide. The caller books the activation.
    /// The node is borrowed from the network for the whole activation and
    /// nothing here allocates beyond what the memories and the agenda have
    /// to keep.
    fn left_activation(
        &mut self,
        net: &Network,
        j: &JoinNode,
        sign: Sign,
        token: Token,
        key: u64,
        opp_empty: bool,
    ) {
        match (j.negated, sign) {
            (false, Sign::Plus) => {
                // The entry's children, listed before it is stored.
                let mut kids = NIL;
                if opp_empty {
                    self.tally.null();
                } else {
                    let probe = self.scan_right(j, &token);
                    let mut wmes = std::mem::take(&mut self.scratch_wmes);
                    for (w, at) in wmes.drain(..) {
                        let slot = self.mem.slot_at(j.right_mem, probe, at);
                        let token = token.extended(w);
                        self.send(net, &j.succs, token.clone(), sign);
                        self.mem.adopt(&mut kids, Child { token, slot });
                    }
                    self.scratch_wmes = wmes;
                }
                self.insert_left(j, key, token, kids);
            }
            (false, Sign::Minus) => {
                let kids = self.remove_left(j, key, &token).entry.unwrap_or(NIL);
                if opp_empty {
                    self.tally.null();
                }
                // Tree-based removal: the entry's children go on as they
                // are.
                self.mem.take_children(kids, &mut self.scratch_kids);
                debug_assert!(
                    kids_are_the_rematch(
                        &self.mem,
                        j,
                        Removal::Left(&token, opp_empty),
                        &self.scratch_kids,
                        &mut self.scratch_wmes,
                        &mut self.scratch_tokens,
                    ),
                    "join {}: the children of -{token:?} are not the rematch's",
                    j.id
                );
                self.send_children(net, j, sign);
            }
            (true, Sign::Plus) => {
                // No right WME at all: the count is 0 without looking.
                let n = if opp_empty {
                    self.tally.null();
                    0
                } else {
                    let probe = T::probe_key(j, &token);
                    let (n, scan) = self.mem.count_right(j, probe, &token);
                    self.tally.scan_from_left(j.id, scan);
                    n
                };
                if n == 0 {
                    self.send(net, &j.succs, token.clone(), sign);
                }
                self.insert_left(j, key, token, n);
            }
            (true, Sign::Minus) => {
                let r = self.remove_left(j, key, &token);
                if r.entry == Some(0) {
                    self.send(net, &j.succs, token, sign);
                }
            }
        }
    }

    /// Stores a token in `j`'s left memory; the first one links `j` to its
    /// right memory.
    fn insert_left(&mut self, j: &JoinNode, key: u64, token: Token, aux: u32) {
        self.mem.insert_left(j, key, token, aux);
        if self.mem.left_count(j.id) == 1 {
            self.linked.link(j);
        }
    }

    /// Takes a token out of `j`'s left memory; the last one unlinks `j`.
    fn remove_left(&mut self, j: &JoinNode, key: u64, token: &Token) -> Removed<u32> {
        let r = self.mem.remove_left(j, key, token);
        self.tally.stats.same_tokens_left += r.examined;
        self.tally.stats.same_searches_left += 1;
        debug_assert!(r.entry.is_some(), "sequential delete must find its token");
        if r.entry.is_some() && self.mem.left_count(j.id) == 0 {
            self.linked.unlink(j);
        }
        r
    }

    /// A left activation's scan of `j`'s right memory for `token`, into
    /// `scratch_wmes`; returns the probe key.
    fn scan_right(&mut self, j: &JoinNode, token: &Token) -> u64 {
        let probe = T::probe_key(j, token);
        let scan = self.mem.scan_right(j, probe, token, &mut self.scratch_wmes);
        self.tally.scan_from_left(j.id, scan);
        probe
    }

    /// Sends the children in `scratch_kids`, kept by `j`, on.
    fn send_children(&mut self, net: &Network, j: &JoinNode, sign: Sign) {
        let mut kids = std::mem::take(&mut self.scratch_kids);
        for c in kids.drain(..) {
            self.send(net, &j.succs, c.token, sign);
        }
        self.scratch_kids = kids;
    }

    /// One WME change against its class's patterns, start to quiescence
    /// (module docs, steps 0-3).
    fn change(&mut self, net: &Network, class: &ClassPatterns, wme: &WmeRef, sign: Sign) {
        debug_assert!(self.agenda.tasks.is_empty() && self.agenda.live.is_empty());
        debug_assert!(net.index_covers(wme), "alpha index dropped a pattern");
        // One 1-WME token per change, shared by every alpha-direct
        // successor it feeds (token clones are `Arc` bumps).
        let mut single: Option<Token> = None;
        for pid in class.candidates(wme) {
            let pat = net.pattern(pid);
            if !pat.passes(wme, &mut self.tally.stats.alpha_tests) {
                continue;
            }
            for succ in pat.succs.iter().filter_map(|s| s.left_input()) {
                let token = single.get_or_insert_with(|| Token::single(wme.clone()));
                self.emit(net, succ, sign, token.clone());
            }
            for &mem in &pat.right_mems {
                self.book_readers(net, mem);
                let (key, slot) = self.store(net, mem, wme, sign);
                let linked = self.linked.of(mem).iter();
                self.agenda.live.extend(linked.map(|&j| (j, slot, key)));
            }
        }
        // Each memory lists its readers in ascending order, so this only
        // has work to do when live readers come from several memories.
        self.agenda.live.sort_unstable();
        for i in 0..self.agenda.live.len() {
            let (join, slot, key) = self.agenda.live[i];
            self.right_activation(net, net.join(join), wme, sign, key, slot);
        }
        self.agenda.live.clear();
        while let Some((task, key)) = self.agenda.pop() {
            match task {
                Task::Left { join, sign, token } => {
                    self.tally.join_activation(join);
                    let j = net.join(join);
                    let opp_empty = self.mem.right_count(j.right_mem) == 0;
                    self.left_activation(net, j, sign, token, key, opp_empty);
                }
                Task::Terminal { prod, sign, token } => {
                    let stats = &mut self.tally.stats;
                    stats.activations += 1;
                    stats.cs_changes += 1;
                    let inst = Instantiation { prod, wmes: token };
                    self.out.push(match sign {
                        Sign::Plus => CsChange::Insert(inst),
                        Sign::Minus => CsChange::Remove(inst),
                    });
                }
            }
        }
    }
}

impl<T: JoinTests> Matcher for SeqMatcher<T>
where
    HashMem<T>: Send,
{
    fn submit(&mut self, batch: &ChangeBatch) {
        let k = &mut self.kernel;
        // Pairs annihilated in the batch, as the parallel matcher books them,
        // and one alpha activation per class group, whatever its signs.
        k.tally.stats.conjugate_pairs += batch.annihilated();
        for (_, group) in batch.groups() {
            k.tally.stats.alpha_activations += 1;
            k.tally.stats.wme_changes += group.len() as u64;
        }
        // The batch's retractions, then its assertions (module docs), one
        // change at a time, each cascade to its end (no conjugate-pair
        // parking, unlike the parallel matcher).
        for sign in [Sign::Minus, Sign::Plus] {
            for (class, group) in batch.groups() {
                let Some(patterns) = self.net.class_patterns(class) else {
                    continue;
                };
                for change in group.iter().filter(|c| c.sign == sign) {
                    k.change(&self.net, patterns, &change.wme, sign);
                }
            }
        }
    }

    fn quiesce(&mut self) -> QuiesceReport {
        let k = &mut self.kernel;
        debug_assert!(k.agenda.tasks.is_empty());
        if let Some(p) = &mut k.tally.profile {
            p.flush(&self.net);
        }
        QuiesceReport {
            cs_changes: std::mem::take(&mut k.out),
            stats_delta: self.delta.take(k.tally.stats),
            phase: None,
        }
    }

    fn stats(&self) -> MatchStats {
        self.kernel.tally.stats
    }

    fn reset_stats(&mut self) {
        self.kernel.tally.stats = MatchStats::default();
        self.delta.reset();
    }

    fn name(&self) -> &'static str {
        self.name
    }

    fn enable_obs(&mut self, _registry: &Arc<obs::Registry>) {
        if self.kernel.tally.profile.is_none() {
            self.kernel.tally.profile = Some(BufferedProfile::new(&self.net));
        }
    }

    fn node_profile(&self) -> Option<Arc<obs::NodeProfile>> {
        self.kernel.tally.profile.as_ref().map(|p| p.shared.clone())
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

    /// Unlink and relink lifecycle of the linked reader lists: a left
    /// activation whose right memory is empty makes no scan, scans again the
    /// moment the memory becomes non-empty, and survives a conjugate
    /// add/delete pair that empties the memory again; a right change never
    /// runs a reader whose left memory is empty.
    #[test]
    fn unlinking_gate_relinks_after_conjugate_add_delete() {
        let src = "(p q (a ^x <v>) (b ^y <v>) --> (halt))";
        let mut prog = Program::from_source(src).unwrap();
        let net = Arc::new(Network::compile(&prog).unwrap());
        let mut m = SeqMatcher::vs2(net, HashMemConfig { buckets: 16 });

        let wa = wme(&mut prog, "a", vec![Value::Int(1)], 1);
        let wb = wme(&mut prog, "b", vec![Value::Int(1)], 2);
        let wb2 = wme(&mut prog, "b", vec![Value::Int(1)], 3);

        // Submits one change; the conflict-set changes it made.
        let mut step = |sign: Sign, w: &WmeRef| {
            m.submit(&ChangeBatch::single(WmeChange {
                sign,
                wme: w.clone(),
            }));
            let cs = m.quiesce().cs_changes.len();
            (cs, m.stats().null_skipped, m.stats().null_activations)
        };

        // Right memory empty: both left activations are null.
        assert_eq!(step(Sign::Plus, &wa), (0, 0, 1), "add a (unlinked)");
        assert_eq!(step(Sign::Minus, &wa), (0, 0, 2), "remove a (unlinked)");
        // Left memory empty: the reader is dead.
        assert_eq!(step(Sign::Plus, &wb), (0, 1, 2), "add b (dead reader)");
        // Non-empty right memory: the join must relink and find the pair.
        assert_eq!(step(Sign::Plus, &wa), (1, 1, 2), "add a (relinked)");
        // Conjugate pair through the (now populated) join.
        assert_eq!(step(Sign::Plus, &wb2), (1, 1, 2), "conjugate add");
        assert_eq!(step(Sign::Minus, &wb2), (1, 1, 2), "conjugate delete");
        // Empty the left memory again; b's retract finds its reader dead.
        assert_eq!(step(Sign::Minus, &wa), (1, 1, 2), "remove a");
        assert_eq!(step(Sign::Minus, &wb), (0, 2, 2), "remove b (dead reader)");
        assert_eq!(m.stats().join_activations, 8);
        assert_eq!(m.memory_entries(), 0);
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

    /// The per-join profile accounts for every join activation and every
    /// token a scan examined.
    #[test]
    fn obs_profile_reconciles_with_stats() {
        let (mut prog, _net, ms) = both("(p q (a ^x <v>) (b ^y <v>) --> (halt))");
        for mut m in ms {
            m.enable_obs(&Arc::new(obs::Registry::new()));
            let mut b = ChangeBatch::new();
            for i in 0..8 {
                b.add(wme(&mut prog, "a", vec![Value::Int(i % 3)], i as u64 + 1));
                b.add(wme(&mut prog, "b", vec![Value::Int(i % 3)], i as u64 + 100));
            }
            m.submit(&b);
            m.quiesce();
            let p = m.node_profile().unwrap();
            let s = m.stats();
            assert_eq!(p.total_activations(), s.join_activations, "{}", m.name());
            let scanned = s.opp_tokens_left + s.opp_tokens_right;
            assert_eq!(p.total_scanned(), scanned, "{}", m.name());
        }
    }

    // ---- Linked readers ----

    fn ints(prog: &mut Program, class: &str, vals: &[i64], tag: u64) -> WmeRef {
        wme(
            prog,
            class,
            vals.iter().map(|&v| Value::Int(v)).collect(),
            tag,
        )
    }

    /// A reader goes dead → live inside one batch and live → dead inside the
    /// next. `[+b, +c]`: `+b` makes the upstream join emit into J1's empty
    /// left memory and `+c` arrives in the memory J1 reads. `[-a, -c]`: `-a`
    /// takes the token out again and `-c` leaves the memory J1 no longer
    /// reads. J1 must be on its memory's list exactly while it holds the
    /// token — linked before the *next change's* right store, not when the
    /// batch is over. Two same-sign batches, because `submit` takes a
    /// batch's retractions first: `[+b, +c, -a]` as one batch runs `-a`
    /// before anything is built and derives nothing.
    ///
    /// Kills "link (or unlink) deferred to the end of `submit`": `+c` never
    /// meets `(a, b)`, so no `Insert`, and the `-a` that follows retracts
    /// what was never asserted; `-c` finds J1 still listed and visits it.
    #[test]
    fn a_reader_goes_dead_live_dead_inside_one_batch() {
        fn check<T: JoinTests>(mut m: SeqMatcher<T>, prog: &mut Program)
        where
            HashMem<T>: Send,
        {
            let a1 = ints(prog, "a", &[1], 1);
            let (b1, c1, c2) = (
                ints(prog, "b", &[1], 2),
                ints(prog, "c", &[1], 3),
                ints(prog, "c", &[1], 4),
            );
            add(&mut m, a1.clone());
            assert_eq!(m.linked_readers(), [vec![0], vec![]]);
            let mut asserts = ChangeBatch::new();
            asserts.add(b1);
            asserts.add(c1.clone());
            m.submit(&asserts);
            assert_eq!(m.linked_readers(), [vec![0], vec![1]], "{}", m.name());
            // J0 ran for `+b`, J1 for `+c`.
            assert_eq!(m.stats().readers_visited, 2);
            let skipped = m.stats().null_skipped;
            let mut retracts = ChangeBatch::new();
            retracts.delete(a1);
            retracts.delete(c1);
            m.submit(&retracts);
            let cs = m.quiesce().cs_changes;
            assert!(
                matches!(&cs[..], [CsChange::Insert(i), CsChange::Remove(r)]
                    if i.key() == r.key() && i.wmes.len() == 3),
                "{}: +c must find J1 linked: {cs:?}",
                m.name()
            );
            let live = crate::readers::live_readers(m.network(), |j| m.left_entries(j) != 0);
            assert_eq!(m.linked_readers(), live);
            assert_eq!(m.linked_readers(), [vec![], vec![]], "{}", m.name());
            // `-a` emptied J1 before `-c` reached its memory; nobody is
            // looked at for `-c`, nor for `+c2`.
            let s = m.stats();
            assert_eq!((s.readers_visited, s.null_skipped), (2, skipped + 1));
            add(&mut m, c2);
            let s = m.stats();
            assert_eq!((s.readers_visited, s.null_skipped), (2, skipped + 2));
            assert!(m.quiesce().cs_changes.is_empty());
        }
        let src = "(p q (a ^x <v>) (b ^y <v>) (c ^z <v>) --> (halt))";
        let (mut prog, net) = net_of(src);
        assert_eq!((net.n_joins(), net.right_mems.len()), (2, 2));
        check(SeqMatcher::vs1(net.clone()), &mut prog);
        check(
            SeqMatcher::vs2(net.clone(), HashMemConfig::default()),
            &mut prog,
        );
        check(
            SeqMatcher::vs2(net, HashMemConfig { buckets: 16 }),
            &mut prog,
        );
    }
}
