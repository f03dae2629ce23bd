//! The node activation over one hash line (§3.1–3.2), written once.
//!
//! psm under the simple lock and under MRSW, on match processes or on the
//! control thread (the trace), runs the same left and right activation of a
//! two-input (or not-) node. They differ in two policies, which are the
//! walk's type parameters:
//!
//! * [`Line`] — how the line's storage is reached. The simple lock's guard
//!   serves both kinds of access; MRSW takes the write lock for an own-side
//!   update and the read lock for an opposite-memory scan. A not-node right
//!   activation updates its own side and adjusts the left counts inside one
//!   write access.
//! * [`Effects`] — what an activation does besides touching the line: the
//!   `MatchStats` it books into (the running process's own), the per-join
//!   population counts that tell a null activation, and the push of each
//!   successor task (onto the shared queues, or the control thread's FIFO).
//!
//! The walk books every counter itself, so every driver counts alike.
//! A `+` that annihilates a parked `−`, and a `−` that parks, end the
//! activation: the pair cancels without propagating.

use crate::line::{MinusOutcome, ParLine, PlusOutcome, Side};
use crate::queue::ParTask;
use ops5::{MatchStats, Sign, WmeRef};
use rete::network::{AlphaSucc, JoinNode, Network, Succ};
use rete::token::Token;

/// Access to one line's storage for the length of an activation.
pub(crate) trait Line {
    /// Runs `f` with exclusive access (own-side updates).
    fn write<R>(&mut self, f: impl FnOnce(&mut ParLine) -> R) -> R;
    /// Runs `f` with shared access (opposite-memory scans).
    fn read<R>(&mut self, f: impl FnOnce(&ParLine) -> R) -> R;
}

/// What an activation does outside its line.
pub(crate) trait Effects {
    /// The counters this activation books into.
    fn stats(&mut self) -> &mut MatchStats;
    /// Whether `side` of `j` is empty in every line: a scan of it is a null
    /// activation.
    fn empty(&self, j: &JoinNode, side: Side) -> bool;
    /// `side` of `j` gained (`+1`) or lost (`-1`) an entry.
    fn count(&mut self, j: &JoinNode, side: Side, delta: i32);
    /// Queues a successor task.
    fn push(&mut self, task: ParTask);
}

/// An activation's work, as a [`crate::trace::TaskRecord`] records it.
#[derive(Default)]
pub(crate) struct Walked {
    /// Entries examined in the opposite memory.
    pub examined: u32,
    /// Entries examined by a delete's search of its own memory.
    pub same_examined: u32,
    /// Successor tasks pushed.
    pub emitted: u32,
    /// Constant tests evaluated (a root task).
    pub alpha_tests: u32,
}

/// Reusable scan buffers: a steady-state activation allocates nothing for
/// its match lists.
#[derive(Default)]
pub(crate) struct Scratch {
    wmes: Vec<WmeRef>,
    tokens: Vec<Token>,
}

/// Left activation of `j` by `token`, whose left key is `key`.
pub(crate) fn left(
    fx: &mut impl Effects,
    mut line: impl Line,
    scratch: &mut Scratch,
    j: &JoinNode,
    key: u64,
    sign: Sign,
    token: &Token,
) -> Walked {
    let mut w = Walked::default();
    activation(fx.stats());
    // With the join's right memory empty in every line the scan is a null
    // activation; it is still performed.
    let null = fx.empty(j, Side::Right);
    if !j.negated {
        let stored = match sign {
            Sign::Plus => plus(
                fx,
                j,
                Side::Left,
                line.write(|l| l.left_plus(j, key, token, 0)),
            ),
            Sign::Minus => {
                let o = line.write(|l| l.left_minus(j, key, token));
                minus(fx, j, Side::Left, o, &mut w).is_some()
            }
        };
        if stored {
            let e = line.read(|l| l.scan_right(j, key, token, &mut scratch.wmes));
            scanned(fx, &mut w, Side::Left, e, null);
            for wme in scratch.wmes.drain(..) {
                emit(fx, &mut w, &j.succs, &token.extended(wme), sign);
            }
        }
        return w;
    }
    match sign {
        Sign::Plus => {
            let (n, e) = line.read(|l| l.count_right(j, key, token));
            scanned(fx, &mut w, Side::Left, e, null);
            let o = line.write(|l| l.left_plus(j, key, token, n));
            if plus(fx, j, Side::Left, o) && n == 0 {
                emit(fx, &mut w, &j.succs, token, Sign::Plus);
            }
        }
        Sign::Minus => {
            let o = line.write(|l| l.left_minus(j, key, token));
            if minus(fx, j, Side::Left, o, &mut w) == Some(0) {
                emit(fx, &mut w, &j.succs, token, Sign::Minus);
            }
        }
    }
    w
}

/// Right activation of `j` by `wme`, whose right key is `key`.
pub(crate) fn right(
    fx: &mut impl Effects,
    mut line: impl Line,
    scratch: &mut Scratch,
    j: &JoinNode,
    key: u64,
    sign: Sign,
    wme: &WmeRef,
) -> Walked {
    let mut w = Walked::default();
    activation(fx.stats());
    // Mirrored: an empty left memory means no token can pair with (or be
    // count-adjusted by) this WME.
    let null = fx.empty(j, Side::Left);
    let own = |l: &mut ParLine, fx: &mut _, w: &mut Walked| match sign {
        Sign::Plus => plus(fx, j, Side::Right, l.right_plus(j, key, wme)),
        Sign::Minus => minus(fx, j, Side::Right, l.right_minus(j, key, wme), w).is_some(),
    };
    if !j.negated {
        if line.write(|l| own(l, fx, &mut w)) {
            let e = line.read(|l| l.scan_left(j, key, wme, &mut scratch.tokens));
            scanned(fx, &mut w, Side::Right, e, null);
            for t in scratch.tokens.drain(..) {
                emit(fx, &mut w, &j.succs, &t.extended(wme.clone()), sign);
            }
        }
        return w;
    }
    // A blocker's own update and the count adjustment it causes happen
    // under one write access; tokens whose count crossed zero flip sign.
    let delta = match sign {
        Sign::Plus => 1,
        Sign::Minus => -1,
    };
    let adjusted = line.write(|l| {
        own(l, fx, &mut w).then(|| l.adjust_left_counts(j, key, wme, delta, &mut scratch.tokens))
    });
    if let Some(e) = adjusted {
        scanned(fx, &mut w, Side::Right, e, null);
        for t in scratch.tokens.drain(..) {
            emit(fx, &mut w, &j.succs, &t, sign.flip());
        }
    }
    w
}

/// Books one join activation, performed or not.
fn activation(s: &mut MatchStats) {
    s.activations += 1;
    s.join_activations += 1;
}

/// Books a `+` outcome; false when it annihilated.
fn plus(fx: &mut impl Effects, j: &JoinNode, side: Side, o: PlusOutcome) -> bool {
    match o {
        PlusOutcome::Annihilated => {
            fx.stats().conjugate_pairs += 1;
            false
        }
        PlusOutcome::Inserted => {
            fx.count(j, side, 1);
            true
        }
    }
}

/// Books a `−` outcome and its search of the own memory: the removed
/// entry's not-node count, `None` when the `−` parked.
fn minus(
    fx: &mut impl Effects,
    j: &JoinNode,
    side: Side,
    o: MinusOutcome,
    w: &mut Walked,
) -> Option<u32> {
    match o {
        MinusOutcome::Removed {
            neg_count,
            examined,
        } => {
            let s = fx.stats();
            let (tokens, searches) = match side {
                Side::Left => (&mut s.same_tokens_left, &mut s.same_searches_left),
                Side::Right => (&mut s.same_tokens_right, &mut s.same_searches_right),
            };
            *tokens += examined;
            *searches += 1;
            fx.count(j, side, -1);
            w.same_examined = examined as u32;
            Some(neg_count)
        }
        MinusOutcome::Parked => None,
    }
}

/// Books the opposite-memory scan of an activation arriving on `side`:
/// `examined` entries, and a null activation when that memory was empty in
/// every line as the activation began.
fn scanned(fx: &mut impl Effects, w: &mut Walked, side: Side, examined: u64, null: bool) {
    let s = fx.stats();
    let (tokens, nonempty) = match side {
        Side::Left => (&mut s.opp_tokens_left, &mut s.opp_nonempty_left),
        Side::Right => (&mut s.opp_tokens_right, &mut s.opp_nonempty_right),
    };
    *tokens += examined;
    *nonempty += (examined > 0) as u64;
    s.null_activations += null as u64;
    w.examined = examined as u32;
}

/// Hands `token` to every successor of a join: one with sharing off, each
/// consumer of a shared join with it on (token clones are `Arc` bumps).
fn emit(fx: &mut impl Effects, w: &mut Walked, succs: &[Succ], token: &Token, sign: Sign) {
    for succ in succs {
        let token = token.clone();
        fx.push(match *succ {
            Succ::Join(join) => ParTask::Left { join, sign, token },
            Succ::Terminal(prod) => ParTask::Terminal { prod, sign, token },
        });
    }
    w.emitted += succs.len() as u32;
}

/// Feeds one WME change through its class's constant-test patterns, pushing
/// a task per successor of every pattern it passes. Returns the constant
/// tests evaluated (a test-free pattern counts one) and the tasks pushed.
pub(crate) fn constant_tests(
    net: &Network,
    sign: Sign,
    wme: &WmeRef,
    mut push: impl FnMut(ParTask),
) -> Walked {
    let mut w = Walked::default();
    for &pid in net.patterns_for_class(wme.class) {
        let pat = net.pattern(pid);
        w.alpha_tests += pat.tests.len().max(1) as u32;
        if !pat.tests.iter().all(|t| t.passes(wme)) {
            continue;
        }
        for succ in &pat.succs {
            w.emitted += 1;
            push(match *succ {
                AlphaSucc::JoinLeft(join) => ParTask::Left {
                    join,
                    sign,
                    token: Token::single(wme.clone()),
                },
                AlphaSucc::JoinRight(join) => ParTask::Right {
                    join,
                    sign,
                    wme: wme.clone(),
                },
                AlphaSucc::Terminal(prod) => ParTask::Terminal {
                    prod,
                    sign,
                    token: Token::single(wme.clone()),
                },
            });
        }
    }
    w
}
