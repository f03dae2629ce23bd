//! Conflict resolution — OPS5 LEX and MEA.
//!
//! Both strategies order instantiations by *recency* of the matched WMEs'
//! timetags, with production *specificity* as the tie-breaker:
//!
//! * **LEX** — compare the instantiations' timetags sorted in descending
//!   order, lexicographically; a longer list dominates an exhausted equal
//!   prefix; ties break on specificity (number of LHS tests).
//! * **MEA** — first compare the timetag of the WME matching the *first*
//!   condition element (means-ends analysis on the goal element), then fall
//!   back to the LEX ordering.
//!
//! The conflict set builds each instantiation's [`Key`] once, the first
//! time a [`ConflictSet::select`](crate::ConflictSet::select) sees it
//! unfired: three words that head the order. A larger key dominates; only equal keys fall back to the
//! whole order, [`order_dominates`], which builds nothing on the heap:
//! sorted recency goes into a buffer on the stack, specificity is read from
//! a table computed once per program, and the raw tie-break walks the two
//! token chains in place.

use ops5::{Instantiation, Production, Strategy, Token};
use std::cmp::Ordering;

/// Timetags a [`Recency`] holds on the stack (Rubik's productions match 22
/// WMEs). A production with more positive CEs than this spills to the heap;
/// nothing is ever truncated.
const INLINE_TAGS: usize = 32;

/// What the order reads off one instantiation's timetags: all of them in
/// descending order, and the first CE's (MEA).
struct Recency {
    inline: [u64; INLINE_TAGS],
    /// The tags instead, when there are more than `INLINE_TAGS`.
    spill: Vec<u64>,
    len: usize,
    /// Timetag of the WME matching the first CE (0 for an empty token).
    first: u64,
}

impl Recency {
    fn of(token: &Token) -> Recency {
        let mut r = Recency {
            inline: [0; INLINE_TAGS],
            spill: Vec::new(),
            len: token.len(),
            first: 0,
        };
        let tags = token.iter_back().map(|w| w.timetag);
        let buf = if r.len <= INLINE_TAGS {
            let buf = &mut r.inline[..r.len];
            buf.iter_mut().zip(tags).for_each(|(slot, t)| *slot = t);
            buf
        } else {
            r.spill.extend(tags);
            &mut r.spill[..]
        };
        // The chain runs back to front: the last tag read is the first CE's.
        r.first = buf.last().copied().unwrap_or(0);
        buf.sort_unstable_by(|a, b| b.cmp(a));
        r
    }

    fn tags(&self) -> &[u64] {
        if self.len <= INLINE_TAGS {
            &self.inline[..self.len]
        } else {
            &self.spill
        }
    }
}

/// LEX recency comparison: `Greater` means `a` dominates `b`.
fn lex_recency(a: &[u64], b: &[u64]) -> Ordering {
    for (x, y) in a.iter().zip(b.iter()) {
        match x.cmp(y) {
            Ordering::Equal => continue,
            other => return other,
        }
    }
    // Equal prefix: the instantiation with more timetags dominates.
    a.len().cmp(&b.len())
}

/// Each production's [`Production::specificity`], indexed by `ProdId`: the
/// table [`order_dominates`] reads instead of walking the AST on every
/// recency tie.
pub fn specificities(prods: &[Production]) -> Box<[u32]> {
    prods.iter().map(Production::specificity).collect()
}

/// The head of an instantiation's place in the order, read off its token in
/// one walk: under LEX its three largest timetags, under MEA the first CE's
/// timetag and then the two largest; the largest descending, padded with 0.
///
/// Keys compare as arrays. A larger key dominates under [`order_dominates`]:
/// the first word that differs is the first recency entry that differs, and
/// a padding 0 against a real tag is a shorter list against a longer one
/// with an equal prefix. Equal keys say nothing, and the whole order
/// decides.
pub type Key = [u64; 3];

/// `token`'s [`Key`] under `strategy`: one chain walk, nothing sorted.
pub fn key(strategy: Strategy, token: &Token) -> Key {
    let mut top = [0u64; 3];
    let mut first = 0;
    for w in token.iter_back() {
        let t = w.timetag;
        // The chain runs back to front: the last tag read is the first CE's.
        first = t;
        if t > top[2] {
            if t > top[1] {
                top[2] = top[1];
                if t > top[0] {
                    top[1] = top[0];
                    top[0] = t;
                } else {
                    top[1] = t;
                }
            } else {
                top[2] = t;
            }
        }
    }
    match strategy {
        Strategy::Lex => top,
        Strategy::Mea => [first, top[0], top[1]],
    }
}

/// Full ordering for one strategy. `specificity` is [`specificities`] of
/// the program. Returns `Greater` when `a` dominates `b` (should fire
/// first).
pub fn order_dominates(
    strategy: Strategy,
    a: &Instantiation,
    b: &Instantiation,
    specificity: &[u32],
) -> Ordering {
    let (ra, rb) = (Recency::of(&a.wmes), Recency::of(&b.wmes));
    if let Strategy::Mea = strategy {
        match ra.first.cmp(&rb.first) {
            Ordering::Equal => {}
            other => return other,
        }
    }
    match lex_recency(ra.tags(), rb.tags()) {
        Ordering::Equal => {}
        other => return other,
    }
    let sa = specificity[a.prod.index()];
    let sb = specificity[b.prod.index()];
    match sa.cmp(&sb) {
        Ordering::Equal => {}
        other => return other,
    }
    // Final arbitrary-but-deterministic tie-break: production id, then the
    // raw timetag sequence. (OPS5 says "arbitrary"; determinism keeps the
    // differential tests meaningful.)
    match a.prod.0.cmp(&b.prod.0) {
        Ordering::Equal => {}
        other => return other,
    }
    a.wmes.cmp_timetags(&b.wmes)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::ConflictSet;
    use ops5::{CsChange, ProdId, Program, SymbolId, Value, Wme};

    fn inst(prod: u32, tags: &[u64]) -> Instantiation {
        Instantiation {
            prod: ProdId(prod),
            wmes: tags
                .iter()
                .map(|&t| Wme::new(SymbolId(1), vec![Value::Int(0)], t))
                .collect(),
        }
    }

    /// The winner of a conflict set holding `insts`.
    fn select(strategy: Strategy, insts: &[&Instantiation], ps: &[u32]) -> Option<Instantiation> {
        let mut cs = ConflictSet::new();
        for i in insts {
            cs.apply(CsChange::Insert((*i).clone()));
        }
        cs.select(strategy, ps).cloned()
    }

    fn prods(n: usize, extra_tests_on_last: bool) -> Box<[u32]> {
        // Build n productions; the last one optionally more specific.
        let mut src = String::new();
        for i in 0..n {
            if extra_tests_on_last && i == n - 1 {
                src.push_str(&format!("(p p{i} (a ^x 1 ^y 2 ^z 3) --> (halt))"));
            } else {
                src.push_str(&format!("(p p{i} (a ^x 1) --> (halt))"));
            }
        }
        specificities(&Program::from_source(&src).unwrap().productions)
    }

    #[test]
    fn lex_prefers_recent() {
        let ps = prods(2, false);
        let old = inst(0, &[1, 2]);
        let new = inst(1, &[1, 5]);
        assert_eq!(
            order_dominates(Strategy::Lex, &new, &old, &ps),
            Ordering::Greater
        );
        let sel = select(Strategy::Lex, &[&old, &new], &ps).unwrap();
        assert_eq!(sel.prod, ProdId(1));
    }

    #[test]
    fn lex_longer_wins_on_equal_prefix() {
        let ps = prods(2, false);
        let short = inst(0, &[5]);
        let long = inst(1, &[5, 2]);
        assert_eq!(
            order_dominates(Strategy::Lex, &long, &short, &ps),
            Ordering::Greater
        );
    }

    #[test]
    fn lex_sorts_descending_before_compare() {
        let ps = prods(2, false);
        // a matched (3, 10), b matched (9, 4): recencies (10,3) vs (9,4).
        let a = inst(0, &[3, 10]);
        let b = inst(1, &[9, 4]);
        assert_eq!(
            order_dominates(Strategy::Lex, &a, &b, &ps),
            Ordering::Greater
        );
    }

    #[test]
    fn specificity_breaks_ties() {
        let ps = prods(2, true); // p1 more specific
        let a = inst(0, &[7]);
        let b = inst(1, &[7]);
        assert_eq!(
            order_dominates(Strategy::Lex, &b, &a, &ps),
            Ordering::Greater
        );
    }

    #[test]
    fn mea_prioritises_first_ce() {
        let ps = prods(2, false);
        // Under LEX, `a` (recency 10) beats `b` (recency 9). Under MEA,
        // `b`'s first CE (9) beats `a`'s first CE (2).
        let a = inst(0, &[2, 10]);
        let b = inst(1, &[9, 3]);
        assert_eq!(
            order_dominates(Strategy::Lex, &a, &b, &ps),
            Ordering::Greater
        );
        assert_eq!(
            order_dominates(Strategy::Mea, &b, &a, &ps),
            Ordering::Greater
        );
    }

    #[test]
    fn deterministic_final_tiebreak() {
        let ps = prods(2, false);
        let a = inst(0, &[7]);
        let b = inst(1, &[7]);
        // Same recency, same specificity: higher prod id wins (arbitrary but
        // fixed).
        assert_eq!(
            order_dominates(Strategy::Lex, &b, &a, &ps),
            Ordering::Greater
        );
        assert_eq!(order_dominates(Strategy::Lex, &a, &b, &ps), Ordering::Less);
    }

    #[test]
    fn recency_past_the_inline_buffer_is_compared_in_full() {
        let ps = prods(2, false);
        // Tags 100 down to 100 - n + 1, in CE order ascending, then a last
        // (smallest after sorting) tag that alone tells the two apart.
        let with_last = |n: u64, last: u64| -> Vec<u64> {
            (0..n - 1)
                .rev()
                .map(|i| 100 - i)
                .chain(std::iter::once(last))
                .collect()
        };
        for n in [INLINE_TAGS as u64, INLINE_TAGS as u64 + 1, 48] {
            let lo = inst(0, &with_last(n, 1));
            let hi = inst(0, &with_last(n, 2));
            for strategy in [Strategy::Lex, Strategy::Mea] {
                assert_eq!(
                    order_dominates(strategy, &hi, &lo, &ps),
                    Ordering::Greater,
                    "{n} tags"
                );
                assert_eq!(order_dominates(strategy, &lo, &hi, &ps), Ordering::Less);
                let sel = select(strategy, &[&lo, &hi, &lo], &ps).unwrap();
                assert_eq!(sel.wmes.timetags(), hi.wmes.timetags(), "{n} tags");
            }
            // One tag more on an equal prefix dominates, across the boundary.
            let longer = inst(1, &with_last(n + 1, 1));
            let prefix = inst(0, &with_last(n + 1, 1)[..n as usize]);
            assert_eq!(
                order_dominates(Strategy::Lex, &longer, &prefix, &ps),
                Ordering::Greater,
                "{n}+1 tags against {n}"
            );
        }
    }

    #[test]
    fn select_empty_is_none() {
        let ps = prods(1, false);
        assert!(select(Strategy::Lex, &[], &ps).is_none());
    }

    /// Every pair of short tokens over a small tag pool: a larger key
    /// dominates, and a smaller one is dominated. Tags repeat and include 0,
    /// so padding and duplicates meet real tags.
    #[test]
    fn a_larger_key_dominates() {
        let ps = prods(2, true);
        let mut insts = vec![inst(0, &[])];
        for len in 1..=4u32 {
            for code in 0..4u64.pow(len) {
                let tags: Vec<u64> = (0..len).map(|i| code / 4u64.pow(i) % 4).collect();
                insts.push(inst(len % 2, &tags));
            }
        }
        for strategy in [Strategy::Lex, Strategy::Mea] {
            let keys: Vec<Key> = insts.iter().map(|i| key(strategy, &i.wmes)).collect();
            for (a, ka) in insts.iter().zip(&keys) {
                for (b, kb) in insts.iter().zip(&keys) {
                    let order = order_dominates(strategy, a, b, &ps);
                    if ka != kb {
                        assert_eq!(ka.cmp(kb), order, "{strategy:?}: {a:?} against {b:?}");
                    }
                }
            }
        }
    }

    #[test]
    fn keys_read_the_largest_tags_and_the_first_ce() {
        let t = inst(0, &[4, 9, 1, 9, 7]).wmes;
        assert_eq!(key(Strategy::Lex, &t), [9, 9, 7]);
        assert_eq!(key(Strategy::Mea, &t), [4, 9, 9]);
        let one = inst(0, &[6]).wmes;
        assert_eq!(key(Strategy::Lex, &one), [6, 0, 0]);
        assert_eq!(key(Strategy::Mea, &one), [6, 6, 0]);
        assert_eq!(key(Strategy::Mea, &Token::empty()), [0, 0, 0]);
    }
}
