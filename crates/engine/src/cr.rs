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

use ops5::{Instantiation, Production, Strategy};
use std::cmp::Ordering;

/// Descending timetags of an instantiation.
fn recency(inst: &Instantiation) -> Vec<u64> {
    let mut v: Vec<u64> = inst.wmes.iter().map(|w| w.timetag).collect();
    v.sort_unstable_by(|a, b| b.cmp(a));
    v
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

/// Full ordering for one strategy. `prods` supplies specificity.
/// Returns `Greater` when `a` dominates `b` (should fire first).
pub fn order_dominates(
    strategy: Strategy,
    a: &Instantiation,
    b: &Instantiation,
    prods: &[Production],
) -> Ordering {
    if let Strategy::Mea = strategy {
        let fa = a.wmes.first().map(|w| w.timetag).unwrap_or(0);
        let fb = b.wmes.first().map(|w| w.timetag).unwrap_or(0);
        match fa.cmp(&fb) {
            Ordering::Equal => {}
            other => return other,
        }
    }
    match lex_recency(&recency(a), &recency(b)) {
        Ordering::Equal => {}
        other => return other,
    }
    let sa = prods[a.prod.index()].specificity();
    let sb = prods[b.prod.index()].specificity();
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
    let ta: Vec<u64> = a.wmes.iter().map(|w| w.timetag).collect();
    let tb: Vec<u64> = b.wmes.iter().map(|w| w.timetag).collect();
    ta.cmp(&tb)
}

/// Selects the dominant instantiation among candidates.
pub fn select<'a>(
    strategy: Strategy,
    candidates: impl Iterator<Item = &'a Instantiation>,
    prods: &[Production],
) -> Option<Instantiation> {
    let mut best: Option<&Instantiation> = None;
    for c in candidates {
        best = Some(match best {
            None => c,
            Some(b) => {
                if order_dominates(strategy, c, b, prods) == Ordering::Greater {
                    c
                } else {
                    b
                }
            }
        });
    }
    best.cloned()
}

#[cfg(test)]
mod tests {
    use super::*;
    use ops5::{ProdId, Program, SymbolId, Value, Wme};

    fn inst(prod: u32, tags: &[u64]) -> Instantiation {
        Instantiation {
            prod: ProdId(prod),
            wmes: tags
                .iter()
                .map(|&t| Wme::new(SymbolId(1), vec![Value::Int(0)], t))
                .collect(),
        }
    }

    fn prods(n: usize, extra_tests_on_last: bool) -> std::sync::Arc<Vec<Production>> {
        // Build n productions; the last one optionally more specific.
        let mut src = String::new();
        for i in 0..n {
            if extra_tests_on_last && i == n - 1 {
                src.push_str(&format!("(p p{i} (a ^x 1 ^y 2 ^z 3) --> (halt))"));
            } else {
                src.push_str(&format!("(p p{i} (a ^x 1) --> (halt))"));
            }
        }
        Program::from_source(&src).unwrap().productions
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
        let sel = select(Strategy::Lex, [&old, &new].into_iter(), &ps).unwrap();
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
    fn select_empty_is_none() {
        let ps = prods(1, false);
        assert!(select(Strategy::Lex, std::iter::empty(), &ps).is_none());
    }
}
