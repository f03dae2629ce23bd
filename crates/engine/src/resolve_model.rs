//! Model test of the fold → resolve path: [`ConflictSet`]'s fold, its
//! keyed [`select`](ConflictSet::select) and firing, and the whole order
//! [`cr::order_dominates`] puts on the unfired set, against a reference
//! that keys on `(ProdId, Vec<u64>)` and orders with the allocating
//! comparison this crate used while an instantiation was a `Vec<WmeRef>`,
//! kept here verbatim as the oracle.

use crate::cr;
use crate::cs::ConflictSet;
use ops5::{
    CsChange, Instantiation, ProdId, Production, Program, Strategy, SymbolId, Value, Wme, WmeRef,
};
use proptest::prelude::*;
use std::cmp::Ordering;
use std::collections::BTreeMap;

/// The instantiation the oracle was written against.
struct OldInstantiation {
    prod: ProdId,
    wmes: Vec<WmeRef>,
}

mod oracle {
    use super::OldInstantiation as Instantiation;
    use super::*;

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
}

/// Positive CEs per production. 32 timetags sort on the stack, 33 spill;
/// the pairs of equal length tie on recency, and of those `(a ^x 1 ^y 1)`
/// first CEs make one production of a pair the more specific.
const CES: [(usize, bool); 10] = [
    (1, false),
    (1, true),
    (2, false),
    (2, false),
    (3, true),
    (31, false),
    (32, false),
    (33, false),
    (33, true),
    (40, false),
];

/// Write-only right-hand sides: the productions differ only in what
/// conflict resolution reads, their CE counts and specificities.
fn program() -> Program {
    let mut src = String::new();
    for (i, (ces, specific)) in CES.iter().enumerate() {
        src.push_str(&format!("(p p{i} "));
        src.push_str(if *specific {
            "(a ^x 1 ^y 1) "
        } else {
            "(a ^x 1) "
        });
        src.push_str(&"(a ^x 1) ".repeat(ces - 1));
        src.push_str("--> (write x))\n");
    }
    Program::from_source(&src).expect("model program parses")
}

fn wme(tag: u64) -> WmeRef {
    Wme::new(SymbolId(1), vec![Value::Int(0)], tag)
}

/// `(kind, production, which live entry, tag seed)`.
type Op = (u8, usize, usize, u64);

/// The generator's next word.
fn next(seed: &mut u64) -> u64 {
    *seed = seed
        .wrapping_mul(6364136223846793005)
        .wrapping_add(1442695040888963407);
    *seed >> 33
}

/// Timetags from a pool of thirteen, 0 included: the same multiset turns up
/// in several orders and under several productions, so every tier of the
/// order down to the raw-sequence tie-break decides some comparison.
fn tags_for(prod: usize, mut seed: u64) -> Vec<u64> {
    (0..CES[prod].0).map(|_| next(&mut seed) % 13).collect()
}

/// Four to seven instantiations whose three largest timetags are the same
/// three, above the pool, at positions of their own; under a production of
/// three CEs they are its whole token, in some order. Half the groups share
/// the first CE's timetag too, so MEA's keys tie as well as LEX's.
fn tie_group(mut seed: u64) -> Vec<(ProdId, Vec<u64>)> {
    let top = [13 + next(&mut seed) % 3, 16, 17 + next(&mut seed) % 2];
    let first = next(&mut seed)
        .is_multiple_of(2)
        .then_some(next(&mut seed) % 13);
    let n = 4 + next(&mut seed) as usize % 4;
    (0..n)
        .map(|_| {
            // Production 4 has three CEs; 5..=9 have 31 to 40.
            let prod = 4 + next(&mut seed) as usize % 6;
            let mut tags = tags_for(prod, next(&mut seed));
            let len = tags.len();
            let at = next(&mut seed) as usize;
            if len == 3 {
                for (j, t) in top.into_iter().enumerate() {
                    tags[(at + j) % 3] = t;
                }
            } else {
                // Past the first CE, which is the group's when it shares one.
                for (j, t) in top.into_iter().enumerate() {
                    tags[1 + (at + j) % (len - 1)] = t;
                }
                if let Some(f) = first {
                    tags[0] = f;
                }
            }
            (ProdId(prod as u32), tags)
        })
        .collect()
}

fn old(key: &(ProdId, Vec<u64>)) -> OldInstantiation {
    OldInstantiation {
        prod: key.0,
        wmes: key.1.iter().map(|&t| wme(t)).collect(),
    }
}

/// A token of its own per call, as a matcher's re-derivation or retraction
/// has: entries must be found by identity, never by allocation.
fn new(key: &(ProdId, Vec<u64>)) -> Instantiation {
    Instantiation {
        prod: key.0,
        wmes: key.1.iter().map(|&t| wme(t)).collect(),
    }
}

/// The model's unfired entries, dominant first, as a serial run would fire
/// them.
fn oracle_order(
    strategy: Strategy,
    model: &BTreeMap<(ProdId, Vec<u64>), bool>,
    prods: &[Production],
) -> Vec<(ProdId, Vec<u64>)> {
    let mut unfired: Vec<_> = model
        .iter()
        .filter(|(_, f)| !**f)
        .map(|(k, _)| (k, old(k)))
        .collect();
    unfired.sort_by(|a, b| oracle::order_dominates(strategy, &b.1, &a.1, prods));
    unfired.into_iter().map(|(k, _)| k.clone()).collect()
}

proptest! {
    #![proptest_config(ProptestConfig { cases: 32, ..ProptestConfig::default() })]

    /// One conflict set per strategy takes the same operations, and after
    /// every one its contents, its refraction state, its select and the
    /// order on its candidates agree with the model. Firing the winner
    /// fires each strategy's own, so the two sets' fired flags part.
    #[test]
    fn fold_and_resolve_agree_with_the_vec_keyed_model(
        ops in proptest::collection::vec((0u8..8, 0usize..CES.len(), 0usize..64, any::<u64>()), 1..120)
    ) {
        let prog = program();
        let specificity = cr::specificities(&prog.productions);
        let ops: Vec<Op> = ops;
        for strategy in [Strategy::Lex, Strategy::Mea] {
            let mut cs = ConflictSet::new();
            let mut model: BTreeMap<(ProdId, Vec<u64>), bool> = BTreeMap::new();
            for &(kind, prod, pick, seed) in &ops {
                let live = model.keys().nth(pick % model.len().max(1)).cloned();
                match (kind, live) {
                    // Insert: new, or (small pool) a re-insert that resets `fired`.
                    (0..=1, _) | (_, None) => {
                        let key = (ProdId(prod as u32), tags_for(prod, seed));
                        cs.apply(CsChange::Insert(new(&key)));
                        model.insert(key, false);
                    }
                    (2, _) => {
                        for key in tie_group(seed) {
                            cs.apply(CsChange::Insert(new(&key)));
                            model.insert(key, false);
                        }
                    }
                    (3, Some(key)) => {
                        cs.apply(CsChange::Remove(new(&key)));
                        model.remove(&key);
                    }
                    (4, Some(key)) => {
                        cs.apply(CsChange::Insert(new(&key)));
                        model.insert(key, false);
                    }
                    (5, _) => {
                        // Fire the winner, as a cycle does.
                        let want = oracle_order(strategy, &model, &prog.productions);
                        let got = cs.select(strategy, &specificity).cloned();
                        prop_assert_eq!(got.as_ref().map(Instantiation::key).as_ref(), want.first());
                        if let Some(w) = got {
                            prop_assert!(cs.mark_fired(&w));
                            model.insert(w.key(), true);
                        }
                    }
                    (_, Some(key)) => {
                        // Alternately the two ways in: the entry's own token,
                        // and a snapshot's key.
                        if seed % 2 == 0 {
                            prop_assert!(cs.mark_fired(&new(&key)));
                        } else {
                            prop_assert!(cs.mark_fired_key(&key));
                        }
                        model.insert(key, true);
                    }
                }

                prop_assert_eq!(cs.len(), model.len());
                prop_assert_eq!(cs.sorted_keys(), model.keys().cloned().collect::<Vec<_>>());
                let fired: Vec<_> = model.iter().filter(|(_, f)| **f).map(|(k, _)| k.clone()).collect();
                prop_assert_eq!(cs.fired_keys(), fired);

                let want = oracle_order(strategy, &model, &prog.productions);
                let best = cs.select(strategy, &specificity).map(Instantiation::key);
                prop_assert_eq!(best.as_ref(), want.first(), "{:?}", strategy);

                // The whole dominance order, not only its head.
                let mut got: Vec<&Instantiation> = cs.candidates().collect();
                got.sort_by(|a, b| cr::order_dominates(strategy, b, a, &specificity));
                let got: Vec<_> = got.into_iter().map(Instantiation::key).collect();
                prop_assert_eq!(got, want, "{:?}", strategy);
            }
        }
    }
}
