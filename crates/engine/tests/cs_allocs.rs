//! Allocation budget of the control process's share of a cycle: terminal
//! emission, the conflict-set fold and conflict resolution.
//!
//! Tourney makes ~145 conflict-set changes per WME change and rescans a
//! 6 000-entry conflict set every cycle, so the budget per change and per
//! comparison is exact: the instantiation is the token the terminal already
//! holds, the conflict set keys on it, and a comparison sorts on the stack.
//! The allocator below counts per thread, so concurrently running tests
//! cannot disturb it.

use engine::cr;
use engine::ConflictSet;
use ops5::{
    ChangeBatch, CsChange, Instantiation, ProdId, Program, Strategy, SymbolId, Value, Wme, WmeRef,
};
use rete::{HashMemConfig, Network};
use std::alloc::{GlobalAlloc, Layout, System};
use std::cell::Cell;
use std::sync::Arc;

struct CountingAlloc;

thread_local! {
    static ALLOCS: Cell<u64> = const { Cell::new(0) };
}

fn count() {
    // `try_with`: the allocator also runs while a thread's TLS is torn down.
    let _ = ALLOCS.try_with(|c| c.set(c.get() + 1));
}

unsafe impl GlobalAlloc for CountingAlloc {
    unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
        count();
        System.alloc(layout)
    }

    unsafe fn dealloc(&self, ptr: *mut u8, layout: Layout) {
        System.dealloc(ptr, layout)
    }

    unsafe fn realloc(&self, ptr: *mut u8, layout: Layout, new_size: usize) -> *mut u8 {
        count();
        System.realloc(ptr, layout, new_size)
    }
}

#[global_allocator]
static ALLOCATOR: CountingAlloc = CountingAlloc;

/// Allocations made on this thread while `f` runs.
fn allocs_in<T>(f: impl FnOnce() -> T) -> (u64, T) {
    let before = ALLOCS.with(Cell::get);
    let out = f();
    (ALLOCS.with(Cell::get) - before, out)
}

fn wme(tag: u64) -> WmeRef {
    Wme::new(SymbolId(1), vec![Value::Int(tag as i64)], tag)
}

fn inst(prod: u32, tags: &[u64]) -> Instantiation {
    Instantiation {
        prod: ProdId(prod),
        wmes: tags.iter().map(|&t| wme(t)).collect(),
    }
}

#[test]
fn folding_into_a_grown_conflict_set_allocates_nothing() {
    const PAIRS: u64 = 10_000;
    let mut cs = ConflictSet::new();
    for t in 0..2_000 {
        cs.apply(CsChange::Insert(inst(0, &[t, t + 1, t + 2])));
    }
    // The removes name their entries through tokens of their own, as a
    // matcher's retraction does: equal identity, another allocation.
    let churn: Vec<(CsChange, CsChange)> = (0..PAIRS)
        .map(|t| {
            let tags = [t, t + 7];
            (
                CsChange::Insert(inst(1, &tags)),
                CsChange::Remove(inst(1, &tags)),
            )
        })
        .collect();
    // Grow the table to its high-water mark first.
    let (inserts, removes): (Vec<_>, Vec<_>) = churn.iter().cloned().unzip();
    cs.apply_all(inserts);
    assert_eq!(cs.len(), 2_000 + PAIRS as usize);
    cs.apply_all(removes);
    assert_eq!(cs.len(), 2_000);

    let (allocs, ()) = allocs_in(|| {
        for (insert, remove) in churn {
            cs.apply(insert);
            cs.apply(remove);
        }
    });
    assert_eq!(cs.len(), 2_000);
    assert_eq!(allocs, 0, "{PAIRS} insert/remove pairs allocated");
}

#[test]
fn select_over_a_thousand_candidates_allocates_nothing() {
    // Timetags from a pool of 40 (the first two distinct per candidate),
    // so that equal maxima, equal sorted recency and pure permutations all
    // occur and every tier of the order runs, down to the raw-sequence
    // tie-break.
    let mut cs = ConflictSet::new();
    for i in 0..1_000u64 {
        let tags = [1 + i % 40, 1 + i / 40, 1 + (i * 7) % 40];
        cs.apply(CsChange::Insert(inst((i % 4) as u32, &tags)));
    }
    assert_eq!(cs.len(), 1_000);
    let specificity = [3, 3, 5, 3];
    for strategy in [Strategy::Lex, Strategy::Mea] {
        let (allocs, best) = allocs_in(|| cr::select(strategy, cs.candidates(), &specificity));
        let best = best.expect("a non-empty conflict set has a winner");
        assert_eq!(allocs, 0, "{strategy:?} select allocated");
        for c in cs.candidates() {
            assert_ne!(
                cr::order_dominates(strategy, c, best, &specificity),
                std::cmp::Ordering::Greater,
                "{strategy:?}: {c:?} dominates the winner {best:?}"
            );
        }
    }
}

/// A terminal `+` allocates the one token node that extends the resident
/// token, and the conflict set keeps that very token; the terminal join's
/// left entry keeps it too, so a terminal `-` hands the conflict set the
/// same `Arc` and allocates nothing (the rematch it replaced built a fresh
/// node per removal: 64 for 64). vs2 and col, one node activation under two
/// schedules.
#[test]
fn a_vs2_terminal_activation_allocates_its_token_node_only() {
    const N: usize = 64;
    let mut prog = Program::from_source("(p pos (a ^x <v>) (b ^y <v>) --> (halt))").unwrap();
    let net = Arc::new(Network::compile(&prog).unwrap());
    let [a, b] = ["a", "b"].map(|s| prog.symbols.intern(s));
    let matchers = [
        rete::seq::boxed_vs2(net.clone(), HashMemConfig::default()),
        rete::colmatch::boxed_col(net),
    ];
    for mut m in matchers {
        let mut resident = ChangeBatch::new();
        resident.add(Wme::new(a, vec![Value::Int(1)], 1));
        m.submit(&resident);
        m.quiesce();

        // With one `a` resident, each `b` is one right activation that
        // extends the resident token by a node and hands that token to the
        // terminal, or takes it back.
        let mut adds = ChangeBatch::new();
        let mut deletes = ChangeBatch::new();
        for tag in 0..N as u64 {
            let w = Wme::new(b, vec![Value::Int(1)], 10 + tag);
            adds.add(w.clone());
            deletes.delete(w);
        }
        // What the report's `Vec<CsChange>` costs to grow to N entries is
        // the report's, not the activations'.
        let placeholder = inst(0, &[1]);
        let (report_vec, _) = allocs_in(|| {
            let mut out = Vec::new();
            for _ in 0..N {
                out.push(CsChange::Insert(placeholder.clone()));
            }
            out
        });
        // A warm-up lap sizes the agenda, the memory lines and the slab of
        // kept children.
        for lap in 0..3 {
            for (batch, sign, nodes) in [(&adds, "insert", N as u64), (&deletes, "remove", 0)] {
                let (allocs, report) = allocs_in(|| {
                    m.submit(batch);
                    m.quiesce()
                });
                assert_eq!(report.cs_changes.len(), N);
                assert_eq!(report.stats_delta.cs_changes, N as u64);
                if lap > 0 {
                    assert_eq!(
                        allocs - report_vec,
                        nodes,
                        "{} {sign}: one TokenNode per terminal `+`, none per `-`",
                        m.name()
                    );
                }
            }
        }
    }
}
