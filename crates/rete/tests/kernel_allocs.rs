//! Allocation budget of the sequential activation kernel.
//!
//! Most of a rule program's activations are null (Weaver: 97%), and a null
//! activation is the paper's few-dozen-instruction case, so the budget is
//! exact: a null right activation allocates nothing (its reader is retired
//! as `null_skipped` without being run, and the WME is stored once however
//! many readers its memory has), and the null left activations of a change
//! allocate the one-WME token node they share and nothing else. The allocator below counts per
//! thread, so concurrently running tests cannot disturb it.

use ops5::{ChangeBatch, CsChange, Matcher, Program, Sign, Value, Wme, WmeChange, WmeRef};
use rete::seq::{boxed_vs1, boxed_vs2};
use rete::{HashMemConfig, Network};
use std::alloc::{GlobalAlloc, Layout, System};
use std::cell::Cell;
use std::sync::Arc;

struct CountingAlloc;

thread_local! {
    static ALLOCS: Cell<u64> = const { Cell::new(0) };
    static BYTES: Cell<u64> = const { Cell::new(0) };
}

fn count(bytes: usize) {
    // `try_with`: the allocator also runs while a thread's TLS is torn down.
    let _ = ALLOCS.try_with(|c| c.set(c.get() + 1));
    let _ = BYTES.try_with(|c| c.set(c.get() + bytes as u64));
}

unsafe impl GlobalAlloc for CountingAlloc {
    unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
        count(layout.size());
        System.alloc(layout)
    }

    unsafe fn dealloc(&self, ptr: *mut u8, layout: Layout) {
        System.dealloc(ptr, layout)
    }

    unsafe fn realloc(&self, ptr: *mut u8, layout: Layout, new_size: usize) -> *mut u8 {
        count(new_size);
        System.realloc(ptr, layout, new_size)
    }
}

#[global_allocator]
static ALLOCATOR: CountingAlloc = CountingAlloc;

/// `a` opens three productions (left input of a positive join twice, of a
/// not-node once); `b` and `c` only ever arrive on right inputs.
const SRC: &str = "
(p pos (a ^x <v>) (b ^y <v>) --> (halt))
(p neg (a ^x <v>) - (c ^y <v>) (b ^y <v>) --> (halt))
(p two (a ^x <v>) (b ^y <v>) (c ^y <v>) --> (halt))
";

const PAIRS: u64 = 200;

struct Measured {
    allocs: u64,
    join_activations: u64,
    null_skipped: u64,
    cs_changes: u64,
}

/// Streams add/remove pairs of `wmes` (one change per submit, quiesced each
/// time) and counts the allocations made inside `submit` + `quiesce` after
/// a warm-up lap has sized the agenda and the memory lines.
fn stream(m: &mut dyn Matcher, wmes: &[WmeRef]) -> Measured {
    let batches: Vec<ChangeBatch> = wmes
        .iter()
        .flat_map(|w| [Sign::Plus, Sign::Minus].map(|sign| (sign, w.clone())))
        .map(|(sign, wme)| ChangeBatch::single(WmeChange { sign, wme }))
        .collect();
    let lap = |m: &mut dyn Matcher| -> u64 {
        let mut allocs = 0;
        for b in &batches {
            let before = ALLOCS.with(Cell::get);
            m.submit(b);
            m.quiesce();
            allocs += ALLOCS.with(Cell::get) - before;
        }
        allocs
    };
    lap(m);
    m.reset_stats();
    let mut allocs = 0;
    for _ in 0..PAIRS {
        allocs += lap(m);
    }
    let s = m.stats();
    Measured {
        allocs,
        join_activations: s.join_activations,
        null_skipped: s.null_skipped,
        cs_changes: s.cs_changes,
    }
}

fn matchers(net: &Arc<Network>) -> Vec<Box<dyn Matcher>> {
    vec![
        boxed_vs1(net.clone()),
        boxed_vs2(net.clone(), HashMemConfig::default()),
    ]
}

#[test]
fn null_activations_stay_within_their_allocation_budget() {
    let mut prog = Program::from_source(SRC).unwrap();
    let net = Arc::new(Network::compile(&prog).unwrap());
    let [a, b, c] = ["a", "b", "c"].map(|s| prog.symbols.intern(s));
    let wme = |class, v: i64, tag: u64| Wme::new(class, vec![Value::Int(v)], tag);

    // Right inputs with every left memory empty: `b` enters three positive
    // joins, `c` a positive join and the not-node.
    let rights = [wme(b, 1, 1), wme(c, 1, 2), wme(b, 2, 3), wme(c, 2, 4)];
    for mut m in matchers(&net) {
        let r = stream(m.as_mut(), &rights);
        assert!(r.join_activations >= 2 * PAIRS * rights.len() as u64);
        assert_eq!(r.null_skipped, r.join_activations, "{}", m.name());
        assert_eq!(r.cs_changes, 0);
        assert_eq!(
            r.allocs,
            0,
            "{}: null right activations allocated",
            m.name()
        );
    }

    // Left inputs with every right memory empty. The not-node passes its
    // token on (nothing blocks it), into one more null left activation.
    let lefts = [wme(a, 1, 10), wme(a, 2, 11)];
    for mut m in matchers(&net) {
        let r = stream(m.as_mut(), &lefts);
        assert_eq!(r.join_activations, 2 * PAIRS * lefts.len() as u64 * 4);
        assert_eq!(r.cs_changes, 0);
        // The three alpha successors share the change's one `Token::single`;
        // the token the not-node forwards is the one it received. Linking
        // and unlinking the four joins moves ids inside lists the warm-up
        // lap has sized.
        assert_eq!(
            r.allocs,
            2 * PAIRS * lefts.len() as u64,
            "{}: a change's null left activations cost exactly its one token node",
            m.name()
        );
    }
}

/// Fifty productions read one `b` memory and none of them has a token: a
/// `b` is stored once and nobody is run, so what it may allocate is the
/// slot it lands in — a line it is the first to use (vs2) or the memory's
/// one vector growing (vs1) — and its removal nothing.
#[test]
fn a_wme_entering_a_memory_with_50_dead_readers_allocates_at_most_its_line_slot() {
    const READERS: u64 = 50;
    let src: String = (0..READERS)
        .map(|i| format!("(p p{i} (a{i} ^x <v>) (b ^y <v>) --> (halt))\n"))
        .collect();
    let mut prog = Program::from_source(&src).unwrap();
    let net = Arc::new(Network::compile(&prog).unwrap());
    assert_eq!((net.n_joins() as u64, net.right_mems.len()), (READERS, 1));
    let b = prog.symbols.intern("b");
    for mut m in matchers(&net) {
        let wmes: Vec<WmeRef> = (0..64)
            .map(|i| Wme::new(b, vec![Value::Int(i)], 1 + i as u64))
            .collect();
        for sign in [Sign::Plus, Sign::Minus] {
            for w in &wmes {
                let batch = ChangeBatch::single(WmeChange {
                    sign,
                    wme: w.clone(),
                });
                let before = ALLOCS.with(Cell::get);
                m.submit(&batch);
                m.quiesce();
                let allocs = ALLOCS.with(Cell::get) - before;
                let budget = (sign == Sign::Plus) as u64;
                assert!(
                    allocs <= budget,
                    "{}: {sign:?} of a wme with {READERS} dead readers allocated {allocs}",
                    m.name()
                );
            }
        }
        let s = m.stats();
        assert_eq!(s.join_activations, 2 * 64 * READERS);
        assert_eq!((s.null_skipped, s.null_activations), (2 * 64 * READERS, 0));
        assert_eq!(s.same_searches_right, 64, "one delete search per memory");
    }
}

/// A small program's session is not its vs2 table (ROADMAP, one-kernel
/// decision (a)): building a vs2 matcher over the 2-rule `fibonacci`, loading
/// its start state and dropping it allocates at most twice the bytes col does.
/// At the fixed 16 384 lines it was 768 KiB against col's few hundred bytes.
#[test]
fn a_fibonacci_vs2_session_allocates_within_twice_cols_bytes() {
    let src = std::fs::read_to_string(concat!(
        env!("CARGO_MANIFEST_DIR"),
        "/../../programs/fibonacci.ops"
    ))
    .unwrap();
    let prog = Program::from_source(&src).unwrap();
    let net = Arc::new(Network::compile(&prog).unwrap());
    let startup: ChangeBatch = (prog.startup.iter().zip(1..))
        .map(|(s, tag)| {
            let mut fields = vec![Value::NIL; prog.classes.arity(s.class) as usize];
            for &(f, v) in &s.sets {
                fields[f as usize] = v;
            }
            WmeChange {
                sign: Sign::Plus,
                wme: Wme::new(s.class, fields, tag),
            }
        })
        .collect();
    assert!(!startup.is_empty());
    let session_bytes = |make: &dyn Fn() -> Box<dyn Matcher>| {
        let before = BYTES.with(Cell::get);
        let mut m = make();
        m.submit(&startup);
        m.quiesce();
        drop(m);
        BYTES.with(Cell::get) - before
    };
    let vs2 = session_bytes(&|| boxed_vs2(net.clone(), HashMemConfig::default()));
    let col = session_bytes(&|| rete::colmatch::boxed_col(net.clone()));
    assert!(vs2 <= 2 * col, "vs2 {vs2} B against col {col} B");
    let paper = session_bytes(&|| boxed_vs2(net.clone(), HashMemConfig::PAPER));
    assert!(
        paper > 700 << 10,
        "the fixed table this replaced: {paper} B"
    );
}

/// The Rubik shape at depth k: one production over a control element and
/// k - 1 slots, each CE passed by exactly one WME, and a firing that
/// modifies all k of them, slots first and the control element last, as one
/// batch in RHS order. Retractions go first, so the chain comes down once
/// (`-slot 1`), every other slot change meets a dead reader, and only
/// `+turn` builds: 4k - 4 join activations, one `Remove` and one `Insert`,
/// and two token nodes per level. Taken as written the batch rebuilds the
/// chain below each CE in turn, (k + 2)(k - 1) join activations and 2k
/// conflict-set changes, which fails every bound below from k = 4 on.
#[test]
fn a_firing_that_modifies_all_it_matched_costs_its_depth_not_its_square() {
    for k in [4u64, 8, 16] {
        let mut src = String::from(
            "(literalize turn n)\n(literalize slot pos holds)\n(p rotate (turn ^n <n>)",
        );
        for pos in 1..k {
            src += &format!(" (slot ^pos {pos} ^holds <h{pos}>)");
        }
        src += " --> (halt))";
        let mut prog = Program::from_source(&src).unwrap();
        let net = Arc::new(Network::compile(&prog).unwrap());
        assert_eq!(net.n_joins() as u64, k - 1);
        let [turn, slot] = ["turn", "slot"].map(|s| prog.symbols.intern(s));
        for mut m in matchers(&net) {
            let mut tag = 0;
            let mut fresh = |class, vals: &[i64]| {
                tag += 1;
                Wme::new(class, vals.iter().map(|&v| Value::Int(v)).collect(), tag)
            };
            let mut live: Vec<WmeRef> = vec![fresh(turn, &[0])];
            live.extend((1..k as i64).map(|pos| fresh(slot, &[pos, pos])));
            m.submit(&live.iter().cloned().map(plus).collect());
            assert_eq!(m.quiesce().cs_changes.len(), 1);

            // Two firings size the agenda and the lines; the third is measured.
            for firing in 0..3 {
                let mut batch = ChangeBatch::new();
                for ce in (1..k as usize).chain([0]) {
                    let new = match ce {
                        0 => fresh(turn, &[firing + 1]),
                        _ => fresh(slot, &[ce as i64, firing]),
                    };
                    batch.delete(std::mem::replace(&mut live[ce], new.clone()));
                    batch.add(new);
                }
                assert_eq!(batch.len() as u64, 2 * k);
                m.reset_stats();
                let before = ALLOCS.with(Cell::get);
                m.submit(&batch);
                let cs = m.quiesce().cs_changes;
                let allocs = ALLOCS.with(Cell::get) - before;
                if firing < 2 {
                    continue;
                }
                let at = format!("{} at depth {k}", m.name());
                assert!(
                    matches!(&cs[..], [CsChange::Remove(r), CsChange::Insert(i)]
                        if r.wmes.len() as u64 == k && i.wmes.len() as u64 == k),
                    "{at}: {cs:?}"
                );
                let s = m.stats();
                assert_eq!(s.cs_changes, 2, "{at}");
                assert!(s.join_activations <= 4 * k, "{at}: {s:?}");
                assert!(allocs <= 3 * k, "{at}: {allocs} allocations");
            }
        }
    }
}

fn plus(wme: WmeRef) -> WmeChange {
    WmeChange {
        sign: Sign::Plus,
        wme,
    }
}
