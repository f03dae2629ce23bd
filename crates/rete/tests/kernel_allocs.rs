//! Allocation budget of the sequential activation kernel.
//!
//! Most of a rule program's activations are null (Weaver: 97%), and a null
//! activation is the paper's few-dozen-instruction case, so the budget is
//! exact: a null right activation allocates nothing (its reader is retired
//! as `null_skipped` without being run, and the WME is stored once however
//! many readers its memory has), and the null left activations of a change
//! allocate the one-WME token node they share and nothing else. The allocator below counts per
//! thread, so concurrently running tests cannot disturb it.
//!
//! The last two tests replay a benchmark program's recorded change stream
//! into vs2 in batches of 64 (several firings merged, as run slices,
//! parallel-act groups and a staged `BATCH` merge them): it must fold to
//! the conflict set one change at a time reaches, within an allocation
//! budget per change.

use engine::EngineBuilder;
use ops5::{
    ChangeBatch, CsChange, MatchStats, Matcher, ProdId, Program, QuiesceReport, Sign, Value, Wme,
    WmeChange, WmeRef,
};
use rete::seq::{boxed_vs1, boxed_vs2};
use rete::{HashMemConfig, Network, NetworkOptions, Succ};
use std::alloc::{GlobalAlloc, Layout, System};
use std::cell::Cell;
use std::collections::hash_map::DefaultHasher;
use std::collections::BTreeSet;
use std::hash::{Hash, Hasher};
use std::sync::{Arc, Mutex};
use workloads::{tourney, weaver, Workload};

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
    let net = Arc::new(Network::compile_with(&prog, NetworkOptions::PAPER).unwrap());
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
/// its start state and dropping it allocates at most 2 KiB (measured:
/// 1696 B). At the fixed 16 384 lines it is 768 KiB.
#[test]
fn a_fibonacci_vs2_session_allocates_at_most_2_kib() {
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
    assert!(vs2 <= 2 << 10, "vs2 {vs2} B");
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

/// Tree-based removal: retracting the head of a chain of joins that keep
/// their children allocates nothing but the change's one-WME token. The
/// head `h` of `(h ^x <v>) (b ^x <v>) (c ^x <v>) (t ^x <v>)`, with four
/// `b`s, four `c`s and no `t`, takes 4 + 16 tokens down through J0 and J1,
/// which send on what their entries kept, and ends in 16 null left
/// activations of the terminal join J2: 21 join activations. The parent
/// commit, which rematched every removal, made 21 allocations for the same
/// retraction on vs1 and on vs2: the change's token and the 20 it rebuilt
/// to find what to delete.
#[test]
fn retracting_the_head_of_a_chain_allocates_only_its_own_token() {
    let src = "(p chain (h ^x <v>) (b ^x <v>) (c ^x <v>) (t ^x <v>) --> (halt))";
    let mut prog = Program::from_source(src).unwrap();
    let net = Arc::new(Network::compile(&prog).unwrap());
    let succs: Vec<_> = (0..3).map(|j| &net.join(j).succs[..]).collect();
    assert!(matches!(
        succs[..],
        [[Succ::Join(1)], [Succ::Join(2)], [Succ::Terminal(_)]]
    ));
    let [h, b, c] = ["h", "b", "c"].map(|s| prog.symbols.intern(s));
    let mut tag = 0;
    let mut wme = |class| {
        tag += 1;
        Wme::new(class, vec![Value::Int(1)], tag)
    };
    let head = wme(h);
    let body: ChangeBatch = (0..4).flat_map(|_| [wme(b), wme(c)]).map(plus).collect();
    let [add_head, retract_head] = [Sign::Plus, Sign::Minus].map(|sign| {
        ChangeBatch::single(WmeChange {
            sign,
            wme: head.clone(),
        })
    });
    for mut m in matchers(&net) {
        m.submit(&body);
        m.quiesce();
        // The first lap sizes the agenda, the scratch buffers and the slab.
        for lap in 0..2 {
            m.submit(&add_head);
            m.quiesce();
            m.reset_stats();
            let before = ALLOCS.with(Cell::get);
            m.submit(&retract_head);
            assert!(m.quiesce().cs_changes.is_empty());
            let allocs = ALLOCS.with(Cell::get) - before;
            let s = m.stats();
            assert_eq!((s.join_activations, s.null_activations), (21, 16));
            if lap == 1 {
                assert_eq!(allocs, 1, "{}: -h allocated {allocs}", m.name());
            }
        }
    }
}

/// Allocations of growing a `Vec<CsChange>` to `n` entries: a report's
/// cost, not the activations'.
fn report_vec(n: usize) -> u64 {
    let placeholder = CsChange::Insert(ops5::Instantiation {
        prod: ProdId(0),
        wmes: ops5::Token::empty(),
    });
    let before = ALLOCS.with(Cell::get);
    let mut out = Vec::new();
    for _ in 0..n {
        out.push(placeholder.clone());
    }
    drop(out);
    ALLOCS.with(Cell::get) - before
}

/// Retracts and re-asserts `head` over `body` on vs1 and vs2 on `net`: after
/// a warm-up lap, the retraction makes `joins` join activations and
/// removes `removed` instantiations, and allocates nothing but the change's
/// one-WME token (and the report's vector).
fn retract_head(net: &Arc<Network>, body: &ChangeBatch, head: &WmeRef, joins: u64, removed: usize) {
    let [add_head, retract_head] = [Sign::Plus, Sign::Minus].map(|sign| {
        ChangeBatch::single(WmeChange {
            sign,
            wme: head.clone(),
        })
    });
    let report = report_vec(removed);
    for mut m in matchers(net) {
        m.submit(body);
        m.quiesce();
        // The first lap sizes the agenda, the scratch buffers and the slab.
        for lap in 0..2 {
            m.submit(&add_head);
            assert_eq!(m.quiesce().cs_changes.len(), removed);
            m.reset_stats();
            let before = ALLOCS.with(Cell::get);
            m.submit(&retract_head);
            let cs = m.quiesce().cs_changes;
            let allocs = ALLOCS.with(Cell::get) - before;
            assert_eq!(cs.len(), removed, "{}", m.name());
            assert!(cs.iter().all(|c| matches!(c, CsChange::Remove(_))));
            let s = m.stats();
            assert_eq!(
                (s.join_activations, s.opp_nonempty_left),
                (joins, 0),
                "{}",
                m.name()
            );
            if lap == 1 {
                assert_eq!(allocs - report, 1, "{}: -h allocated {allocs}", m.name());
            }
        }
    }
}

/// Tree-based removal down to a cross-product terminal join: the head `h`
/// of `(h ^x <v>) (b ^x <v>) (t ^y <w>)`, with four `b`s and four `t`s,
/// takes 4 tokens down through J0 and 16 instantiations out at J1, which
/// hands the conflict set the tokens it kept: 5 join activations, 16
/// removals, one allocation (the change's token). The commit before, which
/// rematched at J1, scanned its right memory four times and made 17
/// allocations: the change's token and the 16 token nodes it built again
/// to name what to remove.
#[test]
fn retracting_the_head_of_a_chain_into_a_cross_product_allocates_only_its_own_token() {
    let src = "(p chain (h ^x <v>) (b ^x <v>) (t ^y <w>) --> (halt))";
    let mut prog = Program::from_source(src).unwrap();
    let net = Arc::new(Network::compile(&prog).unwrap());
    let succs: Vec<_> = (0..2).map(|j| &net.join(j).succs[..]).collect();
    assert!(matches!(succs[..], [[Succ::Join(1)], [Succ::Terminal(_)]]));
    let [h, b, t] = ["h", "b", "t"].map(|s| prog.symbols.intern(s));
    let mut tag = 0;
    let mut wme = |class, v| {
        tag += 1;
        Wme::new(class, vec![Value::Int(v)], tag)
    };
    let head = wme(h, 1);
    let body: ChangeBatch = (0..4)
        .flat_map(|v| [wme(b, 1), wme(t, v)])
        .map(plus)
        .collect();
    retract_head(&net, &body, &head, 5, 16);
}

/// The same through a join shared by two productions: J0 (`h` × `b`) feeds
/// J1 (× `c`) and J2 (× `d`), and sends each of its four children to both.
/// 1 + 4 + 4 join activations, 8 removals at two terminal joins, one
/// allocation; 13 at the commit before, which rematched at all three.
#[test]
fn retracting_the_head_of_a_chain_through_a_shared_join_allocates_only_its_own_token() {
    let src = "(p p1 (h ^x <v>) (b ^x <v>) (c ^x <v>) --> (halt))
         (p p2 (h ^x <v>) (b ^x <v>) (d ^x <v>) --> (halt))";
    let mut prog = Program::from_source(src).unwrap();
    let net = Arc::new(Network::compile(&prog).unwrap());
    assert_eq!(net.n_joins(), 3);
    assert_eq!(net.join(0).succs, [Succ::Join(1), Succ::Join(2)]);
    let [h, b, c, d] = ["h", "b", "c", "d"].map(|s| prog.symbols.intern(s));
    let mut tag = 0;
    let mut wme = |class| {
        tag += 1;
        Wme::new(class, vec![Value::Int(1)], tag)
    };
    let head = wme(h);
    let mut body: Vec<WmeRef> = (0..4).map(|_| wme(b)).collect();
    body.extend([wme(c), wme(d)]);
    let body: ChangeBatch = body.into_iter().map(plus).collect();
    retract_head(&net, &body, &head, 9, 8);
}

fn plus(wme: WmeRef) -> WmeChange {
    WmeChange {
        sign: Sign::Plus,
        wme,
    }
}

/// Wrapper that logs every change submitted to it, then delegates.
struct Recorder {
    inner: Box<dyn Matcher>,
    log: Arc<Mutex<Vec<WmeChange>>>,
}

impl Matcher for Recorder {
    fn submit(&mut self, batch: &ChangeBatch) {
        self.log.lock().unwrap().extend(batch.iter().cloned());
        self.inner.submit(batch);
    }

    fn quiesce(&mut self) -> QuiesceReport {
        self.inner.quiesce()
    }

    fn stats(&self) -> MatchStats {
        self.inner.stats()
    }

    fn reset_stats(&mut self) {
        self.inner.reset_stats()
    }

    fn name(&self) -> &'static str {
        "recorder"
    }
}

/// Runs `w` on vs2 and returns its network and the change stream the
/// matcher was handed, firing by firing.
fn record_stream(w: &Workload) -> (Arc<Network>, Vec<WmeChange>) {
    let log: Arc<Mutex<Vec<WmeChange>>> = Arc::default();
    let sink = log.clone();
    let mut eng = EngineBuilder::from_source(&w.source)
        .expect("parse")
        .custom_matcher(move |net| {
            Box::new(Recorder {
                inner: boxed_vs2(net, HashMemConfig::default()),
                log: sink,
            })
        })
        .network_options(NetworkOptions::default())
        .build()
        .expect("build");
    workloads::load_setup(&mut eng, &w.setup).expect("setup");
    eng.run(w.max_cycles).expect("run");
    (w.validate)(&eng).expect("workload validates");
    let stream = std::mem::take(&mut *log.lock().unwrap());
    (eng.network().clone(), stream)
}

const REPLAY_BATCH: usize = 64;

struct Replayed {
    /// Allocations made inside `submit` + `quiesce`, per change.
    allocs_per_change: f64,
    /// A hash chained over the folded conflict set after every batch.
    fold: u64,
    stats: MatchStats,
}

/// Replays `stream` in batches of `len` changes, quiescing after each.
/// Raw conflict-set changes are not comparable across batch lengths (an
/// instantiation built and retracted inside one batch may or may not be
/// emitted), so the check is the folded set after every [`REPLAY_BATCH`]
/// changes — what the engine observes.
fn replay(mut m: Box<dyn Matcher>, stream: &[WmeChange], len: usize) -> Replayed {
    let mut allocs = 0;
    let mut state: BTreeSet<(ProdId, Vec<u64>)> = BTreeSet::new();
    let mut fold = DefaultHasher::new();
    for (i, chunk) in stream.chunks(len).enumerate() {
        let batch: ChangeBatch = chunk.iter().cloned().collect();
        let before = ALLOCS.with(Cell::get);
        m.submit(&batch);
        let report = m.quiesce();
        allocs += ALLOCS.with(Cell::get) - before;
        for c in &report.cs_changes {
            match c {
                CsChange::Insert(i) => state.insert(i.key()),
                CsChange::Remove(i) => state.remove(&i.key()),
            };
        }
        let done = (i + 1) * len;
        if done.is_multiple_of(REPLAY_BATCH) || done >= stream.len() {
            state.hash(&mut fold);
        }
    }
    Replayed {
        allocs_per_change: allocs as f64 / stream.len() as f64,
        fold: fold.finish(),
        stats: m.stats(),
    }
}

/// Records `w`'s change stream and replays it into a fresh vs2 at
/// [`REPLAY_BATCH`]: the folded conflict set after every batch is the one
/// another vs2 reaches one change at a time, and the batched one stays
/// inside `budget` allocations per change.
fn replay_on_vs2(w: &Workload, budget: f64) -> MatchStats {
    let (net, stream) = record_stream(w);
    assert!(stream.len() > 100, "{}: recorded stream too small", w.name);
    let vs2 = || boxed_vs2(net.clone(), HashMemConfig::default());
    let batched = replay(vs2(), &stream, REPLAY_BATCH);
    assert!(
        batched.fold == replay(vs2(), &stream, 1).fold,
        "{}: vs2 folds batches of {REPLAY_BATCH} to another conflict set",
        w.name
    );
    assert!(
        batched.allocs_per_change <= budget,
        "{}: vs2 made {:.2} allocations per change, over its budget {budget}",
        w.name,
        batched.allocs_per_change
    );
    batched.stats
}

/// The benchmark Weaver (600-rule networks, where one alpha pattern feeds
/// hundreds of joins): 3455 changes. Budgets are the measured allocations
/// per change plus two: vs2 2.60.
/// vs2 retires a dead reader without running or even visiting it, so what
/// it performs as null activations is the left side's share, 0.35 % of
/// 1 612 585 join activations, and the readers it looks at are 0.56 % of
/// them (the same bounds held the unbatched 0.44 % and 0.98 %; walking
/// every reader of a memory read 98.2 %).
#[test]
fn weaver_replayed_at_batch_64_folds_alike_and_runs_no_dead_reader() {
    let w = weaver::workload(weaver::WeaverConfig {
        width: 12,
        height: 12,
        kinds: 36,
        nets: 8,
        blocked_pct: 8,
        seed: 42,
    });
    let s = replay_on_vs2(&w, 4.6);
    let share = |n: u64| n as f64 / s.join_activations as f64;
    assert!(
        share(s.null_activations) <= 0.01,
        "vs2 performed {} of {} join activations as null ones: dead readers \
         of a right memory must not be run",
        s.null_activations,
        s.join_activations
    );
    assert!(
        share(s.readers_visited) <= 0.02,
        "vs2 looked at {} readers for {} join activations: a right store \
         must not walk its dead readers",
        s.readers_visited,
        s.join_activations
    );
}

/// The benchmark Tourney (24 teams, pathological): 4526 changes, each
/// batch of 64 merging several firings' changes. The budget is the measured
/// allocations per change plus two: vs2 12.52. A terminal removal hands
/// back the token it inserted, so what is left is one token node per
/// conflict-set insertion; vs2 takes a batch's retractions first, so 64
/// merged changes build no transients.
#[test]
fn tourney_replayed_at_batch_64_folds_alike_within_budget() {
    let w = tourney::workload(tourney::TourneyConfig {
        teams: 24,
        variant: tourney::Variant::Pathological,
    });
    replay_on_vs2(&w, 14.6);
}
