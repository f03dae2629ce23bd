//! Property-based tests (proptest) on the match engines.
//!
//! Strategy: generate small random programs over a fixed vocabulary of
//! classes/attributes/values, plus random add/remove streams, and require
//! that every engine computes the identical final conflict set. Also checks
//! core invariants: token memories drain when everything is retracted, the
//! parallel matcher leaves no parked conjugate tokens at quiescence, and
//! TaskCount returns to zero.

use ops5::{ChangeBatch, CsChange, Matcher, Program, Sign, Value, Wme, WmeChange, WmeRef};
use proptest::prelude::*;
use psm::{LockScheme, ParMatcher, PsmConfig};
use rete::network::Network;
use rete::{HashMemConfig, NetworkOptions};
use std::collections::BTreeSet;
use std::sync::Arc;

/// A random condition element over classes c0..c2, fields 0..2, values 0..3
/// or variables v0..v2.
#[derive(Debug, Clone)]
struct GenCe {
    class: u8,
    negated: bool,
    tests: Vec<(u8, GenTest)>,
}

#[derive(Debug, Clone)]
enum GenTest {
    Const(u8),
    Var(u8),
    VarNe(u8),
}

fn gen_ce(negated: bool) -> impl Strategy<Value = GenCe> {
    (
        0u8..3,
        proptest::collection::vec((0u8..3, gen_test()), 0..3),
    )
        .prop_map(move |(class, tests)| GenCe {
            class,
            negated,
            tests,
        })
}

fn gen_test() -> impl Strategy<Value = GenTest> {
    prop_oneof![
        (0u8..4).prop_map(GenTest::Const),
        (0u8..3).prop_map(GenTest::Var),
        (0u8..3).prop_map(GenTest::VarNe),
    ]
}

#[derive(Debug, Clone)]
struct GenProgram {
    prods: Vec<Vec<GenCe>>,
}

fn gen_program() -> impl Strategy<Value = GenProgram> {
    proptest::collection::vec(
        (
            gen_ce(false),
            proptest::collection::vec((gen_ce(false), any::<bool>()), 0..3),
        ),
        1..4,
    )
    .prop_map(|prods| GenProgram {
        prods: prods
            .into_iter()
            .map(|(first, rest)| {
                let mut lhs = vec![first];
                for (mut ce, neg) in rest {
                    ce.negated = neg;
                    lhs.push(ce);
                }
                lhs
            })
            .collect(),
    })
}

/// Like [`gen_program`], but every production's second CE is the *same*
/// alpha pattern — test-free `c0` — joined under a varying equality
/// signature (which fields, in which order) and sign, so the productions
/// share right memories by construction instead of by accident. Each field
/// gets its own variable: a repeated one would add an intra-element test
/// and split the pattern.
fn gen_shared_ce_program() -> impl Strategy<Value = GenProgram> {
    proptest::collection::vec(
        (
            gen_ce(false),
            (0u8..8, 0u8..3, any::<bool>(), any::<bool>()),
            proptest::collection::vec((gen_ce(false), any::<bool>()), 0..2),
        ),
        2..5,
    )
    .prop_map(|prods| GenProgram {
        prods: prods
            .into_iter()
            .map(|(first, (mask, rot, reversed, negated), rest)| {
                let mut tests: Vec<(u8, GenTest)> = (0u8..3)
                    .filter(|f| mask & (1 << f) != 0)
                    .map(|f| (f, GenTest::Var((f + rot) % 3)))
                    .collect();
                if reversed {
                    tests.reverse();
                }
                let mut lhs = vec![
                    first,
                    GenCe {
                        class: 0,
                        negated,
                        tests,
                    },
                ];
                for (mut ce, neg) in rest {
                    ce.negated = neg;
                    lhs.push(ce);
                }
                lhs
            })
            .collect(),
    })
}

/// Renders the generated program as OPS5 source. Variables appearing in only
/// one place are still legal; VarNe tests against variables that end up
/// unbound would be compile errors, so every production pre-binds all three
/// variables in its first CE.
fn render(prog: &GenProgram) -> String {
    let mut s = String::new();
    // Fix the field layout up front so WME construction in the test can use
    // positional fields f0, f1, f2 for every class.
    for c in 0..3 {
        s.push_str(&format!("(literalize c{c} f0 f1 f2)\n"));
    }
    for (pi, lhs) in prog.prods.iter().enumerate() {
        s.push_str(&format!("(p p{pi}\n"));
        for (ci, ce) in lhs.iter().enumerate() {
            if ce.negated && ci > 0 {
                s.push_str("  - ");
            } else {
                s.push_str("  ");
            }
            s.push_str(&format!("(c{}", ce.class));
            if ci == 0 {
                // Bind all variables so later predicates are always legal.
                s.push_str(" ^f0 <v0> ^f1 <v1> ^f2 <v2>");
            }
            for (field, t) in &ce.tests {
                match t {
                    GenTest::Const(v) => s.push_str(&format!(" ^f{field} {v}")),
                    GenTest::Var(v) => s.push_str(&format!(" ^f{field} <v{v}>")),
                    GenTest::VarNe(v) => s.push_str(&format!(" ^f{field} <> <v{v}>")),
                }
            }
            s.push_str(")\n");
        }
        // The RHS is irrelevant: these tests drive matchers directly.
        s.push_str("  --> (halt))\n");
    }
    s
}

/// A random WME stream: adds, and removes of previously-added elements.
fn gen_stream() -> impl Strategy<Value = Vec<(u8, [u8; 3], bool)>> {
    proptest::collection::vec((0u8..3, [0u8..4, 0u8..4, 0u8..4], any::<bool>()), 1..25)
}

/// The change stream a [`gen_stream`] draw stands for: adds, and removes of
/// live elements.
fn build_changes(prog: &Program, stream: &[(u8, [u8; 3], bool)]) -> Vec<WmeChange> {
    let mut live: Vec<WmeRef> = Vec::new();
    let mut changes = Vec::new();
    let mut tag = 1u64;
    for (class, fields, remove) in stream {
        if *remove && !live.is_empty() {
            let w = live.swap_remove((*class as usize) % live.len());
            changes.push(WmeChange {
                sign: Sign::Minus,
                wme: w,
            });
        } else {
            let cs = prog.symbols.get(&format!("c{class}")).unwrap();
            let w = Wme::new(
                cs,
                fields.iter().map(|&v| Value::Int(v as i64)).collect(),
                tag,
            );
            tag += 1;
            live.push(w.clone());
            changes.push(WmeChange {
                sign: Sign::Plus,
                wme: w,
            });
        }
    }
    changes
}

type CsState = BTreeSet<(u32, Vec<u64>)>;

fn apply_cs(set: &mut CsState, changes: Vec<CsChange>) {
    for c in changes {
        match c {
            CsChange::Insert(i) => {
                let k = i.key();
                set.insert((k.0 .0, k.1));
            }
            CsChange::Remove(i) => {
                let k = i.key();
                set.remove(&(k.0 .0, k.1));
            }
        }
    }
}

fn final_cs(m: &mut dyn Matcher, changes: &[WmeChange]) -> CsState {
    for c in changes {
        m.submit(&ChangeBatch::single(c.clone()));
    }
    let mut set = BTreeSet::new();
    apply_cs(&mut set, m.quiesce().cs_changes);
    set
}

/// `changes` cut into chunks of the (cycled) `chunk_lens` sizes.
fn chunks<'a, T>(changes: &'a [T], chunk_lens: &[usize]) -> Vec<&'a [T]> {
    let mut out = Vec::new();
    let mut rest = changes;
    for n in chunk_lens.iter().cycle() {
        if rest.is_empty() {
            break;
        }
        let (chunk, tail) = rest.split_at((*n).clamp(1, rest.len()));
        out.push(chunk);
        rest = tail;
    }
    out
}

/// Submits one chunk — as a whole `ChangeBatch` if `batched`, else one
/// single-change `submit` per change — quiesces, and folds the conflict-set
/// changes into `set`.
fn feed_chunk(m: &mut dyn Matcher, chunk: &[WmeChange], batched: bool, set: &mut CsState) {
    if batched {
        m.submit(&chunk.iter().cloned().collect());
    } else {
        for c in chunk {
            m.submit(&ChangeBatch::single(c.clone()));
        }
    }
    apply_cs(set, m.quiesce().cs_changes);
}

/// Feeds `changes` in chunks of the (cycled) `chunk_lens` sizes, quiescing
/// at every chunk boundary. Returns the net conflict-set state observed
/// after each quiesce.
fn chunked_cs_history(
    m: &mut dyn Matcher,
    changes: &[WmeChange],
    chunk_lens: &[usize],
    batched: bool,
) -> Vec<CsState> {
    let mut set = BTreeSet::new();
    chunks(changes, chunk_lens)
        .into_iter()
        .map(|chunk| {
            feed_chunk(m, chunk, batched, &mut set);
            set.clone()
        })
        .collect()
}

/// One recorded input for [`a_batch_is_a_set_whose_order_is_the_matchers`]:
/// per batch, changes to distinct WMEs of `synth::NEGATED`'s classes in the
/// order an RHS might have written them. A delete only ever names a WME
/// that was live when its batch began, so no order of a batch puts a delete
/// before its own add.
fn negated_batches(
    prog: &Program,
    stream: &[(u8, u8, u8, bool)],
    chunk_lens: &[usize],
) -> Vec<Vec<WmeChange>> {
    let class = |name: &str| prog.symbols.get(name).unwrap();
    let states = ["new", "held", "idle"].map(|s| Value::Sym(class(s)));
    let mut live: Vec<WmeRef> = Vec::new();
    let mut batches = Vec::new();
    let mut tag = 0;
    for chunk in chunks(stream, chunk_lens) {
        let mut batch = Vec::new();
        let mut added = Vec::new();
        for &(kind, id, state, remove) in chunk {
            if remove && !live.is_empty() {
                let wme = live.swap_remove(id as usize % live.len());
                batch.push(WmeChange {
                    sign: Sign::Minus,
                    wme,
                });
                continue;
            }
            let id = Value::Int(id as i64 % 3);
            tag += 1;
            let wme = match kind % 4 {
                0 | 1 => Wme::new(class("item"), vec![id, states[state as usize % 3]], tag),
                2 => Wme::new(class("lock"), vec![id], tag),
                _ => Wme::new(class("done"), vec![id], tag),
            };
            added.push(wme.clone());
            batch.push(WmeChange {
                sign: Sign::Plus,
                wme,
            });
        }
        live.extend(added);
        batches.push(batch);
    }
    batches
}

/// How an executor hands a recorded batch to its matcher.
#[derive(Debug, Clone, Copy)]
enum Order {
    /// One `submit` per change, as written: the paper's order.
    Singles,
    /// One `ChangeBatch`, pushed as written.
    AsWritten,
    /// One `ChangeBatch`, every assertion pushed before any retraction.
    AssertsFirst,
    /// One `ChangeBatch`, pushed in a seeded shuffle.
    Shuffled(u64),
}

impl Order {
    fn submit(self, m: &mut dyn Matcher, batch: &[WmeChange]) {
        let mut changes = batch.to_vec();
        match self {
            Order::Singles => {
                for c in changes {
                    m.submit(&ChangeBatch::single(c));
                }
                return;
            }
            Order::AsWritten => {}
            Order::AssertsFirst => changes.sort_by_key(|c| c.sign == Sign::Minus),
            Order::Shuffled(seed) => workloads::rng::SplitMix64::new(seed).shuffle(&mut changes),
        }
        m.submit(&changes.into_iter().collect());
    }
}

proptest! {
    #![proptest_config(ProptestConfig { cases: 64, .. ProptestConfig::default() })]

    #[test]
    fn engines_agree_on_random_programs(genp in gen_program(), stream in gen_stream()) {
        let src = render(&genp);
        let prog = Program::from_source(&src).expect("generated source parses");
        let net = Arc::new(Network::compile_with(&prog, NetworkOptions::PAPER).expect("network compiles"));

        let changes = build_changes(&prog, &stream);

        let mut vs1 = rete::seq::boxed_vs1(net.clone());
        let reference = final_cs(vs1.as_mut(), &changes);

        let mut vs2 = rete::seq::boxed_vs2(net.clone(), HashMemConfig { buckets: 16 });
        prop_assert_eq!(final_cs(vs2.as_mut(), &changes), reference.clone(), "vs2 disagrees");

        let mut lisp = lispsim::LispEngineMatcher::boxed_with(&prog, NetworkOptions::PAPER);
        prop_assert_eq!(final_cs(lisp.as_mut(), &changes), reference.clone(), "lisp disagrees");


        for scheme in [LockScheme::Simple, LockScheme::Mrsw] {
            let mut par = ParMatcher::new(
                net.clone(),
                PsmConfig { match_processes: 3, queues: 2, lock_scheme: scheme, buckets: 16 },
            );
            prop_assert_eq!(
                final_cs(&mut par, &changes),
                reference.clone(),
                "psm {:?} disagrees",
                scheme
            );
            prop_assert_eq!(par.parked_tokens(), 0, "conjugate tokens parked at quiescence");
        }

        // Beta-prefix sharing + unlinking must be invisible: matchers on the
        // tuned network agree with the unshared baseline on the same stream.
        let opts = NetworkOptions { sharing: true, unlinking: true };
        let tuned = Arc::new(Network::compile_with(&prog, opts).expect("tuned network compiles"));
        let mut vs1t = rete::seq::boxed_vs1(tuned.clone());
        prop_assert_eq!(final_cs(vs1t.as_mut(), &changes), reference.clone(), "tuned vs1 disagrees");
        let mut vs2t = rete::seq::boxed_vs2(tuned.clone(), HashMemConfig { buckets: 16 });
        prop_assert_eq!(final_cs(vs2t.as_mut(), &changes), reference.clone(), "tuned vs2 disagrees");
        let mut lispt = lispsim::LispEngineMatcher::boxed_with(&prog, opts);
        prop_assert_eq!(final_cs(lispt.as_mut(), &changes), reference.clone(), "tuned lisp disagrees");
        for scheme in [LockScheme::Simple, LockScheme::Mrsw] {
            let mut par = ParMatcher::new(
                tuned.clone(),
                PsmConfig { match_processes: 3, queues: 2, lock_scheme: scheme, buckets: 16 },
            );
            prop_assert_eq!(
                final_cs(&mut par, &changes),
                reference.clone(),
                "tuned psm {:?} disagrees",
                scheme
            );
            prop_assert_eq!(par.parked_tokens(), 0, "tuned psm parked conjugate tokens");
        }
    }

    #[test]
    fn token_identity_matches_timetag_sequence(
        tags_a in proptest::collection::vec(1u64..64, 0..8),
        tags_b in proptest::collection::vec(1u64..64, 0..8),
    ) {
        // The parent-linked token must be observationally identical to the
        // flat WME-list definition: identity is the timetag sequence, the
        // cached hash is the flat fxhash fold over it, and walking the
        // chain reproduces the sequence front to back.
        let class = ops5::SymbolId(0);
        let mk = |tags: &[u64]| {
            let mut t = rete::Token::empty();
            for &tag in tags {
                t = t.extended(Wme::new(class, vec![], tag));
            }
            t
        };
        let (ta, tb) = (mk(&tags_a), mk(&tags_b));
        prop_assert_eq!(ta.same_wmes(&tb), tags_a == tags_b);
        prop_assert_eq!(tb.same_wmes(&ta), tags_a == tags_b);
        prop_assert_eq!(
            ta.identity_hash(),
            rete::fxhash::hash_words(tags_a.iter().copied())
        );
        if tags_a == tags_b {
            prop_assert_eq!(ta.identity_hash(), tb.identity_hash());
        }
        prop_assert_eq!(ta.timetags(), tags_a.clone());
        prop_assert_eq!(
            ta.wme_vec().iter().map(|w| w.timetag).collect::<Vec<u64>>(),
            tags_a.clone()
        );
        prop_assert_eq!(ta.len(), tags_a.len());
        // Extending shares the parent chain: both extensions agree with
        // the flat definition independently.
        let ext_a = ta.extended(Wme::new(class, vec![], 99));
        let ext_b = ta.extended(Wme::new(class, vec![], 98));
        prop_assert!(!ext_a.same_wmes(&ext_b));
        let mut flat_a = tags_a.clone();
        flat_a.push(99);
        prop_assert_eq!(ext_a.identity_hash(), rete::fxhash::hash_words(flat_a));
    }

    #[test]
    fn batch_chunking_is_invariant(
        genp in gen_program(),
        stream in gen_stream(),
        chunk_lens in proptest::collection::vec(1usize..6, 1..8),
    ) {
        // Submitting one change at a time must be indistinguishable from
        // re-chunking the same stream into arbitrary ChangeBatches: the net
        // conflict-set state at every quiesce point is identical, for all
        // five matchers.
        let src = render(&genp);
        let prog = Program::from_source(&src).expect("generated source parses");
        let net = Arc::new(Network::compile(&prog).expect("network compiles"));

        let changes = build_changes(&prog, &stream);

        type MatcherFactory = Box<dyn Fn() -> Box<dyn Matcher>>;
        let factories: Vec<(&str, MatcherFactory)> = vec![
            ("vs1", Box::new({
                let net = net.clone();
                move || rete::seq::boxed_vs1(net.clone())
            })),
            ("vs2", Box::new({
                let net = net.clone();
                move || rete::seq::boxed_vs2(net.clone(), HashMemConfig { buckets: 16 })
            })),
            ("lisp", Box::new({
                let prog = prog.clone();
                move || lispsim::LispEngineMatcher::boxed(&prog)
            })),
        ];
        for (name, mk) in &factories {
            let per_change = chunked_cs_history(mk().as_mut(), &changes, &chunk_lens, false);
            let batched = chunked_cs_history(mk().as_mut(), &changes, &chunk_lens, true);
            prop_assert_eq!(per_change, batched, "{}: chunking changed the CS history", name);
        }
        for scheme in [LockScheme::Simple, LockScheme::Mrsw] {
            let cfg = PsmConfig {
                match_processes: 3,
                queues: 2,
                lock_scheme: scheme,
                buckets: 16,
            };
            let mut a = ParMatcher::new(net.clone(), cfg);
            let per_change = chunked_cs_history(&mut a, &changes, &chunk_lens, false);
            let mut b = ParMatcher::new(net.clone(), cfg);
            let batched = chunked_cs_history(&mut b, &changes, &chunk_lens, true);
            prop_assert_eq!(per_change, batched, "psm {:?}: chunking changed the CS history", scheme);
            prop_assert_eq!(a.parked_tokens(), 0);
            prop_assert_eq!(b.parked_tokens(), 0, "psm {:?}: batched run parked conjugate tokens", scheme);
        }
    }

    #[test]
    fn shared_right_memories_agree_with_a_per_join_reference(
        genp in gen_shared_ce_program(),
        stream in gen_stream(),
        chunk_lens in proptest::collection::vec(1usize..6, 1..8),
    ) {
        // One common second CE across all productions: vs1, vs2 and lispsim
        // keep one right memory per distinct signature and every
        // production reads it. Under arbitrary chunking their CS history must
        // equal the per-change one of the trace matcher, which keeps footnote
        // 6's private right memory per join — on the paper network and on the
        // shared-prefix + unlinking one — and vs1 and vs2 must hold the
        // same number of entries after every chunk: each WME once per
        // signature, not once per join. And after every chunk, adds and
        // removes alike, each matcher's linked reader lists are the filter
        // they replaced: per right memory, the readers whose left memory is
        // non-empty, ascending.
        let src = render(&genp);
        let prog = Program::from_source(&src).expect("generated source parses");
        let net = Arc::new(Network::compile_with(&prog, NetworkOptions::PAPER).expect("network compiles"));
        let c0 = net.patterns.iter().find(|p| p.tests.is_empty() && !p.right_mems.is_empty());
        let shared = c0.expect("the common CE compiles to one test-free pattern");
        let mut sigs: Vec<Vec<u16>> = net.joins.iter()
            .filter(|j| net.right_mems[j.right_mem as usize].pattern == shared.id)
            .map(|j| j.eq_specs.iter().map(|s| s.right_field).collect())
            .collect();
        sigs.sort();
        sigs.dedup();
        prop_assert_eq!(shared.right_mems.len(), sigs.len(), "one memory per signature");

        let changes = build_changes(&prog, &stream);

        let sink = Arc::new(std::sync::Mutex::new(psm::RunTrace::default()));
        let mut trace = psm::TraceMatcher::new(net.clone(), 16, sink);
        let reference = chunked_cs_history(&mut trace, &changes, &chunk_lens, false);

        let opts = NetworkOptions { sharing: true, unlinking: true };
        let tuned = Arc::new(Network::compile_with(&prog, opts).expect("tuned network compiles"));
        for (label, net) in [("paper", net), ("tuned", tuned)] {
            let mut vs1 = rete::SeqMatcher::vs1(net.clone());
            let mut vs2 = rete::SeqMatcher::vs2(net.clone(), HashMemConfig { buckets: 16 });
            let mut lisp = lispsim::LispEngineMatcher::boxed_with(&prog, net.options);
            let mut sets = [BTreeSet::new(), BTreeSet::new(), BTreeSet::new()];
            for (i, chunk) in chunks(&changes, &chunk_lens).into_iter().enumerate() {
                feed_chunk(&mut vs1, chunk, true, &mut sets[0]);
                feed_chunk(&mut vs2, chunk, true, &mut sets[1]);
                feed_chunk(lisp.as_mut(), chunk, true, &mut sets[2]);
                for (name, set) in ["vs1", "vs2", "lisp"].iter().zip(&sets) {
                    prop_assert_eq!(set, &reference[i], "{} {} disagrees with the trace matcher at chunk {}", label, name, i);
                }
                prop_assert_eq!(vs1.memory_entries(), vs2.memory_entries(), "{} entries, chunk {}", label, i);
                prop_assert_eq!(vs1.linked_readers(), rete::live_readers(&net, |j| vs1.left_entries(j) != 0), "{} vs1 lists, chunk {}", label, i);
                prop_assert_eq!(vs2.linked_readers(), rete::live_readers(&net, |j| vs2.left_entries(j) != 0), "{} vs2 lists, chunk {}", label, i);
            }
        }
    }

    #[test]
    fn a_batch_is_a_set_whose_order_is_the_matchers(
        stream in proptest::collection::vec((0u8..4, 0u8..12, 0u8..3, any::<bool>()), 1..40),
        chunk_lens in proptest::collection::vec(1usize..8, 1..6),
        fire in proptest::collection::vec(0usize..64, 1..6),
        seed in any::<u64>(),
    ) {
        // One recorded input, N executors (`Matcher::submit`'s contract): a
        // batch is a set of changes to distinct WMEs and the order inside it
        // is the matcher's, so vs1, vs2 and lispsim, each fed the batch
        // as written, assertions first, in three shuffles and as the paper's
        // stream of single changes, must fold to the same conflict set
        // *with the same fired flags* after every quiesce as the trace
        // matcher, the per-join reference, fed the paper's stream. Between
        // batches one candidate fires (refraction); what was fired before a
        // batch and is present after it was never removed inside it, in any
        // order, so it is still fired. `NEGATED` puts all four not-node arms
        // and a positive chain under every order.
        //
        // Kills, in `SeqMatcher::submit`: "skip the second pass" (nothing is
        // ever asserted) and "take a group's retractions only when its first
        // change is one" (a shuffle that opens a group with an assertion
        // loses the group's retractions).
        let prog = Program::from_source(workloads::synth::NEGATED).expect("parses");
        let net = Arc::new(Network::compile(&prog).expect("network compiles"));
        let batches = negated_batches(&prog, &stream, &chunk_lens);

        let orders = [
            Order::Singles,
            Order::AsWritten,
            Order::AssertsFirst,
            Order::Shuffled(seed),
            Order::Shuffled(seed ^ 0x9e37_79b9),
            Order::Shuffled(seed.rotate_left(17) + 1),
        ];
        // The trace matcher as written, one change at a time, is the reference.
        let sink = Arc::new(std::sync::Mutex::new(psm::RunTrace::default()));
        let trace = Box::new(psm::TraceMatcher::new(net.clone(), 16, sink));
        let mut executors: Vec<(String, Order, Box<dyn Matcher>, engine::ConflictSet)> =
            vec![("trace".into(), Order::Singles, trace, engine::ConflictSet::new())];
        for order in orders {
            let ms: [(&str, Box<dyn Matcher>); 3] = [
                ("lisp", lispsim::LispEngineMatcher::boxed(&prog)),
                ("vs1", rete::seq::boxed_vs1(net.clone())),
                ("vs2", rete::seq::boxed_vs2(net.clone(), HashMemConfig { buckets: 16 })),
            ];
            for (name, m) in ms {
                executors.push((format!("{name} {order:?}"), order, m, engine::ConflictSet::new()));
            }
        }

        for (i, batch) in batches.iter().enumerate() {
            let fired_before = executors[0].3.fired_keys();
            for (_, order, m, cs) in &mut executors {
                order.submit(m.as_mut(), batch);
                cs.apply_all(m.quiesce().cs_changes);
            }
            let keys = executors[0].3.sorted_keys();
            let fired = executors[0].3.fired_keys();
            for key in fired_before.iter().filter(|k| keys.contains(k)) {
                prop_assert!(fired.contains(key), "batch {}: {:?} lost its fired flag", i, key);
            }
            for (name, _, _, cs) in &executors[1..] {
                prop_assert_eq!(cs.sorted_keys(), keys.clone(), "{} after batch {}: {:?}", name, i, batch);
                prop_assert_eq!(cs.fired_keys(), fired.clone(), "{} fired after batch {}: {:?}", name, i, batch);
            }
            // Conflict resolution is not under test: any candidate will do.
            let candidates: Vec<_> = keys.into_iter().filter(|k| !fired.contains(k)).collect();
            if !candidates.is_empty() {
                let winner = &candidates[fire[i % fire.len()] % candidates.len()];
                for (name, _, _, cs) in &mut executors {
                    prop_assert!(cs.mark_fired_key(winner), "{}: {:?} not present", name, winner);
                }
            }
        }
    }

    #[test]
    fn printer_roundtrip_preserves_semantics(genp in gen_program(), stream in gen_stream()) {
        // parse → print → reparse must give a semantically identical
        // program: same final conflict set on the same WME stream.
        let src = render(&genp);
        let prog = Program::from_source(&src).expect("parses");
        let printed = ops5::printer::print_program(&prog);
        let prog2 = Program::from_source(&printed)
            .unwrap_or_else(|e| panic!("printed program fails to reparse: {e}\n{printed}"));
        let net1 = Arc::new(Network::compile(&prog).expect("net1"));
        let net2 = Arc::new(Network::compile(&prog2).expect("net2"));

        let mk = |prog: &Program, class: u8, fields: &[u8; 3], tag: u64| {
            let c = prog.symbols.get(&format!("c{class}")).unwrap();
            Wme::new(c, fields.iter().map(|&v| Value::Int(v as i64)).collect(), tag)
        };
        let mut m1 = rete::seq::boxed_vs2(net1, HashMemConfig { buckets: 16 });
        let mut m2 = rete::seq::boxed_vs2(net2, HashMemConfig { buckets: 16 });
        let mut ch1 = Vec::new();
        let mut ch2 = Vec::new();
        for (tag, (class, fields, _)) in (1u64..).zip(stream.iter()) {
            ch1.push(WmeChange { sign: Sign::Plus, wme: mk(&prog, *class, fields, tag) });
            ch2.push(WmeChange { sign: Sign::Plus, wme: mk(&prog2, *class, fields, tag) });
        }
        prop_assert_eq!(final_cs(m1.as_mut(), &ch1), final_cs(m2.as_mut(), &ch2));
    }

    #[test]
    fn col_agrees_with_vs1_under_random_chunk_lengths(
        genp in gen_program(),
        stream in gen_stream(),
        chunk_lens in proptest::collection::vec(1usize..6, 1..8),
    ) {
        // Random assert/retract interleavings, quiesced at random chunk
        // boundaries: col (vs2 on a table sized by its population), taking
        // the chunks as batches, must end on vs1's final conflict set, and
        // so must col fed one change at a time.
        let src = render(&genp);
        let prog = Program::from_source(&src).expect("generated source parses");
        let net = Arc::new(Network::compile(&prog).expect("network compiles"));

        let changes = build_changes(&prog, &stream);

        let mut col = rete::colmatch::col(net.clone());
        let mut col_state = BTreeSet::new();
        for chunk in chunks(&changes, &chunk_lens) {
            feed_chunk(&mut col, chunk, true, &mut col_state);
        }
        let mut vs1 = rete::seq::boxed_vs1(net.clone());
        let reference = final_cs(vs1.as_mut(), &changes);
        prop_assert_eq!(&col_state, &reference, "col in chunks disagrees with vs1");
        let mut col2 = rete::colmatch::col(net);
        prop_assert_eq!(final_cs(&mut col2, &changes), reference, "col disagrees with vs1");
    }

    #[test]
    fn add_then_remove_everything_leaves_empty_cs(genp in gen_program(), stream in gen_stream()) {
        let src = render(&genp);
        let mut prog = Program::from_source(&src).expect("parses");
        let net = Arc::new(Network::compile(&prog).expect("compiles"));
        let mut adds = Vec::new();
        for (tag, (class, fields, _)) in (1u64..).zip(stream.iter()) {
            let cs = prog.symbols.intern(&format!("c{class}"));
            adds.push(Wme::new(
                cs,
                fields.iter().map(|&v| Value::Int(v as i64)).collect(),
                tag,
            ));
        }
        let mut changes: Vec<WmeChange> = adds
            .iter()
            .map(|w| WmeChange { sign: Sign::Plus, wme: w.clone() })
            .collect();
        changes.extend(adds.iter().map(|w| WmeChange { sign: Sign::Minus, wme: w.clone() }));

        let mut par = ParMatcher::new(
            net,
            PsmConfig { match_processes: 2, queues: 2, lock_scheme: LockScheme::Simple, buckets: 16 },
        );
        let cs = final_cs(&mut par, &changes);
        prop_assert!(cs.is_empty(), "retracting all WMEs must empty the conflict set: {cs:?}");
        prop_assert_eq!(par.parked_tokens(), 0);
    }
}

// ---------------------------------------------------------------------------
// The language front end fails closed (ROADMAP 6.2): whatever bytes reach
// `Program::from_source`, it answers `Ok` or a positioned `Lex`/`Parse`
// error. 2000 cases each in release (CI's Match-perf smoke job), a tenth of
// that in the debug run of tier 1.
// ---------------------------------------------------------------------------

const FRONT_END_CASES: u32 = if cfg!(debug_assertions) { 200 } else { 2000 };

/// The sources the mutations start from: the corpus, the ledger's program
/// and the three generated workloads at the ledger's sizes.
fn front_end_sources() -> Vec<String> {
    let mut sources: Vec<String> = [
        "blocks",
        "carousel",
        "fibonacci",
        "hanoi",
        "monkey",
        "triage",
    ]
    .iter()
    .map(|name| format!("programs/{name}.ops"))
    .chain(["ledger/steady.ops".to_string()])
    .map(|path| std::fs::read_to_string(&path).unwrap_or_else(|e| panic!("{path}: {e}")))
    .collect();
    sources.push(workloads::weaver::generate_source(36));
    sources.push(workloads::rubik::generate_source());
    sources.push(workloads::tourney::generate_source(
        workloads::tourney::Variant::Pathological,
    ));
    sources.push(workloads::tourney::generate_source(
        workloads::tourney::Variant::Fixed,
    ));
    sources
}

/// `from_source(src)` is `Ok`, or an error of the front end's two kinds on a
/// line the source has.
fn assert_fails_closed(src: &str) {
    let lines = src.matches('\n').count() as u32 + 1;
    match Program::from_source(src) {
        Ok(_) => {}
        Err(ops5::Ops5Error::Lex { line, col, .. } | ops5::Ops5Error::Parse { line, col, .. }) => {
            assert!(
                (1..=lines).contains(&line) && col >= 1,
                "{line}:{col} of {lines} lines"
            );
        }
        Err(other) => panic!("not a front-end error: {other}"),
    }
}

/// Text that opens, closes or continues some form of the grammar, to be
/// spliced in where a mutation lands.
const SPLICES: [&str; 16] = [
    "(",
    ")",
    "{",
    "}",
    "<<",
    ">>",
    "<",
    ">",
    "|",
    "^",
    "-->",
    "-",
    ";",
    "(compute ",
    "é",
    "\r\n",
];

proptest! {
    #![proptest_config(ProptestConfig::with_cases(FRONT_END_CASES))]

    #[test]
    fn arbitrary_bytes_fail_closed(
        bytes in proptest::collection::vec(any::<u8>(), 0..400),
        text in "\\PC*",
        soup in "[()p\\-<>=^ a-z0-9{}|;.+\n]*",
    ) {
        assert_fails_closed(&String::from_utf8_lossy(&bytes));
        assert_fails_closed(&text);
        assert_fails_closed(&soup);
    }

    #[test]
    fn mutated_programs_fail_closed(
        which in any::<usize>(),
        mutations in proptest::collection::vec((0u8..4, any::<usize>(), any::<u8>()), 1..5),
    ) {
        thread_local! {
            static SOURCES: Vec<String> = front_end_sources();
        }
        let mut bytes = SOURCES.with(|s| s[which % s.len()].clone().into_bytes());
        for (kind, at, byte) in mutations {
            let at = at % (bytes.len() + 1);
            match kind {
                0 => bytes.truncate(at),
                1 if at < bytes.len() => bytes[at] ^= byte | 1,
                2 => bytes.insert(at, byte),
                _ => {
                    let splice = SPLICES[byte as usize % SPLICES.len()];
                    bytes.splice(at..at, splice.bytes());
                }
            }
        }
        assert_fails_closed(&String::from_utf8_lossy(&bytes));
    }
}

/// Nesting 10^5 deep is refused or parsed without recursing that deep, and
/// in time linear in the input: four times the depth runs here too, and a
/// quadratic front end would not come back from it.
#[test]
fn deep_nesting_fails_closed_without_recursion() {
    for depth in [100_000, 400_000] {
        for open in ["(", "{", "<<", "<", "|", "- ", "(compute ", "(compute 1 + "] {
            let nest = open.repeat(depth);
            assert_fails_closed(&nest);
            assert_fails_closed(&format!("(p x (a ^b {nest}"));
            assert_fails_closed(&format!("(p x (a ^b <v>) --> (make a ^b {nest}"));
            assert_fails_closed(&format!("(p x (a ^b <v>) --> (bind <w> {nest}"));
        }
        // One flat expression of `depth` operators would parse by iteration
        // into a tree that deep, which nothing downstream could walk.
        let chain = format!(
            "(p x (a ^b <v>) --> (make a ^b (compute <v>{})))",
            " + 1".repeat(depth)
        );
        assert!(Program::from_source(&chain).is_err());
    }
    // What real programs nest stays legal.
    let legal = format!(
        "(p x (a ^b <v>) --> (make a ^b {}<v>{}))",
        "(compute 1 + ".repeat(40),
        ")".repeat(40)
    );
    Program::from_source(&legal).expect("forty nested computes parse");
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(FRONT_END_CASES))]

    /// One definition of a value literal (ROADMAP 6.4): a delimiter-free run
    /// is the same value as a constant in a rule and as a value on the wire,
    /// and both follow the rule as the wire always stated it. A leading `-`
    /// not followed by a digit is the parser's (negation or subtraction).
    #[test]
    fn a_literal_reads_the_same_in_a_rule_and_on_the_wire(
        run in "[0-9+\\-.eExa_]{1,12}",
        wide in "[0-9a-z+\\-.*/?!:&$%_é中]{1,8}",
    ) {
        for run in [run, wide] {
            let digit_next = run.as_bytes().get(1).is_some_and(u8::is_ascii_digit);
            if run.starts_with('-') && !digit_next {
                continue;
            }
            let mut wire_syms = ops5::SymbolTable::new();
            let on_wire = ops5::wire::parse_value(&run, &mut wire_syms);
            let stated = if let Ok(i) = run.parse::<i64>() {
                Value::Int(i)
            } else if let (true, Ok(x)) = (run.contains('.'), run.parse::<f64>()) {
                Value::Float(x)
            } else {
                Value::Sym(wire_syms.get(&run).expect("the wire interned it"))
            };
            // `Value`'s equality is variant-exact; compare floats by bits.
            let same = |a: Value, b: Value| match (a, b) {
                (Value::Float(x), Value::Float(y)) => x.to_bits() == y.to_bits(),
                _ => a == b,
            };
            prop_assert!(same(on_wire, stated), "{run}: wire {on_wire:?}, stated {stated:?}");

            let prog = Program::from_source(&format!("(make c ^f {run})"))
                .unwrap_or_else(|e| panic!("{run}: {e}"));
            let in_rule = prog.startup[0].sets[0].1;
            let named = |v: Value, syms: &ops5::SymbolTable| match v {
                Value::Sym(s) => format!("sym {}", syms.name(s)),
                other => format!("{other:?}"),
            };
            prop_assert_eq!(named(in_rule, &prog.symbols), named(on_wire, &wire_syms), "{}", run);
        }
    }
}
