//! The engine-side half of the traced pass: each layer below the server is
//! measured **from outside**, by timing calls into its public functions —
//! `Program::from_source`, `Network::compile_with`, `ChangeBatch::push`,
//! `Matcher::{submit, quiesce}`, `Engine::{run, snapshot, restore}` — on the
//! change stream the workload really produces. Nothing is added inside any
//! crate.
//!
//! Every measurement is a ratio `num / den` (time / changes, spins /
//! acquisitions, ...), so a multi-program workload aggregates by summing
//! numerators and denominators.

use crate::alloc;
use crate::conv::{self, Cmd};
use crate::direct;
use crate::inputs::Prog;
use crate::spans::Recorder;
use crate::stats::{onion_diff, Fnv};
use engine::{Engine, EngineBuilder, MatcherKind, StopReason};
use multimax::{simulate, SimConfig};
use ops5::{ChangeBatch, CsChange, MatchStats, Matcher, QuiesceReport, WmeChange};
use psm::line::LockScheme;
use psm::trace::{RunTrace, TraceMatcher};
use rete::network::Network;
use serve::Command;
use std::cell::Cell;
use std::collections::BTreeMap;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::{Arc, Mutex};
use std::time::Instant;

/// How a program's engine is driven: straight to halt (direct workloads) or
/// through the engine calls its served conversation makes.
pub enum Drive<'a> {
    ToHalt,
    Script(&'a [Cmd]),
}

/// `name → (numerator, denominator)`. A zero denominator marks a plain
/// count, which aggregates as a sum (see [`value`]).
pub type Ratios = BTreeMap<&'static str, (f64, f64)>;

pub fn add(r: &mut Ratios, name: &'static str, num: f64, den: f64) {
    let e = r.entry(name).or_insert((0.0, 0.0));
    e.0 += num;
    e.1 += den;
}

/// A ratio's value: `num / den`, or `num` itself for a plain count.
pub fn value((num, den): (f64, f64)) -> f64 {
    if den == 0.0 {
        num
    } else {
        num / den
    }
}

/// Sums `more` into `into`.
pub fn merge(into: &mut Ratios, more: &Ratios) {
    for (k, (n, d)) in more {
        add(into, k, *n, *d);
    }
}

fn stage_assert(eng: &mut Engine, body: &str) -> Result<(), String> {
    let prog = &mut eng.prog;
    let (class, fields) = ops5::wire::parse_wme_text(body, &mut prog.symbols, &prog.classes)
        .map_err(|e| e.to_string())?;
    eng.stage(class, fields)
        .map(drop)
        .map_err(|e| e.to_string())
}

/// One cycle at a time, so `each_cycle` can sample between firings;
/// `Engine::run(n)` is the same loop, so the firing sequence is unchanged.
fn run_cycles(
    eng: &mut Engine,
    limit: u64,
    each_cycle: &mut dyn FnMut(&Engine),
) -> Result<(), String> {
    for _ in 0..limit {
        let r = eng.run(1).map_err(|e| e.to_string())?;
        each_cycle(eng);
        if r.reason != StopReason::CycleLimit {
            break;
        }
    }
    Ok(())
}

/// Drives a built engine the way the workload does. For a script this is
/// `Session::dispatch` in miniature: writes stage, `RUN n` runs then
/// settles, reads do no engine work.
pub fn drive(
    eng: &mut Engine,
    prog: &Prog,
    how: &Drive,
    before_run: &mut dyn FnMut(),
    after_run: &mut dyn FnMut(),
    each_cycle: &mut dyn FnMut(&Engine),
) -> Result<(), String> {
    match how {
        Drive::ToHalt => {
            before_run();
            let r = run_cycles(eng, prog.max_cycles, each_cycle);
            after_run();
            r
        }
        Drive::Script(cmds) => {
            for cmd in *cmds {
                match conv::parse_wire(&cmd.wire)? {
                    Command::Assert(body) => stage_assert(eng, &body)?,
                    Command::Retract(tag) => eng.stage_retract(tag).map_err(|e| e.to_string())?,
                    Command::Batch(items) => {
                        for item in items {
                            match item {
                                serve::BatchItem::Assert { body, .. } => stage_assert(eng, &body)?,
                                serve::BatchItem::Retract { tag, .. } => {
                                    eng.stage_retract(tag).map_err(|e| e.to_string())?
                                }
                            }
                        }
                    }
                    Command::Run(n) => {
                        before_run();
                        let r = run_cycles(eng, n.min(conv::MAX_CYCLES_PER_RUN), each_cycle);
                        eng.settle();
                        after_run();
                        r?;
                    }
                    _ => {}
                }
            }
            Ok(())
        }
    }
}

/// What the matcher under a real run was asked to do, in order.
pub enum Event {
    Submit(ChangeBatch),
    Quiesce,
}

/// Matcher wrapper that logs every call, then delegates.
struct Recording {
    inner: Box<dyn Matcher>,
    log: Arc<Mutex<Vec<Event>>>,
}

impl Matcher for Recording {
    fn submit(&mut self, batch: &ChangeBatch) {
        self.log
            .lock()
            .expect("recorder log")
            .push(Event::Submit(batch.clone()));
        self.inner.submit(batch);
    }
    fn quiesce(&mut self) -> QuiesceReport {
        self.log.lock().expect("recorder log").push(Event::Quiesce);
        self.inner.quiesce()
    }
    fn stats(&self) -> MatchStats {
        self.inner.stats()
    }
    fn reset_stats(&mut self) {
        self.inner.reset_stats()
    }
    fn name(&self) -> &'static str {
        "recording"
    }
}

/// Matcher wrapper that clocks every call into `busy` and, when a span log
/// is given, records a span under whatever span the ledger has open
/// (`engine.run`).
struct Spanning {
    inner: Box<dyn Matcher>,
    rec: Option<Arc<Mutex<Recorder>>>,
    busy: Arc<AtomicU64>,
    req: [u32; 3],
}

impl Spanning {
    fn clocked<R>(&mut self, name: &'static str, f: impl FnOnce(&mut dyn Matcher) -> R) -> R {
        if let Some(rec) = &self.rec {
            rec.lock().expect("span log").enter(name, self.req);
        }
        let t = Instant::now();
        let r = f(self.inner.as_mut());
        // Relaxed: a statistic read after the run, on the same thread.
        self.busy
            .fetch_add(t.elapsed().as_nanos() as u64, Ordering::Relaxed);
        if let Some(rec) = &self.rec {
            rec.lock().expect("span log").exit();
        }
        r
    }
}

impl Matcher for Spanning {
    fn submit(&mut self, batch: &ChangeBatch) {
        self.clocked("matcher.submit", |m| m.submit(batch))
    }
    fn quiesce(&mut self) -> QuiesceReport {
        self.clocked("matcher.quiesce", |m| m.quiesce())
    }
    fn stats(&self) -> MatchStats {
        self.inner.stats()
    }
    fn reset_stats(&mut self) {
        self.inner.reset_stats()
    }
    fn name(&self) -> &'static str {
        "spanning"
    }
}

fn vs2(net: Arc<Network>) -> Box<dyn Matcher> {
    rete::seq::boxed_vs2(net, rete::HashMemConfig::default())
}

/// Order-independent hash of the folded conflict set, chained after every
/// quiesce. Folding is what the engine observes: col may cancel an
/// insert/remove pair inside one batch that vs2 emits, so raw deltas differ
/// while the folded state must not.
#[derive(Default)]
struct Fold {
    sum: u64,
    live: i64,
    chain: Fnv,
}

impl Fold {
    fn apply(&mut self, report: QuiesceReport) {
        for c in report.cs_changes {
            let (inst, sign) = match &c {
                CsChange::Insert(i) => (i, 1i64),
                CsChange::Remove(i) => (i, -1i64),
            };
            let mut h = Fnv::default();
            h.u64(inst.prod.0 as u64);
            for w in &inst.wmes {
                h.u64(w.timetag);
            }
            self.sum = if sign > 0 {
                self.sum.wrapping_add(h.0)
            } else {
                self.sum.wrapping_sub(h.0)
            };
            self.live += sign;
        }
        self.chain.u64(self.sum);
        self.chain.u64(self.live as u64);
    }
}

/// Result of replaying an event stream into a bare matcher.
struct Replay {
    match_ns: u64,
    fold: u64,
    stats: MatchStats,
}

/// `submit` + `quiesce` only, no engine. The clock runs across matcher
/// calls only; folding the conflict set is the ledger's work, not the
/// matcher's.
fn replay(m: &mut dyn Matcher, events: &[Event]) -> Replay {
    let mut fold = Fold::default();
    let mut ns = 0u64;
    for ev in events {
        let t = Instant::now();
        match ev {
            Event::Submit(b) => {
                m.submit(b);
                ns += t.elapsed().as_nanos() as u64;
            }
            Event::Quiesce => {
                let report = m.quiesce();
                ns += t.elapsed().as_nanos() as u64;
                fold.apply(report);
            }
        }
    }
    Replay {
        match_ns: ns,
        fold: fold.chain.0,
        stats: m.stats(),
    }
}

/// The same changes re-chunked into 64-change batches with a quiesce after
/// each: how `serve` ingestion uses the matcher.
fn rechunk(events: &[Event]) -> Vec<Event> {
    let flat: Vec<WmeChange> = events
        .iter()
        .filter_map(|e| match e {
            Event::Submit(b) => Some(b.iter().cloned()),
            Event::Quiesce => None,
        })
        .flatten()
        .collect();
    flat.chunks(64)
        .flat_map(|c| {
            [
                Event::Submit(c.iter().cloned().collect::<ChangeBatch>()),
                Event::Quiesce,
            ]
        })
        .collect()
}

/// Hash-table lines of the trace matcher (the `bench` crate's
/// `TRACE_LINES`, fixed here so the simulator guard cannot drift with it).
const TRACE_LINES: usize = 1024;

/// What the layer pass found wrong (folded states that disagree, ...).
pub type Failures = Vec<String>;

/// One pass over one program: every engine-side layer metric, as ratios.
/// `spans`, when given, receives the `Engine::run` → matcher-call spans.
pub fn measure(
    prog: &Prog,
    how: &Drive,
    nproc: usize,
    spans: Option<&Arc<Mutex<Recorder>>>,
    req: [u32; 3],
) -> Result<(Ratios, Failures), String> {
    let mut r = Ratios::new();
    let mut failures = Failures::new();
    let us = |t: Instant| t.elapsed().as_secs_f64() * 1e6;

    // ops5::parser, rete::network, engine::builder — set-up, split three ways.
    let t = Instant::now();
    let program = ops5::Program::from_source(&prog.source).map_err(|e| e.to_string())?;
    let parse_us = us(t);
    let t = Instant::now();
    let net = Network::compile_with(&program, conv::net_options()).map_err(|e| e.to_string())?;
    let compile_us = us(t);
    let joins = net.summary().joins;
    let net = Arc::new(net);
    let t = Instant::now();
    let built = conv::build_engine(prog, MatcherKind::default()).map_err(|e| e.to_string())?;
    let build_us = onion_diff(us(t), parse_us + compile_us);
    drop(built);
    add(&mut r, "ops5.parser.parse_us", parse_us, 1.0);
    add(&mut r, "rete.network.compile_us", compile_us, 1.0);
    add(&mut r, "rete.network.joins", joins as f64, 0.0);
    add(&mut r, "engine.builder.build_us", build_us.value, 1.0);

    // Record what the matcher is asked to do during a real run.
    let log: Arc<Mutex<Vec<Event>>> = Arc::default();
    let log2 = log.clone();
    let mut eng = conv::build_engine_with(prog, move |net| {
        Box::new(Recording {
            inner: vs2(net),
            log: log2,
        })
    })
    .map_err(|e| e.to_string())?;
    drive(&mut eng, prog, how, &mut || {}, &mut || {}, &mut |_| {})?;
    drop(eng);
    let events = std::mem::take(&mut *log.lock().expect("recorder log"));
    let changes: usize = events
        .iter()
        .map(|e| match e {
            Event::Submit(b) => b.len(),
            Event::Quiesce => 0,
        })
        .sum();
    let changes = changes.max(1) as f64;

    // ops5::matchapi — ChangeBatch::push over the recorded stream.
    let cloned: Vec<Vec<WmeChange>> = events
        .iter()
        .filter_map(|e| match e {
            Event::Submit(b) => Some(b.iter().cloned().collect()),
            Event::Quiesce => None,
        })
        .collect();
    let t = Instant::now();
    for group in cloned {
        let mut b = ChangeBatch::new();
        for c in group {
            b.push(c);
        }
        std::hint::black_box(&b);
    }
    add(
        &mut r,
        "ops5.matchapi.batch_build_ns_per_change",
        t.elapsed().as_nanos() as f64,
        changes,
    );

    // The five matchers on the per-firing stream.
    let psm_cfg = direct::psm_config(nproc);
    let mut folds: Vec<(&str, u64)> = Vec::new();
    let mut timed =
        |r: &mut Ratios, name: &'static str, label: &'static str, m: &mut dyn Matcher| {
            let out = replay(m, &events);
            add(r, name, out.match_ns as f64 / 1e3, changes);
            folds.push((label, out.fold));
            out.stats
        };
    timed(
        &mut r,
        "rete.seq.vs1.match_us_per_change",
        "vs1",
        rete::seq::boxed_vs1(net.clone()).as_mut(),
    );
    let s = timed(
        &mut r,
        "rete.seq.vs2.match_us_per_change",
        "vs2",
        vs2(net.clone()).as_mut(),
    );
    timed(
        &mut r,
        "rete.colmatch.match_us_per_change",
        "col",
        rete::colmatch::boxed_col(net.clone()).as_mut(),
    );
    timed(
        &mut r,
        "lispsim.matcher.match_us_per_change",
        "lisp",
        lispsim::LispEngineMatcher::boxed_with(&program, conv::net_options()).as_mut(),
    );
    {
        let mut m = psm::ParMatcher::new(net.clone(), psm_cfg);
        let (cpu0, t) = (crate::served::cpu_seconds(), Instant::now());
        timed(&mut r, "psm.matcher.match_us_per_change", "psm", &mut m);
        let (wall, cpu) = (
            t.elapsed().as_secs_f64(),
            crate::served::cpu_seconds() - cpu0,
        );
        add(&mut r, "psm.matcher.cpu_per_wall", cpu, wall);
        let c = m.contention();
        add(
            &mut r,
            "psm.queue.spins_per_acquire",
            c.queue_spins as f64,
            c.queue_acqs as f64,
        );
        add(
            &mut r,
            "psm.line.spins_per_acquire",
            (c.hash_spins_left + c.hash_spins_right) as f64,
            (c.hash_acqs_left + c.hash_acqs_right) as f64,
        );
    }
    for (label, fold) in &folds[1..] {
        if *fold != folds[0].1 {
            failures.push(format!(
                "{}: folded conflict-set history of {label} differs from vs1",
                prog.name
            ));
        }
    }

    // MatchStats of the vs2 replay: the deterministic explanation of
    // changes_per_s.vs2 (null activations on weaver, tokens and CS churn on
    // tourney).
    add(
        &mut r,
        "rete.join_activations_per_change",
        s.join_activations as f64,
        changes,
    );
    add(
        &mut r,
        "rete.null_activations_per_change",
        s.null_activations as f64,
        changes,
    );
    add(
        &mut r,
        "rete.tokens_examined_per_activation",
        (s.opp_tokens_left + s.opp_tokens_right) as f64,
        (s.opp_nonempty_left + s.opp_nonempty_right) as f64,
    );
    add(
        &mut r,
        "rete.cs_changes_per_change",
        s.cs_changes as f64,
        changes,
    );

    // Allocation pressure, counted in replays of their own so the counter
    // does not slow the timed ones.
    let counted = |r: &mut Ratios, name: &'static str, m: &mut dyn Matcher| {
        let (_, calls) = alloc::counted(|| replay(m, &events));
        add(r, name, calls as f64, changes);
    };
    counted(
        &mut r,
        "rete.seq.vs2.allocs_per_change",
        vs2(net.clone()).as_mut(),
    );
    counted(
        &mut r,
        "rete.colmatch.allocs_per_change",
        rete::colmatch::boxed_col(net.clone()).as_mut(),
    );
    counted(
        &mut r,
        "psm.matcher.allocs_per_change",
        &mut psm::ParMatcher::new(net.clone(), psm_cfg),
    );

    // Batch-64 ingestion: guards col's batch path.
    let chunked = rechunk(&events);
    let a = replay(vs2(net.clone()).as_mut(), &chunked);
    let b = replay(rete::colmatch::boxed_col(net.clone()).as_mut(), &chunked);
    add(
        &mut r,
        "rete.seq.vs2.match_us_per_change_b64",
        a.match_ns as f64 / 1e3,
        changes,
    );
    add(
        &mut r,
        "rete.colmatch.match_us_per_change_b64",
        b.match_ns as f64 / 1e3,
        changes,
    );
    if a.fold != b.fold {
        failures.push(format!(
            "{}: vs2 and col disagree on the folded conflict set at batch-64",
            prog.name
        ));
    }

    // Paper-fidelity guard: trace matcher + Multimax simulator.
    let sink: Arc<Mutex<RunTrace>> = Arc::default();
    replay(
        &mut TraceMatcher::new(net.clone(), TRACE_LINES, sink.clone()),
        &events,
    );
    let trace = std::mem::take(&mut *sink.lock().expect("trace sink"));
    add(
        &mut r,
        "psm.trace.tasks_per_change",
        trace.total_tasks() as f64,
        changes,
    );
    let uni = simulate(&trace, &SimConfig::new(1, 1, LockScheme::Simple));
    let p13 = simulate(&trace, &SimConfig::new(13, 8, LockScheme::Simple));
    add(
        &mut r,
        "multimax.sim.speedup_p13",
        uni.match_time as f64,
        p13.match_time as f64,
    );

    // engine::interp — Engine::run with every matcher call clocked (and
    // spanned, when a span log is given): the engine's self time is the run
    // minus its matcher children.
    let busy = Arc::new(AtomicU64::new(0));
    let with_spans = |name: &'static str, enter: bool| {
        if let Some(s) = spans {
            let mut g = s.lock().expect("span log");
            if enter {
                g.enter(name, req);
            } else {
                g.exit();
            }
        }
    };
    with_spans("engine.build", true);
    let built = {
        let (busy, rec) = (busy.clone(), spans.cloned());
        conv::build_engine_with(prog, move |net| {
            Box::new(Spanning {
                inner: vs2(net),
                rec,
                busy,
                req,
            })
        })
    };
    with_spans("engine.build", false);
    let mut eng = built.map_err(|e| e.to_string())?;
    // Matcher time spent loading the initial working memory belongs to the
    // build, not to `Engine::run`.
    busy.store(0, Ordering::Relaxed);
    let (t0, run_ns) = (Cell::new(Instant::now()), Cell::new(0u64));
    let cycles_before = eng.cycles();
    drive(
        &mut eng,
        prog,
        how,
        &mut || {
            with_spans("engine.run", true);
            t0.set(Instant::now());
        },
        &mut || {
            run_ns.set(run_ns.get() + t0.get().elapsed().as_nanos() as u64);
            with_spans("engine.run", false);
        },
        &mut |_| {},
    )?;
    let (run_ns, match_ns) = (run_ns.get(), busy.load(Ordering::Relaxed));
    let cycles = (eng.cycles() - cycles_before).max(1) as f64;
    add(
        &mut r,
        "engine.interp.match_share",
        match_ns as f64,
        run_ns as f64,
    );
    add(
        &mut r,
        "engine.interp.self_us_per_cycle",
        run_ns.saturating_sub(match_ns) as f64 / 1e3,
        cycles,
    );

    // engine::state — snapshot and restore at end of run.
    let t = Instant::now();
    let text = eng.snapshot().to_text();
    add(&mut r, "engine.state.snapshot_us", us(t), 1.0);
    add(
        &mut r,
        "engine.state.snapshot_bytes",
        text.len() as f64,
        1.0,
    );
    drop(eng);
    let mut fresh = EngineBuilder::from_source(&prog.source)
        .and_then(|b| b.network_options(conv::net_options()).vs2().build())
        .map_err(|e| e.to_string())?;
    let t = Instant::now();
    let restored = engine::Snapshot::parse(&text).and_then(|snap| fresh.restore(&snap));
    add(&mut r, "engine.state.restore_us", us(t), 1.0);
    if let Err(e) = restored {
        failures.push(format!("{}: snapshot does not restore: {e}", prog.name));
    }

    // The engine's own resolve/act brackets, read from its obs registry
    // (traced pass only), and the conflict-set length sampled per cycle.
    let mut eng = conv::build_engine_cfg(prog, |b| b.vs2().obs(obs::ObsConfig::enabled()))
        .map_err(|e| e.to_string())?;
    let mut peak = 0usize;
    drive(&mut eng, prog, how, &mut || {}, &mut || {}, &mut |e| {
        peak = peak.max(e.conflict_set().len());
    })?;
    add(&mut r, "engine.cs.peak_len", peak as f64, 1.0);
    let snap = eng.obs_registry().map(|reg| reg.snapshot());
    for (hist, name) in [
        ("engine_resolve_ns", "engine.interp.resolve_ns_per_cycle"),
        ("engine_act_ns", "engine.interp.act_ns_per_cycle"),
    ] {
        let found = snap.as_ref().and_then(|s| {
            s.histograms()
                .find(|(n, _)| *n == hist)
                .map(|(_, h)| (h.sum, h.count))
        });
        match found {
            Some((sum, count)) => add(&mut r, name, sum as f64, count as f64),
            None => failures.push(format!("{}: obs registry has no {hist}", prog.name)),
        }
    }
    Ok((r, failures))
}
