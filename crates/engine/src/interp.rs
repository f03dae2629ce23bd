//! The recognize-act interpreter — the paper's control process.

use crate::compiled::CompiledProgram;
use crate::cs::ConflictSet;
use crate::rhs::{self, RhsEffect};
use crate::wm::WorkingMemory;
use ops5::{
    ChangeBatch, Instantiation, Matcher, Ops5Error, PhaseNanos, ProdId, Program, Result, Sign,
    SymbolId, Value, WmeChange, WmeRef,
};
use rete::network::Network;
use std::sync::Arc;
use std::time::Instant;

/// Why a run stopped.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum StopReason {
    /// A `halt` action executed.
    Halt,
    /// No satisfied, unfired production remained.
    Quiescent,
    /// The caller's cycle limit was reached.
    CycleLimit,
    /// The engine's lifetime cycle budget ([`EngineLimits::max_cycles`])
    /// was exhausted.
    Budget,
}

/// Resource limits enforced by the engine, for hosts that multiplex many
/// engines (the serve layer's per-session limits).
///
/// Both limits default to unlimited. `max_wm` bounds the number of live
/// WMEs accepted through the checked ingestion paths ([`Engine::make_wme`],
/// [`Engine::stage`]); RHS-produced elements are not limited, so a firing
/// never fails halfway. `max_cycles` is a lifetime budget across all runs:
/// once `cycles()` reaches it, [`Engine::run`] stops with
/// [`StopReason::Budget`] and [`Engine::step`] refuses to fire.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct EngineLimits {
    /// Maximum live WMEs accepted through checked ingestion.
    pub max_wm: Option<usize>,
    /// Lifetime recognize-act cycle budget.
    pub max_cycles: Option<u64>,
}

/// Summary of a run.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct RunResult {
    pub cycles: u64,
    pub reason: StopReason,
}

/// The OPS5 interpreter: working memory + conflict set + a match engine,
/// instantiated from a shared [`CompiledProgram`].
pub struct Engine {
    /// This engine's view of the program: its own symbol and class tables
    /// (cloned from the compiled program's, then extended as the engine
    /// interns symbols and auto-extends classes) over the shared
    /// productions.
    pub prog: Program,
    /// The shared immutable half: network, RHS code, specificities.
    compiled: Arc<CompiledProgram>,
    pub(crate) matcher: Box<dyn Matcher>,
    pub(crate) wm: WorkingMemory,
    pub(crate) cs: ConflictSet,
    pub(crate) halted: bool,
    pub(crate) cycles: u64,
    pub(crate) fired_log: Vec<(ProdId, Vec<u64>)>,
    pub(crate) output: Vec<String>,
    pub(crate) line: String,
    /// Echo `write` output to stdout as it is produced.
    pub echo_writes: bool,
    /// Keep the per-cycle fired log (disable for long benchmark runs).
    pub keep_fired_log: bool,
    /// Resource limits (see [`EngineLimits`]); unlimited by default.
    pub limits: EngineLimits,
    /// Changes staged by [`stage`](Self::stage)/[`stage_retract`]
    /// (Self::stage_retract) awaiting the next flush.
    pub(crate) staged: ChangeBatch,
    /// The durability change log (see [`crate::state`]); `None` (the
    /// default) costs one branch per mutation and zero allocation.
    pub(crate) journal: Option<crate::state::ChangeLog>,
    /// Observability instruments; `None` (the default) costs one branch per
    /// step and zero allocation.
    obs: Option<EngineObs>,
}

/// The engine's slice of the observability layer: a per-engine registry
/// (also handed to the matcher) plus per-cycle phase-latency histograms.
struct EngineObs {
    registry: Arc<obs::Registry>,
    match_ns: Arc<obs::Histogram>,
    /// The conflict-set fold's share of `match_ns`, one sample per cycle.
    fold_ns: Arc<obs::Histogram>,
    resolve_ns: Arc<obs::Histogram>,
    /// Chain walks (key builds and equal-key fallbacks) and candidates
    /// compared by conflict resolution, one sample per cycle.
    cr_chain_walks: Arc<obs::Histogram>,
    cr_candidates: Arc<obs::Histogram>,
    act_ns: Arc<obs::Histogram>,
    firings: Arc<obs::Counter>,
    last_phase: Option<PhaseNanos>,
}

impl EngineObs {
    fn observe(&mut self, p: PhaseNanos) {
        self.match_ns.record(p.match_ns);
        self.resolve_ns.record(p.resolve_ns);
        self.act_ns.record(p.act_ns);
        self.last_phase = Some(p);
    }
}

impl Engine {
    /// The one low-level constructor: instantiate an engine from the shared
    /// compiled program around an already-built matcher. The per-engine
    /// part is exactly a clone of the parse-time symbol and class tables
    /// (the productions behind `prog` are shared). Crate-internal — every
    /// caller goes through [`crate::builder::EngineBuilder`], the single
    /// public construction path.
    pub(crate) fn with_matcher(
        compiled: Arc<CompiledProgram>,
        matcher: Box<dyn Matcher>,
    ) -> Engine {
        Engine {
            prog: compiled.program().clone(),
            compiled,
            matcher,
            wm: WorkingMemory::new(),
            cs: ConflictSet::new(),
            halted: false,
            cycles: 0,
            fired_log: Vec::new(),
            output: Vec::new(),
            line: String::new(),
            echo_writes: false,
            keep_fired_log: true,
            limits: EngineLimits::default(),
            staged: ChangeBatch::new(),
            journal: None,
            obs: None,
        }
    }

    /// The shared compiled program this engine was instantiated from.
    pub fn compiled(&self) -> &Arc<CompiledProgram> {
        &self.compiled
    }

    pub fn network(&self) -> &Arc<Network> {
        self.compiled.network()
    }

    /// Turn on the observability layer: creates this engine's metrics
    /// registry, hands it to the matcher (which starts per-node profiling),
    /// and begins recording per-cycle phase latencies. Idempotent; a
    /// disabled [`obs::ObsConfig`] is a no-op, keeping the zero-overhead
    /// default path.
    pub fn enable_obs(&mut self, cfg: obs::ObsConfig) {
        if !cfg.enabled || self.obs.is_some() {
            return;
        }
        let registry = Arc::new(obs::Registry::new());
        self.matcher.enable_obs(&registry);
        self.obs = Some(EngineObs {
            match_ns: registry.histogram("engine_match_ns", vec![]),
            fold_ns: registry.histogram("engine_fold_ns", vec![]),
            resolve_ns: registry.histogram("engine_resolve_ns", vec![]),
            cr_chain_walks: registry.histogram("engine_cr_chain_walks", vec![]),
            cr_candidates: registry.histogram("engine_cr_candidates", vec![]),
            act_ns: registry.histogram("engine_act_ns", vec![]),
            firings: registry.counter("engine_firings_total", vec![]),
            registry,
            last_phase: None,
        });
    }

    /// The engine's metrics registry, if observability is enabled.
    pub fn obs_registry(&self) -> Option<&Arc<obs::Registry>> {
        self.obs.as_ref().map(|o| &o.registry)
    }

    /// The matcher's per-join-node activation/scan profile, if profiling.
    pub fn node_profile(&self) -> Option<Arc<obs::NodeProfile>> {
        self.matcher.node_profile()
    }

    /// Phase timings of the most recent [`step`](Self::step), if profiling.
    pub fn last_phase(&self) -> Option<PhaseNanos> {
        self.obs.as_ref().and_then(|o| o.last_phase)
    }

    pub fn matcher(&self) -> &dyn Matcher {
        self.matcher.as_ref()
    }

    pub fn match_stats(&self) -> ops5::MatchStats {
        self.matcher.stats()
    }

    pub fn reset_match_stats(&mut self) {
        self.matcher.reset_stats();
    }

    pub fn wm(&self) -> &WorkingMemory {
        &self.wm
    }

    pub fn conflict_set(&self) -> &ConflictSet {
        &self.cs
    }

    pub fn cycles(&self) -> u64 {
        self.cycles
    }

    pub fn fired_log(&self) -> &[(ProdId, Vec<u64>)] {
        &self.fired_log
    }

    /// Captured `write` output, one string per line.
    pub fn output(&self) -> &[String] {
        &self.output
    }

    /// Interns a symbol and wraps it as a value.
    pub fn sym(&mut self, name: &str) -> Value {
        Value::Sym(self.prog.symbols.intern(name))
    }

    fn check_wm_limit(&self) -> Result<()> {
        if let Some(max) = self.limits.max_wm {
            if self.wm.len() >= max {
                return Err(Ops5Error::Runtime(format!(
                    "working-memory limit reached ({max} elements)"
                )));
            }
        }
        Ok(())
    }

    /// Creates a WME from attribute-value pairs and feeds it to the matcher
    /// (the OPS5 `make` top-level / startup form).
    pub fn make_wme(&mut self, class: &str, sets: &[(&str, Value)]) -> Result<WmeRef> {
        self.check_wm_limit()?;
        let class_sym = self.prog.symbols.intern(class);
        let mut resolved = Vec::with_capacity(sets.len());
        for (attr, v) in sets {
            let a = self.prog.symbols.intern(attr);
            let f = self.prog.classes.resolve(class_sym, a)?;
            resolved.push((f, *v));
        }
        let arity = self.prog.classes.arity(class_sym) as usize;
        let mut fields = vec![Value::NIL; arity];
        for (f, v) in resolved {
            let f = f as usize;
            if f >= fields.len() {
                fields.resize(f + 1, Value::NIL);
            }
            fields[f] = v;
        }
        Ok(self.insert(class_sym, fields))
    }

    /// Loads the program's top-level `(make ...)` startup forms into
    /// working memory, in source order. Call once before `run`.
    pub fn load_startup(&mut self) -> Result<()> {
        let startup = self.prog.startup.clone();
        for m in &startup {
            let arity = self.prog.classes.arity(m.class) as usize;
            let mut fields = vec![Value::NIL; arity];
            for (f, v) in &m.sets {
                let f = *f as usize;
                if f >= fields.len() {
                    fields.resize(f + 1, Value::NIL);
                }
                fields[f] = *v;
            }
            self.insert(m.class, fields);
        }
        Ok(())
    }

    /// Creates a WME from pre-resolved field values.
    pub fn insert(&mut self, class: SymbolId, fields: Vec<Value>) -> WmeRef {
        let w = self.wm.make(class, fields);
        self.matcher.submit(&ChangeBatch::single(WmeChange {
            sign: Sign::Plus,
            wme: w.clone(),
        }));
        w
    }

    /// Removes a live WME.
    pub fn retract(&mut self, wme: &WmeRef) -> Result<()> {
        match self.wm.remove(wme.timetag) {
            Some(w) => {
                self.matcher.submit(&ChangeBatch::single(WmeChange {
                    sign: Sign::Minus,
                    wme: w,
                }));
                Ok(())
            }
            None => Err(Ops5Error::Runtime(format!(
                "remove of non-live wme (timetag {})",
                wme.timetag
            ))),
        }
    }

    /// Stages a WME: it enters working memory (with a timetag) immediately,
    /// but the matcher does not see it until the next flush — the serving
    /// layer's ingestion path, which coalesces a session's pending changes
    /// into one [`ChangeBatch`] per run. Checked against
    /// [`EngineLimits::max_wm`].
    pub fn stage(&mut self, class: SymbolId, fields: Vec<Value>) -> Result<WmeRef> {
        self.check_wm_limit()?;
        let w = self.wm.make(class, fields);
        self.staged.add(w.clone());
        if let Some(j) = self.journal.as_mut() {
            j.push(crate::state::LogRecord::stage_of(&w, &self.prog.symbols));
        }
        Ok(w)
    }

    /// Stages the retraction of a live WME by timetag. A retract of an
    /// element still staged annihilates inside the pending batch and the
    /// matcher never sees either change.
    pub fn stage_retract(&mut self, timetag: u64) -> Result<()> {
        match self.wm.remove(timetag) {
            Some(w) => {
                self.staged.delete(w);
                if let Some(j) = self.journal.as_mut() {
                    j.push(crate::state::LogRecord::StageRetract { tag: timetag });
                }
                Ok(())
            }
            None => Err(Ops5Error::Runtime(format!(
                "remove of non-live wme (timetag {timetag})"
            ))),
        }
    }

    /// Changes currently staged and not yet flushed to the matcher.
    pub fn staged_len(&self) -> usize {
        self.staged.len()
    }

    /// Ships the staged batch to the matcher (one `submit` for everything
    /// pending). Returns the number of changes submitted. Called
    /// automatically by [`step`](Self::step) and [`settle`](Self::settle).
    pub fn flush_staged(&mut self) -> usize {
        if self.staged.is_empty() {
            // An annihilated-to-empty batch still has conjugate pairs to
            // account for; drop them silently (nothing to match).
            self.staged.clear();
            return 0;
        }
        let n = self.staged.len();
        self.matcher.submit(&self.staged);
        self.staged.clear();
        n
    }

    /// Completes the match phase *without firing anything*: flushes staged
    /// changes, blocks for matcher quiescence, and folds the conflict-set
    /// deltas in. The non-blocking observation API — after `settle`,
    /// [`conflict_set`](Self::conflict_set) reflects every submitted change
    /// while working memory and the cycle count stay untouched.
    ///
    /// Returns the match statistics accumulated since the previous quiesce.
    pub fn settle(&mut self) -> ops5::MatchStats {
        let t0 = self.obs.as_ref().map(|_| Instant::now());
        let stats_delta = self.match_phase();
        if let (Some(t0), Some(o)) = (t0, self.obs.as_mut()) {
            o.match_ns.record(t0.elapsed().as_nanos() as u64);
        }
        stats_delta
    }

    /// The match phase every cycle starts with: ship what is staged, wait
    /// for the matcher, fold its conflict-set deltas in. With observability
    /// on, the fold is clocked on its own (`engine_fold_ns`), so the phase's
    /// `engine_match_ns` splits into waiting for the matcher and folding.
    fn match_phase(&mut self) -> ops5::MatchStats {
        self.flush_staged();
        let report = self.matcher.quiesce();
        let t_fold = self.obs.as_ref().map(|_| Instant::now());
        self.cs.apply_all(report.cs_changes);
        if let (Some(t), Some(o)) = (t_fold, self.obs.as_ref()) {
            o.fold_ns.record(t.elapsed().as_nanos() as u64);
        }
        report.stats_delta
    }

    /// True once the lifetime cycle budget is exhausted.
    pub fn budget_exhausted(&self) -> bool {
        self.limits.max_cycles.is_some_and(|m| self.cycles >= m)
    }

    /// Match + conflict-resolve + fire one production. Returns the fired
    /// instantiation, or `None` at quiescence (or once halted / out of
    /// cycle budget).
    pub fn step(&mut self) -> Result<Option<Instantiation>> {
        if self.halted || self.budget_exhausted() {
            return Ok(None);
        }
        self.cycle()
    }

    /// The recognize-act cycle behind [`step`](Self::step) and
    /// [`run`](Self::run): one match phase, then the winner of the conflict
    /// set's [`select`](ConflictSet::select) fires on this thread and its
    /// matcher changes ship as one batch. The paper's act phase: one firing
    /// per cycle, on the control process (§3.1). Returns the firing, or
    /// `None` at quiescence.
    fn cycle(&mut self) -> Result<Option<Instantiation>> {
        // Phase clock marks (all `None` unless observability is enabled).
        let t_start = self.obs.as_ref().map(|_| Instant::now());
        self.match_phase();
        let t_match = t_start.map(|_| Instant::now());
        let resolved_before = self.cs.resolve_stats();
        let winner = self
            .cs
            .select(self.prog.strategy, &self.compiled.specificity)
            .cloned();
        let t_resolve = t_start.map(|_| Instant::now());

        // One firing ships one batch: RHS effects reach working memory as
        // they are computed and the matcher in a single `submit`. A
        // `modify` is still two changes (its add carries a new timetag, so
        // the pair never annihilates; only a `make` the same RHS `remove`s
        // does). What the batch buys: the matcher resolves each class's
        // patterns once per cycle, and it sees the cycle's changes as a
        // *set* whose order is its own (`Matcher::submit`) — vs1/vs2
        // retract before they assert, so what an early action would derive
        // and a later one retract is not built.
        let mut batch = ChangeBatch::new();
        let outcome = match &winner {
            Some(w) => {
                // The one chain walk of this firing: refraction wants the
                // token, the fired log and the RHS want to index its WMEs.
                let wmes = w.wmes.wme_vec();
                self.record_firing(w, &wmes);
                self.fire(w.prod, &wmes, &mut batch)
                    .map(|halted| self.halted |= halted)
            }
            None => Ok(()),
        };
        // Working memory already reflects every effect applied before an
        // error, so the batch still goes out even on the error path.
        if !batch.is_empty() {
            self.matcher.submit(&batch);
        }
        if let (Some(o), Some(t0), Some(t1), Some(t2)) =
            (self.obs.as_mut(), t_start, t_match, t_resolve)
        {
            o.observe(PhaseNanos {
                match_ns: (t1 - t0).as_nanos() as u64,
                resolve_ns: (t2 - t1).as_nanos() as u64,
                act_ns: t2.elapsed().as_nanos() as u64,
            });
            if winner.is_some() {
                o.firings.add(1);
            }
            let resolved = self.cs.resolve_stats();
            o.cr_chain_walks
                .record(resolved.chain_walks - resolved_before.chain_walks);
            o.cr_candidates
                .record(resolved.candidates - resolved_before.candidates);
        }
        outcome?;
        Ok(winner)
    }

    /// Refraction-marks, counts, logs, and journals one firing — everything
    /// about a firing except its effects.
    fn record_firing(&mut self, w: &Instantiation, wmes: &[WmeRef]) {
        self.cs.mark_fired(w);
        self.cycles += 1;
        if self.keep_fired_log {
            self.fired_log
                .push((w.prod, wmes.iter().map(|w| w.timetag).collect()));
        }
        if let Some(j) = self.journal.as_mut() {
            j.push(crate::state::LogRecord::Fire {
                prod: self.prog.prod_name(w.prod).to_string(),
                tags: wmes.iter().map(|w| w.timetag).collect(),
            });
        }
    }

    /// Interprets one firing's RHS. Each effect is applied as it is
    /// computed: working memory and the output line at once, the matcher's
    /// half into `batch`. Returns whether the RHS halted.
    fn fire(&mut self, prod: ProdId, wmes: &[WmeRef], batch: &mut ChangeBatch) -> Result<bool> {
        let code = &self.compiled.rhs[prod.index()];
        let wm = &mut self.wm;
        let line = &mut self.line;
        let output = &mut self.output;
        let echo = self.echo_writes;
        let mut err: Option<Ops5Error> = None;
        let halted = rhs::execute(code, wmes, &mut self.prog.symbols, |effect| {
            if err.is_some() {
                return;
            }
            match effect {
                RhsEffect::Make { class, fields } => batch.add(wm.make(class, fields)),
                RhsEffect::Remove { wme } => match wm.remove(wme.timetag) {
                    Some(w) => batch.delete(w),
                    None => {
                        err = Some(Ops5Error::Runtime(format!(
                            "RHS removed wme {} twice",
                            wme.timetag
                        )))
                    }
                },
                RhsEffect::Write(s) => {
                    if !line.is_empty() {
                        line.push(' ');
                    }
                    line.push_str(&s);
                }
                RhsEffect::Crlf => {
                    if echo {
                        println!("{line}");
                    }
                    output.push(std::mem::take(line));
                }
            }
        })?;
        err.map_or(Ok(halted), Err)
    }

    /// Runs until halt, quiescence, or the cycle limit.
    pub fn run(&mut self, max_cycles: u64) -> Result<RunResult> {
        let start = self.cycles;
        let reason = loop {
            if self.halted {
                break StopReason::Halt;
            }
            if self.budget_exhausted() {
                break StopReason::Budget;
            }
            let ran = self.cycles - start;
            if ran >= max_cycles {
                break StopReason::CycleLimit;
            }
            if self.cycle()?.is_none() {
                break StopReason::Quiescent;
            }
        };
        self.finish_output();
        Ok(RunResult {
            cycles: self.cycles - start,
            reason,
        })
    }

    fn finish_output(&mut self) {
        if !self.line.is_empty() {
            if self.echo_writes {
                println!("{}", self.line);
            }
            self.output.push(std::mem::take(&mut self.line));
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use ops5::Value;

    use crate::builder::EngineBuilder;

    fn engines(src: &str) -> Vec<Engine> {
        vec![
            EngineBuilder::from_source(src)
                .unwrap()
                .vs1()
                .build()
                .unwrap(),
            EngineBuilder::from_source(src)
                .unwrap()
                .vs2()
                .build()
                .unwrap(),
        ]
    }

    #[test]
    fn figure_2_1_scenario() {
        // The paper's sample production, end to end.
        let src = "(p find-colored-block
                     (goal ^type find-block ^color <c>)
                     (block ^id <i> ^color <c> ^selected no)
                     -->
                     (modify 2 ^selected yes))";
        for mut e in engines(src) {
            let red = e.sym("red");
            let blue = e.sym("blue");
            let no = e.sym("no");
            let fb = e.sym("find-block");
            e.make_wme("goal", &[("type", fb), ("color", red)]).unwrap();
            e.make_wme(
                "block",
                &[("id", Value::Int(1)), ("color", blue), ("selected", no)],
            )
            .unwrap();
            e.make_wme(
                "block",
                &[("id", Value::Int(2)), ("color", red), ("selected", no)],
            )
            .unwrap();
            let r = e.run(10).unwrap();
            assert_eq!(r.cycles, 1, "exactly one block matches");
            assert_eq!(r.reason, StopReason::Quiescent);
            // Block 2 is now selected=yes.
            let block = e.prog.symbols.get("block").unwrap();
            let yes = e.prog.symbols.get("yes").unwrap();
            let blocks = e.wm().of_class(block);
            let selected: Vec<_> = blocks
                .iter()
                .filter(|w| w.field(2) == Value::Sym(yes))
                .collect();
            assert_eq!(selected.len(), 1);
            assert_eq!(selected[0].field(0), Value::Int(2));
        }
    }

    #[test]
    fn startup_forms_load() {
        let src = "(literalize c n limit)
                   (make c ^n 0 ^limit 3)
                   (p count (c ^n <n> ^limit > <n>) --> (modify 1 ^n (compute <n> + 1)))
                   (p done (c ^n <n> ^limit <n>) --> (halt))";
        for mut e in engines(src) {
            e.load_startup().unwrap();
            let r = e.run(50).unwrap();
            assert_eq!(r.reason, StopReason::Halt);
            assert_eq!(r.cycles, 4);
        }
    }

    #[test]
    fn counter_loop_halts() {
        let src = "(p count
                     (counter ^n <n> ^limit <l>)
                     (counter ^n < <l>)
                     -->
                     (modify 1 ^n (compute <n> + 1)))
                   (p done
                     (counter ^n <n> ^limit <n>)
                     -->
                     (write finished <n> (crlf))
                     (halt))";
        for mut e in engines(src) {
            e.make_wme("counter", &[("n", Value::Int(0)), ("limit", Value::Int(5))])
                .unwrap();
            let r = e.run(100).unwrap();
            assert_eq!(r.reason, StopReason::Halt);
            assert_eq!(r.cycles, 6, "five increments plus the halt firing");
            assert_eq!(e.output(), &["finished 5".to_string()]);
        }
    }

    #[test]
    fn refraction_prevents_infinite_refire() {
        // A production that does not change WM fires once, not forever.
        let src = "(p noop (a ^x 1) --> (write hi (crlf)))";
        for mut e in engines(src) {
            e.make_wme("a", &[("x", Value::Int(1))]).unwrap();
            let r = e.run(50).unwrap();
            assert_eq!(r.cycles, 1);
            assert_eq!(r.reason, StopReason::Quiescent);
        }
    }

    #[test]
    fn recency_orders_firing() {
        let src = "(p rule (item ^v <v>) --> (write <v>) (remove 1))";
        for mut e in engines(src) {
            for i in 0..3 {
                e.make_wme("item", &[("v", Value::Int(i))]).unwrap();
            }
            let r = e.run(10).unwrap();
            assert_eq!(r.cycles, 3);
            // LEX recency: most recent first.
            assert_eq!(e.output(), &["2 1 0".to_string()]);
        }
    }

    #[test]
    fn cycle_limit_respected() {
        let src = "(p spin (a ^x <v>) --> (modify 1 ^x (compute <v> + 1)))";
        for mut e in engines(src) {
            e.make_wme("a", &[("x", Value::Int(0))]).unwrap();
            let r = e.run(7).unwrap();
            assert_eq!(r.reason, StopReason::CycleLimit);
            assert_eq!(r.cycles, 7);
        }
    }

    #[test]
    fn negated_ce_program() {
        // Fire only while no inhibitor exists; the firing creates the
        // inhibitor, so it fires exactly once.
        let src = "(p once (a ^x <v>) - (done ^for <v>) --> (make done ^for <v>))";
        for mut e in engines(src) {
            e.make_wme("a", &[("x", Value::Int(1))]).unwrap();
            e.make_wme("a", &[("x", Value::Int(2))]).unwrap();
            let r = e.run(10).unwrap();
            assert_eq!(r.cycles, 2, "once per distinct value");
        }
    }

    #[test]
    fn retract_api() {
        let src = "(p q (a ^x 1) --> (write fired (crlf)))";
        for mut e in engines(src) {
            let w = e.make_wme("a", &[("x", Value::Int(1))]).unwrap();
            e.retract(&w).unwrap();
            let r = e.run(10).unwrap();
            assert_eq!(r.cycles, 0, "retracted before it could fire");
            assert!(e.retract(&w).is_err(), "double retract errors");
        }
    }

    #[test]
    fn staged_changes_invisible_until_settle() {
        let src = "(p q (a ^x 1) --> (write fired (crlf)))";
        for mut e in engines(src) {
            let a = e.prog.symbols.intern("a");
            let x1 = vec![Value::Int(1)];
            e.stage(a, x1.clone()).unwrap();
            assert_eq!(e.staged_len(), 1);
            // The WME is live in WM but the conflict set is stale until a
            // settle (or step) flushes the staged batch.
            assert_eq!(e.wm().len(), 1);
            assert_eq!(e.conflict_set().len(), 0);
            e.settle();
            assert_eq!(e.staged_len(), 0);
            assert_eq!(e.conflict_set().len(), 1);
            assert_eq!(e.cycles(), 0, "settle must not fire");
            // A staged add + retract of the same element annihilates; the
            // conflict set still empties because the first add went through.
            let w = e.stage(a, x1.clone()).unwrap();
            e.stage_retract(w.timetag).unwrap();
            assert_eq!(e.staged_len(), 0);
            let r = e.run(10).unwrap();
            assert_eq!(r.cycles, 1, "only the settled element fires");
        }
    }

    #[test]
    fn wm_limit_enforced_on_checked_ingestion() {
        let src = "(p q (a ^x 1) --> (halt))";
        for mut e in engines(src) {
            e.limits.max_wm = Some(2);
            e.make_wme("a", &[("x", Value::Int(0))]).unwrap();
            let a = e.prog.symbols.intern("a");
            e.stage(a, vec![Value::Int(0)]).unwrap();
            assert!(e.make_wme("a", &[("x", Value::Int(0))]).is_err());
            assert!(e.stage(a, vec![Value::Int(0)]).is_err());
        }
    }

    #[test]
    fn cycle_budget_stops_run() {
        let src = "(p spin (a ^x <v>) --> (modify 1 ^x (compute <v> + 1)))";
        for mut e in engines(src) {
            e.limits.max_cycles = Some(3);
            e.make_wme("a", &[("x", Value::Int(0))]).unwrap();
            let r = e.run(100).unwrap();
            assert_eq!(r.reason, StopReason::Budget);
            assert_eq!(r.cycles, 3);
            assert!(e.budget_exhausted());
            assert!(e.step().unwrap().is_none(), "budget blocks further steps");
            // Raising the budget resumes the engine where it stopped.
            e.limits.max_cycles = Some(5);
            let r = e.run(100).unwrap();
            assert_eq!(r.cycles, 2);
            assert_eq!(r.reason, StopReason::Budget);
        }
    }

    #[test]
    fn mea_strategy_first_ce_recency() {
        let src = "(strategy mea)
                   (p pick (goal ^id <g>) (item ^v <v>) --> (write <g> <v>) (remove 2))";
        for mut e in engines(src) {
            e.make_wme("goal", &[("id", Value::Int(1))]).unwrap();
            e.make_wme("item", &[("v", Value::Int(10))]).unwrap();
            e.make_wme("goal", &[("id", Value::Int(2))]).unwrap();
            let r = e.run(10).unwrap();
            // MEA: goal 2 (more recent first CE) wins both firings.
            assert_eq!(r.cycles, 1);
            assert_eq!(e.output()[0], "2 10");
        }
    }

    /// The resolve counters on vs2, per cycle, pinned for two corpus
    /// programs: `triage` (LEX, a backlog of tickets that each wait several
    /// cycles, so 30 keys serve 384 candidates) and `hanoi` (MEA, whose
    /// instantiations tie on their keys). One sample per select, the one at
    /// quiescence included, and the samples sum to the conflict set's own
    /// tally.
    #[test]
    fn resolve_counters_per_cycle() {
        // (program, cycles, selects, chain walks, candidates)
        for (name, cycles, selects, walks, candidates) in
            [("triage", 30, 31, 30, 384), ("hanoi", 23, 23, 48, 74)]
        {
            let path = format!("{}/../../programs/{name}.ops", env!("CARGO_MANIFEST_DIR"));
            let src = std::fs::read_to_string(path).unwrap();
            let mut e = EngineBuilder::from_source(&src)
                .unwrap()
                .vs2()
                .obs(obs::ObsConfig::enabled())
                .build()
                .unwrap();
            e.load_startup().unwrap();
            assert_eq!(e.run(100_000).unwrap().cycles, cycles, "{name}");
            let snap = e.obs_registry().unwrap().snapshot();
            let samples = |metric: &str| {
                let (_, h) = snap.histograms().find(|(m, _)| *m == metric).unwrap();
                (h.count, h.sum)
            };
            assert_eq!(samples("engine_cr_chain_walks"), (selects, walks), "{name}");
            assert_eq!(
                samples("engine_cr_candidates"),
                (selects, candidates),
                "{name}"
            );
            let tally = e.conflict_set().resolve_stats();
            assert_eq!((tally.chain_walks, tally.candidates), (walks, candidates));
        }
    }
}
