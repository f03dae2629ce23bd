//! Engine construction: one builder for every matcher in the reproduction.
//!
//! The paper compares four match engines over the same control process
//! (lisp interpreter baseline, vs1 linear memories, vs2 hash memories, and
//! the parallel PSM-E matcher); [`EngineBuilder`] is the single construction
//! path that picks between them. Building is two steps — compile the
//! program into an immutable [`CompiledProgram`] (skipped when the builder
//! was handed one), then instantiate an engine from it:
//!
//! ```
//! use engine::{EngineBuilder, MatcherKind};
//! use ops5::Program;
//!
//! let src = "(p hi (a ^x 1) --> (write hi (crlf)))";
//! let mut eng = EngineBuilder::from_source(src).unwrap()
//!     .matcher(MatcherKind::Vs2(rete::HashMemConfig::default()))
//!     .build()
//!     .unwrap();
//! eng.make_wme("a", &[("x", ops5::Value::Int(1))]).unwrap();
//! let r = eng.run(10).unwrap();
//! assert_eq!(r.cycles, 1);
//! ```

use crate::compiled::CompiledProgram;
use crate::interp::Engine;
use ops5::{Matcher, Ops5Error, Program, Result, Strategy};
use psm::trace::{RunTrace, TraceMatcher};
use rete::network::Network;
use std::sync::{Arc, Mutex};

/// Which match engine the built [`Engine`] drives.
#[derive(Clone)]
pub enum MatcherKind {
    /// vs1: sequential Rete with linear-list memories.
    Vs1,
    /// vs2: sequential Rete with global hash-table memories.
    Vs2(rete::HashMemConfig),
    /// The interpretive lisp-style baseline (Table 4-4's Franz column).
    Lisp,
    /// PSM-E: the parallel matcher (threads, queues, and line locks per the
    /// config).
    Psm(psm::PsmConfig),
    /// col: vs2's kernel with the default table under its own name
    /// (`rete::colmatch`).
    Col,
    /// psm's inline driver recording the task trace that feeds the Multimax
    /// simulator; its matcher name is `"trace"`.
    Trace {
        buckets: usize,
        sink: Arc<Mutex<RunTrace>>,
    },
}

impl Default for MatcherKind {
    fn default() -> Self {
        MatcherKind::Vs2(rete::HashMemConfig::default())
    }
}

impl MatcherKind {
    /// The canonical stable name of this kind. This is the single
    /// name table shared by the serve registry and the CLI;
    /// [`MatcherKind::from_name`] is its inverse for every kind
    /// constructible from a name alone.
    pub fn name(&self) -> &'static str {
        match self {
            MatcherKind::Vs1 => "vs1",
            MatcherKind::Vs2(_) => "vs2",
            MatcherKind::Lisp => "lisp",
            MatcherKind::Psm(_) => "psm",
            MatcherKind::Col => "col",
            MatcherKind::Trace { .. } => "trace",
        }
    }

    /// Resolves a canonical name to a kind with default configuration.
    /// `trace` is not constructible by name (it needs a sink) and returns
    /// `None` like any unknown name.
    pub fn from_name(name: &str) -> Option<MatcherKind> {
        Some(match name {
            "vs1" => MatcherKind::Vs1,
            "vs2" => MatcherKind::Vs2(rete::HashMemConfig::default()),
            "lisp" => MatcherKind::Lisp,
            "psm" => MatcherKind::Psm(psm::PsmConfig::default()),
            "col" => MatcherKind::Col,
            _ => return None,
        })
    }

    /// The names [`MatcherKind::from_name`] accepts, for help/error text.
    pub const NAMES: &'static [&'static str] = &["vs1", "vs2", "lisp", "psm", "col"];
}

/// What a builder starts from: a parsed program it still has to compile,
/// or an already-compiled one to instantiate from.
enum Source {
    Parsed(Program),
    Compiled(Arc<CompiledProgram>),
}

/// Builder for [`Engine`]: program + matcher choice + interpreter knobs.
///
/// Defaults: vs2 matcher with the default hash-memory config, the program's
/// own `(strategy ...)` directive (LEX if absent), no write echoing, fired
/// log kept.
pub struct EngineBuilder {
    source: Source,
    matcher: MatcherKind,
    strategy: Option<Strategy>,
    echo_writes: bool,
    keep_fired_log: bool,
    limits: crate::interp::EngineLimits,
    network_options: Option<rete::NetworkOptions>,
    obs: obs::ObsConfig,
    #[allow(clippy::type_complexity)]
    factory: Option<Box<dyn FnOnce(Arc<Network>) -> Box<dyn Matcher>>>,
}

impl EngineBuilder {
    /// Starts a builder from an already-parsed program.
    pub fn new(program: Program) -> EngineBuilder {
        EngineBuilder::with_source(Source::Parsed(program))
    }

    /// Starts a builder from a shared compiled program:
    /// [`build`](Self::build) skips parse and compile and only instantiates.
    /// The network options are the artefact's; asking for different ones via
    /// [`network_options`](Self::network_options) makes `build` fail
    /// rather than silently recompile or run on a mismatched network.
    pub fn from_compiled(compiled: Arc<CompiledProgram>) -> EngineBuilder {
        EngineBuilder::with_source(Source::Compiled(compiled))
    }

    fn with_source(source: Source) -> EngineBuilder {
        EngineBuilder {
            source,
            matcher: MatcherKind::default(),
            strategy: None,
            echo_writes: false,
            keep_fired_log: true,
            limits: crate::interp::EngineLimits::default(),
            network_options: None,
            obs: obs::ObsConfig::default(),
            factory: None,
        }
    }

    /// Parses OPS5 source and starts a builder.
    pub fn from_source(src: &str) -> Result<EngineBuilder> {
        Ok(EngineBuilder::new(Program::from_source(src)?))
    }

    /// Picks the match engine (default: vs2).
    pub fn matcher(mut self, kind: MatcherKind) -> Self {
        self.matcher = kind;
        self.factory = None;
        self
    }

    /// Shorthand for [`MatcherKind::Vs1`].
    pub fn vs1(self) -> Self {
        self.matcher(MatcherKind::Vs1)
    }

    /// Shorthand for [`MatcherKind::Vs2`] with the default hash config.
    pub fn vs2(self) -> Self {
        self.matcher(MatcherKind::Vs2(rete::HashMemConfig::default()))
    }

    /// Shorthand for [`MatcherKind::Lisp`].
    pub fn lisp(self) -> Self {
        self.matcher(MatcherKind::Lisp)
    }

    /// Shorthand for [`MatcherKind::Psm`].
    pub fn psm(self, cfg: psm::PsmConfig) -> Self {
        self.matcher(MatcherKind::Psm(cfg))
    }

    /// Shorthand for [`MatcherKind::Col`].
    pub fn col(self) -> Self {
        self.matcher(MatcherKind::Col)
    }

    /// Shorthand for [`MatcherKind::Trace`].
    pub fn trace(self, buckets: usize, sink: Arc<Mutex<RunTrace>>) -> Self {
        self.matcher(MatcherKind::Trace { buckets, sink })
    }

    /// Installs a custom matcher factory (overrides [`Self::matcher`]); the
    /// escape hatch for matchers this crate does not know about.
    pub fn custom_matcher(
        mut self,
        f: impl FnOnce(Arc<Network>) -> Box<dyn Matcher> + 'static,
    ) -> Self {
        self.factory = Some(Box::new(f));
        self
    }

    /// Overrides the program's conflict-resolution strategy directive.
    pub fn strategy(mut self, s: Strategy) -> Self {
        self.strategy = Some(s);
        self
    }

    /// Echo `write` output to stdout as it is produced.
    pub fn echo_writes(mut self, on: bool) -> Self {
        self.echo_writes = on;
        self
    }

    /// Keep the per-cycle fired log (disable for long benchmark runs).
    pub fn keep_fired_log(mut self, on: bool) -> Self {
        self.keep_fired_log = on;
        self
    }

    /// Resource limits for hosts multiplexing many engines (the serve
    /// layer's per-session limits). Unlimited by default.
    pub fn limits(mut self, limits: crate::interp::EngineLimits) -> Self {
        self.limits = limits;
        self
    }

    /// Network compile options (default: [`rete::NetworkOptions::default`],
    /// beta-prefix sharing, whatever the matcher).
    pub fn network_options(mut self, options: rete::NetworkOptions) -> Self {
        self.network_options = Some(options);
        self
    }

    /// Observability configuration (metrics registry, per-node match
    /// profiling, per-cycle phase histograms). Disabled by default; when
    /// disabled the engine carries no instruments at all.
    pub fn obs(mut self, cfg: obs::ObsConfig) -> Self {
        self.obs = cfg;
        self
    }

    /// Compiles the program (unless the builder was handed a
    /// [`CompiledProgram`]), instantiates an engine from it around the
    /// chosen matcher, and returns the engine.
    pub fn build(self) -> Result<Engine> {
        let compiled = match self.source {
            Source::Compiled(c) => match self.network_options {
                Some(asked) if asked != c.options() => {
                    return Err(Ops5Error::Runtime(format!(
                        "network options {asked:?} requested of a program compiled with {:?}",
                        c.options()
                    )))
                }
                _ => c,
            },
            Source::Parsed(program) => Arc::new(CompiledProgram::compile(
                program,
                self.network_options.unwrap_or_default(),
            )?),
        };
        let net = compiled.network().clone();
        let installed: Box<dyn Matcher> = match (self.factory, self.matcher) {
            (Some(factory), _) => factory(net),
            (None, MatcherKind::Vs1) => rete::seq::boxed_vs1(net),
            (None, MatcherKind::Vs2(cfg)) => rete::seq::boxed_vs2(net, cfg),
            // The kernel on the shared network, its join tests interpreted
            // over the program's names.
            (None, MatcherKind::Lisp) => {
                Box::new(lispsim::LispEngineMatcher::on(compiled.program(), net))
            }
            (None, MatcherKind::Psm(cfg)) => psm::ParMatcher::boxed(net, cfg),
            (None, MatcherKind::Col) => rete::colmatch::boxed_col(net),
            (None, MatcherKind::Trace { buckets, sink }) => {
                Box::new(TraceMatcher::new(net, buckets, sink))
            }
        };
        let mut eng = Engine::with_matcher(compiled, installed);
        // The strategy only steers conflict resolution, never the compiled
        // network, so an override is per engine.
        if let Some(s) = self.strategy {
            eng.prog.strategy = s;
        }
        eng.echo_writes = self.echo_writes;
        eng.keep_fired_log = self.keep_fired_log;
        eng.limits = self.limits;
        eng.enable_obs(self.obs);
        Ok(eng)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use ops5::Value;

    const COUNTER: &str = "(p count
                             (c ^n <n> ^limit <l>)
                             (c ^n < <l>)
                             -->
                             (modify 1 ^n (compute <n> + 1)))
                           (p done (c ^n <n> ^limit <n>) --> (halt))";

    fn run_counter(b: EngineBuilder) -> Engine {
        let mut eng = b.build().unwrap();
        eng.make_wme("c", &[("n", Value::Int(0)), ("limit", Value::Int(3))])
            .unwrap();
        eng.run(50).unwrap();
        eng
    }

    #[test]
    fn all_matcher_kinds_agree() {
        let sink = Arc::new(Mutex::new(RunTrace::default()));
        let kinds: Vec<(&str, MatcherKind)> = vec![
            ("vs1", MatcherKind::Vs1),
            ("vs2", MatcherKind::Vs2(rete::HashMemConfig { buckets: 64 })),
            ("lisp", MatcherKind::Lisp),
            ("psm", MatcherKind::Psm(psm::PsmConfig::default())),
            ("col", MatcherKind::Col),
            (
                "trace",
                MatcherKind::Trace {
                    buckets: 64,
                    sink: sink.clone(),
                },
            ),
        ];
        for (name, kind) in kinds {
            let eng = run_counter(EngineBuilder::from_source(COUNTER).unwrap().matcher(kind));
            assert_eq!(eng.cycles(), 4, "matcher {name}");
        }
        assert!(sink.lock().unwrap().total_tasks() > 0, "trace recorded");
    }

    #[test]
    fn network_options_thread_through_to_the_compiled_network() {
        let eng = run_counter(
            EngineBuilder::from_source(COUNTER)
                .unwrap()
                .vs2()
                .network_options(rete::NetworkOptions::PAPER),
        );
        assert_eq!(eng.cycles(), 4);
        assert_eq!(eng.network().options, rete::NetworkOptions::PAPER);

        // A pair of productions with an identical two-CE prefix shares it
        // by default, whatever the matcher.
        let shared_src = "(p p1 (a) (b) (c) --> (halt)) (p p2 (a) (b) (d) --> (halt))";
        let sink = Arc::new(Mutex::new(RunTrace::default()));
        for kind in [
            MatcherKind::Vs2(rete::HashMemConfig::default()),
            MatcherKind::Trace { buckets: 64, sink },
        ] {
            let eng2 = EngineBuilder::from_source(shared_src)
                .unwrap()
                .matcher(kind)
                .build()
                .unwrap();
            assert_eq!(eng2.network().options, rete::NetworkOptions::default());
            assert!(eng2.network().summary().shared_prefixes >= 1);
        }
    }

    #[test]
    fn strategy_override_wins() {
        // MEA on a program with no directive: first-CE recency decides.
        let src = "(p pick (goal ^id <g>) (item ^v <v>) --> (write <g> <v>) (remove 2))";
        for kind in [MatcherKind::default(), MatcherKind::Col] {
            let mut eng = EngineBuilder::from_source(src)
                .unwrap()
                .matcher(kind)
                .strategy(Strategy::Mea)
                .build()
                .unwrap();
            assert_eq!(eng.prog.strategy, Strategy::Mea);
            eng.make_wme("goal", &[("id", Value::Int(1))]).unwrap();
            eng.make_wme("item", &[("v", Value::Int(10))]).unwrap();
            eng.make_wme("goal", &[("id", Value::Int(2))]).unwrap();
            eng.run(10).unwrap();
            assert_eq!(eng.output()[0], "2 10");
        }
    }

    #[test]
    fn interpreter_knobs_apply() {
        let eng = EngineBuilder::from_source(COUNTER)
            .unwrap()
            .keep_fired_log(false)
            .build()
            .unwrap();
        assert!(!eng.keep_fired_log);
        assert!(!eng.echo_writes);
    }

    #[test]
    fn custom_factory_overrides_kind() {
        let eng = run_counter(
            EngineBuilder::from_source(COUNTER)
                .unwrap()
                .custom_matcher(rete::seq::boxed_vs1),
        );
        assert_eq!(eng.matcher().name(), "vs1");
        assert_eq!(eng.cycles(), 4);
    }

    #[test]
    fn matcher_kind_names_round_trip() {
        for name in MatcherKind::NAMES {
            let kind = MatcherKind::from_name(name).expect("canonical name resolves");
            assert_eq!(kind.name(), *name);
            // The built matcher reports its kind's name, the one `OPEN` and
            // `MIGRATE` take.
            let eng = run_counter(EngineBuilder::from_source(COUNTER).unwrap().matcher(kind));
            assert_eq!(eng.matcher().name(), *name);
        }
        assert!(MatcherKind::from_name("trace").is_none(), "needs a sink");
        assert!(MatcherKind::from_name("frob").is_none());
    }

    #[test]
    fn obs_disabled_by_default_and_enabled_on_request() {
        let eng = run_counter(EngineBuilder::from_source(COUNTER).unwrap());
        assert!(eng.obs_registry().is_none());
        assert!(eng.last_phase().is_none());

        for kind in [
            MatcherKind::Vs1,
            MatcherKind::Vs2(rete::HashMemConfig { buckets: 64 }),
            MatcherKind::Lisp,
            MatcherKind::Psm(psm::PsmConfig::default()),
            MatcherKind::Col,
        ] {
            let eng = run_counter(
                EngineBuilder::from_source(COUNTER)
                    .unwrap()
                    .matcher(kind)
                    .obs(obs::ObsConfig::enabled()),
            );
            let name = eng.matcher().name().to_string();
            let snap = eng.obs_registry().expect("registry present").snapshot();
            // The match phase and, inside it, the conflict-set fold.
            for phase in ["engine_match_ns", "engine_fold_ns"] {
                let hist: Vec<_> = snap.metrics.iter().filter(|m| m.name == phase).collect();
                assert_eq!(hist.len(), 1, "{name}: one {phase} histogram");
                match &hist[0].data {
                    obs::MetricData::Histogram(h) => {
                        h.validate().unwrap();
                        assert_eq!(h.count, 4, "{name}: one sample per recognize-act cycle");
                    }
                    other => panic!("unexpected metric shape {other:?}"),
                }
            }
            // Every histogram any layer registered is internally consistent.
            for (hist, h) in snap.histograms() {
                h.validate()
                    .unwrap_or_else(|e| panic!("{name}: {hist}: {e}"));
            }
            let phase = eng.last_phase().expect("phase recorded");
            assert!(phase.match_ns > 0, "{name}: match phase took time");
            // Rete matchers also carry a per-join-node profile with every
            // join activation accounted for.
            let profile = eng.node_profile().expect("profile present");
            let stats = eng.match_stats();
            assert_eq!(
                profile.total_activations(),
                stats.join_activations,
                "{name}"
            );
            assert_eq!(
                profile.total_scanned(),
                stats.opp_tokens_left + stats.opp_tokens_right,
                "{name}"
            );
        }
    }
}
