//! The program registry: named production-system profiles a session can be
//! opened on.
//!
//! A [`ProgramSpec`] is source plus initial working memory. The first
//! build of a spec parses and compiles it into one shared, immutable
//! [`CompiledProgram`] (AST, Rete network, RHS code); every build —
//! that one included — then *instantiates* an independent [`Engine`] from
//! the artefact: its own symbol and class tables, matcher memories, working
//! memory and conflict set over the shared network. The registry is fixed
//! when the server binds, so the cache is bounded by the corpus; inline
//! `OPEN -` programs get a throw-away spec and are never cached.
//! [`Registry::with_builtins`] loads every `*.ops` file from a corpus
//! directory under its file stem, plus the generated `rubik` workload, so
//! the server's sessions exercise both hand-written corpus programs and the
//! paper's benchmark generator.

use engine::{CompiledProgram, Engine, EngineBuilder, EngineLimits, MatcherKind};
use ops5::{Program, Result};
use std::collections::BTreeMap;
use std::convert::Infallible;
use std::path::Path;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::{Arc, OnceLock};
use workloads::SetupWme;

/// A named program profile: OPS5 source plus initial working memory.
pub struct ProgramSpec {
    pub source: String,
    pub setup: Vec<SetupWme>,
    /// Parse + compile result, filled by the first build (never at
    /// registration: an unused corpus file costs nothing). A failure is
    /// cached like a success, so the Nth `OPEN` of a broken program answers
    /// exactly what the first did.
    compiled: OnceLock<Result<Arc<CompiledProgram>>>,
    /// How many times this spec was parsed + compiled: 0 or 1.
    compiles: AtomicU64,
}

impl ProgramSpec {
    pub fn new(source: impl Into<String>, setup: Vec<SetupWme>) -> ProgramSpec {
        ProgramSpec {
            source: source.into(),
            setup,
            compiled: OnceLock::new(),
            compiles: AtomicU64::new(0),
        }
    }

    pub fn from_source(source: impl Into<String>) -> ProgramSpec {
        ProgramSpec::new(source, Vec::new())
    }

    /// The shared compiled program, parsed and compiled on first use with
    /// the default network options. Threads racing on a never-built spec
    /// all wait for the one compile and share its result.
    fn compiled(&self) -> Result<Arc<CompiledProgram>> {
        self.compiled
            .get_or_init(|| {
                self.compiles.fetch_add(1, Ordering::Relaxed);
                let program = Program::from_source(&self.source)?;
                CompiledProgram::compile(program, Default::default()).map(Arc::new)
            })
            .clone()
    }

    /// Times this spec was parsed + compiled (the
    /// `serve_program_compiles_total` metric): 0 before the first build,
    /// 1 ever after, however many sessions were opened on it.
    pub fn compiles(&self) -> u64 {
        self.compiles.load(Ordering::Relaxed)
    }

    /// Builds a fresh engine for this spec: instantiate from the compiled
    /// program, install the matcher, load the source's startup forms, then
    /// the setup WMEs. The third argument can only be `None`: it once
    /// picked how the act phase fires, and stays until the ledger's callers
    /// stop passing it.
    pub fn build(
        &self,
        kind: MatcherKind,
        limits: EngineLimits,
        _: Option<Infallible>,
    ) -> Result<Engine> {
        let mut eng = self.build_empty(kind, limits)?;
        eng.load_startup()?;
        workloads::load_setup(&mut eng, &self.setup)?;
        Ok(eng)
    }

    /// Builds a *bare* engine: instantiate and install the matcher — but do
    /// NOT load startup forms or setup WMEs. This is the `RESTORE` path:
    /// the snapshot carries every WME (startup and setup included), so
    /// loading them here would double them up.
    pub fn build_empty(&self, kind: MatcherKind, limits: EngineLimits) -> Result<Engine> {
        EngineBuilder::from_compiled(self.compiled()?)
            .matcher(kind)
            .limits(limits)
            .build()
    }
}

/// Named program profiles available to `OPEN`.
#[derive(Default)]
pub struct Registry {
    specs: BTreeMap<String, ProgramSpec>,
}

impl Registry {
    pub fn new() -> Registry {
        Registry::default()
    }

    /// Loads every `*.ops` file under `programs_dir` (keyed by file stem)
    /// plus the generated `rubik` benchmark workload. Unreadable files are
    /// skipped — a server must come up even on a partial corpus.
    pub fn with_builtins(programs_dir: Option<&Path>) -> Registry {
        let mut reg = Registry::new();
        if let Some(dir) = programs_dir {
            if let Ok(entries) = std::fs::read_dir(dir) {
                for e in entries.flatten() {
                    let path = e.path();
                    if path.extension().is_some_and(|x| x == "ops") {
                        if let (Some(stem), Ok(src)) = (
                            path.file_stem().and_then(|s| s.to_str()),
                            std::fs::read_to_string(&path),
                        ) {
                            reg.insert(stem, ProgramSpec::from_source(src));
                        }
                    }
                }
            }
        }
        let rubik = workloads::rubik::workload(workloads::rubik::RubikConfig {
            seed: 3,
            scramble_len: 5,
            plan: workloads::rubik::PlanMode::Inverse,
        });
        reg.insert("rubik", ProgramSpec::new(rubik.source, rubik.setup));
        reg
    }

    pub fn insert(&mut self, name: impl Into<String>, spec: ProgramSpec) {
        self.specs.insert(name.into(), spec);
    }

    pub fn get(&self, name: &str) -> Option<&ProgramSpec> {
        self.specs.get(name)
    }

    pub fn names(&self) -> Vec<&str> {
        self.specs.keys().map(|s| s.as_str()).collect()
    }

    /// Every program with its spec, in name order.
    pub fn iter(&self) -> impl Iterator<Item = (&str, &ProgramSpec)> {
        self.specs.iter().map(|(name, spec)| (name.as_str(), spec))
    }
}

/// Maps a protocol matcher name to a [`MatcherKind`] via the canonical
/// [`MatcherKind::from_name`] table. The `psm` engine gets one match
/// process: the server multiplexes many sessions over few cores, so
/// parallelism lives across sessions, not inside one matcher.
pub fn matcher_kind(name: &str) -> std::result::Result<MatcherKind, String> {
    match MatcherKind::from_name(name) {
        Some(MatcherKind::Psm(cfg)) => Ok(MatcherKind::Psm(psm::PsmConfig {
            match_processes: 1,
            ..cfg
        })),
        Some(kind) => Ok(kind),
        None => Err(format!(
            "unknown matcher `{name}` (want {})",
            MatcherKind::NAMES.join("|")
        )),
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn builtin_registry_has_rubik_and_builds_it() {
        let reg = Registry::with_builtins(None);
        assert_eq!(reg.names(), vec!["rubik"]);
        let mut eng = reg
            .get("rubik")
            .unwrap()
            .build(MatcherKind::default(), EngineLimits::default(), None)
            .unwrap();
        assert!(eng.wm().len() > 50, "cube facelets loaded");
        let r = eng.run(10_000).unwrap();
        assert!(r.cycles > 0);
    }

    #[test]
    fn corpus_dir_is_loaded_by_stem() {
        let dir = std::env::temp_dir().join("serve-registry-test");
        std::fs::create_dir_all(&dir).unwrap();
        std::fs::write(
            dir.join("tiny.ops"),
            "(literalize a x)\n(p r (a ^x 1) --> (halt))",
        )
        .unwrap();
        std::fs::write(dir.join("notes.txt"), "ignored").unwrap();
        let reg = Registry::with_builtins(Some(&dir));
        assert!(reg.get("tiny").is_some());
        assert!(reg.get("notes").is_none());
        assert!(reg.get("rubik").is_some());
    }

    #[test]
    fn matcher_names_resolve() {
        for name in MatcherKind::NAMES {
            let kind = matcher_kind(name).unwrap_or_else(|e| panic!("{name}: {e}"));
            assert_eq!(kind.name(), *name, "registry preserves the kind");
        }
        assert!(matcher_kind("frob").is_err());
        assert!(matcher_kind("trace").is_err(), "trace needs a sink");
    }
}
