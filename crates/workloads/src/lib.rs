//! # workloads — the paper's three benchmark production systems, rebuilt
//!
//! The paper evaluates PSM-E on Weaver (VLSI routing, 637 rules), Rubik
//! (cube solver, 70 rules), and Tourney (tournament scheduling, 17 rules).
//! The original sources are not available, so this crate rebuilds each as a
//! *real working program* with the same match profile (see DESIGN.md §3):
//!
//! * [`rubik`] — a facelet-model Rubik's cube in working memory; the 18 move
//!   productions are generated from 3D rotation permutations; plans come
//!   from an IDDFS solver (short scrambles) or scramble inversion (long
//!   benchmark runs). High activation rate, no cross-products — the
//!   best-speedup program, as in the paper.
//! * [`tourney`] — round-robin tournament scheduling. The pathological
//!   variant pairs teams through condition elements with *no common
//!   variables* (the paper's "culprit productions"), driving every token of
//!   the pairing join into one hash line; the *fixed* variant encodes the
//!   circle-method pairings in working memory, giving every join equality
//!   tests — the paper's "modifying two productions using domain specific
//!   knowledge" (2.7× → 5.1×).
//! * [`weaver`] — a generated VLSI grid router: Lee-style wavefront
//!   expansion over a two-layer grid with vias, rule variants specialized by
//!   direction × layer × net class to reach Weaver's ~600-rule scale.
//! * [`synth`] — parameterized synthetic workloads for ablation benches.
//!
//! All workloads share the [`Workload`] interface: OPS5 source + initial
//! working memory + a semantic validator, runnable against any matcher via
//! [`build_engine`].

pub mod rng;
pub mod rubik;
pub mod synth;
pub mod tourney;
pub mod weaver;

use engine::{Engine, EngineBuilder, MatcherKind};
use ops5::{Result, Value};

/// A setup value (pre-symbol-table).
#[derive(Debug, Clone, PartialEq)]
pub enum SetupVal {
    Sym(String),
    Int(i64),
}

impl SetupVal {
    pub fn sym(s: impl Into<String>) -> SetupVal {
        SetupVal::Sym(s.into())
    }
}

/// One initial working-memory element.
#[derive(Debug, Clone)]
pub struct SetupWme {
    pub class: String,
    pub sets: Vec<(String, SetupVal)>,
}

impl SetupWme {
    pub fn new(class: &str, sets: &[(&str, SetupVal)]) -> SetupWme {
        SetupWme {
            class: class.to_string(),
            sets: sets
                .iter()
                .map(|(a, v)| (a.to_string(), v.clone()))
                .collect(),
        }
    }
}

/// Post-run semantic check (solved cube, valid schedule, legal routes).
pub type Validator = Box<dyn Fn(&Engine) -> std::result::Result<(), String> + Send + Sync>;

/// A complete benchmark program: source, initial WM, cycle budget, and a
/// semantic validator run after the engine stops.
pub struct Workload {
    pub name: String,
    pub source: String,
    pub setup: Vec<SetupWme>,
    pub max_cycles: u64,
    /// Post-run semantic check (solved cube, valid schedule, legal routes).
    pub validate: Validator,
}

/// Builds an engine for a workload: parses the source, compiles the network,
/// installs the chosen matcher, and loads the initial working memory.
/// The network options and the act phase are the builder's defaults: the
/// shared network, serial act.
pub fn build_engine(w: &Workload, kind: &MatcherKind) -> Result<Engine> {
    let mut eng = EngineBuilder::from_source(&w.source)?
        .matcher(kind.clone())
        .build()?;
    load_setup(&mut eng, &w.setup)?;
    Ok(eng)
}

/// Asserts a workload's initial working memory into an engine built from
/// its source (for callers that need their own [`EngineBuilder`] settings).
pub fn load_setup(eng: &mut Engine, setup: &[SetupWme]) -> Result<()> {
    for wme in setup {
        let sets: Vec<(&str, Value)> = wme
            .sets
            .iter()
            .map(|(a, v)| {
                let val = match v {
                    SetupVal::Sym(s) => eng.sym(s),
                    SetupVal::Int(i) => Value::Int(*i),
                };
                (a.as_str(), val)
            })
            .collect();
        eng.make_wme(&wme.class, &sets)?;
    }
    Ok(())
}

/// Runs a workload to completion and validates the outcome. Returns the
/// engine (for stats inspection) and the run result.
pub fn run_workload(w: &Workload, kind: &MatcherKind) -> Result<(Engine, engine::RunResult)> {
    let mut eng = build_engine(w, kind)?;
    let res = eng.run(w.max_cycles)?;
    if let Err(e) = (w.validate)(&eng) {
        return Err(ops5::Ops5Error::Runtime(format!(
            "workload {} failed validation under {}: {}",
            w.name,
            kind.name(),
            e
        )));
    }
    Ok((eng, res))
}

#[cfg(test)]
mod tests {
    use super::*;
    use psm::trace::RunTrace;
    use psm::PsmConfig;
    use std::sync::{Arc, Mutex};

    fn counter_workload() -> Workload {
        Workload {
            name: "counter".into(),
            source: "(p count (c ^n <n> ^limit > <n>) --> (modify 1 ^n (compute <n> + 1)))
                     (p done (c ^n <n> ^limit <n>) --> (write done (crlf)) (halt))"
                .into(),
            setup: vec![SetupWme::new(
                "c",
                &[("n", SetupVal::Int(0)), ("limit", SetupVal::Int(4))],
            )],
            max_cycles: 100,
            validate: Box::new(|e: &Engine| {
                if e.output().iter().any(|l| l.contains("done")) {
                    Ok(())
                } else {
                    Err("missing done output".into())
                }
            }),
        }
    }

    #[test]
    fn run_workload_all_engines() {
        let w = counter_workload();
        for choice in [
            MatcherKind::Vs1,
            MatcherKind::Vs2(rete::HashMemConfig::PAPER),
            MatcherKind::Lisp,
            MatcherKind::Psm(PsmConfig::default()),
            MatcherKind::Col,
        ] {
            let (eng, res) = run_workload(&w, &choice).unwrap();
            assert_eq!(res.cycles, 5, "engine {}", choice.name());
            assert_eq!(eng.cycles(), 5);
        }
    }

    #[test]
    fn trace_choice_records() {
        let w = counter_workload();
        let sink = Arc::new(Mutex::new(RunTrace::default()));
        let (_eng, res) = run_workload(
            &w,
            &MatcherKind::Trace {
                buckets: 32768,
                sink: sink.clone(),
            },
        )
        .unwrap();
        assert_eq!(res.cycles, 5);
        let t = sink.lock().unwrap();
        assert!(t.total_tasks() > 5);
    }

    #[test]
    fn validation_failure_reported() {
        let mut w = counter_workload();
        w.validate = Box::new(|_| Err("always fails".into()));
        assert!(run_workload(&w, &MatcherKind::Vs2(rete::HashMemConfig::PAPER)).is_err());
    }
}
