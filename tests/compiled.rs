//! Compile once, instantiate many: an engine instantiated from a shared
//! [`CompiledProgram`] must be indistinguishable from one parsed and
//! compiled from source, and engines sharing one artefact must not see each
//! other.

use engine::{
    program_fingerprint, CompiledProgram, Engine, EngineBuilder, EngineLimits, MatcherKind,
    Snapshot,
};
use ops5::{wire, Program, Value};
use rete::NetworkOptions;
use serve::{matcher_kind, Command, ProgramSpec, Registry, Session};
use std::sync::Arc;

const MATCHERS: [&str; 5] = ["vs1", "vs2", "col", "psm", "lisp"];

/// Everything about a finished run that must not depend on how the engine
/// came to be.
#[derive(Debug, PartialEq)]
struct Observed {
    fingerprint: u64,
    fired: Vec<(String, Vec<u64>)>,
    wm: Vec<String>,
    snapshot: String,
}

fn observe(eng: &mut Engine) -> Observed {
    let snapshot = eng.snapshot().to_text();
    let mut wm: Vec<(u64, String)> = eng
        .wm()
        .iter()
        .map(|w| {
            (
                w.timetag,
                wire::print_wme(w, &eng.prog.symbols, &eng.prog.classes),
            )
        })
        .collect();
    wm.sort();
    Observed {
        fingerprint: program_fingerprint(&eng.prog),
        fired: eng
            .fired_log()
            .iter()
            .map(|(p, tags)| (eng.prog.prod_name(*p).to_string(), tags.clone()))
            .collect(),
        wm: wm.into_iter().map(|(_, text)| text).collect(),
        snapshot,
    }
}

/// Loads the spec's initial working memory and runs to completion.
fn load_and_run(mut eng: Engine, spec: &ProgramSpec) -> Engine {
    eng.load_startup().unwrap();
    workloads::load_setup(&mut eng, &spec.setup).unwrap();
    eng.run(400_000).unwrap();
    eng
}

fn compile(spec: &ProgramSpec) -> Arc<CompiledProgram> {
    let program = Program::from_source(&spec.source).unwrap();
    Arc::new(CompiledProgram::compile(program, NetworkOptions::default()).unwrap())
}

/// Every corpus program + the registry's rubik, on five matchers: the 1st,
/// 2nd and 3rd engine instantiated from one artefact each equal the engine
/// built from source, and snapshots cross between the two kinds.
#[test]
fn cached_engines_equal_fresh_ones() {
    let reg = Registry::with_builtins(Some("programs".as_ref()));
    assert!(reg.names().len() >= 6, "corpus + rubik");
    for (name, spec) in reg.iter() {
        let compiled = compile(spec);
        for matcher in MATCHERS {
            let kind = || matcher_kind(matcher).unwrap();
            let fresh = || {
                EngineBuilder::from_source(&spec.source)
                    .unwrap()
                    .matcher(kind())
                    .build()
                    .unwrap()
            };
            let cached = || {
                EngineBuilder::from_compiled(compiled.clone())
                    .matcher(kind())
                    .build()
                    .unwrap()
            };
            let mut reference = load_and_run(fresh(), spec);
            let want = observe(&mut reference);
            assert!(!want.fired.is_empty(), "{name} did nothing");
            for nth in 1..=3 {
                let mut eng = load_and_run(cached(), spec);
                assert_eq!(observe(&mut eng), want, "{name}/{matcher} instance {nth}");
            }

            // A mid-run snapshot taken on either kind continues identically
            // on the other.
            for (from, into) in [
                (
                    &cached as &dyn Fn() -> Engine,
                    &fresh as &dyn Fn() -> Engine,
                ),
                (&fresh, &cached),
            ] {
                let mut eng = from();
                eng.load_startup().unwrap();
                workloads::load_setup(&mut eng, &spec.setup).unwrap();
                eng.run(want.fired.len() as u64 / 2).unwrap();
                let text = eng.snapshot().to_text();
                let mut resumed = into();
                resumed.restore(&Snapshot::parse(&text).unwrap()).unwrap();
                resumed.run(400_000).unwrap();
                assert_eq!(observe(&mut resumed), want, "{name}/{matcher} restored");
            }
        }
        assert_eq!(
            Arc::strong_count(&compiled),
            1,
            "{name}: every engine released the shared artefact"
        );
    }
}

/// The spec-level cache: the first build compiles, later builds (and
/// `build_empty`) reuse the artefact, whatever the matcher.
#[test]
fn spec_compiles_once_and_shares_the_network() {
    let reg = Registry::with_builtins(Some("programs".as_ref()));
    let spec = reg.get("monkey").unwrap();
    assert_eq!(spec.compiles(), 0, "registration does not compile");
    let engines: Vec<Engine> = MATCHERS
        .iter()
        .map(|m| {
            spec.build(matcher_kind(m).unwrap(), EngineLimits::default(), None)
                .unwrap()
        })
        .chain(std::iter::once(
            spec.build_empty(MatcherKind::default(), EngineLimits::default())
                .unwrap(),
        ))
        .collect();
    assert_eq!(spec.compiles(), 1);
    for eng in &engines {
        assert!(Arc::ptr_eq(eng.compiled(), engines[0].compiled()));
        assert!(Arc::ptr_eq(eng.network(), engines[0].network()));
        assert!(Arc::ptr_eq(
            &eng.prog.productions,
            &engines[0].prog.productions
        ));
    }
}

/// N threads racing to open a never-opened program: all succeed, one
/// compile.
#[test]
fn racing_first_builds_compile_exactly_once() {
    let w = workloads::weaver::workload(workloads::weaver::WeaverConfig {
        width: 6,
        height: 6,
        kinds: 12,
        ..Default::default()
    });
    let spec = ProgramSpec::new(w.source, w.setup);
    let barrier = std::sync::Barrier::new(8);
    let fired: Vec<usize> = std::thread::scope(|s| {
        let handles: Vec<_> = (0..8)
            .map(|_| {
                s.spawn(|| {
                    barrier.wait();
                    let mut eng = spec
                        .build(MatcherKind::default(), EngineLimits::default(), None)
                        .unwrap();
                    eng.run(50).unwrap();
                    eng.fired_log().len()
                })
            })
            .collect();
        handles.into_iter().map(|h| h.join().unwrap()).collect()
    });
    assert_eq!(spec.compiles(), 1);
    assert!(fired[0] > 0);
    assert!(fired.iter().all(|n| *n == fired[0]));
}

/// A program that does not parse, and one that parses but does not
/// compile, answer the same error on the 1st and the Nth build — the slot
/// is neither poisoned nor retried.
#[test]
fn a_broken_program_fails_the_same_way_every_time() {
    for (src, needle) in [
        ("(p broken (a ^x 1) -->", "parse error"),
        (
            "(p unbound (a ^x > <v>) --> (halt))",
            "predicate on unbound variable",
        ),
    ] {
        let spec = ProgramSpec::from_source(src);
        let errs: Vec<String> = (0..4)
            .map(|i| {
                let built = if i % 2 == 0 {
                    spec.build(MatcherKind::default(), EngineLimits::default(), None)
                } else {
                    spec.build_empty(MatcherKind::Col, EngineLimits::default())
                };
                built.err().expect("must not build").to_string()
            })
            .collect();
        assert!(errs[0].contains(needle), "{}", errs[0]);
        assert!(errs.iter().all(|e| *e == errs[0]), "{errs:?}");
        assert_eq!(spec.compiles(), 1, "the failure is cached, not retried");
    }
}

/// A compiled program carries its network options; a builder asked for
/// different ones refuses instead of running on a mismatched network.
#[test]
fn mismatched_network_options_are_refused() {
    let src = "(p p1 (a) (b) (c) --> (halt)) (p p2 (a) (b) (d) --> (halt))";
    let paper = NetworkOptions::PAPER;
    let compiled =
        Arc::new(CompiledProgram::compile(Program::from_source(src).unwrap(), paper).unwrap());
    assert_eq!(compiled.options(), paper);
    let err = EngineBuilder::from_compiled(compiled.clone())
        .network_options(NetworkOptions::default())
        .build()
        .err()
        .expect("mismatch must not build");
    assert!(err.to_string().contains("network options"), "{err}");
    // Agreeing (or saying nothing) instantiates on the artefact's network.
    for b in [
        EngineBuilder::from_compiled(compiled.clone()).network_options(paper),
        EngineBuilder::from_compiled(compiled.clone()),
    ] {
        let eng = b.build().unwrap();
        assert_eq!(eng.network().options, paper);
        assert_eq!(eng.network().summary().shared_prefixes, 0);
    }
}

const ISOLATION_SRC: &str = "(literalize item name tag)
(literalize box id)
(p label (item ^name <n> ^tag nil) --> (bind <g>) (modify 1 ^tag <g>))
(p note (box ^id <i>) --> (write box <i> (crlf)))";

/// One session's script: auto-extend `box` with a private attribute,
/// assert private symbols, run (argless `bind` draws gensyms), and dump
/// every observable text.
fn drive(spec: &ProgramSpec, matcher: &str, names: &[&str], attr: &str) -> Vec<String> {
    let kind = matcher_kind(matcher).unwrap();
    let mut eng = spec
        .build(kind.clone(), EngineLimits::default(), None)
        .unwrap();
    let marker = eng.sym(names[0]);
    eng.make_wme("box", &[("id", Value::Int(1)), (attr, marker)])
        .unwrap();
    let mut session = Session::new(7, "isolation", eng, kind, 10_000);
    let mut out = Vec::new();
    for name in names {
        out.push(
            session
                .execute(Command::Assert(format!("item ^name {name}")))
                .to_string(),
        );
    }
    out.push(session.execute(Command::Run(100)).to_string());
    for query in [Command::Wm(None), Command::Fired, Command::Snapshot] {
        out.push(session.execute(query).to_string());
    }
    out
}

/// Two live sessions on one cached program, interleaved, each interning
/// symbols the other never sees (in opposite orders), drawing gensyms and
/// auto-extending a class: each reads exactly like a solo session on an
/// uncached spec (what `OPEN -` builds).
#[test]
fn sessions_sharing_a_compiled_program_are_isolated() {
    let a_names = ["alpha", "beta", "gamma"];
    let b_names = ["gamma", "beta", "omega", "alpha"];
    for matcher in MATCHERS {
        let shared = ProgramSpec::from_source(ISOLATION_SRC);
        let (a, b) = std::thread::scope(|s| {
            let a = s.spawn(|| drive(&shared, matcher, &a_names, "colour"));
            let b = s.spawn(|| drive(&shared, matcher, &b_names, "weight"));
            (a.join().unwrap(), b.join().unwrap())
        });
        // And once more after both are gone: the artefact kept nothing.
        let a_again = drive(&shared, matcher, &a_names, "colour");
        assert_eq!(shared.compiles(), 1);

        let solo_a = drive(
            &ProgramSpec::from_source(ISOLATION_SRC),
            matcher,
            &a_names,
            "colour",
        );
        let solo_b = drive(
            &ProgramSpec::from_source(ISOLATION_SRC),
            matcher,
            &b_names,
            "weight",
        );
        assert_eq!(a, solo_a, "{matcher}: session A");
        assert_eq!(b, solo_b, "{matcher}: session B");
        assert_eq!(a_again, solo_a, "{matcher}: session A, reopened");

        let wm = &solo_a[a_names.len() + 1];
        assert!(
            wm.contains("^colour alpha") && !wm.contains("weight"),
            "{wm}"
        );
        assert!(wm.contains("^tag g1") && wm.contains("^tag g3"), "{wm}");
        assert!(!wm.contains("omega"), "{wm}");
    }
}
