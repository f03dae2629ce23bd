//! End-to-end pass for the direct workloads (weaver, tourney, rubik): the
//! embedding user's view. Each *session* is one engine lifetime — source →
//! runnable engine → run to halt → validate → drop — and each *command* is
//! one recognize-act cycle (`Engine::run(1)`), the finest unit a host
//! application can yield at. Sessions are interleaved over the matchers
//! (vs2 → col end to end; psm joins in the traced pass) so drift in the
//! machine's background load lands on all alike.

use crate::conv;
use crate::inputs::Prog;
use crate::report::{Outcome, Row};
use crate::spans::{self, Recorder};
use crate::stats;
use engine::{MatcherKind, StopReason};
use std::time::{Duration, Instant};

/// The psm configuration of the direct workloads: every core but the
/// control process's, one queue per match process.
pub fn psm_config(nproc: usize) -> psm::PsmConfig {
    let k = nproc.saturating_sub(1).max(1);
    psm::PsmConfig {
        match_processes: k,
        queues: k,
        ..psm::PsmConfig::default()
    }
}

pub fn matcher_kind(name: &str, nproc: usize) -> MatcherKind {
    match name {
        "psm" => MatcherKind::Psm(psm_config(nproc)),
        other => MatcherKind::from_name(other).expect("a matcher named in inputs::MATCHERS"),
    }
}

/// What one engine lifetime measured.
struct Life {
    build_s: f64,
    run_s: f64,
    life_s: f64,
    changes: u64,
    /// µs of every cycle, in firing order.
    cycle_us: Vec<f32>,
}

/// One engine lifetime. Checks go to `out`. With a recorder, spans wrap the
/// same calls.
fn lifetime(
    prog: &Prog,
    kind: MatcherKind,
    want_fired: u64,
    out: &mut Outcome,
    rec: &mut Option<Recorder>,
    req: [u32; 2],
) -> Option<Life> {
    let enter = |rec: &mut Option<Recorder>, name: &'static str, seq: u64| {
        spans::enter(rec, name, [req[0], req[1], seq as u32]);
    };
    let matcher = kind.name();
    enter(rec, "direct.session", 0);
    let born = Instant::now();
    enter(rec, "engine.build", 0);
    let built = conv::build_engine(prog, kind);
    spans::exit(rec);
    let build_s = born.elapsed().as_secs_f64();
    let mut eng = match built {
        Ok(e) => e,
        Err(e) => {
            spans::exit(rec);
            out.check(false, || format!("{}/{matcher}: build: {e}", prog.name));
            return None;
        }
    };
    let before = eng.match_stats().wme_changes;
    let mut cycles = 0u64;
    let mut cycle_us = Vec::new();
    let mut error = None;
    enter(rec, "engine.run", 0);
    let started = Instant::now();
    while cycles < prog.max_cycles {
        enter(rec, "engine.cycle", cycles);
        let t = Instant::now();
        let res = eng.run(1);
        let dt = t.elapsed();
        spans::exit(rec);
        match res {
            Ok(r) => {
                if r.cycles == 1 {
                    cycles += 1;
                    cycle_us.push(dt.as_secs_f32() * 1e6);
                }
                if r.reason != StopReason::CycleLimit {
                    break;
                }
            }
            Err(e) => {
                error = Some(e.to_string());
                break;
            }
        }
    }
    let run_s = started.elapsed().as_secs_f64();
    spans::exit(rec);
    let changes = eng.match_stats().wme_changes - before;
    enter(rec, "ledger.verify", 0);
    let verdict = match (&error, prog.validate.as_ref().map(|v| v(&eng))) {
        (Some(e), _) => Err(format!("run: {e}")),
        (None, Some(Err(e))) => Err(format!("validator: {e}")),
        _ if conv::fired_digest(&eng) != want_fired => {
            Err("firing-log digest differs from vs1".into())
        }
        _ => Ok(()),
    };
    spans::exit(rec);
    out.check(verdict.is_ok(), || {
        format!("{}/{matcher}: {}", prog.name, verdict.clone().unwrap_err())
    });
    enter(rec, "engine.drop", 0);
    drop(eng);
    spans::exit(rec);
    let life_s = born.elapsed().as_secs_f64();
    spans::exit(rec);
    Some(Life {
        build_s,
        run_s,
        life_s,
        changes,
        cycle_us,
    })
}

/// The vs1 reference run made during set-up: validates the instance and
/// fixes the firing-log digest every measured run must reproduce.
pub struct Reference {
    pub fired: u64,
    pub cycles: u64,
    pub changes: u64,
    pub rules: u64,
}

pub fn reference(prog: &Prog) -> Result<Reference, String> {
    let mut eng = conv::build_engine(prog, MatcherKind::Vs1).map_err(|e| e.to_string())?;
    let before = eng.match_stats().wme_changes;
    eng.run(prog.max_cycles).map_err(|e| e.to_string())?;
    if let Some(v) = &prog.validate {
        v(&eng).map_err(|e| format!("{} fails its validator on vs1: {e}", prog.name))?;
    }
    Ok(Reference {
        fired: conv::fired_digest(&eng),
        cycles: eng.cycles(),
        changes: eng.match_stats().wme_changes - before,
        rules: eng.prog.productions.len() as u64,
    })
}

/// Timed vs2 builds made at the head of every interleave set for `setup_s`
/// (the vs2 lifetime's own build is a third sample): spread over the whole
/// run, so a slow phase of the host cannot cover them all.
const SETUPS_PER_SET: usize = 2;

/// Everything the lifetimes of one matcher measured.
#[derive(Default)]
struct PerMatcher {
    /// `[lifetime][cycle]` µs.
    cycle_us: Vec<Vec<f32>>,
    build_s: Vec<f64>,
    /// The rest of a lifetime: checks and drop.
    rest_s: Vec<f64>,
    /// Whole-run changes per second of every lifetime, for the distribution.
    rate: Vec<f64>,
    changes: u64,
}

/// Runs engine lifetimes interleaved over `matchers` for `budget` (at least
/// one set) and reports the end-to-end metrics. Every lifetime replays the
/// same cycles, so the timings are compared cycle by cycle across lifetimes
/// ([`stats::aligned`]) and the rows carry the quiet quantile of each.
pub fn run(
    prog: &Prog,
    matchers: &[&'static str],
    budget: Duration,
    nproc: usize,
    mut rec: Option<Recorder>,
) -> Outcome {
    let mut out = Outcome::default();
    let reference = match reference(prog) {
        Ok(r) => r,
        Err(e) => {
            out.check(false, || e);
            return out;
        }
    };
    out.check(true, String::new);

    let mut per: Vec<PerMatcher> = matchers.iter().map(|_| PerMatcher::default()).collect();
    let mut setup_s = Vec::new();
    let started = Instant::now();
    let mut sets = 0u32;
    // A new set starts only while at least half of it still fits, so the
    // overshoot past `budget` is centred on zero.
    while sets == 0 || started.elapsed() + started.elapsed() / (2 * sets) < budget {
        for _ in 0..SETUPS_PER_SET {
            let t = Instant::now();
            let built = conv::build_engine(prog, matcher_kind("vs2", nproc));
            setup_s.push(t.elapsed().as_secs_f64());
            out.check(built.is_ok(), || {
                format!("{}: set-up build failed", prog.name)
            });
        }
        for (m, matcher) in matchers.iter().enumerate() {
            let Some(life) = lifetime(
                prog,
                matcher_kind(matcher, nproc),
                reference.fired,
                &mut out,
                &mut rec,
                [sets, m as u32],
            ) else {
                continue;
            };
            if *matcher == "vs2" {
                setup_s.push(life.build_s);
            }
            let p = &mut per[m];
            p.rate.push(life.changes as f64 / life.run_s);
            p.build_s.push(life.build_s);
            p.rest_s.push(life.life_s - life.build_s - life.run_s);
            p.changes = life.changes;
            p.cycle_us.push(life.cycle_us);
        }
        sets += 1;
    }
    if per.iter().any(|p| p.cycle_us.is_empty()) {
        // A matcher that never completed a lifetime: the failure is logged.
        return out;
    }
    // One lifetime per matcher with every cycle at its quiet quantile; the
    // rows are read off those.
    let quiet: Vec<Vec<f64>> = per
        .iter()
        .map(|p| stats::aligned(&p.cycle_us, stats::QUIET))
        .collect();
    let run_s: Vec<f64> = quiet.iter().map(|c| c.iter().sum::<f64>() / 1e6).collect();
    for (m, matcher) in matchers.iter().enumerate() {
        out.rows.push(Row {
            value: per[m].changes as f64 / run_s[m],
            ..Row::median(format!("changes_per_s.{matcher}"), "1/s", &per[m].rate)
        });
    }
    let mut cycle_us: Vec<f64> = quiet.concat();
    let commands = cycle_us.len();
    out.rows.push(Row::single(
        "cmds_per_s",
        "1/s",
        commands as f64 / run_s.iter().sum::<f64>(),
    ));
    if let Some(l) = stats::Latency::of(&mut cycle_us) {
        out.rows.push(Row::single("cmd_p50_us", "us", l.p50));
        out.rows
            .push(Row::single("cmd_p99_us", "us", l.p99).with_note(format!(
                "over the {} cycles of one lifetime per matcher, each at its quiet quantile; \
             highest tail with >=10 beyond: p{} = {:.1} us",
                l.n, l.supported.0, l.supported.1
            )));
    }
    let life_s: f64 = per
        .iter()
        .zip(&run_s)
        .map(|(p, run)| stats::quiet(&p.build_s) + run + stats::quiet(&p.rest_s))
        .sum();
    out.rows.push(Row::single(
        "sessions_per_s",
        "1/s",
        matchers.len() as f64 / life_s,
    ));
    out.rows.push(Row {
        value: stats::quiet(&setup_s),
        ..Row::median("setup_s", "s", &setup_s)
    });
    match crate::peak_rss_mb() {
        Some(mb) => out.rows.push(Row::single("peak_rss_mb", "MiB", mb)),
        None => out.fail("cannot read VmHWM from /proc/self/status".into()),
    }
    out.sizes = vec![
        ("rules", reference.rules),
        ("setup_wmes", prog.setup.len() as u64),
        ("cycles", reference.cycles),
        ("changes", reference.changes),
        ("rep_sets", sets as u64),
        ("sessions", (sets as usize * matchers.len()) as u64),
        ("commands_per_set", commands as u64),
    ];
    if let Some(r) = rec {
        out.spans = r.into_spans();
    }
    out
}
