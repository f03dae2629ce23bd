//! The traced pass (`--trace 1`): every per-layer metric of
//! `BENCHMARK.json`, for one workload.
//!
//! Order of work: (1) the TCP shell — the served conversation against a
//! server with observability on, client-side spans recorded; (2) the
//! tracing-overhead pair — the workload's own end-to-end driver with psm in
//! the rotation, untraced then with spans; (3) layer passes — [`layers::measure`] and
//! [`onion::measure`] over every program, repeated until `--seconds` is
//! spent (at least once), each metric reported as the median over passes.
//! Counters that are deterministic must come out identical in every pass.
//!
//! Every workload reports every layer: a direct workload's program is also
//! served (as one whole-session conversation) so the serve layers have a
//! number on it, and a served workload's engine calls are replayed into the
//! bare matchers so the match layers have one.

use crate::conv::Verb;
use crate::inputs::{Inputs, MATCHERS};
use crate::layers::{self, Drive, Ratios};
use crate::report::{Outcome, Row};
use crate::spans::{self, Recorder};
use crate::stats::{onion_diff, percentile};
use crate::{direct, onion, repeat, served};
use std::collections::BTreeMap;
use std::path::Path;
use std::sync::{Arc, Mutex};
use std::time::{Duration, Instant};

/// Every per-layer metric, with its unit, in `BENCHMARK.json` order.
pub const PER_LAYER: [(&str, &str); 53] = [
    ("ops5.parser.parse_us", "us"),
    ("ops5.matchapi.batch_build_ns_per_change", "ns"),
    ("rete.network.compile_us", "us"),
    ("rete.network.joins", "count"),
    ("rete.seq.vs1.match_us_per_change", "us"),
    ("rete.seq.vs2.match_us_per_change", "us"),
    ("rete.colmatch.match_us_per_change", "us"),
    ("psm.matcher.match_us_per_change", "us"),
    ("lispsim.matcher.match_us_per_change", "us"),
    ("rete.seq.vs2.match_us_per_change_b64", "us"),
    ("rete.colmatch.match_us_per_change_b64", "us"),
    ("rete.seq.vs2.allocs_per_change", "count"),
    ("rete.colmatch.allocs_per_change", "count"),
    ("psm.matcher.allocs_per_change", "count"),
    ("rete.join_activations_per_change", "count"),
    ("rete.null_activations_per_change", "count"),
    ("rete.tokens_examined_per_activation", "count"),
    ("rete.cs_changes_per_change", "count"),
    ("psm.queue.spins_per_acquire", "count"),
    ("psm.line.spins_per_acquire", "count"),
    ("psm.matcher.cpu_per_wall", "ratio"),
    ("psm.engine.changes_per_s", "1/s"),
    ("psm.trace.tasks_per_change", "count"),
    ("multimax.sim.speedup_p13", "ratio"),
    ("engine.interp.match_share", "ratio"),
    ("engine.interp.self_us_per_cycle", "us"),
    ("engine.interp.resolve_ns_per_cycle", "ns"),
    ("engine.interp.act_ns_per_cycle", "ns"),
    ("engine.cs.peak_len", "count"),
    ("engine.builder.build_us", "us"),
    ("engine.state.snapshot_us", "us"),
    ("engine.state.restore_us", "us"),
    ("engine.state.snapshot_bytes", "bytes"),
    ("serve.protocol.parse_ns_per_line", "ns"),
    ("serve.registry.build_us", "us"),
    ("serve.session.execute_us_per_cmd", "us"),
    ("serve.session.durable_extra_us_per_cmd", "us"),
    ("serve.session.journal_bytes_per_cmd", "bytes"),
    ("serve.session.checkpoints", "count"),
    ("serve.pool.hop_us_per_cmd", "us"),
    ("serve.pool.rejected_total", "count"),
    ("serve.server.wire_us_per_cmd", "us"),
    ("serve.client.open_p50_us", "us"),
    ("serve.client.run_p50_us", "us"),
    ("serve.client.run_p99_us", "us"),
    ("serve.client.write_p50_us", "us"),
    ("serve.client.read_p50_us", "us"),
    ("serve.client.read_p99_us", "us"),
    ("reactor.wakeups_per_cmd", "count"),
    ("reactor.read_bytes_per_cmd", "bytes"),
    ("reactor.write_bytes_per_cmd", "bytes"),
    ("serve.cpu_us_per_cmd", "us"),
    ("obs.trace_overhead_ratio", "ratio"),
];

/// `name value` out of a Prometheus text exposition.
fn scrape(metrics: &[String], name: &str) -> Option<f64> {
    metrics.iter().find_map(|l| {
        let rest = l.strip_prefix(name)?;
        rest.strip_prefix(' ')?.trim().parse().ok()
    })
}

fn verb_percentile(lat: &[(Verb, f64)], verbs: &[Verb], p: f64) -> Option<f64> {
    let mut v: Vec<f64> = lat
        .iter()
        .filter(|(verb, _)| verbs.contains(verb))
        .map(|(_, us)| *us)
        .collect();
    if v.is_empty() {
        return None;
    }
    v.sort_by(f64::total_cmp);
    Some(percentile(&v, p))
}

/// Samples per metric across passes.
#[derive(Default)]
struct Samples(BTreeMap<&'static str, Vec<f64>>);

impl Samples {
    fn push(&mut self, name: &'static str, v: f64) {
        self.0.entry(name).or_default().push(v);
    }
}

/// The workload's own end-to-end driver over all three matchers for a short
/// budget; returns its throughput in commands per second and psm's in WME
/// changes per second, and hands back its spans.
fn e2e_throughput(
    inputs: &Inputs,
    budget: Duration,
    nproc: usize,
    scratch: &Path,
    origin: Option<Instant>,
    out: &mut Outcome,
) -> Option<(f64, f64)> {
    let run = match inputs {
        Inputs::Direct(prog) => {
            direct::run(prog, &MATCHERS, budget, nproc, origin.map(Recorder::new))
        }
        served => served::run(served, budget, nproc, &MATCHERS, scratch, origin),
    };
    let rates = run
        .row("cmds_per_s")
        .zip(run.row("changes_per_s.psm"))
        .map(|(all, psm)| (all.value, psm.value));
    out.absorb(run);
    rates
}

pub fn run(inputs: &Inputs, budget: Duration, nproc: usize, scratch: &Path) -> Outcome {
    let mut out = Outcome::default();
    if let Err(e) = run_inner(inputs, budget, nproc, scratch, &mut out) {
        out.check(false, || e);
    }
    out
}

fn run_inner(
    inputs: &Inputs,
    budget: Duration,
    nproc: usize,
    scratch: &Path,
    out: &mut Outcome,
) -> Result<(), String> {
    let started = Instant::now();
    let origin = started;
    let mut samples = Samples::default();
    // A fixed slice of the budget for each timed side-run.
    let slice = budget.div_f64(8.0).max(Duration::from_millis(100));

    // (1) TCP shell: one connection of vs2 sessions (like for like with the
    // single-stream inner shells), server observability on, client spans.
    let tcp = served::measure(
        inputs,
        slice * 2,
        nproc,
        1,
        scratch,
        true,
        &["vs2"],
        Some(origin),
    )?;
    let cmds = tcp.lat.len().max(1) as f64;
    let tcp_mean_us = {
        let inner: Vec<f64> = tcp
            .lat
            .iter()
            .filter(|(v, _)| *v != Verb::Open)
            .map(|(_, us)| *us)
            .collect();
        inner.iter().sum::<f64>() / inner.len().max(1) as f64
    };
    for (name, verbs, p) in [
        ("serve.client.open_p50_us", &[Verb::Open][..], 50.0),
        ("serve.client.run_p50_us", &[Verb::Run][..], 50.0),
        ("serve.client.run_p99_us", &[Verb::Run][..], 99.0),
        ("serve.client.write_p50_us", &[Verb::Write][..], 50.0),
        ("serve.client.read_p50_us", &[Verb::Read][..], 50.0),
        ("serve.client.read_p99_us", &[Verb::Read][..], 99.0),
    ] {
        match verb_percentile(&tcp.lat, verbs, p) {
            Some(v) => samples.push(name, v),
            None => out.fail(format!("TCP shell sent no {verbs:?} command")),
        }
    }
    for (name, counter) in [
        ("reactor.wakeups_per_cmd", "reactor_wakeups_total"),
        ("reactor.read_bytes_per_cmd", "reactor_read_bytes_total"),
        ("reactor.write_bytes_per_cmd", "reactor_write_bytes_total"),
    ] {
        match scrape(&tcp.metrics, counter) {
            Some(v) => samples.push(name, v / cmds),
            None => out.fail(format!("METRICS? has no {counter}")),
        }
    }
    samples.push("serve.cpu_us_per_cmd", tcp.cpu_s * 1e6 / cmds);
    let mut tcp_outcome = tcp.outcome;
    out.sizes = std::mem::take(&mut tcp_outcome.sizes);
    out.absorb(tcp_outcome);

    // (2) Tracing overhead: the end-to-end driver, spans off then on.
    let plain = e2e_throughput(inputs, slice, nproc, scratch, None, out);
    let spanned = e2e_throughput(inputs, slice, nproc, scratch, Some(origin), out);
    match (plain, spanned) {
        (Some((a, psm)), Some((b, _))) if b > 0.0 => {
            samples.push("obs.trace_overhead_ratio", a / b);
            // psm under the whole engine (or server), where the end-to-end
            // pass runs vs2 and col only.
            samples.push("psm.engine.changes_per_s", psm);
        }
        _ => out.fail("the overhead pair produced no cmds_per_s".into()),
    }

    // (3) Layer passes, until the budget is spent.
    let progs = served::progs(inputs);
    let convs = &tcp.conversations;
    let durable_pool = matches!(inputs, Inputs::Steady { .. });
    let layer_spans = Arc::new(Mutex::new(Recorder::new(origin)));
    let mut clamped: BTreeMap<&'static str, u32> = BTreeMap::new();
    let mut passes = 0u32;
    let mut last_pass = Duration::ZERO;
    // Another pass starts only while at least half of it still fits.
    while passes == 0 || started.elapsed() + last_pass / 2 < budget {
        let pass_started = Instant::now();
        let mut ratios = Ratios::new();
        for (i, conv) in convs.iter().enumerate() {
            // One conversation per churn program; every steady connection's
            // conversation runs on the one steady program.
            let prog = progs[i.min(progs.len() - 1)];
            let how = match inputs {
                Inputs::Direct(_) => Drive::ToHalt,
                _ => Drive::Script(&conv.cmds),
            };
            // Spans from the first pass only: later passes repeat them.
            let log = (passes == 0).then_some(&layer_spans);
            let req = [passes, i as u32, 0];
            let (r, f) = layers::measure(prog, &how, nproc, log, req)?;
            layers::merge(&mut ratios, &r);
            let (r, g) = onion::measure(
                prog,
                conv,
                nproc,
                scratch,
                durable_pool,
                1000 + 10 * (passes as u64 * convs.len() as u64 + i as u64),
            )?;
            layers::merge(&mut ratios, &r);
            for failure in f.into_iter().chain(g) {
                out.fail(failure);
            }
        }
        out.check(true, String::new);

        let mean = |name: &str| layers::value(ratios.get(name).copied().unwrap_or((0.0, 1.0)));
        let (plain, durable, pool, base) = (
            mean("shell.execute_us"),
            mean("shell.durable_us"),
            mean("shell.pool_us"),
            mean("shell.pool_base_us"),
        );
        samples.push("serve.session.execute_us_per_cmd", plain);
        for (name, diff) in [
            (
                "serve.session.durable_extra_us_per_cmd",
                onion_diff(durable, plain),
            ),
            ("serve.pool.hop_us_per_cmd", onion_diff(pool, base)),
            (
                "serve.server.wire_us_per_cmd",
                onion_diff(tcp_mean_us, pool),
            ),
        ] {
            samples.push(name, diff.value);
            *clamped.entry(name).or_default() += diff.clamped as u32;
        }
        for (name, ratio) in &ratios {
            if !name.starts_with("shell.") {
                samples.push(name, layers::value(*ratio));
            }
        }
        passes += 1;
        last_pass = pass_started.elapsed();
    }
    out.sizes.push(("layer_passes", passes as u64));

    // Rows, in BENCHMARK.json order; a metric with no sample is a failure.
    for (name, unit) in PER_LAYER {
        let Some(v) = samples.0.get(name) else {
            out.fail(format!("no measurement for {name}"));
            out.rows.push(Row::single(name, unit, f64::NAN));
            continue;
        };
        let mut row = Row::median(name, unit, v);
        if repeat::is_deterministic(name) {
            let exact = v.iter().all(|x| *x == v[0]);
            out.check(exact, || format!("{name} differs between passes: {v:?}"));
        }
        if let Some(n) = clamped.get(name).filter(|n| **n > 0) {
            row = row.with_note(format!(
                "difference below zero in {n} of {passes} passes: clamped to 0 (below the noise floor)"
            ));
        }
        out.rows.push(row);
    }

    // The span file: layer self times must add up to their roots.
    let layer_log = Arc::try_unwrap(layer_spans)
        .map_err(|_| "span log still shared".to_string())?
        .into_inner()
        .map_err(|_| "span log poisoned".to_string())?;
    spans::merge(&mut out.spans, layer_log.into_spans());
    let coverage = spans::coverage(&out.spans);
    out.check((coverage - 1.0).abs() <= 0.05, || {
        format!("span self times cover {coverage:.3} of their roots (want 1 ± 0.05)")
    });
    out.notes
        .push("span <name> <count> <total ms> <self ms>".into());
    for (name, t) in spans::totals_by_name(&out.spans) {
        out.notes.push(format!(
            "span {name} {} {:.3} {:.3}",
            t.count,
            t.total_ns as f64 / 1e6,
            t.self_ns as f64 / 1e6
        ));
    }
    Ok(())
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn scrape_reads_plain_counters_only() {
        let m = vec![
            "# TYPE reactor_wakeups_total counter".to_string(),
            "reactor_wakeups_total 1234".to_string(),
            "reactor_wakeups_total_extra 9".to_string(),
            "serve_command_ns_bucket{le=\"1024\"} 5".to_string(),
        ];
        assert_eq!(scrape(&m, "reactor_wakeups_total"), Some(1234.0));
        assert_eq!(scrape(&m, "reactor_read_bytes_total"), None);
    }

    #[test]
    fn per_layer_names_are_unique_and_fit_the_contract() {
        let mut names: Vec<&str> = PER_LAYER.iter().map(|(n, _)| *n).collect();
        names.sort_unstable();
        names.dedup();
        assert_eq!(names.len(), PER_LAYER.len());
        for (n, u) in PER_LAYER {
            assert!(n.len() <= 64 && u.len() <= 16, "{n} {u}");
            assert!(n
                .chars()
                .all(|c| c.is_ascii_alphanumeric() || "_.-".contains(c)));
        }
    }

    #[test]
    fn verb_percentiles_split_the_latency_log() {
        let lat = vec![
            (Verb::Open, 900.0),
            (Verb::Run, 10.0),
            (Verb::Run, 30.0),
            (Verb::Read, 5.0),
        ];
        assert_eq!(verb_percentile(&lat, &[Verb::Run], 50.0), Some(10.0));
        assert_eq!(verb_percentile(&lat, &[Verb::Run], 99.0), Some(30.0));
        assert_eq!(verb_percentile(&lat, &[Verb::Open], 50.0), Some(900.0));
        assert_eq!(verb_percentile(&lat, &[Verb::Write], 50.0), None);
    }
}
