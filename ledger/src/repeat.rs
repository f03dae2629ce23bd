//! Whole-suite modes: every workload in its own child process, and the
//! repeatability self-check (`--check-repeat`).

use crate::inputs::WORKLOADS;
use crate::Opts;
use std::collections::BTreeMap;
use std::process::Command;

#[derive(Debug, Clone, Copy, PartialEq)]
pub enum Better {
    Higher,
    Lower,
}

/// The end-to-end metrics, with the direction and regression bound
/// `BENCHMARK.json` declares (a test keeps the two in step).
pub const END_TO_END: [(&str, Better, f64); 8] = [
    ("changes_per_s.vs2", Better::Higher, 0.25),
    ("changes_per_s.col", Better::Higher, 0.25),
    ("cmds_per_s", Better::Higher, 0.25),
    ("cmd_p50_us", Better::Lower, 0.25),
    ("cmd_p99_us", Better::Lower, 0.25),
    ("sessions_per_s", Better::Higher, 0.25),
    ("setup_s", Better::Lower, 0.25),
    ("peak_rss_mb", Better::Lower, 0.2),
];

/// Layer counters that must repeat exactly between two runs of one commit.
pub fn is_deterministic(metric: &str) -> bool {
    matches!(
        metric,
        "rete.join_activations_per_change"
            | "rete.null_activations_per_change"
            | "rete.tokens_examined_per_activation"
            | "rete.cs_changes_per_change"
            | "rete.seq.vs2.allocs_per_change"
            | "rete.colmatch.allocs_per_change"
            | "rete.network.joins"
            | "multimax.sim.speedup_p13"
            | "psm.trace.tasks_per_change"
    )
}

/// One `metric ...` line of a child's report.
#[derive(Debug, Clone, PartialEq)]
pub struct Parsed {
    pub value: f64,
    pub unit: String,
    pub q1: f64,
    pub q3: f64,
}

/// Parses `metric <name> <value> <unit> q1=<a> q3=<b> ...`.
pub fn parse_metric_line(line: &str) -> Option<(String, Parsed)> {
    let mut it = line.split_whitespace();
    if it.next()? != "metric" {
        return None;
    }
    let name = it.next()?.to_string();
    let value = it.next()?.parse().ok()?;
    let unit = it.next()?.to_string();
    let q1 = it.next()?.strip_prefix("q1=")?.parse().ok()?;
    let q3 = it.next()?.strip_prefix("q3=")?.parse().ok()?;
    Some((
        name,
        Parsed {
            value,
            unit,
            q1,
            q3,
        },
    ))
}

/// What one child run reported.
pub struct Child {
    pub ok: bool,
    pub attempted: u64,
    pub failed: u64,
    pub metrics: BTreeMap<String, Parsed>,
}

fn json_u64(line: &str, key: &str) -> Option<u64> {
    let rest = line.split(&format!("\"{key}\": ")).nth(1)?;
    rest.split([',', '}']).next()?.trim().parse().ok()
}

/// Runs one (workload, pass) in a child process, echoing its report.
fn child(opts: &Opts, workload: &str, trace: bool) -> Result<Child, String> {
    let exe = std::env::current_exe().map_err(|e| format!("current_exe: {e}"))?;
    let mut cmd = Command::new(exe);
    cmd.args(["--workload", workload])
        .args(["--seed", &opts.seed.to_string()])
        .args(["--seconds", &opts.seconds.to_string()])
        .args(["--trace", if trace { "1" } else { "0" }]);
    if opts.smoke {
        cmd.arg("--smoke");
    }
    if let Some(path) = &opts.json {
        let pass = if trace { "traced" } else { "e2e" };
        cmd.arg("--json")
            .arg(path.with_extension(format!("{workload}.{pass}.json")));
    }
    let out = cmd.output().map_err(|e| format!("spawn {workload}: {e}"))?;
    let text = String::from_utf8_lossy(&out.stdout);
    let mut lines: Vec<&str> = text.lines().collect();
    let result = lines.pop().unwrap_or("");
    for l in &lines {
        println!("{l}");
    }
    eprint!("{}", String::from_utf8_lossy(&out.stderr));
    if !result.starts_with("{\"correct\"") {
        return Err(format!(
            "{workload} (trace={}) printed no result and exited with {}",
            trace as u8, out.status
        ));
    }
    Ok(Child {
        ok: out.status.success() && result.starts_with("{\"correct\": true"),
        attempted: json_u64(result, "attempted").unwrap_or(0),
        failed: json_u64(result, "failed").unwrap_or(0),
        metrics: lines.iter().filter_map(|l| parse_metric_line(l)).collect(),
    })
}

/// Which passes a whole-suite run makes: the one `--trace` selects, or both
/// under `--smoke` (whose job is to exercise every check quickly).
fn passes(opts: &Opts) -> Vec<bool> {
    if opts.smoke {
        vec![false, true]
    } else {
        vec![opts.trace]
    }
}

/// No `--workload`: one child per workload, rows merged under
/// `<workload>/<metric>`.
pub fn run_all(opts: &Opts) -> Result<bool, String> {
    let (mut ok, mut attempted, mut failed) = (true, 0, 0);
    let mut merged = Vec::new();
    for w in WORKLOADS {
        for trace in passes(opts) {
            let c = child(opts, w, trace)?;
            ok &= c.ok;
            attempted += c.attempted;
            failed += c.failed;
            for (name, p) in c.metrics {
                merged.push(format!(
                    "\"{w}/{name}\": {{\"value\": {}, \"unit\": \"{}\"}}",
                    p.value, p.unit
                ));
            }
        }
    }
    println!(
        "{{\"correct\": {ok}, \"attempted\": {attempted}, \"failed\": {failed}, \"metrics\": {{{}}}}}",
        merged.join(", ")
    );
    Ok(ok)
}

/// How much worse `b` is than `a`, as a share of `a` (negative = better).
pub fn worsening(better: Better, a: f64, b: f64) -> f64 {
    match better {
        Better::Higher => (a - b) / a,
        Better::Lower => (b - a) / a,
    }
}

/// One full set: both passes of every workload, in `order`.
fn full_set(opts: &Opts, order: &[&str]) -> Result<(bool, BTreeMap<String, Parsed>), String> {
    let mut all = BTreeMap::new();
    let mut ok = true;
    for w in order {
        for trace in [false, true] {
            let c = child(opts, w, trace)?;
            ok &= c.ok;
            all.extend(c.metrics.into_iter().map(|(k, v)| (format!("{w}/{k}"), v)));
        }
    }
    Ok((ok, all))
}

/// `--check-repeat`: two full sets back to back with the workload order
/// reversed in the second, then per-metric relative difference and IQR.
/// Fails when an end-to-end metric differs by more than its own bound (in
/// either direction: neither set is "the parent"), or a deterministic
/// counter differs at all.
pub fn check_repeat(opts: &Opts) -> Result<bool, String> {
    let forward: Vec<&str> = WORKLOADS.to_vec();
    let backward: Vec<&str> = WORKLOADS.iter().rev().copied().collect();
    let (ok_a, a) = full_set(opts, &forward)?;
    let (ok_b, b) = full_set(opts, &backward)?;
    let mut ok = ok_a && ok_b;
    println!("# check-repeat: metric  set-A  set-B  rel.diff  rel.IQR(A)  verdict");
    for (key, pa) in &a {
        let Some(pb) = b.get(key) else {
            println!("repeat {key} missing from the second set  FAIL");
            ok = false;
            continue;
        };
        let metric = key.split_once('/').map_or(key.as_str(), |(_, m)| m);
        let diff = if pa.value == pb.value {
            0.0
        } else {
            (pb.value - pa.value) / pa.value.abs().max(f64::MIN_POSITIVE)
        };
        let iqr = (pa.q3 - pa.q1) / pa.value.abs().max(f64::MIN_POSITIVE);
        let verdict =
            if let Some((_, better, bound)) = END_TO_END.iter().find(|(n, _, _)| *n == metric) {
                let worst = worsening(*better, pa.value, pb.value)
                    .max(worsening(*better, pb.value, pa.value));
                if worst > *bound {
                    ok = false;
                    "FAIL (beyond its bound)"
                } else {
                    "ok"
                }
            } else if is_deterministic(metric) {
                if pa.value != pb.value {
                    ok = false;
                    "FAIL (deterministic counter moved)"
                } else {
                    "exact"
                }
            } else {
                "-"
            };
        println!(
            "repeat {key} {} {} {:+.4} {:.4} {verdict}",
            pa.value, pb.value, diff, iqr
        );
    }
    println!("# check-repeat {}", if ok { "PASSED" } else { "FAILED" });
    Ok(ok)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn metric_lines_round_trip() {
        let line = "metric cmd_p99_us 412.5 us q1=80 q3=120.25 min=1 max=9000 n=1000  # note";
        let (name, p) = parse_metric_line(line).unwrap();
        assert_eq!(name, "cmd_p99_us");
        assert_eq!(
            p,
            Parsed {
                value: 412.5,
                unit: "us".into(),
                q1: 80.0,
                q3: 120.25
            }
        );
        assert!(parse_metric_line("# inputs rules=3").is_none());
        assert!(parse_metric_line("metric x").is_none());
        let result = "{\"correct\": true, \"attempted\": 120, \"failed\": 3, \"metrics\": {}}";
        assert_eq!(json_u64(result, "attempted"), Some(120));
        assert_eq!(json_u64(result, "failed"), Some(3));
    }

    #[test]
    fn worsening_follows_the_metric_direction() {
        assert!((worsening(Better::Higher, 100.0, 90.0) - 0.10).abs() < 1e-12);
        assert!(worsening(Better::Higher, 100.0, 110.0) < 0.0);
        assert!((worsening(Better::Lower, 100.0, 115.0) - 0.15).abs() < 1e-12);
        assert!(worsening(Better::Lower, 100.0, 80.0) < 0.0);
    }

    /// `BENCHMARK.json` and the code agree on the end-to-end metrics, their
    /// direction and their bounds, and on the workload names.
    #[test]
    fn benchmark_json_matches_the_code() {
        let json = include_str!("../../BENCHMARK.json");
        for (name, better, bound) in END_TO_END {
            let dir = match better {
                Better::Higher => "higher",
                Better::Lower => "lower",
            };
            let needle = format!("\"name\": \"{name}\"");
            let at = json
                .find(&needle)
                .unwrap_or_else(|| panic!("{name} missing"));
            let entry = &json[at..json[at..].find('}').map_or(json.len(), |e| at + e)];
            assert!(entry.contains(&format!("\"better\": \"{dir}\"")), "{entry}");
            assert!(entry.contains(&format!("\"bound\": {bound}")), "{entry}");
        }
        for w in WORKLOADS {
            assert!(json.contains(&format!("{{\"name\": \"{w}\"")), "{w}");
        }
        for (m, _) in crate::traced::PER_LAYER {
            assert!(json.contains(&format!("\"name\": \"{m}\"")), "{m}");
        }
    }
}
