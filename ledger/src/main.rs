//! `ledger` — the repo's one layered, repeatable benchmark.
//!
//! ```text
//! cargo run --release --manifest-path ledger/Cargo.toml -- \
//!     [--workload NAME] [--seed N] [--seconds S] [--trace 0|1] \
//!     [--smoke] [--check-repeat] [--json PATH] [--trace-out PATH]
//! ```
//!
//! `--trace 0` (default) measures the end-to-end metrics with every
//! instrument off; `--trace 1` is the separate traced pass that measures
//! each layer from outside. Without `--workload` the binary re-executes
//! itself once per workload, so `peak_rss_mb` and allocator state are per
//! workload. The last line of stdout is the driver's JSON object. See
//! `README.md` next to this package for the metric tables.

mod affinity;
mod alloc;
mod conv;
mod direct;
mod inputs;
mod layers;
mod onion;
mod repeat;
mod report;
mod served;
mod spans;
mod stats;
mod traced;

use inputs::{Inputs, Scale, E2E_MATCHERS};
use report::{Outcome, Record};
use std::path::PathBuf;
use std::process::ExitCode;
use std::time::Duration;

#[global_allocator]
static ALLOCATOR: alloc::CountingAlloc = alloc::CountingAlloc;

pub struct Opts {
    pub workload: Option<String>,
    pub seed: u64,
    pub seconds: f64,
    pub trace: bool,
    pub smoke: bool,
    pub check_repeat: bool,
    pub json: Option<PathBuf>,
    pub trace_out: Option<PathBuf>,
}

const USAGE: &str = "usage: ledger [--workload weaver|tourney|rubik|serve-churn|serve-steady] \
[--seed N] [--seconds S] [--trace 0|1] [--smoke] [--check-repeat] [--json PATH] [--trace-out PATH]";

fn parse_args(args: &[String]) -> Result<Opts, String> {
    let mut o = Opts {
        workload: None,
        seed: 42,
        seconds: 10.0,
        trace: false,
        smoke: false,
        check_repeat: false,
        json: None,
        trace_out: None,
    };
    let mut it = args.iter();
    while let Some(a) = it.next() {
        let mut value = || {
            it.next()
                .ok_or_else(|| format!("{a} needs a value\n{USAGE}"))
        };
        match a.as_str() {
            "--workload" => {
                let w = value()?;
                if !inputs::WORKLOADS.contains(&w.as_str()) {
                    return Err(format!("unknown workload `{w}`\n{USAGE}"));
                }
                o.workload = Some(w.clone());
            }
            "--seed" => o.seed = value()?.parse().map_err(|e| format!("--seed: {e}"))?,
            "--seconds" => {
                o.seconds = value()?.parse().map_err(|e| format!("--seconds: {e}"))?;
                if !(o.seconds > 0.0 && o.seconds <= 600.0) {
                    return Err("--seconds must be in (0, 600]".into());
                }
            }
            "--trace" => {
                o.trace = match value()?.as_str() {
                    "0" => false,
                    "1" => true,
                    other => return Err(format!("--trace takes 0 or 1, got `{other}`")),
                }
            }
            "--traced" => o.trace = true,
            "--smoke" => o.smoke = true,
            "--check-repeat" => o.check_repeat = true,
            "--json" => o.json = Some(PathBuf::from(value()?)),
            "--trace-out" => o.trace_out = Some(PathBuf::from(value()?)),
            "--help" | "-h" => return Err(USAGE.into()),
            other => return Err(format!("unknown argument `{other}`\n{USAGE}")),
        }
    }
    if o.smoke && !args.iter().any(|a| a == "--seconds") {
        // Five workloads, two passes each, inside ten seconds.
        o.seconds = 0.5;
    }
    Ok(o)
}

/// The ledger's scratch directory, inside the checkout it was started in
/// (the driver allows no write outside it). Removed on drop.
pub struct Scratch(pub PathBuf);

impl Scratch {
    fn new() -> std::io::Result<Scratch> {
        let dir = std::env::current_dir()?
            .join(".ledger_tmp")
            .join(std::process::id().to_string());
        std::fs::create_dir_all(&dir)?;
        Ok(Scratch(dir))
    }
}

impl Drop for Scratch {
    fn drop(&mut self) {
        let _ = std::fs::remove_dir_all(&self.0);
        // Last one out removes the parent; a non-empty parent just stays.
        if let Some(parent) = self.0.parent() {
            let _ = std::fs::remove_dir(parent);
        }
    }
}

/// Peak resident set of this process (`VmHWM`), in MiB.
pub fn peak_rss_mb() -> Option<f64> {
    let status = std::fs::read_to_string("/proc/self/status").ok()?;
    let kb: f64 = status
        .lines()
        .find_map(|l| l.strip_prefix("VmHWM:"))?
        .trim()
        .trim_end_matches("kB")
        .trim()
        .parse()
        .ok()?;
    Some(kb / 1024.0)
}

pub fn nproc() -> usize {
    std::thread::available_parallelism().map_or(1, |n| n.get())
}

fn run_one(opts: &Opts, workload: &str) -> Result<bool, String> {
    // The engine builder and the server read these knobs; a stray value in
    // the caller's environment must not change what is measured.
    for knob in [
        "OPS5_MATCHER",
        "OPS5_ACT",
        "OPS5_NETWORK_SHARING",
        "OPS5_NETWORK_UNLINKING",
        "OPS5_RUN_SLICE",
    ] {
        std::env::remove_var(knob);
    }
    let nproc = nproc();
    let scale = if opts.smoke {
        Scale::Smoke
    } else {
        Scale::Full
    };
    let conns = served::conns(nproc);
    let inputs = inputs::build(workload, opts.seed, scale, conns)
        .ok_or_else(|| format!("unknown workload `{workload}`"))?;
    let scratch = Scratch::new().map_err(|e| format!("scratch dir: {e}"))?;
    let budget = Duration::from_secs_f64(opts.seconds);

    let mut out: Outcome = if opts.trace {
        traced::run(&inputs, budget, nproc, &scratch.0)
    } else {
        match &inputs {
            Inputs::Direct(prog) => direct::run(prog, &E2E_MATCHERS, budget, nproc, None),
            served => served::run(served, budget, nproc, &E2E_MATCHERS, &scratch.0, None),
        }
    };

    let psm = direct::psm_config(nproc);
    let rec = Record {
        workload: workload.to_string(),
        seed: opts.seed,
        seconds: opts.seconds,
        traced: opts.trace,
        smoke: opts.smoke,
        git: Record::git_sha(),
        rustc: Record::rustc_version(),
        nproc,
        psm: format!("{}x{}", psm.match_processes, psm.queues),
        conns,
        workers: conns,
    };
    report::print_human(&rec, &out);
    if let Some(path) = &opts.json {
        std::fs::write(path, report::full_json(&rec, &out))
            .map_err(|e| format!("--json {}: {e}", path.display()))?;
    }
    if opts.trace {
        let path = opts
            .trace_out
            .clone()
            .unwrap_or_else(|| PathBuf::from(".ledger_tmp").join(format!("trace-{workload}.json")));
        if let Some(dir) = path.parent() {
            let _ = std::fs::create_dir_all(dir);
        }
        let spans = std::mem::take(&mut out.spans);
        std::fs::write(&path, spans::to_json(&spans))
            .map_err(|e| format!("--trace-out {}: {e}", path.display()))?;
        println!("# spans {} written to {}", spans.len(), path.display());
    }
    drop(scratch);
    println!("{}", report::result_line(&out));
    Ok(report::is_correct(&out))
}

fn main() -> ExitCode {
    let args: Vec<String> = std::env::args().skip(1).collect();
    let opts = match parse_args(&args) {
        Ok(o) => o,
        Err(e) => {
            eprintln!("{e}");
            return ExitCode::from(2);
        }
    };
    let result = if opts.check_repeat {
        repeat::check_repeat(&opts)
    } else if let Some(w) = opts.workload.clone() {
        run_one(&opts, &w)
    } else {
        repeat::run_all(&opts)
    };
    match result {
        Ok(true) => ExitCode::SUCCESS,
        Ok(false) => ExitCode::from(1),
        Err(e) => {
            eprintln!("ledger: {e}");
            ExitCode::from(2)
        }
    }
}
