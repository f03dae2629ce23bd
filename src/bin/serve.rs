//! `ops5-serve` — the multi-session production-system server.
//!
//! Binds a TCP listener, loads the `programs/` corpus plus the generated
//! Rubik workload into the program registry, and serves the line protocol
//! (see `crates/serve/src/protocol.rs` or README.md) until a client sends
//! `SHUTDOWN`.
//!
//! ```text
//! Usage: ops5-serve [options]
//!
//!   --addr HOST:PORT         listen address (default 127.0.0.1:4805)
//!   --programs DIR           corpus directory (default programs)
//!   --workers N              worker threads (default 4)
//!   --queue-depth N          per-session inbox depth (default 16)
//!   --run-queue N            global run-queue capacity (default 1024)
//!   --max-cycles-per-run N   RUN clamp per command (default 10000)
//!   --run-slice N            preemption slice: a RUN executes at most N
//!                            cycles before its session is requeued behind
//!                            higher-priority work; 0 = no slicing
//!                            (default 0)
//!   --max-wm N               per-session working-memory cap
//!   --max-total-cycles N     per-session lifetime cycle budget
//!   --matcher vs1|vs2|lisp|psm|col   default session matcher (default vs2)
//!   --write-buf N            per-connection cap in bytes on replies not
//!                            yet written to the socket, before a slow
//!                            client is disconnected (default 262144)
//!   --metrics                enable the observability layer (METRICS?)
//!   --metrics-port P         also serve GET /metrics on 127.0.0.1:P
//!                            (0 = ephemeral; implies --metrics)
//!   --durability-dir DIR     per-session snapshot + change-log files, so
//!                            killed sessions recover via RESTORE
//!   --checkpoint-every N     firings between durability checkpoints
//!                            (default 256)
//! ```

use parallel_ops5::prelude::*;
use serve::matcher_kind;
use std::path::PathBuf;
use std::process::ExitCode;

fn parse_args() -> Result<(String, ServeConfig), String> {
    let mut addr = "127.0.0.1:4805".to_string();
    let mut cfg = ServeConfig {
        programs_dir: Some(PathBuf::from("programs")),
        ..ServeConfig::default()
    };
    let mut args = std::env::args().skip(1);
    let next_val = |args: &mut dyn Iterator<Item = String>, flag: &str| {
        args.next().ok_or_else(|| format!("{flag} needs a value"))
    };
    let parse = |s: String, flag: &str| s.parse::<u64>().map_err(|e| format!("{flag}: {e}"));
    while let Some(a) = args.next() {
        match a.as_str() {
            "--addr" => addr = next_val(&mut args, "--addr")?,
            "--programs" => {
                cfg.programs_dir = Some(PathBuf::from(next_val(&mut args, "--programs")?))
            }
            "--workers" => {
                cfg.workers = parse(next_val(&mut args, "--workers")?, "--workers")? as usize
            }
            "--queue-depth" => {
                cfg.queue_depth =
                    parse(next_val(&mut args, "--queue-depth")?, "--queue-depth")? as usize
            }
            "--run-queue" => {
                cfg.run_queue_cap =
                    parse(next_val(&mut args, "--run-queue")?, "--run-queue")? as usize
            }
            "--max-cycles-per-run" => {
                cfg.max_cycles_per_run = parse(
                    next_val(&mut args, "--max-cycles-per-run")?,
                    "--max-cycles-per-run",
                )?
            }
            "--run-slice" => {
                cfg.run_slice_cycles = parse(next_val(&mut args, "--run-slice")?, "--run-slice")?
            }
            "--max-wm" => {
                cfg.limits.max_wm =
                    Some(parse(next_val(&mut args, "--max-wm")?, "--max-wm")? as usize)
            }
            "--max-total-cycles" => {
                cfg.limits.max_cycles = Some(parse(
                    next_val(&mut args, "--max-total-cycles")?,
                    "--max-total-cycles",
                )?)
            }
            "--matcher" => cfg.matcher = matcher_kind(&next_val(&mut args, "--matcher")?)?,
            "--write-buf" => {
                cfg.write_buf_cap =
                    parse(next_val(&mut args, "--write-buf")?, "--write-buf")? as usize
            }
            "--metrics" => cfg.obs = ObsConfig::enabled(),
            "--durability-dir" => {
                cfg.durability_dir = Some(PathBuf::from(next_val(&mut args, "--durability-dir")?))
            }
            "--checkpoint-every" => {
                cfg.checkpoint_every = parse(
                    next_val(&mut args, "--checkpoint-every")?,
                    "--checkpoint-every",
                )?
            }
            "--metrics-port" => {
                cfg.obs = ObsConfig::enabled();
                cfg.metrics_port =
                    Some(parse(next_val(&mut args, "--metrics-port")?, "--metrics-port")? as u16)
            }
            other => return Err(format!("unknown option `{other}`")),
        }
    }
    Ok((addr, cfg))
}

fn main() -> ExitCode {
    let (addr, cfg) = match parse_args() {
        Ok(x) => x,
        Err(e) => {
            eprintln!("ops5-serve: {e}");
            return ExitCode::FAILURE;
        }
    };
    let server = match Server::bind(&addr, cfg) {
        Ok(s) => s,
        Err(e) => {
            eprintln!("ops5-serve: bind {addr}: {e}");
            return ExitCode::FAILURE;
        }
    };
    eprintln!("ops5-serve: listening on {}", server.local_addr());
    if let Some(m) = server.metrics_addr() {
        eprintln!("ops5-serve: metrics on http://{m}/metrics");
    }
    match server.run() {
        Ok(()) => {
            eprintln!("ops5-serve: shut down");
            ExitCode::SUCCESS
        }
        Err(e) => {
            eprintln!("ops5-serve: {e}");
            ExitCode::FAILURE
        }
    }
}
