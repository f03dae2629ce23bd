//! `serve_load` — closed-loop load generator for the serve layer.
//!
//! Default mode runs a closed-loop workload against an in-process server
//! and gates on zero divergences: N concurrent connections x M iterations,
//! each iteration opening a session from the corpus rotation, running it
//! to halt in chunked `RUN`s, and diffing the firing log against a direct
//! in-process engine run of the same program. Backpressure is exercised
//! both ways (`BUSY` retry under a deliberately small run queue, and an
//! `OVERLOADED` saturation probe).
//!
//! `--high-concurrency` adds two more phases:
//!
//! * **reactor-hc** — spawns `ops5-serve` as a child
//!   process (the fd budget wants its own process), establishes
//!   `--hc-connections` (default 10000) concurrent connections from a
//!   single nonblocking driver thread, confirms concurrency by scraping
//!   `serve_connections_open` from the child's `/metrics`, then drives a
//!   micro session on every connection. All reply streams must be
//!   byte-identical to a reference session (zero divergence).
//! * **routed** — spawns two backend processes, fronts them with an
//!   in-process `ops5-router`, drives sessions through the ring, and
//!   mid-run issues `ADMIN DRAIN 0`, which live-migrates backend 0's
//!   sessions to backend 1 via `SNAPSHOT?`/`RESTORE`. Firing logs must
//!   still diff clean against the direct-engine references.
//!
//! Prints a summary per phase and writes `BENCH_serve.json` as
//! `{"rows": [...]}` — one row per phase.
//!
//! `--kill-recover` switches to the durability gate (unchanged): sessions
//! are killed without `CLOSE` and recovered via `RESTORE` from their
//! on-disk snapshot + change-log.
//!
//! `--priorities` switches to the scheduling gate: a saturating `batch`
//! background load against an in-process server with small preemption
//! slices, foreground `high`/`normal` sessions issuing the same command
//! shapes, a mid-run `CANCEL`, and a `clamped=`/`PRIO` protocol check.
//! Gates: 0 firing-log divergences (every sliced, preempted, cancelled-
//! then-resumed run must match the direct engine) and high-class p99 RUN
//! latency below batch-class p99.
//!
//! ```text
//! Usage: serve_load [--connections N] [--iterations M] [--workers W]
//!                   [--programs DIR] [--json PATH]
//!                   [--high-concurrency] [--hc-connections N]
//!                   [--routed-connections N] [--backend-bin PATH]
//!                   [--kill-recover] [--matchers vs1,vs2,lisp,psm,col]
//!                   [--priorities]
//! ```

use reactor::{Events, Interest, LineBuf, Poll, Token, WriteBuf};
use serve::{Client, ClientReply, Registry, Router, RouterConfig, ServeConfig, Server, Session};
use std::collections::HashMap;
use std::io::{BufRead, BufReader, Read, Write};
use std::net::{SocketAddr, TcpStream};
use std::os::unix::io::AsRawFd;
use std::path::{Path, PathBuf};
use std::process::{Child, Command, Stdio};
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::{Arc, Barrier, Mutex};
use std::time::{Duration, Instant};

struct Opts {
    connections: usize,
    iterations: usize,
    workers: usize,
    programs: PathBuf,
    json: PathBuf,
    kill_recover: bool,
    priorities: bool,
    matchers: Vec<String>,
    high_concurrency: bool,
    hc_connections: usize,
    routed_connections: usize,
    backend_bin: Option<PathBuf>,
}

fn parse_args() -> Result<Opts, String> {
    let mut o = Opts {
        connections: 32,
        iterations: 2,
        workers: 4,
        programs: PathBuf::from("programs"),
        json: PathBuf::from("BENCH_serve.json"),
        kill_recover: false,
        priorities: false,
        matchers: ["vs1", "vs2", "lisp", "psm", "col"]
            .iter()
            .map(|s| s.to_string())
            .collect(),
        high_concurrency: false,
        hc_connections: 10_000,
        routed_connections: 64,
        backend_bin: None,
    };
    let mut args = std::env::args().skip(1);
    while let Some(a) = args.next() {
        let mut val = || args.next().ok_or_else(|| format!("{a} needs a value"));
        match a.as_str() {
            "--connections" => o.connections = val()?.parse().map_err(|e| format!("{e}"))?,
            "--iterations" => o.iterations = val()?.parse().map_err(|e| format!("{e}"))?,
            "--workers" => o.workers = val()?.parse().map_err(|e| format!("{e}"))?,
            "--programs" => o.programs = PathBuf::from(val()?),
            "--json" => o.json = PathBuf::from(val()?),
            "--kill-recover" => o.kill_recover = true,
            "--priorities" => o.priorities = true,
            "--matchers" => o.matchers = val()?.split(',').map(|s| s.to_string()).collect(),
            "--high-concurrency" => o.high_concurrency = true,
            "--hc-connections" => o.hc_connections = val()?.parse().map_err(|e| format!("{e}"))?,
            "--routed-connections" => {
                o.routed_connections = val()?.parse().map_err(|e| format!("{e}"))?
            }
            "--backend-bin" => o.backend_bin = Some(PathBuf::from(val()?)),
            other => return Err(format!("unknown option `{other}`")),
        }
    }
    Ok(o)
}

#[derive(Default)]
struct Counters {
    sessions: AtomicU64,
    commands: AtomicU64,
    cycles: AtomicU64,
    busy_retries: AtomicU64,
    divergences: AtomicU64,
}

/// Sends a request, retrying on backpressure (the closed-loop client's
/// contract: a `BUSY` reply means "come back", not "give up").
fn req_retry(c: &mut Client, line: &str, n: &Counters) -> std::io::Result<ClientReply> {
    loop {
        let reply = c.request(line)?;
        if reply.is_backpressure() {
            n.busy_retries.fetch_add(1, Ordering::Relaxed);
            std::thread::sleep(Duration::from_micros(500));
            continue;
        }
        n.commands.fetch_add(1, Ordering::Relaxed);
        return Ok(reply);
    }
}

fn field<'a>(payload: &'a str, key: &str) -> Option<&'a str> {
    payload
        .split_whitespace()
        .find_map(|kv| kv.strip_prefix(key).and_then(|r| r.strip_prefix('=')))
}

/// One session lifecycle; returns this session's firing log.
fn drive_session(
    c: &mut Client,
    program: &str,
    n: &Counters,
    lat: &mut Vec<f64>,
) -> Result<Vec<String>, String> {
    let t0 = Instant::now();
    c.open(program, Some("psm"))
        .map_err(|e| e.to_string())?
        .expect_ok()?;
    lat.push(t0.elapsed().as_secs_f64() * 1e3);
    n.commands.fetch_add(1, Ordering::Relaxed);
    n.sessions.fetch_add(1, Ordering::Relaxed);
    for _ in 0..200 {
        let t0 = Instant::now();
        let payload = req_retry(c, "RUN 2000", n)
            .map_err(|e| e.to_string())?
            .expect_ok()?;
        lat.push(t0.elapsed().as_secs_f64() * 1e3);
        let cycles: u64 = field(&payload, "cycles")
            .and_then(|v| v.parse().ok())
            .ok_or_else(|| format!("bad RUN reply `{payload}`"))?;
        n.cycles.fetch_add(cycles, Ordering::Relaxed);
        match field(&payload, "reason") {
            Some("halt") | Some("quiescent") | Some("budget") => break,
            Some("limit") | Some("settled") => continue,
            other => return Err(format!("bad reason {other:?} in `{payload}`")),
        }
    }
    let fired = req_retry(c, "FIRED?", n)
        .map_err(|e| e.to_string())?
        .expect_lines()?;
    req_retry(c, "CLOSE", n)
        .map_err(|e| e.to_string())?
        .expect_ok()?;
    Ok(fired)
}

/// Reference firing logs from direct in-process engine runs — the ground
/// truth the served sessions are diffed against.
fn references(programs: &Path, names: &[&str]) -> HashMap<String, Vec<String>> {
    let reg = Registry::with_builtins(Some(programs));
    let mut map = HashMap::new();
    for name in names {
        let spec = reg.get(name).unwrap_or_else(|| panic!("missing {name}"));
        let mut eng = spec
            .build(
                serve::matcher_kind("psm").unwrap(),
                Default::default(),
                None,
            )
            .expect("build reference engine");
        eng.run(400_000).expect("reference run");
        let lines: Vec<String> = eng
            .fired_log()
            .iter()
            .map(|(p, tags)| {
                let t: Vec<String> = tags.iter().map(|x| x.to_string()).collect();
                format!("{} {}", eng.prog.prod_name(*p), t.join(" "))
            })
            .collect();
        map.insert(name.to_string(), lines);
    }
    map
}

/// Pipelines a burst of commands at a wedged session without draining
/// replies, forcing the per-session inbox over its depth. Returns how many
/// `OVERLOADED` replies came back.
fn saturation_probe(addr: SocketAddr) -> Result<u64, String> {
    let mut c = Client::connect(addr).map_err(|e| e.to_string())?;
    let spin = "(literalize c n)
                (p spin (c ^n <n>) --> (modify 1 ^n (compute <n> + 1)))";
    c.open_source(spin, Some("vs2"))
        .map_err(|e| e.to_string())?
        .expect_ok()?;
    c.assert_wme("c ^n 0").map_err(|e| e.to_string())?.unwrap();
    // Wedge the session's worker on a long run, then flood the inbox.
    let burst = 96;
    c.send_line("RUN 10000").map_err(|e| e.to_string())?;
    for i in 0..burst {
        c.send_line(&format!("ASSERT c ^n {i}"))
            .map_err(|e| e.to_string())?;
    }
    let mut overloaded = 0;
    for _ in 0..burst + 1 {
        if matches!(
            c.read_reply().map_err(|e| e.to_string())?,
            ClientReply::Overloaded(_)
        ) {
            overloaded += 1;
        }
    }
    let _ = c.close();
    Ok(overloaded)
}

/// Runs one program to completion on a direct in-process engine and
/// returns its firing log lines — the ground truth for recovery diffs.
fn reference_fired(reg: &Registry, program: &str, matcher: &str) -> Result<Vec<String>, String> {
    let spec = reg
        .get(program)
        .ok_or_else(|| format!("unknown program `{program}`"))?;
    let mut eng = spec
        .build(serve::matcher_kind(matcher)?, Default::default(), None)
        .map_err(|e| e.to_string())?;
    eng.run(400_000).map_err(|e| e.to_string())?;
    Ok(eng
        .fired_log()
        .iter()
        .map(|(p, tags)| {
            let t: Vec<String> = tags.iter().map(|x| x.to_string()).collect();
            format!("{} {}", eng.prog.prod_name(*p), t.join(" "))
        })
        .collect())
}

/// One kill-recover check: drive a durable session partway in small `RUN`
/// chunks, vanish without `CLOSE`, recover from the on-disk snapshot +
/// change-log via `RESTORE`, finish the run, and diff the recovered firing
/// log against `reference`. Returns an error describing the divergence, if
/// any.
fn kill_recover_one(
    programs: &Path,
    program: &str,
    matcher: &str,
    reference: &[String],
) -> Result<(), String> {
    let state = std::env::temp_dir().join(format!(
        "serve-kr-{}-{program}-{matcher}",
        std::process::id()
    ));
    let _ = std::fs::remove_dir_all(&state);
    let cfg = ServeConfig {
        workers: 2,
        durability_dir: Some(state.clone()),
        // Low water mark: mid-run checkpoints *and* log-tail replay both
        // get exercised on every program.
        checkpoint_every: 32,
        programs_dir: Some(programs.to_path_buf()),
        ..ServeConfig::default()
    };
    let handle = Server::bind("127.0.0.1:0", cfg)
        .map_err(|e| e.to_string())?
        .spawn();

    {
        // The doomed session: partial progress in small chunks, then the
        // connection is dropped with no CLOSE — the simulated kill. Every
        // completed command's records are already flushed to disk.
        let mut c = Client::connect(handle.addr).map_err(|e| e.to_string())?;
        c.open(program, Some(matcher))
            .map_err(|e| e.to_string())?
            .expect_ok()?;
        for _ in 0..3 {
            let payload = c
                .request("RUN 50")
                .map_err(|e| e.to_string())?
                .expect_ok()?;
            if field(&payload, "reason") != Some("limit") {
                break;
            }
        }
    }

    let snap = std::fs::read_to_string(Session::snap_path(&state, 1))
        .map_err(|e| format!("read snapshot: {e}"))?;
    let log = std::fs::read_to_string(Session::log_path(&state, 1))
        .map_err(|e| format!("read change log: {e}"))?;

    let mut c = Client::connect(handle.addr).map_err(|e| e.to_string())?;
    c.restore(program, Some(matcher), &format!("{snap}{log}"))
        .map_err(|e| e.to_string())?
        .expect_ok()?;
    for _ in 0..400 {
        let payload = c
            .request("RUN 2000")
            .map_err(|e| e.to_string())?
            .expect_ok()?;
        match field(&payload, "reason") {
            Some("limit") | Some("settled") => continue,
            Some(_) => break,
            None => return Err(format!("bad RUN reply `{payload}`")),
        }
    }
    let fired = c
        .request("FIRED?")
        .map_err(|e| e.to_string())?
        .expect_lines()?;
    let _ = c.close();
    let mut shut = Client::connect(handle.addr).map_err(|e| e.to_string())?;
    let _ = shut.shutdown();
    handle.join().map_err(|e| e.to_string())?;
    let _ = std::fs::remove_dir_all(&state);

    if fired != reference {
        let first_diff = fired
            .iter()
            .zip(reference.iter())
            .position(|(a, b)| a != b)
            .unwrap_or(fired.len().min(reference.len()));
        return Err(format!(
            "{} recovered firings vs {} reference (first diff at {})",
            fired.len(),
            reference.len(),
            first_diff
        ));
    }
    Ok(())
}

/// The `--kill-recover` durability gate; returns the number of divergences.
fn kill_recover_main(opts: &Opts, corpus: &[&str]) -> u64 {
    let reg = Registry::with_builtins(Some(&opts.programs));
    let mut divergences = 0u64;
    let mut checks = 0u64;
    let t0 = Instant::now();
    for program in corpus {
        for matcher in &opts.matchers {
            checks += 1;
            let outcome = reference_fired(&reg, program, matcher)
                .and_then(|r| kill_recover_one(&opts.programs, program, matcher, &r));
            match outcome {
                Ok(()) => eprintln!("serve_load: kill-recover {program}/{matcher}: clean"),
                Err(e) => {
                    eprintln!("serve_load: DIVERGENCE {program}/{matcher}: {e}");
                    divergences += 1;
                }
            }
        }
    }
    let elapsed = t0.elapsed().as_secs_f64();
    println!("== serve_load --kill-recover ==");
    println!(
        "checks {checks} ({} programs x {} matchers)  divergences {divergences}  elapsed {elapsed:.2}s",
        corpus.len(),
        opts.matchers.len()
    );
    let json = format!(
        "{{\n  \"mode\": \"kill-recover\",\n  \"checks\": {checks},\n  \
         \"divergences\": {divergences},\n  \"elapsed_s\": {elapsed:.3}\n}}\n"
    );
    if let Err(e) = std::fs::write(&opts.json, json) {
        eprintln!("serve_load: write {}: {e}", opts.json.display());
    }
    divergences
}

fn percentile(sorted: &[f64], p: f64) -> f64 {
    if sorted.is_empty() {
        return 0.0;
    }
    let idx = ((sorted.len() - 1) as f64 * p).round() as usize;
    sorted[idx]
}

/// One closed-loop run against an in-process server. Returns (JSON row,
/// divergence count).
fn closed_loop(
    opts: &Opts,
    corpus: &[&'static str],
    refs: &Arc<HashMap<String, Vec<String>>>,
) -> (String, u64) {
    eprintln!(
        "serve_load[reactor]: {} connections x {} iterations over {corpus:?}",
        opts.connections, opts.iterations
    );

    // Run queue deliberately smaller than the connection count so the
    // closed-loop clients exercise BUSY-and-retry under saturation.
    let cfg = ServeConfig {
        workers: opts.workers,
        queue_depth: 8,
        run_queue_cap: (opts.connections / 2).max(4),
        max_cycles_per_run: 10_000,
        matcher: serve::matcher_kind("psm").unwrap(),
        programs_dir: Some(opts.programs.clone()),
        ..ServeConfig::default()
    };
    let run_queue_cap = cfg.run_queue_cap;
    let handle = Server::bind("127.0.0.1:0", cfg).expect("bind").spawn();
    let addr = handle.addr;

    let n = Arc::new(Counters::default());
    let latencies = Arc::new(Mutex::new(Vec::<f64>::new()));
    let t0 = Instant::now();
    let iterations = opts.iterations;
    let corpus_owned: Vec<&'static str> = corpus.to_vec();
    let threads: Vec<_> = (0..opts.connections)
        .map(|ci| {
            let n = n.clone();
            let refs = refs.clone();
            let latencies = latencies.clone();
            let corpus = corpus_owned.clone();
            std::thread::spawn(move || {
                let mut lat = Vec::new();
                let mut c = Client::connect(addr).expect("connect");
                for it in 0..iterations {
                    let program = corpus[(ci + it) % corpus.len()];
                    match drive_session(&mut c, program, &n, &mut lat) {
                        Ok(fired) => {
                            if fired != refs[program] {
                                eprintln!(
                                    "serve_load: DIVERGENCE conn {ci} iter {it} program {program}: \
                                     {} fired vs {} reference",
                                    fired.len(),
                                    refs[program].len()
                                );
                                n.divergences.fetch_add(1, Ordering::Relaxed);
                            }
                        }
                        Err(e) => {
                            eprintln!("serve_load: conn {ci} iter {it} {program}: {e}");
                            n.divergences.fetch_add(1, Ordering::Relaxed);
                        }
                    }
                }
                latencies.lock().unwrap().extend(lat);
            })
        })
        .collect();
    for t in threads {
        t.join().expect("client thread");
    }
    let elapsed = t0.elapsed().as_secs_f64();

    let overloaded = match saturation_probe(addr) {
        Ok(x) => x,
        Err(e) => {
            eprintln!("serve_load: saturation probe: {e}");
            0
        }
    };

    let mut shut = Client::connect(addr).expect("connect");
    shut.shutdown().expect("shutdown").expect_ok().expect("ok");
    handle.join().expect("server join");

    let mut lat = latencies.lock().unwrap().clone();
    lat.sort_by(|a, b| a.partial_cmp(b).unwrap());
    let (p50, p90, p99) = (
        percentile(&lat, 0.50),
        percentile(&lat, 0.90),
        percentile(&lat, 0.99),
    );
    let max_lat = lat.last().copied().unwrap_or(0.0);
    let sessions = n.sessions.load(Ordering::Relaxed);
    let commands = n.commands.load(Ordering::Relaxed);
    let cycles = n.cycles.load(Ordering::Relaxed);
    let busy = n.busy_retries.load(Ordering::Relaxed);
    let divergences = n.divergences.load(Ordering::Relaxed);

    println!("== serve_load [reactor] ==");
    println!("sessions {sessions}  commands {commands}  cycles {cycles}  elapsed {elapsed:.2}s");
    println!(
        "throughput: {:.0} commands/s, {:.0} cycles/s, {:.1} sessions/s",
        commands as f64 / elapsed,
        cycles as f64 / elapsed,
        sessions as f64 / elapsed
    );
    println!("latency ms: p50 {p50:.2}  p90 {p90:.2}  p99 {p99:.2}  max {max_lat:.2}");
    println!("backpressure: {busy} busy/overloaded retries, {overloaded} overloaded (probe)");
    println!("divergences: {divergences}");

    let row = format!(
        "{{\"mode\": \"reactor\",\n   \
         \"config\": {{\"connections\": {}, \"iterations\": {}, \"workers\": {}, \
         \"queue_depth\": 8, \"run_queue_cap\": {}, \"matcher\": \"psm\"}},\n   \
         \"totals\": {{\"sessions\": {sessions}, \"commands\": {commands}, \"cycles\": {cycles}, \
         \"elapsed_s\": {elapsed:.3}}},\n   \
         \"throughput\": {{\"commands_per_s\": {:.1}, \"cycles_per_s\": {:.1}, \
         \"sessions_per_s\": {:.2}}},\n   \
         \"latency_ms\": {{\"p50\": {p50:.3}, \"p90\": {p90:.3}, \"p99\": {p99:.3}, \
         \"max\": {max_lat:.3}}},\n   \
         \"backpressure\": {{\"busy_retries\": {busy}, \"overloaded_probe\": {overloaded}}},\n   \
         \"divergences\": {divergences}}}",
        opts.connections,
        opts.iterations,
        opts.workers,
        run_queue_cap,
        commands as f64 / elapsed,
        cycles as f64 / elapsed,
        sessions as f64 / elapsed,
    );
    (row, divergences)
}

// ---------------------------------------------------------------------------
// Spawned backend processes (the fd budget of the 10k-connection phase and
// the multi-process shard set both want real `ops5-serve` children).
// ---------------------------------------------------------------------------

struct BackendProc {
    child: Child,
    addr: SocketAddr,
    metrics: Option<SocketAddr>,
}

impl BackendProc {
    /// Asks the backend to shut down cleanly; kills it if that fails.
    fn stop(mut self) {
        let clean = Client::connect(self.addr)
            .and_then(|mut c| c.shutdown())
            .is_ok();
        if clean {
            let deadline = Instant::now() + Duration::from_secs(10);
            while Instant::now() < deadline {
                match self.child.try_wait() {
                    Ok(Some(_)) => return,
                    Ok(None) => std::thread::sleep(Duration::from_millis(50)),
                    Err(_) => break,
                }
            }
        }
        let _ = self.child.kill();
        let _ = self.child.wait();
    }
}

/// Locates the `ops5-serve` binary: `--backend-bin`, or a sibling of the
/// running executable (both live in the same cargo target directory).
fn backend_bin(opts: &Opts) -> Result<PathBuf, String> {
    if let Some(p) = &opts.backend_bin {
        return Ok(p.clone());
    }
    let me = std::env::current_exe().map_err(|e| format!("current_exe: {e}"))?;
    let sibling = me.with_file_name("ops5-serve");
    if sibling.exists() {
        return Ok(sibling);
    }
    Err(format!(
        "ops5-serve not found at {} — build it (cargo build --release) or pass --backend-bin",
        sibling.display()
    ))
}

/// Spawns an `ops5-serve` child and parses its listen
/// (and optionally metrics) address off stderr.
fn spawn_backend(bin: &Path, opts: &Opts, with_metrics: bool) -> Result<BackendProc, String> {
    let mut cmd = Command::new(bin);
    cmd.arg("--addr")
        .arg("127.0.0.1:0")
        .arg("--programs")
        .arg(&opts.programs)
        .arg("--workers")
        .arg(opts.workers.to_string())
        .stdin(Stdio::null())
        .stdout(Stdio::null())
        .stderr(Stdio::piped());
    if with_metrics {
        cmd.arg("--metrics-port").arg("0");
    }
    let mut child = cmd
        .spawn()
        .map_err(|e| format!("spawn {}: {e}", bin.display()))?;
    let stderr = child.stderr.take().expect("piped stderr");
    let mut reader = BufReader::new(stderr);
    let mut addr: Option<SocketAddr> = None;
    let mut metrics: Option<SocketAddr> = None;
    let deadline = Instant::now() + Duration::from_secs(30);
    while Instant::now() < deadline {
        let mut line = String::new();
        match reader.read_line(&mut line) {
            Ok(0) => break,
            Ok(_) => {}
            Err(e) => return Err(format!("read backend stderr: {e}")),
        }
        let line = line.trim();
        if let Some(rest) = line.strip_prefix("ops5-serve: listening on ") {
            addr = rest.parse().ok();
        }
        if let Some(rest) = line.strip_prefix("ops5-serve: metrics on http://") {
            metrics = rest.trim_end_matches("/metrics").parse().ok();
        }
        if let Some(addr) = addr {
            if with_metrics && metrics.is_none() {
                continue;
            }
            // Keep draining stderr so the child never blocks on the pipe.
            std::thread::spawn(move || {
                let mut sink = String::new();
                loop {
                    sink.clear();
                    match reader.read_line(&mut sink) {
                        Ok(0) | Err(_) => break,
                        Ok(_) => {}
                    }
                }
            });
            return Ok(BackendProc {
                child,
                addr,
                metrics,
            });
        }
    }
    let _ = child.kill();
    let _ = child.wait();
    Err("backend did not report a listen address within 30s".into())
}

/// One `GET /metrics` scrape; returns the value of an un-labelled series.
fn scrape_metric(addr: SocketAddr, name: &str) -> Option<i64> {
    let mut s = TcpStream::connect(addr).ok()?;
    let _ = s.set_read_timeout(Some(Duration::from_secs(5)));
    s.write_all(b"GET /metrics HTTP/1.0\r\n\r\n").ok()?;
    let mut body = String::new();
    s.read_to_string(&mut body).ok()?;
    for line in body.lines() {
        let mut parts = line.split_whitespace();
        if parts.next() == Some(name) {
            return parts
                .next()
                .and_then(|v| v.parse::<f64>().ok())
                .map(|v| v as i64);
        }
    }
    None
}

// ---------------------------------------------------------------------------
// High-concurrency phase: 10k+ connections from one nonblocking driver.
// ---------------------------------------------------------------------------

/// The micro session every high-concurrency connection runs. Request 0
/// carries the whole inline-program body; the rest are single lines.
fn hc_script() -> Vec<String> {
    vec![
        "OPEN - vs2\n(literalize ping n)\n(p pong (ping ^n <n>) --> (remove 1))\nEND\n".into(),
        "ASSERT ping ^n 1\n".into(),
        "ASSERT ping ^n 2\n".into(),
        "ASSERT ping ^n 3\n".into(),
        "RUN 10\n".into(),
        "FIRED?\n".into(),
        "CLOSE\n".into(),
    ]
}

struct HcConn {
    stream: TcpStream,
    rd: LineBuf,
    wr: WriteBuf,
    interest: Interest,
    cursor: usize,
    awaiting: bool,
    in_multi: bool,
    cur: Vec<String>,
    replies: Vec<String>,
    not_before: Instant,
    done: bool,
    failed: Option<String>,
}

impl HcConn {
    fn new(stream: TcpStream, now: Instant) -> HcConn {
        HcConn {
            stream,
            rd: LineBuf::new(),
            wr: WriteBuf::new(),
            interest: Interest::READABLE,
            cursor: 0,
            awaiting: false,
            in_multi: false,
            cur: Vec::new(),
            replies: Vec::new(),
            not_before: now,
            done: false,
            failed: None,
        }
    }
}

/// Runs `script` once over a blocking connection and returns the
/// normalized reply stream — the reference every driver connection must
/// reproduce byte-for-byte.
fn hc_reference(addr: SocketAddr, script: &[String]) -> Result<Vec<String>, String> {
    let mut s = TcpStream::connect(addr).map_err(|e| e.to_string())?;
    let _ = s.set_nodelay(true);
    let _ = s.set_read_timeout(Some(Duration::from_secs(30)));
    let mut rd = LineBuf::new();
    let mut replies = Vec::new();
    for (i, req) in script.iter().enumerate() {
        loop {
            s.write_all(req.as_bytes()).map_err(|e| e.to_string())?;
            let mut lines = Vec::new();
            loop {
                let line = loop {
                    if let Some(l) = rd.next_line() {
                        break l;
                    }
                    match rd.read_from(&mut s) {
                        Ok(0) => return Err("reference: unexpected EOF".into()),
                        Ok(_) => {}
                        Err(e) => return Err(format!("reference: {e}")),
                    }
                };
                let first = lines.is_empty();
                lines.push(line);
                if first {
                    let head = lines.last().unwrap();
                    if ["OK", "ERR", "BUSY", "OVERLOADED"]
                        .iter()
                        .any(|p| head == p || head.starts_with(&format!("{p} ")))
                    {
                        break;
                    }
                } else if lines.last().unwrap() == "END" {
                    break;
                }
            }
            let head = &lines[0];
            if head.starts_with("BUSY") || head.starts_with("OVERLOADED") {
                std::thread::sleep(Duration::from_millis(10));
                continue;
            }
            let rec = if i == 0 && head.starts_with("OK session") {
                "OK session".to_string()
            } else {
                lines.join("\n")
            };
            replies.push(rec);
            break;
        }
    }
    Ok(replies)
}

/// The 10k-connection phase. Establishes all connections first (confirmed
/// via the backend's `serve_connections_open` gauge), then drives the
/// micro script everywhere and diffs every reply stream against the
/// reference. Returns (JSON row, divergences).
fn hc_phase(opts: &Opts, bin: &Path) -> Result<(String, u64), String> {
    let n = opts.hc_connections;
    let raised = reactor::raise_nofile_limit((n + 512) as u64).unwrap_or(0);
    if (raised as usize) < n + 256 {
        return Err(format!(
            "fd limit {raised} too low for {n} connections (need ~{})",
            n + 256
        ));
    }
    eprintln!(
        "serve_load[reactor-hc]: spawning backend ({})",
        bin.display()
    );
    let backend = spawn_backend(bin, opts, true)?;
    let maddr = backend
        .metrics
        .ok_or("backend reported no metrics address")?;
    let script = hc_script();
    let reference = hc_reference(backend.addr, &script)?;

    let t0 = Instant::now();
    let poll = Poll::new().map_err(|e| e.to_string())?;
    let mut conns: Vec<HcConn> = Vec::with_capacity(n);

    // Phase 1: establish every connection before any traffic, pacing the
    // accept backlog and confirming real concurrency via the gauge.
    eprintln!("serve_load[reactor-hc]: establishing {n} connections...");
    while conns.len() < n {
        let chunk = (n - conns.len()).min(256);
        for _ in 0..chunk {
            let s = TcpStream::connect(backend.addr)
                .map_err(|e| format!("connect #{}: {e}", conns.len()))?;
            let _ = s.set_nodelay(true);
            s.set_nonblocking(true).map_err(|e| e.to_string())?;
            poll.register(s.as_raw_fd(), Token(conns.len()), Interest::READABLE)
                .map_err(|e| e.to_string())?;
            conns.push(HcConn::new(s, t0));
        }
        // Wait for the backend to have accepted this chunk before piling
        // more onto the listen backlog.
        let want = conns.len() as i64;
        let deadline = Instant::now() + Duration::from_secs(30);
        loop {
            // +1: the reference client's connection may still be counted.
            if scrape_metric(maddr, "serve_connections_open").unwrap_or(0) >= want {
                break;
            }
            if Instant::now() > deadline {
                return Err(format!("backend accepted fewer than {want} connections"));
            }
            std::thread::sleep(Duration::from_millis(20));
        }
    }
    let open_peak = scrape_metric(maddr, "serve_connections_open").unwrap_or(0);
    eprintln!(
        "serve_load[reactor-hc]: {} connections established (gauge {open_peak}) in {:.1}s",
        conns.len(),
        t0.elapsed().as_secs_f64()
    );

    // Phase 2: drive the script on every connection, request-response,
    // retrying on backpressure.
    let mut busy_retries = 0u64;
    let mut open_done = 0usize;
    let mut events = Events::with_capacity(1024);
    let deadline = Instant::now() + Duration::from_secs(900);
    loop {
        let now = Instant::now();
        if now > deadline {
            break;
        }
        // Send step: every quiet connection issues its next request.
        for c in conns.iter_mut() {
            if c.done || c.failed.is_some() || c.awaiting || now < c.not_before {
                continue;
            }
            c.wr.push(script[c.cursor].as_bytes());
            c.awaiting = true;
            if c.wr.write_to(&mut c.stream).is_err() {
                c.failed = Some("write".into());
            }
        }
        // Fix up interest: writable only while a partial write is pending.
        for (i, c) in conns.iter_mut().enumerate() {
            if c.done || c.failed.is_some() {
                continue;
            }
            let want = if c.wr.is_empty() {
                Interest::READABLE
            } else {
                Interest::READABLE | Interest::WRITABLE
            };
            if want != c.interest
                && poll
                    .reregister(c.stream.as_raw_fd(), Token(i), want)
                    .is_ok()
            {
                c.interest = want;
            }
        }
        poll.poll(&mut events, Some(Duration::from_millis(20)))
            .map_err(|e| e.to_string())?;
        for ev in events.iter() {
            let Token(i) = ev.token();
            let Some(c) = conns.get_mut(i) else { continue };
            if c.done || c.failed.is_some() {
                continue;
            }
            if ev.is_writable() && !c.wr.is_empty() && c.wr.write_to(&mut c.stream).is_err() {
                c.failed = Some("write".into());
                continue;
            }
            if !ev.is_readable() {
                continue;
            }
            for _ in 0..4 {
                match c.rd.read_from(&mut c.stream) {
                    Ok(0) => {
                        if !c.done {
                            c.failed = Some("eof mid-script".into());
                        }
                        break;
                    }
                    Ok(k) => {
                        if k < 4096 {
                            break;
                        }
                    }
                    Err(e) if e.kind() == std::io::ErrorKind::WouldBlock => break,
                    Err(e) if e.kind() == std::io::ErrorKind::Interrupted => continue,
                    Err(e) => {
                        c.failed = Some(format!("read: {e}"));
                        break;
                    }
                }
            }
            while let Some(line) = c.rd.next_line() {
                if !c.awaiting {
                    c.failed = Some(format!("unsolicited line `{line}`"));
                    break;
                }
                let first = c.cur.is_empty();
                c.cur.push(line);
                let complete = if first {
                    let head = c.cur.last().unwrap();
                    ["OK", "ERR", "BUSY", "OVERLOADED"]
                        .iter()
                        .any(|p| head == p || head.starts_with(&format!("{p} ")))
                } else {
                    c.cur.last().unwrap() == "END"
                };
                if !complete {
                    c.in_multi = true;
                    continue;
                }
                let lines = std::mem::take(&mut c.cur);
                c.in_multi = false;
                c.awaiting = false;
                let head = &lines[0];
                if head.starts_with("BUSY") || head.starts_with("OVERLOADED") {
                    busy_retries += 1;
                    c.not_before = Instant::now() + Duration::from_millis(50);
                    continue;
                }
                let rec = if c.cursor == 0 && head.starts_with("OK session") {
                    "OK session".to_string()
                } else {
                    lines.join("\n")
                };
                c.replies.push(rec);
                c.cursor += 1;
                if c.cursor == script.len() {
                    c.done = true;
                    open_done += 1;
                    break;
                }
            }
        }
        if conns.iter().all(|c| c.done || c.failed.is_some()) {
            break;
        }
    }
    let elapsed = t0.elapsed().as_secs_f64();

    let mut divergences = 0u64;
    for (i, c) in conns.iter().enumerate() {
        if let Some(why) = &c.failed {
            if divergences < 5 {
                eprintln!("serve_load[reactor-hc]: conn {i} failed: {why}");
            }
            divergences += 1;
        } else if !c.done {
            if divergences < 5 {
                eprintln!(
                    "serve_load[reactor-hc]: conn {i} timed out at request {}",
                    c.cursor
                );
            }
            divergences += 1;
        } else if c.replies != reference {
            if divergences < 5 {
                let at = c
                    .replies
                    .iter()
                    .zip(reference.iter())
                    .position(|(a, b)| a != b)
                    .unwrap_or(reference.len().min(c.replies.len()));
                eprintln!(
                    "serve_load[reactor-hc]: DIVERGENCE conn {i} reply {at}: `{}` vs `{}`",
                    c.replies.get(at).map(String::as_str).unwrap_or("<missing>"),
                    reference.get(at).map(String::as_str).unwrap_or("<missing>"),
                );
            }
            divergences += 1;
        }
    }

    let wakeups = scrape_metric(maddr, "reactor_wakeups_total").unwrap_or(0);
    let accepts = scrape_metric(maddr, "serve_accepts_total").unwrap_or(0);
    drop(conns);
    backend.stop();

    println!("== serve_load [reactor-hc] ==");
    println!(
        "connections {n}  peak gauge {open_peak}  completed {open_done}  \
         busy_retries {busy_retries}  elapsed {elapsed:.2}s"
    );
    println!("backend: accepts {accepts}  reactor wakeups {wakeups}");
    println!("divergences: {divergences}");

    let row = format!(
        "{{\"mode\": \"reactor-hc\",\n   \
         \"config\": {{\"connections\": {n}, \"workers\": {}}},\n   \
         \"totals\": {{\"established_peak\": {open_peak}, \"completed\": {open_done}, \
         \"busy_retries\": {busy_retries}, \"backend_accepts\": {accepts}, \
         \"reactor_wakeups\": {wakeups}, \"elapsed_s\": {elapsed:.3}}},\n   \
         \"divergences\": {divergences}}}",
        opts.workers
    );
    Ok((row, divergences))
}

// ---------------------------------------------------------------------------
// Routed phase: 2 backend processes + ops5-router, with a live drain.
// ---------------------------------------------------------------------------

fn admin_field(lines: &[String], backend: usize, key: &str) -> Option<u64> {
    lines
        .iter()
        .find(|l| l.starts_with(&format!("backend {backend} ")))
        .and_then(|l| field(l, key))
        .and_then(|v| v.parse().ok())
}

/// Sessions through a 2-backend shard set, with backend 0 drained while
/// every session sits at a request boundary. Returns (JSON row, divergences).
fn routed_phase(
    opts: &Opts,
    corpus: &[&'static str],
    refs: &Arc<HashMap<String, Vec<String>>>,
    bin: &Path,
) -> Result<(String, u64), String> {
    eprintln!("serve_load[routed]: spawning 2 backends + router");
    let b0 = spawn_backend(bin, opts, false)?;
    let b1 = spawn_backend(bin, opts, false)?;
    let router = Router::bind("127.0.0.1:0", RouterConfig::new(vec![b0.addr, b1.addr]))
        .map_err(|e| e.to_string())?
        .spawn();
    let addr = router.addr;

    let nconns = opts.routed_connections;
    let n = Arc::new(Counters::default());
    // Two rendezvous: all sessions parked mid-run before the drain, and
    // all released after it.
    let barrier = Arc::new(Barrier::new(nconns + 1));
    let t0 = Instant::now();
    let corpus_owned: Vec<&'static str> = corpus.to_vec();
    let threads: Vec<_> = (0..nconns)
        .map(|ci| {
            let n = n.clone();
            let refs = refs.clone();
            let barrier = barrier.clone();
            let corpus = corpus_owned.clone();
            std::thread::spawn(move || {
                let program = corpus[ci % corpus.len()];
                let run = || -> Result<(), String> {
                    let mut c = Client::connect(addr).map_err(|e| e.to_string())?;
                    c.open(program, Some("psm"))
                        .map_err(|e| e.to_string())?
                        .expect_ok()?;
                    n.sessions.fetch_add(1, Ordering::Relaxed);
                    // Partial progress, then park at a request boundary so
                    // the drain finds the session idle and migratable.
                    for _ in 0..3 {
                        let payload = req_retry(&mut c, "RUN 50", &n)
                            .map_err(|e| e.to_string())?
                            .expect_ok()?;
                        if field(&payload, "reason") != Some("limit") {
                            break;
                        }
                    }
                    barrier.wait();
                    barrier.wait();
                    // Resume: possibly on a different backend now.
                    for _ in 0..400 {
                        let payload = req_retry(&mut c, "RUN 2000", &n)
                            .map_err(|e| e.to_string())?
                            .expect_ok()?;
                        match field(&payload, "reason") {
                            Some("limit") | Some("settled") => continue,
                            Some(_) => break,
                            None => return Err(format!("bad RUN reply `{payload}`")),
                        }
                    }
                    let fired = req_retry(&mut c, "FIRED?", &n)
                        .map_err(|e| e.to_string())?
                        .expect_lines()?;
                    let _ = req_retry(&mut c, "CLOSE", &n).map_err(|e| e.to_string())?;
                    if fired != refs[program] {
                        return Err(format!(
                            "{} fired vs {} reference",
                            fired.len(),
                            refs[program].len()
                        ));
                    }
                    Ok(())
                };
                if let Err(e) = run() {
                    eprintln!("serve_load[routed]: conn {ci} ({program}): DIVERGENCE {e}");
                    n.divergences.fetch_add(1, Ordering::Relaxed);
                    // A failed client must not strand the rendezvous.
                    barrier.wait();
                    barrier.wait();
                }
            })
        })
        .collect();

    barrier.wait(); // every session parked
    let mut admin = Client::connect(addr).map_err(|e| e.to_string())?;
    admin
        .request("ADMIN")
        .map_err(|e| e.to_string())?
        .expect_ok()?;
    let before = admin
        .request("RING?")
        .map_err(|e| e.to_string())?
        .expect_lines()?;
    let on_b0 = admin_field(&before, 0, "pairs").unwrap_or(0);
    eprintln!("serve_load[routed]: draining backend 0 ({on_b0} pairs attached)");
    admin
        .request("DRAIN 0")
        .map_err(|e| e.to_string())?
        .expect_ok()?;
    // The drain migrates idle pairs synchronously, but verify via RING?.
    let deadline = Instant::now() + Duration::from_secs(60);
    let drained = loop {
        let ring = admin
            .request("RING?")
            .map_err(|e| e.to_string())?
            .expect_lines()?;
        if admin_field(&ring, 0, "pairs") == Some(0) {
            break true;
        }
        if Instant::now() > deadline {
            break false;
        }
        std::thread::sleep(Duration::from_millis(100));
    };
    let stats = admin
        .request("STATS?")
        .map_err(|e| e.to_string())?
        .expect_lines()?;
    let migrations: u64 = stats
        .iter()
        .find_map(|l| l.strip_prefix("migrations "))
        .and_then(|v| v.trim().parse().ok())
        .unwrap_or(0);
    let failures: u64 = stats
        .iter()
        .find_map(|l| l.strip_prefix("migration_failures "))
        .and_then(|v| v.trim().parse().ok())
        .unwrap_or(0);
    barrier.wait(); // release the sessions

    for t in threads {
        t.join().expect("routed client thread");
    }
    let elapsed = t0.elapsed().as_secs_f64();
    let mut divergences = n.divergences.load(Ordering::Relaxed);
    if !drained {
        eprintln!("serve_load[routed]: DIVERGENCE backend 0 never fully drained");
        divergences += 1;
    }
    if failures > 0 {
        eprintln!("serve_load[routed]: DIVERGENCE {failures} migration failures");
        divergences += failures;
    }

    // Tear down: router shutdown forwards SHUTDOWN to live backends.
    let _ = admin.request("SHUTDOWN");
    let _ = router.join();
    b0.stop();
    b1.stop();

    let sessions = n.sessions.load(Ordering::Relaxed);
    let busy = n.busy_retries.load(Ordering::Relaxed);
    println!("== serve_load [routed] ==");
    println!(
        "sessions {sessions}  migrated {migrations} (of {on_b0} on backend 0)  \
         busy_retries {busy}  elapsed {elapsed:.2}s"
    );
    println!("divergences: {divergences}");

    let row = format!(
        "{{\"mode\": \"routed\",\n   \
         \"config\": {{\"connections\": {nconns}, \"backends\": 2, \"workers\": {}}},\n   \
         \"totals\": {{\"sessions\": {sessions}, \"migrations\": {migrations}, \
         \"migration_failures\": {failures}, \"busy_retries\": {busy}, \
         \"elapsed_s\": {elapsed:.3}}},\n   \
         \"divergences\": {divergences}}}",
        opts.workers
    );
    Ok((row, divergences))
}

// ---------------------------------------------------------------------------
// Priorities phase: weighted scheduling + preemption + cancellation gate.
// ---------------------------------------------------------------------------

/// One session lifecycle in an explicit scheduling class, recording only
/// `RUN` latencies (the pool-scheduled command the class comparison is
/// about; `OPEN` is answered by the reader and never queues).
fn drive_prio_session(
    c: &mut Client,
    program: &str,
    prio: &str,
    n: &Counters,
    lat: &mut Vec<f64>,
    stop: Option<&AtomicU64>,
) -> Result<Option<Vec<String>>, String> {
    let ok = c
        .open_prio(program, Some("psm"), prio)
        .map_err(|e| e.to_string())?
        .expect_ok()?;
    if !ok.contains(&format!("prio={prio}")) {
        return Err(format!("OPEN did not echo prio: `{ok}`"));
    }
    n.sessions.fetch_add(1, Ordering::Relaxed);
    let mut finished = false;
    for _ in 0..400 {
        if stop.is_some_and(|s| s.load(Ordering::Relaxed) != 0) {
            break;
        }
        let t0 = Instant::now();
        let payload = req_retry(c, "RUN 2000", n)
            .map_err(|e| e.to_string())?
            .expect_ok()?;
        lat.push(t0.elapsed().as_secs_f64() * 1e3);
        let cycles: u64 = field(&payload, "cycles")
            .and_then(|v| v.parse().ok())
            .ok_or_else(|| format!("bad RUN reply `{payload}`"))?;
        n.cycles.fetch_add(cycles, Ordering::Relaxed);
        match field(&payload, "reason") {
            Some("halt") | Some("quiescent") | Some("budget") => {
                finished = true;
                break;
            }
            Some("limit") | Some("settled") => continue,
            other => return Err(format!("bad reason {other:?} in `{payload}`")),
        }
    }
    // An interrupted (stop-flagged) session has a prefix firing log; only
    // completed sessions are diffable.
    let fired = if finished {
        Some(
            req_retry(c, "FIRED?", n)
                .map_err(|e| e.to_string())?
                .expect_lines()?,
        )
    } else {
        None
    };
    req_retry(c, "CLOSE", n)
        .map_err(|e| e.to_string())?
        .expect_ok()?;
    Ok(fired)
}

/// Cancels an in-flight sliced `RUN` mid-run, then proves the session is
/// still resumable: run to completion and diff the firing log against the
/// direct-engine reference.
fn cancel_resumability(
    addr: SocketAddr,
    program: &str,
    reference: &[String],
) -> Result<(), String> {
    let mut c = Client::connect(addr).map_err(|e| e.to_string())?;
    c.open_prio(program, Some("psm"), "high")
        .map_err(|e| e.to_string())?
        .expect_ok()?;
    // Pipeline: a long clamped RUN, then CANCEL while it is (probably)
    // mid-slice. The RUN reply is either `ERR cancelled` (cut at a slice
    // boundary) or `OK ...` (it won the race) — both leave the session
    // resumable, which is the property under test.
    c.send_line("RUN 400000").map_err(|e| e.to_string())?;
    std::thread::sleep(Duration::from_millis(5));
    c.send_line("CANCEL").map_err(|e| e.to_string())?;
    match c.read_reply().map_err(|e| e.to_string())? {
        ClientReply::Ok(_) | ClientReply::Err(_) => {}
        other => return Err(format!("unexpected RUN reply {other:?}")),
    }
    let cancelled = c.read_reply().map_err(|e| e.to_string())?.expect_ok()?;
    if !cancelled.starts_with("cancelled pending=") {
        return Err(format!("unexpected CANCEL reply `{cancelled}`"));
    }
    for _ in 0..400 {
        let payload = c
            .request("RUN 2000")
            .map_err(|e| e.to_string())?
            .expect_ok()?;
        match field(&payload, "reason") {
            Some("limit") | Some("settled") => continue,
            Some(_) => break,
            None => return Err(format!("bad RUN reply `{payload}`")),
        }
    }
    let fired = c
        .request("FIRED?")
        .map_err(|e| e.to_string())?
        .expect_lines()?;
    let _ = c.close();
    if fired != reference {
        return Err(format!(
            "cancelled-then-resumed run diverged: {} fired vs {} reference",
            fired.len(),
            reference.len()
        ));
    }
    Ok(())
}

/// Protocol spot checks: a clamped `RUN` carries `clamped=<requested>`,
/// and the `PRIO` verb reclassifies a live session.
fn clamped_and_prio_check(addr: SocketAddr) -> Result<(), String> {
    let mut c = Client::connect(addr).map_err(|e| e.to_string())?;
    let spin = "(literalize c n)
                (p spin (c ^n <n>) --> (modify 1 ^n (compute <n> + 1)))";
    c.open_source(spin, Some("vs2"))
        .map_err(|e| e.to_string())?
        .expect_ok()?;
    c.assert_wme("c ^n 0").map_err(|e| e.to_string())?.unwrap();
    // 20000 > the server's max_cycles_per_run (10000): server policy, not
    // program behavior, ends this run — the reply must say so.
    let payload = c
        .request("RUN 20000")
        .map_err(|e| e.to_string())?
        .expect_ok()?;
    if field(&payload, "reason") != Some("limit") || field(&payload, "clamped") != Some("20000") {
        return Err(format!(
            "expected reason=limit clamped=20000, got `{payload}`"
        ));
    }
    // An unclamped limit stop carries no clamped= note.
    let payload = c
        .request("RUN 50")
        .map_err(|e| e.to_string())?
        .expect_ok()?;
    if field(&payload, "clamped").is_some() {
        return Err(format!(
            "unclamped RUN must not carry clamped=: `{payload}`"
        ));
    }
    let p = c.prio("batch").map_err(|e| e.to_string())?.expect_ok()?;
    if p != "prio=batch" {
        return Err(format!("unexpected PRIO reply `{p}`"));
    }
    let p = c.prio("high").map_err(|e| e.to_string())?.expect_ok()?;
    if p != "prio=high" {
        return Err(format!("unexpected PRIO reply `{p}`"));
    }
    if !matches!(
        c.prio("frob").map_err(|e| e.to_string())?,
        ClientReply::Err(_)
    ) {
        return Err("PRIO frob must error".into());
    }
    let _ = c.close();
    Ok(())
}

/// The `--priorities` gate. A saturating batch background load keeps every
/// worker busy with sliced RUNs while foreground high/normal sessions issue
/// the identical command shape; every completed session (any class, sliced
/// and preempted throughout) diffs its firing log against the direct
/// engine. Returns (JSON row, failures) where failures counts divergences
/// plus a high-vs-batch p99 inversion.
fn priorities_phase(
    opts: &Opts,
    corpus: &[&'static str],
    refs: &Arc<HashMap<String, Vec<String>>>,
) -> (String, u64) {
    const RUN_SLICE: u64 = 400;
    const BATCH_CONNS: usize = 8;
    // Few workers + many batch sessions: the run queues stay contended, so
    // the weighted dequeue (not idle workers) decides who runs next.
    let cfg = ServeConfig {
        workers: 2,
        queue_depth: 32,
        run_queue_cap: 256,
        max_cycles_per_run: 10_000,
        run_slice_cycles: RUN_SLICE,
        matcher: serve::matcher_kind("psm").unwrap(),
        programs_dir: Some(opts.programs.clone()),
        ..ServeConfig::default()
    };
    let handle = Server::bind("127.0.0.1:0", cfg).expect("bind").spawn();
    let addr = handle.addr;
    eprintln!(
        "serve_load[priorities]: {BATCH_CONNS} batch background connections, \
         slice {RUN_SLICE} cycles, 2 workers"
    );

    let n = Arc::new(Counters::default());
    let stop = Arc::new(AtomicU64::new(0));
    let batch_lat = Arc::new(Mutex::new(Vec::<f64>::new()));
    let t0 = Instant::now();
    let corpus_owned: Vec<&'static str> = corpus.to_vec();
    let background: Vec<_> = (0..BATCH_CONNS)
        .map(|ci| {
            let n = n.clone();
            let stop = stop.clone();
            let refs = refs.clone();
            let batch_lat = batch_lat.clone();
            let corpus = corpus_owned.clone();
            std::thread::spawn(move || {
                let mut lat = Vec::new();
                let mut c = Client::connect(addr).expect("connect");
                let mut it = 0usize;
                while stop.load(Ordering::Relaxed) == 0 {
                    let program = corpus[(ci + it) % corpus.len()];
                    it += 1;
                    match drive_prio_session(&mut c, program, "batch", &n, &mut lat, Some(&stop)) {
                        Ok(Some(fired)) => {
                            if fired != refs[program] {
                                eprintln!(
                                    "serve_load[priorities]: DIVERGENCE batch conn {ci} \
                                     program {program}: {} fired vs {} reference",
                                    fired.len(),
                                    refs[program].len()
                                );
                                n.divergences.fetch_add(1, Ordering::Relaxed);
                            }
                        }
                        Ok(None) => {} // stop-flagged mid-session
                        Err(e) => {
                            eprintln!("serve_load[priorities]: batch conn {ci} {program}: {e}");
                            n.divergences.fetch_add(1, Ordering::Relaxed);
                        }
                    }
                }
                batch_lat.lock().unwrap().extend(lat);
            })
        })
        .collect();
    // Let the batch load saturate the workers before measuring.
    std::thread::sleep(Duration::from_millis(300));

    // Foreground: the small corpus programs in each class, same command
    // shape as the background, measured under full batch pressure.
    let fg_corpus: Vec<&'static str> = corpus.iter().copied().filter(|p| *p != "rubik").collect();
    let mut high_lat = Vec::new();
    let mut normal_lat = Vec::new();
    for (class, lat) in [("high", &mut high_lat), ("normal", &mut normal_lat)] {
        let mut c = Client::connect(addr).expect("connect");
        for program in &fg_corpus {
            match drive_prio_session(&mut c, program, class, &n, lat, None) {
                Ok(Some(fired)) => {
                    if fired != refs[*program] {
                        eprintln!(
                            "serve_load[priorities]: DIVERGENCE {class} program {program}: \
                             {} fired vs {} reference",
                            fired.len(),
                            refs[*program].len()
                        );
                        n.divergences.fetch_add(1, Ordering::Relaxed);
                    }
                }
                Ok(None) => unreachable!("foreground sessions run unflagged"),
                Err(e) => {
                    eprintln!("serve_load[priorities]: {class} {program}: {e}");
                    n.divergences.fetch_add(1, Ordering::Relaxed);
                }
            }
        }
    }

    // Cancellation + protocol checks, still under the batch load.
    if let Err(e) = cancel_resumability(addr, "blocks", &refs["blocks"]) {
        eprintln!("serve_load[priorities]: DIVERGENCE cancel: {e}");
        n.divergences.fetch_add(1, Ordering::Relaxed);
    }
    if let Err(e) = clamped_and_prio_check(addr) {
        eprintln!("serve_load[priorities]: DIVERGENCE clamped/prio: {e}");
        n.divergences.fetch_add(1, Ordering::Relaxed);
    }

    stop.store(1, Ordering::Relaxed);
    for t in background {
        t.join().expect("batch thread");
    }
    let elapsed = t0.elapsed().as_secs_f64();

    let mut shut = Client::connect(addr).expect("connect");
    shut.shutdown().expect("shutdown").expect_ok().expect("ok");
    handle.join().expect("server join");

    let mut batch = batch_lat.lock().unwrap().clone();
    let sort = |v: &mut Vec<f64>| v.sort_by(|a, b| a.partial_cmp(b).unwrap());
    sort(&mut batch);
    sort(&mut high_lat);
    sort(&mut normal_lat);
    let p = |v: &[f64]| (percentile(v, 0.50), percentile(v, 0.99));
    let (high_p50, high_p99) = p(&high_lat);
    let (normal_p50, normal_p99) = p(&normal_lat);
    let (batch_p50, batch_p99) = p(&batch);
    let mut failures = n.divergences.load(Ordering::Relaxed);
    let inverted = high_p99 >= batch_p99;
    if inverted {
        eprintln!(
            "serve_load[priorities]: GATE FAILURE high p99 {high_p99:.2}ms >= \
             batch p99 {batch_p99:.2}ms"
        );
        failures += 1;
    }

    let sessions = n.sessions.load(Ordering::Relaxed);
    let commands = n.commands.load(Ordering::Relaxed);
    let busy = n.busy_retries.load(Ordering::Relaxed);
    let divergences = n.divergences.load(Ordering::Relaxed);
    println!("== serve_load [priorities] ==");
    println!(
        "sessions {sessions}  commands {commands}  busy_retries {busy}  elapsed {elapsed:.2}s"
    );
    println!(
        "RUN latency ms: high p50 {high_p50:.2} p99 {high_p99:.2}  \
         normal p50 {normal_p50:.2} p99 {normal_p99:.2}  \
         batch p50 {batch_p50:.2} p99 {batch_p99:.2}"
    );
    println!("divergences: {divergences}  priority inversion: {inverted}");

    let row = format!(
        "{{\"mode\": \"priorities\",\n   \
         \"config\": {{\"batch_connections\": {BATCH_CONNS}, \"workers\": 2, \
         \"run_slice_cycles\": {RUN_SLICE}, \"matcher\": \"psm\"}},\n   \
         \"totals\": {{\"sessions\": {sessions}, \"commands\": {commands}, \
         \"busy_retries\": {busy}, \"elapsed_s\": {elapsed:.3}}},\n   \
         \"latency_ms\": {{\"high_p50\": {high_p50:.3}, \"high_p99\": {high_p99:.3}, \
         \"normal_p50\": {normal_p50:.3}, \"normal_p99\": {normal_p99:.3}, \
         \"batch_p50\": {batch_p50:.3}, \"batch_p99\": {batch_p99:.3}}},\n   \
         \"priority_inversion\": {inverted},\n   \
         \"divergences\": {divergences}}}"
    );
    (row, failures)
}

fn main() {
    let opts = match parse_args() {
        Ok(o) => o,
        Err(e) => {
            eprintln!("serve_load: {e}");
            std::process::exit(2);
        }
    };
    let corpus = ["blocks", "fibonacci", "monkey", "hanoi", "rubik"];
    if opts.kill_recover {
        let divergences = kill_recover_main(&opts, &corpus);
        if divergences > 0 {
            std::process::exit(1);
        }
        return;
    }

    eprintln!("serve_load: computing reference firing logs (direct psm engines)...");
    let refs = Arc::new(references(&opts.programs, &corpus));

    if opts.priorities {
        let (row, failures) = priorities_phase(&opts, &corpus, &refs);
        let json = format!("{{\"rows\": [\n  {row}\n]}}\n");
        std::fs::write(&opts.json, json).expect("write json");
        eprintln!("serve_load: wrote {}", opts.json.display());
        if failures > 0 {
            eprintln!("serve_load: {failures} failures");
            std::process::exit(1);
        }
        return;
    }

    let (row, mut total_divergences) = closed_loop(&opts, &corpus, &refs);
    let mut rows = vec![row];

    if opts.high_concurrency {
        match backend_bin(&opts) {
            Ok(bin) => {
                match hc_phase(&opts, &bin) {
                    Ok((row, div)) => {
                        rows.push(row);
                        total_divergences += div;
                    }
                    Err(e) => {
                        eprintln!("serve_load[reactor-hc]: FAILED: {e}");
                        rows.push(format!(
                            "{{\"mode\": \"reactor-hc\", \"error\": \"{}\"}}",
                            e.replace('"', "'")
                        ));
                        total_divergences += 1;
                    }
                }
                match routed_phase(&opts, &corpus, &refs, &bin) {
                    Ok((row, div)) => {
                        rows.push(row);
                        total_divergences += div;
                    }
                    Err(e) => {
                        eprintln!("serve_load[routed]: FAILED: {e}");
                        rows.push(format!(
                            "{{\"mode\": \"routed\", \"error\": \"{}\"}}",
                            e.replace('"', "'")
                        ));
                        total_divergences += 1;
                    }
                }
            }
            Err(e) => {
                eprintln!("serve_load: {e}");
                total_divergences += 1;
            }
        }
    }

    let json = format!("{{\"rows\": [\n  {}\n]}}\n", rows.join(",\n  "));
    std::fs::write(&opts.json, json).expect("write json");
    eprintln!("serve_load: wrote {}", opts.json.display());

    if total_divergences > 0 {
        eprintln!("serve_load: {total_divergences} divergences");
        std::process::exit(1);
    }
}
