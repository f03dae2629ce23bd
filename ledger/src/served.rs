//! End-to-end pass for the served workloads: a closed loop of
//! [`conns`]`(nproc)` connections against an in-process reactor [`Server`]
//! with as many workers. Closed loop is the honest model here — a session is a
//! conversation whose next command depends on the previous reply — so a
//! slower server receives less load and the numbers to watch are latency
//! and completed work, not queue depth.
//!
//! Every connection replays conversations recorded by [`conv::concretize`]
//! and compares the digest of every reply with the in-process reference, so
//! "served ≡ direct" is checked on every command of every run.

use crate::affinity::Pinned;
use crate::conv::{self, Conversation, Verb};
use crate::inputs::{self, Inputs, Prog};
use crate::report::{Outcome, Row};
use crate::spans::{self, Recorder};
use crate::stats::{self, Fnv};
use serve::{ServeConfig, Server, ServerHandle};
use std::collections::BTreeMap;
use std::io::{self, BufRead, BufReader, Write};
use std::net::{SocketAddr, TcpStream};
use std::path::Path;
use std::time::{Duration, Instant};
use workloads::rng::SplitMix64;

/// The quantile the end-to-end rows of the served workloads take over the
/// repetitions of one command: the median, where the direct workloads take
/// [`stats::QUIET`]. A served command is three thread hand-offs, and which of
/// them find their thread awake is the command's own jitter, not the host's.
/// The lowest decile of it is a schedule no client gets (it put together
/// 27k commands/s on serve-steady where 14k replies/s were received), and
/// it repeats worse than the median, not better.
const SERVED_QUIET: f64 = 0.5;

/// How many times server set-up (`Server::bind` → first `OK` to `OPEN`) is
/// repeated for `setup_s`: this many before the load and as many after it,
/// twenty seconds apart, so one slow moment of the host cannot cover the
/// whole sample; the row is their [`stats::QUIET`] quantile. Each time the first [`SETUP_WARMUP`] are left out: they
/// pay for cold caches, which a user pays once per process, not per server.
const SETUP_REPS: usize = 32;
const SETUP_WARMUP: usize = 4;

/// Firings between checkpoints in serve-steady's durable sessions: about one
/// checkpoint per session besides the one `OPEN` cuts. At the server's
/// default (256) a 10 s run fsyncs ~3000 times and rewrites ~300 MB of
/// snapshots; on this sandbox's virtio disk an fsync costs 0.3 ms or 8 ms
/// depending on the minute, which swung `cmds_per_s` 7x between runs of one
/// binary. The journal append on every command (the steady-state cost) is
/// still measured end to end; the checkpoint itself is a layer metric.
const STEADY_CHECKPOINT_EVERY: u64 = 4096;

/// A minimal protocol client: sends request text, reads one whole reply and
/// digests its exact bytes. Owned by the ledger (rather than
/// `serve::Client`) so the load generator allocates nothing per reply.
pub struct Conn {
    reader: BufReader<TcpStream>,
    writer: TcpStream,
    line: String,
    /// First line of the last reply, newline stripped.
    pub head: String,
}

/// What came back: the digest of the reply text and whether it was
/// `OK`/multi-line (anything else — `ERR`, `BUSY`, `OVERLOADED` — is a
/// failed operation).
pub struct Got {
    pub digest: u64,
    pub ok: bool,
}

impl Conn {
    pub fn connect(addr: SocketAddr) -> io::Result<Conn> {
        let stream = TcpStream::connect(addr)?;
        stream.set_nodelay(true)?;
        // A wedged server must fail the run, not hang it past the driver's
        // limit.
        stream.set_read_timeout(Some(Duration::from_secs(60)))?;
        let writer = stream.try_clone()?;
        Ok(Conn {
            reader: BufReader::with_capacity(64 * 1024, stream),
            writer,
            line: String::new(),
            head: String::new(),
        })
    }

    fn read_line(&mut self) -> io::Result<()> {
        self.line.clear();
        if self.reader.read_line(&mut self.line)? == 0 {
            return Err(io::Error::new(
                io::ErrorKind::UnexpectedEof,
                "server closed the connection",
            ));
        }
        Ok(())
    }

    /// One request, one reply. `body`, when given, receives the lines of a
    /// multi-line reply.
    pub fn request(&mut self, wire: &str, mut body: Option<&mut Vec<String>>) -> io::Result<Got> {
        self.writer.write_all(wire.as_bytes())?;
        let mut h = Fnv::default();
        self.read_line()?;
        h.bytes(self.line.as_bytes());
        self.head.clear();
        self.head.push_str(self.line.trim_end());
        let tag = self.head.split(' ').next().unwrap_or("");
        let ok = match tag {
            "OK" => true,
            "ERR" | "BUSY" | "OVERLOADED" => false,
            _ => {
                loop {
                    self.read_line()?;
                    h.bytes(self.line.as_bytes());
                    if self.line == "END\n" {
                        break;
                    }
                    if let Some(b) = body.as_deref_mut() {
                        b.push(self.line.trim_end().to_string());
                    }
                }
                true
            }
        };
        Ok(Got { digest: h.0, ok })
    }
}

/// Load-generator connections, and pool workers in the server: half the
/// cores each (one and one on this host). The generator lives in the
/// server's process, so with a connection per core its threads, the
/// reactor and the workers queue for the same cores and the run measures
/// the scheduler: on two cores `cmds_per_s` of serve-churn spread 17 % over
/// ten runs with two connections and 5 % with one.
pub fn conns(nproc: usize) -> usize {
    (nproc / 2).max(1)
}

fn server_config(inputs: &Inputs, nproc: usize, scratch: &Path, obs: bool) -> ServeConfig {
    ServeConfig {
        workers: conns(nproc),
        programs_dir: Some(scratch.join("programs")),
        // serve-steady runs with durability on; serve-churn with it off.
        durability_dir: matches!(inputs, Inputs::Steady { .. }).then(|| scratch.join("durable")),
        checkpoint_every: STEADY_CHECKPOINT_EVERY,
        obs: if obs {
            obs::ObsConfig::enabled()
        } else {
            obs::ObsConfig::default()
        },
        run_slice_cycles: 0,
        ..ServeConfig::default()
    }
}

fn shutdown(handle: ServerHandle) -> Result<(), String> {
    let mut c = Conn::connect(handle.addr).map_err(|e| format!("connect for SHUTDOWN: {e}"))?;
    c.request("SHUTDOWN\n", None)
        .map_err(|e| format!("SHUTDOWN: {e}"))?;
    handle.join().map_err(|e| format!("server exit: {e}"))
}

/// The programs a served workload rotates over.
pub fn progs(inputs: &Inputs) -> Vec<&Prog> {
    match inputs {
        Inputs::Direct(p) => vec![p],
        Inputs::Churn { progs, .. } => progs.iter().collect(),
        Inputs::Steady { prog, .. } => vec![prog],
    }
}

pub fn write_programs(inputs: &Inputs, scratch: &Path) -> Result<(), String> {
    let dir = scratch.join("programs");
    std::fs::create_dir_all(&dir).map_err(|e| format!("{}: {e}", dir.display()))?;
    for p in progs(inputs) {
        let path = dir.join(format!("{}.ops", p.registry_name()));
        std::fs::write(&path, &p.source).map_err(|e| format!("{}: {e}", path.display()))?;
    }
    Ok(())
}

/// The conversations a workload replays: one per churn program, one per
/// steady connection, one whole-session conversation for a direct program
/// (the traced onion serves those too).
pub fn conversations(inputs: &Inputs) -> Result<Vec<Conversation>, String> {
    match inputs {
        Inputs::Direct(p) => Ok(vec![conv::concretize(p, &inputs::session_steps(p))?]),
        Inputs::Churn { progs, .. } => progs
            .iter()
            .map(|p| conv::concretize(p, &inputs::session_steps(p)))
            .collect(),
        Inputs::Steady { prog, streams, .. } => {
            streams.iter().map(|s| conv::concretize(prog, s)).collect()
        }
    }
}

/// `Server::bind` → first `OK` to `OPEN`, then a clean shutdown.
fn time_setup(cfg: &ServeConfig, program: &str) -> Result<f64, String> {
    let t = Instant::now();
    let handle = Server::bind("127.0.0.1:0", cfg.clone())
        .map_err(|e| format!("bind: {e}"))?
        .spawn();
    let mut c = Conn::connect(handle.addr).map_err(|e| format!("connect: {e}"))?;
    let got = c
        .request(&format!("OPEN {program} vs2\n"), None)
        .map_err(|e| format!("OPEN: {e}"))?;
    let took = t.elapsed().as_secs_f64();
    if !got.ok {
        return Err(format!("OPEN {program}: {}", c.head));
    }
    c.request("CLOSE\n", None)
        .map_err(|e| format!("CLOSE: {e}"))?;
    drop(c);
    shutdown(handle)?;
    Ok(took)
}

/// One session as its connection saw it. A session *kind* is (connection,
/// conversation, matcher): every session of a kind sends the same commands
/// and gets the same replies, so command `i` of one is a repetition of
/// command `i` of another.
struct SessionLog {
    conv: usize,
    matcher: usize,
    /// Per command, `OPEN` first: its verb, µs from send to full reply, and
    /// µs since the connection's previous reply (latency plus the client's
    /// own time between commands; the periods of a connection add up to its
    /// wall time). Single precision: at 40 k commands a second the log is
    /// what `peak_rss_mb` would otherwise measure.
    verb: Vec<Verb>,
    lat_us: Vec<f32>,
    period_us: Vec<f32>,
    /// `wme-changes` of the last `STATS?`.
    changes: u64,
    /// False for a steady session stopped at the deadline.
    complete: bool,
}

/// Everything one connection thread measured.
#[derive(Default)]
struct ConnLog {
    /// One entry per session, in the order they ran.
    sessions: Vec<SessionLog>,
    /// Checks made, failures seen, spans recorded.
    checks: Outcome,
}

/// One lap of the run with every command at the `q`-quantile of its own
/// repetitions ([`crate::stats::aligned`]): each session kind once, and the
/// rates that follow. A kind's seconds are put together from the quantiles
/// of [`SEGMENT`]-command stretches of its periods.
struct Lap {
    /// Send → reply, every command of the lap.
    lat_us: Vec<f64>,
    /// Per matcher: changes absorbed by, and seconds of, its sessions.
    changes: Vec<f64>,
    secs: Vec<f64>,
    cmds_per_s: f64,
    sessions_per_s: f64,
}

impl Lap {
    fn of(by_conn: &[Vec<SessionLog>], matchers: usize, q: f64) -> Lap {
        let mut lap = Lap {
            lat_us: Vec::new(),
            changes: vec![0.0; matchers],
            secs: vec![0.0; matchers],
            cmds_per_s: 0.0,
            sessions_per_s: 0.0,
        };
        for sessions in by_conn {
            let mut kinds: BTreeMap<(usize, usize), Vec<&SessionLog>> = BTreeMap::new();
            for s in sessions {
                kinds.entry((s.conv, s.matcher)).or_default().push(s);
            }
            let (mut cmds, mut secs, mut whole) = (0.0, 0.0, 0.0);
            for ((_, m), reps) in &kinds {
                // A kind only ever stopped at the deadline has no whole
                // session to stand for it.
                let Some(changes) = reps.iter().rev().find(|s| s.complete).map(|s| s.changes)
                else {
                    continue;
                };
                let of = |f: fn(&SessionLog) -> &[f32]| -> Vec<&[f32]> {
                    reps.iter().map(|s| f(s)).collect()
                };
                let lat = stats::aligned(&of(|s| &s.lat_us), q);
                let kind_s = stats::aligned_sum(&of(|s| &s.period_us), stats::SEGMENT, q) / 1e6;
                cmds += lat.len() as f64;
                secs += kind_s;
                whole += 1.0;
                lap.changes[*m] += changes as f64;
                lap.secs[*m] += kind_s;
                lap.lat_us.extend(lat);
            }
            // Connections run side by side: their rates add.
            if secs > 0.0 {
                lap.cmds_per_s += cmds / secs;
                lap.sessions_per_s += whole / secs;
            }
        }
        lap
    }
}

/// One load-generator connection and what it has measured so far.
struct Client {
    conn: u32,
    c: Conn,
    log: ConnLog,
    rec: Option<Recorder>,
    deadline: Instant,
    /// When the previous reply arrived (the connection's start before the
    /// first).
    last_done: Instant,
    /// Verbs, latencies and periods of the session in progress.
    verb: Vec<Verb>,
    lat_us: Vec<f32>,
    period_us: Vec<f32>,
}

impl Client {
    /// Sends one command and times it, send → full reply. `None` when the
    /// connection is unusable (the failure is already logged).
    fn timed(&mut self, ids: [u32; 3], wire: &str, verb: Verb) -> Option<Got> {
        spans::enter(&mut self.rec, "client.cmd", ids);
        let t = Instant::now();
        let got = self.c.request(wire, None);
        let done = Instant::now();
        self.verb.push(verb);
        self.lat_us.push((done - t).as_secs_f32() * 1e6);
        self.period_us
            .push((done - self.last_done).as_secs_f32() * 1e6);
        self.last_done = done;
        spans::exit(&mut self.rec);
        match got {
            Ok(g) => Some(g),
            Err(e) => {
                self.log
                    .checks
                    .check(false, || format!("`{}`: {e}", wire.trim_end()));
                None
            }
        }
    }

    /// Session number `k`: `OPEN`, the conversation (up to a cut once the
    /// deadline has passed, when `stoppable`), `CLOSE`. Returns false when
    /// the connection is unusable.
    fn session(
        &mut self,
        k: usize,
        program: &str,
        (m, matcher): (usize, &str),
        (conv_idx, conv): (usize, &Conversation),
        stoppable: bool,
    ) -> bool {
        let mut seq = 0u32;
        let (conn, session) = (self.conn, k as u32);
        let mut ids = || {
            seq += 1;
            [conn, session, seq - 1]
        };
        let Some(got) = self.timed(ids(), &format!("OPEN {program} {matcher}\n"), Verb::Open)
        else {
            return false;
        };
        let head = &self.c.head;
        let opened = got.ok && head.contains(&format!("matcher={matcher}"));
        self.log
            .checks
            .check(opened, || format!("OPEN {program} {matcher}: {head}"));
        if !opened {
            return false;
        }
        let mut changes = 0u64;
        let mut done = 0usize;
        for (i, cmd) in conv.cmds.iter().enumerate() {
            let last = i + 1 == conv.cmds.len();
            if stoppable
                && !last
                && conv.cuts.binary_search(&i).is_ok()
                && Instant::now() >= self.deadline
            {
                break;
            }
            let Some(got) = self.timed(ids(), &cmd.wire, cmd.verb) else {
                return false;
            };
            let head = &self.c.head;
            match cmd.expect {
                Some(want) => self.log.checks.check(got.ok && got.digest == want, || {
                    format!(
                        "{program}/{matcher}: `{}` reply differs from the in-process session: {head}",
                        cmd.wire.lines().next().unwrap_or("")
                    )
                }),
                None => {
                    // STATS?: the one reply whose text depends on the shell.
                    let n = conv::field_u64(head, "wme-changes");
                    self.log
                        .checks
                        .check(got.ok && n.is_some(), || format!("STATS?: {head}"));
                    changes = n.unwrap_or(changes);
                }
            }
            done = i + 1;
        }
        if done < conv.cmds.len() {
            // Stopped at an iteration boundary: close the session, whose
            // reply (`closed cycles=N`) legitimately differs from the full
            // run's.
            let Some(got) = self.timed(ids(), "CLOSE\n", Verb::Close) else {
                return false;
            };
            let head = &self.c.head;
            self.log
                .checks
                .check(got.ok, || format!("early CLOSE: {head}"));
        }
        let complete = done == conv.cmds.len();
        if !complete {
            // The early `CLOSE` is no repetition of the command whose place
            // it took.
            self.verb.pop();
            self.lat_us.pop();
            self.period_us.pop();
        }
        self.log.sessions.push(SessionLog {
            conv: conv_idx,
            matcher: m,
            verb: std::mem::take(&mut self.verb),
            lat_us: std::mem::take(&mut self.lat_us),
            period_us: std::mem::take(&mut self.period_us),
            changes,
            complete,
        });
        true
    }
}

/// One connection's closed loop: sessions back to back until the deadline
/// (at least one), over `matchers`.
fn connection(
    mut client: Client,
    inputs: &Inputs,
    convs: &[Conversation],
    matchers: &[&'static str],
) -> ConnLog {
    let conn = client.conn as usize;
    // Each connection walks its own seeded reshuffle of every (conversation,
    // matcher) pair it serves, cut anew every lap, so which sessions run side
    // by side averages out within a run instead of being fixed by the seed.
    let mut shuffler =
        SplitMix64::new(inputs.seed() ^ (conn as u64 + 1).wrapping_mul(0xA24B_AED4_963E_E407));
    let (progs, mine, stoppable): (Vec<&Prog>, Vec<usize>, bool) = match inputs {
        Inputs::Churn { progs, .. } => (progs.iter().collect(), (0..progs.len()).collect(), false),
        Inputs::Steady { prog, .. } => (vec![prog], vec![conn], true),
        Inputs::Direct(prog) => (vec![prog], vec![0], false),
    };
    let mut lap: Vec<(usize, usize)> = mine
        .iter()
        .flat_map(|c| (0..matchers.len()).map(move |m| (*c, m)))
        .collect();
    let mut k = 0usize;
    while k == 0 || Instant::now() < client.deadline {
        if k.is_multiple_of(lap.len()) {
            shuffler.shuffle(&mut lap);
        }
        let (c, m) = lap[k % lap.len()];
        // One conversation per churn program; every steady connection's
        // conversation runs on the one steady program.
        let prog = progs[c.min(progs.len() - 1)];
        spans::enter(
            &mut client.rec,
            "client.session",
            [conn as u32, k as u32, 0],
        );
        let alive = client.session(
            k,
            &prog.registry_name(),
            (m, matchers[m]),
            (c, &convs[c]),
            stoppable,
        );
        spans::exit(&mut client.rec);
        if !alive {
            break;
        }
        k += 1;
    }
    if let Some(r) = client.rec {
        client.log.checks.spans = r.into_spans();
    }
    client.log
}

/// Process CPU seconds (user + system, all threads) from `/proc/self/stat`.
pub fn cpu_seconds() -> f64 {
    let stat = std::fs::read_to_string("/proc/self/stat").unwrap_or_default();
    // Fields after the parenthesised command name; utime and stime are the
    // 14th and 15th fields overall, in clock ticks (100 Hz on Linux).
    let rest = stat.rsplit(')').next().unwrap_or("");
    let f: Vec<&str> = rest.split_whitespace().collect();
    let tick = |i: usize| f.get(i).and_then(|v| v.parse::<f64>().ok()).unwrap_or(0.0);
    (tick(11) + tick(12)) / 100.0
}

/// A measured served run, with the extras the traced pass reads.
pub struct ServedRun {
    pub outcome: Outcome,
    /// (verb, µs) of every command. Collected only with `obs` on: the traced
    /// TCP shell reads it, and the end-to-end pass should not carry it.
    pub lat: Vec<(Verb, f64)>,
    pub cpu_s: f64,
    /// `METRICS?` body, when the server ran with observability on.
    pub metrics: Vec<String>,
    pub conversations: Vec<Conversation>,
}

/// Set-up (programs, reference conversations, `setup_s` reps), then
/// `budget` of closed-loop load, then the end-to-end rows. `obs` runs the
/// server with observability on and scrapes `METRICS?`; `matchers` are the
/// ones sessions rotate over (vs2 alone in the traced onion's TCP shell);
/// `origin`
/// turns client-side span recording on; `conns` is the number of
/// connections ([`conns`] end to end, one for the onion's like-for-like TCP
/// shell).
#[allow(clippy::too_many_arguments)]
pub fn measure(
    inputs: &Inputs,
    budget: Duration,
    nproc: usize,
    conns: usize,
    scratch: &Path,
    obs: bool,
    matchers: &[&'static str],
    origin: Option<Instant>,
) -> Result<ServedRun, String> {
    write_programs(inputs, scratch)?;
    let convs = conversations(inputs)?;
    // Servers, workers and clients are spawned from here on and inherit the
    // confinement (see [`crate::affinity`]).
    let pin = Pinned::to_last(conns);
    let cfg = server_config(inputs, nproc, scratch, obs);
    let first = progs(inputs)[0].registry_name();
    let mut setup = Vec::new();
    let time_setups = |setup: &mut Vec<f64>| -> Result<(), String> {
        for rep in 0..SETUP_WARMUP + SETUP_REPS {
            let s = time_setup(&cfg, &first)?;
            if rep >= SETUP_WARMUP {
                setup.push(s);
            }
        }
        Ok(())
    };
    time_setups(&mut setup)?;

    let handle = Server::bind("127.0.0.1:0", cfg.clone())
        .map_err(|e| format!("bind: {e}"))?
        .spawn();
    let addr = handle.addr;
    let conns = match inputs {
        Inputs::Steady { streams, .. } => conns.min(streams.len()),
        _ => conns,
    };
    let cpu0 = cpu_seconds();
    let started = Instant::now();
    let deadline = started + budget;
    let logs: Vec<ConnLog> = std::thread::scope(|s| {
        let threads: Vec<_> = (0..conns)
            .map(|i| {
                let convs = &convs;
                let rec = origin.map(Recorder::new);
                s.spawn(move || {
                    let mut log = ConnLog::default();
                    match Conn::connect(addr) {
                        Ok(c) => {
                            let client = Client {
                                conn: i as u32,
                                c,
                                log,
                                rec,
                                deadline,
                                last_done: Instant::now(),
                                verb: Vec::new(),
                                lat_us: Vec::new(),
                                period_us: Vec::new(),
                            };
                            connection(client, inputs, convs, matchers)
                        }
                        Err(e) => {
                            log.checks.check(false, || format!("connect: {e}"));
                            log
                        }
                    }
                })
            })
            .collect();
        threads
            .into_iter()
            .map(|t| t.join().expect("connection thread panicked"))
            .collect()
    });
    let wall_s = started.elapsed().as_secs_f64();
    let cpu_s = cpu_seconds() - cpu0;

    let mut metrics = Vec::new();
    if obs {
        let mut c = Conn::connect(addr).map_err(|e| format!("connect for METRICS?: {e}"))?;
        c.request("METRICS?\n", Some(&mut metrics))
            .map_err(|e| format!("METRICS?: {e}"))?;
    }
    shutdown(handle)?;
    time_setups(&mut setup)?;

    let mut out = Outcome::default();
    let mut by_conn: Vec<Vec<SessionLog>> = Vec::new();
    for log in logs {
        out.absorb(log.checks);
        by_conn.push(log.sessions);
    }
    let commands: usize = by_conn.iter().flatten().map(|s| s.lat_us.len()).sum();
    let lat: Vec<(Verb, f64)> = by_conn
        .iter()
        .flatten()
        .filter(|_| obs)
        .flat_map(|s| s.verb.iter().zip(&s.lat_us))
        .map(|(verb, us)| (*verb, *us as f64))
        .collect();
    let sessions: f64 = by_conn
        .iter()
        .flatten()
        .map(|s| s.lat_us.len() as f64 / (convs[s.conv].cmds.len() + 1) as f64)
        .sum();
    let lap = Lap::of(&by_conn, matchers.len(), SERVED_QUIET);
    // Whole-session rates per matcher, for the rows' distributions.
    let mut rates: Vec<Vec<f64>> = vec![Vec::new(); matchers.len()];
    for s in by_conn.iter().flatten().filter(|s| s.complete) {
        let secs = s.period_us.iter().map(|us| *us as f64).sum::<f64>() / 1e6;
        rates[s.matcher].push(s.changes as f64 / secs);
    }
    for (m, matcher) in matchers.iter().enumerate() {
        out.rows.push(Row {
            value: lap.changes[m] / lap.secs[m],
            ..Row::median(format!("changes_per_s.{matcher}"), "1/s", &rates[m])
        });
    }
    out.rows.push(
        Row::single("cmds_per_s", "1/s", lap.cmds_per_s).with_note(format!(
            "replies received / wall, all connections: {:.1}",
            lat.len() as f64 / wall_s
        )),
    );
    let mut lap_us = lap.lat_us;
    if let Some(l) = stats::Latency::of(&mut lap_us) {
        out.rows.push(Row::single("cmd_p50_us", "us", l.p50));
        out.rows
            .push(Row::single("cmd_p99_us", "us", l.p99).with_note(format!(
                "over the {} commands of one lap, each at its quiet quantile over {} sent; \
             highest tail with >=10 beyond: p{} = {:.1} us",
                l.n,
                lat.len(),
                l.supported.0,
                l.supported.1
            )));
    }
    out.rows.push(
        Row::single("sessions_per_s", "1/s", lap.sessions_per_s)
            .with_note(format!("sessions / wall: {:.3}", sessions / wall_s)),
    );
    // Set-up is thread start-up and one `OPEN`, not a conversation: like the
    // direct workloads' it has no jitter the host does not give it, and its
    // two bursts can fall in different phases of the host.
    out.rows.push(Row {
        value: stats::quiet(&setup),
        ..Row::median("setup_s", "s", &setup)
    });
    match crate::peak_rss_mb() {
        Some(mb) => out.rows.push(Row::single("peak_rss_mb", "MiB", mb)),
        None => out.fail("cannot read VmHWM from /proc/self/status".into()),
    }
    let all: Vec<&Prog> = progs(inputs);
    out.sizes = vec![
        ("programs", all.len() as u64),
        (
            "rules",
            all.iter()
                .map(|p| ops5::Program::from_source(&p.source).map_or(0, |x| x.productions.len()))
                .sum::<usize>() as u64,
        ),
        ("setup_wmes", all.iter().map(|p| p.setup.len() as u64).sum()),
        (
            "conversation_cmds",
            convs.iter().map(|c| c.cmds.len() as u64).sum(),
        ),
        ("conversation_cycles", convs.iter().map(|c| c.cycles).sum()),
        (
            "conversation_changes",
            convs.iter().map(|c| c.changes).sum(),
        ),
        (
            "iterations_per_session",
            match inputs {
                Inputs::Steady { iterations, .. } => *iterations as u64,
                _ => 1,
            },
        ),
        ("connections", conns as u64),
        ("pinned_cpus", if pin.is_some() { conns as u64 } else { 0 }),
        ("sessions", sessions.round() as u64),
        ("commands", commands as u64),
    ];
    Ok(ServedRun {
        outcome: out,
        lat,
        cpu_s,
        metrics,
        conversations: convs,
    })
}

/// The end-to-end pass proper: [`measure`] with every instrument off.
pub fn run(
    inputs: &Inputs,
    budget: Duration,
    nproc: usize,
    matchers: &[&'static str],
    scratch: &Path,
    origin: Option<Instant>,
) -> Outcome {
    match measure(
        inputs,
        budget,
        nproc,
        conns(nproc),
        scratch,
        false,
        matchers,
        origin,
    ) {
        Ok(run) => run.outcome,
        Err(e) => {
            let mut out = Outcome::default();
            out.check(false, || e);
            out
        }
    }
}
