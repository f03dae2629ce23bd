//! The TCP front-end: accept handling, command framing between the wire
//! and the worker pool, and the pieces both front-ends share.
//!
//! Two front-ends implement the same line protocol:
//!
//! * **Threads** (this module's `conn_loop`): a reader thread and a writer
//!   thread per connection. The reader parses lines, frames `BATCH` and
//!   inline `OPEN -` bodies, and submits commands; replies must arrive in
//!   request order even though commands execute on pool workers, so the
//!   reader pushes a one-shot reply channel onto the writer's queue
//!   *before* submitting, and rejected submissions (`BUSY`/`OVERLOADED`)
//!   are answered by the reader through the same one-shot.
//! * **Reactor** ([`crate::server_nb`], the default): a single epoll
//!   thread owns accept/read/write for every connection and keeps the
//!   same ordering invariant with an explicit per-connection reply queue.
//!
//! Session construction (`OPEN`/`RESTORE`) is front-end-independent and
//! lives here as [`open_session`]/[`restore_session`] so both front-ends
//! produce byte-identical replies.
//!
//! Shutdown: `SHUTDOWN` stops the accept loop, connections wind down after
//! flushing queued replies, and the pool drains every queued command
//! before its workers exit.

use crate::pool::{Pool, PoolStats, Priority, ReplyTx, SessionSlot, SubmitOutcome};
use crate::protocol::{parse_line, Line, Reply};
use crate::registry::{matcher_kind, ProgramSpec, Registry};
use crate::session::{BatchItem, Command, Session};
use engine::{EngineLimits, MatcherKind};
use std::io::{self, Read, Write};
use std::net::{SocketAddr, TcpListener, TcpStream, ToSocketAddrs};
use std::path::PathBuf;
use std::sync::atomic::{AtomicBool, AtomicU64, AtomicUsize, Ordering};
use std::sync::{mpsc, Arc};
use std::thread::JoinHandle;
use std::time::Duration;

/// How often blocked reads wake up to check the stop flag.
const READ_TICK: Duration = Duration::from_millis(50);

/// How long a blocked socket write may stall before the connection is
/// declared too slow and dropped (thread front-end; the reactor bounds
/// slowness by buffer size instead).
const WRITE_STALL: Duration = Duration::from_secs(5);

/// Which connection front-end the server runs.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub enum FrontEnd {
    /// Two OS threads per connection (reader + writer). The original
    /// design, kept as the differential baseline behind
    /// `--front-end threads`.
    Threads,
    /// One reactor thread multiplexes every connection over epoll (the
    /// vendored `reactor` crate). Scales to tens of thousands of
    /// connections on a handful of threads.
    #[default]
    Reactor,
}

impl std::str::FromStr for FrontEnd {
    type Err = String;
    fn from_str(s: &str) -> Result<FrontEnd, String> {
        match s {
            "threads" => Ok(FrontEnd::Threads),
            "reactor" => Ok(FrontEnd::Reactor),
            other => Err(format!("unknown front-end `{other}` (threads|reactor)")),
        }
    }
}

/// Server tuning knobs.
#[derive(Clone)]
pub struct ServeConfig {
    /// Worker threads executing session commands.
    pub workers: usize,
    /// Per-session inbox depth; overflow replies `OVERLOADED`.
    pub queue_depth: usize,
    /// Global run-queue capacity; overflow replies `BUSY`.
    pub run_queue_cap: usize,
    /// `RUN n` is clamped to this many cycles per command.
    pub max_cycles_per_run: u64,
    /// Per-session engine limits (working-memory size, lifetime cycles).
    pub limits: EngineLimits,
    /// Matcher used when `OPEN` names none.
    pub matcher: MatcherKind,
    /// Act-phase strategy for every session engine. `None` (the default)
    /// keeps the builder default — serial, unless the process-wide
    /// `OPS5_ACT` knob says otherwise.
    pub act: Option<engine::ActStrategy>,
    /// Corpus directory for [`Registry::with_builtins`].
    pub programs_dir: Option<PathBuf>,
    /// Observability: when enabled every session engine gets a metrics
    /// registry (per-node match profiling, phase histograms), the pool
    /// records per-command latencies, and `METRICS?` answers with the
    /// aggregated Prometheus text exposition.
    pub obs: obs::ObsConfig,
    /// Serve the same exposition over HTTP (`GET /metrics`) on this
    /// loopback port (0 = ephemeral). Implies nothing about `obs`; enable
    /// both for a scrapeable server.
    pub metrics_port: Option<u16>,
    /// Durability: when set, every session journals its changes and
    /// firings to `<dir>/session-<id>.log` (flushed per command) with a
    /// checkpoint snapshot at `<dir>/session-<id>.snap`, so a killed
    /// worker can be recovered via `RESTORE`.
    pub durability_dir: Option<PathBuf>,
    /// Firings between durability checkpoints (snapshot rewrite + log
    /// truncation). Ignored without `durability_dir`.
    pub checkpoint_every: u64,
    /// Connection front-end: reactor (default) or thread-per-connection.
    pub front_end: FrontEnd,
    /// Reactor front-end: per-connection outbound buffer cap in bytes.
    /// A client that stops reading while replies accumulate past this
    /// bound is sent a final `ERR overloaded` and closed. Checked before
    /// each reply is appended, so a single reply larger than the cap
    /// (a big `SNAPSHOT?`) still goes out.
    pub write_buf_cap: usize,
    /// Thread front-end: cap on replies queued for the writer but not yet
    /// flushed. Past it the connection is closed with `ERR overloaded` —
    /// the thread-mode analogue of `write_buf_cap`.
    pub max_pending_replies: usize,
    /// Deadline preemption: a `RUN n` executes in slices of at most this
    /// many cycles, requeueing the session between slices so one long run
    /// cannot monopolize a worker. `0` disables slicing (a `RUN` occupies
    /// its worker until it finishes, as before). The default honors the
    /// `OPS5_RUN_SLICE` environment variable.
    pub run_slice_cycles: u64,
}

impl Default for ServeConfig {
    fn default() -> ServeConfig {
        ServeConfig {
            workers: 4,
            queue_depth: 16,
            run_queue_cap: 1024,
            max_cycles_per_run: 10_000,
            limits: EngineLimits::default(),
            matcher: MatcherKind::default(),
            act: None,
            programs_dir: None,
            obs: obs::ObsConfig::default(),
            metrics_port: None,
            durability_dir: None,
            checkpoint_every: 256,
            front_end: FrontEnd::default(),
            write_buf_cap: 256 * 1024,
            max_pending_replies: 4096,
            run_slice_cycles: std::env::var("OPS5_RUN_SLICE")
                .ok()
                .and_then(|v| v.parse().ok())
                .unwrap_or(0),
        }
    }
}

/// Server-side observability state: the server-level registry (pool
/// command latencies) plus the roster of live sessions whose per-engine
/// registries `METRICS?` aggregates.
pub(crate) struct ServerObs {
    pub(crate) registry: Arc<obs::Registry>,
    pub(crate) sessions: std::sync::Mutex<Vec<std::sync::Weak<SessionSlot>>>,
}

/// Connection-level instrumentation, shared by both front-ends and
/// registered in the server registry so `METRICS?` and `/metrics` expose
/// it. Present only when observability is enabled.
pub(crate) struct ConnCounters {
    /// Currently open client connections (gauge).
    pub(crate) connections_open: Arc<obs::Gauge>,
    /// Connections accepted since start.
    pub(crate) accepts: Arc<obs::Counter>,
    /// Bytes read off client sockets by the reactor.
    pub(crate) read_bytes: Arc<obs::Counter>,
    /// Bytes written to client sockets by the reactor.
    pub(crate) write_bytes: Arc<obs::Counter>,
    /// Reactor poll returns that delivered at least one event.
    pub(crate) wakeups: Arc<obs::Counter>,
    /// Connections closed because the client fell too far behind.
    pub(crate) slow_client_closes: Arc<obs::Counter>,
}

impl ConnCounters {
    fn new(reg: &Arc<obs::Registry>) -> ConnCounters {
        ConnCounters {
            connections_open: reg.gauge("serve_connections_open", Vec::new()),
            accepts: reg.counter("serve_accepts_total", Vec::new()),
            read_bytes: reg.counter("reactor_read_bytes_total", Vec::new()),
            write_bytes: reg.counter("reactor_write_bytes_total", Vec::new()),
            wakeups: reg.counter("reactor_wakeups_total", Vec::new()),
            slow_client_closes: reg.counter("serve_slow_client_closes_total", Vec::new()),
        }
    }
}

pub(crate) struct Shared {
    pub(crate) cfg: ServeConfig,
    pub(crate) registry: Registry,
    pub(crate) pool: Pool,
    pub(crate) stop: AtomicBool,
    pub(crate) next_session: AtomicU64,
    pub(crate) addr: SocketAddr,
    pub(crate) obs: Option<ServerObs>,
    pub(crate) counters: Option<ConnCounters>,
    pub(crate) metrics_addr: Option<SocketAddr>,
}

/// A bound server, ready to [`run`](Server::run) or [`spawn`](Server::spawn).
pub struct Server {
    listener: TcpListener,
    metrics_listener: Option<TcpListener>,
    shared: Arc<Shared>,
}

/// Handle to a spawned server: its address plus the accept-loop thread.
pub struct ServerHandle {
    pub addr: SocketAddr,
    /// Address of the HTTP metrics endpoint, when `metrics_port` was set.
    pub metrics_addr: Option<SocketAddr>,
    join: JoinHandle<io::Result<()>>,
}

impl ServerHandle {
    /// Waits for the server to shut down (a client must send `SHUTDOWN`).
    pub fn join(self) -> io::Result<()> {
        self.join
            .join()
            .map_err(|_| io::Error::other("server thread panicked"))?
    }
}

impl Server {
    pub fn bind(addr: impl ToSocketAddrs, cfg: ServeConfig) -> io::Result<Server> {
        let listener = TcpListener::bind(addr)?;
        let addr = listener.local_addr()?;
        let registry = Registry::with_builtins(cfg.programs_dir.as_deref());
        let server_obs = if cfg.obs.enabled {
            Some(ServerObs {
                registry: Arc::new(obs::Registry::new()),
                sessions: std::sync::Mutex::new(Vec::new()),
            })
        } else {
            None
        };
        let pool = Pool::new(
            cfg.workers,
            cfg.queue_depth,
            cfg.run_queue_cap,
            server_obs.as_ref().map(|o| &o.registry),
        );
        let metrics_listener = match cfg.metrics_port {
            Some(port) => Some(TcpListener::bind(("127.0.0.1", port))?),
            None => None,
        };
        let metrics_addr = match &metrics_listener {
            Some(l) => Some(l.local_addr()?),
            None => None,
        };
        let counters = server_obs.as_ref().map(|o| ConnCounters::new(&o.registry));
        Ok(Server {
            listener,
            metrics_listener,
            shared: Arc::new(Shared {
                cfg,
                registry,
                pool,
                stop: AtomicBool::new(false),
                next_session: AtomicU64::new(1),
                addr,
                obs: server_obs,
                counters,
                metrics_addr,
            }),
        })
    }

    pub fn local_addr(&self) -> SocketAddr {
        self.shared.addr
    }

    /// Address of the HTTP metrics endpoint, when `metrics_port` was set.
    pub fn metrics_addr(&self) -> Option<SocketAddr> {
        self.shared.metrics_addr
    }

    /// Serves until a `SHUTDOWN`, then returns once every connection has
    /// wound down and the pool has drained. Dispatches on
    /// [`ServeConfig::front_end`].
    pub fn run(self) -> io::Result<()> {
        let metrics_thread = self.metrics_listener.map(|l| {
            let shared = self.shared.clone();
            std::thread::spawn(move || serve_metrics_http(l, &shared))
        });
        let result = match self.shared.cfg.front_end {
            FrontEnd::Threads => run_threads(self.listener, &self.shared),
            FrontEnd::Reactor => crate::server_nb::run(self.listener, &self.shared),
        };
        // Either front-end sets the stop flag before returning, which is
        // what the metrics responder polls.
        self.shared.stop.store(true, Ordering::SeqCst);
        if let Some(h) = metrics_thread {
            let _ = h.join();
        }
        self.shared.pool.shutdown();
        result
    }

    /// Runs the accept loop on its own thread.
    pub fn spawn(self) -> ServerHandle {
        let addr = self.shared.addr;
        let metrics_addr = self.shared.metrics_addr;
        let join = std::thread::spawn(move || self.run());
        ServerHandle {
            addr,
            metrics_addr,
            join,
        }
    }

    pub fn pool_stats(&self) -> PoolStats {
        self.shared.pool.stats()
    }
}

/// Thread-per-connection accept loop (the original front-end).
fn run_threads(listener: TcpListener, shared: &Arc<Shared>) -> io::Result<()> {
    let mut conns: Vec<JoinHandle<()>> = Vec::new();
    for stream in listener.incoming() {
        if shared.stop.load(Ordering::SeqCst) {
            break;
        }
        let stream = match stream {
            Ok(s) => s,
            Err(_) => continue,
        };
        // Request/response protocol: without NODELAY the kernel holds
        // small replies for Nagle coalescing and every round trip eats
        // a delayed-ACK timeout.
        let _ = stream.set_nodelay(true);
        if let Some(c) = &shared.counters {
            c.accepts.inc();
        }
        let shared = shared.clone();
        conns.push(std::thread::spawn(move || handle_conn(stream, &shared)));
        // Opportunistically reap finished connections so a long-lived
        // server does not accumulate handles.
        conns.retain(|h| !h.is_finished());
    }
    for h in conns {
        let _ = h.join();
    }
    Ok(())
}

/// Timeout-aware line reader over the raw stream. `BufReader::read_line`
/// may leave partial data in an unspecified state across timeouts, so the
/// buffer is owned here and survives `WouldBlock` ticks intact.
struct LineReader {
    stream: TcpStream,
    buf: Vec<u8>,
}

impl LineReader {
    fn new(stream: TcpStream) -> io::Result<LineReader> {
        stream.set_read_timeout(Some(READ_TICK))?;
        Ok(LineReader {
            stream,
            buf: Vec::new(),
        })
    }

    /// Next full line (without terminator), `None` on EOF or server stop.
    fn next_line(&mut self, stop: &AtomicBool) -> Option<String> {
        loop {
            if let Some(i) = self.buf.iter().position(|&b| b == b'\n') {
                let raw: Vec<u8> = self.buf.drain(..=i).collect();
                let s = String::from_utf8_lossy(&raw);
                return Some(s.trim_end_matches(['\n', '\r']).to_string());
            }
            if stop.load(Ordering::SeqCst) {
                return None;
            }
            let mut chunk = [0u8; 4096];
            match self.stream.read(&mut chunk) {
                Ok(0) => return None,
                Ok(n) => self.buf.extend_from_slice(&chunk[..n]),
                Err(e)
                    if matches!(
                        e.kind(),
                        io::ErrorKind::WouldBlock
                            | io::ErrorKind::TimedOut
                            | io::ErrorKind::Interrupted
                    ) =>
                {
                    continue
                }
                Err(_) => return None,
            }
        }
    }
}

fn handle_conn(stream: TcpStream, shared: &Arc<Shared>) {
    let write_half = match stream.try_clone() {
        Ok(s) => s,
        Err(_) => return,
    };
    // A write that stalls this long means the client stopped reading;
    // erroring out lets the writer (and thus the connection) wind down
    // instead of blocking a thread on a dead socket forever.
    let _ = write_half.set_write_timeout(Some(WRITE_STALL));
    let mut reader = match LineReader::new(stream) {
        Ok(r) => r,
        Err(_) => return,
    };
    if let Some(c) = &shared.counters {
        c.connections_open.add(1);
    }

    // Reply channels queue up here in request order; the writer resolves
    // them one at a time, so slow commands never reorder replies. The
    // shared depth counter is how the reader notices the writer falling
    // behind a client that pipelines without draining.
    let pending = Arc::new(AtomicUsize::new(0));
    let (writer_tx, writer_rx) = mpsc::channel::<mpsc::Receiver<Reply>>();
    let queue = ReplyQueue {
        tx: writer_tx,
        pending: pending.clone(),
    };
    let writer = std::thread::spawn(move || {
        let mut out = io::BufWriter::new(write_half);
        for rx in writer_rx {
            let Ok(reply) = rx.recv() else {
                pending.fetch_sub(1, Ordering::Relaxed);
                continue;
            };
            let res = out.write_all(reply.to_string().as_bytes());
            pending.fetch_sub(1, Ordering::Relaxed);
            if res.is_err() || out.flush().is_err() {
                break;
            }
        }
    });

    conn_loop(&mut reader, shared, &queue);
    // Dropping the queue ends the writer once every queued reply flushed.
    drop(queue);
    let _ = writer.join();
    if let Some(c) = &shared.counters {
        c.connections_open.add(-1);
    }
}

/// The reader's side of the per-connection writer queue: the channel of
/// one-shot reply receivers plus the count of replies not yet flushed.
struct ReplyQueue {
    tx: mpsc::Sender<mpsc::Receiver<Reply>>,
    pending: Arc<AtomicUsize>,
}

/// Answers a request on the spot, still through the ordered writer queue.
fn send_direct(queue: &ReplyQueue, reply: Reply) {
    let (tx, rx) = mpsc::sync_channel(1);
    let _ = tx.send(reply);
    queue.pending.fetch_add(1, Ordering::Relaxed);
    let _ = queue.tx.send(rx);
}

/// Queues a command; on rejection the backpressure reply takes the
/// command's reserved place in the writer queue. Returns whether the pool
/// actually accepted the command.
fn submit(queue: &ReplyQueue, shared: &Shared, slot: &Arc<SessionSlot>, cmd: Command) -> bool {
    let (tx, rx) = mpsc::sync_channel(1);
    queue.pending.fetch_add(1, Ordering::Relaxed);
    let _ = queue.tx.send(rx);
    let reject = match shared.pool.submit(slot, cmd, ReplyTx::Channel(tx.clone())) {
        SubmitOutcome::Accepted => None,
        SubmitOutcome::Busy => Some(Reply::Busy("run queue full; retry".into())),
        SubmitOutcome::Overloaded => Some(Reply::Overloaded(
            "session queue full; drain replies".into(),
        )),
        SubmitOutcome::ShuttingDown => Some(Reply::Err("server shutting down".into())),
    };
    match reject {
        Some(r) => {
            let _ = tx.send(r);
            false
        }
        None => true,
    }
}

/// Adds a freshly opened (or restored) session to the observability roster,
/// pruning dead sessions while the lock is held so a long-lived server's
/// roster stays bounded.
pub(crate) fn register_session(shared: &Shared, new_slot: &Arc<SessionSlot>) {
    if let Some(o) = &shared.obs {
        let mut sessions = o.sessions.lock().expect("obs sessions");
        sessions.retain(|w| w.upgrade().is_some());
        sessions.push(Arc::downgrade(new_slot));
    }
}

/// Resolves an optional `OPEN`/`RESTORE` matcher name against the
/// configured default. Both front-ends validate this *before* consuming an
/// inline body, so the error ordering on the wire is identical.
pub(crate) fn resolve_matcher(
    shared: &Shared,
    matcher: Option<&str>,
) -> Result<MatcherKind, String> {
    Ok(matcher
        .map(matcher_kind)
        .transpose()?
        .unwrap_or_else(|| shared.cfg.matcher.clone()))
}

/// Resolves an optional `PRIO=<class>` argument (or `PRIO` verb operand)
/// into a scheduling class. Both front-ends validate this *before*
/// consuming an inline body, like [`resolve_matcher`].
pub(crate) fn resolve_priority(prio: Option<&str>) -> Result<Option<Priority>, String> {
    match prio {
        None => Ok(None),
        Some(p) => Priority::from_name(p)
            .map(Some)
            .ok_or_else(|| format!("unknown priority `{p}` (high|normal|batch)")),
    }
}

/// Builds and registers a session for `OPEN`. `inline_src` carries the
/// collected body of `OPEN -`; otherwise `program` names a registry entry.
/// Returns the slot plus the `OK` reply, or the error reply — identical
/// text from either front-end. A `prio` of `Some` puts the slot in that
/// scheduling class and is echoed in the reply.
pub(crate) fn open_session(
    shared: &Shared,
    program: &str,
    kind: MatcherKind,
    prio: Option<Priority>,
    inline_src: Option<String>,
) -> Result<(Arc<SessionSlot>, Reply), Reply> {
    let inline;
    let spec: &ProgramSpec = match inline_src {
        Some(src) => {
            inline = ProgramSpec::from_source(src);
            &inline
        }
        None => shared.registry.get(program).ok_or_else(|| {
            Reply::Err(format!(
                "unknown program `{program}` (have: {})",
                shared.registry.names().join(" ")
            ))
        })?,
    };
    let mut engine = spec
        .build(kind.clone(), shared.cfg.limits, shared.cfg.act)
        .map_err(|e| Reply::Err(e.to_string()))?;
    let id = shared.next_session.fetch_add(1, Ordering::Relaxed);
    let name = engine.matcher().name().to_string();
    if shared.obs.is_some() {
        engine.enable_obs(obs::ObsConfig::enabled());
    }
    let mut session = Session::new(id, program, engine, kind, shared.cfg.max_cycles_per_run);
    session.set_run_slice(shared.cfg.run_slice_cycles);
    if let Some(dir) = &shared.cfg.durability_dir {
        session
            .attach_durability(dir, shared.cfg.checkpoint_every)
            .map_err(|e| Reply::Err(format!("durability: {e}")))?;
    }
    let new_slot = SessionSlot::new(session);
    let prio_note = match prio {
        Some(p) => {
            new_slot.set_priority(p);
            format!(" prio={}", p.name())
        }
        None => String::new(),
    };
    register_session(shared, &new_slot);
    Ok((
        new_slot,
        Reply::Ok(format!(
            "session {id} program={program} matcher={name}{prio_note}"
        )),
    ))
}

/// Rebuilds a session from a `RESTORE` body (snapshot text, then change
/// log; the snapshot's own terminator is lowercase `end`). Shared by both
/// front-ends for identical reply text.
pub(crate) fn restore_session(
    shared: &Shared,
    program: &str,
    kind: MatcherKind,
    prio: Option<Priority>,
    body: &[String],
) -> Result<(Arc<SessionSlot>, Reply), Reply> {
    let spec = shared.registry.get(program).ok_or_else(|| {
        Reply::Err(format!(
            "unknown program `{program}` (have: {})",
            shared.registry.names().join(" ")
        ))
    })?;
    let split = body
        .iter()
        .position(|l| l.trim() == "end")
        .ok_or_else(|| Reply::Err("RESTORE body has no snapshot terminator `end`".into()))?;
    let snap_text = body[..=split].join("\n");
    let log_text = body[split + 1..].join("\n");
    let mut engine = spec
        .build_empty(kind.clone(), shared.cfg.limits, shared.cfg.act)
        .map_err(|e| Reply::Err(e.to_string()))?;
    if shared.obs.is_some() {
        engine.enable_obs(obs::ObsConfig::enabled());
    }
    let id = shared.next_session.fetch_add(1, Ordering::Relaxed);
    let (mut session, replayed) = Session::restore(
        id,
        program,
        engine,
        kind,
        shared.cfg.max_cycles_per_run,
        &snap_text,
        &log_text,
    )
    .map_err(Reply::Err)?;
    let name = session.engine().matcher().name().to_string();
    let cycles = session.engine().cycles();
    session.set_run_slice(shared.cfg.run_slice_cycles);
    if let Some(dir) = &shared.cfg.durability_dir {
        session
            .attach_durability(dir, shared.cfg.checkpoint_every)
            .map_err(|e| Reply::Err(format!("durability: {e}")))?;
    }
    let new_slot = SessionSlot::new(session);
    let prio_note = match prio {
        Some(p) => {
            new_slot.set_priority(p);
            format!(" prio={}", p.name())
        }
        None => String::new(),
    };
    register_session(shared, &new_slot);
    Ok((
        new_slot,
        Reply::Ok(format!(
            "session {id} program={program} matcher={name} \
             replayed={replayed} cycles={cycles}{prio_note}"
        )),
    ))
}

/// The `METRICS?` reply — works without an open session.
pub(crate) fn metrics_reply(shared: &Shared) -> Reply {
    match &shared.obs {
        Some(_) => {
            let text = render_metrics(shared);
            let lines: Vec<String> = text.lines().map(str::to_string).collect();
            Reply::Multi {
                head: format!("METRICS {}", lines.len()),
                lines,
            }
        }
        None => Reply::Err("metrics disabled (start with --metrics or obs enabled)".into()),
    }
}

fn conn_loop(reader: &mut LineReader, shared: &Arc<Shared>, writer_tx: &ReplyQueue) {
    let mut slot: Option<Arc<SessionSlot>> = None;
    while let Some(line) = reader.next_line(&shared.stop) {
        // A client that pipelines requests without draining replies
        // eventually exhausts its reply backlog allowance; close it with a
        // final diagnostic rather than queueing without bound.
        if writer_tx.pending.load(Ordering::Relaxed) > shared.cfg.max_pending_replies {
            if let Some(c) = &shared.counters {
                c.slow_client_closes.inc();
            }
            send_direct(
                writer_tx,
                Reply::Err("overloaded: reply backlog exceeded; closing".into()),
            );
            return;
        }
        if line.trim().is_empty() {
            continue;
        }
        let parsed = match parse_line(&line) {
            Ok(l) => l,
            Err(e) => {
                send_direct(writer_tx, Reply::Err(e));
                continue;
            }
        };
        match parsed {
            Line::Open {
                program,
                matcher,
                prio,
            } => {
                if slot.is_some() {
                    send_direct(
                        writer_tx,
                        Reply::Err("session already open (CLOSE first)".into()),
                    );
                    // An inline body would follow; we cannot know, so leave
                    // it to parse as commands and fail loudly.
                    continue;
                }
                let kind = match resolve_matcher(shared, matcher.as_deref()) {
                    Ok(k) => k,
                    Err(e) => {
                        send_direct(writer_tx, Reply::Err(e));
                        continue;
                    }
                };
                let prio = match resolve_priority(prio.as_deref()) {
                    Ok(p) => p,
                    Err(e) => {
                        send_direct(writer_tx, Reply::Err(e));
                        continue;
                    }
                };
                let inline_src = if program == "-" {
                    let mut src = String::new();
                    loop {
                        match reader.next_line(&shared.stop) {
                            Some(l) if l.trim().eq_ignore_ascii_case("END") => break,
                            Some(l) => {
                                src.push_str(&l);
                                src.push('\n');
                            }
                            None => return,
                        }
                    }
                    Some(src)
                } else {
                    None
                };
                match open_session(shared, &program, kind, prio, inline_src) {
                    Ok((new_slot, ok)) => {
                        slot = Some(new_slot);
                        send_direct(writer_tx, ok);
                    }
                    Err(e) => send_direct(writer_tx, e),
                }
            }
            Line::Restore {
                program,
                matcher,
                prio,
            } => {
                // Consume the body framing unconditionally so a failed
                // RESTORE does not leave its payload to parse as commands.
                let mut body = Vec::new();
                let body = loop {
                    match reader.next_line(&shared.stop) {
                        // Exact-case match: the snapshot text's own
                        // terminator is lowercase `end` and must stay in
                        // the body.
                        Some(l) if l.trim() == "END" => break body,
                        Some(l) => body.push(l),
                        None => return,
                    }
                };
                if slot.is_some() {
                    send_direct(
                        writer_tx,
                        Reply::Err("session already open (CLOSE first)".into()),
                    );
                    continue;
                }
                let kind = match resolve_matcher(shared, matcher.as_deref()) {
                    Ok(k) => k,
                    Err(e) => {
                        send_direct(writer_tx, Reply::Err(e));
                        continue;
                    }
                };
                let prio = match resolve_priority(prio.as_deref()) {
                    Ok(p) => p,
                    Err(e) => {
                        send_direct(writer_tx, Reply::Err(e));
                        continue;
                    }
                };
                match restore_session(shared, &program, kind, prio, &body) {
                    Ok((new_slot, ok)) => {
                        slot = Some(new_slot);
                        send_direct(writer_tx, ok);
                    }
                    Err(e) => send_direct(writer_tx, e),
                }
            }
            Line::BatchStart => {
                let mut items = Vec::new();
                // 1-based position within the batch body; counts every line
                // after BATCH (blanks included) so errors point at the line
                // the client actually sent.
                let mut line_no = 0usize;
                let reply = loop {
                    match reader.next_line(&shared.stop) {
                        Some(l) => {
                            line_no += 1;
                            if l.trim().is_empty() {
                                continue;
                            }
                            match parse_line(&l) {
                                Ok(Line::Assert(body)) => items.push(BatchItem::Assert {
                                    line: line_no,
                                    body,
                                }),
                                Ok(Line::Retract(tag)) => {
                                    items.push(BatchItem::Retract { line: line_no, tag })
                                }
                                Ok(Line::End) => break None,
                                Ok(other) => {
                                    break Some(Reply::Err(format!(
                                        "BATCH line {line_no}: only ASSERT/RETRACT allowed, \
                                         got {other:?}"
                                    )))
                                }
                                Err(e) => {
                                    break Some(Reply::Err(format!("BATCH line {line_no}: {e}")))
                                }
                            }
                        }
                        None => return,
                    }
                };
                match (reply, &slot) {
                    (Some(err), _) => send_direct(writer_tx, err),
                    (None, Some(s)) => {
                        submit(writer_tx, shared, s, Command::Batch(items));
                    }
                    (None, None) => send_direct(writer_tx, Reply::Err("no open session".into())),
                }
            }
            Line::End => send_direct(writer_tx, Reply::Err("END outside BATCH".into())),
            // Server-wide: answered by the reader itself (works without an
            // open session), still through the ordered writer queue.
            Line::Metrics => send_direct(writer_tx, metrics_reply(shared)),
            Line::Shutdown => {
                send_direct(writer_tx, Reply::Ok("shutting down".into()));
                shared.stop.store(true, Ordering::SeqCst);
                // Unblock the accept loop so it can observe the flag.
                let _ = TcpStream::connect(shared.addr);
                break;
            }
            // Scheduling controls: answered by the reader itself so they
            // bypass the session's inbox — a CANCEL must work precisely
            // when that inbox is backed up.
            Line::Prio(class) => match &slot {
                Some(s) => {
                    let reply = match resolve_priority(Some(&class)) {
                        Ok(Some(p)) => {
                            s.set_priority(p);
                            Reply::Ok(format!("prio={}", p.name()))
                        }
                        Ok(None) => unreachable!("Some in, Some out"),
                        Err(e) => Reply::Err(e),
                    };
                    send_direct(writer_tx, reply);
                }
                None => send_direct(writer_tx, Reply::Err("no open session".into())),
            },
            Line::Cancel => match &slot {
                Some(s) => {
                    let n = s.cancel();
                    send_direct(writer_tx, Reply::Ok(format!("cancelled pending={n}")));
                }
                None => send_direct(writer_tx, Reply::Err("no open session".into())),
            },
            Line::Close => match &slot {
                // Release the slot only once the pool has the command: a
                // rejected CLOSE (`BUSY`) must leave the session open so the
                // client's retry still has something to close.
                Some(s) => {
                    if submit(writer_tx, shared, s, Command::Close) {
                        slot = None;
                    }
                }
                None => send_direct(writer_tx, Reply::Err("no open session".into())),
            },
            session_cmd => {
                let cmd = match session_cmd {
                    Line::Assert(body) => Command::Assert(body),
                    Line::Retract(tag) => Command::Retract(tag),
                    Line::Run(n) => Command::Run(n),
                    Line::Cs => Command::Cs,
                    Line::Wm(class) => Command::Wm(class),
                    Line::Stats => Command::Stats,
                    Line::Fired => Command::Fired,
                    Line::Snapshot => Command::Snapshot,
                    Line::Migrate(m) => Command::Migrate(m),
                    // Open/Restore/BatchStart/End/Shutdown/Close handled
                    // above.
                    _ => unreachable!(),
                };
                match &slot {
                    Some(s) => {
                        submit(writer_tx, shared, s, cmd);
                    }
                    None => send_direct(writer_tx, Reply::Err("no open session".into())),
                }
            }
        }
    }
}

/// Builds the aggregated Prometheus text exposition: the server-level
/// registry (pool command latencies) merged with every live session's
/// engine registry — labeled `session`/`program`/`matcher` so same-named
/// series stay distinguishable — plus synthetic per-join-node counters for
/// each session's ten hottest join nodes, labeled with the join id and the
/// owning production.
pub(crate) fn render_metrics(shared: &Shared) -> String {
    let Some(o) = &shared.obs else {
        return String::new();
    };
    let mut snap = o.registry.snapshot();
    let slots: Vec<Arc<SessionSlot>> = {
        let mut sessions = o.sessions.lock().expect("obs sessions");
        sessions.retain(|w| w.upgrade().is_some());
        sessions.iter().filter_map(|w| w.upgrade()).collect()
    };
    for slot in slots {
        slot.with_session(|s| {
            let sid = s.id.to_string();
            let engine = s.engine();
            let matcher = engine.matcher().name().to_string();
            if let Some(reg) = engine.obs_registry() {
                snap.merge(
                    reg.snapshot()
                        .with_label("session", &sid)
                        .with_label("program", &s.program)
                        .with_label("matcher", &matcher),
                );
            }
            if let Some(profile) = engine.node_profile() {
                let net = engine.network();
                let mut hot = obs::Snapshot::default();
                for node in profile.top_n(10) {
                    let j = &net.joins[node.join];
                    let labels: obs::Labels = vec![
                        ("join".to_string(), node.join.to_string()),
                        ("prod".to_string(), net.prod_names[j.prod.index()].clone()),
                        ("ce".to_string(), j.ce_index.to_string()),
                        ("session".to_string(), sid.clone()),
                        ("matcher".to_string(), matcher.clone()),
                    ];
                    hot.metrics.push(obs::MetricValue {
                        name: "rete_join_activations_total".to_string(),
                        labels: labels.clone(),
                        data: obs::MetricData::Counter(node.activations),
                    });
                    hot.metrics.push(obs::MetricValue {
                        name: "rete_join_scanned_total".to_string(),
                        labels,
                        data: obs::MetricData::Counter(node.scanned),
                    });
                }
                snap.merge(hot);
            }
        });
    }
    // How often each registry program was parsed + compiled: 1 from its
    // first `OPEN`/`RESTORE` on, however many sessions followed.
    snap.metrics
        .extend(shared.registry.iter().map(|(name, spec)| obs::MetricValue {
            name: "serve_program_compiles_total".to_string(),
            labels: vec![("program".to_string(), name.to_string())],
            data: obs::MetricData::Counter(spec.compiles()),
        }));
    let mut out = String::new();
    snap.render_prometheus(&mut out);
    out
}

/// Minimal HTTP/1.0 responder for the metrics endpoint: nonblocking accept
/// polling the stop flag, one short-lived connection per scrape. Every path
/// answers with the exposition, so `GET /metrics` and `GET /` both work.
fn serve_metrics_http(listener: TcpListener, shared: &Arc<Shared>) {
    if listener.set_nonblocking(true).is_err() {
        return;
    }
    while !shared.stop.load(Ordering::SeqCst) {
        match listener.accept() {
            Ok((mut stream, _)) => {
                let _ = stream.set_nonblocking(false);
                let _ = stream.set_read_timeout(Some(READ_TICK));
                // Drain what the client sent of the request head; the body
                // of the reply does not depend on it.
                let mut buf = [0u8; 1024];
                let _ = stream.read(&mut buf);
                let body = render_metrics(shared);
                let resp = format!(
                    "HTTP/1.0 200 OK\r\nContent-Type: text/plain; version=0.0.4\r\n\
                     Content-Length: {}\r\n\r\n{}",
                    body.len(),
                    body
                );
                let _ = stream.write_all(resp.as_bytes());
            }
            Err(e) if e.kind() == io::ErrorKind::WouldBlock => {
                std::thread::sleep(READ_TICK);
            }
            Err(_) => std::thread::sleep(READ_TICK),
        }
    }
}
