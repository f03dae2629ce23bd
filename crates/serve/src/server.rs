//! The server: configuration, the state every connection shares, session
//! construction, and the metrics exposition.
//!
//! A connection's protocol state lives in the socket-free core (`conn`,
//! over [`crate::protocol::Framer`]); the one epoll thread that moves bytes
//! between sockets and cores is the `driver`, which this module plugs the
//! core into. What is left here is what they both need: session
//! construction for `OPEN`/`RESTORE` and the `METRICS?` text.
//!
//! Shutdown: `SHUTDOWN` stops the accept loop, connections wind down after
//! flushing queued replies, and the pool drains every queued command
//! before its workers exit.

use crate::conn::Conn;
use crate::driver::{self, Core, Cores, Service};
use crate::pool::{Completions, Pool, PoolStats, Priority, SessionSlot};
use crate::protocol::{Origin, Reply};
use crate::registry::{matcher_kind, ProgramSpec, Registry};
use crate::session::{JournalCounters, Session};
use engine::{EngineLimits, MatcherKind};
use std::io::{self, Read, Write};
use std::net::{SocketAddr, TcpListener, ToSocketAddrs};
use std::path::PathBuf;
use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};
use std::sync::Arc;
use std::thread::JoinHandle;
use std::time::Duration;

/// How often the metrics responder wakes up to check the stop flag.
const READ_TICK: Duration = Duration::from_millis(50);

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
    /// Per-connection cap, in bytes, on replies produced but not yet
    /// written to the socket — flushable or parked behind a command still
    /// executing. A client that stops reading while replies accumulate past
    /// this bound is sent a final `ERR overloaded` and closed. Checked
    /// before each reply is queued, so a single reply larger than the cap
    /// (a big `SNAPSHOT?`) still goes out.
    pub write_buf_cap: usize,
    /// Deadline preemption: a `RUN n` executes in slices of at most this
    /// many cycles, requeueing the session between slices so one long run
    /// cannot monopolize a worker. `0`, the default, disables slicing (a
    /// `RUN` occupies its worker until it finishes).
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
            programs_dir: None,
            obs: obs::ObsConfig::default(),
            metrics_port: None,
            durability_dir: None,
            checkpoint_every: 256,
            write_buf_cap: 256 * 1024,
            run_slice_cycles: 0,
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

/// Connection-level instrumentation, registered in the server registry so
/// `METRICS?` and `/metrics` expose it. Present only when observability is
/// enabled.
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
    /// Syscalls the reactor thread makes, one counter each: every return of
    /// `epoll_wait` (timeouts included), every `epoll_ctl`, every call into
    /// a client socket's `read`/`write`, and the completion waker's eventfd
    /// (written by whichever thread finished a command, read by the
    /// reactor).
    pub(crate) epoll_waits: Arc<obs::Counter>,
    pub(crate) epoll_ctls: Arc<obs::Counter>,
    pub(crate) read_calls: Arc<obs::Counter>,
    pub(crate) write_calls: Arc<obs::Counter>,
    pub(crate) eventfd_writes: Arc<obs::Counter>,
    pub(crate) eventfd_reads: Arc<obs::Counter>,
    /// Syscalls on session journals; every durable session gets a clone.
    pub(crate) journal: JournalCounters,
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
            epoll_waits: reg.counter("reactor_epoll_wait_total", Vec::new()),
            epoll_ctls: reg.counter("reactor_epoll_ctl_total", Vec::new()),
            read_calls: reg.counter("reactor_read_calls_total", Vec::new()),
            write_calls: reg.counter("reactor_write_calls_total", Vec::new()),
            eventfd_writes: reg.counter("reactor_eventfd_write_total", Vec::new()),
            eventfd_reads: reg.counter("reactor_eventfd_read_total", Vec::new()),
            journal: JournalCounters::new(reg),
            slow_client_closes: reg.counter("serve_slow_client_closes_total", Vec::new()),
        }
    }
}

/// What every connection shares. Holds no socket, so the connection core
/// can be driven against it without one.
pub(crate) struct Shared {
    pub(crate) cfg: ServeConfig,
    pub(crate) registry: Registry,
    pub(crate) pool: Pool,
    pub(crate) stop: AtomicBool,
    pub(crate) next_session: AtomicU64,
    pub(crate) obs: Option<ServerObs>,
    pub(crate) counters: Option<ConnCounters>,
}

impl Shared {
    pub(crate) fn new(cfg: ServeConfig) -> Shared {
        let registry = Registry::with_builtins(cfg.programs_dir.as_deref());
        let obs = cfg.obs.enabled.then(|| ServerObs {
            registry: Arc::new(obs::Registry::new()),
            sessions: std::sync::Mutex::new(Vec::new()),
        });
        let pool = Pool::new(
            cfg.workers,
            cfg.queue_depth,
            cfg.run_queue_cap,
            obs.as_ref().map(|o| &o.registry),
        );
        let counters = obs.as_ref().map(|o| ConnCounters::new(&o.registry));
        Shared {
            cfg,
            registry,
            pool,
            stop: AtomicBool::new(false),
            next_session: AtomicU64::new(1),
            obs,
            counters,
        }
    }
}

/// A bound server, ready to [`run`](Server::run) or [`spawn`](Server::spawn).
pub struct Server {
    listener: TcpListener,
    addr: SocketAddr,
    metrics_listener: Option<TcpListener>,
    metrics_addr: Option<SocketAddr>,
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
        let metrics_listener = match cfg.metrics_port {
            Some(port) => Some(TcpListener::bind(("127.0.0.1", port))?),
            None => None,
        };
        let metrics_addr = match &metrics_listener {
            Some(l) => Some(l.local_addr()?),
            None => None,
        };
        Ok(Server {
            listener,
            addr,
            metrics_listener,
            metrics_addr,
            shared: Arc::new(Shared::new(cfg)),
        })
    }

    pub fn local_addr(&self) -> SocketAddr {
        self.addr
    }

    /// Address of the HTTP metrics endpoint, when `metrics_port` was set.
    pub fn metrics_addr(&self) -> Option<SocketAddr> {
        self.metrics_addr
    }

    /// Serves until a `SHUTDOWN`, then returns once every connection has
    /// wound down and the pool has drained.
    pub fn run(self) -> io::Result<()> {
        let metrics_thread = self.metrics_listener.map(|l| {
            let shared = self.shared.clone();
            std::thread::spawn(move || serve_metrics_http(l, &shared))
        });
        let shared = &self.shared;
        let result = driver::run(self.listener, shared.counters.as_ref(), |waker| {
            let writes = shared.counters.as_ref().map(|c| c.eventfd_writes.clone());
            Front {
                shared,
                // Workers hand replies back through the waker.
                completions: Arc::new(Completions::new(move || {
                    if let Some(w) = &writes {
                        w.inc();
                    }
                    let _ = waker.wake();
                })),
            }
        });
        // The metrics responder polls the stop flag; set it on the error
        // path too.
        self.shared.stop.store(true, Ordering::SeqCst);
        if let Some(h) = metrics_thread {
            let _ = h.join();
        }
        self.shared.pool.shutdown();
        result
    }

    /// Runs the server on its own thread.
    pub fn spawn(self) -> ServerHandle {
        let addr = self.addr;
        let metrics_addr = self.metrics_addr;
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

/// The server as the driver sees it: a [`Conn`] per connection, pool
/// completions as the results made elsewhere.
struct Front<'a> {
    shared: &'a Shared,
    completions: Arc<Completions>,
}

impl Service for Front<'_> {
    type Core = Conn;
    /// After `SHUTDOWN`, how long connections get to flush queued replies.
    const GRACE: Duration = Duration::from_secs(10);

    fn input(&mut self, cores: &mut Cores<'_, Conn>, idx: usize, client_eof: bool) {
        if let Some(conn) = cores.get_mut(idx) {
            conn.process(self.shared, &self.completions);
            if client_eof {
                conn.close_input();
            }
        }
    }

    /// Routes worker replies to the cores that are waiting for them.
    fn external(&mut self, cores: &mut Cores<'_, Conn>) {
        for (cid, seq, reply) in self.completions.drain() {
            if let Some(idx) = cores.find(cid) {
                if let Some(conn) = cores.get_mut(idx) {
                    conn.complete(seq, reply, self.shared);
                    cores.touch(idx);
                }
            }
        }
    }

    fn stopping(&self) -> bool {
        self.shared.stop.load(Ordering::SeqCst)
    }
}

/// Parses a scheduling class name (`PRIO=<class>`, `PRIO <class>`).
pub(crate) fn parse_priority(name: &str) -> Result<Priority, String> {
    Priority::from_name(name)
        .ok_or_else(|| format!("unknown priority `{name}` (high|normal|batch)"))
}

fn registered<'a>(shared: &'a Shared, program: &str) -> Result<&'a ProgramSpec, String> {
    shared.registry.get(program).ok_or_else(|| {
        format!(
            "unknown program `{program}` (have: {})",
            shared.registry.names().join(" ")
        )
    })
}

/// Splits a `RESTORE` body into snapshot text — up to and including its
/// own terminator line, a lowercase `end` — and the change log after it.
fn split_snapshot(body: &str) -> Result<(&str, &str), String> {
    let mut at = 0;
    for line in body.split_inclusive('\n') {
        at += line.len();
        if line.trim() == "end" {
            return Ok(body.split_at(at));
        }
    }
    Err("RESTORE body has no snapshot terminator `end`".into())
}

/// Builds a session for `OPEN`/`RESTORE` and puts it into service. Returns
/// the slot and the `OK` payload, or the `ERR` text; errors are reported in
/// the order matcher, `PRIO=` class, program, body.
pub(crate) fn open_session(
    shared: &Shared,
    program: &str,
    matcher: Option<&str>,
    prio: Option<&str>,
    origin: Origin,
) -> Result<(Arc<SessionSlot>, String), String> {
    let cfg = &shared.cfg;
    let kind = match matcher {
        Some(m) => matcher_kind(m)?,
        None => cfg.matcher.clone(),
    };
    let prio = prio.map(parse_priority).transpose()?;
    let inline;
    let (spec, body) = match origin {
        Origin::Registry => (registered(shared, program)?, None),
        Origin::Inline(source) => {
            inline = ProgramSpec::from_source(source);
            (&inline, None)
        }
        Origin::Snapshot(body) => (registered(shared, program)?, Some(body)),
    };
    let snapshot = body.as_deref().map(split_snapshot).transpose()?;
    let mut engine = match snapshot {
        None => spec.build(kind.clone(), cfg.limits, None),
        Some(_) => spec.build_empty(kind.clone(), cfg.limits),
    }
    .map_err(|e| e.to_string())?;
    if shared.obs.is_some() {
        engine.enable_obs(obs::ObsConfig::enabled());
    }
    let id = shared.next_session.fetch_add(1, Ordering::Relaxed);
    let mut ok = format!(
        "session {id} program={program} matcher={}",
        engine.matcher().name()
    );
    let mut session = match snapshot {
        None => Session::new(id, program, engine, kind, cfg.max_cycles_per_run),
        Some((snap_text, log_text)) => {
            let (session, replayed) = Session::restore(
                id,
                program,
                engine,
                kind,
                cfg.max_cycles_per_run,
                snap_text,
                log_text,
            )?;
            ok.push_str(&format!(
                " replayed={replayed} cycles={}",
                session.engine().cycles()
            ));
            session
        }
    };
    session.set_run_slice(cfg.run_slice_cycles);
    if let Some(c) = &shared.counters {
        session.count_journal(c.journal.clone());
    }
    if let Some(dir) = &cfg.durability_dir {
        session
            .attach_durability(dir, cfg.checkpoint_every)
            .map_err(|e| format!("durability: {e}"))?;
    }
    let slot = SessionSlot::new(session);
    if let Some(p) = prio {
        slot.set_priority(p);
        ok.push_str(&format!(" prio={}", p.name()));
    }
    // Add the session to the observability roster, pruning dead ones while
    // the lock is held so a long-lived server's roster stays bounded.
    if let Some(o) = &shared.obs {
        let mut sessions = o.sessions.lock().expect("obs sessions");
        sessions.retain(|w| w.upgrade().is_some());
        sessions.push(Arc::downgrade(&slot));
    }
    Ok((slot, ok))
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
            // A poisoned engine is never read again, not even for metrics.
            if s.is_poisoned() {
                return;
            }
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
