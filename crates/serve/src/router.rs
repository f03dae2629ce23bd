//! `ops5-router` — consistent-hash session sharding across server
//! processes, with live migration on drain.
//!
//! One serve process multiplexes many sessions over a worker pool; the
//! router is the next scaling step out: it spreads client connections
//! across *several* `ops5-serve` backends. Placement is a consistent-hash
//! ring (FNV-1a over virtual nodes, [`RouterConfig::replicas`] points per
//! backend) keyed by a router-assigned per-connection session key, so
//! adding or draining a backend moves only the sessions that must move.
//!
//! The router is a line-level proxy on a single reactor thread. For each
//! client connection it tracks just enough protocol state to stay honest:
//!
//! * client→backend request framing and a count of requests in flight. The
//!   router runs the server's own [`Framer`] over the client's bytes, so
//!   "this line completes a request, which draws exactly one reply" is
//!   decided by the same code on both sides of the relay; the router just
//!   forwards each framed line as it goes;
//! * backend→client reply framing ([`ReplyFramer`]), which is how in-flight
//!   drops;
//! * the session's registry program and matcher, sniffed from the `OPEN`/
//!   `RESTORE` the client sent (confirmed against the backend's `OK`), so
//!   the session can be reconstructed elsewhere.
//!
//! **Drain / rebalance.** A connection whose first line is `ADMIN` speaks
//! the admin dialect instead: `RING?` (backend liveness + load), `DRAIN
//! <i>` (mark backend `i` dead on the ring and migrate its sessions away),
//! `STATS?`, and `SHUTDOWN`. Migration happens at each connection's safe
//! point — no requests in flight, top-level framing — and replays the
//! durable-session machinery over the wire: `SNAPSHOT?` on the old
//! backend, `CLOSE`, then `RESTORE <program> [matcher]` + snapshot + `END`
//! on the ring's new target. A pair that is mid command when the drain
//! lands keeps forwarding until the command (and any multi-line body)
//! completes and its replies return; only then does it hold new input and
//! move. The blocking snapshot/restore conversation itself runs on a
//! helper thread per migrating pair — never on the reactor — and the
//! rebuilt backend is handed back through a [`reactor::Waker`], so a slow
//! or hung backend during a drain cannot stall unrelated connections.
//! Client lines that arrive while the backend is in transit wait in the
//! read buffer and resume against the new backend; the client observes
//! nothing but latency. Sessions opened with an inline `OPEN -` program
//! have no registry name to `RESTORE` from and are failed loudly instead
//! of silently losing state.
//!
//! `SHUTDOWN` from ordinary clients is refused (one tenant must not take
//! down a shared backend); `ADMIN SHUTDOWN` stops the router and forwards
//! the shutdown to every live backend.

use crate::protocol::{Framed, Framer, Origin, Reply, ReplyFramer, Request};
use crate::session::Command;
use reactor::{Events, Interest, LineBuf, Poll, Token, Waker, WriteBuf};
use std::collections::VecDeque;
use std::io::{self, Write};
use std::net::{SocketAddr, TcpListener, TcpStream, ToSocketAddrs};
use std::os::unix::io::AsRawFd;
use std::sync::{mpsc, Arc};
use std::thread::JoinHandle;
use std::time::{Duration, Instant};

const LISTENER: Token = Token(0);
/// Migration helper threads kick the poll loop through this token.
const MIG_WAKER: Token = Token(1);
/// Pair tokens start here: client = `BASE + 2*idx`, backend = `+1`.
const PAIR_BASE: usize = 2;

/// Poll tick (stop-flag and drain checks).
const TICK: Duration = Duration::from_millis(100);
/// Read/write timeout for the blocking migration conversation.
const MIGRATE_IO: Duration = Duration::from_secs(5);
/// After `ADMIN SHUTDOWN`, how long pairs get to flush.
const STOP_GRACE: Duration = Duration::from_secs(5);
/// Per-direction buffer cap: past it a write buffer's peer is cut off, and
/// the client's read side is paused until the backlog is routed.
const BUF_CAP: usize = 4 * 1024 * 1024;

/// 64-bit FNV-1a, the ring's hash. Stable across processes and runs.
pub fn fnv1a(bytes: &[u8]) -> u64 {
    let mut h: u64 = 0xcbf2_9ce4_8422_2325;
    for &b in bytes {
        h ^= u64::from(b);
        h = h.wrapping_mul(0x0000_0100_0000_01b3);
    }
    h
}

/// Consistent-hash ring over backend indices: each backend contributes
/// `replicas` virtual points; a key maps to the first point at or after
/// its hash (wrapping), skipping dead backends.
pub struct HashRing {
    points: Vec<(u64, usize)>,
}

impl HashRing {
    pub fn new(n_backends: usize, replicas: usize) -> HashRing {
        let mut points = Vec::with_capacity(n_backends * replicas);
        for b in 0..n_backends {
            for r in 0..replicas {
                points.push((fnv1a(format!("backend-{b}-vnode-{r}").as_bytes()), b));
            }
        }
        points.sort_unstable();
        HashRing { points }
    }

    /// The live backend owning `key`, or `None` when every backend is dead.
    pub fn lookup(&self, key: u64, live: &[bool]) -> Option<usize> {
        if self.points.is_empty() {
            return None;
        }
        let start = self.points.partition_point(|&(h, _)| h < key);
        for i in 0..self.points.len() {
            let (_, b) = self.points[(start + i) % self.points.len()];
            if live.get(b).copied().unwrap_or(false) {
                return Some(b);
            }
        }
        None
    }
}

/// Router tuning: the backend set and the ring's virtual-node count.
#[derive(Clone)]
pub struct RouterConfig {
    pub backends: Vec<SocketAddr>,
    /// Virtual nodes per backend; more points = smoother distribution.
    pub replicas: usize,
}

impl RouterConfig {
    pub fn new(backends: Vec<SocketAddr>) -> RouterConfig {
        RouterConfig {
            backends,
            replicas: 64,
        }
    }
}

/// A bound router, ready to [`run`](Router::run) or [`spawn`](Router::spawn).
pub struct Router {
    listener: TcpListener,
    cfg: RouterConfig,
    addr: SocketAddr,
}

/// Handle to a spawned router: its address plus the reactor thread.
pub struct RouterHandle {
    pub addr: SocketAddr,
    join: JoinHandle<io::Result<()>>,
}

impl RouterHandle {
    /// Waits for the router to stop (`ADMIN SHUTDOWN`).
    pub fn join(self) -> io::Result<()> {
        self.join
            .join()
            .map_err(|_| io::Error::other("router thread panicked"))?
    }
}

impl Router {
    pub fn bind(addr: impl ToSocketAddrs, cfg: RouterConfig) -> io::Result<Router> {
        if cfg.backends.is_empty() {
            return Err(io::Error::other("router needs at least one backend"));
        }
        let listener = TcpListener::bind(addr)?;
        let addr = listener.local_addr()?;
        Ok(Router {
            listener,
            cfg,
            addr,
        })
    }

    pub fn local_addr(&self) -> SocketAddr {
        self.addr
    }

    pub fn spawn(self) -> RouterHandle {
        let addr = self.addr;
        let join = std::thread::spawn(move || self.run());
        RouterHandle { addr, join }
    }

    /// The reactor loop; returns after `ADMIN SHUTDOWN` once pairs flush.
    pub fn run(self) -> io::Result<()> {
        let _ = reactor::raise_nofile_limit(65536);
        self.listener.set_nonblocking(true)?;
        let poll = Poll::new()?;
        poll.register(self.listener.as_raw_fd(), LISTENER, Interest::READABLE)?;
        let mig_waker = Arc::new(Waker::new(&poll, MIG_WAKER)?);
        let (mig_tx, mig_rx) = mpsc::channel::<MigDone>();
        let mut state = State {
            ring: HashRing::new(self.cfg.backends.len(), self.cfg.replicas.max(1)),
            live: vec![true; self.cfg.backends.len()],
            addrs: self.cfg.backends.clone(),
            next_key: 1,
            migrations: 0,
            migration_failures: 0,
            stop: false,
            mig_tx,
            mig_waker: mig_waker.clone(),
        };
        let mut events = Events::with_capacity(256);
        let mut pairs: Vec<Option<Pair>> = Vec::new();
        let mut free: Vec<usize> = Vec::new();
        let mut stopping: Option<Instant> = None;

        loop {
            poll.poll(&mut events, Some(TICK))?;
            let mut touched: Vec<usize> = Vec::new();

            for ev in events.iter() {
                match ev.token() {
                    LISTENER => {
                        if stopping.is_some() {
                            continue;
                        }
                        loop {
                            let (stream, _) = match self.listener.accept() {
                                Ok(a) => a,
                                Err(_) => break,
                            };
                            let _ = stream.set_nodelay(true);
                            if stream.set_nonblocking(true).is_err() {
                                continue;
                            }
                            let idx = free.pop().unwrap_or_else(|| {
                                pairs.push(None);
                                pairs.len() - 1
                            });
                            if poll
                                .register(
                                    stream.as_raw_fd(),
                                    Token(PAIR_BASE + 2 * idx),
                                    Interest::READABLE,
                                )
                                .is_err()
                            {
                                free.push(idx);
                                continue;
                            }
                            let key = state.next_key;
                            state.next_key += 1;
                            pairs[idx] = Some(Pair::new(key, stream));
                        }
                    }
                    MIG_WAKER => mig_waker.drain(),
                    Token(t) => {
                        let idx = (t - PAIR_BASE) / 2;
                        let is_backend = (t - PAIR_BASE) % 2 == 1;
                        let Some(pair) = pairs.get_mut(idx).and_then(Option::as_mut) else {
                            continue;
                        };
                        if is_backend {
                            if ev.is_readable() {
                                backend_read(pair);
                            }
                        } else if ev.is_readable() && !pair.stop_input && !pair.client_eof {
                            client_read(pair);
                        }
                        touched.push(idx);
                    }
                }
            }

            // Collect backends rebuilt by migration helper threads. The
            // (idx, key) pair guards against slot reuse: a result for a
            // connection that died mid-migration is silently dropped.
            while let Ok(done) = mig_rx.try_recv() {
                let Some(pair) = pairs.get_mut(done.idx).and_then(Option::as_mut) else {
                    continue;
                };
                if pair.key != done.key || !pair.migrating {
                    continue;
                }
                pair.migrating = false;
                match done.result {
                    Ok((stream, rd)) => {
                        let b = Backend {
                            stream,
                            rd,
                            wr: WriteBuf::new(),
                            interest: Interest::READABLE,
                        };
                        if poll
                            .register(
                                b.stream.as_raw_fd(),
                                Token(PAIR_BASE + 2 * done.idx + 1),
                                Interest::READABLE,
                            )
                            .is_ok()
                        {
                            pair.backend = Some(b);
                            pair.backend_idx = done.target;
                            state.migrations += 1;
                        } else {
                            fail_migration(pair, &mut state, "register migrated backend");
                        }
                    }
                    Err(e) => fail_migration(pair, &mut state, &e),
                }
                touched.push(done.idx);
            }

            if state.stop && stopping.is_none() {
                stopping = Some(Instant::now());
                for (idx, p) in pairs.iter_mut().enumerate() {
                    if let Some(pair) = p {
                        pair.stop_input = true;
                        pair.backend_gone = true;
                        touched.push(idx);
                    }
                }
            }

            // Service every touched pair: parse admin/routed lines, relay
            // replies, attempt pending migrations, flush, fix interest.
            let mut i = 0;
            while i < touched.len() {
                let idx = touched[i];
                i += 1;
                if pairs.get(idx).map(|p| p.is_none()).unwrap_or(true) {
                    continue;
                }
                service_pair(&mut pairs, idx, &mut state, &poll);
                let Some(pair) = pairs[idx].as_mut() else {
                    continue;
                };
                pump_pair(pair, idx, &poll);
                if pair.finished() {
                    let _ = poll.deregister(pair.client.as_raw_fd());
                    if let Some(b) = &pair.backend {
                        let _ = poll.deregister(b.stream.as_raw_fd());
                    }
                    pairs[idx] = None;
                    free.push(idx);
                }
            }

            if let Some(since) = stopping {
                let alive = pairs.iter().any(Option::is_some);
                if !alive || since.elapsed() > STOP_GRACE {
                    break;
                }
            }
        }
        Ok(())
    }
}

struct State {
    ring: HashRing,
    live: Vec<bool>,
    addrs: Vec<SocketAddr>,
    next_key: u64,
    migrations: u64,
    migration_failures: u64,
    stop: bool,
    /// Helper threads report rebuilt backends here…
    mig_tx: mpsc::Sender<MigDone>,
    /// …and kick the poll loop so the result is collected promptly.
    mig_waker: Arc<Waker>,
}

/// Result of one off-reactor migration conversation.
struct MigDone {
    idx: usize,
    /// The pair's connection key at spawn time; stale results for a
    /// recycled slot must not be delivered.
    key: u64,
    target: usize,
    result: Result<(TcpStream, LineBuf), String>,
}

/// What an in-flight request will tell us when its reply lands.
enum Tag {
    /// `OPEN`/`RESTORE`: on `OK`, a session exists; `Some` carries the
    /// registry program + matcher needed to migrate it, `None` marks an
    /// inline (non-migratable) program.
    Open(Option<SessionInfo>),
    /// `CLOSE`: on `OK`, the session is gone.
    Close,
    Other,
}

#[derive(Clone)]
struct SessionInfo {
    program: String,
    matcher: Option<String>,
}

enum PairKind {
    /// Nothing received yet: the first line picks admin or routed.
    New,
    Admin,
    Routed,
}

struct Backend {
    stream: TcpStream,
    rd: LineBuf,
    wr: WriteBuf,
    interest: Interest,
}

struct Pair {
    /// Ring key for placement; assigned at accept, stable for the
    /// connection's life so migration lands deterministically.
    key: u64,
    kind: PairKind,
    client: TcpStream,
    /// Client→backend request framing (and the client's read buffer).
    framer: Framer,
    c_wr: WriteBuf,
    c_interest: Interest,
    backend: Option<Backend>,
    backend_idx: usize,
    /// Backend→client reply framing.
    replies: ReplyFramer,
    /// Requests forwarded whose replies have not yet fully returned.
    in_flight: u64,
    tags: VecDeque<Tag>,
    /// A session is open on the backend.
    session_open: bool,
    /// How to rebuild it elsewhere (`None` = non-migratable).
    info: Option<SessionInfo>,
    /// Set by `DRAIN`; cleared when the session lands on a live backend.
    migrate_pending: bool,
    /// A helper thread is rebuilding the backend elsewhere; input waits
    /// in `framer` until the result comes back through the waker.
    migrating: bool,
    /// Client half-closed its write side: read no more, but keep routing
    /// the lines already buffered and flush their replies before closing.
    client_eof: bool,
    /// Stop parsing client input (buffered lines drained after EOF,
    /// migration failure, or router stop).
    stop_input: bool,
    /// Backend side is gone; close after the client buffer flushes.
    backend_gone: bool,
    dead: bool,
}

impl Pair {
    fn new(key: u64, client: TcpStream) -> Pair {
        Pair {
            key,
            kind: PairKind::New,
            client,
            framer: Framer::new(),
            c_wr: WriteBuf::new(),
            c_interest: Interest::READABLE,
            backend: None,
            backend_idx: usize::MAX,
            replies: ReplyFramer::new(),
            in_flight: 0,
            tags: VecDeque::new(),
            session_open: false,
            info: None,
            migrate_pending: false,
            migrating: false,
            client_eof: false,
            stop_input: false,
            backend_gone: false,
            dead: false,
        }
    }

    /// Queues a router-originated reply to the client. Only used where no
    /// backend replies are pending, so ordering holds.
    fn reply(&mut self, line: &str) {
        self.c_wr.push(line.as_bytes());
        self.c_wr.push(b"\n");
    }

    fn finished(&self) -> bool {
        self.dead
            || (self.stop_input && self.c_wr.is_empty() && self.in_flight == 0)
            || (self.backend_gone && self.backend.is_none() && self.c_wr.is_empty())
    }
}

/// Drains readable client bytes into the pair's line buffer.
fn client_read(pair: &mut Pair) {
    for _ in 0..8 {
        if pair.framer.buffered() > BUF_CAP {
            break;
        }
        match pair.framer.read_from(&mut pair.client) {
            Ok(0) => {
                // Client finished sending. Commands already buffered
                // still execute and their replies still flush — a
                // pipelining client that half-closes its write side gets
                // everything it would get on a direct connection; the
                // pair winds down afterwards (service_pair/finished).
                pair.client_eof = true;
                break;
            }
            Ok(n) => {
                if n < 4096 {
                    break;
                }
            }
            Err(e) if e.kind() == io::ErrorKind::WouldBlock => break,
            Err(e) if e.kind() == io::ErrorKind::Interrupted => continue,
            Err(_) => {
                pair.dead = true;
                break;
            }
        }
    }
}

/// Drains readable backend bytes and relays completed reply lines.
fn backend_read(pair: &mut Pair) {
    let Some(b) = pair.backend.as_mut() else {
        return;
    };
    for _ in 0..8 {
        match b.rd.read_from(&mut b.stream) {
            Ok(0) => {
                pair.backend_gone = true;
                break;
            }
            Ok(n) => {
                if n < 4096 {
                    break;
                }
            }
            Err(e) if e.kind() == io::ErrorKind::WouldBlock => break,
            Err(e) if e.kind() == io::ErrorKind::Interrupted => continue,
            Err(_) => {
                pair.backend_gone = true;
                break;
            }
        }
    }
    while let Some(line) = pair.backend.as_mut().and_then(|b| b.rd.next_line()) {
        if pair.c_wr.len() > BUF_CAP {
            // Client is not draining; cut it off rather than buffer
            // without bound.
            pair.dead = true;
            return;
        }
        pair.c_wr.push(line.as_bytes());
        pair.c_wr.push(b"\n");
        if let Some(reply) = pair.replies.push(line) {
            complete_reply(pair, &reply);
        }
    }
    if pair.backend_gone {
        // Drop the dead backend; the pair closes once the client buffer
        // flushes (finished()).
        pair.backend = None;
    }
}

/// Bookkeeping when one full reply has been relayed: the in-flight count
/// drops and the oldest tag resolves session state.
fn complete_reply(pair: &mut Pair, reply: &Reply) {
    pair.in_flight = pair.in_flight.saturating_sub(1);
    let ok = matches!(reply, Reply::Ok(_));
    match pair.tags.pop_front() {
        Some(Tag::Open(info)) => {
            if ok {
                pair.session_open = true;
                pair.info = info;
            }
        }
        Some(Tag::Close) => {
            if ok {
                pair.session_open = false;
                pair.info = None;
            }
        }
        Some(Tag::Other) | None => {}
    }
}

/// Parses whatever complete lines a pair has buffered. Routed pairs
/// forward with framing; admin pairs execute commands against the ring.
fn service_pair(pairs: &mut [Option<Pair>], idx: usize, state: &mut State, poll: &Poll) {
    // First line decides the dialect.
    {
        let Some(pair) = pairs[idx].as_mut() else {
            return;
        };
        if matches!(pair.kind, PairKind::New) {
            let Some((line, request)) = next_line(pair) else {
                return;
            };
            if line.trim().eq_ignore_ascii_case("ADMIN") {
                pair.kind = PairKind::Admin;
                pair.reply("OK admin");
            } else {
                pair.kind = PairKind::Routed;
                if !connect_backend(pair, idx, state, poll) {
                    return;
                }
                route(pair, line, request);
            }
        }
    }
    loop {
        let Some(pair) = pairs[idx].as_mut() else {
            return;
        };
        if pair.dead || pair.stop_input {
            return;
        }
        match pair.kind {
            PairKind::New => return,
            PairKind::Routed => {
                // Backend in transit on a helper thread: lines wait in
                // the read buffer until the rebuilt backend lands.
                if pair.migrating {
                    return;
                }
                if pair.migrate_pending {
                    let at_top = pair.framer.at_top();
                    if at_top && pair.in_flight == 0 {
                        // Safe point: hand the backend to a helper thread
                        // (or resolve trivially) before routing more.
                        if !try_migrate(pair, idx, state, poll) {
                            return;
                        }
                    } else if at_top {
                        // Hold new commands so the in-flight replies can
                        // drain and the safe point converges.
                        return;
                    }
                    // Mid multi-line body: keep forwarding below so the
                    // command completes — holding its terminator would
                    // deadlock the drain against the backend's reply.
                }
                let Some((line, request)) = next_line(pair) else {
                    return;
                };
                route(pair, line, request);
            }
            PairKind::Admin => {
                // The admin dialect only borrows the line splitting (and
                // its length bound); what the framer makes of the line is
                // not its business.
                let Some((line, _)) = next_line(pair) else {
                    return;
                };
                admin_line(pairs, idx, state, poll, line);
            }
        }
    }
}

/// Connects a routed pair to its ring-assigned backend. On failure the
/// client gets a final `ERR` and the pair winds down.
fn connect_backend(pair: &mut Pair, idx: usize, state: &mut State, poll: &Poll) -> bool {
    let Some(target) = state
        .ring
        .lookup(fnv1a(&pair.key.to_le_bytes()), &state.live)
    else {
        pair.reply("ERR no live backend");
        pair.stop_input = true;
        pair.backend_gone = true;
        return false;
    };
    match open_backend(state.addrs[target]) {
        Ok(b) => {
            if poll
                .register(
                    b.stream.as_raw_fd(),
                    Token(PAIR_BASE + 2 * idx + 1),
                    Interest::READABLE,
                )
                .is_err()
            {
                pair.reply("ERR backend unavailable");
                pair.stop_input = true;
                pair.backend_gone = true;
                return false;
            }
            pair.backend = Some(b);
            pair.backend_idx = target;
            true
        }
        Err(_) => {
            pair.reply(&format!("ERR backend {} unavailable", state.addrs[target]));
            pair.stop_input = true;
            pair.backend_gone = true;
            false
        }
    }
}

fn open_backend(addr: SocketAddr) -> io::Result<Backend> {
    let stream = TcpStream::connect(addr)?;
    let _ = stream.set_nodelay(true);
    stream.set_nonblocking(true)?;
    Ok(Backend {
        stream,
        rd: LineBuf::new(),
        wr: WriteBuf::new(),
        interest: Interest::READABLE,
    })
}

/// The next framed client line, if a whole one is buffered. Winds the
/// pair down when the client is done sending, or has sent a line over the
/// protocol's length cap. (That `ERR` is router-originated, so like the
/// `SHUTDOWN` refusal it can overtake replies still in flight.)
fn next_line(pair: &mut Pair) -> Option<(String, Option<Request>)> {
    match pair.framer.next_frame() {
        Some(Framed::Line { line, request }) => Some((line, request)),
        Some(Framed::TooLong) => {
            pair.reply("ERR line too long; closing");
            pair.stop_input = true;
            None
        }
        None => {
            if pair.client_eof {
                pair.stop_input = true;
            }
            None
        }
    }
}

/// Forwards one client line to the backend. `request` is what the line
/// completed, by the same framing the backend will apply to it: each
/// complete request is one reply owed, so the in-flight count and the
/// session sniff stay in step with the server by construction.
fn route(pair: &mut Pair, line: String, request: Option<Request>) {
    let tag = match request {
        // Part of a body still open, or a blank line: no reply owed.
        None => None,
        Some(Request::Shutdown) => {
            // One tenant must not kill every session on a shared
            // backend. (Router-originated reply: safe only because
            // a well-behaved client has drained earlier replies;
            // a pipelined SHUTDOWN may see it early.)
            pair.reply("ERR SHUTDOWN not allowed through router (use ADMIN)");
            return;
        }
        // An inline program has no registry name to RESTORE from.
        Some(Request::Open {
            origin: Origin::Inline(_),
            ..
        }) => Some(Tag::Open(None)),
        Some(Request::Open {
            program, matcher, ..
        }) => Some(Tag::Open(Some(SessionInfo { program, matcher }))),
        Some(Request::Session(Command::Close)) => Some(Tag::Close),
        Some(_) => Some(Tag::Other),
    };
    if let Some(tag) = tag {
        pair.in_flight += 1;
        pair.tags.push_back(tag);
    }
    forward(pair, &line);
}

fn forward(pair: &mut Pair, line: &str) {
    if let Some(b) = pair.backend.as_mut() {
        if b.wr.len() > BUF_CAP {
            pair.dead = true;
            return;
        }
        b.wr.push(line.as_bytes());
        b.wr.push(b"\n");
    }
}

/// One admin command. Takes the whole pair table because `RING?` reports
/// per-backend load and `DRAIN` walks every routed pair.
fn admin_line(
    pairs: &mut [Option<Pair>],
    idx: usize,
    state: &mut State,
    poll: &Poll,
    line: String,
) {
    let line = line.trim().to_string();
    if line.is_empty() {
        return;
    }
    let upper = line.to_ascii_uppercase();
    if upper == "RING?" {
        let mut out: Vec<String> = Vec::new();
        for (b, addr) in state.addrs.iter().enumerate() {
            let mut pairs_on = 0usize;
            let mut sessions_on = 0usize;
            for p in pairs.iter().flatten() {
                // A pair whose backend is in transit still counts against
                // its old backend: `DRAIN` pollers must not see the ring
                // empty before every migration has actually resolved.
                if (p.backend.is_some() || p.migrating) && p.backend_idx == b {
                    pairs_on += 1;
                    if p.session_open {
                        sessions_on += 1;
                    }
                }
            }
            out.push(format!(
                "backend {b} addr={addr} live={} pairs={pairs_on} sessions={sessions_on}",
                state.live[b]
            ));
        }
        let pair = pairs[idx].as_mut().expect("admin pair");
        pair.reply(&format!("RING {}", out.len()));
        for l in &out {
            pair.reply(l);
        }
        pair.reply("END");
    } else if let Some(arg) = upper.strip_prefix("DRAIN ") {
        let Ok(b) = arg.trim().parse::<usize>() else {
            pairs[idx]
                .as_mut()
                .unwrap()
                .reply("ERR DRAIN wants a backend index");
            return;
        };
        if b >= state.live.len() {
            pairs[idx]
                .as_mut()
                .unwrap()
                .reply(&format!("ERR no backend {b} (have {})", state.live.len()));
            return;
        }
        if state.live.iter().filter(|&&l| l).count() <= 1 && state.live[b] {
            pairs[idx]
                .as_mut()
                .unwrap()
                .reply("ERR cannot drain the last live backend");
            return;
        }
        state.live[b] = false;
        let mut marked = 0usize;
        let to_move: Vec<usize> = pairs
            .iter()
            .enumerate()
            .filter_map(|(j, p)| {
                let p = p.as_ref()?;
                (j != idx && p.backend.is_some() && p.backend_idx == b).then_some(j)
            })
            .collect();
        for j in &to_move {
            if let Some(p) = pairs[*j].as_mut() {
                p.migrate_pending = true;
                marked += 1;
            }
        }
        pairs[idx]
            .as_mut()
            .unwrap()
            .reply(&format!("OK draining backend {b} pairs={marked}"));
        // Idle pairs start migrating right now (each on its own helper
        // thread); busy ones follow at their next safe point.
        for j in to_move {
            let Some(p) = pairs[j].as_mut() else { continue };
            if p.migrate_pending {
                try_migrate(p, j, state, poll);
            }
        }
    } else if upper == "STATS?" {
        let open = pairs.iter().flatten().count();
        let pair = pairs[idx].as_mut().expect("admin pair");
        pair.reply("RSTATS 3");
        pair.reply(&format!("pairs {open}"));
        pair.reply(&format!("migrations {}", state.migrations));
        pair.reply(&format!("migration_failures {}", state.migration_failures));
        pair.reply("END");
    } else if upper == "SHUTDOWN" {
        // Forward to every backend — drained ones included; a dead ring
        // entry is still a running process — then stop the router.
        for addr in state.addrs.iter() {
            if let Ok(mut s) = TcpStream::connect(addr) {
                let _ = s.set_write_timeout(Some(MIGRATE_IO));
                let _ = s.write_all(b"SHUTDOWN\n");
            }
        }
        let pair = pairs[idx].as_mut().expect("admin pair");
        pair.reply("OK router shutting down");
        state.stop = true;
    } else {
        pairs[idx].as_mut().unwrap().reply(&format!(
            "ERR unknown admin command `{line}` (RING?|DRAIN <i>|STATS?|SHUTDOWN)"
        ));
    }
}

/// Reads one whole reply from a blocking stream through a [`LineBuf`].
fn blocking_reply(stream: &mut TcpStream, buf: &mut LineBuf) -> Result<Reply, String> {
    let mut framer = ReplyFramer::new();
    loop {
        while let Some(line) = buf.next_line() {
            if let Some(reply) = framer.push(line) {
                return Ok(reply);
            }
        }
        match buf.read_from(stream) {
            Ok(0) => return Err("backend closed mid-reply".into()),
            Ok(_) => {}
            Err(e) => return Err(format!("backend read: {e}")),
        }
    }
}

/// Attempts the pending migration at a safe point (no requests in flight,
/// top-level framing). Returns true when the pending flag cleared without
/// leaving the reactor — nothing needed to move. Otherwise returns false:
/// either the snapshot/restore conversation was handed to a helper thread
/// (`migrating` set; the result comes back through the waker) or the
/// migration failed, the client got a final `ERR`, and the pair winds
/// down — losing state silently would be worse than losing the
/// connection loudly.
fn try_migrate(pair: &mut Pair, idx: usize, state: &mut State, poll: &Poll) -> bool {
    if pair.in_flight > 0 || !pair.framer.at_top() || pair.migrating {
        return false;
    }
    let Some(target) = state
        .ring
        .lookup(fnv1a(&pair.key.to_le_bytes()), &state.live)
    else {
        fail_migration(pair, state, "no live backend");
        return false;
    };
    let Some(old) = pair.backend.take() else {
        pair.migrate_pending = false;
        return true;
    };
    if target == pair.backend_idx {
        pair.backend = Some(old);
        pair.migrate_pending = false;
        return true;
    }
    if pair.session_open && pair.info.is_none() {
        fail_migration(
            pair,
            state,
            "session has no registry program (inline OPEN -); cannot migrate",
        );
        return false;
    }
    let _ = poll.deregister(old.stream.as_raw_fd());
    pair.migrate_pending = false;
    pair.migrating = true;
    // The blocking conversation (SNAPSHOT?/CLOSE on the old backend,
    // RESTORE on the new) runs off-reactor, one thread per migrating
    // pair: a slow backend stalls only its own pair, and concurrent
    // drains proceed in parallel. The result returns via the waker.
    let tx = state.mig_tx.clone();
    let waker = state.mig_waker.clone();
    let target_addr = state.addrs[target];
    let session_open = pair.session_open;
    let info = pair.info.clone();
    let key = pair.key;
    std::thread::spawn(move || {
        let result = migrate_conversation(old.stream, old.rd, session_open, info, target_addr);
        let _ = tx.send(MigDone {
            idx,
            key,
            target,
            result,
        });
        let _ = waker.wake();
    });
    false
}

/// The blocking half of a migration: capture the session from the
/// draining backend, free it there, and rebuild it on the ring's new
/// owner. Runs on a helper thread — never on the reactor.
fn migrate_conversation(
    mut old_stream: TcpStream,
    mut old_rd: LineBuf,
    session_open: bool,
    info: Option<SessionInfo>,
    target_addr: SocketAddr,
) -> Result<(TcpStream, LineBuf), String> {
    let _ = old_stream.set_nonblocking(false);
    let _ = old_stream.set_read_timeout(Some(MIGRATE_IO));
    let _ = old_stream.set_write_timeout(Some(MIGRATE_IO));
    // Capture state from the draining backend, then free it there.
    let snapshot: Option<Vec<String>> = if session_open {
        old_stream
            .write_all(b"SNAPSHOT?\n")
            .map_err(|e| format!("snapshot request: {e}"))?;
        let body = match blocking_reply(&mut old_stream, &mut old_rd)? {
            Reply::Multi { head, lines } if head.starts_with("SNAPSHOT") => lines,
            other => return Err(format!("unexpected SNAPSHOT? reply: {other:?}")),
        };
        old_stream
            .write_all(b"CLOSE\n")
            .map_err(|e| format!("close request: {e}"))?;
        blocking_reply(&mut old_stream, &mut old_rd)?;
        Some(body)
    } else {
        None
    };
    // Rebuild on the ring's new owner.
    let mut ns =
        TcpStream::connect(target_addr).map_err(|e| format!("connect {target_addr}: {e}"))?;
    let _ = ns.set_nodelay(true);
    let _ = ns.set_read_timeout(Some(MIGRATE_IO));
    let _ = ns.set_write_timeout(Some(MIGRATE_IO));
    let mut nrd = LineBuf::new();
    if let Some(body) = snapshot {
        let info = info.as_ref().expect("checked migratable");
        let mut req = format!("RESTORE {}", info.program);
        if let Some(m) = &info.matcher {
            req.push(' ');
            req.push_str(m);
        }
        req.push('\n');
        let mut payload = req;
        for l in &body {
            payload.push_str(l);
            payload.push('\n');
        }
        payload.push_str("END\n");
        ns.write_all(payload.as_bytes())
            .map_err(|e| format!("restore request: {e}"))?;
        match blocking_reply(&mut ns, &mut nrd)? {
            Reply::Ok(_) => {}
            other => return Err(format!("restore rejected: {other:?}")),
        }
    }
    ns.set_nonblocking(true)
        .map_err(|e| format!("nonblocking: {e}"))?;
    let _ = ns.set_read_timeout(None);
    let _ = ns.set_write_timeout(None);
    Ok((ns, nrd))
}

fn fail_migration(pair: &mut Pair, state: &mut State, why: &str) {
    state.migration_failures += 1;
    pair.migrating = false;
    pair.reply(&format!("ERR migration failed: {why}"));
    pair.migrate_pending = false;
    pair.stop_input = true;
    pair.backend_gone = true;
    pair.backend = None;
}

/// Flushes both write buffers and keeps epoll interest in sync.
fn pump_pair(pair: &mut Pair, idx: usize, poll: &Poll) {
    if !pair.c_wr.is_empty() && pair.c_wr.write_to(&mut pair.client).is_err() {
        pair.dead = true;
    }
    if let Some(b) = pair.backend.as_mut() {
        if !b.wr.is_empty() && b.wr.write_to(&mut b.stream).is_err() {
            pair.backend_gone = true;
            pair.backend = None;
        }
    }
    if pair.dead {
        return;
    }
    let mut want = Interest::NONE;
    if !pair.stop_input && !pair.client_eof && pair.framer.buffered() <= BUF_CAP {
        want = want | Interest::READABLE;
    }
    if !pair.c_wr.is_empty() {
        want = want | Interest::WRITABLE;
    }
    if want != pair.c_interest
        && poll
            .reregister(pair.client.as_raw_fd(), Token(PAIR_BASE + 2 * idx), want)
            .is_ok()
    {
        pair.c_interest = want;
    }
    if let Some(b) = pair.backend.as_mut() {
        let mut want = Interest::READABLE;
        if !b.wr.is_empty() {
            want = want | Interest::WRITABLE;
        }
        if want != b.interest
            && poll
                .reregister(b.stream.as_raw_fd(), Token(PAIR_BASE + 2 * idx + 1), want)
                .is_ok()
        {
            b.interest = want;
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn ring_is_deterministic_and_covers_all_backends() {
        let ring = HashRing::new(4, 64);
        let live = vec![true; 4];
        let mut counts = [0usize; 4];
        for key in 0..10_000u64 {
            let b = ring.lookup(fnv1a(&key.to_le_bytes()), &live).unwrap();
            counts[b] += 1;
            // Determinism: same key, same backend.
            assert_eq!(ring.lookup(fnv1a(&key.to_le_bytes()), &live), Some(b));
        }
        for (i, &c) in counts.iter().enumerate() {
            assert!(c > 500, "backend {i} got only {c}/10000 keys");
        }
    }

    #[test]
    fn drained_backend_receives_nothing_and_moves_minimally() {
        let ring = HashRing::new(3, 64);
        let all = vec![true, true, true];
        let drained = vec![true, false, true];
        let mut moved = 0usize;
        for key in 0..10_000u64 {
            let h = fnv1a(&key.to_le_bytes());
            let before = ring.lookup(h, &all).unwrap();
            let after = ring.lookup(h, &drained).unwrap();
            assert_ne!(after, 1, "drained backend still assigned");
            if before != after {
                assert_eq!(before, 1, "key moved off a live backend");
                moved += 1;
            }
        }
        // Only the drained backend's share moves. With 64 vnodes the share
        // is noisy, so bound it loosely: far below "rehash everything"
        // (~two-thirds would move under modulo hashing) and far above zero.
        assert!(moved > 1_000 && moved < 6_500, "moved {moved}/10000");
    }
}
