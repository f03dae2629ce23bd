//! `ops5-router` — consistent-hash session sharding across server
//! processes, with live migration on drain.
//!
//! One serve process multiplexes many sessions over a worker pool; the
//! router is the next scaling step out: it spreads client connections
//! across *several* `ops5-serve` backends. Placement is a consistent-hash
//! ring (FNV-1a over virtual nodes, [`RouterConfig::replicas`] points per
//! backend) keyed by the connection's id, so adding or draining a backend
//! moves only the sessions that must move.
//!
//! The router is a line-level proxy on the server's own epoll driver. Each
//! client connection is a `Pair`: a socket-free core, like the server's
//! connection core, that takes bytes from the client side or the backend
//! side and returns bytes to write to either. It tracks just enough
//! protocol state to stay honest:
//!
//! * client→backend request framing. The router runs the server's own
//!   [`Framer`] over the client's bytes, so "this line completes a request,
//!   which draws exactly one reply" is decided by the same code on both
//!   sides of the relay; the router forwards each framed line as it goes;
//! * the replies owed to the client, in request order. Every reply leaves
//!   in request order, routed or router-originated: a reply the router
//!   makes itself (the `SHUTDOWN` refusal, `ERR line too long`) waits in
//!   that queue, carrying its text, until every earlier reply has been
//!   relayed;
//! * where each backend reply ends ([`ReplyCounter`]). The relay counts a
//!   reply's body and passes it on; it never keeps a line of it;
//! * the session's registry program and matcher, sniffed from the `OPEN`/
//!   `RESTORE` the client sent (confirmed against the backend's `OK`), so
//!   the session can be reconstructed elsewhere.
//!
//! What a pair cannot do without sockets or the other pairs it hands to
//! the router as an `Action`: connect to a backend, move to another, run
//! an admin command. The router's service carries it out, attaching and
//! detaching backend sockets through the driver.
//!
//! **Drain / rebalance.** A connection whose first line is `ADMIN` speaks
//! the admin dialect instead: `RING?` (backend liveness + load), `DRAIN
//! <i>` (mark backend `i` dead on the ring and migrate its sessions away),
//! `STATS?`, and `SHUTDOWN`. Migration happens at each connection's safe
//! point — no replies owed, top-level framing — and replays the
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

use crate::driver::{self, Core, Cores, Service, Side};
use crate::protocol::{Framed, Framer, Origin, Reply, ReplyCounter, ReplyFramer, Request};
use crate::session::Command;
use reactor::{LineBuf, Waker, WriteBuf};
use std::collections::VecDeque;
use std::io::{self, Read, Write};
use std::net::{SocketAddr, TcpListener, TcpStream, ToSocketAddrs};
use std::sync::{mpsc, Arc};
use std::thread::JoinHandle;
use std::time::Duration;

/// Read/write timeout for the blocking migration conversation.
const MIGRATE_IO: Duration = Duration::from_secs(5);
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

    /// Runs the router on the driver; returns after `ADMIN SHUTDOWN` once
    /// pairs flush.
    pub fn run(self) -> io::Result<()> {
        let cfg = self.cfg;
        driver::run(self.listener, None, move |waker| {
            let (mig_tx, mig_rx) = mpsc::channel();
            Shards {
                ring: HashRing::new(cfg.backends.len(), cfg.replicas.max(1)),
                live: vec![true; cfg.backends.len()],
                addrs: cfg.backends,
                migrations: 0,
                migration_failures: 0,
                stop: false,
                mig_tx,
                mig_rx,
                waker,
            }
        })
    }
}

/// The router as the driver sees it: a [`Pair`] per connection, the ring,
/// and the migrations in flight as the results made elsewhere.
struct Shards {
    ring: HashRing,
    live: Vec<bool>,
    addrs: Vec<SocketAddr>,
    migrations: u64,
    migration_failures: u64,
    stop: bool,
    /// Helper threads report rebuilt backends here…
    mig_tx: mpsc::Sender<MigDone>,
    mig_rx: mpsc::Receiver<MigDone>,
    /// …and kick the poll loop so the result is collected promptly.
    waker: Arc<Waker>,
}

/// Result of one off-reactor migration conversation.
struct MigDone {
    /// The pair's connection id. Ids are never reused, so a result for a
    /// connection that closed mid-migration finds no pair and is dropped.
    key: u64,
    target: usize,
    result: Result<(TcpStream, LineBuf), String>,
}

impl Service for Shards {
    type Core = Pair;
    /// After `ADMIN SHUTDOWN`, how long pairs get to flush.
    const GRACE: Duration = Duration::from_secs(5);

    fn input(&mut self, cores: &mut Cores<'_, Pair>, idx: usize, client_eof: bool) {
        if let Some(pair) = cores.get_mut(idx) {
            pair.client_eof |= client_eof;
        }
        self.service(cores, idx);
    }

    /// Collects backends rebuilt by migration helper threads.
    fn external(&mut self, cores: &mut Cores<'_, Pair>) {
        while let Ok(done) = self.mig_rx.try_recv() {
            let Some(idx) = cores.find(done.key) else {
                continue;
            };
            if !cores.get_mut(idx).is_some_and(|p| p.moving()) {
                continue;
            }
            let landed = done.result.and_then(|(stream, rd)| {
                cores
                    .attach(idx, stream)
                    .map_err(|e| format!("register migrated backend: {e}"))?;
                Ok(rd)
            });
            match landed {
                Ok(rd) => {
                    if let Some(pair) = cores.get_mut(idx) {
                        pair.link = Link::Up(done.target);
                        pair.b_rd = rd;
                    }
                    self.migrations += 1;
                }
                Err(e) => self.fail_migration(cores, idx, &e),
            }
            self.service(cores, idx);
            cores.touch(idx);
        }
    }

    fn stopping(&self) -> bool {
        self.stop
    }
}

impl Shards {
    /// The live backend that owns connection `key`.
    fn owner(&self, key: u64) -> Option<usize> {
        self.ring.lookup(fnv1a(&key.to_le_bytes()), &self.live)
    }

    /// Steps pair `idx` until it waits on bytes or on a helper thread,
    /// carrying out each action it asks for.
    fn service(&mut self, cores: &mut Cores<'_, Pair>, idx: usize) {
        while let Some(action) = cores.get_mut(idx).and_then(Pair::step) {
            match action {
                Action::Connect => self.connect(cores, idx),
                Action::Migrate => self.migrate(cores, idx),
                Action::Admin(line) => {
                    let reply = self.admin(cores, idx, &line);
                    if let Some(pair) = cores.get_mut(idx) {
                        pair.reply(&reply);
                    }
                }
            }
        }
    }

    /// Connects a routed pair to its ring-assigned backend. On failure the
    /// client gets a final `ERR` and the pair winds down.
    fn connect(&mut self, cores: &mut Cores<'_, Pair>, idx: usize) {
        let Some(key) = cores.get_mut(idx).map(|p| p.key) else {
            return;
        };
        let result = match self.owner(key) {
            None => Err("no live backend".to_string()),
            Some(target) => open_backend(self.addrs[target])
                .and_then(|stream| cores.attach(idx, stream))
                .map(|()| target)
                .map_err(|_| format!("backend {} unavailable", self.addrs[target])),
        };
        if let Some(pair) = cores.get_mut(idx) {
            match result {
                Ok(target) => pair.link = Link::Up(target),
                Err(why) => pair.fail(&why),
            }
        }
    }

    /// Pair `idx` is at its safe point with a drain pending. Either nothing
    /// needs to move, or the snapshot/restore conversation goes to a helper
    /// thread (the result comes back through the waker), or the migration
    /// fails: the client gets a final `ERR` and the pair winds down —
    /// losing state silently would be worse than losing the connection
    /// loudly.
    fn migrate(&mut self, cores: &mut Cores<'_, Pair>, idx: usize) {
        let Some(pair) = cores.get_mut(idx) else {
            return;
        };
        let Some(target) = self.owner(pair.key) else {
            return self.fail_migration(cores, idx, "no live backend");
        };
        pair.migrate_pending = false;
        let Link::Up(old) = pair.link else {
            return;
        };
        if target == old {
            return;
        }
        if pair.session_open && pair.info.is_none() {
            let why = "session has no registry program (inline OPEN -); cannot migrate";
            return self.fail_migration(cores, idx, why);
        }
        pair.link = Link::Moving(old);
        pair.b_wr = WriteBuf::new();
        let old_rd = std::mem::take(&mut pair.b_rd);
        let (key, session_open, info) = (pair.key, pair.session_open, pair.info.clone());
        let Some(old_stream) = cores.detach(idx) else {
            return self.fail_migration(cores, idx, "backend gone");
        };
        // The blocking conversation (SNAPSHOT?/CLOSE on the old backend,
        // RESTORE on the new) runs off-reactor, one thread per migrating
        // pair: a slow backend stalls only its own pair, and concurrent
        // drains proceed in parallel. The result returns via the waker.
        let tx = self.mig_tx.clone();
        let waker = self.waker.clone();
        let target_addr = self.addrs[target];
        std::thread::spawn(move || {
            let result = migrate_conversation(old_stream, old_rd, session_open, info, target_addr);
            let _ = tx.send(MigDone {
                key,
                target,
                result,
            });
            let _ = waker.wake();
        });
    }

    fn fail_migration(&mut self, cores: &mut Cores<'_, Pair>, idx: usize, why: &str) {
        self.migration_failures += 1;
        cores.detach(idx);
        if let Some(pair) = cores.get_mut(idx) {
            pair.fail(&format!("migration failed: {why}"));
        }
    }

    /// One admin command; returns its reply. Takes the whole pair table
    /// because `RING?` reports per-backend load and `DRAIN` walks every
    /// routed pair.
    fn admin(&mut self, cores: &mut Cores<'_, Pair>, idx: usize, line: &str) -> String {
        let upper = line.to_ascii_uppercase();
        if upper == "RING?" {
            let mut out = format!("RING {}", self.addrs.len());
            for (b, addr) in self.addrs.iter().enumerate() {
                // A pair whose backend is in transit still counts against
                // its old backend: `DRAIN` pollers must not see the ring
                // empty before every migration has actually resolved.
                let (mut pairs, mut sessions) = (0, 0);
                for (_, p) in cores.iter() {
                    if matches!(p.link, Link::Up(x) | Link::Moving(x) if x == b) {
                        pairs += 1;
                        sessions += usize::from(p.session_open);
                    }
                }
                let live = self.live[b];
                out += &format!(
                    "\nbackend {b} addr={addr} live={live} pairs={pairs} sessions={sessions}"
                );
            }
            out + "\nEND"
        } else if let Some(arg) = upper.strip_prefix("DRAIN ") {
            let Ok(b) = arg.trim().parse::<usize>() else {
                return "ERR DRAIN wants a backend index".into();
            };
            if b >= self.live.len() {
                return format!("ERR no backend {b} (have {})", self.live.len());
            }
            if self.live.iter().filter(|&&l| l).count() <= 1 && self.live[b] {
                return "ERR cannot drain the last live backend".into();
            }
            self.live[b] = false;
            let to_move: Vec<usize> = (cores.iter())
                .filter(|&(j, p)| j != idx && p.link == Link::Up(b))
                .map(|(j, _)| j)
                .collect();
            // Idle pairs start migrating right now (each on its own helper
            // thread); busy ones follow at their next safe point.
            for &j in &to_move {
                if let Some(p) = cores.get_mut(j) {
                    p.migrate_pending = true;
                }
                self.service(cores, j);
                cores.touch(j);
            }
            format!("OK draining backend {b} pairs={}", to_move.len())
        } else if upper == "STATS?" {
            format!(
                "RSTATS 3\npairs {}\nmigrations {}\nmigration_failures {}\nEND",
                cores.iter().count(),
                self.migrations,
                self.migration_failures
            )
        } else if upper == "SHUTDOWN" {
            // Forward to every backend — drained ones included; a dead ring
            // entry is still a running process — then stop the router.
            for addr in self.addrs.iter() {
                if let Ok(mut s) = TcpStream::connect(addr) {
                    let _ = s.set_write_timeout(Some(MIGRATE_IO));
                    let _ = s.write_all(b"SHUTDOWN\n");
                }
            }
            self.stop = true;
            "OK router shutting down".into()
        } else {
            format!("ERR unknown admin command `{line}` (RING?|DRAIN <i>|STATS?|SHUTDOWN)")
        }
    }
}

fn open_backend(addr: SocketAddr) -> io::Result<TcpStream> {
    let stream = TcpStream::connect(addr)?;
    let _ = stream.set_nodelay(true);
    stream.set_nonblocking(true)?;
    Ok(stream)
}

/// What a pair asks of the router when it cannot go on by itself.
#[derive(Debug, PartialEq, Eq)]
enum Action {
    /// The first routed line is queued for a backend: connect one.
    Connect,
    /// A drain is pending and the pair is at its safe point: move it.
    Migrate,
    /// An admin command, to be run against the whole pair table.
    Admin(String),
}

/// One entry of the replies owed to the client, in request order.
#[derive(Debug)]
enum Tag {
    /// `OPEN`/`RESTORE`: on `OK`, a session exists; `Some` carries the
    /// registry program + matcher needed to migrate it, `None` marks an
    /// inline (non-migratable) program.
    Open(Option<SessionInfo>),
    /// `CLOSE`: on `OK`, the session is gone.
    Close,
    Other,
    /// A router-originated reply, text and terminator: it leaves once
    /// every reply owed before it has been relayed.
    Reply(String),
}

#[derive(Clone, Debug)]
struct SessionInfo {
    program: String,
    matcher: Option<String>,
}

#[derive(Default)]
enum PairKind {
    /// Nothing received yet: the first line picks admin or routed.
    #[default]
    New,
    Admin,
    Routed,
}

/// Where a pair's backend side is.
#[derive(Clone, Copy, PartialEq, Eq, Debug, Default)]
enum Link {
    /// No backend socket: not routed yet, or let go.
    #[default]
    Down,
    /// A socket to backend `b` is attached.
    Up(usize),
    /// In transit from backend `b` on a helper thread; input waits in the
    /// framer until the rebuilt backend lands.
    Moving(usize),
}

/// One client connection of the router, with no socket in it: client
/// bytes in become framed lines for the backend, backend bytes in become
/// relayed replies, both in order.
#[derive(Default)]
pub(crate) struct Pair {
    /// Ring key for placement: the connection's id, stable for its life so
    /// migration lands deterministically.
    key: u64,
    kind: PairKind,
    /// Client→backend request framing (and the client's read buffer).
    framer: Framer,
    c_wr: WriteBuf,
    link: Link,
    b_rd: LineBuf,
    b_wr: WriteBuf,
    /// Where each backend reply ends.
    relay: ReplyCounter,
    /// Replies owed to the client: one per request forwarded, and the
    /// router's own replies queued behind them. Empty at a safe point.
    owed: VecDeque<Tag>,
    /// A session is open on the backend.
    session_open: bool,
    /// How to rebuild it elsewhere (`None` = non-migratable).
    info: Option<SessionInfo>,
    /// Set by `DRAIN`; cleared at the safe point.
    migrate_pending: bool,
    /// Client half-closed its write side: read no more, but keep routing
    /// the lines already buffered and flush their replies before closing.
    client_eof: bool,
    /// Stop parsing client input (buffered lines drained after EOF, a
    /// failure, or router stop).
    stop_input: bool,
    /// No more replies will come: close once the client buffer flushes.
    backend_gone: bool,
    /// A buffer outgrew [`BUF_CAP`]: close without flushing.
    dead: bool,
}

impl Pair {
    fn moving(&self) -> bool {
        matches!(self.link, Link::Moving(_))
    }

    /// Relays what the backend sent, then frames and routes what the
    /// client sent, until the pair needs what only the router can do.
    /// `None` once it waits on bytes (or on a migration).
    fn step(&mut self) -> Option<Action> {
        self.relay();
        while !self.dead && !self.stop_input && !self.moving() {
            if self.migrate_pending && self.framer.at_top() {
                // Safe point: move before routing more. Short of it, hold
                // new commands so the owed replies can drain and the safe
                // point converges. (Mid multi-line body the lines keep
                // flowing below so the command completes — holding its
                // terminator would deadlock the drain against the
                // backend's reply.)
                return self.owed.is_empty().then_some(Action::Migrate);
            }
            let (line, request) = self.next_line()?;
            match self.kind {
                PairKind::New if line.trim().eq_ignore_ascii_case("ADMIN") => {
                    self.kind = PairKind::Admin;
                    self.reply("OK admin");
                }
                PairKind::New => {
                    self.kind = PairKind::Routed;
                    self.route(line, request);
                    return Some(Action::Connect);
                }
                PairKind::Routed => self.route(line, request),
                // The admin dialect only borrows the line splitting (and
                // its length bound); what the framer makes of the line is
                // not its business.
                PairKind::Admin if line.trim().is_empty() => {}
                PairKind::Admin => return Some(Action::Admin(line.trim().to_string())),
            }
        }
        None
    }

    /// The next framed client line, if a whole one is buffered. Winds the
    /// pair down when the client is done sending, or has sent a line over
    /// the protocol's length cap.
    fn next_line(&mut self) -> Option<(String, Option<Request>)> {
        match self.framer.next_frame() {
            Some(Framed::Line { line, request }) => Some((line, request)),
            Some(Framed::TooLong) => {
                self.reply("ERR line too long; closing");
                self.stop_input = true;
                None
            }
            None => {
                if self.client_eof {
                    self.stop_input = true;
                }
                None
            }
        }
    }

    /// Forwards one client line to the backend. `request` is what the line
    /// completed, by the same framing the backend will apply to it: each
    /// complete request is one reply owed, so the owed queue and the
    /// session sniff stay in step with the server by construction.
    fn route(&mut self, line: String, request: Option<Request>) {
        let tag = match request {
            // Part of a body still open, or a blank line: no reply owed.
            None => None,
            // One tenant must not kill every session on a shared backend.
            Some(Request::Shutdown) => {
                return self.reply("ERR SHUTDOWN not allowed through router (use ADMIN)");
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
        self.owed.extend(tag);
        if self.b_wr.len() > BUF_CAP {
            self.dead = true;
            return;
        }
        self.b_wr.push(line.as_bytes());
        self.b_wr.push(b"\n");
    }

    /// Passes every whole line the backend sent on to the client, keeping
    /// none: the counter says where each reply ends.
    fn relay(&mut self) {
        while let Some(line) = self.b_rd.next_line() {
            if self.c_wr.len() > BUF_CAP {
                // Client is not draining; cut it off rather than buffer
                // without bound.
                self.dead = true;
                return;
            }
            self.c_wr.push(line.as_bytes());
            self.c_wr.push(b"\n");
            if let Some(ok) = self.relay.push(&line) {
                self.settle(ok);
            }
        }
    }

    /// One backend reply has been relayed: the oldest owed entry resolves
    /// session state, and the router's replies queued behind it go out.
    fn settle(&mut self, ok: bool) {
        match self.owed.pop_front() {
            Some(Tag::Open(info)) if ok => {
                self.session_open = true;
                self.info = info;
            }
            Some(Tag::Close) if ok => {
                self.session_open = false;
                self.info = None;
            }
            _ => {}
        }
        while let Some(Tag::Reply(_)) = self.owed.front() {
            if let Some(Tag::Reply(text)) = self.owed.pop_front() {
                self.c_wr.push(text.as_bytes());
            }
        }
    }

    /// A router-originated reply, in request order: straight out when
    /// nothing is owed, otherwise behind every reply owed before it.
    fn reply(&mut self, text: &str) {
        if self.owed.is_empty() {
            self.c_wr.push(text.as_bytes());
            self.c_wr.push(b"\n");
        } else {
            self.owed.push_back(Tag::Reply(format!("{text}\n")));
        }
    }

    /// Winds the pair down loudly: `ERR <why>` after the replies already
    /// relayed, then close. The replies still owed will not come.
    fn fail(&mut self, why: &str) {
        self.owed.clear();
        self.reply(&format!("ERR {why}"));
        self.link = Link::Down;
        self.migrate_pending = false;
        self.stop_input = true;
        self.backend_gone = true;
    }
}

impl Core for Pair {
    fn new(key: u64) -> Pair {
        Pair {
            key,
            ..Pair::default()
        }
    }

    fn read_from(&mut self, side: Side, r: &mut impl Read) -> io::Result<usize> {
        match side {
            Side::Client => self.framer.read_from(r),
            Side::Backend => self.b_rd.read_from(r),
        }
    }

    fn write_to(&mut self, side: Side, w: &mut impl Write) -> io::Result<usize> {
        match side {
            Side::Client => self.c_wr.write_to(w),
            Side::Backend => self.b_wr.write_to(w),
        }
    }

    fn wants_read(&self, side: Side) -> bool {
        match side {
            Side::Client => {
                !self.stop_input && !self.client_eof && self.framer.buffered() <= BUF_CAP
            }
            Side::Backend => true,
        }
    }

    fn wants_write(&self, side: Side) -> bool {
        match side {
            Side::Client => !self.c_wr.is_empty(),
            Side::Backend => !self.b_wr.is_empty(),
        }
    }

    fn close_input(&mut self) {
        self.stop_input = true;
    }

    /// The lines already read are still relayed (the next [`Pair::step`]).
    fn backend_lost(&mut self) {
        self.link = Link::Down;
        self.stop_input = true;
        self.backend_gone = true;
    }

    fn finished(&self) -> bool {
        self.dead
            || (self.c_wr.is_empty()
                && (self.backend_gone || (self.stop_input && self.owed.is_empty())))
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
        let matcher = info
            .matcher
            .as_ref()
            .map_or(String::new(), |m| format!(" {m}"));
        let mut payload = format!("RESTORE {}{matcher}\n", info.program);
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

#[cfg(test)]
mod tests {
    use super::*;

    /// Delivers `bytes` to `side` of a socket-free pair, then steps it,
    /// standing in for the router: a `Connect` attaches backend 0, and a
    /// `Migrate` is returned, not carried out. Returns the actions asked for.
    fn feed(p: &mut Pair, side: Side, mut bytes: &[u8]) -> Vec<Action> {
        while !bytes.is_empty() {
            p.read_from(side, &mut bytes).unwrap();
        }
        let mut actions = Vec::new();
        while let Some(action) = p.step() {
            if action == Action::Connect {
                p.link = Link::Up(0);
            }
            let migrate = action == Action::Migrate;
            actions.push(action);
            if migrate {
                break;
            }
        }
        actions
    }

    /// The bytes the pair would write to `side` now.
    fn sent(p: &mut Pair, side: Side) -> String {
        let mut out = Vec::new();
        p.write_to(side, &mut out).unwrap();
        String::from_utf8(out).unwrap()
    }

    const OPENED: &str = "OK session 1 program=blocks matcher=psm\n";

    #[test]
    fn a_pipelined_refusal_comes_back_in_request_order() {
        let mut p = Pair::new(1);
        let wire = b"OPEN hanoi vs2\nRUN 1000\nSHUTDOWN\nSTATS?\n";
        assert_eq!(feed(&mut p, Side::Client, wire), [Action::Connect]);
        assert_eq!(
            sent(&mut p, Side::Backend),
            "OPEN hanoi vs2\nRUN 1000\nSTATS?\n"
        );
        // The refusal waits for the two replies owed before it.
        assert_eq!(sent(&mut p, Side::Client), "");
        feed(
            &mut p,
            Side::Backend,
            b"OK session 1 program=hanoi matcher=vs2\n",
        );
        assert_eq!(
            sent(&mut p, Side::Client),
            "OK session 1 program=hanoi matcher=vs2\n"
        );
        feed(&mut p, Side::Backend, b"OK cycles=5 reason=halt\n");
        assert_eq!(
            sent(&mut p, Side::Client),
            "OK cycles=5 reason=halt\nERR SHUTDOWN not allowed through router (use ADMIN)\n"
        );
        feed(&mut p, Side::Backend, b"OK program=hanoi\n");
        assert_eq!(sent(&mut p, Side::Client), "OK program=hanoi\n");
        assert!(p.owed.is_empty() && p.session_open);

        // `ERR line too long` is router-originated too.
        let mut p = Pair::new(2);
        let mut wire = b"OPEN hanoi vs2\n".to_vec();
        wire.extend(std::iter::repeat_n(
            b'x',
            crate::protocol::MAX_LINE_BYTES + 1,
        ));
        wire.push(b'\n');
        assert_eq!(feed(&mut p, Side::Client, &wire), [Action::Connect]);
        assert_eq!(sent(&mut p, Side::Client), "");
        assert!(!p.finished(), "the OPEN's reply is still owed");
        feed(&mut p, Side::Backend, OPENED.as_bytes());
        assert_eq!(
            sent(&mut p, Side::Client),
            "OK session 1 program=blocks matcher=psm\nERR line too long; closing\n"
        );
        assert!(p.finished());
    }

    #[test]
    fn a_long_body_is_relayed_without_being_kept() {
        let mut p = Pair::new(1);
        feed(&mut p, Side::Client, b"OPEN blocks psm\nFIRED?\nSHUTDOWN\n");
        feed(&mut p, Side::Backend, OPENED.as_bytes());
        sent(&mut p, Side::Client);
        // Body lines that read like a terminator or a reply are counted,
        // not taken for one.
        let mut body = "FIRED 10000\n".to_string();
        for i in 0..10_000 {
            body += [&format!("{i} r 1 2"), "END", "OK 3"][i % 3];
            body.push('\n');
        }
        body += "END\n";
        let mut relayed = String::new();
        for chunk in body.as_bytes().chunks(4096) {
            assert_eq!(p.owed.len(), 2, "FIRED? and the refusal are owed");
            feed(&mut p, Side::Backend, chunk);
            relayed += &sent(&mut p, Side::Client);
        }
        let refusal = "ERR SHUTDOWN not allowed through router (use ADMIN)\n";
        assert_eq!(relayed, body + refusal);
        assert!(p.owed.is_empty());
        assert_eq!(p.relay, ReplyCounter::default());
        assert!(p.b_rd.is_empty());
    }

    #[test]
    fn a_drain_mid_batch_reaches_its_safe_point_after_end_and_its_reply() {
        let mut p = Pair::new(1);
        feed(&mut p, Side::Client, b"OPEN blocks psm\n");
        feed(&mut p, Side::Backend, OPENED.as_bytes());
        assert!(p.session_open);
        feed(&mut p, Side::Client, b"BATCH\nASSERT block ^name a\n");
        p.migrate_pending = true;
        // Mid-body: the body keeps flowing, and `END` with it.
        assert_eq!(feed(&mut p, Side::Client, b"END\nRUN 5\n"), []);
        assert_eq!(
            sent(&mut p, Side::Backend),
            "OPEN blocks psm\nBATCH\nASSERT block ^name a\nEND\n"
        );
        // The next command is held until the batch's reply is relayed.
        assert_eq!(feed(&mut p, Side::Backend, b"OK 1\n"), [Action::Migrate]);
        assert_eq!(sent(&mut p, Side::Client), format!("{OPENED}OK 1\n"));
        assert_eq!(sent(&mut p, Side::Backend), "");
        // Nothing had to move: routing resumes where it stopped.
        p.migrate_pending = false;
        assert_eq!(feed(&mut p, Side::Client, b""), []);
        assert_eq!(sent(&mut p, Side::Backend), "RUN 5\n");
    }

    #[test]
    fn a_half_closed_client_still_gets_its_pipelined_replies() {
        let mut p = Pair::new(1);
        feed(
            &mut p,
            Side::Client,
            b"OPEN blocks psm\nRUN 0\nSTATS?\nCLOSE\n",
        );
        p.client_eof = true;
        feed(&mut p, Side::Client, b"");
        assert!(!p.wants_read(Side::Client));
        assert_eq!(p.owed.len(), 4);
        assert!(!p.finished());
        let replies = "OK session 1 program=blocks matcher=psm\nOK cycles=0 reason=settled\n\
                       OK program=blocks\nOK closed\n";
        feed(&mut p, Side::Backend, replies.as_bytes());
        assert_eq!(sent(&mut p, Side::Client), replies);
        assert!(p.finished() && !p.session_open);
    }

    #[test]
    fn a_refused_inline_open_counts_as_one_reply() {
        let mut p = Pair::new(1);
        let wire = b"OPEN - nosuch\n(literalize a x)\nRUN 1\nEND\nSTATS?\n";
        assert_eq!(feed(&mut p, Side::Client, wire), [Action::Connect]);
        assert_eq!(p.owed.len(), 2, "the OPEN with its body, and STATS?");
        let replies = "ERR unknown matcher `nosuch`\nERR no open session\n";
        feed(&mut p, Side::Backend, replies.as_bytes());
        assert_eq!(sent(&mut p, Side::Client), replies);
        assert!(p.owed.is_empty() && !p.session_open);
    }

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
