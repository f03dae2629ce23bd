//! The connection core: one client connection's protocol state, with no
//! socket in it.
//!
//! Bytes in ([`Core::read_from`], [`Conn::process`]) become pool
//! submissions and direct replies; completions in ([`Conn::complete`])
//! become ordered bytes out ([`Core::write_to`]). Whoever owns the socket —
//! [`crate::driver`] in production, a byte slice in the tests below — only
//! moves bytes and asks the [`Core`] questions (`wants_read`,
//! `wants_write`, `finished`).
//!
//! **Who executes.** A session command that runs the matcher, rebuilds the
//! engine or closes the session is submitted to the pool and its reply
//! comes back as a completion, and so do the reads (`WM?`, `FIRED?`,
//! `STATS?`). A staging write ([bounded](Command::is_bounded): `ASSERT`,
//! `RETRACT`, `BATCH`) is executed by
//! [`Conn::process`]'s own thread when the pool finds nothing waiting
//! ([`Pool::run_or_submit`](crate::pool::Pool::run_or_submit)): the bytes
//! are here, the session is idle, and a hand-off would cost more than the
//! command. Nothing on the wire tells the two apart.
//!
//! **Reply order.** Replies must leave in request order under pipelining
//! even though commands execute on different threads. Every request
//! reserves a slot in `replies` *before* it is submitted; direct replies,
//! commands run in place and pool rejections (`BUSY`/`OVERLOADED`) fill
//! their slot on the spot, worker replies come back through
//! [`Completions`] tagged (connection, sequence). Only the queue's front
//! run of filled slots moves to the out buffer, which is the whole
//! ordering argument.
//!
//! **Bounds.** Everything a client can grow is capped and each cap fails
//! closed (the table is in DESIGN.md §8): the framer bounds a line and a
//! body, the session's inbox bounds commands in flight, and this module
//! bounds the replies not yet on the socket — the out buffer plus the
//! slots parked behind a command still executing — by
//! [`ServeConfig::write_buf_cap`](crate::server::ServeConfig::write_buf_cap).

use crate::driver::{Core, Side};
use crate::pool::{Completions, ReplyTx, SessionSlot, SubmitOutcome, Submitted};
use crate::protocol::{Framed, Framer, Reply, Request};
use crate::server::{self, Shared};
use crate::session::Command;
use reactor::WriteBuf;
use std::collections::VecDeque;
use std::fmt::Write as _;
use std::io;
use std::sync::atomic::Ordering;
use std::sync::Arc;

/// One slot of a connection's ordered reply queue. Slot *i* (from the
/// front) answers request `first_seq + i`.
enum ReplySlot {
    /// Command queued for, or in flight on, a pool worker.
    Waiting,
    /// Serialized reply, parked until every earlier slot has left.
    Filled(String),
}

#[derive(Default)]
pub(crate) struct Conn {
    /// Process-unique id; completions are tagged with it so replies for a
    /// closed connection are recognizably stale and dropped.
    pub(crate) id: u64,
    framer: Framer,
    session: Option<Arc<SessionSlot>>,
    replies: VecDeque<ReplySlot>,
    /// Sequence number of `replies.front()`.
    first_seq: u64,
    /// Bytes of the filled slots in `replies` (all parked behind a waiting
    /// head: a filled front run moves to `out` at once).
    parked_bytes: usize,
    out: WriteBuf,
    /// No further input is parsed (EOF, `SHUTDOWN`, server drain, a line too
    /// long, overload); the connection is finished once `replies` and `out`
    /// empty out.
    stop_input: bool,
    /// Slow client: replies dropped, final `ERR overloaded` queued.
    overloaded: bool,
}

impl Conn {
    /// Frames and acts on every complete request buffered so far.
    pub(crate) fn process(&mut self, shared: &Shared, completions: &Arc<Completions>) {
        while !self.stop_input {
            match self.framer.next_frame() {
                None => break,
                Some(Framed::Line { request: None, .. }) => {}
                Some(Framed::Line {
                    request: Some(request),
                    ..
                }) => self.dispatch(request, shared, completions),
                Some(Framed::TooLong) => {
                    self.direct(Reply::Err("line too long; closing".into()), shared);
                    self.stop_input = true;
                }
            }
        }
    }

    fn dispatch(&mut self, request: Request, shared: &Shared, completions: &Arc<Completions>) {
        let reply = match request {
            Request::Session(cmd) => return self.submit(cmd, shared, completions),
            Request::Invalid(e) => Reply::Err(e),
            Request::Open {
                program,
                matcher,
                prio,
                origin,
            } if self.session.is_none() => {
                let (matcher, prio) = (matcher.as_deref(), prio.as_deref());
                match server::open_session(shared, &program, matcher, prio, origin) {
                    Ok((slot, ok)) => {
                        self.session = Some(slot);
                        Reply::Ok(ok)
                    }
                    Err(e) => Reply::Err(e),
                }
            }
            Request::Open { .. } => Reply::Err("session already open (CLOSE first)".into()),
            // Server-wide: works without an open session.
            Request::Metrics => server::metrics_reply(shared),
            Request::Shutdown => {
                shared.stop.store(true, Ordering::SeqCst);
                // Requests pipelined after SHUTDOWN are discarded.
                self.stop_input = true;
                Reply::Ok("shutting down".into())
            }
            // Scheduling controls are answered here, not queued: a CANCEL
            // must work precisely when the session's inbox is backed up.
            Request::Prio(class) => self.with_session(|s| {
                server::parse_priority(&class).map(|p| {
                    s.set_priority(p);
                    format!("prio={}", p.name())
                })
            }),
            Request::Cancel => {
                self.with_session(|s| Ok(format!("cancelled pending={}", s.cancel())))
            }
        };
        self.direct(reply, shared);
    }

    fn with_session(&self, f: impl FnOnce(&SessionSlot) -> Result<String, String>) -> Reply {
        match self.session.as_deref().map(f) {
            Some(Ok(ok)) => Reply::Ok(ok),
            Some(Err(e)) => Reply::Err(e),
            None => Reply::Err("no open session".into()),
        }
    }

    /// Reserves the next reply slot, then submits; a rejection fills the
    /// slot on the spot so ordering holds.
    fn submit(&mut self, cmd: Command, shared: &Shared, completions: &Arc<Completions>) {
        let Some(session) = &self.session else {
            return self.direct(Reply::Err("no open session".into()), shared);
        };
        let closing = matches!(cmd, Command::Close);
        let seq = self.first_seq + self.replies.len() as u64;
        self.replies.push_back(ReplySlot::Waiting);
        let tx = ReplyTx::Completion {
            queue: completions.clone(),
            conn: self.id,
            seq,
        };
        // A bounded command runs to completion right here when nothing is
        // waiting for a worker: this thread would only have waited for the
        // completion to come back.
        let outcome = if cmd.is_bounded() {
            match shared.pool.run_or_submit(session, cmd, tx) {
                Submitted::Ran(reply) => return self.complete(seq, reply, shared),
                Submitted::Queued(outcome) => outcome,
            }
        } else {
            shared.pool.submit(session, cmd, tx)
        };
        let reject = match outcome {
            SubmitOutcome::Accepted => {
                // Release the session only once the pool has the CLOSE: a
                // rejected one (`BUSY`) must leave it open so the client's
                // retry still has something to close.
                if closing {
                    self.session = None;
                }
                return;
            }
            SubmitOutcome::Busy => Reply::Busy("run queue full; retry".into()),
            SubmitOutcome::Overloaded => {
                Reply::Overloaded("session queue full; drain replies".into())
            }
            SubmitOutcome::ShuttingDown => Reply::Err("server shutting down".into()),
        };
        self.complete(seq, reject, shared);
    }

    /// Queues an immediately-known reply in order.
    fn direct(&mut self, reply: Reply, shared: &Shared) {
        let seq = self.first_seq + self.replies.len() as u64;
        self.replies.push_back(ReplySlot::Waiting);
        self.complete(seq, reply, shared);
    }

    /// Fills the slot of request `seq`, if it still exists, and moves the
    /// front run of filled slots to the out buffer.
    pub(crate) fn complete(&mut self, seq: u64, reply: Reply, shared: &Shared) {
        let Some(at) = seq
            .checked_sub(self.first_seq)
            .filter(|at| *at < self.replies.len() as u64)
        else {
            return;
        };
        // Checked before the reply is queued, so one reply larger than the
        // cap still goes out when nothing else is owed.
        if self.out.len() + self.parked_bytes >= shared.cfg.write_buf_cap {
            return self.overload(shared);
        }
        if at == 0 {
            // Nothing earlier is owed: format straight into the out buffer.
            // (`WriteBuf`'s `fmt::Write` cannot fail.)
            let _ = write!(self.out, "{reply}");
            self.replies.pop_front();
            self.first_seq += 1;
        } else {
            let text = reply.to_string();
            self.parked_bytes += text.len();
            self.replies[at as usize] = ReplySlot::Filled(text);
        }
        while let Some(ReplySlot::Filled(text)) = self.replies.front() {
            self.parked_bytes -= text.len();
            self.out.push(text.as_bytes());
            self.replies.pop_front();
            self.first_seq += 1;
        }
    }

    /// The client is not reading. Drop what it has not earned, leave a
    /// diagnostic, and finish once the out buffer drains.
    fn overload(&mut self, shared: &Shared) {
        if let Some(c) = &shared.counters {
            c.slow_client_closes.inc();
        }
        self.overloaded = true;
        self.stop_input = true;
        self.replies.clear();
        self.parked_bytes = 0;
        let last = Reply::Err("overloaded: outbound buffer full; closing".into());
        self.out.push(last.to_string().as_bytes());
    }
}

/// A connection core speaks for its client socket only: `side` is always
/// [`Side::Client`].
impl Core for Conn {
    fn new(id: u64) -> Conn {
        Conn {
            id,
            ..Conn::default()
        }
    }

    fn read_from(&mut self, _: Side, r: &mut impl io::Read) -> io::Result<usize> {
        self.framer.read_from(r)
    }

    fn write_to(&mut self, _: Side, w: &mut impl io::Write) -> io::Result<usize> {
        self.out.write_to(w)
    }

    fn wants_read(&self, _: Side) -> bool {
        !self.stop_input
    }

    fn wants_write(&self, _: Side) -> bool {
        !self.out.is_empty()
    }

    /// Stops parsing input: the peer sent EOF, or the server is draining.
    fn close_input(&mut self) {
        self.stop_input = true;
    }

    fn is_overloaded(&self) -> bool {
        self.overloaded
    }

    /// Every owed reply has been written out.
    fn finished(&self) -> bool {
        self.out.is_empty() && (self.overloaded || (self.stop_input && self.replies.is_empty()))
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::protocol::{ReplyFramer, MAX_BODY_BYTES, MAX_LINE_BYTES};
    use crate::server::ServeConfig;
    use std::sync::mpsc;
    use std::time::Duration;

    const SRC: &str = "(literalize a x)\n(p never (a ^x -1) --> (halt))";

    /// A connection core driven with no socket: byte slices in, a `Vec` out,
    /// completions delivered by hand.
    struct Rig {
        shared: Shared,
        completions: Arc<Completions>,
        woken: mpsc::Receiver<()>,
        /// Completion wake-ups taken off `woken` so far. Each is an eventfd
        /// write (and a second `epoll_wait` return) under the reactor.
        wakes: u64,
        conn: Conn,
        written: Vec<u8>,
    }

    impl Rig {
        fn new(cfg: ServeConfig) -> Rig {
            let (tx, woken) = mpsc::channel();
            Rig {
                shared: Shared::new(cfg),
                completions: Arc::new(Completions::new(move || {
                    let _ = tx.send(());
                })),
                woken,
                wakes: 0,
                conn: Conn::new(1),
                written: Vec::new(),
            }
        }

        /// Delivers `bytes` (as the reads of one readable event would) and
        /// acts on them.
        fn send(&mut self, mut bytes: &[u8]) {
            while !bytes.is_empty() {
                self.conn.read_from(Side::Client, &mut bytes).unwrap();
            }
            self.conn.process(&self.shared, &self.completions);
            self.conn.write_to(Side::Client, &mut self.written).unwrap();
        }

        /// Routes completions to the core until `n` whole replies have been
        /// written since the last call; returns them.
        fn replies(&mut self, n: usize) -> Vec<Reply> {
            let mut framer = ReplyFramer::new();
            loop {
                let text = String::from_utf8(self.written.clone()).unwrap();
                let got: Vec<Reply> = text
                    .lines()
                    .filter_map(|l| framer.push(l.to_string()))
                    .collect();
                if got.len() >= n {
                    assert_eq!(got.len(), n, "more replies than requests: {got:?}");
                    self.written.clear();
                    return got;
                }
                framer = ReplyFramer::new();
                self.woken
                    .recv_timeout(Duration::from_secs(30))
                    .expect("a completion");
                self.wakes += 1;
                for (conn, seq, reply) in self.completions.drain() {
                    assert_eq!(conn, self.conn.id);
                    self.conn.complete(seq, reply, &self.shared);
                }
                self.conn.write_to(Side::Client, &mut self.written).unwrap();
            }
        }

        fn open(&mut self) {
            self.open_source(SRC);
        }

        fn open_source(&mut self, src: &str) {
            self.send(format!("OPEN - vs2\n{src}\nEND\n").as_bytes());
            self.replies(1).remove(0).expect_ok().unwrap();
        }

        /// One request, its one reply.
        fn request(&mut self, wire: &str) -> Reply {
            self.send(wire.as_bytes());
            self.replies(1).remove(0)
        }

        fn counter(&self, name: &str) -> u64 {
            counter(&self.shared, name)
        }

        /// Completion wake-ups so far, stragglers included.
        fn wakes(&mut self) -> u64 {
            self.wakes += self.woken.try_iter().count() as u64;
            self.wakes
        }
    }

    /// A server-level counter (the config must turn obs on).
    fn counter(shared: &Shared, name: &str) -> u64 {
        let obs = shared.obs.as_ref().expect("obs is on");
        obs.registry.counter(name, Vec::new()).get()
    }

    fn tmp_dir(tag: &str) -> std::path::PathBuf {
        let dir = std::env::temp_dir().join(format!("serve-conn-{tag}-{}", std::process::id()));
        let _ = std::fs::remove_dir_all(&dir);
        dir
    }

    fn err(reply: &Reply) -> &str {
        match reply {
            Reply::Err(e) => e,
            other => panic!("expected ERR, got {other:?}"),
        }
    }

    /// The bugfix: a refused `OPEN -` (unknown matcher, unknown `PRIO=`,
    /// session already open) answers once, at its terminator, and its body
    /// never reaches the command parser.
    #[test]
    fn refused_inline_open_answers_once_at_the_terminator() {
        for (head, want) in [
            ("OPEN - nosuch", "unknown matcher"),
            ("OPEN - vs2 PRIO=frob", "unknown priority `frob`"),
        ] {
            let mut rig = Rig::new(ServeConfig::default());
            rig.send(format!("{head}\n{SRC}\nRUN 1\nEND\nSTATS?\n").as_bytes());
            let got = rig.replies(2);
            assert!(err(&got[0]).contains(want), "{head}: {got:?}");
            assert_eq!(err(&got[1]), "no open session", "{head}");
        }
        let mut rig = Rig::new(ServeConfig::default());
        rig.open();
        rig.send(format!("OPEN -\n{SRC}\nRUN 1\nEND\nSTATS?\n").as_bytes());
        let got = rig.replies(2);
        assert_eq!(err(&got[0]), "session already open (CLOSE first)");
        assert!(got[1].clone().expect_ok().unwrap().contains("cycles=0"));
    }

    #[test]
    fn oversized_line_draws_one_err_and_closes() {
        let mut rig = Rig::new(ServeConfig::default());
        rig.open();
        rig.send(b"STATS?\n");
        rig.send(&vec![b'x'; MAX_LINE_BYTES + 2]);
        assert!(!rig.conn.wants_read(Side::Client));
        let got = rig.replies(2);
        assert!(got[0].is_ok(), "{got:?}");
        assert_eq!(err(&got[1]), "line too long; closing");
        assert!(rig.conn.finished());
    }

    #[test]
    fn oversized_body_is_refused_and_the_next_request_still_works() {
        let mut rig = Rig::new(ServeConfig::default());
        rig.open();
        let line = format!("ASSERT a ^x {}\n", "7".repeat(1000));
        let mut script = "BATCH\n".to_string();
        script.push_str(&line.repeat(MAX_BODY_BYTES / line.len() + 1));
        script.push_str("END\nSTATS?\n");
        rig.send(script.as_bytes());
        let got = rig.replies(2);
        assert!(err(&got[0]).starts_with("BATCH body too large"), "{got:?}");
        let stats = got[1].clone().expect_ok().unwrap();
        assert!(stats.contains("staged=0"), "{stats}");
        assert!(rig.conn.wants_read(Side::Client));
    }

    /// Replies parked behind a command that is still executing count toward
    /// `write_buf_cap`: a client that pipelines one slow command and then
    /// floods cheap requests is cut off, not buffered without bound.
    #[test]
    fn flood_behind_a_wedged_head_is_cut_off() {
        let mut rig = Rig::new(ServeConfig {
            write_buf_cap: 2048,
            obs: obs::ObsConfig::enabled(),
            ..ServeConfig::default()
        });
        rig.open();
        let closes = |rig: &Rig| {
            let counters = rig.shared.counters.as_ref().expect("obs is on");
            counters.slow_client_closes.get()
        };
        assert_eq!(closes(&rig), 0);
        // The head: a command whose completion never reaches the core (the
        // rig does not route it), as if its worker were wedged. A `RUN`,
        // which always waits for a worker.
        rig.send(b"RUN 1\n");
        assert!(rig.written.is_empty());
        for _ in 0..200 {
            rig.send(b"NOSUCHVERB\n");
        }
        assert!(rig.conn.is_overloaded());
        assert!(!rig.conn.wants_read(Side::Client));
        let text = String::from_utf8(std::mem::take(&mut rig.written)).unwrap();
        assert_eq!(text, "ERR overloaded: outbound buffer full; closing\n");
        assert!(rig.conn.finished());
        assert_eq!(closes(&rig), 1);
        // The wedged command's late completion finds no slot and is dropped.
        rig.conn.complete(1, Reply::Ok("1".into()), &rig.shared);
        assert!(!rig.conn.wants_write(Side::Client));
    }

    /// Ticket triage in the shape of the ledger's serve-steady program.
    const TRIAGE: &str = "(literalize ticket id severity)
        (literalize queue name depth)
        (p escalate (ticket ^id <i> ^severity 0) --> (modify 1 ^severity 2))
        (p route (ticket ^id <i> ^severity { <s> > 0 < 9 }) (queue ^name all ^depth <d>)
           --> (remove 1) (modify 2 ^depth (compute <d> + 1)))
        (make queue ^name all ^depth 0)";

    fn durable_cfg(dir: &std::path::Path, run_slice_cycles: u64) -> ServeConfig {
        ServeConfig {
            workers: 1,
            durability_dir: Some(dir.to_path_buf()),
            // Low enough that the conversation checkpoints a few times.
            checkpoint_every: 24,
            obs: obs::ObsConfig::enabled(),
            run_slice_cycles,
            ..ServeConfig::default()
        }
    }

    /// The one request `wire` frames to.
    fn frame(wire: &str) -> Request {
        let mut framer = Framer::new();
        let mut bytes = wire.as_bytes();
        while !bytes.is_empty() {
            framer.read_from(&mut bytes).unwrap();
        }
        loop {
            match framer.next_frame().expect("a whole request") {
                Framed::Line {
                    request: Some(request),
                    ..
                } => return request,
                Framed::Line { request: None, .. } => {}
                Framed::TooLong => panic!("{wire}"),
            }
        }
    }

    /// One recorded conversation: the wire text of every request after the
    /// `OPEN`, which of them are bounded, and how many append to the journal.
    struct Recorded {
        wires: Vec<String>,
        replies: Vec<String>,
        bounded: u64,
        hops: u64,
        appends: u64,
        files: (Vec<u8>, Vec<u8>),
    }

    fn journal_files(dir: &std::path::Path) -> (Vec<u8>, Vec<u8>) {
        use crate::session::Session;
        (
            std::fs::read(Session::snap_path(dir, 1)).unwrap(),
            std::fs::read(Session::log_path(dir, 1)).unwrap(),
        )
    }

    /// Plays the ledger's serve-steady iteration (a `BATCH` of tickets,
    /// `RUN 64` to quiescence, `WM?`, `STATS?`, an audit `ASSERT`, a
    /// `RETRACT` of the one before, now and then `FIRED?`) and a closing
    /// `CLOSE` against an in-process session — no pool, no connection — and
    /// records what was sent and what came back.
    fn record_steady(iterations: usize) -> Recorded {
        let dir = tmp_dir("exec-reference");
        let shared = Shared::new(durable_cfg(&dir, 0));
        let origin = crate::protocol::Origin::Inline(TRIAGE.into());
        let (slot, _) = server::open_session(&shared, "-", Some("vs2"), None, origin).unwrap();
        let mut rec = Recorded {
            wires: Vec::new(),
            replies: Vec::new(),
            bounded: 0,
            hops: 0,
            appends: 0,
            files: Default::default(),
        };
        let writes_before = counter(&shared, "journal_write_total");
        let play = |rec: &mut Recorded, wire: String| {
            let Request::Session(cmd) = frame(&wire) else {
                panic!("{wire}");
            };
            if cmd.is_bounded() {
                rec.bounded += 1;
            } else {
                rec.hops += 1;
            }
            let reply = slot.with_session(|s| s.execute(cmd));
            rec.wires.push(wire);
            rec.replies.push(reply.to_string());
            reply
        };
        let (mut id, mut audit) = (0, None);
        for it in 0..iterations {
            let mut batch = "BATCH\n".to_string();
            for _ in 0..8 {
                id += 1;
                batch.push_str(&format!("ASSERT ticket ^id {id} ^severity {}\n", id % 4));
            }
            batch.push_str("END\n");
            play(&mut rec, batch).expect_ok().unwrap();
            while play(&mut rec, "RUN 64\n".into())
                .expect_ok()
                .unwrap()
                .contains("reason=limit")
            {}
            play(&mut rec, "WM? ticket\n".into());
            play(&mut rec, "STATS?\n".into());
            id += 1;
            let tag = play(&mut rec, format!("ASSERT ticket ^id {id} ^severity 9\n"));
            if let Some(old) = audit.replace(tag.expect_ok().unwrap()) {
                play(&mut rec, format!("RETRACT {old}\n"));
            }
            if it % 4 == 3 {
                play(&mut rec, "FIRED?\n".into());
            }
        }
        play(&mut rec, "CLOSE\n".into());
        rec.appends = counter(&shared, "journal_write_total") - writes_before;
        rec.files = journal_files(&dir);
        rec
    }

    /// What one executor made of a recorded conversation.
    struct Outcome {
        replies: Vec<String>,
        files: (Vec<u8>, Vec<u8>),
        inline: u64,
        notifies: u64,
        wakes: u64,
        fstats: u64,
        appends: u64,
    }

    /// Replays `rec` through a connection core: request by request, or all
    /// of it in one read.
    fn through_conn(tag: &str, rec: &Recorded, run_slice: u64, pipelined: bool) -> Outcome {
        let dir = tmp_dir(tag);
        let mut rig = Rig::new(ServeConfig {
            // Deep enough for the whole conversation in one read.
            queue_depth: rec.wires.len(),
            ..durable_cfg(&dir, run_slice)
        });
        rig.open_source(TRIAGE);
        let appends_before = rig.counter("journal_write_total");
        let replies = if pipelined {
            rig.send(rec.wires.concat().as_bytes());
            rig.replies(rec.wires.len())
        } else {
            rec.wires.iter().map(|w| rig.request(w)).collect()
        };
        Outcome {
            replies: replies.iter().map(Reply::to_string).collect(),
            files: journal_files(&dir),
            inline: rig.shared.pool.stats().inline,
            notifies: rig.counter("serve_pool_notify_total"),
            wakes: rig.wakes(),
            fstats: rig.counter("journal_fstat_total"),
            appends: rig.counter("journal_write_total") - appends_before,
        }
    }

    /// Replays `rec` through `Pool::submit` alone: every command crosses to
    /// a worker, as every command did before a connection could run one.
    fn through_pool(rec: &Recorded) -> Outcome {
        let dir = tmp_dir("exec-pool");
        let shared = Shared::new(durable_cfg(&dir, 0));
        let origin = crate::protocol::Origin::Inline(TRIAGE.into());
        let (slot, _) = server::open_session(&shared, "-", Some("vs2"), None, origin).unwrap();
        let counter = |name: &str| counter(&shared, name);
        let appends_before = counter("journal_write_total");
        let mut replies = Vec::new();
        for wire in &rec.wires {
            let Request::Session(cmd) = frame(wire) else {
                panic!("{wire}");
            };
            let (tx, rx) = mpsc::sync_channel(1);
            let outcome = shared.pool.submit(&slot, cmd, ReplyTx::Channel(tx));
            assert_eq!(outcome, SubmitOutcome::Accepted);
            replies.push(rx.recv().unwrap().to_string());
        }
        Outcome {
            replies,
            files: journal_files(&dir),
            inline: shared.pool.stats().inline,
            notifies: counter("serve_pool_notify_total"),
            wakes: 0,
            fstats: counter("journal_fstat_total"),
            appends: counter("journal_write_total") - appends_before,
        }
    }

    /// Which thread ran a command cannot be told from the wire or from the
    /// disk: one recorded conversation, every executor, the same reply
    /// bytes and the same journal bytes — and then what each executor paid
    /// for them. A bounded command on an idle session costs no condvar
    /// notify, no completion wake-up, no `fstat`, and at most one journal
    /// `write`; at the parent commit every executor pays what
    /// `Pool::submit` pays.
    #[test]
    fn every_executor_answers_and_journals_the_same_bytes() {
        let rec = record_steady(12);
        let commands = rec.bounded + rec.hops;
        assert!(3 * rec.bounded > commands, "3 commands in 6 are bounded");
        assert!(rec.appends <= commands, "at most one write per command");

        let pool = through_pool(&rec);
        let conn = through_conn("exec-conn", &rec, 0, false);
        // A slice budget no `RUN 64` reaches: the sliced code path, the
        // same durable points.
        let sliced = through_conn("exec-sliced", &rec, 500, false);
        let piped = through_conn("exec-piped", &rec, 0, true);
        for (name, got) in [
            ("pool", &pool),
            ("conn", &conn),
            ("sliced", &sliced),
            ("pipelined", &piped),
        ] {
            assert_eq!(got.replies, rec.replies, "{name}: replies");
            assert!(got.files == rec.files, "{name}: snapshot and log bytes");
            assert_eq!(got.appends, rec.appends, "{name}: journal writes");
            assert_eq!(got.fstats, 0, "{name}: journal fstats");
        }

        assert_eq!((pool.inline, pool.notifies), (0, commands));
        for got in [&conn, &sliced] {
            assert_eq!(got.inline, rec.bounded);
            assert_eq!(got.notifies, rec.hops);
            assert_eq!(got.wakes, rec.hops);
        }
        // Pipelined, whatever sits behind a `RUN` queues behind it, in
        // order, and is a worker's; only what finds the session idle runs
        // on the connection's thread.
        assert!(piped.inline < rec.bounded);
        assert!(piped.wakes >= rec.hops);
    }

    const COUNTER: &str = "(literalize c n)
        (p count (c ^n <n>) --> (modify 1 ^n (compute <n> + 1)))";

    proptest::proptest! {
        #![proptest_config(proptest::prelude::ProptestConfig {
            cases: 48, ..proptest::prelude::ProptestConfig::default()
        })]

        /// Per-session order at every chunking: a `RUN` (a worker's) with
        /// bounded commands pipelined behind it in the same bytes. The
        /// replies come back in request order and the `WM?` sees the state
        /// the `RUN` left, wherever the reads cut the script — which an
        /// inline path that ignored `scheduled` would answer from before
        /// the run.
        #[test]
        fn bounded_commands_behind_a_run_wait_for_it(
            cuts in proptest::collection::vec(1usize..24, 1..16),
        ) {
            let script = "ASSERT c ^n 0\nRUN 40\nWM?\nASSERT c ^n 100\nSTATS?\nRUN 2\nWM? c\n";
            let mut rig = Rig::new(ServeConfig { workers: 1, ..ServeConfig::default() });
            rig.open_source(COUNTER);
            let mut bytes = script.as_bytes();
            for cut in cuts.iter().cycle() {
                if bytes.is_empty() {
                    break;
                }
                let (piece, rest) = bytes.split_at((*cut).min(bytes.len()));
                rig.send(piece);
                bytes = rest;
            }
            let got = rig.replies(7);
            let text: Vec<String> = got.iter().map(Reply::to_string).collect();
            proptest::prop_assert_eq!(&text[0], "OK 1\n");
            proptest::prop_assert!(text[1].starts_with("OK cycles=40 "), "{}", text[1]);
            proptest::prop_assert_eq!(&text[2], "WM 1\n41 (c ^n 40)\nEND\n");
            proptest::prop_assert_eq!(&text[3], "OK 42\n");
            proptest::prop_assert!(text[4].contains(" cycles=40 wm=2 "), "{}", text[4]);
            proptest::prop_assert!(text[5].starts_with("OK cycles=2 "), "{}", text[5]);
            proptest::prop_assert!(text[6].starts_with("WM 2\n"), "{}", text[6]);
        }
    }

    /// A degraded session's next journal sync may cut a checkpoint, and
    /// the connections' thread must never `fsync`: after an injected
    /// log-write failure the next `ASSERT` goes through the pool, where
    /// its sync does checkpoint; once that has cleared the flag, bounded
    /// commands run inline again.
    #[test]
    fn a_degraded_session_sends_its_next_command_through_the_pool() {
        let dir = tmp_dir("degraded");
        let mut rig = Rig::new(ServeConfig {
            checkpoint_every: 1,
            ..durable_cfg(&dir, 0)
        });
        rig.open_source(COUNTER);
        let slot = rig.conn.session.clone().expect("open");
        let inline = |rig: &Rig| rig.shared.pool.stats().inline;
        rig.request("ASSERT c ^n 0\n").expect_ok().unwrap();
        assert_eq!(inline(&rig), 1);

        // Every append fails from here; the `RUN` still answers, its
        // firing parked, the session flagged.
        let full = std::fs::OpenOptions::new()
            .append(true)
            .open("/dev/full")
            .unwrap();
        let log = slot.with_session(|s| s.swap_log(full));
        rig.request("RUN 1\n").expect_ok().unwrap();
        assert!(slot.with_session(|s| s.durability_degraded()));
        slot.with_session(|s| s.swap_log(log));

        let (fsyncs, notifies) = (
            rig.counter("journal_fsync_total"),
            rig.counter("serve_pool_notify_total"),
        );
        rig.request("ASSERT c ^n 7\n").expect_ok().unwrap();
        assert_eq!(inline(&rig), 1, "a degraded session's command ran inline");
        assert_eq!(rig.counter("serve_pool_notify_total"), notifies + 1);
        // The parked firing reached `checkpoint_every`: snapshot and
        // directory were fsynced — by the worker.
        assert_eq!(rig.counter("journal_fsync_total"), fsyncs + 2);

        assert!(!slot.with_session(|s| s.durability_degraded()));
        rig.request("ASSERT c ^n 8\n").expect_ok().unwrap();
        assert_eq!(inline(&rig), 2);
        assert_eq!(rig.counter("journal_fsync_total"), fsyncs + 2);
    }

    /// A matcher that panics on demand: in `stats` (what `STATS?` reads) or
    /// in `submit` (what `RUN` does first).
    struct Bomb {
        inner: Box<dyn ops5::Matcher>,
        /// 1: panic in `stats`; 2: panic in `submit`.
        armed: Arc<std::sync::atomic::AtomicU8>,
    }

    impl ops5::Matcher for Bomb {
        fn submit(&mut self, batch: &ops5::ChangeBatch) {
            assert_ne!(self.armed.load(Ordering::SeqCst), 2, "bomb in submit");
            self.inner.submit(batch)
        }
        fn quiesce(&mut self) -> ops5::QuiesceReport {
            self.inner.quiesce()
        }
        fn stats(&self) -> ops5::MatchStats {
            assert_ne!(self.armed.load(Ordering::SeqCst), 1, "bomb in stats");
            self.inner.stats()
        }
        fn reset_stats(&mut self) {
            self.inner.reset_stats()
        }
        fn name(&self) -> &'static str {
            "bomb"
        }
    }

    /// A panic inside a command — on the thread that drives the
    /// connections or on a worker — costs that session and nothing else:
    /// the command answers `ERR`, every later one `ERR session poisoned`,
    /// `CLOSE` still releases the session, a second connection never
    /// notices, and the pool's only worker is still there afterwards.
    #[test]
    fn a_panicking_command_poisons_its_session_and_nothing_else() {
        for on_this_thread in [true, false] {
            let mut rig = Rig::new(ServeConfig {
                workers: 1,
                obs: obs::ObsConfig::enabled(),
                ..ServeConfig::default()
            });
            let armed = Arc::new(std::sync::atomic::AtomicU8::new(0));
            let bomb = armed.clone();
            let engine = engine::EngineBuilder::from_source(COUNTER)
                .unwrap()
                .custom_matcher(move |net| {
                    Box::new(Bomb {
                        inner: rete::seq::boxed_vs1(net),
                        armed: bomb,
                    })
                })
                .build()
                .unwrap();
            let kind = engine::MatcherKind::default();
            let session = crate::session::Session::new(1, "bomb", engine, kind, 1000);
            let slot = SessionSlot::new(session);
            let roster = &rig.shared.obs.as_ref().expect("obs is on").sessions;
            roster.lock().unwrap().push(Arc::downgrade(&slot));
            rig.conn.session = Some(slot.clone());
            // A second connection on the same pool.
            let mut other = Conn::new(2);
            let mut other_out = Vec::new();
            let mut other_says = |rig: &mut Rig, wire: &[u8]| {
                let mut bytes = wire;
                other.read_from(Side::Client, &mut bytes).unwrap();
                other.process(&rig.shared, &rig.completions);
                while !other.wants_write(Side::Client) {
                    rig.woken.recv_timeout(Duration::from_secs(30)).unwrap();
                    for (conn, seq, reply) in rig.completions.drain() {
                        assert_eq!(conn, 2);
                        other.complete(seq, reply, &rig.shared);
                    }
                }
                other_out.clear();
                other.write_to(Side::Client, &mut other_out).unwrap();
                String::from_utf8(other_out.clone()).unwrap()
            };
            let opened = other_says(&mut rig, format!("OPEN - vs2\n{COUNTER}\nEND\n").as_bytes());
            assert!(opened.starts_with("OK session "), "{opened}");

            rig.request("ASSERT c ^n 0\n").expect_ok().unwrap();
            assert!(rig.request("STATS?\n").is_ok());
            assert!(rig.request("RUN 1\n").is_ok());
            let boom = if on_this_thread {
                // The pool's in-place entry, called as `Conn::submit` calls
                // it, with a command that blows up in `Matcher::stats`.
                armed.store(1, Ordering::SeqCst);
                let tx = ReplyTx::Completion {
                    queue: rig.completions.clone(),
                    conn: rig.conn.id,
                    seq: u64::MAX,
                };
                match rig.shared.pool.run_or_submit(&slot, Command::Stats, tx) {
                    Submitted::Ran(reply) => reply,
                    Submitted::Queued(outcome) => panic!("went to the pool: {outcome:?}"),
                }
            } else {
                armed.store(2, Ordering::SeqCst);
                rig.request("RUN 5\n")
            };
            assert!(err(&boom).starts_with("session poisoned"), "{boom:?}");
            assert_eq!(rig.counter("serve_session_panics_total"), 1);
            armed.store(0, Ordering::SeqCst);

            // Disarmed or not, the engine is never touched again.
            for later in ["ASSERT c ^n 1\n", "RUN 1\n", "WM?\n", "SNAPSHOT?\n"] {
                let reply = rig.request(later);
                assert!(err(&reply).starts_with("session poisoned"), "{later}");
            }
            // Nor read: a scrape skips it.
            server::render_metrics(&rig.shared);

            // The other connection, and the worker it needs for a `RUN`.
            assert_eq!(other_says(&mut rig, b"ASSERT c ^n 0\n"), "OK 1\n");
            let run = other_says(&mut rig, b"RUN 3\n");
            assert!(run.starts_with("OK cycles=3 "), "{run}");

            assert_eq!(rig.request("CLOSE\n"), Reply::Ok("closed poisoned".into()));
            assert_eq!(err(&rig.request("STATS?\n")), "no open session");
        }
    }
}
