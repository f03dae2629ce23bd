//! The connection core: one client connection's protocol state, with no
//! socket in it.
//!
//! Bytes in ([`Conn::read_from`], [`Conn::process`]) become pool
//! submissions and direct replies; completions in ([`Conn::complete`])
//! become ordered bytes out ([`Conn::write_to`]). Whoever owns the socket —
//! [`crate::server_nb`] in production, a byte slice in the tests below —
//! only moves bytes and asks [`wants_read`](Conn::wants_read) /
//! [`wants_write`](Conn::wants_write) / [`finished`](Conn::finished).
//!
//! **Reply order.** Replies must leave in request order under pipelining
//! even though commands execute on pool workers. Every request reserves a
//! slot in `replies` *before* it is submitted; direct replies and pool
//! rejections (`BUSY`/`OVERLOADED`) fill their slot on the spot, worker
//! replies come back through [`Completions`] tagged (connection, sequence).
//! Only the queue's front run of filled slots moves to the out buffer,
//! which is the whole ordering argument.
//!
//! **Bounds.** Everything a client can grow is capped and each cap fails
//! closed (the table is in DESIGN.md §8): the framer bounds a line and a
//! body, the session's inbox bounds commands in flight, and this module
//! bounds the replies not yet on the socket — the out buffer plus the
//! slots parked behind a command still executing — by
//! [`ServeConfig::write_buf_cap`](crate::server::ServeConfig::write_buf_cap).

use crate::pool::{Completions, ReplyTx, SessionSlot, SubmitOutcome};
use crate::protocol::{Framed, Framer, Reply, Request};
use crate::server::{self, Shared};
use crate::session::Command;
use reactor::WriteBuf;
use std::collections::VecDeque;
use std::io;
use std::sync::atomic::Ordering;
use std::sync::Arc;

/// One slot of a connection's ordered reply queue. Slot *i* (from the
/// front) answers request `first_seq + i`.
enum ReplySlot {
    /// Command in flight on a pool worker.
    Waiting,
    /// Serialized reply, parked until every earlier slot has left.
    Filled(String),
}

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
    pub(crate) fn new(id: u64) -> Conn {
        Conn {
            id,
            framer: Framer::new(),
            session: None,
            replies: VecDeque::new(),
            first_seq: 0,
            parked_bytes: 0,
            out: WriteBuf::new(),
            stop_input: false,
            overloaded: false,
        }
    }

    /// One read from `r` into the input buffer (0 = EOF).
    pub(crate) fn read_from(&mut self, r: &mut impl io::Read) -> io::Result<usize> {
        self.framer.read_from(r)
    }

    /// Writes as much of the out buffer as `w` accepts without blocking.
    pub(crate) fn write_to(&mut self, w: &mut impl io::Write) -> io::Result<usize> {
        self.out.write_to(w)
    }

    pub(crate) fn wants_read(&self) -> bool {
        !self.stop_input
    }

    pub(crate) fn wants_write(&self) -> bool {
        !self.out.is_empty()
    }

    /// Stops parsing input: the peer sent EOF, or the server is draining.
    pub(crate) fn close_input(&mut self) {
        self.stop_input = true;
    }

    pub(crate) fn is_overloaded(&self) -> bool {
        self.overloaded
    }

    /// Nothing left to do: every owed reply has been written out.
    pub(crate) fn finished(&self) -> bool {
        self.out.is_empty() && (self.overloaded || (self.stop_input && self.replies.is_empty()))
    }

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
        let reject = match shared.pool.submit(session, cmd, tx) {
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
        let text = reply.to_string();
        self.parked_bytes += text.len();
        self.replies[at as usize] = ReplySlot::Filled(text);
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
                conn: Conn::new(1),
                written: Vec::new(),
            }
        }

        /// Delivers `bytes` (as the reads of one readable event would) and
        /// acts on them.
        fn send(&mut self, mut bytes: &[u8]) {
            while !bytes.is_empty() {
                self.conn.read_from(&mut bytes).unwrap();
            }
            self.conn.process(&self.shared, &self.completions);
            self.conn.write_to(&mut self.written).unwrap();
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
                for (conn, seq, reply) in self.completions.drain() {
                    assert_eq!(conn, self.conn.id);
                    self.conn.complete(seq, reply, &self.shared);
                }
                self.conn.write_to(&mut self.written).unwrap();
            }
        }

        fn open(&mut self) {
            self.send(format!("OPEN - vs2\n{SRC}\nEND\n").as_bytes());
            self.replies(1).remove(0).expect_ok().unwrap();
        }
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
        assert!(!rig.conn.wants_read());
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
        assert!(rig.conn.wants_read());
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
        // rig does not route it), as if its worker were wedged.
        rig.send(b"ASSERT a ^x 1\n");
        assert!(rig.written.is_empty());
        for _ in 0..200 {
            rig.send(b"NOSUCHVERB\n");
        }
        assert!(rig.conn.is_overloaded());
        assert!(!rig.conn.wants_read());
        let text = String::from_utf8(std::mem::take(&mut rig.written)).unwrap();
        assert_eq!(text, "ERR overloaded: outbound buffer full; closing\n");
        assert!(rig.conn.finished());
        assert_eq!(closes(&rig), 1);
        // The wedged command's late completion finds no slot and is dropped.
        rig.conn.complete(1, Reply::Ok("1".into()), &rig.shared);
        assert!(!rig.conn.wants_write());
    }
}
