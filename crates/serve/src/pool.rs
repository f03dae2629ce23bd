//! The worker pool: a fixed set of threads executing session commands, and
//! the one rule for who executes a session's next command.
//!
//! Scheduling is actor-style. Each session owns an inbox (a bounded command
//! queue) and a `scheduled` claim that at most one thread holds: while it is
//! held, that thread alone executes the session's commands and everything
//! submitted meanwhile queues in the inbox. A worker takes the claim with
//! the session it pops off a run queue, executes *one* command (or one
//! *slice* of a long `RUN` — see below), and requeues the session only if
//! its inbox still has work. One command per pop keeps a long-running
//! session from starving the rest — combined with the per-command cycle
//! clamp in [`crate::session::Session`], every unit of worker work is
//! bounded.
//!
//! **Run to completion where the bytes are.** Handing a command to a worker
//! costs more than most commands do (a condvar notify out, an eventfd write
//! and a second `epoll_wait` return back, against ~3 µs of staging). So a
//! [bounded](Command::is_bounded) command — a staging write, whose work is
//! proportional to the bytes of the request and touches no matcher — is
//! executed by the thread that submits it
//! (`Pool::run_or_submit`) when nothing is waiting: the session is
//! unscheduled, every run queue is empty, the pool is not draining and the
//! session's journal is not degraded. That thread takes the same claim a
//! worker would and goes through the same `run_one`, so per-session order,
//! metrics, panic containment and the journal contract are one code path;
//! anything that runs the matcher (`RUN`, `CS?`), reads the session
//! (`WM?`, `FIRED?`, `STATS?`), rebuilds the engine or closes the session
//! always goes to a worker.
//!
//! **Priority classes.** The run queue is three queues, one per
//! [`Priority`] class (`high`/`normal`/`batch`), chosen at
//! `OPEN ... PRIO=<p>` and adjustable with the `PRIO` verb. Dequeue is
//! weighted (`CLASS_WEIGHTS` credits per refill round) with aging
//! (`AGE_PROMOTE`) as a backstop, so a loaded `batch` class is served at
//! least once per credit round and can never starve outright.
//!
//! **Deadline preemption.** When the server runs with a slice budget
//! (`run_slice_cycles`), a session's `RUN` executes as budgeted sub-runs:
//! the session yields a [`crate::session::Exec::Yield`] continuation at
//! each slice boundary, the worker pushes it back on the *front* of the
//! session's inbox (same reply slot, same order) and requeues the session,
//! so a wedged spinner no longer monopolizes a worker.
//!
//! **Cancellation.** [`SessionSlot::cancel`] marks everything currently in
//! the inbox — including an in-flight sliced `RUN`'s continuation — for
//! fast-fail: the worker answers `ERR cancelled` without touching the
//! engine, cutting the run at its next slice boundary. The session itself
//! stays open and resumable.
//!
//! **Panics.** A command that panics inside the engine is caught where it
//! executes: it answers `ERR`, its session is poisoned (every later command
//! answers `ERR session poisoned`; `CLOSE` still releases it) and the
//! thread that ran it — a worker, or the one thread every connection
//! depends on — carries on. `serve_session_panics_total` counts them.
//!
//! Backpressure is explicit and two-level:
//! * inbox full → [`SubmitOutcome::Overloaded`] — *this session* is behind;
//! * the session's class run-queue at capacity → [`SubmitOutcome::Busy`] —
//!   the *server* is saturated for that class;
//!
//! and both are reported to the submitting connection immediately, never
//! queued. Shutdown drains: no new submissions are accepted, but every
//! queued command executes before the workers exit, so no session is left
//! mid-cycle.

use crate::protocol::Reply;
use crate::session::{Command, Exec, Session, POISONED};
use std::collections::VecDeque;
use std::sync::atomic::{AtomicBool, AtomicU64, AtomicU8, Ordering};
use std::sync::{mpsc, Arc, Condvar, Mutex};
use std::thread::JoinHandle;

/// A session's scheduling class. Order doubles as dequeue preference:
/// lower discriminant is served first when credits allow.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub enum Priority {
    High,
    #[default]
    Normal,
    Batch,
}

impl Priority {
    pub const COUNT: usize = 3;
    pub const ALL: [Priority; Priority::COUNT] =
        [Priority::High, Priority::Normal, Priority::Batch];

    /// Parses a class name (case-insensitive).
    pub fn from_name(name: &str) -> Option<Priority> {
        match name.to_ascii_lowercase().as_str() {
            "high" => Some(Priority::High),
            "normal" => Some(Priority::Normal),
            "batch" => Some(Priority::Batch),
            _ => None,
        }
    }

    pub fn name(self) -> &'static str {
        match self {
            Priority::High => "high",
            Priority::Normal => "normal",
            Priority::Batch => "batch",
        }
    }
}

/// Dequeue credits handed to each class per refill round: high gets 16
/// pops for every 4 normal and 1 batch when every class is loaded.
const CLASS_WEIGHTS: [u32; Priority::COUNT] = [16, 4, 1];

/// A non-empty class passed over this many consecutive pops is served
/// unconditionally — an anti-starvation backstop behind the credit scheme
/// (under steady load credits alone bound the wait to one refill round).
const AGE_PROMOTE: u32 = 32;

/// Where a worker should deliver a command's reply.
///
/// The connection core has no thread to block on a receiver, so its
/// replies are pushed onto a shared [`Completions`] queue tagged with
/// (connection, sequence) and the reactor thread is woken to route them
/// into the connection's ordered reply slots.
pub enum ReplyTx {
    /// One-shot channel, for callers that own a thread to wait on: the
    /// tests and the ledger's pool-hop layer. No connection uses it.
    Channel(mpsc::SyncSender<Reply>),
    /// Connection-core completion: queue + (connection id, per-connection
    /// sequence).
    Completion {
        queue: Arc<Completions>,
        conn: u64,
        seq: u64,
    },
}

impl ReplyTx {
    /// Delivers the reply; a vanished recipient is not an error.
    pub fn send(&self, reply: Reply) {
        match self {
            ReplyTx::Channel(tx) => {
                let _ = tx.send(reply);
            }
            ReplyTx::Completion { queue, conn, seq } => queue.push(*conn, *seq, reply),
        }
    }
}

/// The completion queue: worker threads push finished replies here and
/// wake the one thread that drives the connections, which drains the queue
/// and hands each reply to its connection's core.
pub struct Completions {
    q: Mutex<Vec<(u64, u64, Reply)>>,
    wake: Box<dyn Fn() + Send + Sync>,
}

impl Completions {
    /// `wake` is called after every push, from the pushing thread.
    pub fn new(wake: impl Fn() + Send + Sync + 'static) -> Completions {
        Completions {
            q: Mutex::new(Vec::new()),
            wake: Box::new(wake),
        }
    }

    pub fn push(&self, conn: u64, seq: u64, reply: Reply) {
        self.q.lock().unwrap().push((conn, seq, reply));
        (self.wake)();
    }

    /// Takes everything queued so far (driving thread only).
    pub fn drain(&self) -> Vec<(u64, u64, Reply)> {
        std::mem::take(&mut *self.q.lock().unwrap())
    }
}

/// Where a submitted command ended up.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum SubmitOutcome {
    /// Queued; the reply will arrive on the submission's channel.
    Accepted,
    /// The session's class run-queue is at capacity — server backpressure.
    Busy,
    /// The session's own inbox is full — per-session backpressure.
    Overloaded,
    /// The pool is draining for shutdown.
    ShuttingDown,
}

/// Where [`Pool::run_or_submit`] left a command.
pub(crate) enum Submitted {
    /// Executed on the calling thread: its reply.
    Ran(Reply),
    /// Went through [`Pool::submit`].
    Queued(SubmitOutcome),
}

/// One queued inbox command. `seq` is the inbox's enqueue sequence; a
/// [`SessionSlot::cancel`] snapshots the sequence so entries stamped below
/// the watermark fast-fail instead of executing. A sliced `RUN`'s
/// continuation keeps its original `seq`, which is what lets `CANCEL` cut
/// a run that is already in flight.
struct Entry {
    cmd: Command,
    reply_tx: ReplyTx,
    seq: u64,
}

struct Inbox {
    q: VecDeque<Entry>,
    /// The session's claim: true while the slot sits on a run queue or a
    /// thread (a worker, or a submitter running a bounded command itself)
    /// is executing one of its commands with the requeue check still owed.
    /// At most one run-queue entry and one executing thread per session.
    scheduled: bool,
    /// Sequence stamped on the next enqueued entry.
    enq_seq: u64,
    /// Entries with `seq` below this watermark reply `ERR cancelled`.
    cancel_before: u64,
}

/// One session's scheduling state: inbox + priority + the session itself.
pub struct SessionSlot {
    pub id: u64,
    prio: AtomicU8,
    inbox: Mutex<Inbox>,
    session: Mutex<Session>,
    /// [`Session::durability_degraded`] as of the last step the pool
    /// executed: a degraded session's next journal sync may cut a
    /// checkpoint, whose `fsync`s belong on a worker. Written by the holder
    /// of the `scheduled` claim before it takes the inbox lock to give the
    /// claim up, read under that lock, hence `Relaxed`.
    degraded: AtomicBool,
}

impl SessionSlot {
    pub fn new(session: Session) -> Arc<SessionSlot> {
        Arc::new(SessionSlot {
            id: session.id,
            prio: AtomicU8::new(Priority::Normal as u8),
            inbox: Mutex::new(Inbox {
                q: VecDeque::new(),
                scheduled: false,
                enq_seq: 0,
                cancel_before: 0,
            }),
            degraded: AtomicBool::new(session.durability_degraded()),
            session: Mutex::new(session),
        })
    }

    pub fn priority(&self) -> Priority {
        Priority::ALL[self.prio.load(Ordering::Relaxed) as usize]
    }

    /// Changes the scheduling class. An entry already sitting on a run
    /// queue finishes its current round under the old class; every requeue
    /// after that uses the new one.
    pub fn set_priority(&self, p: Priority) {
        self.prio.store(p as u8, Ordering::Relaxed);
    }

    /// Marks everything currently queued (and any in-flight sliced `RUN`)
    /// for fast-fail `ERR cancelled`. Later submissions are unaffected.
    /// Returns how many inbox entries were covered by the watermark.
    pub fn cancel(&self) -> usize {
        let mut inbox = self.inbox.lock().unwrap();
        inbox.cancel_before = inbox.enq_seq;
        inbox.q.len()
    }

    /// Runs `f` against the session outside the pool (tests, differential
    /// checks). Panics if a worker holds the session.
    pub fn with_session<R>(&self, f: impl FnOnce(&mut Session) -> R) -> R {
        f(&mut self.session.lock().unwrap())
    }
}

/// Cumulative pool counters (monotonic; read by `STATS?`-style probes and
/// the load harness).
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct PoolStats {
    pub executed: u64,
    pub rejected_busy: u64,
    pub rejected_overloaded: u64,
    /// Sliced `RUN`s that hit a slice boundary and were requeued.
    pub preempted: u64,
    /// Inbox entries fast-failed by `CANCEL`.
    pub cancelled: u64,
    /// Commands executed on the submitting thread instead of a worker.
    pub inline: u64,
}

/// The three per-class run queues plus the weighted-dequeue state.
/// Deterministic and lock-free internally — the caller holds the mutex —
/// so the scheduling policy is unit-testable in isolation.
struct RunQueues {
    q: [VecDeque<Arc<SessionSlot>>; Priority::COUNT],
    credits: [u32; Priority::COUNT],
    age: [u32; Priority::COUNT],
}

impl RunQueues {
    fn new() -> RunQueues {
        RunQueues {
            q: [VecDeque::new(), VecDeque::new(), VecDeque::new()],
            credits: CLASS_WEIGHTS,
            age: [0; Priority::COUNT],
        }
    }

    fn len(&self, class: Priority) -> usize {
        self.q[class as usize].len()
    }

    fn is_empty(&self) -> bool {
        self.q.iter().all(VecDeque::is_empty)
    }

    fn push(&mut self, class: Priority, slot: Arc<SessionSlot>) {
        self.q[class as usize].push_back(slot);
    }

    /// The class to serve next: an aged-out class wins outright, else the
    /// highest non-empty class with credits left; when the loaded classes
    /// have spent their credits, every class refills and the highest
    /// non-empty one is served.
    fn pick(&mut self) -> Option<usize> {
        if self.is_empty() {
            return None;
        }
        let loaded = |i: &usize| !self.q[*i].is_empty();
        let pick = (0..Priority::COUNT)
            .find(|i| loaded(i) && self.age[*i] >= AGE_PROMOTE)
            .or_else(|| (0..Priority::COUNT).find(|i| loaded(i) && self.credits[*i] > 0))
            .unwrap_or_else(|| {
                self.credits = CLASS_WEIGHTS;
                (0..Priority::COUNT)
                    .find(loaded)
                    .expect("checked non-empty")
            });
        Some(pick)
    }

    fn pop(&mut self) -> Option<(Priority, Arc<SessionSlot>)> {
        let pick = self.pick()?;
        for i in 0..Priority::COUNT {
            if i == pick {
                self.age[i] = 0;
            } else if !self.q[i].is_empty() {
                self.age[i] += 1;
            }
        }
        self.credits[pick] = self.credits[pick].saturating_sub(1);
        let slot = self.q[pick].pop_front().expect("picked a non-empty class");
        Some((Priority::ALL[pick], slot))
    }
}

struct PoolInner {
    runq: Mutex<RunQueues>,
    cv: Condvar,
    stop: AtomicBool,
    queue_depth: usize,
    /// Per-class run-queue capacity (each class gets the full cap, so
    /// saturating `batch` cannot shut `high` out of the queue).
    run_queue_cap: usize,
    executed: AtomicU64,
    rejected_busy: AtomicU64,
    rejected_overloaded: AtomicU64,
    preempted: AtomicU64,
    cancelled: AtomicU64,
    inline: AtomicU64,
    /// Scheduling observability, present when the server runs with obs
    /// enabled.
    obs: Option<PoolObs>,
}

/// Pool-level metrics, pre-registered so the worker hot path never touches
/// the registry lock: per-command latency histograms, per-class run-queue
/// depth gauges, preemption/cancellation counters, and the per-slice
/// execution-latency histogram.
struct PoolObs {
    cmd_latency: CmdLatency,
    runq_depth: [Arc<obs::Gauge>; Priority::COUNT],
    preemptions: Arc<obs::Counter>,
    cancelled: Arc<obs::Counter>,
    slice_ns: Arc<obs::Histogram>,
    /// Condvar notifies: one per session put on a run queue.
    notifies: Arc<obs::Counter>,
    /// Commands executed on the submitting thread.
    inline: Arc<obs::Counter>,
    /// Commands that panicked and poisoned their session.
    panics: Arc<obs::Counter>,
}

impl PoolObs {
    fn new(registry: &Arc<obs::Registry>) -> PoolObs {
        PoolObs {
            cmd_latency: CmdLatency::new(registry),
            runq_depth: Priority::ALL.map(|p| {
                let labels = vec![("class".to_string(), p.name().to_string())];
                registry.gauge("serve_runq_depth", labels)
            }),
            preemptions: registry.counter("serve_preemptions_total", Vec::new()),
            cancelled: registry.counter("serve_cancelled_total", Vec::new()),
            slice_ns: registry.histogram("serve_run_slice_ns", Vec::new()),
            notifies: registry.counter("serve_pool_notify_total", Vec::new()),
            inline: registry.counter("serve_inline_total", Vec::new()),
            panics: registry.counter("serve_session_panics_total", Vec::new()),
        }
    }
}

/// One `serve_command_ns` histogram per command kind. A sliced `RUN`
/// records one sample per slice under `run`.
struct CmdLatency {
    by_kind: Vec<(&'static str, std::sync::Arc<obs::Histogram>)>,
}

impl CmdLatency {
    const KINDS: [&'static str; 11] = [
        "assert", "retract", "batch", "run", "cs", "wm", "stats", "fired", "snapshot", "migrate",
        "close",
    ];

    fn new(registry: &Arc<obs::Registry>) -> CmdLatency {
        CmdLatency {
            by_kind: Self::KINDS
                .iter()
                .map(|k| {
                    let labels = vec![("cmd".to_string(), k.to_string())];
                    (*k, registry.histogram("serve_command_ns", labels))
                })
                .collect(),
        }
    }

    fn record(&self, kind: &str, nanos: u64) {
        if let Some((_, h)) = self.by_kind.iter().find(|(k, _)| *k == kind) {
            h.record(nanos);
        }
    }
}

/// Fixed worker thread pool over session slots.
pub struct Pool {
    inner: Arc<PoolInner>,
    workers: Mutex<Vec<JoinHandle<()>>>,
}

impl Pool {
    /// Spawns `workers` threads. `queue_depth` bounds each session's inbox;
    /// `run_queue_cap` bounds how many sessions of one class may be
    /// runnable at once. A `registry` turns on scheduling metrics.
    pub fn new(
        workers: usize,
        queue_depth: usize,
        run_queue_cap: usize,
        registry: Option<&Arc<obs::Registry>>,
    ) -> Pool {
        let inner = Arc::new(PoolInner {
            runq: Mutex::new(RunQueues::new()),
            cv: Condvar::new(),
            stop: AtomicBool::new(false),
            queue_depth: queue_depth.max(1),
            run_queue_cap: run_queue_cap.max(1),
            executed: AtomicU64::new(0),
            rejected_busy: AtomicU64::new(0),
            rejected_overloaded: AtomicU64::new(0),
            preempted: AtomicU64::new(0),
            cancelled: AtomicU64::new(0),
            inline: AtomicU64::new(0),
            obs: registry.map(PoolObs::new),
        });
        let workers = (0..workers.max(1))
            .map(|i| {
                let inner = inner.clone();
                std::thread::Builder::new()
                    .name(format!("serve-worker-{i}"))
                    .spawn(move || worker_loop(&inner))
                    .expect("spawn worker")
            })
            .collect();
        Pool {
            inner,
            workers: Mutex::new(workers),
        }
    }

    /// Queues one command for a session. The reply — including an immediate
    /// rejection — always travels through `reply_tx`'s counterpart; on a
    /// non-`Accepted` outcome the *caller* sends the backpressure reply, so
    /// reply order matches submission order even under pipelining.
    pub fn submit(
        &self,
        slot: &Arc<SessionSlot>,
        cmd: Command,
        reply_tx: ReplyTx,
    ) -> SubmitOutcome {
        if self.inner.stop.load(Ordering::SeqCst) {
            return SubmitOutcome::ShuttingDown;
        }
        let mut inbox = slot.inbox.lock().unwrap();
        if inbox.q.len() >= self.inner.queue_depth {
            self.inner
                .rejected_overloaded
                .fetch_add(1, Ordering::Relaxed);
            return SubmitOutcome::Overloaded;
        }
        if inbox.scheduled {
            let seq = inbox.enq_seq;
            inbox.enq_seq += 1;
            inbox.q.push_back(Entry { cmd, reply_tx, seq });
            return SubmitOutcome::Accepted;
        }
        let class = slot.priority();
        // Lock order inbox → runq, same as the worker's requeue path.
        let mut runq = self.inner.runq.lock().unwrap();
        if runq.len(class) >= self.inner.run_queue_cap {
            self.inner.rejected_busy.fetch_add(1, Ordering::Relaxed);
            return SubmitOutcome::Busy;
        }
        let seq = inbox.enq_seq;
        inbox.enq_seq += 1;
        inbox.q.push_back(Entry { cmd, reply_tx, seq });
        inbox.scheduled = true;
        runq.push(class, slot.clone());
        if let Some(o) = &self.inner.obs {
            o.runq_depth[class as usize].add(1);
            o.notifies.inc();
        }
        drop(runq);
        drop(inbox);
        self.inner.cv.notify_one();
        SubmitOutcome::Accepted
    }

    /// [`submit`](Self::submit) for a [bounded](Command::is_bounded) command
    /// and a caller that would otherwise only wait for the completion: when
    /// nothing is waiting anywhere, the command runs to completion here,
    /// under the same `scheduled` claim a worker would hold.
    ///
    /// "Nothing waiting" is decided under the inbox lock: the session is
    /// unscheduled (so its inbox is empty and per-session order holds —
    /// whatever is pipelined behind this command queues as ever), every
    /// class's run queue is empty (so no queued session, of any class, is
    /// overtaken), the pool is not draining, and the session is not
    /// degraded. Otherwise the command is submitted as usual.
    pub(crate) fn run_or_submit(
        &self,
        slot: &Arc<SessionSlot>,
        cmd: Command,
        reply_tx: ReplyTx,
    ) -> Submitted {
        let claimed = {
            let mut inbox = slot.inbox.lock().unwrap();
            let idle = !inbox.scheduled
                && !self.inner.stop.load(Ordering::SeqCst)
                && !slot.degraded.load(Ordering::Relaxed)
                && self.inner.runq.lock().unwrap().is_empty();
            idle.then(|| {
                debug_assert!(inbox.q.is_empty(), "unscheduled with work queued");
                inbox.scheduled = true;
                inbox.enq_seq += 1;
                inbox.enq_seq - 1
            })
        };
        let Some(seq) = claimed else {
            return Submitted::Queued(self.submit(slot, cmd, reply_tx));
        };
        let entry = Entry { cmd, reply_tx, seq };
        match run_one(&self.inner, slot, Some(entry)) {
            Some((_, reply)) => {
                self.inner.inline.fetch_add(1, Ordering::Relaxed);
                if let Some(o) = &self.inner.obs {
                    o.inline.inc();
                }
                Submitted::Ran(reply)
            }
            // Yielded: the rest of it is a worker's, and so is the reply.
            None => Submitted::Queued(SubmitOutcome::Accepted),
        }
    }

    pub fn stats(&self) -> PoolStats {
        PoolStats {
            executed: self.inner.executed.load(Ordering::Relaxed),
            rejected_busy: self.inner.rejected_busy.load(Ordering::Relaxed),
            rejected_overloaded: self.inner.rejected_overloaded.load(Ordering::Relaxed),
            preempted: self.inner.preempted.load(Ordering::Relaxed),
            cancelled: self.inner.cancelled.load(Ordering::Relaxed),
            inline: self.inner.inline.load(Ordering::Relaxed),
        }
    }

    pub fn is_stopping(&self) -> bool {
        self.inner.stop.load(Ordering::SeqCst)
    }

    /// Graceful shutdown: refuse new submissions, execute everything already
    /// queued, then join the workers.
    pub fn shutdown(&self) {
        self.inner.stop.store(true, Ordering::SeqCst);
        self.inner.cv.notify_all();
        let handles: Vec<_> = self.workers.lock().unwrap().drain(..).collect();
        for w in handles {
            let _ = w.join();
        }
    }
}

impl Drop for Pool {
    fn drop(&mut self) {
        self.shutdown();
    }
}

fn worker_loop(inner: &PoolInner) {
    loop {
        let (class, slot) = {
            let mut runq = inner.runq.lock().unwrap();
            loop {
                if let Some(popped) = runq.pop() {
                    break popped;
                }
                if inner.stop.load(Ordering::SeqCst) {
                    // Stop requested and nothing runnable: the queues can
                    // only refill from requeues, which other workers finish
                    // before they exit the same way.
                    return;
                }
                runq = inner.cv.wait(runq).unwrap();
            }
        };
        if let Some(o) = &inner.obs {
            o.runq_depth[class as usize].add(-1);
        }
        if let Some((reply_tx, reply)) = run_one(inner, &slot, None) {
            // A vanished reader is not the session's problem.
            reply_tx.send(reply);
        }
    }
}

/// One unit of a session's work, on the thread that holds the session's
/// `scheduled` claim: a worker that popped the slot off a run queue
/// (`owned` is `None`: the unit is the inbox's head), or the submitting
/// thread that found the session idle ([`Pool::run_or_submit`]; the unit is
/// `owned`, which never sat in the inbox). Executes one step, then gives
/// the claim up or puts the session back on its run queue, and returns the
/// finished reply with the route its submitter gave it — `None` when a
/// `RUN` yielded at a slice boundary. The claim is settled *before* the
/// caller delivers the reply, so whoever has read a session's reply finds
/// the session idle (or queued), never mid-hand-back.
fn run_one(
    inner: &PoolInner,
    slot: &Arc<SessionSlot>,
    owned: Option<Entry>,
) -> Option<(ReplyTx, Reply)> {
    let next = match owned {
        // Never in the inbox, so no CANCEL has seen it.
        Some(entry) => Some((entry, false)),
        // The cancel watermark is read under the same lock as the pop, so a
        // concurrent CANCEL either covers this entry or a later one, never
        // a torn in-between.
        None => {
            let mut inbox = slot.inbox.lock().unwrap();
            let cancel_before = inbox.cancel_before;
            inbox.q.pop_front().map(|e| {
                let cancelled = e.seq < cancel_before;
                (e, cancelled)
            })
        }
    };
    let finished = next.and_then(|(entry, cancelled)| {
        if cancelled {
            inner.cancelled.fetch_add(1, Ordering::Relaxed);
            if let Some(o) = &inner.obs {
                o.cancelled.inc();
            }
            return Some((entry.reply_tx, Reply::Err("cancelled".into())));
        }
        let kind = entry.cmd.label();
        let was_slice = matches!(entry.cmd, Command::RunSlice { .. });
        let t0 = inner.obs.as_ref().map(|_| std::time::Instant::now());
        let exec = execute_caught(inner, slot, entry.cmd);
        let yielded = matches!(exec, Exec::Yield(_));
        if let (Some(o), Some(t0)) = (&inner.obs, t0) {
            let ns = t0.elapsed().as_nanos() as u64;
            o.cmd_latency.record(kind, ns);
            if was_slice || yielded {
                o.slice_ns.record(ns);
            }
        }
        match exec {
            Exec::Done(reply) => {
                inner.executed.fetch_add(1, Ordering::Relaxed);
                Some((entry.reply_tx, reply))
            }
            Exec::Yield(cont) => {
                // Slice boundary: the continuation keeps the reply
                // slot and the original sequence (so CANCEL still
                // covers it) and goes back on the inbox *front* —
                // no other command of this session can interleave
                // into the middle of the run.
                inner.preempted.fetch_add(1, Ordering::Relaxed);
                if let Some(o) = &inner.obs {
                    o.preemptions.inc();
                }
                slot.inbox.lock().unwrap().q.push_front(Entry {
                    cmd: cont,
                    reply_tx: entry.reply_tx,
                    seq: entry.seq,
                });
                None
            }
        }
    });
    // Requeue while work remains; drain continues past `stop`. The
    // requeue path is exempt from the run-queue cap — a scheduled
    // session must always be able to finish its inbox.
    let mut inbox = slot.inbox.lock().unwrap();
    if inbox.q.is_empty() {
        inbox.scheduled = false;
    } else {
        let class = slot.priority();
        let mut runq = inner.runq.lock().unwrap();
        runq.push(class, slot.clone());
        if let Some(o) = &inner.obs {
            o.runq_depth[class as usize].add(1);
            o.notifies.inc();
        }
        drop(runq);
        drop(inbox);
        inner.cv.notify_one();
    }
    finished
}

/// [`Session::execute_step`] with a panic kept inside the session: the
/// thread (a pool worker, or the one thread every connection depends on)
/// survives, the command is answered `ERR`, and the session is poisoned so
/// nothing touches its half-updated engine again.
fn execute_caught(inner: &PoolInner, slot: &SessionSlot, cmd: Command) -> Exec {
    // The unwind stops inside the guard's scope, so the mutex is never
    // poisoned and `with_session` keeps working.
    let mut session = slot.session.lock().expect("panics are caught under it");
    let step = std::panic::AssertUnwindSafe(|| session.execute_step(cmd));
    let exec = std::panic::catch_unwind(step).unwrap_or_else(|_| {
        session.poison();
        if let Some(o) = &inner.obs {
            o.panics.inc();
        }
        Exec::Done(Reply::Err(POISONED.into()))
    });
    let degraded = session.durability_degraded();
    slot.degraded.store(degraded, Ordering::Relaxed);
    exec
}

#[cfg(test)]
mod tests {
    use super::*;
    use engine::{EngineBuilder, MatcherKind};

    const SRC: &str = "(literalize item n)
                       (p consume (item ^n <n>) --> (remove 1))";

    /// The matcher of session `id`: col for odd ids, vs2 for even ones, so
    /// every test with two sessions schedules both.
    fn kind(id: u64) -> MatcherKind {
        match id % 2 {
            1 => MatcherKind::Col,
            _ => MatcherKind::default(),
        }
    }

    fn slot(id: u64) -> Arc<SessionSlot> {
        let eng = EngineBuilder::from_source(SRC)
            .unwrap()
            .matcher(kind(id))
            .build()
            .unwrap();
        SessionSlot::new(Session::new(id, "t", eng, kind(id), 1000))
    }

    /// A session whose `RUN` spins for thousands of cycles — used to wedge
    /// a worker so queue-overflow paths can be hit deterministically.
    /// `run_slice` 0: slicing off, the wedge must hold.
    fn spinner(id: u64) -> Arc<SessionSlot> {
        let src = "(literalize c n)
                   (p spin (c ^n <n>) --> (modify 1 ^n (compute <n> + 1)))";
        let mut eng = EngineBuilder::from_source(src)
            .unwrap()
            .matcher(kind(id))
            .build()
            .unwrap();
        eng.make_wme("c", &[("n", ops5::Value::Int(0))]).unwrap();
        SessionSlot::new(Session::new(id, "spin", eng, kind(id), 20_000))
    }

    fn submit_ok(pool: &Pool, slot: &Arc<SessionSlot>, cmd: Command) -> mpsc::Receiver<Reply> {
        let (tx, rx) = mpsc::sync_channel(1);
        assert_eq!(
            pool.submit(slot, cmd, ReplyTx::Channel(tx)),
            SubmitOutcome::Accepted
        );
        rx
    }

    #[test]
    fn commands_on_one_session_execute_in_order() {
        let pool = Pool::new(2, 64, 64, None);
        for s in [slot(1), slot(2)] {
            let rxs: Vec<_> = (0..10)
                .map(|i| submit_ok(&pool, &s, Command::Assert(format!("item ^n {i}"))))
                .collect();
            let tags: Vec<u64> = rxs
                .iter()
                .map(|rx| match rx.recv().unwrap() {
                    Reply::Ok(t) => t.parse().unwrap(),
                    other => panic!("{other:?}"),
                })
                .collect();
            let mut sorted = tags.clone();
            sorted.sort_unstable();
            assert_eq!(tags, sorted, "timetags issued in submission order");
            let rx = submit_ok(&pool, &s, Command::Run(100));
            assert!(rx.recv().unwrap().is_ok());
        }
    }

    #[test]
    fn inbox_overflow_reports_overloaded() {
        let pool = Pool::new(1, 2, 64, None);
        let s = slot(1);
        // Wedge the sole worker on long spin runs so the other session's
        // inbox fills without being drained. One-command-per-pop means the
        // worker alternates, but each spin run takes thousands of cycles
        // while our submits are mutex pushes.
        // queue_depth applies to the spinner too: two runs fill its inbox
        // exactly and wedge the worker for tens of thousands of cycles.
        let spin = spinner(2);
        let spin_rxs: Vec<_> = (0..2)
            .map(|_| submit_ok(&pool, &spin, Command::Run(20_000)))
            .collect();
        let mut saw_overloaded = false;
        let mut rxs = Vec::new();
        for i in 0..8 {
            let (tx, rx) = mpsc::sync_channel(1);
            match pool.submit(
                &s,
                Command::Assert(format!("item ^n {i}")),
                ReplyTx::Channel(tx),
            ) {
                SubmitOutcome::Accepted => rxs.push(rx),
                SubmitOutcome::Overloaded => {
                    saw_overloaded = true;
                    break;
                }
                other => panic!("unexpected {other:?}"),
            }
        }
        assert!(
            saw_overloaded,
            "queue_depth=2 must overflow within 8 submits"
        );
        assert!(pool.stats().rejected_overloaded >= 1);
        for rx in spin_rxs {
            let _ = rx.recv();
        }
        for rx in rxs {
            assert!(rx.recv().unwrap().is_ok());
        }
    }

    #[test]
    fn run_queue_cap_reports_busy() {
        // Wedge the sole worker, then contend two fresh sessions for a
        // run queue with capacity one.
        let pool = Pool::new(1, 64, 1, None);
        let spin = spinner(9);
        let spin_rx = submit_ok(&pool, &spin, Command::Run(20_000));
        let a = slot(1);
        let b = slot(2);
        // Wait until the worker has actually picked spin up (while spin
        // still sits on the queue, `a` itself bounces), then `a` takes the
        // only run-queue seat and `b` must bounce.
        let rx_a = loop {
            let (tx, rx) = mpsc::sync_channel(1);
            match pool.submit(&a, Command::Cs, ReplyTx::Channel(tx)) {
                SubmitOutcome::Accepted => break rx,
                SubmitOutcome::Busy => std::thread::yield_now(),
                other => panic!("unexpected {other:?}"),
            }
        };
        let (tx, _rx_b) = mpsc::sync_channel(1);
        assert_eq!(
            pool.submit(&b, Command::Cs, ReplyTx::Channel(tx)),
            SubmitOutcome::Busy
        );
        assert!(pool.stats().rejected_busy >= 1);
        let _ = spin_rx.recv();
        let _ = rx_a.recv();
    }

    #[test]
    fn per_class_caps_are_independent() {
        // One-seat queues: a Normal session filling its class must not
        // shut a High session out.
        let pool = Pool::new(1, 64, 1, None);
        let spin = spinner(9);
        let spin_rx = submit_ok(&pool, &spin, Command::Run(20_000));
        let a = slot(1);
        let rx_a = loop {
            let (tx, rx) = mpsc::sync_channel(1);
            match pool.submit(&a, Command::Cs, ReplyTx::Channel(tx)) {
                SubmitOutcome::Accepted => break rx,
                SubmitOutcome::Busy => std::thread::yield_now(),
                other => panic!("unexpected {other:?}"),
            }
        };
        // Normal class is now full (capacity 1) ...
        let b = slot(2);
        let (tx, _rx_b) = mpsc::sync_channel(1);
        assert_eq!(
            pool.submit(&b, Command::Cs, ReplyTx::Channel(tx)),
            SubmitOutcome::Busy
        );
        // ... but the high class still has its own seat.
        let hi = slot(3);
        hi.set_priority(Priority::High);
        let rx_hi = submit_ok(&pool, &hi, Command::Cs);
        let _ = spin_rx.recv();
        let _ = rx_a.recv();
        assert!(rx_hi.recv().unwrap().is_ok());
    }

    #[test]
    fn shutdown_drains_queued_commands() {
        let pool = Pool::new(2, 64, 64, None);
        let slots: Vec<_> = (0..4).map(slot).collect();
        let rxs: Vec<_> = slots
            .iter()
            .flat_map(|s| {
                (0..8)
                    .map(|i| submit_ok(&pool, s, Command::Assert(format!("item ^n {i}"))))
                    .collect::<Vec<_>>()
            })
            .collect();
        pool.shutdown();
        let (tx, _rx) = mpsc::sync_channel(1);
        assert_eq!(
            pool.submit(&slots[0], Command::Cs, ReplyTx::Channel(tx)),
            SubmitOutcome::ShuttingDown
        );
        // Every queued command completed before the workers exited.
        for rx in rxs {
            assert!(rx.try_recv().unwrap().is_ok());
        }
        assert_eq!(pool.stats().executed, 32);
    }

    #[test]
    fn priority_parses_and_names_roundtrip() {
        for p in Priority::ALL {
            assert_eq!(Priority::from_name(p.name()), Some(p));
            assert_eq!(Priority::from_name(&p.name().to_uppercase()), Some(p));
        }
        assert_eq!(Priority::from_name("urgent"), None);
        assert_eq!(Priority::default(), Priority::Normal);
    }

    /// The weighted-dequeue policy itself, in isolation: high dominates,
    /// but a loaded batch class is served at least once per credit round.
    #[test]
    fn weighted_dequeue_serves_batch_within_one_round() {
        let mut rq = RunQueues::new();
        // Keep every class loaded by re-pushing what we pop.
        for (i, p) in Priority::ALL.iter().enumerate() {
            rq.push(*p, slot(i as u64 + 1));
        }
        let mut counts = [0usize; Priority::COUNT];
        let mut batch_gap = 0usize;
        let mut max_batch_gap = 0usize;
        for _ in 0..220 {
            let (class, s) = rq.pop().unwrap();
            counts[class as usize] += 1;
            if class == Priority::Batch {
                batch_gap = 0;
            } else {
                batch_gap += 1;
                max_batch_gap = max_batch_gap.max(batch_gap);
            }
            rq.push(class, s);
        }
        // Weighted split ~ 16:4:1 over ten+ rounds.
        assert!(counts[0] > counts[1] && counts[1] > counts[2], "{counts:?}");
        assert!(counts[2] >= 10, "batch starved: {counts:?}");
        // One full credit round (16+4) is the worst case between batch pops.
        assert!(max_batch_gap <= CLASS_WEIGHTS[0] as usize + CLASS_WEIGHTS[1] as usize + 1);
    }

    /// Aging promotes a class that would otherwise wait behind refills.
    #[test]
    fn aging_promotes_a_skipped_class() {
        let mut rq = RunQueues::new();
        rq.push(Priority::Batch, slot(1));
        // Burn through rounds of high-only traffic; batch ages while high
        // is served, and must be picked no later than AGE_PROMOTE pops.
        let mut served_batch = None;
        for i in 0..(AGE_PROMOTE as usize + 2) {
            rq.push(Priority::High, slot(100 + i as u64));
            let (class, _) = rq.pop().unwrap();
            if class == Priority::Batch {
                served_batch = Some(i);
                break;
            }
        }
        assert!(
            served_batch.is_some(),
            "batch never served within AGE_PROMOTE+2 pops"
        );
    }

    /// CANCEL fast-fails everything queued at the time of the call but
    /// leaves the session usable for later submissions.
    #[test]
    fn cancel_fast_fails_queued_commands() {
        let pool = Pool::new(1, 64, 64, None);
        let spin = spinner(2);
        let spin_rx = submit_ok(&pool, &spin, Command::Run(20_000));
        let s = slot(1);
        let rxs: Vec<_> = (0..4)
            .map(|i| submit_ok(&pool, &s, Command::Assert(format!("item ^n {i}"))))
            .collect();
        let covered = s.cancel();
        assert!(covered >= 1, "cancel saw {covered} queued entries");
        let _ = spin_rx.recv();
        let mut cancelled = 0u64;
        for rx in rxs {
            match rx.recv().unwrap() {
                Reply::Err(e) if e == "cancelled" => cancelled += 1,
                Reply::Ok(_) => {} // popped before the watermark landed
                other => panic!("{other:?}"),
            }
        }
        assert!(cancelled >= 1, "no queued command was cancelled");
        assert_eq!(pool.stats().cancelled, cancelled);
        // The session survives: post-cancel submissions execute normally.
        let rx = submit_ok(&pool, &s, Command::Assert("item ^n 9".into()));
        assert!(rx.recv().unwrap().is_ok());
    }

    /// Runs `f` with the pool's only worker wedged for exactly as long as
    /// `f` runs, no timing involved: the test holds `on`'s session mutex,
    /// the worker pops `on`'s `RUN` and blocks on that mutex. When `f` is
    /// entered the run queues are empty and `on` is scheduled with an empty
    /// inbox — the state of a session whose command a worker is executing.
    fn with_worker_wedged<R>(pool: &Pool, on: &Arc<SessionSlot>, f: impl FnOnce() -> R) -> R {
        let (r, rx) = on.with_session(|_| {
            let rx = submit_ok(pool, on, Command::Run(1));
            while !pool.inner.runq.lock().unwrap().is_empty() {
                std::thread::yield_now();
            }
            (f(), rx)
        });
        assert!(rx.recv().unwrap().is_ok());
        r
    }

    fn try_inline(pool: &Pool, slot: &Arc<SessionSlot>, cmd: Command) -> Result<Reply, Reply> {
        let (tx, rx) = mpsc::sync_channel(1);
        match pool.run_or_submit(slot, cmd, ReplyTx::Channel(tx)) {
            Submitted::Ran(reply) => Ok(reply),
            Submitted::Queued(SubmitOutcome::Accepted) => Err(rx.recv().unwrap()),
            Submitted::Queued(other) => panic!("unexpected {other:?}"),
        }
    }

    /// Nothing waiting anywhere: the command runs on the calling thread —
    /// even with every worker busy, since no *queued* session is overtaken.
    #[test]
    fn a_bounded_command_on_an_idle_session_runs_on_the_calling_thread() {
        let pool = Pool::new(1, 64, 64, None);
        let s = slot(1);
        let reply = try_inline(&pool, &s, Command::Assert("item ^n 1".into()));
        assert_eq!(reply, Ok(Reply::Ok("1".into())));
        let busy = spinner(2);
        with_worker_wedged(&pool, &busy, || {
            assert!(try_inline(&pool, &s, Command::Stats).is_ok());
        });
        let stats = pool.stats();
        assert_eq!((stats.inline, stats.executed), (2, 3));
    }

    /// A session queued for a worker — of any class — is not overtaken by
    /// a bounded command of another session: with a `high` session waiting
    /// for the wedged worker, the command queues behind it. (Mutant: drop
    /// the run-queue check and it runs at once.)
    #[test]
    fn a_bounded_command_does_not_overtake_a_queued_session() {
        let pool = Pool::new(1, 64, 64, None);
        let (busy, hi, third) = (spinner(1), slot(2), slot(3));
        hi.set_priority(Priority::High);
        let (hi_rx, third_rx) = with_worker_wedged(&pool, &busy, || {
            let hi_rx = submit_ok(&pool, &hi, Command::Cs);
            let (tx, rx) = mpsc::sync_channel(1);
            let outcome = pool.run_or_submit(&third, Command::Stats, ReplyTx::Channel(tx));
            assert!(matches!(
                outcome,
                Submitted::Queued(SubmitOutcome::Accepted)
            ));
            assert!(rx.try_recv().is_err(), "ran ahead of the high session");
            (hi_rx, rx)
        });
        assert!(hi_rx.recv().unwrap().is_ok());
        assert!(third_rx.recv().unwrap().is_ok());
        assert_eq!(pool.stats().inline, 0);
    }

    /// While a worker holds a session's claim, that session's next command
    /// queues behind it instead of running here — and does not block the
    /// submitting thread on the session either. (Mutant: ignore
    /// `scheduled` and the submitter waits for the worker's command.)
    #[test]
    fn a_command_behind_a_running_one_is_never_run_inline() {
        for id in [1, 2] {
            a_command_behind_a_running_one_on(slot(id));
        }
    }

    fn a_command_behind_a_running_one_on(s: Arc<SessionSlot>) {
        let pool = Arc::new(Pool::new(1, 64, 64, None));
        let second = with_worker_wedged(&pool, &s, || {
            let (pool, s) = (pool.clone(), s.clone());
            let (done_tx, done_rx) = mpsc::channel();
            std::thread::spawn(move || {
                let (tx, rx) = mpsc::sync_channel(1);
                let queued = matches!(
                    pool.run_or_submit(&s, Command::Stats, ReplyTx::Channel(tx)),
                    Submitted::Queued(SubmitOutcome::Accepted)
                );
                done_tx.send((queued, rx)).unwrap();
            });
            done_rx
                .recv_timeout(std::time::Duration::from_secs(10))
                .expect("the submitter must not wait for the running command")
        });
        let (queued, rx) = second;
        assert!(queued);
        assert!(rx.recv().unwrap().is_ok());
        assert_eq!(pool.stats().inline, 0);
    }
}
