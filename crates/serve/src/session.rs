//! One session: a protocol command executor wrapped around an [`Engine`].
//!
//! Ingestion is *staged*: `ASSERT`/`RETRACT` enter working memory
//! immediately (timetags are handed back synchronously) but the matcher
//! only sees them when a `RUN` flushes the session's pending changes as a
//! single [`ops5::ChangeBatch`] — the serve layer's batched-ingestion
//! contract. `RUN 0` is a match-only settle; `RUN n` is clamped to the
//! server's per-command cycle limit so one session cannot monopolize a
//! worker.

use crate::protocol::Reply;
use engine::{ChangeLog, Engine, EngineBuilder, LogRecord, MatcherKind, Snapshot, StopReason};
use ops5::wire;
use std::fs::{self, File, OpenOptions};
use std::io::{Seek as _, SeekFrom, Write as _};
use std::path::{Path, PathBuf};
use std::sync::Arc;

/// One staged change inside a `BATCH ... END` block. `line` is the 1-based
/// position of the item within the batch body (counting every line sent
/// after `BATCH`, blank ones included), so error replies point back at the
/// exact wire line the client produced.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum BatchItem {
    Assert { line: usize, body: String },
    Retract { line: usize, tag: u64 },
}

/// A queued session command (the post-parse, post-framing form of
/// [`crate::protocol::Line`]: batches are assembled, session-control verbs
/// are resolved by the connection layer).
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum Command {
    Assert(String),
    Retract(u64),
    Batch(Vec<BatchItem>),
    Run(u64),
    /// Internal continuation of a sliced `RUN` — never parsed off the
    /// wire. `remaining` cycles are still owed of the clamped request,
    /// `done` have already executed in earlier slices, and `requested` is
    /// the client's original cycle count (for the `clamped=` reply field).
    RunSlice {
        remaining: u64,
        done: u64,
        requested: u64,
    },
    Cs,
    Wm(Option<String>),
    Stats,
    Fired,
    /// Serialize the session's durable state (snapshot text, multi-line).
    Snapshot,
    /// Rebuild the engine from a live snapshot, optionally on another
    /// matcher (`None` keeps the current one).
    Migrate(Option<String>),
    Close,
}

impl Command {
    /// Stable label for per-command latency metrics.
    pub fn label(&self) -> &'static str {
        match self {
            Command::Assert(_) => "assert",
            Command::Retract(_) => "retract",
            Command::Batch(_) => "batch",
            Command::Run(_) | Command::RunSlice { .. } => "run",
            Command::Cs => "cs",
            Command::Wm(_) => "wm",
            Command::Stats => "stats",
            Command::Fired => "fired",
            Command::Snapshot => "snapshot",
            Command::Migrate(_) => "migrate",
            Command::Close => "close",
        }
    }

    /// True for the staging writes: their work is bounded by the bytes of
    /// their own request, they answer in one line, and they call into no
    /// matcher (the matcher sees nothing until `RUN`). Such a command may
    /// execute on the thread that framed it (see [`crate::pool`]).
    /// Everything else always goes to a worker, so a stall of the
    /// submitting thread never grows with a program's cycles or a
    /// session's size: what runs the matcher, rebuilds the engine or ends
    /// the session, and the reads — `WM?` and `FIRED?` answer with the
    /// whole working memory and with every cycle the session ever ran,
    /// `STATS?` reads the matcher's counters.
    pub fn is_bounded(&self) -> bool {
        match self {
            Command::Assert(_) | Command::Retract(_) | Command::Batch(_) => true,
            Command::Run(_)
            | Command::RunSlice { .. }
            | Command::Cs
            | Command::Wm(_)
            | Command::Stats
            | Command::Fired
            | Command::Snapshot
            | Command::Migrate(_)
            | Command::Close => false,
        }
    }
}

/// The outcome of one execution step. Most commands finish in one step; a
/// sliced `RUN` yields a continuation at each slice boundary so the pool
/// worker can requeue the session between slices (deadline preemption).
#[derive(Debug)]
pub enum Exec {
    /// The command finished; send the reply.
    Done(Reply),
    /// Slice boundary: re-enqueue this continuation at the inbox front
    /// (same reply slot, same sequence) and give the worker back.
    Yield(Command),
}

/// A live session: an engine plus its protocol identity.
pub struct Session {
    pub id: u64,
    /// Program name the session was opened on.
    pub program: String,
    engine: Engine,
    /// Matcher the engine was built with — `MIGRATE` without an argument
    /// rebuilds on the same kind, keeping its configuration (bucket counts,
    /// psm process counts) rather than re-deriving it from the name.
    kind: MatcherKind,
    max_cycles_per_run: u64,
    /// Deadline preemption: nonzero means a `RUN` executes in sub-runs of
    /// at most this many cycles, yielding between slices (0 = off).
    run_slice: u64,
    closed: bool,
    /// A command panicked part-way through: the engine is in no known state
    /// and is never touched again. Everything answers `ERR session
    /// poisoned` except `CLOSE`, which still releases the session.
    poisoned: bool,
    durability: Option<Durability>,
    journal_counters: Option<JournalCounters>,
}

/// The syscalls a session's journal makes, counted into the server's
/// registry (`journal_*_total` on `/metrics`): `write`s of the log, every
/// `fsync` a checkpoint issues (snapshot file and directory), and under
/// `fstat` every time an append had to ask the kernel for the log's length
/// — zero unless a rollback itself failed.
#[derive(Clone)]
pub(crate) struct JournalCounters {
    fstat: Arc<obs::Counter>,
    write: Arc<obs::Counter>,
    fsync: Arc<obs::Counter>,
}

impl JournalCounters {
    pub(crate) fn new(reg: &Arc<obs::Registry>) -> JournalCounters {
        JournalCounters {
            fstat: reg.counter("journal_fstat_total", Vec::new()),
            write: reg.counter("journal_write_total", Vec::new()),
            fsync: reg.counter("journal_fsync_total", Vec::new()),
        }
    }
}

/// Per-session durable state on disk: a checkpoint snapshot plus an
/// append-only change/firing log of everything since. A command's records
/// are appended with one `write` before its reply is produced (or parked in
/// `pending` and the session flagged degraded), so a killed process loses at
/// most the command that was in flight. Only a checkpoint `fsync`s.
struct Durability {
    dir: PathBuf,
    /// Firings between checkpoints; reaching it rewrites the snapshot and
    /// truncates the log.
    checkpoint_every: u64,
    /// Append-mode handle (so a failed write can be rolled back with
    /// `set_len` and the retry still lands at the true end of file).
    log: File,
    /// Length of the log file: where the next append lands and what a
    /// failed one is rolled back to. Read when the handle is opened on
    /// whatever a previous incarnation left, zeroed where a checkpoint
    /// truncates, advanced by every append; never asked of the kernel per
    /// command.
    end: u64,
    /// The serialized records of one append, reused from command to
    /// command.
    buf: String,
    fires_since: u64,
    /// Journal records drained from the engine but not yet durably on
    /// disk. A failed log write parks them here instead of losing them;
    /// the next successful sync (or checkpoint) covers them.
    pending: Vec<LogRecord>,
    /// The last log write failed; surfaced in `STATS?` as
    /// `durability=degraded`. Cleared by the next successful sync.
    degraded: bool,
}

/// What a poisoned session answers, and what the command that poisoned it
/// is told.
pub(crate) const POISONED: &str = "session poisoned: a command panicked; CLOSE it";

/// Capacity the journal's serialization buffer keeps between appends.
const JOURNAL_BUF_KEEP: usize = 4096;

fn reason_str(r: StopReason) -> &'static str {
    match r {
        StopReason::Halt => "halt",
        StopReason::Quiescent => "quiescent",
        StopReason::CycleLimit => "limit",
        StopReason::Budget => "budget",
    }
}

impl Session {
    pub fn new(
        id: u64,
        program: impl Into<String>,
        engine: Engine,
        kind: MatcherKind,
        max_cycles_per_run: u64,
    ) -> Session {
        Session {
            id,
            program: program.into(),
            engine,
            kind,
            max_cycles_per_run: max_cycles_per_run.max(1),
            run_slice: 0,
            closed: false,
            poisoned: false,
            durability: None,
            journal_counters: None,
        }
    }

    /// Counts this session's journal syscalls into `counters`.
    pub(crate) fn count_journal(&mut self, counters: JournalCounters) {
        self.journal_counters = Some(counters);
    }

    /// Sets the preemption slice: `RUN` executes in sub-runs of at most
    /// this many cycles, yielding between them (0 disables slicing).
    pub fn set_run_slice(&mut self, cycles: u64) {
        self.run_slice = cycles;
    }

    /// True when the last durability write failed and records are parked
    /// in the pending buffer (`STATS?` reports `durability=degraded`).
    pub fn durability_degraded(&self) -> bool {
        self.durability.as_ref().is_some_and(|d| d.degraded)
    }

    /// Builds a session from snapshot text plus an optional change-log tail.
    /// `engine` must be freshly built (no startup forms loaded). Returns the
    /// session and the number of log records replayed.
    pub fn restore(
        id: u64,
        program: impl Into<String>,
        mut engine: Engine,
        kind: MatcherKind,
        max_cycles_per_run: u64,
        snap_text: &str,
        log_text: &str,
    ) -> Result<(Session, usize), String> {
        let snap = Snapshot::parse(snap_text).map_err(|e| e.to_string())?;
        engine.restore(&snap).map_err(|e| e.to_string())?;
        let log = ChangeLog::parse(log_text).map_err(|e| e.to_string())?;
        log.replay(&mut engine).map_err(|e| e.to_string())?;
        Ok((
            Session::new(id, program, engine, kind, max_cycles_per_run),
            log.len(),
        ))
    }

    /// Snapshot file path for a session id under a durability directory.
    pub fn snap_path(dir: &Path, id: u64) -> PathBuf {
        dir.join(format!("session-{id}.snap"))
    }

    /// Change-log file path for a session id under a durability directory.
    pub fn log_path(dir: &Path, id: u64) -> PathBuf {
        dir.join(format!("session-{id}.log"))
    }

    /// Turns on disk durability: enables the engine's change journal, writes
    /// an initial checkpoint snapshot, and opens the append-only log.
    pub fn attach_durability(&mut self, dir: &Path, checkpoint_every: u64) -> std::io::Result<()> {
        fs::create_dir_all(dir)?;
        self.engine.enable_journal();
        // Append mode, no truncation: an existing log from a previous
        // incarnation stays valid until the fresh checkpoint below has
        // durably replaced it (`checkpoint` truncates, and only after the
        // snapshot rename is on disk).
        let mut log = OpenOptions::new()
            .create(true)
            .append(true)
            .open(Self::log_path(dir, self.id))?;
        // If the checkpoint below fails, the session keeps appending to the
        // records already here.
        let end = log.seek(SeekFrom::End(0))?;
        self.durability = Some(Durability {
            dir: dir.to_path_buf(),
            checkpoint_every: checkpoint_every.max(1),
            log,
            end,
            buf: String::new(),
            fires_since: 0,
            pending: Vec::new(),
            degraded: false,
        });
        self.checkpoint()
    }

    /// Rewrites the snapshot (write-temp + fsync + rename + directory
    /// fsync) and only then truncates the log — the snapshot supersedes
    /// every record written (or pending) so far, but must be durable
    /// before the old lineage is dropped.
    fn checkpoint(&mut self) -> std::io::Result<()> {
        let text = self.engine.snapshot().to_text();
        let Some(d) = self.durability.as_mut() else {
            return Ok(());
        };
        let fsynced = || {
            if let Some(c) = &self.journal_counters {
                c.fsync.inc();
            }
        };
        let snap = Self::snap_path(&d.dir, self.id);
        let tmp = snap.with_extension("snap.tmp");
        {
            let mut f = File::create(&tmp)?;
            f.write_all(text.as_bytes())?;
            // The rename below only orders the *name*; without this a
            // crash can leave a named-but-truncated snapshot.
            fsynced();
            f.sync_all()?;
        }
        fs::rename(&tmp, &snap)?;
        // Make the rename itself durable before the log is dropped.
        if let Ok(dirf) = File::open(&d.dir) {
            fsynced();
            let _ = dirf.sync_all();
        }
        // Only now is the old lineage superseded: truncate the log (still
        // append-mode — see `sync_durability`'s rollback) and drop any
        // pending records, which the snapshot already contains.
        let log = OpenOptions::new()
            .create(true)
            .append(true)
            .open(Self::log_path(&d.dir, self.id))?;
        log.set_len(0)?;
        d.log = log;
        d.end = 0;
        d.fires_since = 0;
        d.pending.clear();
        self.engine.clear_journal();
        Ok(())
    }

    /// Appends the journal records accumulated by the last command — plus
    /// anything a previous failed write left pending — to the log file,
    /// checkpointing once enough firings pile up. A write failure loses
    /// nothing: the records stay parked in the pending buffer, any partial
    /// append is rolled back, and the next successful sync (or checkpoint)
    /// covers them.
    fn sync_durability(&mut self) -> std::io::Result<()> {
        if self.durability.is_none() {
            return Ok(());
        }
        let recs = self.engine.drain_journal();
        let d = self.durability.as_mut().expect("checked above");
        d.pending.extend(recs);
        if d.pending.is_empty() {
            return Ok(());
        }
        d.buf.clear();
        // One large `BATCH` must not pin its megabyte for the session's life.
        d.buf.shrink_to(JOURNAL_BUF_KEEP);
        for r in &d.pending {
            r.write_line(&mut d.buf);
        }
        if let Some(c) = &self.journal_counters {
            c.write.inc();
        }
        // The handle is append-mode, so `d.end` is where this write lands;
        // rolling a failure back with `set_len` leaves the next attempt
        // appending at the restored end — no partial lines, no holes.
        match d.log.write_all(d.buf.as_bytes()) {
            Ok(()) => {
                d.end += d.buf.len() as u64;
                let fires = d
                    .pending
                    .iter()
                    .filter(|r| matches!(r, LogRecord::Fire { .. }))
                    .count() as u64;
                d.pending.clear();
                d.degraded = false;
                d.fires_since += fires;
                if d.fires_since >= d.checkpoint_every {
                    self.checkpoint()?;
                }
                Ok(())
            }
            Err(e) => {
                if d.log.set_len(d.end).is_err() {
                    // The tail is unknown now; the rollback after this one
                    // must not cut into acknowledged records.
                    if let Some(c) = &self.journal_counters {
                        c.fstat.inc();
                    }
                    if let Ok(len) = d.log.seek(SeekFrom::End(0)) {
                        d.end = len;
                    }
                }
                Err(e)
            }
        }
    }

    /// Snapshots the engine and rebuilds it from scratch — same program,
    /// possibly a different matcher — then restores the snapshot into the
    /// fresh engine. This is the live-migration primitive: the snapshot is
    /// matcher-neutral, so the rebuilt engine re-derives the identical
    /// conflict set under whichever match algorithm it now runs.
    fn migrate(&mut self, target: Option<&str>) -> Result<String, String> {
        let kind = match target {
            Some(name) => crate::registry::matcher_kind(name)?,
            None => self.kind.clone(),
        };
        let snap = self.engine.snapshot();
        let mut next = EngineBuilder::from_compiled(self.engine.compiled().clone())
            .matcher(kind.clone())
            .limits(self.engine.limits)
            .build()
            .map_err(|e| e.to_string())?;
        // The successor continues this session's tables, not the
        // parse-time ones: the gensym counter and every symbol interned
        // since `OPEN` carry over (both only ever extend the compiled
        // program's table, so ids still agree with the shared network).
        next.prog = self.engine.prog.clone();
        next.restore(&snap).map_err(|e| e.to_string())?;
        if self.engine.journal().is_some() {
            next.enable_journal();
        }
        self.engine = next;
        self.kind = kind;
        // The fresh engine's journal starts empty, so the on-disk log no
        // longer continues the old lineage — cut a new checkpoint.
        if self.durability.is_some() {
            self.checkpoint()
                .map_err(|e| format!("post-migration checkpoint: {e}"))?;
        }
        Ok(format!(
            "matcher={} wm={} cs={} cycles={}",
            self.engine.matcher().name(),
            self.engine.wm().len(),
            self.engine.conflict_set().len(),
            self.engine.cycles()
        ))
    }

    pub fn is_closed(&self) -> bool {
        self.closed
    }

    /// Marks the session after a command panicked inside it (the pool
    /// catches the unwind): see the `poisoned` field.
    pub(crate) fn poison(&mut self) {
        self.poisoned = true;
    }

    pub(crate) fn is_poisoned(&self) -> bool {
        self.poisoned
    }

    /// Fault injection: replaces the journal's log handle (`/dev/full`
    /// makes every append fail) and returns the old one.
    #[cfg(test)]
    pub(crate) fn swap_log(&mut self, log: File) -> File {
        let d = self.durability.as_mut().expect("a durable session");
        std::mem::replace(&mut d.log, log)
    }

    /// Direct engine access for differential checks in tests and the load
    /// harness.
    pub fn engine(&self) -> &Engine {
        &self.engine
    }

    fn stage_assert(&mut self, body: &str) -> Result<u64, String> {
        let prog = &mut self.engine.prog;
        let (class, fields) = wire::parse_wme_text(body, &mut prog.symbols, &prog.classes)
            .map_err(|e| e.to_string())?;
        self.engine
            .stage(class, fields)
            .map(|w| w.timetag)
            .map_err(|e| e.to_string())
    }

    /// Executes one command to completion, looping over slice boundaries.
    /// The serial driver for tests and differential checks; the pool
    /// worker calls [`execute_step`](Self::execute_step) instead so it can
    /// requeue the session between slices.
    pub fn execute(&mut self, cmd: Command) -> Reply {
        let mut cmd = cmd;
        loop {
            match self.execute_step(cmd) {
                Exec::Done(reply) => return reply,
                Exec::Yield(next) => cmd = next,
            }
        }
    }

    /// Executes one step: a whole command, or one slice of a sliced `RUN`.
    /// Every slice is a durable point — the step's journal records hit
    /// disk (or the pending buffer) before the step returns. A durability
    /// write failure never clobbers the reply: the session is flagged
    /// degraded (`STATS?` reports `durability=degraded`) and the records
    /// stay buffered until a later sync succeeds.
    pub fn execute_step(&mut self, cmd: Command) -> Exec {
        let exec = self.dispatch_exec(cmd);
        // A poisoned engine's journal may hold half a command: the log
        // stays at the last command that completed.
        if !self.poisoned && self.sync_durability().is_err() {
            if let Some(d) = self.durability.as_mut() {
                d.degraded = true;
            }
        }
        exec
    }

    fn dispatch_exec(&mut self, cmd: Command) -> Exec {
        if self.closed {
            return Exec::Done(Reply::Err("session is closed".into()));
        }
        if self.poisoned {
            return Exec::Done(match cmd {
                Command::Close => {
                    self.closed = true;
                    Reply::Ok("closed poisoned".into())
                }
                _ => Reply::Err(POISONED.into()),
            });
        }
        match cmd {
            Command::Run(n) => {
                if n == 0 {
                    self.engine.settle();
                    return Exec::Done(Reply::Ok(format!(
                        "cycles=0 reason=settled total={} cs={}",
                        self.engine.cycles(),
                        self.engine.conflict_set().len()
                    )));
                }
                let clamp = n.min(self.max_cycles_per_run);
                self.run_step(clamp, 0, n)
            }
            Command::RunSlice {
                remaining,
                done,
                requested,
            } => self.run_step(remaining, done, requested),
            other => Exec::Done(self.dispatch(other)),
        }
    }

    /// One slice of a (possibly sliced) `RUN`: `remaining` cycles are
    /// still owed of the clamped request, `done` already ran in earlier
    /// slices, `requested` is the client's original cycle count. The final
    /// reply is byte-identical to an unsliced run — cycle counts
    /// accumulate across slices and `settle` only runs at the end.
    fn run_step(&mut self, remaining: u64, done: u64, requested: u64) -> Exec {
        let slice = if self.run_slice == 0 {
            remaining
        } else {
            remaining.min(self.run_slice)
        };
        match self.engine.run(slice) {
            Ok(res) => {
                let total_done = done + res.cycles;
                let left = remaining.saturating_sub(res.cycles);
                if matches!(res.reason, StopReason::CycleLimit) && left > 0 {
                    // Only the slice budget ran out; the command still has
                    // cycles owed. Yield so other sessions get the worker.
                    return Exec::Yield(Command::RunSlice {
                        remaining: left,
                        done: total_done,
                        requested,
                    });
                }
                // Leave the conflict set current even when the run
                // stopped on a limit mid-stream.
                self.engine.settle();
                let mut msg = format!(
                    "cycles={} reason={} total={} cs={}",
                    total_done,
                    reason_str(res.reason),
                    self.engine.cycles(),
                    self.engine.conflict_set().len()
                );
                if matches!(res.reason, StopReason::CycleLimit)
                    && requested > self.max_cycles_per_run
                {
                    // Server policy, not program behavior, cut this run
                    // short — `reason=limit` alone cannot tell the two
                    // apart.
                    msg.push_str(&format!(" clamped={requested}"));
                }
                Exec::Done(Reply::Ok(msg))
            }
            Err(e) => Exec::Done(Reply::Err(e.to_string())),
        }
    }

    fn dispatch(&mut self, cmd: Command) -> Reply {
        if self.closed {
            return Reply::Err("session is closed".into());
        }
        match cmd {
            Command::Assert(body) => match self.stage_assert(&body) {
                Ok(tag) => Reply::Ok(tag.to_string()),
                Err(e) => Reply::Err(e),
            },
            Command::Retract(tag) => match self.engine.stage_retract(tag) {
                Ok(()) => Reply::Ok(tag.to_string()),
                Err(e) => Reply::Err(e.to_string()),
            },
            Command::Batch(items) => {
                let total = items.len();
                let mut tags = Vec::new();
                for item in items {
                    let (line, res) = match item {
                        BatchItem::Assert { line, body } => (line, self.stage_assert(&body)),
                        BatchItem::Retract { line, tag } => (
                            line,
                            self.engine
                                .stage_retract(tag)
                                .map(|()| tag)
                                .map_err(|e| e.to_string()),
                        ),
                    };
                    match res {
                        Ok(tag) => tags.push(tag.to_string()),
                        Err(e) => return Reply::Err(format!("BATCH line {line}: {e}")),
                    }
                }
                Reply::Ok(format!("{total} {}", tags.join(" ")))
            }
            Command::Run(_) | Command::RunSlice { .. } => {
                unreachable!("RUN is handled by dispatch_exec")
            }
            Command::Cs => {
                self.engine.settle();
                let keys = self.engine.conflict_set().sorted_keys();
                let lines: Vec<String> = keys
                    .iter()
                    .map(|(p, tags)| {
                        let tag_s: Vec<String> = tags.iter().map(|t| t.to_string()).collect();
                        format!("{} {}", self.engine.prog.prod_name(*p), tag_s.join(" "))
                    })
                    .collect();
                Reply::Multi {
                    head: format!("CS {}", lines.len()),
                    lines,
                }
            }
            Command::Wm(class) => {
                let class_id = match class {
                    None => None,
                    // Check the class *table*, not just the symbol table: any
                    // interned symbol (attribute names, symbolic values)
                    // resolves to an id, and filtering on one would silently
                    // answer `WM 0` for a class that does not exist.
                    Some(name) => match self
                        .engine
                        .prog
                        .symbols
                        .get(&name)
                        .filter(|id| self.engine.prog.classes.info(*id).is_some())
                    {
                        Some(id) => Some(id),
                        None => return Reply::Err(format!("unknown class `{name}`")),
                    },
                };
                let mut wmes: Vec<_> = self
                    .engine
                    .wm()
                    .iter()
                    .filter(|w| class_id.is_none_or(|c| w.class == c))
                    .cloned()
                    .collect();
                wmes.sort_by_key(|w| w.timetag);
                let prog = &self.engine.prog;
                let lines: Vec<String> = wmes
                    .iter()
                    .map(|w| {
                        format!(
                            "{} {}",
                            w.timetag,
                            wire::print_wme(w, &prog.symbols, &prog.classes)
                        )
                    })
                    .collect();
                Reply::Multi {
                    head: format!("WM {}", lines.len()),
                    lines,
                }
            }
            Command::Stats => {
                let ms = self.engine.match_stats();
                let durability = match &self.durability {
                    None => "",
                    Some(d) if d.degraded => " durability=degraded",
                    Some(_) => " durability=ok",
                };
                Reply::Ok(format!(
                    "program={} matcher={} cycles={} wm={} cs={} staged={} wme-changes={} activations={}{durability}",
                    self.program,
                    self.engine.matcher().name(),
                    self.engine.cycles(),
                    self.engine.wm().len(),
                    self.engine.conflict_set().len(),
                    self.engine.staged_len(),
                    ms.wme_changes,
                    ms.activations
                ))
            }
            Command::Fired => {
                let lines: Vec<String> = self
                    .engine
                    .fired_log()
                    .iter()
                    .map(|(p, tags)| {
                        let tag_s: Vec<String> = tags.iter().map(|t| t.to_string()).collect();
                        format!("{} {}", self.engine.prog.prod_name(*p), tag_s.join(" "))
                    })
                    .collect();
                Reply::Multi {
                    head: format!("FIRED {}", lines.len()),
                    lines,
                }
            }
            Command::Snapshot => {
                let text = self.engine.snapshot().to_text();
                let lines: Vec<String> = text.lines().map(str::to_string).collect();
                Reply::Multi {
                    head: format!("SNAPSHOT {}", lines.len()),
                    lines,
                }
            }
            Command::Migrate(target) => match self.migrate(target.as_deref()) {
                Ok(msg) => Reply::Ok(msg),
                Err(e) => Reply::Err(e),
            },
            Command::Close => {
                self.closed = true;
                Reply::Ok(format!("closed cycles={}", self.engine.cycles()))
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use engine::{EngineBuilder, EngineLimits, MatcherKind};

    const SRC: &str = "(literalize item n)
                       (literalize sum total)
                       (p add (item ^n <n>) (sum ^total <t>)
                          --> (remove 1) (modify 2 ^total (compute <t> + <n>)))
                       (p report (sum ^total <t>) - (item)
                          --> (write sum is <t> (crlf)) (halt))";

    fn session(max_per_run: u64) -> Session {
        let mut eng = EngineBuilder::from_source(SRC)
            .unwrap()
            .matcher(MatcherKind::default())
            .build()
            .unwrap();
        eng.make_wme("sum", &[("total", ops5::Value::Int(0))])
            .unwrap();
        Session::new(1, "adder", eng, MatcherKind::default(), max_per_run)
    }

    #[test]
    fn assert_run_cs_roundtrip() {
        let mut s = session(1000);
        let r = s.execute(Command::Assert("item ^n 3".into()));
        assert!(matches!(r, Reply::Ok(_)), "{r:?}");
        let r = s.execute(Command::Assert("item ^n 4".into()));
        assert!(r.is_ok());
        // Staged, not yet matched: CS? settles and sees the pending adds.
        match s.execute(Command::Cs) {
            Reply::Multi { head, lines } => {
                assert_eq!(head, "CS 2");
                assert!(lines.iter().all(|l| l.starts_with("add ")), "{lines:?}");
            }
            other => panic!("{other:?}"),
        }
        match s.execute(Command::Run(100)) {
            Reply::Ok(msg) => {
                assert!(msg.contains("reason=halt"), "{msg}");
                assert!(msg.contains("total=3"), "{msg}");
            }
            other => panic!("{other:?}"),
        }
        match s.execute(Command::Wm(Some("sum".into()))) {
            Reply::Multi { head, lines } => {
                assert_eq!(head, "WM 1");
                assert!(lines[0].contains("^total 7"), "{lines:?}");
            }
            other => panic!("{other:?}"),
        }
    }

    #[test]
    fn batch_replies_with_count_and_tags() {
        let mut s = session(1000);
        let r = s.execute(Command::Batch(vec![
            BatchItem::Assert {
                line: 1,
                body: "item ^n 1".into(),
            },
            BatchItem::Assert {
                line: 2,
                body: "item ^n 2".into(),
            },
        ]));
        match r {
            Reply::Ok(msg) => assert!(msg.starts_with("2 "), "{msg}"),
            other => panic!("{other:?}"),
        }
        // A retract of a staged element annihilates inside the batch.
        let tag: u64 = match s.execute(Command::Assert("item ^n 9".into())) {
            Reply::Ok(t) => t.parse().unwrap(),
            other => panic!("{other:?}"),
        };
        assert!(s.execute(Command::Retract(tag)).is_ok());
        match s.execute(Command::Stats) {
            Reply::Ok(msg) => assert!(msg.contains("staged=2"), "{msg}"),
            other => panic!("{other:?}"),
        }
    }

    #[test]
    fn batch_errors_name_the_offending_line() {
        let mut s = session(1000);
        let r = s.execute(Command::Batch(vec![
            BatchItem::Assert {
                line: 1,
                body: "item ^n 1".into(),
            },
            BatchItem::Assert {
                line: 3,
                body: "item ^bogus 2".into(),
            },
        ]));
        match r {
            Reply::Err(msg) => assert!(msg.starts_with("BATCH line 3:"), "{msg}"),
            other => panic!("{other:?}"),
        }
        let r = s.execute(Command::Batch(vec![BatchItem::Retract {
            line: 2,
            tag: 999,
        }]));
        match r {
            Reply::Err(msg) => assert!(msg.starts_with("BATCH line 2:"), "{msg}"),
            other => panic!("{other:?}"),
        }
    }

    #[test]
    fn wm_query_rejects_non_class_symbols() {
        let mut s = session(1000);
        s.execute(Command::Assert("item ^n 3".into()));
        // A name that was never interned.
        match s.execute(Command::Wm(Some("nosuch".into()))) {
            Reply::Err(msg) => assert!(msg.contains("unknown class `nosuch`"), "{msg}"),
            other => panic!("{other:?}"),
        }
        // An interned symbol that is an attribute, not a class — the
        // regression case that used to come back as an empty `WM 0`.
        match s.execute(Command::Wm(Some("n".into()))) {
            Reply::Err(msg) => assert!(msg.contains("unknown class `n`"), "{msg}"),
            other => panic!("{other:?}"),
        }
        // Real classes still answer.
        match s.execute(Command::Wm(Some("item".into()))) {
            Reply::Multi { head, .. } => assert_eq!(head, "WM 1"),
            other => panic!("{other:?}"),
        }
    }

    #[test]
    fn run_zero_settles_without_firing() {
        let mut s = session(1000);
        s.execute(Command::Assert("item ^n 5".into()));
        match s.execute(Command::Run(0)) {
            Reply::Ok(msg) => {
                assert!(msg.contains("cycles=0"), "{msg}");
                assert!(msg.contains("reason=settled"), "{msg}");
                assert!(msg.contains("cs=1"), "{msg}");
            }
            other => panic!("{other:?}"),
        }
    }

    #[test]
    fn run_is_clamped_to_per_command_limit() {
        let mut s = session(1);
        s.execute(Command::Assert("item ^n 1".into()));
        s.execute(Command::Assert("item ^n 2".into()));
        match s.execute(Command::Run(1_000_000)) {
            Reply::Ok(msg) => {
                assert!(msg.contains("cycles=1"), "{msg}");
                assert!(msg.contains("reason=limit"), "{msg}");
            }
            other => panic!("{other:?}"),
        }
    }

    #[test]
    fn strict_parse_errors_surface_as_err() {
        let mut s = session(1000);
        assert!(matches!(
            s.execute(Command::Assert("nosuch ^x 1".into())),
            Reply::Err(_)
        ));
        assert!(matches!(
            s.execute(Command::Assert("item ^bogus 1".into())),
            Reply::Err(_)
        ));
        assert!(matches!(s.execute(Command::Retract(999)), Reply::Err(_)));
    }

    #[test]
    fn wm_limit_produces_err_not_panic() {
        for kind in [MatcherKind::default(), MatcherKind::Col] {
            let mut eng = EngineBuilder::from_source(SRC)
                .unwrap()
                .matcher(kind.clone())
                .limits(EngineLimits {
                    max_wm: Some(2),
                    max_cycles: None,
                })
                .build()
                .unwrap();
            eng.make_wme("sum", &[("total", ops5::Value::Int(0))])
                .unwrap();
            let mut s = Session::new(1, "adder", eng, kind, 1000);
            assert!(s.execute(Command::Assert("item ^n 1".into())).is_ok());
            assert!(matches!(
                s.execute(Command::Assert("item ^n 2".into())),
                Reply::Err(_)
            ));
        }
    }

    #[test]
    fn closed_session_rejects_everything() {
        let mut s = session(1000);
        assert!(s.execute(Command::Close).is_ok());
        assert!(s.is_closed());
        assert!(matches!(s.execute(Command::Run(1)), Reply::Err(_)));
    }
}
