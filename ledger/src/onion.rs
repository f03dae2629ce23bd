//! The serve-side half of the traced pass: an onion over one recorded
//! command stream.
//!
//! ```text
//! parse_line → Session::execute → + durability → Pool::submit → TCP
//! ```
//!
//! Each shell replays the same [`Conversation`] through one more layer of
//! `serve`'s public API, so a layer's cost is the difference between two
//! adjacent shells (mean µs per command — means, unlike medians, add up
//! across shells). Every shell checks every reply against the recorded
//! digest. The inner shells run on vs2; so does the TCP shell of the traced
//! pass, which keeps the differences like for like.

use crate::affinity::Pinned;
use crate::conv::{self, Conversation};
use crate::inputs::Prog;
use crate::layers::{add, Failures, Ratios};
use serve::pool::ReplyTx;
use serve::{Command, Pool, Reply, Session, SessionSlot, SubmitOutcome};
use std::path::Path;
use std::sync::mpsc;
use std::time::Instant;

/// The server's default checkpoint interval (`ServeConfig::default`).
const CHECKPOINT_EVERY: u64 = 256;

/// Compares a shell's reply with the conversation's record.
fn check(failures: &mut Failures, shell: &str, prog: &Prog, cmd: &conv::Cmd, reply: &Reply) {
    let ok = match cmd.expect {
        Some(want) => conv::reply_digest(reply) == want,
        None => reply.is_ok(),
    };
    if !ok && failures.len() < 8 {
        failures.push(format!(
            "{shell} shell, {}: `{}` reply differs from the reference session",
            prog.name,
            cmd.wire.lines().next().unwrap_or("")
        ));
    }
}

/// Tracks a session's journal from outside: log growth between commands,
/// and a checkpoint each time the log shrinks (snapshot rewritten, log
/// truncated). The records of the command that triggers a checkpoint are
/// appended and truncated inside one `execute`, so the byte count is a
/// lower bound by one command's records per checkpoint.
struct JournalWatch {
    log: std::path::PathBuf,
    snap: std::path::PathBuf,
    last_len: u64,
    bytes: u64,
    checkpoints: u64,
}

impl JournalWatch {
    fn new(dir: &Path, id: u64) -> JournalWatch {
        let mut w = JournalWatch {
            log: Session::log_path(dir, id),
            snap: Session::snap_path(dir, id),
            last_len: 0,
            bytes: 0,
            checkpoints: 0,
        };
        // `attach_durability` has just cut the initial checkpoint.
        w.checkpoint();
        w
    }

    fn len(p: &Path) -> u64 {
        std::fs::metadata(p).map_or(0, |m| m.len())
    }

    fn checkpoint(&mut self) {
        self.checkpoints += 1;
        self.bytes += Self::len(&self.snap);
    }

    fn observe(&mut self) {
        let len = Self::len(&self.log);
        if len < self.last_len {
            self.checkpoint();
            self.bytes += len;
        } else {
            self.bytes += len - self.last_len;
        }
        self.last_len = len;
    }
}

/// The four in-process shells over one conversation. `durable_pool` says
/// whether the workload's server runs with durability, in which case the
/// pool shell does too (so `pool − execute` isolates the hop).
pub fn measure(
    prog: &Prog,
    conv: &Conversation,
    nproc: usize,
    scratch: &Path,
    durable_pool: bool,
    id_base: u64,
) -> Result<(Ratios, Failures), String> {
    let mut r = Ratios::new();
    let mut failures = Failures::new();
    let n = conv.cmds.len() as f64;
    // The shells run where the served measurement they are subtracted from
    // runs (see [`crate::affinity`]).
    let _pin = Pinned::to_last(crate::served::conns(nproc));

    // serve::protocol — parse_line over every recorded line.
    let lines: Vec<&str> = conv.cmds.iter().flat_map(|c| c.wire.lines()).collect();
    let t = Instant::now();
    for l in &lines {
        std::hint::black_box(serve::parse_line(l)).map_err(|e| format!("parse_line: {e}"))?;
    }
    add(
        &mut r,
        "serve.protocol.parse_ns_per_line",
        t.elapsed().as_nanos() as f64,
        lines.len() as f64,
    );
    let commands: Vec<Command> = conv
        .cmds
        .iter()
        .map(|c| conv::parse_wire(&c.wire))
        .collect::<Result<_, _>>()?;

    // serve::registry — what every OPEN pays.
    let t = Instant::now();
    let built = conv::spec(prog)
        .build(
            serve::matcher_kind("vs2")?,
            engine::EngineLimits::default(),
            None,
        )
        .map_err(|e| e.to_string())?;
    add(
        &mut r,
        "serve.registry.build_us",
        t.elapsed().as_secs_f64() * 1e6,
        1.0,
    );
    drop(built);

    // One shell: every command through `exec`, the clock running across
    // `exec` only, every reply checked. Returns the total in µs.
    let mut shell = |name: &str,
                     exec: &mut dyn FnMut(Command) -> Result<Reply, String>,
                     after: &mut dyn FnMut()|
     -> Result<f64, String> {
        let mut total_us = 0.0;
        for (cmd, command) in conv.cmds.iter().zip(&commands) {
            let command = command.clone();
            let t = Instant::now();
            let reply = exec(command)?;
            total_us += t.elapsed().as_secs_f64() * 1e6;
            after();
            check(&mut failures, name, prog, cmd, &reply);
        }
        Ok(total_us)
    };

    // serve::session — Session::execute, no sockets, no pool, no journal.
    let mut session = conv::open_session(prog, "vs2", id_base)?;
    let plain_us = shell("execute", &mut |c| Ok(session.execute(c)), &mut || {})?;
    let fired = conv::fired_digest(session.engine());
    drop(session);

    // + durability: the same replay with the journal attached.
    let dir = scratch.join("onion-durable");
    let mut session = conv::open_session(prog, "vs2", id_base + 1)?;
    session
        .attach_durability(&dir, CHECKPOINT_EVERY)
        .map_err(|e| format!("attach_durability: {e}"))?;
    let mut watch = JournalWatch::new(&dir, id_base + 1);
    let durable_us = shell("durable", &mut |c| Ok(session.execute(c)), &mut || {
        watch.observe()
    })?;
    let degraded = session.durability_degraded();
    drop(session);

    // serve::pool — Pool::submit + ReplyTx, one command in flight.
    let mut session = conv::open_session(prog, "vs2", id_base + 2)?;
    if durable_pool {
        session
            .attach_durability(&dir, CHECKPOINT_EVERY)
            .map_err(|e| format!("attach_durability: {e}"))?;
    }
    let pool = Pool::new(crate::served::conns(nproc), 16, 1024, None);
    let slot = SessionSlot::new(session);
    let pool_us = shell(
        "pool",
        &mut |c| {
            let (tx, rx) = mpsc::sync_channel(1);
            match pool.submit(&slot, c, ReplyTx::Channel(tx)) {
                SubmitOutcome::Accepted => {
                    rx.recv().map_err(|_| "pool dropped a reply".to_string())
                }
                other => Ok(Reply::Err(format!("{other:?}"))),
            }
        },
        &mut || {},
    )?;
    if fired != conv.fired_digest {
        failures.push(format!(
            "{}: execute shell fired a different log",
            prog.name
        ));
    }
    if degraded {
        failures.push(format!("{}: durable shell ended degraded", prog.name));
    }
    add(&mut r, "shell.execute_us", plain_us, n);
    add(&mut r, "shell.durable_us", durable_us, n);
    add(
        &mut r,
        "serve.session.journal_bytes_per_cmd",
        watch.bytes as f64,
        n,
    );
    add(
        &mut r,
        "serve.session.checkpoints",
        watch.checkpoints as f64,
        0.0,
    );
    let stats = pool.stats();
    pool.shutdown();
    add(&mut r, "shell.pool_us", pool_us, n);
    // The base the hop is measured against: the durable replay when the
    // pool's session journals, the plain one otherwise.
    add(
        &mut r,
        "shell.pool_base_us",
        if durable_pool { durable_us } else { plain_us },
        n,
    );
    add(
        &mut r,
        "serve.pool.rejected_total",
        (stats.rejected_busy + stats.rejected_overloaded) as f64,
        0.0,
    );
    Ok((r, failures))
}
