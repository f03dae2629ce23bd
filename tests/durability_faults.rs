//! Durability fault injection, driving `serve::Session` directly so the
//! failure window can be placed precisely. The container runs as root
//! (permission bits are ignored), so checkpoint failures are injected by
//! parking a *directory* at the snapshot's tmp path — `File::create`
//! fails on it regardless of uid.

use serve::{
    matcher_kind, Client, Command, ProgramSpec, Registry, Reply, ServeConfig, Server, Session,
};
use std::fs;
use std::path::{Path, PathBuf};
use std::sync::{Mutex, MutexGuard};

/// Held by the tests that write more than a few hundred bytes: the
/// file-size limit one of them sets is per process.
fn big_writes() -> MutexGuard<'static, ()> {
    static DISK: Mutex<()> = Mutex::new(());
    DISK.lock().unwrap_or_else(|e| e.into_inner())
}

const SRC: &str = "(literalize item n)
                   (literalize sum total)
                   (p add (item ^n <n>) (sum ^total <t>)
                      --> (remove 1) (modify 2 ^total (compute <t> + <n>)))";

fn fresh_session(id: u64) -> Session {
    let eng = ProgramSpec::from_source(SRC)
        .build_empty(matcher_kind("vs2").unwrap(), Default::default())
        .unwrap();
    Session::new(id, "adder", eng, matcher_kind("vs2").unwrap(), 10_000)
}

fn tmp_dir(tag: &str) -> PathBuf {
    let d = std::env::temp_dir().join(format!("ops5-dfault-{tag}-{}", std::process::id()));
    let _ = fs::remove_dir_all(&d);
    fs::create_dir_all(&d).unwrap();
    d
}

fn ok(s: &mut Session, cmd: Command) -> String {
    match s.execute(cmd) {
        Reply::Ok(p) => p,
        other => panic!("expected OK, got {other:?}"),
    }
}

fn fired(s: &mut Session) -> Vec<String> {
    match s.execute(Command::Fired) {
        Reply::Multi { lines, .. } => lines,
        other => panic!("expected FIRED lines, got {other:?}"),
    }
}

fn seed(s: &mut Session, items: &[i64]) {
    ok(s, Command::Assert("sum ^total 0".into()));
    for n in items {
        ok(s, Command::Assert(format!("item ^n {n}")));
    }
}

/// Rebuilds a session purely from what is on disk — the kill/restart path.
fn recover(dir: &Path, id: u64) -> (Session, usize) {
    let snap = fs::read_to_string(Session::snap_path(dir, id)).unwrap();
    let log = fs::read_to_string(Session::log_path(dir, id)).unwrap_or_default();
    let eng = ProgramSpec::from_source(SRC)
        .build_empty(matcher_kind("vs2").unwrap(), Default::default())
        .unwrap();
    Session::restore(
        id,
        "adder",
        eng,
        matcher_kind("vs2").unwrap(),
        10_000,
        &snap,
        &log,
    )
    .unwrap()
}

/// The tmp path `checkpoint()` writes through before renaming onto the
/// real snapshot.
fn block_checkpoint(dir: &Path, id: u64) -> PathBuf {
    let tmp = Session::snap_path(dir, id).with_extension("snap.tmp");
    fs::create_dir(&tmp).unwrap();
    tmp
}

/// A checkpoint failure mid-session must not clobber the command's reply
/// or lose records: the session degrades, keeps appending to the log, and
/// both a kill-recovery and an in-place retry converge on the reference.
#[test]
fn failed_checkpoint_degrades_then_recovers_with_zero_lost_records() {
    let dir = tmp_dir("ckpt");

    // Uninterrupted reference run of the same command stream.
    let mut reference = fresh_session(0);
    seed(&mut reference, &[1, 2, 3, 4, 5]);
    ok(&mut reference, Command::Run(2));
    ok(&mut reference, Command::Run(2));
    ok(&mut reference, Command::Run(100));
    let want = fired(&mut reference);
    // No durability attached → STATS? carries no durability field at all.
    assert!(!ok(&mut reference, Command::Stats).contains("durability="));

    let mut s = fresh_session(7);
    s.attach_durability(&dir, 2).unwrap();
    seed(&mut s, &[1, 2, 3, 4, 5]);

    // Wedge the checkpoint path, then cross the checkpoint_every=2
    // threshold: the log append succeeds, the checkpoint fails.
    let tmp = block_checkpoint(&dir, 7);
    let run = ok(&mut s, Command::Run(2));
    assert!(run.contains("cycles=2"), "reply clobbered: {run}");
    assert!(s.durability_degraded());
    assert!(ok(&mut s, Command::Stats).contains("durability=degraded"));

    // Kill here: snapshot is stale but snapshot+log still replays every
    // record — nothing was lost to the failed checkpoint.
    {
        let (mut dead, replayed) = recover(&dir, 7);
        assert!(replayed > 0, "log should carry the un-checkpointed tail");
        ok(&mut dead, Command::Run(2));
        ok(&mut dead, Command::Run(100));
        assert_eq!(fired(&mut dead), want, "records lost across kill");
    }

    // Meanwhile the live session keeps going degraded; unwedging lets the
    // next sync retry the checkpoint and clear the flag.
    let run = ok(&mut s, Command::Run(2));
    assert!(run.contains("cycles=2"), "{run}");
    fs::remove_dir(&tmp).unwrap();
    ok(&mut s, Command::Run(100));
    assert!(!s.durability_degraded());
    assert!(ok(&mut s, Command::Stats).contains("durability=ok"));
    assert_eq!(fired(&mut s), want);

    // The retried checkpoint truncated the log; disk state alone now
    // reproduces the full session.
    let (mut back, _) = recover(&dir, 7);
    assert_eq!(fired(&mut back), want);

    let _ = fs::remove_dir_all(&dir);
}

/// `attach_durability` failing on a *restored* session must leave the
/// prior incarnation's log untouched — truncating before the new snapshot
/// is durable would strand the old snapshot without its tail.
#[test]
fn failed_attach_preserves_the_existing_log() {
    let dir = tmp_dir("attach");

    let mut s = fresh_session(3);
    // Huge checkpoint_every: everything after attach lives in the log.
    s.attach_durability(&dir, 1_000_000).unwrap();
    seed(&mut s, &[10, 20, 30]);
    ok(&mut s, Command::Run(100));
    let want = fired(&mut s);
    drop(s); // kill

    let log_before = fs::read(Session::log_path(&dir, 3)).unwrap();
    let snap_before = fs::read(Session::snap_path(&dir, 3)).unwrap();
    assert!(!log_before.is_empty());

    // Restart, re-attach with the checkpoint path wedged: must fail and
    // must not have truncated what it failed to re-checkpoint.
    let (mut r, _) = recover(&dir, 3);
    let tmp = block_checkpoint(&dir, 3);
    assert!(r.attach_durability(&dir, 1_000_000).is_err());
    assert_eq!(
        fs::read(Session::log_path(&dir, 3)).unwrap(),
        log_before,
        "failed attach truncated the change log"
    );
    assert_eq!(fs::read(Session::snap_path(&dir, 3)).unwrap(), snap_before);
    // Disk state is still whole: a second recovery sees every record.
    let (mut again, _) = recover(&dir, 3);
    assert_eq!(fired(&mut again), want);

    // Unwedged, the attach completes and folds the log into the snapshot.
    fs::remove_dir(&tmp).unwrap();
    r.attach_durability(&dir, 1_000_000).unwrap();
    assert!(fs::read(Session::log_path(&dir, 3)).unwrap().is_empty());
    let (mut fresh, replayed) = recover(&dir, 3);
    assert_eq!(replayed, 0);
    assert_eq!(fired(&mut fresh), want);

    let _ = fs::remove_dir_all(&dir);
}

/// A crash *between* the tmp write and the rename leaves a stale
/// `.snap.tmp` behind; recovery must ignore it (the real `.snap` +- log is
/// the durable truth) and the next checkpoint must replace it.
#[test]
fn stale_snapshot_tmp_is_ignored_and_replaced() {
    let dir = tmp_dir("stale");

    let mut s = fresh_session(5);
    s.attach_durability(&dir, 1_000_000).unwrap();
    seed(&mut s, &[7, 8]);
    ok(&mut s, Command::Run(100));
    let want = fired(&mut s);
    drop(s);

    // Simulated torn checkpoint: a half-written tmp from a dead process.
    let tmp = Session::snap_path(&dir, 5).with_extension("snap.tmp");
    fs::write(&tmp, b"garbage half-snapshot").unwrap();

    let (mut r, _) = recover(&dir, 5);
    assert_eq!(fired(&mut r), want, "recovery read the torn tmp");

    // The next attach checkpoints right through the stale file.
    r.attach_durability(&dir, 1_000_000).unwrap();
    assert!(!tmp.exists(), "stale tmp should be renamed over");
    let (mut again, _) = recover(&dir, 5);
    assert_eq!(fired(&mut again), want);

    let _ = fs::remove_dir_all(&dir);
}

/// `RLIMIT_FSIZE` as a disk that fills up mid-append: a `write` that would
/// cross the limit is cut short at it, the next one fails with `EFBIG`.
/// The limit is per process, so it is only ever set far above anything the
/// other tests in this binary write (a few hundred bytes each), and
/// `SIGXFSZ`, whose default action kills the process, is ignored first.
#[cfg(target_os = "linux")]
mod file_size_limit {
    #[repr(C)]
    struct Rlimit {
        cur: u64,
        max: u64,
    }

    const RLIMIT_FSIZE: i32 = 1;
    const SIGXFSZ: i32 = 25;
    const SIG_IGN: usize = 1;

    extern "C" {
        fn getrlimit(resource: i32, rlim: *mut Rlimit) -> i32;
        fn setrlimit(resource: i32, rlim: *const Rlimit) -> i32;
        fn signal(signum: i32, handler: usize) -> usize;
    }

    /// Runs `f` with files limited to `bytes`, then restores the soft limit.
    pub fn with<R>(bytes: u64, f: impl FnOnce() -> R) -> R {
        let mut lim = Rlimit { cur: 0, max: 0 };
        // SAFETY: plain libc calls on a struct laid out as `struct rlimit`
        // (two 64-bit words on Linux); ignoring a signal installs no handler.
        unsafe {
            signal(SIGXFSZ, SIG_IGN);
            assert_eq!(getrlimit(RLIMIT_FSIZE, &mut lim), 0);
            let cut = Rlimit {
                cur: bytes,
                max: lim.max,
            };
            assert_eq!(setrlimit(RLIMIT_FSIZE, &cut), 0);
        }
        let r = f();
        // SAFETY: as above; the soft limit goes back to what it was.
        unsafe { assert_eq!(setrlimit(RLIMIT_FSIZE, &lim), 0) };
        r
    }
}

/// The journal tracks the end of its log instead of asking the kernel
/// before every append, so the tracked end has to survive the one path
/// that depends on it: an append that fails part-way is rolled back to it,
/// and the retry lands where the failed one began. Twice over, with
/// successful appends in between: a tracked end that a success did not
/// advance would cut acknowledged records off in the second rollback, and
/// a rollback that did nothing would leave half a record mid-log.
#[cfg(target_os = "linux")]
#[test]
fn failed_append_rolls_back_to_the_tracked_end_and_the_retry_loses_nothing() {
    let _disk = big_writes();
    let dir = tmp_dir("append");
    let log_path = Session::log_path(&dir, 11);

    let mut s = fresh_session(11);
    // Huge checkpoint_every: everything after attach lives in the log.
    s.attach_durability(&dir, 1_000_000).unwrap();
    // Far past any file another test of this binary writes.
    let items: Vec<i64> = (0..2000).collect();
    seed(&mut s, &items);
    ok(&mut s, Command::Run(3));
    assert!(fs::metadata(&log_path).unwrap().len() > 32 * 1024);

    for round in 0..2 {
        let before = fs::read(&log_path).unwrap();
        // Room for the first few bytes of the next record only.
        file_size_limit::with(before.len() as u64 + 5, || {
            let tag = ok(&mut s, Command::Assert(format!("item ^n {}", 9000 + round)));
            assert!(tag.parse::<u64>().is_ok(), "reply clobbered: {tag}");
            assert!(s.durability_degraded());
            // (`assert!`, not `assert_eq!`: a failure should not print 40 KB.)
            assert!(
                fs::read(&log_path).unwrap() == before,
                "the partial append was not rolled back"
            );
        });
        // The disk has room again: the next sync carries the parked record.
        ok(&mut s, Command::Run(2));
        assert!(!s.durability_degraded());
        assert!(ok(&mut s, Command::Stats).contains("durability=ok"));
        let after = fs::read(&log_path).unwrap();
        assert!(after.starts_with(&before) && after.len() > before.len());
    }

    // What is on disk parses as a log and replays to the live session.
    let text = fs::read_to_string(&log_path).unwrap();
    let log = engine::ChangeLog::parse(&text).expect("no torn record in the log");
    assert!(log.len() > items.len());
    let (mut back, replayed) = recover(&dir, 11);
    assert_eq!(replayed, log.len());
    assert_eq!(fired(&mut back), fired(&mut s));
    let wm = |s: &mut Session| s.execute(Command::Wm(None)).to_string();
    assert_eq!(wm(&mut back), wm(&mut s));

    let _ = fs::remove_dir_all(&dir);
}

/// `RUN` until the session stops for a reason of its own.
fn run_to_end(c: &mut Client) {
    for _ in 0..400 {
        let payload = c.run(2000).unwrap().expect_ok().unwrap();
        if !payload.contains("reason=limit") && !payload.contains("reason=settled") {
            return;
        }
    }
    panic!("the session never stopped");
}

/// The kill/restart path over a real socket, on every corpus program and
/// matcher: a durable session runs two `RUN 4`s (every program but `blocks`,
/// which fires 3 times, is cut mid-run), its connection drops without
/// `CLOSE`, and a `RESTORE` of what is on disk answers `FIRED?` with the
/// dropped session's firings and, run to the end, exactly as a direct run
/// of the program does. None of these programs fires 32 times, so what is
/// recovered is the snapshot written at `OPEN` plus a log holding every
/// firing since; a mid-run checkpoint is
/// `failed_checkpoint_degrades_then_recovers_with_zero_lost_records`'s.
#[test]
fn a_session_dropped_mid_run_recovers_over_the_wire() {
    let _disk = big_writes();
    let dir = tmp_dir("wire");
    let cfg = ServeConfig {
        workers: 2,
        durability_dir: Some(dir.clone()),
        checkpoint_every: 32,
        programs_dir: Some("programs".into()),
        ..ServeConfig::default()
    };
    let handle = Server::bind("127.0.0.1:0", cfg).unwrap().spawn();
    let reg = Registry::with_builtins(Some("programs".as_ref()));
    for program in ["blocks", "fibonacci", "monkey", "hanoi", "rubik"] {
        for matcher in ["vs1", "vs2", "lisp", "psm", "col"] {
            let at = format!("{program}/{matcher}");
            let mut eng = reg
                .get(program)
                .unwrap()
                .build(matcher_kind(matcher).unwrap(), Default::default(), None)
                .unwrap();
            eng.run(400_000).unwrap();
            let reference: Vec<String> = eng
                .fired_log()
                .iter()
                .map(|(p, tags)| {
                    let t: Vec<String> = tags.iter().map(|x| x.to_string()).collect();
                    format!("{} {}", eng.prog.prod_name(*p), t.join(" "))
                })
                .collect();

            // Every completed command's records are on disk before its reply.
            let (id, ran): (u64, usize) = {
                let mut doomed = Client::connect(handle.addr).unwrap();
                let opened = doomed.open(program, Some(matcher)).unwrap();
                let opened = opened.expect_ok().unwrap();
                let mut ran = 0;
                for _ in 0..2 {
                    let payload = doomed.run(4).unwrap().expect_ok().unwrap();
                    let cycles = payload
                        .split_whitespace()
                        .find_map(|kv| kv.strip_prefix("cycles="))
                        .unwrap();
                    ran += cycles.parse::<usize>().unwrap();
                    if !payload.contains("reason=limit") {
                        break;
                    }
                }
                let id = opened.split_whitespace().nth(1).unwrap().parse().unwrap();
                (id, ran)
            };
            let snap = fs::read_to_string(Session::snap_path(&dir, id)).unwrap();
            let log = fs::read_to_string(Session::log_path(&dir, id)).unwrap();

            let mut c = Client::connect(handle.addr).unwrap();
            c.restore(program, Some(matcher), &format!("{snap}{log}"))
                .unwrap()
                .expect_ok()
                .unwrap_or_else(|e| panic!("{at}: {e}"));
            // The restored session resumes where the dropped one stopped.
            let resumed = c.fired().unwrap().expect_lines().unwrap();
            assert!(
                resumed[..] == reference[..ran],
                "{at}: restored {} firings, the dropped session had {ran}",
                resumed.len()
            );
            run_to_end(&mut c);
            let fired = c.fired().unwrap().expect_lines().unwrap();
            assert!(fired == reference, "{at}: the recovered run diverged");
            c.close().unwrap().expect_ok().unwrap();
        }
    }
    let mut c = Client::connect(handle.addr).unwrap();
    c.shutdown().unwrap().expect_ok().unwrap();
    handle.join().unwrap();
    let _ = fs::remove_dir_all(&dir);
}
