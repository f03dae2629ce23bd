//! Integration tests for priority scheduling, deadline preemption (RUN
//! slicing), and cooperative cancellation: a preempted, sliced, or
//! cancelled-then-resumed run must stay observably identical to a serial
//! direct engine run — same reply bytes, same firing log.

use parallel_ops5::prelude::*;
use serve::{matcher_kind, ClientReply, Registry, ServeConfig, Server};
use std::time::{Duration, Instant};

fn fired_lines(eng: &Engine) -> Vec<String> {
    eng.fired_log()
        .iter()
        .map(|(p, tags)| {
            let t: Vec<String> = tags.iter().map(|x| x.to_string()).collect();
            format!("{} {}", eng.prog.prod_name(*p), t.join(" "))
        })
        .collect()
}

const SPIN: &str = "(literalize c n)
                    (p spin (c ^n <n>) --> (modify 1 ^n (compute <n> + 1)))";

/// Drives one corpus program to completion in fixed RUN chunks and returns
/// (reply payloads, FIRED? lines) — the full observable trace.
fn drive(addr: std::net::SocketAddr, program: &str, prio: &str) -> (Vec<String>, Vec<String>) {
    let mut c = serve::Client::connect(addr).unwrap();
    c.open_prio(program, Some("psm"), prio)
        .unwrap()
        .expect_ok()
        .unwrap();
    let mut replies = Vec::new();
    for _ in 0..400 {
        let payload = c.run(900).unwrap().expect_ok().unwrap();
        let done = !payload.contains("reason=limit");
        replies.push(payload);
        if done {
            break;
        }
    }
    let fired = c.fired().unwrap().expect_lines().unwrap();
    c.close().unwrap().expect_ok().unwrap();
    (replies, fired)
}

/// A sliced server (every RUN preempted into 2-cycle sub-runs: the four
/// programs take 3 to 23 cycles, so every one of them is split, 28 times in
/// all, and monkey halts on a slice boundary) must be byte-identical to an
/// unsliced server on every reply, and both must match the direct engine's
/// firing log — at every priority level.
#[test]
fn sliced_runs_are_byte_identical_to_unsliced_and_direct() {
    let sliced = Server::bind(
        "127.0.0.1:0",
        ServeConfig {
            workers: 2,
            queue_depth: 64,
            run_slice_cycles: 2,
            programs_dir: Some("programs".into()),
            ..ServeConfig::default()
        },
    )
    .unwrap()
    .spawn();
    let plain = Server::bind(
        "127.0.0.1:0",
        ServeConfig {
            workers: 2,
            queue_depth: 64,
            run_slice_cycles: 0,
            programs_dir: Some("programs".into()),
            ..ServeConfig::default()
        },
    )
    .unwrap()
    .spawn();

    let reg = Registry::with_builtins(Some("programs".as_ref()));
    for (program, prio) in [
        ("blocks", "high"),
        ("fibonacci", "normal"),
        ("monkey", "batch"),
        ("hanoi", "high"),
    ] {
        let mut eng = reg
            .get(program)
            .unwrap()
            .build(matcher_kind("psm").unwrap(), Default::default(), None)
            .unwrap();
        eng.run(400_000).unwrap();
        let reference = fired_lines(&eng);

        let (replies_s, fired_s) = drive(sliced.addr, program, prio);
        let (replies_p, fired_p) = drive(plain.addr, program, prio);
        assert_eq!(replies_s, replies_p, "{program} reply divergence");
        assert_eq!(fired_s, reference, "{program} sliced firing divergence");
        assert_eq!(fired_p, reference, "{program} unsliced firing divergence");
    }

    for h in [sliced, plain] {
        let mut c = serve::Client::connect(h.addr).unwrap();
        c.shutdown().unwrap().expect_ok().unwrap();
        h.join().unwrap();
    }
}

/// `serve_preemptions_total` in `c`'s `METRICS?` reply (0 if absent).
fn preemptions_metric(c: &mut serve::Client) -> u64 {
    let metrics = c.metrics().unwrap().expect_lines().unwrap();
    (metrics.iter())
        .find_map(|l| l.strip_prefix("serve_preemptions_total "))
        .and_then(|v| v.trim().parse::<f64>().ok())
        .map_or(0, |v| v as u64)
}

/// With one worker and slicing on, a long batch RUN cannot monopolize the
/// pool: a high-priority session opened mid-run gets served between its
/// slices. The high session's `RUN` and `CLOSE` must run on the one worker
/// (the pool's worker-executed count rises by two), not on the connection
/// core; the preemption count rises during that lifecycle; and the
/// spinner's RUN is still in flight when it ends. The counts are the
/// pool's, read off the handle: `METRICS?` would wait for the spinner's
/// session between slices.
#[test]
fn preemption_lets_high_priority_through_a_wedged_worker() {
    let cfg = ServeConfig {
        workers: 1,
        queue_depth: 64,
        max_cycles_per_run: 2_000_000,
        run_slice_cycles: 500,
        obs: ObsConfig::enabled(),
        ..ServeConfig::default()
    };
    let handle = Server::bind("127.0.0.1:0", cfg).unwrap().spawn();
    let preempted = || handle.pool_stats().preempted;
    let on_worker = || {
        let s = handle.pool_stats();
        s.executed - s.inline
    };

    // The wedge: a batch-class spinner holding a 2M-cycle sliced RUN.
    let mut a = serve::Client::connect(handle.addr).unwrap();
    a.send_line("OPEN - vs2 PRIO=batch").unwrap();
    for l in SPIN.lines() {
        a.send_line(l).unwrap();
    }
    a.send_line("END").unwrap();
    a.read_reply().unwrap().expect_ok().unwrap();
    a.assert_wme("c ^n 0").unwrap().unwrap();
    a.send_line("RUN 2000000").unwrap();

    // Wait until the spinner has yielded a slice, so the one worker is in
    // its RUN before the high session arrives.
    let deadline = Instant::now() + Duration::from_secs(30);
    while preempted() == 0 {
        assert!(
            Instant::now() < deadline,
            "the spinner yielded no slice in 30 s"
        );
        std::thread::sleep(Duration::from_millis(1));
    }

    // The only worker is busy with the spinner; a high session must still
    // complete a full lifecycle while that RUN is in flight.
    let mut b = serve::Client::connect(handle.addr).unwrap();
    let (before, ran_before) = (preempted(), on_worker());
    b.open_source(
        "(literalize x v)\n(p r (x ^v <v>) --> (remove 1))",
        Some("vs2"),
    )
    .unwrap()
    .expect_ok()
    .unwrap();
    b.prio("high").unwrap().expect_ok().unwrap();
    b.assert_wme("x ^v 1").unwrap().unwrap();
    let run = b.run(10).unwrap().expect_ok().unwrap();
    assert!(run.contains("cycles=1"), "{run}");
    b.close().unwrap().expect_ok().unwrap();
    let ran = on_worker() - ran_before;
    assert!(ran >= 2, "{ran} of b's commands ran on the worker");
    let after = preempted();
    assert!(
        after > before,
        "b's lifecycle spanned no slice boundary: {before} -> {after}"
    );

    // The spinner is still running (cancel it to unwedge), so b's whole
    // lifecycle above was interleaved between its slices.
    a.send_line("CANCEL").unwrap();
    assert!(
        matches!(a.read_reply().unwrap(), ClientReply::Err(_)),
        "the wedged RUN should be cut by CANCEL"
    );
    a.read_reply().unwrap().expect_ok().unwrap(); // CANCEL's own reply

    // Nothing runs now: the exposition reads the pool's own count.
    assert_eq!(preemptions_metric(&mut b), preempted());

    b.shutdown().unwrap().expect_ok().unwrap();
    handle.join().unwrap();
}

/// CANCEL fast-fails queued commands, cuts the in-flight sliced RUN at a
/// slice boundary, and leaves the session fully resumable.
#[test]
fn cancel_cuts_run_and_session_stays_usable() {
    let cfg = ServeConfig {
        workers: 1,
        queue_depth: 64,
        max_cycles_per_run: 2_000_000,
        run_slice_cycles: 200,
        ..ServeConfig::default()
    };
    let handle = Server::bind("127.0.0.1:0", cfg).unwrap().spawn();
    let mut c = serve::Client::connect(handle.addr).unwrap();
    c.open_source(SPIN, Some("vs2"))
        .unwrap()
        .expect_ok()
        .unwrap();
    c.assert_wme("c ^n 0").unwrap().unwrap();

    // Pipeline: a 2M-cycle RUN, a queued ASSERT behind it, then CANCEL.
    c.send_line("RUN 2000000").unwrap();
    std::thread::sleep(std::time::Duration::from_millis(50));
    c.send_line("ASSERT c ^n 99").unwrap();
    c.send_line("CANCEL").unwrap();

    // In order: the RUN is cut mid-flight, the queued ASSERT fast-fails,
    // and CANCEL reports what it flushed.
    let run = c.read_reply().unwrap();
    assert!(
        matches!(&run, ClientReply::Err(e) if e == "cancelled"),
        "{run:?}"
    );
    let asrt = c.read_reply().unwrap();
    assert!(
        matches!(&asrt, ClientReply::Err(e) if e == "cancelled"),
        "{asrt:?}"
    );
    let cancelled = c.read_reply().unwrap().expect_ok().unwrap();
    assert!(cancelled.starts_with("cancelled pending="), "{cancelled}");

    // Resumable: the engine kept its partial progress and accepts work.
    let stats = c.stats().unwrap().expect_ok().unwrap();
    assert!(stats.contains("cycles="), "{stats}");
    let run = c.run(10).unwrap().expect_ok().unwrap();
    assert!(run.contains("cycles=10"), "{run}");

    c.shutdown().unwrap().expect_ok().unwrap();
    handle.join().unwrap();
}

/// A RUN clamped by server policy says so: `reason=limit` alone is the
/// engine's own cycle limit, `clamped=<requested>` marks the server's
/// `max_cycles_per_run` cutting the request short.
#[test]
fn clamped_runs_carry_the_requested_count() {
    let cfg = ServeConfig {
        workers: 1,
        max_cycles_per_run: 100,
        run_slice_cycles: 0,
        ..ServeConfig::default()
    };
    let handle = Server::bind("127.0.0.1:0", cfg).unwrap().spawn();
    let mut c = serve::Client::connect(handle.addr).unwrap();
    c.open_source(SPIN, Some("vs2"))
        .unwrap()
        .expect_ok()
        .unwrap();
    c.assert_wme("c ^n 0").unwrap().unwrap();

    let run = c.run(500).unwrap().expect_ok().unwrap();
    assert!(run.contains("reason=limit"), "{run}");
    assert!(run.contains("clamped=500"), "{run}");

    // Exactly at the cap, and below it: the engine's own limit, no note.
    for n in [100, 50] {
        let run = c.run(n).unwrap().expect_ok().unwrap();
        assert!(run.contains("reason=limit"), "{run}");
        assert!(!run.contains("clamped="), "{run}");
    }

    c.shutdown().unwrap().expect_ok().unwrap();
    handle.join().unwrap();
}

/// OPEN echoes an explicit PRIO= class, PRIO reclassifies a live session,
/// and malformed classes are rejected without disturbing the session.
#[test]
fn prio_protocol_roundtrip() {
    let handle = Server::bind(
        "127.0.0.1:0",
        ServeConfig {
            workers: 1,
            programs_dir: Some("programs".into()),
            ..ServeConfig::default()
        },
    )
    .unwrap()
    .spawn();
    let mut c = serve::Client::connect(handle.addr).unwrap();
    let ok = c
        .open_prio("blocks", Some("vs2"), "batch")
        .unwrap()
        .expect_ok()
        .unwrap();
    assert!(ok.contains("prio=batch"), "{ok}");
    assert_eq!(c.prio("HIGH").unwrap().expect_ok().unwrap(), "prio=high");
    assert!(matches!(c.prio("frob").unwrap(), ClientReply::Err(_)));
    // The session survived the bad class and still executes.
    c.run(0).unwrap().expect_ok().unwrap();
    c.close().unwrap().expect_ok().unwrap();

    // An unknown PRIO= on OPEN fails before a session is created.
    let err = c.request("OPEN blocks PRIO=frob").unwrap();
    assert!(
        matches!(&err, ClientReply::Err(e) if e.contains("unknown priority")),
        "{err:?}"
    );
    c.open("blocks", None).unwrap().expect_ok().unwrap();
    c.close().unwrap().expect_ok().unwrap();

    c.shutdown().unwrap().expect_ok().unwrap();
    handle.join().unwrap();
}
