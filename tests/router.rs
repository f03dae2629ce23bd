//! Integration tests for `ops5-router`: sessions sharded across several
//! in-process backends must behave exactly like direct sessions, and a
//! drained backend's sessions must live-migrate without losing state.

use serve::{matcher_kind, Client, Registry, Router, RouterConfig, ServeConfig, Server};
use std::net::SocketAddr;

fn backend() -> serve::ServerHandle {
    let cfg = ServeConfig {
        workers: 2,
        queue_depth: 512,
        programs_dir: Some("programs".into()),
        ..ServeConfig::default()
    };
    Server::bind("127.0.0.1:0", cfg).unwrap().spawn()
}

fn reference_fired(program: &str) -> Vec<String> {
    let reg = Registry::with_builtins(Some("programs".as_ref()));
    let mut eng = reg
        .get(program)
        .unwrap()
        .build(matcher_kind("psm").unwrap(), Default::default(), None)
        .unwrap();
    eng.run(400_000).unwrap();
    eng.fired_log()
        .iter()
        .map(|(p, tags)| {
            let t: Vec<String> = tags.iter().map(|x| x.to_string()).collect();
            format!("{} {}", eng.prog.prod_name(*p), t.join(" "))
        })
        .collect()
}

fn run_to_completion(c: &mut Client) -> Vec<String> {
    for _ in 0..400 {
        let payload = c.run(1000).unwrap().expect_ok().unwrap();
        if !payload.contains("reason=limit") {
            break;
        }
    }
    c.fired().unwrap().expect_lines().unwrap()
}

/// Polls `RING?` until backend `b` has no attached pairs (drain resolved)
/// or a deadline expires; returns the final ring listing either way.
fn wait_for_drain(admin: &mut Client, b: usize) -> Vec<String> {
    let deadline = std::time::Instant::now() + std::time::Duration::from_secs(60);
    loop {
        let ring = admin.request("RING?").unwrap().expect_lines().unwrap();
        if ring_field(&ring, b, "pairs") == Some(0) || std::time::Instant::now() > deadline {
            return ring;
        }
        std::thread::sleep(std::time::Duration::from_millis(50));
    }
}

fn ring_field(lines: &[String], backend: usize, key: &str) -> Option<u64> {
    lines
        .iter()
        .find(|l| l.starts_with(&format!("backend {backend} ")))
        .and_then(|l| {
            l.split_whitespace()
                .find_map(|kv| kv.strip_prefix(key).and_then(|r| r.strip_prefix('=')))
        })
        .and_then(|v| v.parse().ok())
}

/// Sessions routed through a 2-backend shard set fire exactly like direct
/// engine runs; `ADMIN SHUTDOWN` stops the router and both backends.
#[test]
fn routed_sessions_match_direct_runs() {
    let b0 = backend();
    let b1 = backend();
    let router = Router::bind("127.0.0.1:0", RouterConfig::new(vec![b0.addr, b1.addr]))
        .unwrap()
        .spawn();
    let addr: SocketAddr = router.addr;

    let threads: Vec<_> = ["blocks", "hanoi", "monkey", "blocks", "hanoi", "monkey"]
        .into_iter()
        .map(|program| {
            std::thread::spawn(move || {
                let reference = reference_fired(program);
                let mut c = Client::connect(addr).unwrap();
                c.open(program, Some("psm")).unwrap().expect_ok().unwrap();
                let fired = run_to_completion(&mut c);
                assert_eq!(fired, reference, "routed {program} diverged");
                c.close().unwrap().expect_ok().unwrap();
            })
        })
        .collect();
    for t in threads {
        t.join().unwrap();
    }

    // Both backends should have seen at least one pair over the run; the
    // ring spreads distinct connections. (Not guaranteed per-run with 6
    // keys, so only sanity-check the admin surface here.)
    let mut admin = Client::connect(addr).unwrap();
    admin.request("ADMIN").unwrap().expect_ok().unwrap();
    let ring = admin.request("RING?").unwrap().expect_lines().unwrap();
    assert_eq!(ring.len(), 2, "{ring:?}");
    assert!(
        ring[0].contains("live=true") && ring[1].contains("live=true"),
        "{ring:?}"
    );

    admin.request("SHUTDOWN").unwrap().expect_ok().unwrap();
    router.join().unwrap();
    b0.join().unwrap();
    b1.join().unwrap();
}

/// The tentpole property: drain a backend while sessions hold open state
/// on it, and every session finishes with a firing log identical to an
/// uninterrupted direct run — the migration was invisible.
#[test]
fn drain_live_migrates_sessions_without_losing_state() {
    let b0 = backend();
    let b1 = backend();
    let router = Router::bind("127.0.0.1:0", RouterConfig::new(vec![b0.addr, b1.addr]))
        .unwrap()
        .spawn();
    let addr: SocketAddr = router.addr;

    // Open several sessions and run each partway, so the drain has real
    // mid-run state (WM, conflict set, firing log) to carry over.
    let programs = ["blocks", "hanoi", "monkey", "rubik"];
    let mut clients: Vec<(Client, &str)> = Vec::new();
    for program in programs {
        let mut c = Client::connect(addr).unwrap();
        c.open(program, Some("psm")).unwrap().expect_ok().unwrap();
        for _ in 0..2 {
            let payload = c.run(30).unwrap().expect_ok().unwrap();
            if !payload.contains("reason=limit") {
                break;
            }
        }
        clients.push((c, program));
    }

    let mut admin = Client::connect(addr).unwrap();
    admin.request("ADMIN").unwrap().expect_ok().unwrap();
    let before = admin.request("RING?").unwrap().expect_lines().unwrap();
    let on_b0 = ring_field(&before, 0, "pairs").unwrap();

    admin.request("DRAIN 0").unwrap().expect_ok().unwrap();
    // Migrations run off the reactor on helper threads, so the drain is
    // asynchronous: poll RING? until backend 0 reports no attached pairs
    // (mid-transit pairs still count against it until they land).
    let after = wait_for_drain(&mut admin, 0);
    assert_eq!(ring_field(&after, 0, "pairs"), Some(0), "{after:?}");
    assert!(after[0].contains("live=false"), "{after:?}");

    let stats = admin.request("STATS?").unwrap().expect_lines().unwrap();
    let migrations: u64 = stats
        .iter()
        .find_map(|l| l.strip_prefix("migrations "))
        .and_then(|v| v.trim().parse().ok())
        .unwrap();
    let failures: u64 = stats
        .iter()
        .find_map(|l| l.strip_prefix("migration_failures "))
        .and_then(|v| v.trim().parse().ok())
        .unwrap();
    assert_eq!(migrations, on_b0, "every pair on backend 0 migrated");
    assert_eq!(failures, 0, "{stats:?}");

    // Resume every session to completion: firing logs must be identical
    // to uninterrupted direct runs, including the pre-drain prefix.
    for (mut c, program) in clients {
        let reference = reference_fired(program);
        let fired = run_to_completion(&mut c);
        assert_eq!(fired, reference, "{program} diverged across migration");
        c.close().unwrap().expect_ok().unwrap();
    }

    admin.request("SHUTDOWN").unwrap().expect_ok().unwrap();
    router.join().unwrap();
    b0.join().unwrap();
    b1.join().unwrap();
}

/// Router guardrails: client `SHUTDOWN` is refused, draining the last
/// live backend is refused, and unknown admin commands error.
#[test]
fn router_guardrails() {
    let b0 = backend();
    let router = Router::bind("127.0.0.1:0", RouterConfig::new(vec![b0.addr]))
        .unwrap()
        .spawn();
    let addr: SocketAddr = router.addr;

    // Ordinary clients cannot take the shared backend down.
    let mut c = Client::connect(addr).unwrap();
    c.open("blocks", Some("vs2")).unwrap().expect_ok().unwrap();
    match c.request("SHUTDOWN").unwrap() {
        serve::ClientReply::Err(msg) => assert!(msg.contains("ADMIN"), "{msg}"),
        other => panic!("expected ERR, got {other:?}"),
    }
    // The session is still alive afterwards.
    c.run(0).unwrap().expect_ok().unwrap();
    c.close().unwrap().expect_ok().unwrap();

    let mut admin = Client::connect(addr).unwrap();
    admin.request("ADMIN").unwrap().expect_ok().unwrap();
    match admin.request("DRAIN 0").unwrap() {
        serve::ClientReply::Err(msg) => assert!(msg.contains("last live"), "{msg}"),
        other => panic!("expected ERR, got {other:?}"),
    }
    match admin.request("DRAIN 7").unwrap() {
        serve::ClientReply::Err(msg) => assert!(msg.contains("no backend"), "{msg}"),
        other => panic!("expected ERR, got {other:?}"),
    }
    match admin.request("FROB").unwrap() {
        serve::ClientReply::Err(msg) => assert!(msg.contains("unknown admin"), "{msg}"),
        other => panic!("expected ERR, got {other:?}"),
    }

    admin.request("SHUTDOWN").unwrap().expect_ok().unwrap();
    router.join().unwrap();
    b0.join().unwrap();
}

/// Regression: a `DRAIN` that lands while a pair is inside a multi-line
/// command (here: an open `BATCH` body) must let the command finish —
/// the router keeps forwarding body lines (and the terminator) so the
/// backend can reply, and only then migrates at the safe point. The old
/// behavior held *all* input once the drain was pending, so the `END`
/// never reached the backend and the connection hung forever.
#[test]
fn drain_mid_batch_completes_then_migrates() {
    let b0 = backend();
    let b1 = backend();
    let router = Router::bind("127.0.0.1:0", RouterConfig::new(vec![b0.addr, b1.addr]))
        .unwrap()
        .spawn();
    let addr: SocketAddr = router.addr;

    let mut c = Client::connect(addr).unwrap();
    c.open("blocks", Some("psm")).unwrap().expect_ok().unwrap();
    c.run(30).unwrap().expect_ok().unwrap();

    // Open a BATCH but do not terminate it yet, then give the router a
    // moment to route the line so the pair is genuinely mid-body.
    c.send_line("BATCH").unwrap();
    std::thread::sleep(std::time::Duration::from_millis(300));

    let mut admin = Client::connect(addr).unwrap();
    admin.request("ADMIN").unwrap().expect_ok().unwrap();
    let ring = admin.request("RING?").unwrap().expect_lines().unwrap();
    let on = if ring_field(&ring, 0, "pairs") == Some(1) {
        0
    } else {
        1
    };
    admin
        .request(&format!("DRAIN {on}"))
        .unwrap()
        .expect_ok()
        .unwrap();

    // The batch must still complete: its terminator flows through and the
    // backend's reply comes back before the session moves.
    c.send_line("END").unwrap();
    c.read_reply().unwrap().expect_ok().unwrap();

    let after = wait_for_drain(&mut admin, on);
    assert_eq!(ring_field(&after, on, "pairs"), Some(0), "{after:?}");
    let stats = admin.request("STATS?").unwrap().expect_lines().unwrap();
    let failures: u64 = stats
        .iter()
        .find_map(|l| l.strip_prefix("migration_failures "))
        .and_then(|v| v.trim().parse().ok())
        .unwrap();
    assert_eq!(failures, 0, "{stats:?}");

    // The migrated session runs to the same firing log as a direct run.
    let reference = reference_fired("blocks");
    let fired = run_to_completion(&mut c);
    assert_eq!(fired, reference, "blocks diverged across mid-batch drain");
    c.close().unwrap().expect_ok().unwrap();

    admin.request("SHUTDOWN").unwrap().expect_ok().unwrap();
    router.join().unwrap();
    b0.join().unwrap();
    b1.join().unwrap();
}

/// Regression: a pipelining client that half-closes its write side must
/// still receive every reply it is owed, exactly as on a direct
/// connection. The old router treated client EOF as connection death and
/// discarded queued and in-flight replies.
#[test]
fn half_closed_client_still_receives_pipelined_replies() {
    use std::io::{BufRead, BufReader, Write};

    let b0 = backend();
    let router = Router::bind("127.0.0.1:0", RouterConfig::new(vec![b0.addr]))
        .unwrap()
        .spawn();

    let s = std::net::TcpStream::connect(router.addr).unwrap();
    s.set_read_timeout(Some(std::time::Duration::from_secs(30)))
        .unwrap();
    let mut w = s.try_clone().unwrap();
    w.write_all(b"OPEN blocks psm\nRUN 0\nSTATS?\nFIRED?\nCLOSE\n")
        .unwrap();
    s.shutdown(std::net::Shutdown::Write).unwrap();

    let mut lines: Vec<String> = Vec::new();
    let mut r = BufReader::new(s);
    loop {
        let mut line = String::new();
        match r.read_line(&mut line) {
            Ok(0) => break,
            Ok(_) => lines.push(line.trim_end().to_string()),
            Err(e) => panic!("reply stream died early after {lines:?}: {e}"),
        }
    }
    // Replies, in order: OPEN, RUN, STATS? (all OK), the FIRED?
    // multi-line block, and the CLOSE acknowledgement.
    let oks = lines.iter().filter(|l| l.starts_with("OK ")).count();
    assert_eq!(oks, 4, "expected 4 OK replies, got {lines:?}");
    assert!(
        lines.iter().any(|l| l.starts_with("FIRED ")),
        "missing FIRED? reply: {lines:?}"
    );
    assert!(
        lines
            .last()
            .map(|l| l.starts_with("OK closed"))
            .unwrap_or(false),
        "CLOSE reply must be last: {lines:?}"
    );

    let mut admin = Client::connect(router.addr).unwrap();
    admin.request("ADMIN").unwrap().expect_ok().unwrap();
    admin.request("SHUTDOWN").unwrap().expect_ok().unwrap();
    router.join().unwrap();
    b0.join().unwrap();
}

/// Regression: a refused inline open (`OPEN - <unknown matcher>`) used to be
/// answered at its first line, leaving the program body to be parsed as
/// commands — several replies for what the router had counted as one
/// request, so its in-flight count (the thing `DRAIN` picks its safe point
/// from) and its session sniff went out of step. Server and router now run
/// the same framer: the body is consumed to `END`, one `ERR` comes back, the
/// next request is answered as itself, and a drain finds a clean safe point.
#[test]
fn refused_inline_open_draws_one_reply_and_drains_cleanly() {
    let b0 = backend();
    let b1 = backend();
    let router = Router::bind("127.0.0.1:0", RouterConfig::new(vec![b0.addr, b1.addr]))
        .unwrap()
        .spawn();
    let addr: SocketAddr = router.addr;

    let mut c = Client::connect(addr).unwrap();
    for l in [
        "OPEN - nosuch",
        "(literalize a x)",
        "(p r (a ^x 1) --> (halt))",
        "RUN 1",
        "END",
        "STATS?",
    ] {
        c.send_line(l).unwrap();
    }
    match c.read_reply().unwrap() {
        serve::ClientReply::Err(msg) => assert!(msg.contains("unknown matcher"), "{msg}"),
        other => panic!("expected ERR, got {other:?}"),
    }
    match c.read_reply().unwrap() {
        serve::ClientReply::Err(msg) => assert_eq!(msg, "no open session"),
        other => panic!("expected ERR, got {other:?}"),
    }
    // Exactly two replies: the next thing on the wire answers the next
    // request, not a leftover body line.
    let ok = c.open("blocks", Some("psm")).unwrap().expect_ok().unwrap();
    assert!(ok.contains("program=blocks"), "{ok}");
    c.run(30).unwrap().expect_ok().unwrap();

    let mut admin = Client::connect(addr).unwrap();
    admin.request("ADMIN").unwrap().expect_ok().unwrap();
    let ring = admin.request("RING?").unwrap().expect_lines().unwrap();
    let on = if ring_field(&ring, 0, "pairs") == Some(1) {
        0
    } else {
        1
    };
    assert_eq!(ring_field(&ring, on, "sessions"), Some(1), "{ring:?}");
    admin
        .request(&format!("DRAIN {on}"))
        .unwrap()
        .expect_ok()
        .unwrap();
    let after = wait_for_drain(&mut admin, on);
    assert_eq!(ring_field(&after, on, "pairs"), Some(0), "{after:?}");
    let stats = admin.request("STATS?").unwrap().expect_lines().unwrap();
    assert!(stats.contains(&"migrations 1".to_string()), "{stats:?}");
    assert!(
        stats.contains(&"migration_failures 0".to_string()),
        "{stats:?}"
    );

    let fired = run_to_completion(&mut c);
    assert_eq!(
        fired,
        reference_fired("blocks"),
        "diverged across the drain"
    );
    c.close().unwrap().expect_ok().unwrap();

    admin.request("SHUTDOWN").unwrap().expect_ok().unwrap();
    router.join().unwrap();
    b0.join().unwrap();
    b1.join().unwrap();
}

/// A router-originated reply takes its request's place in the reply
/// stream. Pipelined behind an `OPEN` and a `RUN` that are still on the
/// backend, the refusal of a client `SHUTDOWN` must come back third, not
/// first: a client that reads in order would otherwise take it for the
/// `OPEN`'s answer.
#[test]
fn a_pipelined_refusal_comes_back_in_request_order() {
    let b0 = backend();
    let router = Router::bind("127.0.0.1:0", RouterConfig::new(vec![b0.addr]))
        .unwrap()
        .spawn();

    let mut c = Client::connect(router.addr).unwrap();
    for l in ["OPEN hanoi vs2", "RUN 1000", "SHUTDOWN", "STATS?"] {
        c.send_line(l).unwrap();
    }
    let open = c.read_reply().unwrap().expect_ok().unwrap();
    assert!(open.starts_with("session "), "{open}");
    let run = c.read_reply().unwrap().expect_ok().unwrap();
    assert!(run.starts_with("cycles="), "{run}");
    match c.read_reply().unwrap() {
        serve::ClientReply::Err(msg) => assert!(msg.contains("ADMIN"), "{msg}"),
        other => panic!("expected the SHUTDOWN refusal, got {other:?}"),
    }
    let stats = c.read_reply().unwrap().expect_ok().unwrap();
    assert!(stats.contains("program=hanoi"), "{stats}");
    c.close().unwrap().expect_ok().unwrap();

    let mut admin = Client::connect(router.addr).unwrap();
    admin.request("ADMIN").unwrap().expect_ok().unwrap();
    admin.request("SHUTDOWN").unwrap().expect_ok().unwrap();
    router.join().unwrap();
    b0.join().unwrap();
}
