//! Integration tests for the serve layer: served sessions must be
//! observably identical to direct in-process engine runs, on every matcher.

use parallel_ops5::prelude::*;
use proptest::prelude::*;
use serve::protocol::ReplyFramer;
use serve::{matcher_kind, BatchItem, Command, Registry, ServeConfig, Server, Session};
use std::net::SocketAddr;
use std::sync::OnceLock;

/// One shared server for the whole test binary (leaked; the process exit
/// reaps it). Deep inboxes: these tests exercise semantics, not
/// backpressure.
fn server_addr() -> SocketAddr {
    static SERVER: OnceLock<SocketAddr> = OnceLock::new();
    *SERVER.get_or_init(|| {
        let cfg = ServeConfig {
            workers: 2,
            queue_depth: 512,
            programs_dir: Some("programs".into()),
            ..ServeConfig::default()
        };
        let handle = Server::bind("127.0.0.1:0", cfg).unwrap().spawn();
        let addr = handle.addr;
        std::mem::forget(handle);
        addr
    })
}

fn fired_lines(eng: &Engine) -> Vec<String> {
    eng.fired_log()
        .iter()
        .map(|(p, tags)| {
            let t: Vec<String> = tags.iter().map(|x| x.to_string()).collect();
            format!("{} {}", eng.prog.prod_name(*p), t.join(" "))
        })
        .collect()
}

fn cs_lines(eng: &Engine) -> Vec<String> {
    eng.conflict_set()
        .sorted_keys()
        .iter()
        .map(|(p, tags)| {
            let t: Vec<String> = tags.iter().map(|x| x.to_string()).collect();
            format!("{} {}", eng.prog.prod_name(*p), t.join(" "))
        })
        .collect()
}

/// Every corpus program, served on a PSM session and run in bounded `RUN`
/// chunks, fires exactly like a direct engine run of the same profile.
#[test]
fn served_corpus_matches_direct_runs() {
    let reg = Registry::with_builtins(Some("programs".as_ref()));
    for program in ["blocks", "fibonacci", "monkey", "hanoi", "rubik"] {
        let mut eng = reg
            .get(program)
            .unwrap()
            .build(matcher_kind("psm").unwrap(), Default::default(), None)
            .unwrap();
        eng.run(400_000).unwrap();
        let reference = fired_lines(&eng);
        assert!(!reference.is_empty(), "{program} did nothing");

        let mut c = serve::Client::connect(server_addr()).unwrap();
        c.open(program, Some("psm")).unwrap().expect_ok().unwrap();
        for _ in 0..400 {
            let payload = c.run(1000).unwrap().expect_ok().unwrap();
            if !payload.contains("reason=limit") {
                break;
            }
        }
        let fired = c.fired().unwrap().expect_lines().unwrap();
        assert_eq!(fired, reference, "served {program} diverged");
        c.close().unwrap().expect_ok().unwrap();
    }
}

/// Several concurrent connections of mixed corpus programs, all equal to
/// their direct references.
#[test]
fn concurrent_mixed_sessions_all_agree() {
    let reg = Registry::with_builtins(Some("programs".as_ref()));
    let programs = ["blocks", "hanoi", "monkey", "blocks", "hanoi", "monkey"];
    let refs: Vec<Vec<String>> = programs
        .iter()
        .map(|p| {
            let mut eng = reg
                .get(p)
                .unwrap()
                .build(matcher_kind("psm").unwrap(), Default::default(), None)
                .unwrap();
            eng.run(400_000).unwrap();
            fired_lines(&eng)
        })
        .collect();
    let addr = server_addr();
    let threads: Vec<_> = programs
        .into_iter()
        .zip(refs)
        .map(|(program, reference)| {
            std::thread::spawn(move || {
                let mut c = serve::Client::connect(addr).unwrap();
                c.open(program, Some("psm")).unwrap().expect_ok().unwrap();
                for _ in 0..400 {
                    let payload = c.run(500).unwrap().expect_ok().unwrap();
                    if !payload.contains("reason=limit") {
                        break;
                    }
                }
                let fired = c.fired().unwrap().expect_lines().unwrap();
                assert_eq!(fired, reference, "served {program} diverged");
                c.close().unwrap().expect_ok().unwrap();
            })
        })
        .collect();
    for t in threads {
        t.join().unwrap();
    }
}

/// `WM?` with a name that is not a class — never interned, or interned as
/// an attribute — must be an explicit error over the wire, not `WM 0`.
/// The `matcher=` an `OPEN` answers is a name `OPEN` and `MIGRATE` take:
/// a session migrates to exactly the matcher it was opened on.
#[test]
fn a_session_migrates_to_the_matcher_name_it_was_opened_with() {
    for m in MatcherKind::NAMES {
        let mut c = serve::Client::connect(server_addr()).unwrap();
        let open = c.open("blocks", Some(m)).unwrap().expect_ok().unwrap();
        let named = open
            .split_whitespace()
            .find_map(|w| w.strip_prefix("matcher="))
            .unwrap_or_else(|| panic!("OPEN {m}: no matcher= in {open:?}"));
        let migrated = (c.migrate(Some(named)).unwrap().expect_ok())
            .unwrap_or_else(|e| panic!("MIGRATE {named}, as OPEN {m} answered: {e}"));
        assert!(
            migrated.starts_with(&format!("matcher={named} ")),
            "MIGRATE {named}: {migrated:?}"
        );
        assert_eq!(named, *m, "OPEN {m} answered {open:?}");
        c.close().unwrap().expect_ok().unwrap();
    }
}

#[test]
fn wm_unknown_class_errors_over_wire() {
    let addr = server_addr();
    let mut c = serve::Client::connect(addr).unwrap();
    c.open_source(PROP_SRC, Some("vs2"))
        .unwrap()
        .expect_ok()
        .unwrap();
    c.assert_wme("a ^x 1 ^y 2").unwrap().unwrap();
    c.run(0).unwrap().expect_ok().unwrap();
    match c.wm(Some("nosuch")).unwrap() {
        serve::ClientReply::Err(msg) => assert!(msg.contains("unknown class `nosuch`"), "{msg}"),
        other => panic!("expected ERR, got {other:?}"),
    }
    // `x` is interned (it is an attribute) but is not a class.
    match c.wm(Some("x")).unwrap() {
        serve::ClientReply::Err(msg) => assert!(msg.contains("unknown class `x`"), "{msg}"),
        other => panic!("expected ERR, got {other:?}"),
    }
    // Real classes still answer.
    let lines = c.wm(Some("a")).unwrap().expect_lines().unwrap();
    assert_eq!(lines.len(), 1);
    c.close().unwrap().expect_ok().unwrap();
}

/// Malformed batch bodies must name the offending 1-based line (blanks
/// count: the number matches what the client actually sent after `BATCH`).
#[test]
fn batch_errors_name_the_offending_line() {
    let addr = server_addr();
    let mut c = serve::Client::connect(addr).unwrap();
    c.open_source(PROP_SRC, Some("vs2"))
        .unwrap()
        .expect_ok()
        .unwrap();

    // Line 3 (after one good ASSERT and one blank) fails to parse. The
    // framing loop stops at the bad line, so the trailing END falls through
    // as a top-level command and earns its own error reply.
    for l in ["BATCH", "ASSERT a ^x 1", "", "RETRACT nope", "END"] {
        c.send_line(l).unwrap();
    }
    match c.read_reply().unwrap() {
        serve::ClientReply::Err(msg) => assert!(msg.starts_with("BATCH line 3:"), "{msg}"),
        other => panic!("expected ERR, got {other:?}"),
    }
    match c.read_reply().unwrap() {
        serve::ClientReply::Err(msg) => assert!(msg.contains("END outside BATCH"), "{msg}"),
        other => panic!("expected ERR, got {other:?}"),
    }

    // A body that parses but stages an unknown class fails at execute time,
    // still naming its line.
    for l in ["BATCH", "ASSERT a ^x 1", "ASSERT zork ^q 1", "END"] {
        c.send_line(l).unwrap();
    }
    match c.read_reply().unwrap() {
        serve::ClientReply::Err(msg) => assert!(msg.starts_with("BATCH line 2:"), "{msg}"),
        other => panic!("expected ERR, got {other:?}"),
    }

    // A non-ASSERT/RETRACT verb inside a batch names its line too (again
    // with the trailing END falling through).
    for l in ["BATCH", "ASSERT a ^x 1", "RUN 5", "END"] {
        c.send_line(l).unwrap();
    }
    match c.read_reply().unwrap() {
        serve::ClientReply::Err(msg) => assert!(msg.starts_with("BATCH line 2:"), "{msg}"),
        other => panic!("expected ERR, got {other:?}"),
    }
    match c.read_reply().unwrap() {
        serve::ClientReply::Err(msg) => assert!(msg.contains("END outside BATCH"), "{msg}"),
        other => panic!("expected ERR, got {other:?}"),
    }
    c.close().unwrap().expect_ok().unwrap();
}

/// `METRICS?` against a server without observability is an explicit error.
#[test]
fn metrics_query_errors_when_obs_disabled() {
    let addr = server_addr();
    let mut c = serve::Client::connect(addr).unwrap();
    match c.metrics().unwrap() {
        serve::ClientReply::Err(msg) => assert!(msg.contains("disabled"), "{msg}"),
        other => panic!("expected ERR, got {other:?}"),
    }
}

/// Boots an obs-enabled server with the HTTP endpoint, runs one session per
/// matcher, and checks both the `METRICS?` round-trip and the endpoint
/// scrape expose per-session phase histograms, per-node profiles, and the
/// pool's per-command latencies.
#[test]
fn metrics_roundtrip_and_endpoint_scrape() {
    let cfg = ServeConfig {
        workers: 2,
        queue_depth: 512,
        programs_dir: Some("programs".into()),
        obs: ObsConfig::enabled(),
        metrics_port: Some(0),
        ..ServeConfig::default()
    };
    let handle = Server::bind("127.0.0.1:0", cfg).unwrap().spawn();
    let addr = handle.addr;
    let metrics_addr = handle.metrics_addr.expect("metrics endpoint bound");

    // One live session per matcher, each having done some work. Kept open so
    // METRICS? still sees them.
    let mut clients = Vec::new();
    for m in ["vs1", "vs2", "lisp", "psm", "col"] {
        let mut c = serve::Client::connect(addr).unwrap();
        c.open("blocks", Some(m)).unwrap().expect_ok().unwrap();
        c.run(100).unwrap().expect_ok().unwrap();
        clients.push(c);
    }

    let lines = clients[0].metrics().unwrap().expect_lines().unwrap();
    let text = lines.join("\n");
    // Every matcher kind reports a distinct name; all five sessions must
    // show up individually.
    for m in ["vs1", "vs2", "lisp", "psm", "col"] {
        assert!(
            text.contains(&format!("matcher=\"{m}\"")),
            "exposition missing matcher {m}:\n{text}"
        );
    }
    for sid in 1..=5 {
        assert!(
            text.contains(&format!("session=\"{sid}\"")),
            "exposition missing session {sid}:\n{text}"
        );
    }
    // Phase histograms per session, pool command latencies, psm worker
    // instruments, and per-node profiling for the rete-based matchers.
    assert!(text.contains("engine_match_ns_bucket"), "{text}");
    assert!(text.contains("engine_act_ns_sum"), "{text}");
    assert!(text.contains("serve_command_ns_bucket"), "{text}");
    assert!(text.contains("cmd=\"run\""), "{text}");
    assert!(text.contains("psm_task_latency_ns_bucket"), "{text}");
    assert!(text.contains("rete_join_activations_total"), "{text}");
    assert!(text.contains("prod="), "{text}");

    // The HTTP endpoint serves the same exposition.
    {
        use std::io::{Read, Write};
        let mut s = std::net::TcpStream::connect(metrics_addr).unwrap();
        s.write_all(b"GET /metrics HTTP/1.0\r\n\r\n").unwrap();
        let mut resp = String::new();
        s.read_to_string(&mut resp).unwrap();
        assert!(resp.starts_with("HTTP/1.0 200 OK"), "{resp}");
        assert!(resp.contains("text/plain; version=0.0.4"), "{resp}");
        let body = resp.split("\r\n\r\n").nth(1).expect("http body");
        assert!(body.contains("engine_match_ns_bucket"), "{body}");
        assert!(body.contains("serve_command_ns_bucket"), "{body}");
    }

    for mut c in clients {
        c.close().unwrap().expect_ok().unwrap();
    }
    let mut c = serve::Client::connect(addr).unwrap();
    c.shutdown().unwrap().expect_ok().unwrap();
    handle.join().unwrap();
}

/// Writes `bytes` to a raw socket in `chunk`-sized pieces with small
/// pauses (forcing the server to see arbitrary partial-line read
/// boundaries), then reads exactly `expected` framed replies, each rendered
/// back to its wire text.
fn drive_raw(addr: SocketAddr, bytes: &[u8], chunk: usize, expected: usize) -> Vec<String> {
    use std::io::{BufRead, BufReader, Write};
    let mut s = std::net::TcpStream::connect(addr).unwrap();
    s.set_nodelay(true).unwrap();
    s.set_read_timeout(Some(std::time::Duration::from_secs(30)))
        .unwrap();
    for piece in bytes.chunks(chunk) {
        s.write_all(piece).unwrap();
        std::thread::sleep(std::time::Duration::from_micros(300));
    }
    let mut lines = BufReader::new(s).lines();
    let mut framer = ReplyFramer::new();
    let mut replies = Vec::new();
    while replies.len() < expected {
        let line = lines
            .next()
            .unwrap_or_else(|| panic!("EOF after {} of {expected} replies", replies.len()))
            .unwrap();
        if let Some(reply) = framer.push(line) {
            replies.push(reply.to_string());
        }
    }
    replies
}

/// Replaces the per-connection session id so reply streams from different
/// connections compare equal.
fn normalize_session_ids(replies: &[String]) -> Vec<String> {
    replies
        .iter()
        .map(|r| match r.find("session ") {
            Some(at) => {
                let digits = r[at + 8..]
                    .chars()
                    .take_while(|c| c.is_ascii_digit())
                    .count();
                format!("{}session N{}", &r[..at], &r[at + 8 + digits..])
            }
            None => r.clone(),
        })
        .collect()
}

/// Runs `script` against the shared server unfragmented and at 1-, 3-, 7-
/// and 4096-byte write granularity — splitting lines, bodies and tokens
/// across reads — and requires every reply stream to equal `reference`.
/// The chunking property itself is proved without sockets
/// (`serve::protocol`'s `framing_is_chunking_invariant`); this is the one
/// place it is checked through the epoll driver and real `read(2)`s.
fn assert_every_chunking_matches(script: &str, reference: &[String]) {
    for chunk in [script.len(), 1, 3, 7, 4096] {
        let replies = drive_raw(server_addr(), script.as_bytes(), chunk, reference.len());
        assert_eq!(
            normalize_session_ids(&replies),
            reference,
            "reply stream diverged at {chunk}-byte writes"
        );
    }
}

/// A script covering an inline `OPEN -` body, a `BATCH` body (including a
/// mid-body parse error), and every common verb. The reference is not
/// another server: it is an in-process [`Session`] executing the commands
/// the script should frame to, with the connection-level replies spelled
/// out, so a framing bug cannot hide by being consistent.
#[test]
fn fragmented_writes_parse_identically_at_every_chunking() {
    const SRC: &str = "(literalize a x y)\n\
        (literalize b x y)\n\
        (p join (a ^x <x> ^y <y>) (b ^x <x>) --> (halt))\n";
    let script = format!(
        "OPEN - vs2\n{SRC}end\n\
        ASSERT a ^x 1 ^y 2\n\
        BATCH\n\
        ASSERT a ^x 2 ^y 1\n\
        ASSERT b ^x 1 ^y 0\n\
        END\n\
        BATCH\n\
        ASSERT a ^x 3 ^y 3\n\
        RUN 1\n\
        END\n\
        RUN 0\n\
        CS?\n\
        WM? a\n\
        NOSUCHVERB\n\
        CLOSE\n"
    );

    let kind = matcher_kind("vs2").unwrap();
    let engine = EngineBuilder::from_source(SRC)
        .unwrap()
        .matcher(kind.clone())
        .build()
        .unwrap();
    let mut session = Session::new(
        0,
        "-",
        engine,
        kind,
        ServeConfig::default().max_cycles_per_run,
    );
    let mut exec = |cmd: Command| session.execute(cmd).to_string();
    let assert = |line, body: &str| BatchItem::Assert {
        line,
        body: body.into(),
    };
    let reference = vec![
        "OK session N program=- matcher=vs2\n".to_string(),
        exec(Command::Assert("a ^x 1 ^y 2".into())),
        exec(Command::Batch(vec![
            assert(1, "a ^x 2 ^y 1"),
            assert(2, "b ^x 1 ^y 0"),
        ])),
        // The second batch aborts at its bad line; its END is then a stray.
        "ERR BATCH line 2: only ASSERT/RETRACT allowed, got Run(1)\n".to_string(),
        "ERR END outside BATCH\n".to_string(),
        exec(Command::Run(0)),
        exec(Command::Cs),
        exec(Command::Wm(Some("a".into()))),
        "ERR unknown request `NOSUCHVERB`\n".to_string(),
        exec(Command::Close),
    ];
    assert!(reference[6].starts_with("CS 1\n"), "{}", reference[6]);
    assert_every_chunking_matches(&script, &reference);
}

/// Per-session order through the epoll driver: bounded commands (which a
/// connection's thread may run itself) pipelined behind `RUN`s (which a
/// worker runs) answer in request order and see the state the run left, at
/// every write granularity.
#[test]
fn bounded_commands_pipelined_behind_runs_answer_in_order_at_every_chunking() {
    const SRC: &str = "(literalize c n)\n\
        (p count (c ^n <n>) --> (modify 1 ^n (compute <n> + 1)))\n";
    let requests = [
        ("ASSERT c ^n 0", Command::Assert("c ^n 0".into())),
        ("RUN 40", Command::Run(40)),
        ("WM?", Command::Wm(None)),
        ("ASSERT c ^n 100", Command::Assert("c ^n 100".into())),
        ("STATS?", Command::Stats),
        ("RUN 2", Command::Run(2)),
        ("WM? c", Command::Wm(Some("c".into()))),
        ("FIRED?", Command::Fired),
        ("CLOSE", Command::Close),
    ];
    let wires: Vec<&str> = requests.iter().map(|(wire, _)| *wire).collect();
    let script = format!("OPEN - vs2\n{SRC}end\n{}\n", wires.join("\n"));

    let kind = matcher_kind("vs2").unwrap();
    let engine = EngineBuilder::from_source(SRC)
        .unwrap()
        .matcher(kind.clone())
        .build()
        .unwrap();
    let max_cycles = ServeConfig::default().max_cycles_per_run;
    let mut session = Session::new(0, "-", engine, kind, max_cycles);
    let mut reference = vec!["OK session N program=- matcher=vs2\n".to_string()];
    for (_, cmd) in requests {
        reference.push(session.execute(cmd).to_string());
    }
    assert_eq!(reference[3], "WM 1\n41 (c ^n 40)\nEND\n");
    assert_every_chunking_matches(&script, &reference);
}

/// `RESTORE` bodies (snapshot text, which itself contains a lowercase
/// `end` terminator line) survive arbitrary read boundaries, and the
/// restored session answers exactly like an in-process [`Session::restore`]
/// of the same snapshot.
#[test]
fn fragmented_restore_parses_identically_at_every_chunking() {
    let mut c = serve::Client::connect(server_addr()).unwrap();
    c.open("blocks", Some("vs2")).unwrap().expect_ok().unwrap();
    c.run(5).unwrap().expect_ok().unwrap();
    let snapshot = c.snapshot().unwrap().expect_lines().unwrap();
    c.close().unwrap().expect_ok().unwrap();

    let mut script = String::from("RESTORE blocks vs2\n");
    for l in &snapshot {
        script.push_str(l);
        script.push('\n');
    }
    script.push_str("END\nRUN 0\nFIRED?\nCLOSE\n");

    let kind = matcher_kind("vs2").unwrap();
    let engine = Registry::with_builtins(Some("programs".as_ref()))
        .get("blocks")
        .unwrap()
        .build_empty(kind.clone(), Default::default())
        .unwrap();
    let (mut session, replayed) = Session::restore(
        0,
        "blocks",
        engine,
        kind,
        ServeConfig::default().max_cycles_per_run,
        &snapshot.join("\n"),
        "",
    )
    .unwrap();
    assert_eq!(replayed, 0);
    let cycles = session.engine().cycles();
    let mut exec = |cmd: Command| session.execute(cmd).to_string();
    let reference = vec![
        format!("OK session N program=blocks matcher=vs2 replayed=0 cycles={cycles}\n"),
        exec(Command::Run(0)),
        exec(Command::Fired),
        exec(Command::Close),
    ];
    assert!(cycles > 0 && !reference[2].starts_with("FIRED 0\n"));
    assert_every_chunking_matches(&script, &reference);
}

/// The slow-client guard: a connection that floods
/// commands without ever reading replies is eventually cut off with a
/// final `ERR overloaded` instead of buffering without bound.
#[test]
fn slow_client_is_disconnected_with_final_error() {
    use std::io::{Read, Write};
    let cfg = ServeConfig {
        workers: 1,
        queue_depth: 512,
        programs_dir: Some("programs".into()),
        // Tiny outbound cap so the test trips it quickly.
        write_buf_cap: 2048,
        ..ServeConfig::default()
    };
    let handle = Server::bind("127.0.0.1:0", cfg).unwrap().spawn();
    let addr = handle.addr;

    let mut s = std::net::TcpStream::connect(addr).unwrap();
    s.set_nodelay(true).unwrap();
    s.set_read_timeout(Some(std::time::Duration::from_secs(30)))
        .unwrap();
    // Build a session whose WM? dump is a few KB, then flood WM? without
    // ever reading a reply: the outbound data dwarfs the kernel socket
    // buffers, so the server-side write buffer must hit its cap.
    let mut setup =
        String::from("OPEN - vs2\n(literalize a x)\n(p never (a ^x -1) --> (halt))\nEND\nBATCH\n");
    for i in 0..200 {
        setup.push_str(&format!("ASSERT a ^x {i}\n"));
    }
    setup.push_str("END\nRUN 0\n");
    s.write_all(setup.as_bytes()).unwrap();
    let mut tripped = false;
    for _ in 0..5000 {
        if s.write_all(b"WM?\n").is_err() {
            // Server already closed on us (RST after the final ERR).
            tripped = true;
            break;
        }
    }
    // Now drain. A server without the guard would keep the connection
    // open forever (we time out); the guarded server terminates it —
    // ideally after a final `ERR overloaded`, though the close may reach
    // us as a reset that discards the tail.
    let mut all = Vec::new();
    let mut tmp = [0u8; 65536];
    let mut timed_out = false;
    loop {
        match s.read(&mut tmp) {
            Ok(0) => break,
            Ok(n) => all.extend_from_slice(&tmp[..n]),
            Err(e) => {
                timed_out = matches!(
                    e.kind(),
                    std::io::ErrorKind::WouldBlock | std::io::ErrorKind::TimedOut
                );
                break;
            }
        }
    }
    let text = String::from_utf8_lossy(&all);
    let saw_final_err = text
        .lines()
        .rev()
        .find(|l| !l.is_empty())
        .map(|l| l.starts_with("ERR overloaded"))
        .unwrap_or(false);
    // Any non-timeout termination counts as a cut-off: the server may close
    // with unread input queued, which sends RST and can discard the final
    // `ERR overloaded` line before we read it.
    assert!(
        !timed_out,
        "slow client was never cut off (tripped={tripped}, saw_final_err={saw_final_err})"
    );

    let mut shut = serve::Client::connect(addr).unwrap();
    shut.shutdown().unwrap().expect_ok().unwrap();
    handle.join().unwrap();
}

/// Regression: an overloaded connection whose client *never*
/// reads must be force-closed after the overload grace period — it must
/// not keep WRITABLE-only interest and pin the fd plus up to
/// `write_buf_cap` bytes indefinitely. The close arrives as a reset
/// (unread input is queued server-side), so the first read after the
/// grace period fails instead of returning buffered reply bytes.
#[test]
fn overloaded_connection_is_force_closed_if_never_drained() {
    use std::io::{Read, Write};
    let cfg = ServeConfig {
        workers: 1,
        queue_depth: 512,
        programs_dir: Some("programs".into()),
        write_buf_cap: 2048,
        ..ServeConfig::default()
    };
    let handle = Server::bind("127.0.0.1:0", cfg).unwrap().spawn();
    let addr = handle.addr;

    let mut s = std::net::TcpStream::connect(addr).unwrap();
    s.set_nodelay(true).unwrap();
    s.set_read_timeout(Some(std::time::Duration::from_secs(30)))
        .unwrap();
    let mut setup =
        String::from("OPEN - vs2\n(literalize a x)\n(p never (a ^x -1) --> (halt))\nEND\nBATCH\n");
    for i in 0..200 {
        setup.push_str(&format!("ASSERT a ^x {i}\n"));
    }
    setup.push_str("END\nRUN 0\n");
    s.write_all(setup.as_bytes()).unwrap();
    for _ in 0..5000 {
        if s.write_all(b"WM?\n").is_err() {
            break;
        }
    }
    // Never read. Past OVERLOAD_GRACE (5s) plus the sweep cadence, the
    // server must have torn the connection down on its own.
    std::thread::sleep(std::time::Duration::from_secs(7));
    let mut tmp = [0u8; 65536];
    let mut force_closed = false;
    for _ in 0..64 {
        match s.read(&mut tmp) {
            Ok(0) => {
                force_closed = true;
                break;
            }
            Ok(_) => continue, // kernel-buffered bytes from before the close
            Err(e)
                if matches!(
                    e.kind(),
                    std::io::ErrorKind::WouldBlock | std::io::ErrorKind::TimedOut
                ) =>
            {
                break;
            }
            Err(_) => {
                force_closed = true;
                break;
            }
        }
    }
    assert!(
        force_closed,
        "overloaded connection was still alive 7s after the cut-off"
    );

    let mut shut = serve::Client::connect(addr).unwrap();
    shut.shutdown().unwrap().expect_ok().unwrap();
    handle.join().unwrap();
}

const PROP_SRC: &str = "(literalize a x y)
(literalize b x y)
(p join (a ^x <x> ^y <y>) (b ^x <x>) --> (halt))
(p lone (a ^x <x>) - (b ^y <x>) --> (halt))";

/// One generated WME as a protocol `ASSERT` body.
fn gen_wme() -> impl Strategy<Value = String> {
    (prop_oneof!["a", "b"], 0i64..3, 0i64..3)
        .prop_map(|(class, x, y)| format!("{class} ^x {x} ^y {y}"))
}

/// A stream of WMEs plus chunk sizes partitioning it.
fn gen_chunked_stream() -> impl Strategy<Value = Vec<Vec<String>>> {
    proptest::collection::vec(proptest::collection::vec(gen_wme(), 1..4), 1..5)
}

proptest! {
    #![proptest_config(ProptestConfig { cases: 12, .. ProptestConfig::default() })]

    /// The satellite property: a session's ASSERTs split across multiple
    /// `RUN 0` settles produce the same conflict-set history, on all four
    /// matchers through the serve layer, as a direct engine staging the
    /// same chunks — and in particular the final CS equals one big batch.
    #[test]
    fn chunked_ingestion_matches_direct_staging(chunks in gen_chunked_stream()) {
        let addr = server_addr();
        for m in ["vs1", "vs2", "lisp", "psm"] {
            // Direct engine: stage chunk, settle, snapshot CS — the ground
            // truth history.
            let mut eng = EngineBuilder::from_source(PROP_SRC)
                .unwrap()
                .matcher(matcher_kind(m).unwrap())
                .build()
                .unwrap();
            let mut want_history = Vec::new();
            for chunk in &chunks {
                for body in chunk {
                    let prog = &mut eng.prog;
                    let (class, fields) =
                        ops5::wire::parse_wme_text(body, &mut prog.symbols, &prog.classes)
                            .unwrap();
                    eng.stage(class, fields).unwrap();
                }
                eng.settle();
                want_history.push(cs_lines(&eng));
            }

            // Served session: same chunks as BATCH + RUN 0, CS? after each.
            let mut c = serve::Client::connect(addr).unwrap();
            c.open_source(PROP_SRC, Some(m)).unwrap().expect_ok().unwrap();
            let mut got_history = Vec::new();
            for chunk in &chunks {
                c.send_line("BATCH").unwrap();
                for body in chunk {
                    c.send_line(&format!("ASSERT {body}")).unwrap();
                }
                c.send_line("END").unwrap();
                c.read_reply().unwrap().expect_ok().unwrap();
                c.run(0).unwrap().expect_ok().unwrap();
                got_history.push(c.cs().unwrap().expect_lines().unwrap());
            }
            c.close().unwrap().expect_ok().unwrap();
            prop_assert_eq!(&got_history, &want_history, "matcher {}", m);

            // And the whole stream in one batch ends at the same CS.
            let mut one = EngineBuilder::from_source(PROP_SRC)
                .unwrap()
                .matcher(matcher_kind(m).unwrap())
                .build()
                .unwrap();
            for body in chunks.iter().flatten() {
                let prog = &mut one.prog;
                let (class, fields) =
                    ops5::wire::parse_wme_text(body, &mut prog.symbols, &prog.classes).unwrap();
                one.stage(class, fields).unwrap();
            }
            one.settle();
            prop_assert_eq!(
                want_history.last().unwrap(),
                &cs_lines(&one),
                "chunked vs one-batch final CS, matcher {}",
                m
            );
        }
    }
}

/// `RUN n` consumes exactly `n` firings: a served `triage` session run in
/// `RUN 5` steps reports five cycles per step until it quiesces, and fires
/// exactly like a direct engine run.
#[test]
fn served_run_budget_stops_on_the_requested_cycle() {
    let mut eng = Registry::with_builtins(Some("programs".as_ref()))
        .get("triage")
        .unwrap()
        .build(MatcherKind::default(), Default::default(), None)
        .unwrap();
    eng.run(100_000).unwrap();
    let reference = fired_lines(&eng);
    let mut c = serve::Client::connect(server_addr()).unwrap();
    c.open("triage", None).unwrap().expect_ok().unwrap();
    let first = c.run(5).unwrap().expect_ok().unwrap();
    assert!(first.contains("cycles=5 reason=limit total=5"), "{first}");
    for step in 2.. {
        let payload = c.run(5).unwrap().expect_ok().unwrap();
        if !payload.contains("reason=limit") {
            break;
        }
        let want = format!("cycles=5 reason=limit total={}", 5 * step);
        assert!(payload.contains(&want), "{payload}");
    }
    assert_eq!(c.fired().unwrap().expect_lines().unwrap(), reference);
    c.close().unwrap().expect_ok().unwrap();
}

/// A throw-away corpus directory holding exactly the given programs.
fn corpus_dir(tag: &str, files: &[(&str, &str)]) -> std::path::PathBuf {
    let dir = std::env::temp_dir().join(format!("serve-test-{tag}-{}", std::process::id()));
    let _ = std::fs::remove_dir_all(&dir);
    std::fs::create_dir_all(&dir).unwrap();
    for (stem, src) in files {
        std::fs::write(dir.join(format!("{stem}.ops")), src).unwrap();
    }
    dir
}

/// The value of the one counter row of a `METRICS?` body that starts with
/// `series` (a name, or a name with its labels).
fn counter_of(metrics: &[String], series: &str) -> u64 {
    let row = format!("{series} ");
    let hits: Vec<&String> = metrics.iter().filter(|l| l.starts_with(&row)).collect();
    assert_eq!(hits.len(), 1, "one row for {series}: {hits:?}");
    hits[0][row.len()..].parse().unwrap()
}

fn compiles_of(metrics: &[String], program: &str) -> u64 {
    let series = format!("serve_program_compiles_total{{program=\"{program}\"}}");
    counter_of(metrics, &series)
}

/// Ten `OPEN`s of one program, plus a `RESTORE` and a `MIGRATE`: the program
/// is parsed and compiled exactly once, and an unopened program not at all.
#[test]
fn a_program_compiles_once_however_many_sessions_open_it() {
    let cfg = ServeConfig {
        workers: 2,
        queue_depth: 512,
        programs_dir: Some("programs".into()),
        obs: ObsConfig::enabled(),
        ..ServeConfig::default()
    };
    let handle = Server::bind("127.0.0.1:0", cfg).unwrap().spawn();
    let mut c = serve::Client::connect(handle.addr).unwrap();
    let before = c.metrics().unwrap().expect_lines().unwrap();
    assert_eq!(compiles_of(&before, "hanoi"), 0, "bind compiles nothing");

    let mut snapshot = Vec::new();
    for i in 0..10 {
        let matcher = ["vs1", "vs2", "col", "psm", "lisp"][i % 5];
        c.open("hanoi", Some(matcher)).unwrap().expect_ok().unwrap();
        c.run(7).unwrap().expect_ok().unwrap();
        snapshot = c.snapshot().unwrap().expect_lines().unwrap();
        c.close().unwrap().expect_ok().unwrap();
    }
    c.restore("hanoi", Some("col"), &snapshot.join("\n"))
        .unwrap()
        .expect_ok()
        .unwrap();
    c.migrate(Some("vs2")).unwrap().expect_ok().unwrap();
    c.run(1000).unwrap().expect_ok().unwrap();
    c.close().unwrap().expect_ok().unwrap();

    let after = c.metrics().unwrap().expect_lines().unwrap();
    assert_eq!(compiles_of(&after, "hanoi"), 1);
    assert_eq!(compiles_of(&after, "blocks"), 0);
    let total: u64 = after
        .iter()
        .filter(|l| l.starts_with("serve_program_compiles_total{"))
        .map(|l| l.rsplit(' ').next().unwrap().parse::<u64>().unwrap())
        .sum();
    assert_eq!(total, 1, "one distinct program opened");
    c.shutdown().unwrap().expect_ok().unwrap();
    handle.join().unwrap();
}

/// A registry program that does not parse answers the same `ERR` on the
/// first and every later `OPEN`/`RESTORE`, and leaves its neighbours usable.
#[test]
fn a_broken_registry_program_answers_the_same_error_every_time() {
    let dir = corpus_dir(
        "broken",
        &[
            ("broken", "(p oops (a ^x 1) -->"),
            (
                "fine",
                "(literalize a x)\n(make a ^x 1)\n(p r (a ^x 1) --> (halt))",
            ),
        ],
    );
    let cfg = ServeConfig {
        workers: 2,
        programs_dir: Some(dir.clone()),
        obs: ObsConfig::enabled(),
        ..ServeConfig::default()
    };
    let handle = Server::bind("127.0.0.1:0", cfg).unwrap().spawn();
    let mut c = serve::Client::connect(handle.addr).unwrap();
    let mut errs = Vec::new();
    for _ in 0..3 {
        match c.open("broken", None).unwrap() {
            serve::ClientReply::Err(msg) => errs.push(msg),
            other => panic!("expected ERR, got {other:?}"),
        }
    }
    match c.restore("broken", None, "ops5-snapshot v1\nend").unwrap() {
        serve::ClientReply::Err(msg) => errs.push(msg),
        other => panic!("expected ERR, got {other:?}"),
    }
    assert!(errs[0].contains("parse error"), "{}", errs[0]);
    assert!(errs.iter().all(|e| *e == errs[0]), "{errs:?}");
    c.open("fine", None).unwrap().expect_ok().unwrap();
    let ran = c.run(10).unwrap().expect_ok().unwrap();
    assert!(ran.contains("cycles=1 reason=halt"), "{ran}");
    c.close().unwrap().expect_ok().unwrap();
    let metrics = c.metrics().unwrap().expect_lines().unwrap();
    assert_eq!(compiles_of(&metrics, "broken"), 1, "failure is cached");
    assert_eq!(compiles_of(&metrics, "fine"), 1);
    c.shutdown().unwrap().expect_ok().unwrap();
    handle.join().unwrap();
    let _ = std::fs::remove_dir_all(dir);
}

/// Two live sessions on one cached registry program, interleaved command
/// by command, each asserting symbols the other never sees (in opposite
/// orders) and drawing `bind` gensyms: every reply equals that of a solo
/// session on the same source opened inline (`OPEN -`, never cached), on
/// all five matchers.
#[test]
fn sessions_of_one_cached_program_do_not_see_each_other() {
    const SRC: &str = "(literalize item name tag)
(p label (item ^name <n> ^tag nil) --> (bind <g>) (modify 1 ^tag <g>) (write <n> <g> (crlf)))";
    let dir = corpus_dir("isolation", &[("labels", SRC)]);
    let cfg = ServeConfig {
        workers: 2,
        queue_depth: 512,
        programs_dir: Some(dir.clone()),
        ..ServeConfig::default()
    };
    let handle = Server::bind("127.0.0.1:0", cfg).unwrap().spawn();
    let addr = handle.addr;

    let script = |names: &[&str]| -> Vec<String> {
        let mut lines: Vec<String> = names
            .iter()
            .map(|n| format!("ASSERT item ^name {n}"))
            .collect();
        lines.extend(["RUN 2", "ASSERT item ^name late", "RUN 100"].map(String::from));
        lines.extend(["WM?", "FIRED?", "SNAPSHOT?"].map(String::from));
        lines
    };
    let a_script = script(&["alpha", "beta", "gamma"]);
    let b_script = script(&["gamma", "omega", "beta", "alpha"]);

    for matcher in ["vs1", "vs2", "col", "psm", "lisp"] {
        let solo = |lines: &[String]| -> Vec<serve::ClientReply> {
            let mut c = serve::Client::connect(addr).unwrap();
            c.open_source(SRC, Some(matcher))
                .unwrap()
                .expect_ok()
                .unwrap();
            let replies = lines.iter().map(|l| c.request(l).unwrap()).collect();
            c.close().unwrap().expect_ok().unwrap();
            replies
        };
        let (want_a, want_b) = (solo(&a_script), solo(&b_script));
        assert!(
            matches!(&want_a[a_script.len() - 3], serve::ClientReply::Multi { lines, .. }
                if lines.iter().any(|l| l.contains("^name late ^tag g3"))),
            "{:?}",
            want_a[a_script.len() - 3]
        );

        let mut a = serve::Client::connect(addr).unwrap();
        let mut b = serve::Client::connect(addr).unwrap();
        a.open("labels", Some(matcher))
            .unwrap()
            .expect_ok()
            .unwrap();
        b.open("labels", Some(matcher))
            .unwrap()
            .expect_ok()
            .unwrap();
        let (mut got_a, mut got_b) = (Vec::new(), Vec::new());
        for i in 0..a_script.len().max(b_script.len()) {
            if let Some(l) = a_script.get(i) {
                got_a.push(a.request(l).unwrap());
            }
            if let Some(l) = b_script.get(i) {
                got_b.push(b.request(l).unwrap());
            }
        }
        assert_eq!(got_a, want_a, "{matcher}: session A");
        assert_eq!(got_b, want_b, "{matcher}: session B");
        a.close().unwrap().expect_ok().unwrap();
        b.close().unwrap().expect_ok().unwrap();
    }
    std::mem::forget(handle);
    let _ = std::fs::remove_dir_all(dir);
}

/// One request per `write`, one framed reply back: a client whose syscalls
/// the server's counters can be held against ([`serve::Client`] sends a
/// line and its newline as two segments).
struct RawClient {
    stream: std::net::TcpStream,
    lines: std::io::Lines<std::io::BufReader<std::net::TcpStream>>,
}

impl RawClient {
    fn connect(addr: SocketAddr) -> RawClient {
        use std::io::BufRead;
        let stream = std::net::TcpStream::connect(addr).unwrap();
        stream.set_nodelay(true).unwrap();
        let timeout = std::time::Duration::from_secs(30);
        stream.set_read_timeout(Some(timeout)).unwrap();
        let lines = std::io::BufReader::new(stream.try_clone().unwrap()).lines();
        RawClient { stream, lines }
    }

    fn request(&mut self, wire: &str) -> serve::Reply {
        self.send(wire);
        self.reply()
    }

    fn send(&mut self, wire: &str) {
        use std::io::Write;
        self.stream.write_all(wire.as_bytes()).unwrap();
    }

    fn reply(&mut self) -> serve::Reply {
        let mut framer = ReplyFramer::new();
        loop {
            let line = self.lines.next().expect("a reply, not EOF").unwrap();
            if let Some(reply) = framer.push(line) {
                return reply;
            }
        }
    }

    fn ok(&mut self, wire: &str) -> String {
        self.request(wire).expect_ok().unwrap()
    }

    fn metrics(&mut self) -> Vec<String> {
        match self.request("METRICS?\n") {
            serve::Reply::Multi { lines, .. } => lines,
            other => panic!("METRICS?: {other:?}"),
        }
    }
}

/// The ledger's serve-steady iteration (a `BATCH` of tickets, `RUN 64` to
/// quiescence, `WM?`, `STATS?`, an audit `ASSERT`, a `RETRACT` of the one
/// before) on a durable session, held against the server's own syscall
/// counters: what one command costs in thread hand-offs and journal
/// syscalls, as exact counts. Fails at the parent commit, where every
/// command is three hand-offs and every append two syscalls.
#[test]
fn a_steady_conversation_costs_what_the_counters_say() {
    const SRC: &str = "(literalize ticket id severity)
        (literalize queue name depth)
        (p escalate (ticket ^id <i> ^severity 0) --> (modify 1 ^severity 2))
        (p route (ticket ^id <i> ^severity { <s> > 0 < 9 }) (queue ^name all ^depth <d>)
           --> (remove 1) (modify 2 ^depth (compute <d> + 1)))
        (make queue ^name all ^depth 0)";
    let state = std::env::temp_dir().join(format!("serve-steady-state-{}", std::process::id()));
    let _ = std::fs::remove_dir_all(&state);
    let cfg = ServeConfig {
        workers: 1,
        programs_dir: Some(corpus_dir("steady", &[("steady", SRC)])),
        durability_dir: Some(state.clone()),
        // No checkpoint inside the measured window.
        checkpoint_every: 1_000_000,
        obs: ObsConfig::enabled(),
        run_slice_cycles: 0,
        ..ServeConfig::default()
    };
    let handle = Server::bind("127.0.0.1:0", cfg).unwrap().spawn();
    let mut c = RawClient::connect(handle.addr);
    c.ok("OPEN steady vs2\n");

    // (bounded commands, commands that always go to a worker, journal
    // appends)
    let (mut bounded, mut hops, mut appends) = (0u64, 0u64, 0u64);
    let mut audit: Option<String> = None;
    let mut id = 0;
    let before = c.metrics();
    for it in 0..16 {
        let mut batch = "BATCH\n".to_string();
        for _ in 0..8 {
            id += 1;
            batch.push_str(&format!("ASSERT ticket ^id {id} ^severity {}\n", id % 4));
        }
        batch.push_str("END\n");
        assert!(c.ok(&batch).starts_with("8 "));
        loop {
            let run = c.ok("RUN 64\n");
            hops += 1;
            // A run that fired nothing journals nothing.
            appends += u64::from(!run.starts_with("cycles=0 "));
            if !run.contains("reason=limit") {
                break;
            }
        }
        assert!(matches!(
            c.request("WM? ticket\n"),
            serve::Reply::Multi { .. }
        ));
        assert!(c.ok("STATS?\n").contains("durability=ok"));
        id += 1;
        let tag = c.ok(&format!("ASSERT ticket ^id {id} ^severity 9\n"));
        // BATCH and ASSERT are staging writes; WM? and STATS? are reads.
        bounded += 2;
        hops += 2;
        appends += 2;
        if let Some(old) = audit.replace(tag) {
            c.ok(&format!("RETRACT {old}\n"));
            bounded += 1;
            appends += 1;
        }
        if it % 8 == 7 {
            assert!(matches!(c.request("FIRED?\n"), serve::Reply::Multi { .. }));
            hops += 1;
        }
    }
    // End on a command that runs in place: a worker can finish a command
    // before the reactor has finished the loop iteration that submitted it,
    // so the reply may leave one iteration before the completion's eventfd
    // is read; one more request puts that read behind us.
    c.ok(&format!(
        "RETRACT {}\n",
        audit.take().expect("an audit ticket")
    ));
    bounded += 1;
    appends += 1;
    let after = c.metrics();
    let delta = |name: &str| counter_of(&after, name) - counter_of(&before, name);

    // What runs the matcher or reads the session crosses to a worker and
    // back: one condvar notify to hand it over, one eventfd
    // write (and the reactor's read of it) to hand the reply back. A
    // staging write on an idle session runs where its bytes were framed.
    // (At the parent commit all three read `bounded + hops`.)
    assert_eq!(delta("serve_inline_total"), bounded);
    assert_eq!(delta("serve_pool_notify_total"), hops);
    assert_eq!(delta("reactor_eventfd_write_total"), hops);
    // (One read can drain two writes: a worker may finish before the
    // reactor is back in `epoll_wait`.)
    assert!(delta("reactor_eventfd_read_total") <= hops);
    // A journal append is one `write` (the parent's `fstat` before it read
    // `appends` too); nothing checkpoints.
    assert_eq!(delta("journal_write_total"), appends);
    assert_eq!(delta("journal_fstat_total"), 0);
    assert_eq!(delta("journal_fsync_total"), 0);
    // One read and one write of the socket per command (the closing
    // `METRICS?` included), and no interest change on a connection that
    // never backs up.
    let commands = bounded + hops + 1;
    assert_eq!(delta("reactor_read_calls_total"), commands);
    assert_eq!(delta("reactor_write_calls_total"), commands);
    assert_eq!(delta("reactor_epoll_ctl_total"), 0);
    // `epoll_wait` returns once per request and at most once more per
    // completion (2 per command at the parent; a completion that is
    // already queued when the loop iteration ends, or whose eventfd fires
    // together with the next request, saves its return); an idle tick on a
    // stalled host may add a few.
    let waits = delta("reactor_epoll_wait_total");
    let most = bounded + 2 * hops + 1;
    assert!((commands..most + 8).contains(&waits), "{waits} vs {most}");

    c.ok("CLOSE\n");
    c.ok("SHUTDOWN\n");
    handle.join().unwrap();
    let _ = std::fs::remove_dir_all(&state);
}

/// Many connections at once: `CROWD` clients connect to one server before
/// any of them sends a byte (`serve_connections_open` must read `CROWD`),
/// then all run the same micro session in lockstep, every connection with
/// a request in flight at each step. Every reply stream must equal the one
/// the session draws alone, byte for byte (session ids aside). `CROWD`
/// stays well under a default limit of 1024 open files: the test process
/// holds both ends of every connection.
#[test]
fn a_crowd_of_connections_each_draws_the_reply_stream_of_one() {
    const CROWD: usize = 256;
    const SCRIPT: [&str; 7] = [
        "OPEN - vs2\n(literalize ping n)\n(p pong (ping ^n <n>) --> (remove 1))\nEND\n",
        "ASSERT ping ^n 1\n",
        "ASSERT ping ^n 2\n",
        "ASSERT ping ^n 3\n",
        "RUN 10\n",
        "FIRED?\n",
        "CLOSE\n",
    ];
    let cfg = ServeConfig {
        workers: 2,
        obs: ObsConfig::enabled(),
        ..ServeConfig::default()
    };
    let handle = Server::bind("127.0.0.1:0", cfg).unwrap().spawn();
    let reference: Vec<String> = {
        let mut alone = RawClient::connect(handle.addr);
        let replies: Vec<String> = SCRIPT
            .iter()
            .map(|r| alone.request(r).to_string())
            .collect();
        normalize_session_ids(&replies)
    };

    let mut crowd: Vec<RawClient> = (0..CROWD)
        .map(|_| RawClient::connect(handle.addr))
        .collect();
    // The reference connection's close may still be on its way.
    let deadline = std::time::Instant::now() + std::time::Duration::from_secs(30);
    loop {
        let open = counter_of(&crowd[0].metrics(), "serve_connections_open");
        if open == CROWD as u64 {
            break;
        }
        assert!(
            std::time::Instant::now() < deadline,
            "serve_connections_open reads {open} with {CROWD} clients connected"
        );
        std::thread::sleep(std::time::Duration::from_millis(20));
    }

    let mut streams = vec![Vec::new(); CROWD];
    for request in SCRIPT {
        for c in &mut crowd {
            c.send(request);
        }
        for (c, stream) in crowd.iter_mut().zip(&mut streams) {
            let mut reply = c.reply();
            while reply.is_backpressure() {
                std::thread::sleep(std::time::Duration::from_millis(10));
                reply = c.request(request);
            }
            stream.push(reply.to_string());
        }
    }
    for (i, stream) in streams.iter().enumerate() {
        assert_eq!(
            normalize_session_ids(stream),
            reference,
            "connection {i} diverged"
        );
    }

    drop(crowd);
    let mut c = RawClient::connect(handle.addr);
    c.ok("SHUTDOWN\n");
    handle.join().unwrap();
}
