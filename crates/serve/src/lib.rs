//! # serve — a multi-session production-system server
//!
//! The paper parallelizes *one* OPS5 program across Multimax processors;
//! this crate multiplexes *many* independent programs over a bounded worker
//! pool, the complementary production-scale deployment shape: a
//! recognize-act service where clients open sessions, stream working-memory
//! changes, and run cycles over the wire.
//!
//! Layers, bottom up:
//!
//! * [`registry`] — named program profiles (`programs/*.ops` + the
//!   generated Rubik workload). A program is parsed and compiled once, on
//!   its first `OPEN`/`RESTORE`, into a shared immutable
//!   [`engine::CompiledProgram`]; each session instantiates its own
//!   [`engine::Engine`] from it (own symbol and class tables, matcher
//!   memories, working memory) over the one shared network.
//! * [`session`] — the command executor around one engine. Ingestion is
//!   staged: `ASSERT`/`RETRACT` take effect in working memory immediately
//!   but reach the matcher as **one [`ops5::ChangeBatch`] per `RUN`**, the
//!   batched-ingestion path the engine grew for this layer.
//! * [`pool`] — a fixed worker-thread pool with actor-style scheduling
//!   (one command per pop) and two-level backpressure: a full per-session
//!   inbox replies `OVERLOADED`, a saturated global run queue replies
//!   `BUSY`. Shutdown drains every queued command before workers exit.
//! * [`protocol`] — the wire grammar, and the only code knowing where a
//!   request ([`protocol::Framer`]) or a reply ([`protocol::ReplyCounter`])
//!   starts and ends. Both are socket-free: bytes or lines in, decisions
//!   out. [`protocol::ReplyFramer`] is the counter plus the lines it keeps.
//! * `conn` — the socket-free connection core over the request framer: the
//!   session slot, reply ordering under pipelining, and every per-connection
//!   bound. Bytes in become pool submissions and direct replies; completions
//!   in become ordered bytes out.
//! * `driver` — the single epoll thread (the vendored `reactor` crate),
//!   generic over the socket-free core it drives: one loop for both
//!   binaries, woken by work finished on other threads.
//! * [`server`] — configuration, shared state, session construction, the
//!   metrics exposition, and the server as the driver sees it: a `conn`
//!   core per connection, pool completions as its results.
//! * [`router`] — `ops5-router`: a consistent-hash session-sharding proxy
//!   that spreads sessions across several `ops5-serve` backends and
//!   live-migrates them (`SNAPSHOT?`/`RESTORE`) when a backend drains. Its
//!   core is socket-free like `conn`, frames both directions with the
//!   protocol's own code, and keeps every reply in request order.
//! * [`client`] — a blocking client used by the integration tests.
//!
//! See [`protocol`] for the wire grammar.

pub mod client;
mod conn;
mod driver;
pub mod pool;
pub mod protocol;
pub mod registry;
pub mod router;
pub mod server;
pub mod session;

pub use client::{Client, ClientReply};
pub use pool::{Pool, PoolStats, Priority, SessionSlot, SubmitOutcome};
pub use protocol::{parse_line, Line, Reply};
pub use registry::{matcher_kind, ProgramSpec, Registry};
pub use router::{Router, RouterConfig, RouterHandle};
pub use server::{ServeConfig, Server, ServerHandle};
pub use session::{BatchItem, Command, Exec, Session};

#[cfg(test)]
mod tests {
    use super::*;

    /// End-to-end over a real socket: open, stage, run, inspect, close,
    /// shut down.
    #[test]
    fn socket_roundtrip_and_shutdown() {
        let mut cfg = ServeConfig {
            workers: 2,
            ..ServeConfig::default()
        };
        cfg.programs_dir = None;
        let handle = Server::bind("127.0.0.1:0", cfg).unwrap().spawn();
        let mut c = Client::connect(handle.addr).unwrap();

        let src = "(literalize item n)
                   (literalize sum total)
                   (p add (item ^n <n>) (sum ^total <t>)
                      --> (remove 1) (modify 2 ^total (compute <t> + <n>)))";
        let open = c
            .open_source(src, Some("vs2"))
            .unwrap()
            .expect_ok()
            .unwrap();
        assert!(open.contains("matcher=vs2"), "{open}");

        c.request("ASSERT sum ^total 0")
            .unwrap()
            .expect_ok()
            .unwrap();
        let t1 = c.assert_wme("item ^n 3").unwrap().unwrap();
        let t2 = c.assert_wme("item ^n 4").unwrap().unwrap();
        assert!(t2 > t1);

        let run = c.run(100).unwrap().expect_ok().unwrap();
        assert!(run.contains("cycles=2"), "{run}");
        assert!(run.contains("reason=quiescent"), "{run}");

        let wm = c.wm(Some("sum")).unwrap().expect_lines().unwrap();
        assert_eq!(wm.len(), 1);
        assert!(wm[0].contains("^total 7"), "{wm:?}");

        let fired = c.fired().unwrap().expect_lines().unwrap();
        assert_eq!(fired.len(), 2);

        c.close().unwrap().expect_ok().unwrap();
        assert!(matches!(c.run(1).unwrap(), ClientReply::Err(_)));

        c.shutdown().unwrap().expect_ok().unwrap();
        handle.join().unwrap();
    }

    /// Two connections get fully independent sessions of the same program.
    #[test]
    fn sessions_are_isolated() {
        let handle = Server::bind("127.0.0.1:0", ServeConfig::default())
            .unwrap()
            .spawn();
        let src = "(literalize x v)\n(p r (x ^v <v>) --> (remove 1))";
        let mut a = Client::connect(handle.addr).unwrap();
        let mut b = Client::connect(handle.addr).unwrap();
        a.open_source(src, None).unwrap().expect_ok().unwrap();
        b.open_source(src, None).unwrap().expect_ok().unwrap();
        a.assert_wme("x ^v 1").unwrap().unwrap();
        a.assert_wme("x ^v 2").unwrap().unwrap();
        b.assert_wme("x ^v 9").unwrap().unwrap();
        // A's staged elements are invisible to B.
        let wm_b = b.wm(None).unwrap().expect_lines().unwrap();
        assert_eq!(wm_b.len(), 1, "{wm_b:?}");
        a.run(10).unwrap().expect_ok().unwrap();
        let stats_b = b.stats().unwrap().expect_ok().unwrap();
        assert!(stats_b.contains("cycles=0"), "{stats_b}");
        let mut s = Client::connect(handle.addr).unwrap();
        s.shutdown().unwrap().expect_ok().unwrap();
        handle.join().unwrap();
    }

    /// Pipelined requests come back in order, and protocol errors do not
    /// desynchronize the stream.
    #[test]
    fn pipelined_replies_stay_ordered() {
        // Deep inbox: this test wants ordering, not backpressure.
        let cfg = ServeConfig {
            queue_depth: 256,
            ..ServeConfig::default()
        };
        let handle = Server::bind("127.0.0.1:0", cfg).unwrap().spawn();
        let mut c = Client::connect(handle.addr).unwrap();
        c.open_source("(literalize x v)\n(p r (x ^v 0) --> (halt))", None)
            .unwrap()
            .expect_ok()
            .unwrap();
        for i in 0..20 {
            c.send_line(&format!("ASSERT x ^v {i}")).unwrap();
        }
        c.send_line("FROBNICATE").unwrap();
        c.send_line("STATS?").unwrap();
        let mut tags = Vec::new();
        for _ in 0..20 {
            tags.push(
                c.read_reply()
                    .unwrap()
                    .expect_ok()
                    .unwrap()
                    .parse::<u64>()
                    .unwrap(),
            );
        }
        assert!(tags.windows(2).all(|w| w[0] < w[1]), "{tags:?}");
        assert!(matches!(c.read_reply().unwrap(), ClientReply::Err(_)));
        let stats = c.read_reply().unwrap().expect_ok().unwrap();
        assert!(stats.contains("staged=20"), "{stats}");
        c.shutdown().unwrap().expect_ok().unwrap();
        handle.join().unwrap();
    }

    /// A `CLOSE` bounced by the run queue (`BUSY`) must leave the session
    /// open so the retry can still close it — regression test for the slot
    /// being dropped before the pool accepted the command.
    #[test]
    fn close_survives_busy_rejection() {
        let cfg = ServeConfig {
            workers: 1,
            run_queue_cap: 1,
            queue_depth: 4,
            max_cycles_per_run: 200_000,
            // The wedge must hold its worker for the whole RUN, even when
            // the environment (CI's sched-smoke job) turns slicing on.
            run_slice_cycles: 0,
            ..ServeConfig::default()
        };
        let handle = Server::bind("127.0.0.1:0", cfg).unwrap().spawn();
        let spin = "(literalize c n)\n(p spin (c ^n <n>) --> (modify 1 ^n (compute <n> + 1)))";

        // Wedge the only worker on a long spin run...
        let mut a = Client::connect(handle.addr).unwrap();
        a.open_source(spin, Some("vs2"))
            .unwrap()
            .expect_ok()
            .unwrap();
        a.assert_wme("c ^n 0").unwrap().unwrap();
        a.send_line("RUN 200000").unwrap();
        std::thread::sleep(std::time::Duration::from_millis(50));

        // ...and fill the (capacity-1) run queue with a second session's
        // pending command (a `RUN`: it always waits for a worker),
        // pipelined so this thread does not block on it.
        let mut filler = Client::connect(handle.addr).unwrap();
        filler
            .open_source(spin, Some("vs2"))
            .unwrap()
            .expect_ok()
            .unwrap();
        filler.send_line("RUN 1").unwrap();
        std::thread::sleep(std::time::Duration::from_millis(50));

        // CLOSE now gets BUSY; the retry must find the session still open.
        let mut b = Client::connect(handle.addr).unwrap();
        b.open_source(spin, Some("vs2"))
            .unwrap()
            .expect_ok()
            .unwrap();
        let mut busy = 0;
        loop {
            match b.request("CLOSE").unwrap() {
                ClientReply::Ok(_) => break,
                r if r.is_backpressure() => {
                    busy += 1;
                    std::thread::sleep(std::time::Duration::from_millis(1));
                }
                other => panic!("CLOSE must never error across BUSY: {other:?}"),
            }
        }
        assert!(busy > 0, "run queue never saturated; wedge too short");

        a.read_reply().unwrap().expect_ok().unwrap();
        filler.read_reply().unwrap().expect_ok().unwrap();
        b.shutdown().unwrap().expect_ok().unwrap();
        handle.join().unwrap();
    }

    const ADDER_SRC: &str = "(literalize item n)
                             (literalize sum total)
                             (p add (item ^n <n>) (sum ^total <t>)
                                --> (remove 1) (modify 2 ^total (compute <t> + <n>)))";

    /// Writes the adder program into a fresh corpus dir so `RESTORE` (which
    /// only accepts registered programs) can rebuild it.
    fn adder_corpus(tag: &str) -> std::path::PathBuf {
        let dir = std::env::temp_dir().join(format!("serve-{tag}-{}", std::process::id()));
        std::fs::create_dir_all(&dir).unwrap();
        std::fs::write(dir.join("adder.ops"), ADDER_SRC).unwrap();
        dir
    }

    fn stage_adder_work(c: &mut Client) {
        c.request("ASSERT sum ^total 0")
            .unwrap()
            .expect_ok()
            .unwrap();
        for i in 1..=5 {
            c.assert_wme(&format!("item ^n {i}")).unwrap().unwrap();
        }
    }

    /// `SNAPSHOT?` mid-run, `RESTORE` into a fresh session on a *different*
    /// matcher, and the continued run converges to the same working memory
    /// and the same complete firing history.
    #[test]
    fn snapshot_restore_roundtrip_over_the_wire() {
        let cfg = ServeConfig {
            programs_dir: Some(adder_corpus("snap")),
            ..ServeConfig::default()
        };
        let handle = Server::bind("127.0.0.1:0", cfg).unwrap().spawn();

        let mut a = Client::connect(handle.addr).unwrap();
        a.open("adder", Some("vs2")).unwrap().expect_ok().unwrap();
        stage_adder_work(&mut a);
        let run = a.run(2).unwrap().expect_ok().unwrap();
        assert!(run.contains("cycles=2"), "{run}");
        let snap_lines = a.snapshot().unwrap().expect_lines().unwrap();
        assert_eq!(snap_lines.last().map(String::as_str), Some("end"));
        // Reference: the uninterrupted session runs to quiescence.
        a.run(100).unwrap().expect_ok().unwrap();
        let wm_ref = a.wm(None).unwrap().expect_lines().unwrap();
        let fired_ref = a.fired().unwrap().expect_lines().unwrap();
        assert_eq!(fired_ref.len(), 5, "{fired_ref:?}");
        a.close().unwrap().expect_ok().unwrap();

        let mut b = Client::connect(handle.addr).unwrap();
        let ok = b
            .restore("adder", Some("lisp"), &snap_lines.join("\n"))
            .unwrap()
            .expect_ok()
            .unwrap();
        assert!(ok.contains("matcher=lisp"), "{ok}");
        assert!(ok.contains("replayed=0"), "{ok}");
        b.run(100).unwrap().expect_ok().unwrap();
        assert_eq!(b.wm(None).unwrap().expect_lines().unwrap(), wm_ref);
        assert_eq!(b.fired().unwrap().expect_lines().unwrap(), fired_ref);

        b.shutdown().unwrap().expect_ok().unwrap();
        handle.join().unwrap();
    }

    /// `MIGRATE` rebuilds the live engine on another matcher without losing
    /// working memory, staged changes, or the firing history.
    #[test]
    fn migrate_preserves_state_across_matchers() {
        let handle = Server::bind("127.0.0.1:0", ServeConfig::default())
            .unwrap()
            .spawn();
        let mut c = Client::connect(handle.addr).unwrap();
        c.open_source(ADDER_SRC, Some("vs1"))
            .unwrap()
            .expect_ok()
            .unwrap();
        stage_adder_work(&mut c);
        c.run(2).unwrap().expect_ok().unwrap();
        // One staged change in flight across the migration.
        c.assert_wme("item ^n 10").unwrap().unwrap();
        let ok = c.migrate(Some("psm")).unwrap().expect_ok().unwrap();
        assert!(ok.contains("matcher=psm"), "{ok}");
        assert!(ok.contains("cycles=2"), "{ok}");
        let run = c.run(100).unwrap().expect_ok().unwrap();
        assert!(run.contains("reason=quiescent"), "{run}");
        let wm = c.wm(Some("sum")).unwrap().expect_lines().unwrap();
        assert!(wm[0].contains("^total 25"), "{wm:?}");
        assert_eq!(c.fired().unwrap().expect_lines().unwrap().len(), 6);
        // Unknown matcher is an error, and the session survives it.
        assert!(matches!(
            c.migrate(Some("frob")).unwrap(),
            ClientReply::Err(_)
        ));
        c.stats().unwrap().expect_ok().unwrap();
        c.shutdown().unwrap().expect_ok().unwrap();
        handle.join().unwrap();
    }

    /// With a durability dir configured, a connection that vanishes without
    /// `CLOSE` (a killed worker) leaves snapshot + change-log files that
    /// `RESTORE` turns back into the exact session.
    #[test]
    fn durability_files_recover_a_killed_session() {
        let programs = adder_corpus("durable-programs");
        let state =
            std::env::temp_dir().join(format!("serve-durable-state-{}", std::process::id()));
        let _ = std::fs::remove_dir_all(&state);
        let cfg = ServeConfig {
            programs_dir: Some(programs),
            durability_dir: Some(state.clone()),
            // Low water mark so the mid-life checkpoint path runs too.
            checkpoint_every: 4,
            ..ServeConfig::default()
        };
        let handle = Server::bind("127.0.0.1:0", cfg).unwrap().spawn();

        {
            let mut c = Client::connect(handle.addr).unwrap();
            c.open("adder", Some("vs2")).unwrap().expect_ok().unwrap();
            stage_adder_work(&mut c);
            c.run(2).unwrap().expect_ok().unwrap();
            // 4 cumulative fires: crosses checkpoint_every, truncating the log.
            c.run(2).unwrap().expect_ok().unwrap();
            // Dropped without CLOSE: the simulated kill. Every executed
            // command's records are already on disk.
        }

        let snap = std::fs::read_to_string(Session::snap_path(&state, 1)).unwrap();
        let log = std::fs::read_to_string(Session::log_path(&state, 1)).unwrap();
        assert!(
            log.is_empty(),
            "checkpoint must have truncated the log: {log:?}"
        );

        let mut c = Client::connect(handle.addr).unwrap();
        let ok = c
            .restore("adder", Some("vs2"), &format!("{snap}{log}"))
            .unwrap()
            .expect_ok()
            .unwrap();
        assert!(ok.contains("cycles=4"), "{ok}");
        c.run(100).unwrap().expect_ok().unwrap();
        let wm = c.wm(Some("sum")).unwrap().expect_lines().unwrap();
        assert!(wm[0].contains("^total 15"), "{wm:?}");
        assert_eq!(c.fired().unwrap().expect_lines().unwrap().len(), 5);
        c.shutdown().unwrap().expect_ok().unwrap();
        handle.join().unwrap();
        let _ = std::fs::remove_dir_all(&state);
    }

    /// BATCH stages everything as one command and replies once.
    #[test]
    fn batch_is_one_command() {
        let handle = Server::bind("127.0.0.1:0", ServeConfig::default())
            .unwrap()
            .spawn();
        let mut c = Client::connect(handle.addr).unwrap();
        c.open_source("(literalize x v)\n(p r (x ^v <v>) --> (remove 1))", None)
            .unwrap()
            .expect_ok()
            .unwrap();
        c.send_line("BATCH").unwrap();
        for i in 0..5 {
            c.send_line(&format!("ASSERT x ^v {i}")).unwrap();
        }
        c.send_line("END").unwrap();
        let reply = c.read_reply().unwrap().expect_ok().unwrap();
        assert!(reply.starts_with("5 "), "{reply}");
        let run = c.run(100).unwrap().expect_ok().unwrap();
        assert!(run.contains("cycles=5"), "{run}");
        c.shutdown().unwrap().expect_ok().unwrap();
        handle.join().unwrap();
    }
}
