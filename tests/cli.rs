//! Integration tests for the `ops5` command-line interpreter.

use std::process::Command;

fn ops5() -> Command {
    Command::new(env!("CARGO_BIN_EXE_ops5"))
}

#[test]
fn runs_blocks_program() {
    let out = ops5()
        .args(["programs/blocks.ops"])
        .output()
        .expect("run ops5");
    assert!(
        out.status.success(),
        "stderr: {}",
        String::from_utf8_lossy(&out.stderr)
    );
    let stdout = String::from_utf8_lossy(&out.stdout);
    let stderr = String::from_utf8_lossy(&out.stderr);
    assert!(stdout.contains("tower complete"), "stdout: {stdout}");
    assert!(stderr.contains("3 cycles"), "stderr: {stderr}");
}

#[test]
fn all_matchers_agree_on_blocks() {
    for &matcher in engine::MatcherKind::NAMES {
        let out = ops5()
            .args(["programs/blocks.ops", "--matcher", matcher])
            .output()
            .expect("run ops5");
        assert!(out.status.success(), "{matcher} failed");
        let stdout = String::from_utf8_lossy(&out.stdout);
        assert!(stdout.contains("tower complete"), "{matcher}: {stdout}");
    }
}

#[test]
fn print_roundtrips_through_cli() {
    let out = ops5()
        .args(["programs/blocks.ops", "--print"])
        .output()
        .expect("run ops5");
    assert!(out.status.success());
    let printed = String::from_utf8_lossy(&out.stdout).to_string();
    assert!(printed.contains("(p stack"));
    assert!(printed.contains("(literalize block"));
    // The printed output is itself a runnable program.
    let dir = std::env::temp_dir().join("ops5-cli-test");
    std::fs::create_dir_all(&dir).unwrap();
    let path = dir.join("printed.ops");
    std::fs::write(&path, &printed).unwrap();
    let out2 = ops5()
        .arg(path.to_str().unwrap())
        .output()
        .expect("run printed");
    assert!(out2.status.success());
    assert!(String::from_utf8_lossy(&out2.stdout).contains("tower complete"));
}

#[test]
fn network_dump() {
    let out = ops5()
        .args(["programs/blocks.ops", "--network"])
        .output()
        .expect("run ops5");
    assert!(out.status.success());
    let stdout = String::from_utf8_lossy(&out.stdout);
    assert!(stdout.contains("root"));
    assert!(stdout.contains("terminal: stack"));
}

#[test]
fn wm_dump_shows_final_state() {
    let out = ops5()
        .args(["programs/blocks.ops", "--wm"])
        .output()
        .expect("run ops5");
    assert!(out.status.success());
    let stdout = String::from_utf8_lossy(&out.stdout);
    assert!(stdout.contains("^on b"), "c sits on b: {stdout}");
}

#[test]
fn bad_file_fails_cleanly() {
    let out = ops5().arg("does-not-exist.ops").output().expect("run ops5");
    assert!(!out.status.success());
}

#[test]
fn parse_error_reported_with_position() {
    let dir = std::env::temp_dir().join("ops5-cli-test");
    std::fs::create_dir_all(&dir).unwrap();
    let path = dir.join("broken.ops");
    std::fs::write(&path, "(p broken (a ^x 1) --> (explode))").unwrap();
    let out = ops5()
        .arg(path.to_str().unwrap())
        .output()
        .expect("run ops5");
    assert!(!out.status.success());
    let stderr = String::from_utf8_lossy(&out.stderr);
    assert!(stderr.contains("unknown RHS action"), "{stderr}");
}

#[test]
fn monkey_and_bananas_plans_correctly() {
    let out = ops5()
        .args(["programs/monkey.ops"])
        .output()
        .expect("run ops5");
    assert!(out.status.success());
    let stdout = String::from_utf8_lossy(&out.stdout);
    // The full means-ends plan, in order.
    let steps = [
        "climbing down",
        "walking to loc-b",
        "grabbing ladder",
        "carrying ladder to loc-c",
        "dropping ladder",
        "climbing the ladder",
        "grabbing bananas",
        "the monkey has the bananas",
    ];
    let mut pos = 0;
    for step in steps {
        let found = stdout[pos..]
            .find(step)
            .unwrap_or_else(|| panic!("step '{step}' missing or out of order in:\n{stdout}"));
        pos += found;
    }
}

#[test]
fn monkey_plan_is_matcher_independent() {
    let reference = ops5()
        .args(["programs/monkey.ops"])
        .output()
        .unwrap()
        .stdout;
    for &matcher in engine::MatcherKind::NAMES {
        let out = ops5()
            .args(["programs/monkey.ops", "--matcher", matcher])
            .output()
            .unwrap();
        assert_eq!(out.stdout, reference, "{matcher} diverged");
    }
}

#[test]
fn hanoi_solves_four_disks() {
    let out = ops5().args(["programs/hanoi.ops"]).output().expect("run");
    assert!(
        out.status.success(),
        "stderr: {}",
        String::from_utf8_lossy(&out.stderr)
    );
    let stdout = String::from_utf8_lossy(&out.stdout);
    assert!(stdout.contains("hanoi complete in 15 moves"), "{stdout}");
    // The first three moves of the textbook 4-disk solution, in order.
    let moves: Vec<&str> = stdout.lines().filter(|l| l.starts_with("move ")).collect();
    assert_eq!(moves.len(), 15);
    assert_eq!(moves[0], "move disk left to middle");
    assert_eq!(moves[1], "move disk left to right");
    assert_eq!(moves[2], "move disk middle to right");
    // The largest disk crosses exactly once, halfway through.
    assert_eq!(moves[7], "move disk left to right");
}

#[test]
fn hanoi_is_matcher_independent() {
    let reference = ops5().args(["programs/hanoi.ops"]).output().unwrap().stdout;
    for &matcher in engine::MatcherKind::NAMES {
        let out = ops5()
            .args(["programs/hanoi.ops", "--matcher", matcher])
            .output()
            .unwrap();
        assert_eq!(out.stdout, reference, "{matcher} diverged");
    }
}

#[test]
fn fibonacci_computes() {
    let out = ops5()
        .args(["programs/fibonacci.ops"])
        .output()
        .expect("run");
    assert!(out.status.success());
    let stdout = String::from_utf8_lossy(&out.stdout);
    assert!(stdout.contains("fib 20 is 6765"), "{stdout}");
}

/// A removed flag fails closed: `ops5-serve` names it, exits non-zero, and
/// never reaches its bind.
#[test]
fn serve_refuses_the_removed_act_flag() {
    let mut child = Command::new(env!("CARGO_BIN_EXE_ops5-serve"))
        .args(["--addr", "127.0.0.1:0", "--act", "parallel"])
        .stdout(std::process::Stdio::null())
        .stderr(std::process::Stdio::piped())
        .spawn()
        .expect("run ops5-serve");
    let deadline = std::time::Instant::now() + std::time::Duration::from_secs(30);
    let status = loop {
        if let Some(status) = child.try_wait().unwrap() {
            break status;
        }
        if std::time::Instant::now() > deadline {
            child.kill().unwrap();
            child.wait().unwrap();
            panic!("ops5-serve --act did not exit: it is serving");
        }
        std::thread::sleep(std::time::Duration::from_millis(20));
    };
    let mut stderr = String::new();
    std::io::Read::read_to_string(&mut child.stderr.take().unwrap(), &mut stderr).unwrap();
    assert!(!status.success(), "stderr: {stderr}");
    assert!(
        stderr.contains("unknown option `--act`"),
        "stderr: {stderr}"
    );
    assert!(!stderr.contains("listening"), "it bound a port: {stderr}");
}

/// The environment picks no run slice: `ops5-serve` started with
/// `OPS5_RUN_SLICE=1` in its environment runs a 100-cycle `RUN` whole, and
/// its metrics count no preemption. Slicing is `--run-slice` alone.
#[test]
fn serve_ignores_a_run_slice_in_the_environment() {
    use std::io::{BufRead, BufReader, Write};
    let mut child = Command::new(env!("CARGO_BIN_EXE_ops5-serve"))
        .args(["--addr", "127.0.0.1:0", "--metrics"])
        .env("OPS5_RUN_SLICE", "1")
        .stdout(std::process::Stdio::null())
        .stderr(std::process::Stdio::piped())
        .spawn()
        .expect("run ops5-serve");
    let mut stderr = BufReader::new(child.stderr.take().unwrap());
    let mut line = String::new();
    let addr = loop {
        line.clear();
        if stderr.read_line(&mut line).unwrap() == 0 {
            child.kill().unwrap();
            child.wait().unwrap();
            panic!("ops5-serve exited before it listened");
        }
        if let Some(addr) = line.trim().strip_prefix("ops5-serve: listening on ") {
            break addr.to_string();
        }
    };
    let stream = std::net::TcpStream::connect(&addr).unwrap();
    stream
        .set_read_timeout(Some(std::time::Duration::from_secs(30)))
        .unwrap();
    let mut reply = BufReader::new(stream.try_clone().unwrap());
    // One reply: a line, or a `METRICS` block through its `END`.
    let mut ask = |request: &str| {
        (&stream).write_all(request.as_bytes()).unwrap();
        let mut text = String::new();
        while reply.read_line(&mut text).unwrap() != 0 {
            if !text.starts_with("METRICS") || text.ends_with("\nEND\n") {
                break;
            }
        }
        text
    };
    assert!(ask("OPEN hanoi\n").starts_with("OK"));
    let run = ask("RUN 100\n");
    assert!(run.starts_with("OK"), "{run}");
    let metrics = ask("METRICS?\n");
    assert!(ask("SHUTDOWN\n").starts_with("OK"));
    child.wait().unwrap();
    assert!(
        metrics.lines().any(|l| l == "serve_preemptions_total 0"),
        "{metrics}"
    );
}

/// Both binaries' usage text lists every matcher `--matcher` accepts.
#[test]
fn usage_lists_every_matcher() {
    let names = engine::MatcherKind::NAMES.join("|");
    for bin in ["src/bin/ops5.rs", "src/bin/serve.rs"] {
        let text = std::fs::read_to_string(bin).unwrap();
        assert!(
            text.contains(&format!("--matcher {names} ")),
            "{bin}: usage does not list --matcher {names}"
        );
    }
}

/// README names the matchers `--matcher` and `OPEN` take, all of them and
/// only them: the matcher table's first column and the `OPEN` synopsis.
#[test]
fn readme_lists_every_matcher() {
    let readme = std::fs::read_to_string("README.md").unwrap();
    let table: Vec<&str> = readme
        .lines()
        .skip_while(|l| !l.starts_with("| matcher |"))
        .skip(2)
        .take_while(|l| l.starts_with('|'))
        .map(|l| l.split('|').nth(1).unwrap().trim().trim_matches('`'))
        .collect();
    assert_eq!(table, engine::MatcherKind::NAMES, "README's matcher table");
    let open = (readme.lines())
        .find_map(|l| l.strip_prefix("OPEN <program> ["))
        .and_then(|l| l.split(']').next())
        .expect("README's OPEN synopsis");
    assert_eq!(
        open.split('|').collect::<Vec<_>>(),
        engine::MatcherKind::NAMES,
        "README's OPEN synopsis"
    );
}
