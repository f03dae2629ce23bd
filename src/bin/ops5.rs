//! `ops5` — a command-line OPS5 interpreter.
//!
//! Loads an OPS5 source file (productions plus top-level `(make ...)`
//! startup forms), runs the recognize-act loop on the chosen match engine,
//! and reports what happened.
//!
//! ```text
//! Usage: ops5 <file.ops> [options]
//!
//!   --matcher vs1|vs2|lisp|psm|col   match engine (default vs2)
//!   --procs N                    psm: match processes (default 4; 0 runs
//!                                the match on the control thread)
//!   --queues N                   psm: task queues (default 2)
//!   --mrsw                       psm: MRSW hash-line locks
//!   --max-cycles N               cycle budget (default 100000)
//!   --trace                      print each production firing
//!   --wm                         dump working memory at the end
//!   --network                    print the compiled Rete network and exit
//!   --print                      pretty-print the parsed program and exit
//!   --stats                      print match statistics
//! ```

use parallel_ops5::prelude::*;
use std::process::ExitCode;

struct Opts {
    file: String,
    matcher: String,
    procs: usize,
    queues: usize,
    mrsw: bool,
    max_cycles: u64,
    trace: bool,
    dump_wm: bool,
    network: bool,
    print: bool,
    stats: bool,
}

fn parse_args() -> Result<Opts, String> {
    let mut args = std::env::args().skip(1);
    let mut opts = Opts {
        file: String::new(),
        matcher: "vs2".into(),
        procs: 4,
        queues: 2,
        mrsw: false,
        max_cycles: 100_000,
        trace: false,
        dump_wm: false,
        network: false,
        print: false,
        stats: false,
    };
    let next_val = |args: &mut dyn Iterator<Item = String>, flag: &str| {
        args.next().ok_or_else(|| format!("{flag} needs a value"))
    };
    while let Some(a) = args.next() {
        match a.as_str() {
            "--matcher" => opts.matcher = next_val(&mut args, "--matcher")?,
            "--procs" => {
                opts.procs = next_val(&mut args, "--procs")?
                    .parse()
                    .map_err(|e| format!("--procs: {e}"))?
            }
            "--queues" => {
                opts.queues = next_val(&mut args, "--queues")?
                    .parse()
                    .map_err(|e| format!("--queues: {e}"))?
            }
            "--max-cycles" => {
                opts.max_cycles = next_val(&mut args, "--max-cycles")?
                    .parse()
                    .map_err(|e| format!("--max-cycles: {e}"))?
            }
            "--mrsw" => opts.mrsw = true,
            "--trace" => opts.trace = true,
            "--wm" => opts.dump_wm = true,
            "--network" => opts.network = true,
            "--print" => opts.print = true,
            "--stats" => opts.stats = true,
            "--help" | "-h" => return Err("help".into()),
            other if other.starts_with('-') => return Err(format!("unknown option {other}")),
            file => {
                if !opts.file.is_empty() {
                    return Err("multiple input files".into());
                }
                opts.file = file.to_string();
            }
        }
    }
    if opts.file.is_empty() {
        return Err("no input file".into());
    }
    Ok(opts)
}

fn usage() {
    eprintln!("Usage: ops5 <file.ops> [--matcher vs1|vs2|lisp|psm|col] [--procs N] [--queues N]");
    eprintln!(
        "            [--mrsw] [--max-cycles N] [--trace] [--wm] [--network] [--print] [--stats]"
    );
}

fn main() -> ExitCode {
    let opts = match parse_args() {
        Ok(o) => o,
        Err(e) => {
            if e != "help" {
                eprintln!("error: {e}");
            }
            usage();
            return ExitCode::FAILURE;
        }
    };

    let src = match std::fs::read_to_string(&opts.file) {
        Ok(s) => s,
        Err(e) => {
            eprintln!("error: cannot read {}: {e}", opts.file);
            return ExitCode::FAILURE;
        }
    };
    let prog = match Program::from_source(&src) {
        Ok(p) => p,
        Err(e) => {
            eprintln!("error: {e}");
            return ExitCode::FAILURE;
        }
    };
    eprintln!(
        "loaded {}: {} productions, {} startup elements",
        opts.file,
        prog.productions.len(),
        prog.startup.len()
    );

    if opts.print {
        print!("{}", ops5::printer::print_program(&prog));
        return ExitCode::SUCCESS;
    }
    if opts.network {
        let net = match Network::compile(&prog) {
            Ok(n) => n,
            Err(e) => {
                eprintln!("error: {e}");
                return ExitCode::FAILURE;
            }
        };
        print!("{}", rete::dot::to_text(&net, &prog.symbols));
        return ExitCode::SUCCESS;
    }

    // The canonical name table picks the kind; the psm flags then refine
    // its configuration.
    let kind = match MatcherKind::from_name(&opts.matcher) {
        Some(MatcherKind::Psm(_)) => MatcherKind::Psm(PsmConfig {
            match_processes: opts.procs,
            queues: opts.queues,
            lock_scheme: if opts.mrsw {
                LockScheme::Mrsw
            } else {
                LockScheme::Simple
            },
            buckets: 16384,
        }),
        Some(kind) => kind,
        None => {
            eprintln!(
                "error: unknown matcher {} (want {})",
                opts.matcher,
                MatcherKind::NAMES.join("|")
            );
            return ExitCode::FAILURE;
        }
    };
    let mut engine = match EngineBuilder::new(prog)
        .matcher(kind)
        .echo_writes(true)
        .build()
    {
        Ok(e) => e,
        Err(e) => {
            eprintln!("error: {e}");
            return ExitCode::FAILURE;
        }
    };
    eprintln!("{}", engine.network().summary());

    if let Err(e) = engine.load_startup() {
        eprintln!("error: {e}");
        return ExitCode::FAILURE;
    }

    let started = std::time::Instant::now();
    let result = if opts.trace {
        // Step so each firing can be reported.
        let res;
        loop {
            match engine.step() {
                Ok(Some(inst)) => {
                    let tags: Vec<String> =
                        inst.wmes.iter().map(|w| w.timetag.to_string()).collect();
                    eprintln!(
                        "{:>6}. {} [{}]",
                        engine.cycles(),
                        engine.prog.prod_name(inst.prod),
                        tags.join(" ")
                    );
                    if engine.cycles() >= opts.max_cycles {
                        res = Ok(RunResult {
                            cycles: engine.cycles(),
                            reason: StopReason::CycleLimit,
                        });
                        break;
                    }
                }
                Ok(None) => {
                    res = Ok(RunResult {
                        cycles: engine.cycles(),
                        reason: StopReason::Quiescent,
                    });
                    break;
                }
                Err(e) => {
                    res = Err(e);
                    break;
                }
            }
        }
        res
    } else {
        engine.run(opts.max_cycles)
    };
    let elapsed = started.elapsed();

    match result {
        Ok(r) => {
            eprintln!(
                "{} cycles in {:.3}s ({:?})",
                engine.cycles(),
                elapsed.as_secs_f64(),
                r.reason
            );
        }
        Err(e) => {
            eprintln!("runtime error after {} cycles: {e}", engine.cycles());
            return ExitCode::FAILURE;
        }
    }

    if opts.stats {
        let s = engine.match_stats();
        eprintln!(
            "match stats: {} wme-changes, {} activations ({} alpha), {} conflict-set changes",
            s.wme_changes, s.activations, s.alpha_activations, s.cs_changes
        );
        eprintln!(
            "  opposite-memory tokens examined: left {:.1} avg, right {:.1} avg",
            s.avg_opp_left(),
            s.avg_opp_right()
        );
        eprintln!(
            "  join activations: {} ({} null, {} not scanned: opposite memory empty)",
            s.join_activations, s.null_activations, s.null_skipped
        );
    }

    if opts.dump_wm {
        eprintln!("working memory ({} elements):", engine.wm().len());
        let mut wmes: Vec<_> = engine.wm().iter().cloned().collect();
        wmes.sort_by_key(|w| w.timetag);
        for w in wmes {
            let attrs = engine
                .prog
                .classes
                .info(w.class)
                .map(|i| i.attrs.clone())
                .unwrap_or_default();
            println!(
                "{:>6}: {}",
                w.timetag,
                w.display(&engine.prog.symbols, &attrs)
            );
        }
    }
    ExitCode::SUCCESS
}
