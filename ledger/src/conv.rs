//! Conversations: a program's command stream made concrete.
//!
//! A served session is a conversation whose next command depends on the
//! previous reply (`RUN 64` until not `reason=limit`, `RETRACT <the tag
//! ASSERT returned>`). [`concretize`] plays a workload's [`Step`]s once
//! against an in-process [`Session`] — no sockets, no pool, durability off —
//! and records the wire text of every command together with the digest of
//! its reply. That record is both the load generator's script and the
//! correctness oracle: every shell of the traced onion and every served
//! end-to-end run replays it and must see the same replies, on every
//! matcher.

use crate::inputs::{Prog, Step, RUN_SLICE};
use crate::stats::Fnv;
use engine::{Engine, EngineBuilder, EngineLimits, MatcherKind};
use ops5::{Matcher, Value};
use rete::network::Network;
use serve::{BatchItem, Command, Line, ProgramSpec, Reply, Session};
use std::sync::Arc;
use workloads::SetupVal;

/// Command classes the per-verb latency split reports on.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Verb {
    Open,
    Run,
    /// ASSERT / BATCH / RETRACT.
    Write,
    /// WM? / STATS? / FIRED?.
    Read,
    Close,
}

#[derive(Debug, Clone)]
pub struct Cmd {
    /// Full request text: one or more `\n`-terminated lines.
    pub wire: String,
    pub verb: Verb,
    /// FNV digest of the exact reply text. `None` for `STATS?`, whose
    /// `matcher=`/`activations=`/`durability=` fields depend on the shell.
    pub expect: Option<u64>,
}

/// One program's concrete conversation, `OPEN` excluded (its matcher and
/// session id vary by shell), `CLOSE` included.
pub struct Conversation {
    pub cmds: Vec<Cmd>,
    /// `cmds[..cut]` is a whole number of iterations for every `cut` here:
    /// the places a time-bounded run may stop a steady session.
    pub cuts: Vec<usize>,
    /// Digest of the reference session's firing log at `CLOSE`.
    pub fired_digest: u64,
    /// `wme-changes` of the reference session at `CLOSE`.
    pub changes: u64,
    pub cycles: u64,
}

/// The network compile options every engine in the ledger is built with:
/// the paper-faithful defaults, set explicitly so the `OPS5_NETWORK_*`
/// environment knobs cannot move a measurement.
pub fn net_options() -> rete::NetworkOptions {
    rete::NetworkOptions::default()
}

/// The server's per-command cycle clamp (`ServeConfig::default`).
pub const MAX_CYCLES_PER_RUN: u64 = 10_000;

/// Source → runnable engine: parse, compile, install whatever matcher
/// `configure` picks, load the source's `(make ...)` forms and the set-up
/// elements. Network options are pinned (see [`net_options`]).
pub fn build_engine_cfg(
    prog: &Prog,
    configure: impl FnOnce(EngineBuilder) -> EngineBuilder,
) -> ops5::Result<Engine> {
    let builder = EngineBuilder::from_source(&prog.source)?.network_options(net_options());
    let mut eng = configure(builder).build()?;
    eng.load_startup()?;
    for wme in &prog.setup {
        let sets: Vec<(&str, Value)> = wme
            .sets
            .iter()
            .map(|(a, v)| {
                let val = match v {
                    SetupVal::Sym(s) => eng.sym(s),
                    SetupVal::Int(i) => Value::Int(*i),
                };
                (a.as_str(), val)
            })
            .collect();
        eng.make_wme(&wme.class, &sets)?;
    }
    Ok(eng)
}

/// [`build_engine_cfg`] on a named matcher kind. This is the interval
/// `setup_s` times on the direct workloads.
pub fn build_engine(prog: &Prog, kind: MatcherKind) -> ops5::Result<Engine> {
    build_engine_cfg(prog, |b| b.matcher(kind))
}

/// [`build_engine_cfg`] with a caller-supplied matcher (recorders, span
/// wrappers).
pub fn build_engine_with(
    prog: &Prog,
    factory: impl FnOnce(Arc<Network>) -> Box<dyn Matcher> + 'static,
) -> ops5::Result<Engine> {
    build_engine_cfg(prog, |b| b.custom_matcher(factory))
}

/// The registry view of a program: source only. Set-up elements travel as a
/// `BATCH`, exactly as they do for a program file in `--programs`.
pub fn spec(prog: &Prog) -> ProgramSpec {
    ProgramSpec::from_source(prog.source.clone())
}

/// A fresh in-process session on `prog`, built the way the server's `OPEN`
/// builds one (`ProgramSpec::build` + `Session::new`).
pub fn open_session(prog: &Prog, matcher: &str, id: u64) -> Result<Session, String> {
    let kind = serve::matcher_kind(matcher)?;
    let eng = spec(prog)
        .build(kind.clone(), EngineLimits::default(), None)
        .map_err(|e| e.to_string())?;
    Ok(Session::new(
        id,
        prog.name.clone(),
        eng,
        kind,
        MAX_CYCLES_PER_RUN,
    ))
}

/// Digest of a reply's exact wire text.
pub fn reply_digest(reply: &Reply) -> u64 {
    Fnv::of(reply.to_string().as_bytes())
}

/// Digest of an engine's firing log (production name + matched timetags per
/// firing) — equal across matchers and across direct and served runs.
pub fn fired_digest(eng: &Engine) -> u64 {
    let mut h = Fnv::default();
    for (p, tags) in eng.fired_log() {
        h.bytes(eng.prog.prod_name(*p).as_bytes());
        for t in tags {
            h.u64(*t);
        }
        h.bytes(b"\n");
    }
    h.0
}

/// The connection layer in miniature: request text → the [`Command`] a
/// session executes, through the real [`serve::parse_line`]. `BATCH` bodies
/// are assembled here the way both front-ends assemble them.
pub fn parse_wire(wire: &str) -> Result<Command, String> {
    let mut lines = wire.lines();
    let first = lines.next().ok_or("empty request")?;
    Ok(match serve::parse_line(first)? {
        Line::Assert(body) => Command::Assert(body),
        Line::Retract(tag) => Command::Retract(tag),
        Line::Run(n) => Command::Run(n),
        Line::Wm(class) => Command::Wm(class),
        Line::Stats => Command::Stats,
        Line::Fired => Command::Fired,
        Line::Close => Command::Close,
        Line::BatchStart => {
            let mut items = Vec::new();
            for (i, l) in lines.enumerate() {
                match serve::parse_line(l)? {
                    Line::Assert(body) => items.push(BatchItem::Assert { line: i + 1, body }),
                    Line::Retract(tag) => items.push(BatchItem::Retract { line: i + 1, tag }),
                    Line::End => return Ok(Command::Batch(items)),
                    other => return Err(format!("unexpected {other:?} inside BATCH")),
                }
            }
            return Err("BATCH without END".into());
        }
        other => return Err(format!("the ledger never sends {other:?}")),
    })
}

fn field<'a>(payload: &'a str, key: &str) -> Option<&'a str> {
    payload
        .split_whitespace()
        .find_map(|kv| kv.strip_prefix(key)?.strip_prefix('='))
}

/// `key=<u64>` out of an `OK k=v ...` payload.
pub fn field_u64(payload: &str, key: &str) -> Option<u64> {
    field(payload, key)?.parse().ok()
}

/// Plays `steps` against a fresh in-process vs2 session and records the
/// concrete conversation. Any non-OK reply is an error: workloads are
/// chosen so that no operation fails.
pub fn concretize(prog: &Prog, steps: &[Step]) -> Result<Conversation, String> {
    let mut session = open_session(prog, "vs2", 0)?;
    let mut cmds: Vec<Cmd> = Vec::new();
    let mut cuts = Vec::new();
    let (mut newest, mut previous): (Option<u64>, Option<u64>) = (None, None);

    let send = |session: &mut Session,
                cmds: &mut Vec<Cmd>,
                wire: String,
                verb: Verb|
     -> Result<String, String> {
        let reply = session.execute(parse_wire(&wire)?);
        let payload = match &reply {
            Reply::Ok(s) => s.clone(),
            Reply::Multi { head, .. } => head.clone(),
            other => return Err(format!("{}: `{}` -> {other:?}", prog.name, wire.trim_end())),
        };
        let expect = (!wire.starts_with("STATS?")).then(|| reply_digest(&reply));
        cmds.push(Cmd { wire, verb, expect });
        Ok(payload)
    };

    for step in steps {
        match step {
            Step::Batch(bodies) => {
                // A new iteration starts here: everything before is a cut.
                cuts.push(cmds.len());
                let mut wire = String::from("BATCH\n");
                for b in bodies {
                    wire.push_str("ASSERT ");
                    wire.push_str(b);
                    wire.push('\n');
                }
                wire.push_str("END\n");
                send(&mut session, &mut cmds, wire, Verb::Write)?;
            }
            Step::RunUntilIdle => loop {
                let payload = send(
                    &mut session,
                    &mut cmds,
                    format!("RUN {RUN_SLICE}\n"),
                    Verb::Run,
                )?;
                if field(&payload, "reason") != Some("limit") {
                    break;
                }
            },
            Step::Wm(class) => {
                send(
                    &mut session,
                    &mut cmds,
                    format!("WM? {class}\n"),
                    Verb::Read,
                )?;
            }
            Step::Stats => {
                send(&mut session, &mut cmds, "STATS?\n".into(), Verb::Read)?;
            }
            Step::Fired => {
                send(&mut session, &mut cmds, "FIRED?\n".into(), Verb::Read)?;
            }
            Step::AssertAudit(body) => {
                let tag = send(
                    &mut session,
                    &mut cmds,
                    format!("ASSERT {body}\n"),
                    Verb::Write,
                )?;
                previous = newest;
                newest = Some(tag.parse().map_err(|_| format!("ASSERT replied `{tag}`"))?);
            }
            Step::RetractAudit => {
                if let Some(tag) = previous.take() {
                    send(
                        &mut session,
                        &mut cmds,
                        format!("RETRACT {tag}\n"),
                        Verb::Write,
                    )?;
                }
            }
            Step::Close => {
                cuts.push(cmds.len());
                let eng = session.engine();
                let (fired, changes, cycles) = (
                    fired_digest(eng),
                    eng.match_stats().wme_changes,
                    eng.cycles(),
                );
                send(&mut session, &mut cmds, "CLOSE\n".into(), Verb::Close)?;
                return Ok(Conversation {
                    cmds,
                    cuts,
                    fired_digest: fired,
                    changes,
                    cycles,
                });
            }
        }
    }
    Err(format!("{}: conversation does not end in CLOSE", prog.name))
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::inputs::{self, Inputs, Scale};

    #[test]
    fn wire_text_parses_to_the_command_a_session_executes() {
        assert_eq!(parse_wire("RUN 64\n"), Ok(Command::Run(64)));
        assert_eq!(
            parse_wire("WM? ticket\n"),
            Ok(Command::Wm(Some("ticket".into())))
        );
        assert_eq!(
            parse_wire("BATCH\nASSERT a ^x 1\nRETRACT 7\nEND\n"),
            Ok(Command::Batch(vec![
                BatchItem::Assert {
                    line: 1,
                    body: "a ^x 1".into()
                },
                BatchItem::Retract { line: 2, tag: 7 },
            ]))
        );
        assert!(parse_wire("BATCH\nASSERT a ^x 1\n").is_err());
        assert!(parse_wire("SHUTDOWN\n").is_err());
        assert_eq!(
            field_u64("cycles=3 wme-changes=41 cs=0", "wme-changes"),
            Some(41)
        );
        assert_eq!(field_u64("cycles=3", "cs"), None);
    }

    /// The conversation is matcher-neutral: replaying it on col and psm
    /// sessions yields the digests recorded on vs2, and a flipped digest is
    /// noticed (the "deliberately corrupted expectation" check).
    #[test]
    fn steady_conversation_replays_identically_on_every_matcher() {
        let Some(Inputs::Steady { prog, streams, .. }) =
            inputs::build("serve-steady", 42, Scale::Smoke, 1)
        else {
            unreachable!()
        };
        let conv = concretize(&prog, &streams[0]).unwrap();
        assert_eq!(conv.cuts.len(), 128 + 1);
        assert!(conv.changes > 1000 && conv.cycles > 500);
        assert!(conv.cmds.iter().any(|c| c.wire.starts_with("RETRACT")));
        for matcher in ["col", "psm"] {
            let mut s = open_session(&prog, matcher, 1).unwrap();
            for c in &conv.cmds {
                let reply = s.execute(parse_wire(&c.wire).unwrap());
                if let Some(want) = c.expect {
                    assert_eq!(reply_digest(&reply), want, "{matcher}: {}", c.wire);
                }
            }
            assert_eq!(fired_digest(s.engine()), conv.fired_digest);
        }
        let mut s = open_session(&prog, "vs2", 2).unwrap();
        let reply = s.execute(parse_wire(&conv.cmds[0].wire).unwrap());
        assert_ne!(Some(reply_digest(&reply) ^ 1), conv.cmds[0].expect);
    }

    #[test]
    fn one_shot_session_matches_a_direct_engine_run() {
        let Some(Inputs::Direct(prog)) = inputs::build("rubik", 7, Scale::Smoke, 1) else {
            unreachable!()
        };
        let conv = concretize(&prog, &inputs::session_steps(&prog)).unwrap();
        let mut eng = build_engine(&prog, MatcherKind::Col).unwrap();
        eng.run(prog.max_cycles).unwrap();
        (prog.validate.as_ref().unwrap())(&eng).unwrap();
        assert_eq!(fired_digest(&eng), conv.fired_digest);
        assert_eq!(eng.cycles(), conv.cycles);
    }
}
