//! The wire protocol: line-oriented text, one request per line.
//!
//! ```text
//! OPEN <program> [matcher] [PRIO=<p>]
//!                            open a session on a registered program,
//!                            optionally in a scheduling class
//!                            (high|normal|batch; default normal)
//! OPEN - [matcher] [PRIO=<p>]  ... on inline source (lines follow, then END)
//! ASSERT <class ^attr v ...> stage one WME               -> OK <timetag>
//! RETRACT <timetag>          stage one retraction        -> OK <timetag>
//! BATCH                      begin a multi-line batch (ASSERT/RETRACT
//! ...                        lines), closed by END       -> OK <n> <tags>
//! RUN <n>                    flush staged changes as one batch, fire up
//!                            to n cycles (0 = match-only settle)
//! CS?                        conflict set                -> CS <n> ... END
//! WM? [class]                working memory              -> WM <n> ... END
//! FIRED?                     firing log                  -> FIRED <n> ... END
//! SNAPSHOT?                  durable state snapshot      -> SNAPSHOT <n> ... END
//! RESTORE <program> [matcher] open a session from a snapshot (+ optional
//!                            change-log tail); body lines follow, then END
//! MIGRATE [matcher]          rebuild the session's engine from a live
//!                            snapshot, optionally on a different matcher
//! PRIO <class>               change the session's scheduling class
//!                            (high|normal|batch)         -> OK prio=<class>
//! CANCEL                     fast-fail every queued command of this
//!                            session (each replies ERR cancelled) and cut
//!                            an in-flight sliced RUN at its next slice
//!                            boundary                    -> OK cancelled pending=<n>
//! STATS?                     session statistics          -> OK k=v ...
//! METRICS?                   server-wide metrics in Prometheus text
//!                            exposition format           -> METRICS <n> ... END
//! CLOSE                      close the session
//! SHUTDOWN                   drain and stop the whole server
//! ```
//!
//! Every request gets exactly one reply, in request order. Single-line
//! replies are `OK ...`, `ERR ...`, or the backpressure pair `BUSY ...`
//! (server-wide run queue saturated — retry later) and `OVERLOADED ...`
//! (this session's command queue is full — drain replies first).
//! Multi-line replies open with `<KIND> <count>` and close with `END`.
//!
//! **Framing is a pure function of the bytes.** Where a request starts and
//! ends never depends on server state: [`Framer`] is the only code that
//! knows it, and the server's connection core and `ops5-router` both run
//! it, so they cannot disagree on how many replies a byte stream draws.
//!
//! * `OPEN -`, `RESTORE` and `BATCH` open a body. An `OPEN -` body runs to
//!   the first line reading `END` in any case; a `RESTORE` body to the
//!   first exact-case `END` (the snapshot's own terminator is lowercase
//!   `end` and stays in the body). Both are consumed unconditionally, and
//!   whatever is wrong with the request — a session already open, an
//!   unknown matcher or `PRIO=` class, a bad program — is the one `ERR`
//!   answered at the terminator. (Before PR 15 a refused `OPEN -` answered
//!   at its first line and left its body to be parsed as commands.)
//! * A `BATCH` body is `ASSERT`/`RETRACT` lines up to `END`; blank lines
//!   are skipped but counted, so errors name the line the client sent. The
//!   first line that is neither aborts the batch with one `ERR` and the
//!   rest of the body, its `END` included, is read as top-level requests.
//! * Outside a body a blank line is ignored and draws no reply.
//! * A line longer than [`MAX_LINE_BYTES`] draws `ERR line too long;
//!   closing` and the connection is closed; a body larger than
//!   [`MAX_BODY_BYTES`] is consumed to its terminator as usual and draws
//!   `ERR <verb> body too large`.

use crate::session::{BatchItem, Command};
use reactor::LineBuf;
use std::fmt;
use std::io;

/// Longest request line accepted, terminator excluded.
pub const MAX_LINE_BYTES: usize = 64 * 1024;

/// Largest `OPEN -`, `RESTORE` or `BATCH` body accepted, counting every body
/// line and its newline.
pub const MAX_BODY_BYTES: usize = 16 * 1024 * 1024;

/// One parsed request line.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum Line {
    /// `OPEN <program> [matcher] [PRIO=<class>]`; a program of `-`
    /// introduces inline source terminated by `END`. `prio` carries the
    /// raw class name — validated where the session is built.
    Open {
        program: String,
        matcher: Option<String>,
        prio: Option<String>,
    },
    Assert(String),
    Retract(u64),
    BatchStart,
    /// Terminates a `BATCH` or an inline `OPEN -` body.
    End,
    Run(u64),
    Cs,
    Wm(Option<String>),
    Stats,
    /// Server-wide metrics snapshot (works with or without an open session).
    Metrics,
    Fired,
    /// Serialize the session's full durable state (`SNAPSHOT?`).
    Snapshot,
    /// `RESTORE <program> [matcher] [PRIO=<class>]`; body lines (snapshot
    /// text, then any change-log tail) follow, terminated by `END`.
    Restore {
        program: String,
        matcher: Option<String>,
        prio: Option<String>,
    },
    /// `MIGRATE [matcher]`: snapshot + rebuild the engine in place.
    Migrate(Option<String>),
    /// `PRIO <class>`: change the session's scheduling class.
    Prio(String),
    /// `CANCEL`: fast-fail queued commands, cut an in-flight sliced `RUN`.
    Cancel,
    Close,
    Shutdown,
}

/// Splits `OPEN`/`RESTORE` trailing arguments into (matcher, prio): one
/// optional bare matcher name plus one optional `PRIO=<class>` token, in
/// either order.
fn matcher_and_prio(verb: &str, rest: &str) -> Result<(Option<String>, Option<String>), String> {
    let mut matcher = None;
    let mut prio = None;
    for tok in rest.split_whitespace() {
        if tok.len() >= 5 && tok[..5].eq_ignore_ascii_case("PRIO=") {
            if prio.replace(tok[5..].to_string()).is_some() {
                return Err(format!("{verb} takes one PRIO= argument"));
            }
        } else if matcher.replace(tok.to_string()).is_some() {
            return Err(format!("{verb} takes at most a matcher and PRIO=<class>"));
        }
    }
    Ok((matcher, prio))
}

/// Parses one request line (already stripped of the newline).
pub fn parse_line(line: &str) -> Result<Line, String> {
    let line = line.trim();
    let (verb, rest) = match line.split_once(char::is_whitespace) {
        Some((v, r)) => (v, r.trim()),
        None => (line, ""),
    };
    let no_arg = |l: Line| {
        if rest.is_empty() {
            Ok(l)
        } else {
            Err(format!("{verb} takes no argument"))
        }
    };
    match verb.to_ascii_uppercase().as_str() {
        "OPEN" => {
            let (program, tail) = match rest.split_once(char::is_whitespace) {
                Some((p, t)) => (p, t),
                None => (rest, ""),
            };
            if program.is_empty() {
                return Err("OPEN needs a program name (or `-`)".into());
            }
            let (matcher, prio) = matcher_and_prio("OPEN", tail)?;
            Ok(Line::Open {
                program: program.to_string(),
                matcher,
                prio,
            })
        }
        "ASSERT" => {
            if rest.is_empty() {
                Err("ASSERT needs a WME body".into())
            } else {
                Ok(Line::Assert(rest.to_string()))
            }
        }
        "RETRACT" => rest
            .parse::<u64>()
            .map(Line::Retract)
            .map_err(|_| format!("RETRACT needs a timetag, got `{rest}`")),
        "BATCH" => no_arg(Line::BatchStart),
        "END" => no_arg(Line::End),
        "RUN" => rest
            .parse::<u64>()
            .map(Line::Run)
            .map_err(|_| format!("RUN needs a cycle count, got `{rest}`")),
        "CS?" => no_arg(Line::Cs),
        "WM?" => Ok(Line::Wm(if rest.is_empty() {
            None
        } else {
            Some(rest.to_string())
        })),
        "STATS?" => no_arg(Line::Stats),
        "METRICS?" => no_arg(Line::Metrics),
        "FIRED?" => no_arg(Line::Fired),
        "SNAPSHOT?" => no_arg(Line::Snapshot),
        "RESTORE" => {
            let (program, tail) = match rest.split_once(char::is_whitespace) {
                Some((p, t)) => (p, t),
                None => (rest, ""),
            };
            if program.is_empty() {
                return Err("RESTORE needs a program name".into());
            }
            let (matcher, prio) = matcher_and_prio("RESTORE", tail)?;
            Ok(Line::Restore {
                program: program.to_string(),
                matcher,
                prio,
            })
        }
        "MIGRATE" => {
            let mut parts = rest.split_whitespace();
            let matcher = parts.next().map(|s| s.to_string());
            if parts.next().is_some() {
                return Err("MIGRATE takes at most one argument".into());
            }
            Ok(Line::Migrate(matcher))
        }
        "PRIO" => {
            let mut parts = rest.split_whitespace();
            let class = parts
                .next()
                .ok_or_else(|| "PRIO needs a class (high|normal|batch)".to_string())?
                .to_string();
            if parts.next().is_some() {
                return Err("PRIO takes one argument".into());
            }
            Ok(Line::Prio(class))
        }
        "CANCEL" => no_arg(Line::Cancel),
        "CLOSE" => no_arg(Line::Close),
        "SHUTDOWN" => no_arg(Line::Shutdown),
        "" => Err("empty request".into()),
        other => Err(format!("unknown request `{other}`")),
    }
}

/// Where the state of an `OPEN`ed session comes from.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum Origin {
    /// `OPEN <program>`: the registry program's own startup forms.
    Registry,
    /// `OPEN -`: the OPS5 source collected up to `END`.
    Inline(String),
    /// `RESTORE <program>`: the body collected up to `END` — snapshot text,
    /// then any change-log tail.
    Snapshot(String),
}

/// One complete request, as the connection layer acts on it: bodies are
/// collected, `BATCH` is assembled, and everything that can be decided from
/// the bytes alone has been.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum Request {
    /// `OPEN` or `RESTORE` (an inline `OPEN -` has the program name `-`).
    Open {
        program: String,
        matcher: Option<String>,
        prio: Option<String>,
        origin: Origin,
    },
    /// A command for the open session's inbox.
    Session(Command),
    Prio(String),
    Cancel,
    Metrics,
    Shutdown,
    /// The bytes did not frame a valid request: an unparsable line, a stray
    /// `END`, an aborted `BATCH`, an oversized body. Answered `ERR <text>`.
    Invalid(String),
}

/// What [`Framer::next_frame`] made of the input.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum Framed {
    /// One line consumed. `request` is `Some` when the line completes a
    /// request, which then draws exactly one reply; `None` when it is part
    /// of a body still open, or a blank line outside one.
    Line {
        line: String,
        request: Option<Request>,
    },
    /// A line exceeds [`MAX_LINE_BYTES`]. Nothing after it can be framed:
    /// answer `ERR line too long; closing` and close.
    TooLong,
}

/// The body a [`Framer`] is inside.
#[derive(Default)]
enum Body {
    #[default]
    None,
    /// An `OPEN -` body, or (`restore`) a `RESTORE` body.
    Text {
        restore: bool,
        program: String,
        matcher: Option<String>,
        prio: Option<String>,
        text: String,
    },
    /// `line_no` counts every line after `BATCH`, blank ones included.
    Batch {
        items: Vec<BatchItem>,
        line_no: usize,
    },
}

/// Request framing without a socket: bytes in, [`Framed`] decisions out.
/// The result does not depend on how the bytes were split across
/// [`feed`](Framer::feed) calls.
#[derive(Default)]
pub struct Framer {
    buf: LineBuf,
    body: Body,
    /// Bytes of the open body so far, held against [`MAX_BODY_BYTES`]. Past
    /// the cap the body is still consumed but no longer kept.
    body_bytes: usize,
}

impl Framer {
    pub fn new() -> Framer {
        Framer::default()
    }

    pub fn feed(&mut self, bytes: &[u8]) {
        self.buf.extend(bytes);
    }

    /// One read from `r` into the buffer; see [`LineBuf::read_from`].
    pub fn read_from(&mut self, r: &mut impl io::Read) -> io::Result<usize> {
        self.buf.read_from(r)
    }

    /// Bytes received but not yet framed.
    pub fn buffered(&self) -> usize {
        self.buf.len()
    }

    /// True between requests: no body is open.
    pub fn at_top(&self) -> bool {
        matches!(self.body, Body::None)
    }

    /// Frames the next buffered line; `None` until a whole line is there.
    pub fn next_frame(&mut self) -> Option<Framed> {
        match self.buf.next_line() {
            Some(line) if line.len() <= MAX_LINE_BYTES => {
                let request = self.line(&line);
                Some(Framed::Line { line, request })
            }
            Some(_) => Some(Framed::TooLong),
            // One byte of slack for the `\r` of a `\r\n` still to come, so
            // the verdict is the same however the line was delivered.
            None if self.buf.len() > MAX_LINE_BYTES + 1 => Some(Framed::TooLong),
            None => None,
        }
    }

    fn line(&mut self, line: &str) -> Option<Request> {
        match std::mem::take(&mut self.body) {
            Body::None => self.top(line),
            Body::Text {
                restore,
                program,
                matcher,
                prio,
                mut text,
            } => {
                // `RESTORE` wants the exact case: the snapshot text's own
                // terminator is a lowercase `end` and belongs to the body.
                let ends = match restore {
                    true => line.trim() == "END",
                    false => line.trim().eq_ignore_ascii_case("END"),
                };
                if !ends {
                    if self.fits(line) {
                        text.push_str(line);
                        text.push('\n');
                    }
                    self.body = Body::Text {
                        restore,
                        program,
                        matcher,
                        prio,
                        text,
                    };
                    return None;
                }
                let (verb, origin) = match restore {
                    true => ("RESTORE", Origin::Snapshot(text)),
                    false => ("OPEN", Origin::Inline(text)),
                };
                let request = Request::Open {
                    program,
                    matcher,
                    prio,
                    origin,
                };
                Some(self.close_body(verb, request))
            }
            Body::Batch {
                mut items,
                mut line_no,
            } => {
                line_no += 1;
                let fits = self.fits(line);
                let request = if line.trim().is_empty() {
                    None
                } else {
                    match parse_line(line) {
                        Ok(Line::Assert(body)) => {
                            if fits {
                                items.push(BatchItem::Assert {
                                    line: line_no,
                                    body,
                                });
                            }
                            None
                        }
                        Ok(Line::Retract(tag)) => {
                            if fits {
                                items.push(BatchItem::Retract { line: line_no, tag });
                            }
                            None
                        }
                        Ok(Line::End) => {
                            Some(Request::Session(Command::Batch(std::mem::take(&mut items))))
                        }
                        // The abort rule: the batch ends at its first bad
                        // line, and what follows — its `END` included — is
                        // read as top-level requests.
                        Ok(other) => Some(Request::Invalid(format!(
                            "BATCH line {line_no}: only ASSERT/RETRACT allowed, got {other:?}"
                        ))),
                        Err(e) => Some(Request::Invalid(format!("BATCH line {line_no}: {e}"))),
                    }
                };
                match request {
                    Some(r) => Some(self.close_body("BATCH", r)),
                    None => {
                        self.body = Body::Batch { items, line_no };
                        None
                    }
                }
            }
        }
    }

    /// A line outside any body. The match is exhaustive on purpose: a new
    /// verb has to be given a framing here before the crate compiles.
    fn top(&mut self, line: &str) -> Option<Request> {
        if line.trim().is_empty() {
            return None;
        }
        let parsed = match parse_line(line) {
            Ok(l) => l,
            Err(e) => return Some(Request::Invalid(e)),
        };
        Some(match parsed {
            Line::Open {
                program,
                matcher,
                prio,
            } => {
                if program == "-" {
                    return self.open_body(false, program, matcher, prio);
                }
                Request::Open {
                    program,
                    matcher,
                    prio,
                    origin: Origin::Registry,
                }
            }
            Line::Restore {
                program,
                matcher,
                prio,
            } => return self.open_body(true, program, matcher, prio),
            Line::BatchStart => {
                self.body = Body::Batch {
                    items: Vec::new(),
                    line_no: 0,
                };
                return None;
            }
            Line::End => Request::Invalid("END outside BATCH".into()),
            Line::Prio(class) => Request::Prio(class),
            Line::Cancel => Request::Cancel,
            Line::Metrics => Request::Metrics,
            Line::Shutdown => Request::Shutdown,
            Line::Assert(body) => Request::Session(Command::Assert(body)),
            Line::Retract(tag) => Request::Session(Command::Retract(tag)),
            Line::Run(n) => Request::Session(Command::Run(n)),
            Line::Cs => Request::Session(Command::Cs),
            Line::Wm(class) => Request::Session(Command::Wm(class)),
            Line::Stats => Request::Session(Command::Stats),
            Line::Fired => Request::Session(Command::Fired),
            Line::Snapshot => Request::Session(Command::Snapshot),
            Line::Migrate(m) => Request::Session(Command::Migrate(m)),
            Line::Close => Request::Session(Command::Close),
        })
    }

    /// Enters an `OPEN -` or (`restore`) `RESTORE` body; no reply is owed
    /// until it ends.
    fn open_body(
        &mut self,
        restore: bool,
        program: String,
        matcher: Option<String>,
        prio: Option<String>,
    ) -> Option<Request> {
        self.body = Body::Text {
            restore,
            program,
            matcher,
            prio,
            text: String::new(),
        };
        None
    }

    /// Counts one body line; false once the body is over the cap.
    fn fits(&mut self, line: &str) -> bool {
        self.body_bytes = self.body_bytes.saturating_add(line.len() + 1);
        self.body_bytes <= MAX_BODY_BYTES
    }

    /// The body just ended: `request`, unless the body outgrew the cap.
    fn close_body(&mut self, verb: &str, request: Request) -> Request {
        let bytes = std::mem::take(&mut self.body_bytes);
        if bytes > MAX_BODY_BYTES {
            Request::Invalid(format!(
                "{verb} body too large ({bytes} bytes, max {MAX_BODY_BYTES})"
            ))
        } else {
            request
        }
    }
}

/// One reply, ready to serialize. The `Busy`/`Overloaded` variants are the
/// protocol's backpressure signals and are never folded into `Err`.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum Reply {
    Ok(String),
    /// Multi-line reply: `<head>\n` + one line per item + `END\n`.
    Multi {
        head: String,
        lines: Vec<String>,
    },
    Err(String),
    Busy(String),
    Overloaded(String),
}

impl Reply {
    pub fn is_ok(&self) -> bool {
        matches!(self, Reply::Ok(_) | Reply::Multi { .. })
    }

    /// True for the two backpressure rejections.
    pub fn is_backpressure(&self) -> bool {
        matches!(self, Reply::Busy(_) | Reply::Overloaded(_))
    }

    /// Unwraps `OK <payload>`, turning anything else into an error string.
    pub fn expect_ok(self) -> Result<String, String> {
        match self {
            Reply::Ok(s) => Ok(s),
            other => Err(format!("expected OK, got {other:?}")),
        }
    }

    /// Unwraps a multi-line reply's body lines.
    pub fn expect_lines(self) -> Result<Vec<String>, String> {
        match self {
            Reply::Multi { lines, .. } => Ok(lines),
            other => Err(format!("expected multi-line reply, got {other:?}")),
        }
    }
}

impl fmt::Display for Reply {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            Reply::Ok(s) => writeln!(f, "OK {s}"),
            Reply::Multi { head, lines } => {
                writeln!(f, "{head}")?;
                for l in lines {
                    writeln!(f, "{l}")?;
                }
                writeln!(f, "END")
            }
            Reply::Err(s) => writeln!(f, "ERR {s}"),
            Reply::Busy(s) => writeln!(f, "BUSY {s}"),
            Reply::Overloaded(s) => writeln!(f, "OVERLOADED {s}"),
        }
    }
}

/// Where a reply ends, and nothing else: reply lines in, "this line
/// completed a reply" out. A multi-line head declares its body length
/// (`SNAPSHOT <n>`, `METRICS <n>`, ...), so the body is counted, not
/// scanned: a body line that happens to read `END` cannot end the reply
/// early. Only a head with no parsable count falls back to scanning for
/// `END`. It keeps no line, so a relay that only needs to know where each
/// reply ends holds nothing of the body it passes on.
#[derive(Default, Debug, PartialEq, Eq)]
pub struct ReplyCounter {
    /// Inside a multi-line reply: the body length its head declared, and
    /// the body lines seen so far.
    body: Option<(Option<usize>, usize)>,
}

impl ReplyCounter {
    /// Takes the next reply line (terminator stripped). `Some(ok)` when it
    /// completes a reply, `ok` being whether that reply was a one-line `OK`.
    pub fn push(&mut self, line: &str) -> Option<bool> {
        let Some((declared, seen)) = &mut self.body else {
            let (tag, rest) = line.split_once(' ').unwrap_or((line, ""));
            if one_line(tag).is_some() {
                return Some(tag == "OK");
            }
            let declared = rest.split_whitespace().next().and_then(|n| n.parse().ok());
            self.body = Some((declared, 0));
            return None;
        };
        let end = match *declared {
            Some(n) => *seen == n,
            None => line == "END",
        };
        if end {
            self.body = None;
            return Some(false);
        }
        *seen += 1;
        None
    }
}

/// Reply framing, the inverse of [`Reply`]'s `Display`: a [`ReplyCounter`]
/// that also keeps the lines, so whole replies come out.
#[derive(Default)]
pub struct ReplyFramer {
    counter: ReplyCounter,
    head: Option<String>,
    lines: Vec<String>,
}

impl ReplyFramer {
    pub fn new() -> ReplyFramer {
        ReplyFramer::default()
    }

    /// Takes the next reply line (terminator stripped); returns the reply
    /// it completes, if any.
    pub fn push(&mut self, line: String) -> Option<Reply> {
        if self.counter.push(&line).is_none() {
            match self.head {
                None => self.head = Some(line),
                Some(_) => self.lines.push(line),
            }
            return None;
        }
        match self.head.take() {
            Some(head) => Some(Reply::Multi {
                head,
                lines: std::mem::take(&mut self.lines),
            }),
            None => {
                let (tag, rest) = line.split_once(' ').unwrap_or((&line, ""));
                one_line(tag).map(|make| make(rest.to_string()))
            }
        }
    }
}

/// The reply a one-line tag stands for; `None` for a multi-line head.
fn one_line(tag: &str) -> Option<fn(String) -> Reply> {
    match tag {
        "OK" => Some(Reply::Ok),
        "ERR" => Some(Reply::Err),
        "BUSY" => Some(Reply::Busy),
        "OVERLOADED" => Some(Reply::Overloaded),
        _ => None,
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn parses_every_verb() {
        assert_eq!(
            parse_line("OPEN rubik"),
            Ok(Line::Open {
                program: "rubik".into(),
                matcher: None,
                prio: None
            })
        );
        assert_eq!(
            parse_line("open - psm"),
            Ok(Line::Open {
                program: "-".into(),
                matcher: Some("psm".into()),
                prio: None
            })
        );
        assert_eq!(
            parse_line("OPEN rubik PRIO=batch"),
            Ok(Line::Open {
                program: "rubik".into(),
                matcher: None,
                prio: Some("batch".into())
            })
        );
        // PRIO= and matcher compose in either order; case-insensitive key.
        assert_eq!(
            parse_line("OPEN rubik prio=HIGH psm"),
            Ok(Line::Open {
                program: "rubik".into(),
                matcher: Some("psm".into()),
                prio: Some("HIGH".into())
            })
        );
        assert_eq!(parse_line("PRIO high"), Ok(Line::Prio("high".into())));
        assert_eq!(parse_line("prio batch"), Ok(Line::Prio("batch".into())));
        assert_eq!(parse_line("CANCEL"), Ok(Line::Cancel));
        assert_eq!(
            parse_line("ASSERT block ^name a"),
            Ok(Line::Assert("block ^name a".into()))
        );
        assert_eq!(parse_line("RETRACT 17"), Ok(Line::Retract(17)));
        assert_eq!(parse_line("BATCH"), Ok(Line::BatchStart));
        assert_eq!(parse_line("END"), Ok(Line::End));
        assert_eq!(parse_line("RUN 100"), Ok(Line::Run(100)));
        assert_eq!(parse_line("CS?"), Ok(Line::Cs));
        assert_eq!(parse_line("WM?"), Ok(Line::Wm(None)));
        assert_eq!(parse_line("WM? block"), Ok(Line::Wm(Some("block".into()))));
        assert_eq!(parse_line("STATS?"), Ok(Line::Stats));
        assert_eq!(parse_line("METRICS?"), Ok(Line::Metrics));
        assert_eq!(parse_line("metrics?"), Ok(Line::Metrics));
        assert_eq!(parse_line("FIRED?"), Ok(Line::Fired));
        assert_eq!(parse_line("SNAPSHOT?"), Ok(Line::Snapshot));
        assert_eq!(
            parse_line("RESTORE adder"),
            Ok(Line::Restore {
                program: "adder".into(),
                matcher: None,
                prio: None
            })
        );
        assert_eq!(
            parse_line("restore adder psm"),
            Ok(Line::Restore {
                program: "adder".into(),
                matcher: Some("psm".into()),
                prio: None
            })
        );
        assert_eq!(
            parse_line("RESTORE adder PRIO=high"),
            Ok(Line::Restore {
                program: "adder".into(),
                matcher: None,
                prio: Some("high".into())
            })
        );
        assert_eq!(parse_line("MIGRATE"), Ok(Line::Migrate(None)));
        assert_eq!(
            parse_line("MIGRATE vs2"),
            Ok(Line::Migrate(Some("vs2".into())))
        );
        assert_eq!(parse_line("CLOSE"), Ok(Line::Close));
        assert_eq!(parse_line("SHUTDOWN"), Ok(Line::Shutdown));
    }

    #[test]
    fn rejects_malformed_lines() {
        assert!(parse_line("").is_err());
        assert!(parse_line("FROB").is_err());
        assert!(parse_line("RUN").is_err());
        assert!(parse_line("RUN x").is_err());
        assert!(parse_line("RETRACT -3").is_err());
        assert!(parse_line("ASSERT").is_err());
        assert!(parse_line("OPEN").is_err());
        assert!(parse_line("CLOSE now").is_err());
        assert!(parse_line("METRICS? all").is_err());
        assert!(parse_line("SNAPSHOT? x").is_err());
        assert!(parse_line("RESTORE").is_err());
        assert!(parse_line("RESTORE a b c").is_err());
        assert!(parse_line("MIGRATE a b").is_err());
        assert!(parse_line("PRIO").is_err());
        assert!(parse_line("PRIO a b").is_err());
        assert!(parse_line("CANCEL now").is_err());
        assert!(parse_line("OPEN r PRIO=a PRIO=b").is_err());
        assert!(parse_line("OPEN r vs2 psm").is_err());
    }

    #[test]
    fn reply_serialization() {
        assert_eq!(Reply::Ok("17".into()).to_string(), "OK 17\n");
        assert_eq!(Reply::Err("nope".into()).to_string(), "ERR nope\n");
        assert_eq!(Reply::Busy("q".into()).to_string(), "BUSY q\n");
        assert_eq!(
            Reply::Overloaded("full".into()).to_string(),
            "OVERLOADED full\n"
        );
        let m = Reply::Multi {
            head: "CS 2".into(),
            lines: vec!["p1 1 2".into(), "p2 3".into()],
        };
        assert_eq!(m.to_string(), "CS 2\np1 1 2\np2 3\nEND\n");
    }

    /// Every frame a script yields when delivered in `cuts`-sized pieces
    /// (cycled); `TooLong` is terminal, as it is for a connection.
    fn frames(script: &[u8], cuts: &[usize]) -> Vec<Framed> {
        let mut framer = Framer::new();
        let mut out = Vec::new();
        let mut cuts = cuts.iter().cycle();
        let mut rest = script;
        while !rest.is_empty() {
            let n = (*cuts.next().unwrap()).min(rest.len());
            framer.feed(&rest[..n]);
            rest = &rest[n..];
            while let Some(f) = framer.next_frame() {
                let stop = f == Framed::TooLong;
                out.push(f);
                if stop {
                    return out;
                }
            }
        }
        out
    }

    fn requests(script: &str) -> Vec<Request> {
        frames(script.as_bytes(), &[usize::MAX])
            .into_iter()
            .filter_map(|f| match f {
                Framed::Line { request, .. } => request,
                Framed::TooLong => panic!("line too long"),
            })
            .collect()
    }

    fn invalid(r: &Request) -> &str {
        match r {
            Request::Invalid(e) => e,
            other => panic!("expected Invalid, got {other:?}"),
        }
    }

    /// The wire change of PR 15: an `OPEN -` body is consumed up to `END`
    /// whatever the head line says, so a refused inline open draws one reply
    /// and the next request is framed as itself — here and in the router.
    #[test]
    fn open_inline_body_is_consumed_unconditionally() {
        let got = requests("OPEN - nosuch PRIO=frob\n(a)\n\n(b)\nend\nSTATS?\n");
        assert_eq!(
            got,
            vec![
                Request::Open {
                    program: "-".into(),
                    matcher: Some("nosuch".into()),
                    prio: Some("frob".into()),
                    origin: Origin::Inline("(a)\n\n(b)\n".into()),
                },
                Request::Session(Command::Stats),
            ]
        );
    }

    #[test]
    fn restore_body_keeps_the_lowercase_end() {
        let got = requests("RESTORE adder col\nops5-snapshot v1\nend\n+ 1 a\nEnd\nEND\nCLOSE\n");
        assert_eq!(
            got,
            vec![
                Request::Open {
                    program: "adder".into(),
                    matcher: Some("col".into()),
                    prio: None,
                    origin: Origin::Snapshot("ops5-snapshot v1\nend\n+ 1 a\nEnd\n".into()),
                },
                Request::Session(Command::Close),
            ]
        );
        // `RESTORE -` is a RESTORE of a program called `-`, not an OPEN.
        let got = requests("RESTORE -\nend\nEND\n");
        assert!(
            matches!(&got[..], [Request::Open { origin: Origin::Snapshot(b), .. }] if b == "end\n"),
            "{got:?}"
        );
    }

    #[test]
    fn batch_counts_blank_lines_and_aborts_at_the_first_bad_line() {
        let got = requests("BATCH\nASSERT a ^x 1\n\nRETRACT 7\nEND\n");
        assert_eq!(
            got,
            vec![Request::Session(Command::Batch(vec![
                BatchItem::Assert {
                    line: 1,
                    body: "a ^x 1".into()
                },
                BatchItem::Retract { line: 3, tag: 7 },
            ]))]
        );
        // The abort rule: one ERR for the batch, then its END is a stray.
        let got = requests("BATCH\nASSERT a ^x 1\n\nRUN 1\nASSERT a ^x 2\nEND\n");
        assert_eq!(got.len(), 3, "{got:?}");
        assert!(invalid(&got[0]).starts_with("BATCH line 3: only ASSERT/RETRACT"));
        assert_eq!(got[1], Request::Session(Command::Assert("a ^x 2".into())));
        assert_eq!(invalid(&got[2]), "END outside BATCH");
        let got = requests("BATCH\nRETRACT nope\n");
        assert!(invalid(&got[0]).starts_with("BATCH line 1: RETRACT needs"));
    }

    /// A line is too long exactly when it is longer than the cap, however
    /// it arrives and whichever terminator it carries.
    #[test]
    fn line_length_bound() {
        for (extra, eol, too_long) in [(0, "\n", false), (0, "\r\n", false), (1, "\n", true)] {
            let mut script = "WM? ".to_string();
            script.push_str(&"x".repeat(MAX_LINE_BYTES - 4 + extra));
            script.push_str(eol);
            script.push_str("CLOSE\n");
            for cuts in [&[usize::MAX][..], &[4096], &[1]] {
                let got = frames(script.as_bytes(), cuts);
                if too_long {
                    assert_eq!(got, vec![Framed::TooLong], "{extra} {eol:?} {cuts:?}");
                } else {
                    assert_eq!(got.len(), 2, "{extra} {eol:?} {cuts:?}");
                    assert!(!got.contains(&Framed::TooLong));
                }
            }
        }
        // No terminator at all: the verdict does not wait for one.
        let flood = vec![b'x'; MAX_LINE_BYTES + 2];
        assert_eq!(frames(&flood, &[4096]), vec![Framed::TooLong]);
    }

    /// An oversized body is consumed to its terminator like any other and
    /// answered once; the request after it is framed as itself.
    #[test]
    fn body_size_bound_keeps_framing_in_sync() {
        let line = format!("ASSERT a ^x {}\n", "7".repeat(1000));
        let lines = MAX_BODY_BYTES / line.len() + 1;
        for (head, verb) in [
            ("OPEN - vs2", "OPEN"),
            ("RESTORE a", "RESTORE"),
            ("BATCH", "BATCH"),
        ] {
            let mut script = format!("{head}\n");
            script.push_str(&line.repeat(lines));
            script.push_str("END\nSTATS?\n");
            let got = requests(&script);
            assert_eq!(got.len(), 2, "{verb}");
            assert!(
                invalid(&got[0]).starts_with(&format!("{verb} body too large")),
                "{}",
                invalid(&got[0])
            );
            assert_eq!(got[1], Request::Session(Command::Stats));
        }
        // An oversized batch still ends at its first bad line.
        let mut script = "BATCH\n".to_string();
        script.push_str(&line.repeat(lines));
        script.push_str("RUN 1\nEND\n");
        let got = requests(&script);
        assert!(invalid(&got[0]).starts_with("BATCH body too large"));
        assert_eq!(invalid(&got[1]), "END outside BATCH");
    }

    /// Request pieces the chunking property draws scripts from: every verb,
    /// every body kind, and the framing edge cases.
    const PIECES: &[&str] = &[
        "OPEN blocks vs2 PRIO=high",
        "OPEN -\n(literalize a x)\n\n(p r (a ^x 1) --> (halt))\nEND",
        "OPEN - nosuch PRIO=frob\n(literalize a x)\nRUN 1\nend",
        "OPEN - a b c\n(literalize a x)\nEND",
        "RESTORE blocks col\nops5-snapshot v1 fp=0 clock=1\nwm 1 a ^x 1\nend\n+ 2 a ^x 2\nEnd\n\nEND",
        "restore blocks\nend\nEND",
        "BATCH\nASSERT a ^x 1\n\nRETRACT 3\nEND",
        "BATCH\nASSERT a ^x 1\nRUN 1\nASSERT a ^x 2\nEND",
        "BATCH\n\nRETRACT nope\nEND",
        "batch\nend",
        "END",
        "",
        "   ",
        "ASSERT a ^x 1 ^y 2",
        "RETRACT 7",
        "RUN 5",
        "RUN x",
        "CS?",
        "WM?",
        "WM? a",
        "STATS?",
        "METRICS?",
        "FIRED?",
        "SNAPSHOT?",
        "MIGRATE psm",
        "PRIO batch",
        "CANCEL",
        "CLOSE",
        "SHUTDOWN",
        "NOSUCHVERB",
        "caf\u{e9} \u{1f600}",
    ];

    proptest::proptest! {
        /// Chunking as a property of the core, no sockets: a script fed
        /// under any chunking — 1-byte included — frames exactly as it does
        /// fed whole. Scripts mix `\n` and `\r\n` and may stop mid-request.
        #[test]
        fn framing_is_chunking_invariant(
            script in proptest::collection::vec((0usize..PIECES.len(), 0usize..2), 1..24),
            cuts in proptest::collection::vec(1usize..48, 1..32),
            keep in 0usize..101,
        ) {
            let mut text = String::new();
            for (piece, crlf) in script {
                let eol = if crlf == 1 { "\r\n" } else { "\n" };
                for line in PIECES[piece].split('\n') {
                    text.push_str(line);
                    text.push_str(eol);
                }
            }
            let bytes = &text.as_bytes()[..text.len() * keep / 100];
            let whole = frames(bytes, &[usize::MAX]);
            proptest::prop_assert_eq!(&frames(bytes, &cuts), &whole);
            proptest::prop_assert_eq!(&frames(bytes, &[1]), &whole);
        }
    }

    #[test]
    fn reply_framer_inverts_display() {
        let replies = vec![
            Reply::Ok("17".into()),
            Reply::Ok(String::new()),
            Reply::Err("nope".into()),
            Reply::Busy("run queue full; retry".into()),
            Reply::Overloaded("full".into()),
            Reply::Multi {
                head: "CS 0".into(),
                lines: Vec::new(),
            },
            // A body line that reads `END` is counted, not taken for the
            // terminator.
            Reply::Multi {
                head: "WM 3".into(),
                lines: vec!["1: (a ^x END)".into(), "END".into(), "OK 3".into()],
            },
            Reply::Ok("after".into()),
        ];
        let wire: String = replies.iter().map(Reply::to_string).collect();
        let mut framer = ReplyFramer::new();
        let got: Vec<Reply> = wire
            .lines()
            .filter_map(|l| framer.push(l.to_string()))
            .collect();
        // `OK` with an empty payload serializes as `OK ` and reads back so.
        assert_eq!(got, replies);
        // A head that declares no count falls back to the terminator scan.
        let mut framer = ReplyFramer::new();
        assert_eq!(framer.push("LEGACY".into()), None);
        assert_eq!(framer.push("a".into()), None);
        assert_eq!(
            framer.push("END".into()),
            Some(Reply::Multi {
                head: "LEGACY".into(),
                lines: vec!["a".into()]
            })
        );
    }
}
