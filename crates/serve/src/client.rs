//! Blocking client for the serve protocol — used by the load harness, the
//! integration tests, and anyone scripting a server from Rust.
//!
//! [`Client::request`] is strictly request/reply. The raw
//! [`send_line`](Client::send_line) / [`read_reply`](Client::read_reply)
//! halves exist for pipelining: fire a burst of requests without reading,
//! then drain the replies (the server guarantees reply order matches
//! request order, with `BUSY`/`OVERLOADED` taking the rejected request's
//! place).

use crate::protocol::{Reply, ReplyFramer};
use std::io::{self, BufRead, BufReader, Write};
use std::net::{TcpStream, ToSocketAddrs};

/// A reply as the client sees it: the server's own [`Reply`], read back off
/// the wire.
pub type ClientReply = Reply;

/// One protocol connection.
pub struct Client {
    reader: BufReader<TcpStream>,
    writer: TcpStream,
}

impl Client {
    pub fn connect(addr: impl ToSocketAddrs) -> io::Result<Client> {
        let stream = TcpStream::connect(addr)?;
        stream.set_nodelay(true)?;
        let writer = stream.try_clone()?;
        Ok(Client {
            reader: BufReader::new(stream),
            writer,
        })
    }

    /// Sends one raw request line (pipelining half; pair with
    /// [`read_reply`](Self::read_reply)).
    pub fn send_line(&mut self, line: &str) -> io::Result<()> {
        self.writer.write_all(line.as_bytes())?;
        self.writer.write_all(b"\n")?;
        self.writer.flush()
    }

    fn read_line(&mut self) -> io::Result<String> {
        let mut s = String::new();
        if self.reader.read_line(&mut s)? == 0 {
            return Err(io::Error::new(
                io::ErrorKind::UnexpectedEof,
                "server closed the connection",
            ));
        }
        Ok(s.trim_end_matches(['\n', '\r']).to_string())
    }

    /// Reads one reply (single- or multi-line).
    pub fn read_reply(&mut self) -> io::Result<ClientReply> {
        let mut framer = ReplyFramer::new();
        loop {
            if let Some(reply) = framer.push(self.read_line()?) {
                return Ok(reply);
            }
        }
    }

    /// One request, one reply.
    pub fn request(&mut self, line: &str) -> io::Result<ClientReply> {
        self.send_line(line)?;
        self.read_reply()
    }

    /// Opens a session on a registered program; returns the `OK` payload.
    pub fn open(&mut self, program: &str, matcher: Option<&str>) -> io::Result<ClientReply> {
        match matcher {
            Some(m) => self.request(&format!("OPEN {program} {m}")),
            None => self.request(&format!("OPEN {program}")),
        }
    }

    /// Opens a session in an explicit scheduling class
    /// (`high`|`normal`|`batch`).
    pub fn open_prio(
        &mut self,
        program: &str,
        matcher: Option<&str>,
        prio: &str,
    ) -> io::Result<ClientReply> {
        match matcher {
            Some(m) => self.request(&format!("OPEN {program} {m} PRIO={prio}")),
            None => self.request(&format!("OPEN {program} PRIO={prio}")),
        }
    }

    /// Opens a session on inline OPS5 source.
    pub fn open_source(&mut self, source: &str, matcher: Option<&str>) -> io::Result<ClientReply> {
        let head = match matcher {
            Some(m) => format!("OPEN - {m}"),
            None => "OPEN -".to_string(),
        };
        self.send_line(&head)?;
        for line in source.lines() {
            self.send_line(line)?;
        }
        self.send_line("END")?;
        self.read_reply()
    }

    /// Stages one WME; returns its timetag on success.
    pub fn assert_wme(&mut self, body: &str) -> io::Result<Result<u64, ClientReply>> {
        let reply = self.request(&format!("ASSERT {body}"))?;
        Ok(match reply {
            ClientReply::Ok(tag) => match tag.parse() {
                Ok(t) => Ok(t),
                Err(_) => Err(ClientReply::Err(format!("unparsable timetag `{tag}`"))),
            },
            other => Err(other),
        })
    }

    pub fn retract(&mut self, timetag: u64) -> io::Result<ClientReply> {
        self.request(&format!("RETRACT {timetag}"))
    }

    pub fn run(&mut self, cycles: u64) -> io::Result<ClientReply> {
        self.request(&format!("RUN {cycles}"))
    }

    pub fn cs(&mut self) -> io::Result<ClientReply> {
        self.request("CS?")
    }

    pub fn wm(&mut self, class: Option<&str>) -> io::Result<ClientReply> {
        match class {
            Some(c) => self.request(&format!("WM? {c}")),
            None => self.request("WM?"),
        }
    }

    pub fn stats(&mut self) -> io::Result<ClientReply> {
        self.request("STATS?")
    }

    /// Server-wide metrics in Prometheus text exposition format, one
    /// exposition line per reply line.
    pub fn metrics(&mut self) -> io::Result<ClientReply> {
        self.request("METRICS?")
    }

    pub fn fired(&mut self) -> io::Result<ClientReply> {
        self.request("FIRED?")
    }

    /// Pulls the session's durable state as snapshot text (the reply's
    /// body lines, newline-joined, are a complete `.snap` document).
    pub fn snapshot(&mut self) -> io::Result<ClientReply> {
        self.request("SNAPSHOT?")
    }

    /// Opens a session from a snapshot (plus an optional change-log tail
    /// appended after the snapshot's own `end` line). `body` is the raw
    /// document: snapshot text, then zero or more log lines.
    pub fn restore(
        &mut self,
        program: &str,
        matcher: Option<&str>,
        body: &str,
    ) -> io::Result<ClientReply> {
        let head = match matcher {
            Some(m) => format!("RESTORE {program} {m}"),
            None => format!("RESTORE {program}"),
        };
        self.send_line(&head)?;
        for line in body.lines() {
            self.send_line(line)?;
        }
        self.send_line("END")?;
        self.read_reply()
    }

    /// Rebuilds the session's engine from a live snapshot, optionally on a
    /// different matcher.
    pub fn migrate(&mut self, matcher: Option<&str>) -> io::Result<ClientReply> {
        match matcher {
            Some(m) => self.request(&format!("MIGRATE {m}")),
            None => self.request("MIGRATE"),
        }
    }

    /// Changes the session's scheduling class.
    pub fn prio(&mut self, class: &str) -> io::Result<ClientReply> {
        self.request(&format!("PRIO {class}"))
    }

    /// Fast-fails the session's queued commands and cuts an in-flight
    /// sliced `RUN` at its next slice boundary.
    pub fn cancel(&mut self) -> io::Result<ClientReply> {
        self.request("CANCEL")
    }

    pub fn close(&mut self) -> io::Result<ClientReply> {
        self.request("CLOSE")
    }

    pub fn shutdown(&mut self) -> io::Result<ClientReply> {
        self.request("SHUTDOWN")
    }
}
