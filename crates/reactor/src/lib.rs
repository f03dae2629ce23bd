//! # reactor — a vendored, dependency-free epoll shim
//!
//! The paper's whole point is that processes are the scarce resource and
//! work should be multiplexed onto few of them; a server that spends two OS
//! threads per connection does the opposite. This crate is the substrate
//! for one thread serving every connection: a readiness-polled event loop
//! API in the shape of `mio` (`Poll`/`Token`/`Interest`/`Events` + a
//! cross-thread `Waker`), built directly on raw `epoll`/`eventfd` syscalls
//! because the build environment has no crates registry (the same reason
//! `crossbeam`/`proptest` are vendored as API-subset shims).
//!
//! On top of the selector sit the two buffers every nonblocking line-
//! protocol server needs: [`LineBuf`] (incremental line extraction across
//! arbitrary read boundaries) and [`WriteBuf`] (buffered writes with carry,
//! so a slow client costs memory instead of a blocked thread). Neither
//! buffer bounds itself: how long a line or how large a backlog may get is
//! protocol policy, set by the `serve` crate's request framer and
//! connection core.
//!
//! Consumers in this workspace: the `serve` crate's reactor (one I/O thread
//! driving every connection's socket-free core) and the `ops5-router`
//! session-sharding proxy.

mod buf;
mod poll;
mod sys;

pub use buf::{LineBuf, WriteBuf};
pub use poll::{Event, Events, Interest, Poll, Token, Waker};
pub use sys::raise_nofile_limit;

#[cfg(test)]
mod tests {
    use super::*;
    use std::io::{Read, Write};
    use std::net::{TcpListener, TcpStream};
    use std::time::Duration;

    const LST: Token = Token(0);
    const WKR: Token = Token(1);
    const CONN: Token = Token(2);

    #[test]
    fn accept_read_write_roundtrip() {
        let poll = Poll::new().unwrap();
        let listener = TcpListener::bind("127.0.0.1:0").unwrap();
        listener.set_nonblocking(true).unwrap();
        let addr = listener.local_addr().unwrap();
        poll.register(
            std::os::unix::io::AsRawFd::as_raw_fd(&listener),
            LST,
            Interest::READABLE,
        )
        .unwrap();

        let mut client = TcpStream::connect(addr).unwrap();
        client.write_all(b"PING\n").unwrap();

        let mut events = Events::with_capacity(16);
        let mut served: Option<TcpStream> = None;
        let mut got = LineBuf::new();
        for _ in 0..100 {
            poll.poll(&mut events, Some(Duration::from_millis(100)))
                .unwrap();
            for ev in events.iter() {
                match ev.token() {
                    LST => {
                        let (s, _) = listener.accept().unwrap();
                        s.set_nonblocking(true).unwrap();
                        poll.register(
                            std::os::unix::io::AsRawFd::as_raw_fd(&s),
                            CONN,
                            Interest::READABLE | Interest::WRITABLE,
                        )
                        .unwrap();
                        served = Some(s);
                    }
                    CONN if ev.is_readable() => {
                        let s = served.as_mut().unwrap();
                        match got.read_from(s) {
                            Ok(_) | Err(_) => {}
                        }
                    }
                    _ => {}
                }
            }
            if let Some(line) = got.next_line() {
                assert_eq!(line, "PING");
                let mut wb = WriteBuf::new();
                wb.push(b"PONG\n");
                let s = served.as_mut().unwrap();
                while !wb.is_empty() {
                    wb.write_to(s).unwrap();
                }
                let mut reply = [0u8; 5];
                client.read_exact(&mut reply).unwrap();
                assert_eq!(&reply, b"PONG\n");
                return;
            }
        }
        panic!("no line arrived within the poll budget");
    }

    #[test]
    fn waker_crosses_threads() {
        let poll = Poll::new().unwrap();
        let mut events = Events::with_capacity(4);
        let waker = std::sync::Arc::new(Waker::new(&poll, WKR).unwrap());

        // Nothing pending: the poll times out empty.
        poll.poll(&mut events, Some(Duration::from_millis(10)))
            .unwrap();
        assert!(events.is_empty());

        let w = waker.clone();
        let t = std::thread::spawn(move || w.wake().unwrap());
        poll.poll(&mut events, Some(Duration::from_secs(5)))
            .unwrap();
        t.join().unwrap();
        assert!(events.iter().any(|e| e.token() == WKR && e.is_readable()));
        waker.drain();

        // Drained: quiet again (level-triggered, so an undrained eventfd
        // would re-fire here).
        poll.poll(&mut events, Some(Duration::from_millis(10)))
            .unwrap();
        assert!(events.iter().all(|e| e.token() != WKR));
    }

    #[test]
    fn interest_controls_delivered_events() {
        let poll = Poll::new().unwrap();
        let listener = TcpListener::bind("127.0.0.1:0").unwrap();
        let addr = listener.local_addr().unwrap();
        let client = TcpStream::connect(addr).unwrap();
        let (server, _) = listener.accept().unwrap();
        server.set_nonblocking(true).unwrap();
        let fd = std::os::unix::io::AsRawFd::as_raw_fd(&server);

        // Write interest on an idle socket: immediately writable.
        poll.register(fd, CONN, Interest::WRITABLE).unwrap();
        let mut events = Events::with_capacity(4);
        poll.poll(&mut events, Some(Duration::from_millis(200)))
            .unwrap();
        assert!(events.iter().any(|e| e.token() == CONN && e.is_writable()));

        // Drop write interest: no data pending, so nothing fires.
        poll.reregister(fd, CONN, Interest::READABLE).unwrap();
        poll.poll(&mut events, Some(Duration::from_millis(50)))
            .unwrap();
        assert!(events.iter().all(|e| e.token() != CONN));

        // Peer close fires as readable (EOF must be observable).
        drop(client);
        poll.poll(&mut events, Some(Duration::from_millis(200)))
            .unwrap();
        assert!(events.iter().any(|e| e.token() == CONN && e.is_readable()));
        poll.deregister(fd).unwrap();
    }

    #[test]
    fn nofile_limit_is_queryable_and_monotone() {
        let cur = raise_nofile_limit(64).unwrap();
        assert!(cur >= 64);
        let again = raise_nofile_limit(cur).unwrap();
        assert!(again >= cur);
    }
}
