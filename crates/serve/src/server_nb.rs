//! The reactor: one thread owns accept, read, and write for every
//! connection.
//!
//! This is the paper's premise applied to connections — processes are the
//! scarce resource, so work is multiplexed onto few of them: all sockets
//! share a single epoll loop (the vendored [`reactor`] crate). The module is
//! a pure I/O driver. Each socket is paired with a [`Conn`], the socket-free
//! connection core that owns framing, the session, reply ordering and every
//! bound; the driver moves bytes between the two, routes pool completions
//! (woken through a [`reactor::Waker`]) to the core they belong to, and
//! keeps each socket's epoll interest in step with what its core waits on.
//!
//! The one policy that needs a clock lives here: a connection the core has
//! declared overloaded gets [`OVERLOAD_GRACE`] to drain its final `ERR`
//! and is then force-closed, so a peer that never reads cannot pin the fd
//! and buffer indefinitely.

use crate::conn::Conn;
use crate::pool::Completions;
use crate::server::Shared;
use reactor::{Events, Interest, Poll, Token, Waker};
use std::collections::HashMap;
use std::io;
use std::net::{TcpListener, TcpStream};
use std::os::unix::io::AsRawFd;
use std::sync::atomic::Ordering;
use std::sync::Arc;
use std::time::{Duration, Instant};

const LISTENER: Token = Token(0);
const WAKER: Token = Token(1);
/// Connection tokens start here; token = slab index + CONN_BASE.
const CONN_BASE: usize = 2;

/// Poll timeout: how often the loop checks the stop flag and the drain
/// deadline when no I/O is happening.
const TICK: Duration = Duration::from_millis(100);
/// After `SHUTDOWN`, how long connections get to flush queued replies.
const DRAIN_GRACE: Duration = Duration::from_secs(10);
/// How long an overloaded connection gets to drain its final
/// `ERR overloaded` before being force-closed. Without it, a client that
/// never reads pins the fd and up to `write_buf_cap` bytes forever.
const OVERLOAD_GRACE: Duration = Duration::from_secs(5);
/// How often the loop sweeps for expired overload deadlines.
const OVERLOAD_SCAN: Duration = Duration::from_millis(500);
/// Reads per readable event before yielding back to the loop; leftover
/// data re-fires under level triggering, so this is fairness, not loss.
const READS_PER_EVENT: usize = 8;

/// One accepted socket and the core that speaks the protocol on it.
struct Sock {
    stream: TcpStream,
    conn: Conn,
    interest: Interest,
    /// Hard I/O failure: close without flushing.
    dead: bool,
    /// Set when the core declares the connection overloaded: it is
    /// force-closed if the final `ERR` has not flushed by then.
    overload_deadline: Option<Instant>,
}

/// The reactor loop. Returns after `SHUTDOWN` once every connection has
/// drained (or the grace period expires).
pub(crate) fn run(listener: TcpListener, shared: &Arc<Shared>) -> io::Result<()> {
    // Thousands of connections need thousands of fds; best-effort raise.
    let _ = reactor::raise_nofile_limit(65536);
    listener.set_nonblocking(true)?;
    let poll = Poll::new()?;
    let counters = shared.counters.as_ref();
    let epoll_ctl = || {
        if let Some(c) = counters {
            c.epoll_ctls.inc();
        }
    };
    epoll_ctl();
    poll.register(listener.as_raw_fd(), LISTENER, Interest::READABLE)?;
    epoll_ctl();
    let waker = Arc::new(Waker::new(&poll, WAKER)?);
    let completions = Arc::new(Completions::new({
        let waker = waker.clone();
        let writes = counters.map(|c| c.eventfd_writes.clone());
        move || {
            if let Some(w) = &writes {
                w.inc();
            }
            let _ = waker.wake();
        }
    }));

    let mut events = Events::with_capacity(1024);
    let mut conns: Vec<Option<Sock>> = Vec::new();
    let mut free: Vec<usize> = Vec::new();
    let mut by_id: HashMap<u64, usize> = HashMap::new();
    let mut next_id: u64 = 1;
    let mut draining: Option<Instant> = None;
    let mut next_overload_scan = Instant::now() + OVERLOAD_SCAN;

    loop {
        poll.poll(&mut events, Some(TICK))?;
        if let Some(c) = counters {
            c.epoll_waits.inc();
            if !events.is_empty() {
                c.wakeups.inc();
            }
        }
        // Connections whose state changed this iteration; pumped (flush +
        // interest update) below. Duplicates are harmless.
        let mut touched: Vec<usize> = Vec::new();

        for ev in events.iter() {
            match ev.token() {
                LISTENER => {
                    if draining.is_some() {
                        continue;
                    }
                    loop {
                        let (stream, _) = match listener.accept() {
                            Ok(a) => a,
                            Err(e) if e.kind() == io::ErrorKind::WouldBlock => break,
                            Err(_) => break,
                        };
                        let _ = stream.set_nodelay(true);
                        if stream.set_nonblocking(true).is_err() {
                            continue;
                        }
                        let idx = free.pop().unwrap_or_else(|| {
                            conns.push(None);
                            conns.len() - 1
                        });
                        epoll_ctl();
                        if poll
                            .register(
                                stream.as_raw_fd(),
                                Token(idx + CONN_BASE),
                                Interest::READABLE,
                            )
                            .is_err()
                        {
                            free.push(idx);
                            continue;
                        }
                        let id = next_id;
                        next_id += 1;
                        by_id.insert(id, idx);
                        conns[idx] = Some(Sock {
                            stream,
                            conn: Conn::new(id),
                            interest: Interest::READABLE,
                            dead: false,
                            overload_deadline: None,
                        });
                        if let Some(c) = &shared.counters {
                            c.accepts.inc();
                            c.connections_open.add(1);
                        }
                    }
                }
                WAKER => {
                    if let Some(c) = counters {
                        c.eventfd_reads.inc();
                    }
                    waker.drain()
                }
                Token(t) => {
                    let idx = t - CONN_BASE;
                    let Some(sock) = conns.get_mut(idx).and_then(Option::as_mut) else {
                        continue;
                    };
                    if ev.is_readable() && sock.conn.wants_read() && !sock.dead {
                        let mut eof = false;
                        for _ in 0..READS_PER_EVENT {
                            if let Some(c) = counters {
                                c.read_calls.inc();
                            }
                            match sock.conn.read_from(&mut sock.stream) {
                                Ok(0) => {
                                    eof = true;
                                    break;
                                }
                                Ok(n) => {
                                    if let Some(c) = &shared.counters {
                                        c.read_bytes.add(n as u64);
                                    }
                                    if n < 4096 {
                                        break;
                                    }
                                }
                                Err(e) if e.kind() == io::ErrorKind::WouldBlock => break,
                                Err(e) if e.kind() == io::ErrorKind::Interrupted => continue,
                                Err(_) => {
                                    sock.dead = true;
                                    break;
                                }
                            }
                        }
                        if !sock.dead {
                            // Complete lines received before EOF still
                            // execute.
                            sock.conn.process(shared, &completions);
                            if eof {
                                sock.conn.close_input();
                            }
                        }
                    }
                    touched.push(idx);
                }
            }
        }

        // Route worker replies to the cores that are waiting for them.
        for (cid, seq, reply) in completions.drain() {
            if let Some(&idx) = by_id.get(&cid) {
                if let Some(sock) = conns[idx].as_mut() {
                    sock.conn.complete(seq, reply, shared);
                    touched.push(idx);
                }
            }
        }

        // First iteration after SHUTDOWN: stop accepting, stop parsing,
        // give every connection the grace period to flush.
        if draining.is_none() && shared.stop.load(Ordering::SeqCst) {
            draining = Some(Instant::now());
            for (idx, c) in conns.iter_mut().enumerate() {
                if let Some(sock) = c {
                    sock.conn.close_input();
                    touched.push(idx);
                }
            }
        }

        // Sweep overload deadlines: an overloaded connection whose client
        // never drains the final `ERR` must not hold its fd and buffer
        // forever. Rate-limited so the sweep stays off the hot path.
        let now = Instant::now();
        if now >= next_overload_scan {
            next_overload_scan = now + OVERLOAD_SCAN;
            for (idx, c) in conns.iter_mut().enumerate() {
                if let Some(sock) = c {
                    if sock.overload_deadline.is_some_and(|d| now > d) {
                        sock.dead = true;
                        touched.push(idx);
                    }
                }
            }
        }

        for idx in touched {
            let Some(sock) = conns.get_mut(idx).and_then(Option::as_mut) else {
                continue;
            };
            pump(sock, idx, shared, &poll);
            if sock.dead || sock.conn.finished() {
                epoll_ctl();
                let _ = poll.deregister(sock.stream.as_raw_fd());
                by_id.remove(&sock.conn.id);
                if let Some(c) = &shared.counters {
                    c.connections_open.add(-1);
                }
                conns[idx] = None;
                // Safe to recycle next iteration: the fd is deregistered,
                // so no later event in a future batch can name this slot.
                free.push(idx);
            }
        }

        if let Some(since) = draining {
            if by_id.is_empty() || since.elapsed() > DRAIN_GRACE {
                break;
            }
        }
    }
    Ok(())
}

/// Flushes what the socket accepts and keeps the epoll interest in sync
/// with what the connection actually waits on. `idx` is the connection's
/// slab index (its token is `idx + CONN_BASE`).
fn pump(sock: &mut Sock, idx: usize, shared: &Shared, poll: &Poll) {
    if sock.conn.wants_write() && !sock.dead {
        if let Some(c) = &shared.counters {
            c.write_calls.inc();
        }
        match sock.conn.write_to(&mut sock.stream) {
            Ok(n) => {
                if let Some(c) = &shared.counters {
                    c.write_bytes.add(n as u64);
                }
            }
            Err(_) => sock.dead = true,
        }
    }
    if sock.dead || sock.conn.finished() {
        return;
    }
    if sock.conn.is_overloaded() && sock.overload_deadline.is_none() {
        sock.overload_deadline = Some(Instant::now() + OVERLOAD_GRACE);
    }
    let mut want = Interest::NONE;
    if sock.conn.wants_read() {
        want = want | Interest::READABLE;
    }
    if sock.conn.wants_write() {
        want = want | Interest::WRITABLE;
    }
    if want != sock.interest {
        if let Some(c) = &shared.counters {
            c.epoll_ctls.inc();
        }
        let token = Token(idx + CONN_BASE);
        if poll
            .reregister(sock.stream.as_raw_fd(), token, want)
            .is_ok()
        {
            sock.interest = want;
        }
    }
}
