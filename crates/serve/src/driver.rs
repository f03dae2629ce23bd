//! The reactor: one thread owns accept, read, and write for every socket
//! of a binary, the server's and the router's alike.
//!
//! This is the paper's premise applied to connections — processes are the
//! scarce resource, so work is multiplexed onto few of them: all sockets
//! share a single epoll loop (the vendored [`reactor`] crate). The module is
//! a pure I/O driver, generic over the socket-free [`Core`] it pairs with
//! each accepted connection: `ops5-serve` plugs in `conn::Conn` (framing,
//! the session, reply ordering, every bound), `ops5-router` plugs in
//! `router::Pair` (framing, the relay to a backend, reply ordering). A core
//! speaks for its client socket and, if it has one, for a backend socket
//! it asked its [`Service`] to attach. The driver owns the [`Poll`], the
//! tokens, each socket's epoll interest and the [`Waker`]; it moves bytes
//! between sockets and cores, keeps the interest in step with what each
//! core waits on, and hands the rest to the service's hooks: bytes that
//! arrived ([`Service::input`]) and results made off the reactor thread
//! ([`Service::external`]: pool completions, migration results).
//!
//! The one policy that needs a clock lives here: a core that has declared
//! itself overloaded gets [`OVERLOAD_GRACE`] to drain its final `ERR` and
//! is then force-closed, so a peer that never reads cannot pin the fd and
//! buffer indefinitely.

use crate::server::ConnCounters;
use reactor::{Events, Interest, Poll, Token, Waker};
use std::collections::HashMap;
use std::io::{self, Read, Write};
use std::net::{TcpListener, TcpStream};
use std::os::unix::io::AsRawFd;
use std::sync::Arc;
use std::time::{Duration, Instant};

const LISTENER: Token = Token(0);
const WAKER: Token = Token(1);
/// Socket tokens start here: a core's client socket is `BASE + 2 * idx`,
/// its backend socket the token after.
const BASE: usize = 2;

/// Poll timeout: how often the loop checks the stop flag and the drain
/// deadline when no I/O is happening.
const TICK: Duration = Duration::from_millis(100);
/// How long an overloaded connection gets to drain its final
/// `ERR overloaded` before being force-closed. Without it, a client that
/// never reads pins the fd and up to `write_buf_cap` bytes forever.
const OVERLOAD_GRACE: Duration = Duration::from_secs(5);
/// How often the loop sweeps for expired overload deadlines.
const OVERLOAD_SCAN: Duration = Duration::from_millis(500);
/// Reads per readable event before yielding back to the loop; leftover
/// data re-fires under level triggering, so this is fairness, not loss.
const READS_PER_EVENT: usize = 8;

/// Which of a core's two sockets.
#[derive(Clone, Copy, PartialEq, Eq, Debug)]
pub(crate) enum Side {
    /// The accepted connection.
    Client,
    /// A connection the core's service opened on its behalf.
    Backend,
}

const SIDES: [Side; 2] = [Side::Client, Side::Backend];

/// A connection's protocol state with no socket in it: the driver (or a
/// test's byte slices) moves the bytes.
pub(crate) trait Core {
    /// The core of freshly accepted connection `id` (process-unique, never
    /// reused).
    fn new(id: u64) -> Self;
    /// One read from `r` into `side`'s input buffer (0 = EOF).
    fn read_from(&mut self, side: Side, r: &mut impl Read) -> io::Result<usize>;
    /// Writes as much of `side`'s out buffer as `w` accepts without blocking.
    fn write_to(&mut self, side: Side, w: &mut impl Write) -> io::Result<usize>;
    fn wants_read(&self, side: Side) -> bool;
    fn wants_write(&self, side: Side) -> bool;
    /// Stops parsing input: the service is stopping.
    fn close_input(&mut self);
    /// The backend socket hit EOF or an error and has been let go.
    fn backend_lost(&mut self) {}
    /// The core has given up on a client that does not read: force-close
    /// it if its last bytes have not left within [`OVERLOAD_GRACE`].
    fn is_overloaded(&self) -> bool {
        false
    }
    /// Nothing left to do: the sockets can close.
    fn finished(&self) -> bool;
}

/// What a binary plugs into the driver besides its core.
pub(crate) trait Service {
    type Core: Core;
    /// After the service starts stopping, how long its cores get to flush.
    const GRACE: Duration;
    /// Bytes arrived for core `idx` (`client_eof`: its client has finished
    /// sending). Runs right after the reads of one readable event.
    fn input(&mut self, cores: &mut Cores<'_, Self::Core>, idx: usize, client_eof: bool);
    /// Once per loop iteration: deliver what other threads finished.
    fn external(&mut self, cores: &mut Cores<'_, Self::Core>);
    /// True once the service wants to stop: no more accepts, every core's
    /// input is closed, and the loop ends when they finish or [`Self::GRACE`]
    /// expires.
    fn stopping(&self) -> bool;
}

/// One accepted connection: its core and the sockets it speaks for.
struct Sock<C> {
    id: u64,
    core: C,
    /// Indexed by [`Side`]: the client socket, and a backend socket while
    /// one is attached.
    streams: [Option<TcpStream>; 2],
    interest: [Interest; 2],
    /// Hard I/O failure on the client socket: close without flushing.
    dead: bool,
    /// Set when the core declares itself overloaded: it is force-closed if
    /// the final `ERR` has not flushed by then.
    overload_deadline: Option<Instant>,
}

/// The core table, with the poll its sockets are registered on. The
/// service's hooks get it whole: cores by index or id, and the one way to
/// give a core a backend socket or take it back.
pub(crate) struct Cores<'a, C> {
    poll: Poll,
    /// The syscall counters, when the binary keeps them.
    counters: Option<&'a ConnCounters>,
    socks: Vec<Option<Sock<C>>>,
    free: Vec<usize>,
    by_id: HashMap<u64, usize>,
    /// Cores whose state changed this iteration; pumped (flush + interest
    /// update) at its end. Duplicates are harmless.
    touched: Vec<usize>,
}

impl<C: Core> Cores<'_, C> {
    pub(crate) fn get_mut(&mut self, idx: usize) -> Option<&mut C> {
        Some(&mut self.socks.get_mut(idx)?.as_mut()?.core)
    }

    /// The index of the core with this id, while its connection is open.
    pub(crate) fn find(&self, id: u64) -> Option<usize> {
        self.by_id.get(&id).copied()
    }

    /// Every open core with its index.
    pub(crate) fn iter(&self) -> impl Iterator<Item = (usize, &C)> {
        (self.socks.iter().enumerate()).filter_map(|(i, s)| Some((i, &s.as_ref()?.core)))
    }

    /// Has core `idx` flushed and its interest updated at the end of this
    /// iteration.
    pub(crate) fn touch(&mut self, idx: usize) {
        self.touched.push(idx);
    }

    /// Gives open core `idx` a backend socket (nonblocking), read interest
    /// only.
    pub(crate) fn attach(&mut self, idx: usize, stream: TcpStream) -> io::Result<()> {
        let sock = (self.socks.get_mut(idx).and_then(Option::as_mut))
            .ok_or_else(|| io::Error::other("no such core"))?;
        ctl(self.counters);
        let token = Token(BASE + 2 * idx + 1);
        self.poll
            .register(stream.as_raw_fd(), token, Interest::READABLE)?;
        sock.streams[Side::Backend as usize] = Some(stream);
        sock.interest[Side::Backend as usize] = Interest::READABLE;
        Ok(())
    }

    /// Takes core `idx`'s backend socket off the poll and hands it back.
    pub(crate) fn detach(&mut self, idx: usize) -> Option<TcpStream> {
        let sock = self.socks.get_mut(idx)?.as_mut()?;
        take_backend(&self.poll, self.counters, sock)
    }
}

/// Takes `sock`'s backend socket off `poll`.
fn take_backend<C>(
    poll: &Poll,
    counters: Option<&ConnCounters>,
    sock: &mut Sock<C>,
) -> Option<TcpStream> {
    let stream = sock.streams[Side::Backend as usize].take()?;
    ctl(counters);
    let _ = poll.deregister(stream.as_raw_fd());
    Some(stream)
}

/// Bumps a syscall counter, when the binary keeps them.
fn count(counters: Option<&ConnCounters>, bump: impl FnOnce(&ConnCounters)) {
    if let Some(c) = counters {
        bump(c);
    }
}

/// Counts one `epoll_ctl`.
fn ctl(counters: Option<&ConnCounters>) {
    count(counters, |c| c.epoll_ctls.inc());
}

/// The reactor loop over `listener`. `service` is built once the waker
/// exists, so work finished on other threads can kick the loop. Returns
/// once the service has stopped and every core has finished (or the grace
/// period expires).
pub(crate) fn run<S: Service>(
    listener: TcpListener,
    counters: Option<&ConnCounters>,
    service: impl FnOnce(Arc<Waker>) -> S,
) -> io::Result<()> {
    // Thousands of connections need thousands of fds; best-effort raise.
    let _ = reactor::raise_nofile_limit(65536);
    listener.set_nonblocking(true)?;
    let mut cores = Cores::<S::Core> {
        poll: Poll::new()?,
        counters,
        socks: Vec::new(),
        free: Vec::new(),
        by_id: HashMap::new(),
        touched: Vec::new(),
    };
    ctl(counters);
    (cores.poll).register(listener.as_raw_fd(), LISTENER, Interest::READABLE)?;
    ctl(counters);
    let waker = Arc::new(Waker::new(&cores.poll, WAKER)?);
    let mut service = service(waker.clone());

    let mut events = Events::with_capacity(1024);
    let mut next_id: u64 = 1;
    let mut draining: Option<Instant> = None;
    let mut next_overload_scan = Instant::now() + OVERLOAD_SCAN;

    loop {
        cores.poll.poll(&mut events, Some(TICK))?;
        if let Some(c) = counters {
            c.epoll_waits.inc();
            if !events.is_empty() {
                c.wakeups.inc();
            }
        }

        for ev in events.iter() {
            match ev.token() {
                LISTENER => {
                    if draining.is_some() {
                        continue;
                    }
                    while let Ok((stream, _)) = listener.accept() {
                        let _ = stream.set_nodelay(true);
                        if stream.set_nonblocking(true).is_err() {
                            continue;
                        }
                        let idx = cores.free.pop().unwrap_or_else(|| {
                            cores.socks.push(None);
                            cores.socks.len() - 1
                        });
                        ctl(counters);
                        if (cores.poll)
                            .register(
                                stream.as_raw_fd(),
                                Token(BASE + 2 * idx),
                                Interest::READABLE,
                            )
                            .is_err()
                        {
                            cores.free.push(idx);
                            continue;
                        }
                        let id = next_id;
                        next_id += 1;
                        cores.by_id.insert(id, idx);
                        cores.socks[idx] = Some(Sock {
                            id,
                            core: S::Core::new(id),
                            streams: [Some(stream), None],
                            interest: [Interest::READABLE, Interest::NONE],
                            dead: false,
                            overload_deadline: None,
                        });
                        count(counters, |c| {
                            c.accepts.inc();
                            c.connections_open.add(1);
                        });
                    }
                }
                WAKER => {
                    count(counters, |c| c.eventfd_reads.inc());
                    waker.drain()
                }
                Token(t) => {
                    let (idx, side) = ((t - BASE) / 2, SIDES[(t - BASE) % 2]);
                    let Some(sock) = cores.socks.get_mut(idx).and_then(Option::as_mut) else {
                        continue;
                    };
                    if ev.is_readable() && !sock.dead && sock.core.wants_read(side) {
                        let eof = read(sock, side, counters);
                        let dead = sock.dead;
                        if side == Side::Backend && eof {
                            sock.core.backend_lost();
                            take_backend(&cores.poll, counters, sock);
                        }
                        if !dead {
                            // Complete lines received before EOF still
                            // execute.
                            service.input(&mut cores, idx, side == Side::Client && eof);
                        }
                    }
                    cores.touch(idx);
                }
            }
        }

        // Results made on other threads: pool completions, migrations.
        service.external(&mut cores);

        // First iteration after the service stops: stop accepting, stop
        // parsing, give every core the grace period to flush.
        if draining.is_none() && service.stopping() {
            draining = Some(Instant::now());
            for (idx, s) in cores.socks.iter_mut().enumerate() {
                if let Some(sock) = s {
                    sock.core.close_input();
                    cores.touched.push(idx);
                }
            }
        }

        // Sweep overload deadlines: an overloaded connection whose client
        // never drains the final `ERR` must not hold its fd and buffer
        // forever. Rate-limited so the sweep stays off the hot path.
        let now = Instant::now();
        if now >= next_overload_scan {
            next_overload_scan = now + OVERLOAD_SCAN;
            for (idx, s) in cores.socks.iter_mut().enumerate() {
                if let Some(sock) = s {
                    if sock.overload_deadline.is_some_and(|d| now > d) {
                        sock.dead = true;
                        cores.touched.push(idx);
                    }
                }
            }
        }

        let mut touched = std::mem::take(&mut cores.touched);
        for &idx in &touched {
            pump(&mut cores, idx);
            let Some(sock) = cores.socks.get_mut(idx).and_then(Option::as_mut) else {
                continue;
            };
            if sock.dead || sock.core.finished() {
                for stream in sock.streams.iter().flatten() {
                    ctl(counters);
                    let _ = cores.poll.deregister(stream.as_raw_fd());
                }
                cores.by_id.remove(&sock.id);
                count(counters, |c| c.connections_open.add(-1));
                cores.socks[idx] = None;
                // Safe to recycle next iteration: the fds are deregistered,
                // so no later event in a future batch can name this slot.
                cores.free.push(idx);
            }
        }
        touched.clear();
        cores.touched = touched;

        if let Some(since) = draining {
            if cores.by_id.is_empty() || since.elapsed() > S::GRACE {
                break;
            }
        }
    }
    Ok(())
}

/// The reads of one readable event on `side`; true at EOF. A client socket
/// that fails is dead; a backend socket that fails counts as EOF.
fn read<C: Core>(sock: &mut Sock<C>, side: Side, counters: Option<&ConnCounters>) -> bool {
    let Some(stream) = sock.streams[side as usize].as_mut() else {
        return false;
    };
    for _ in 0..READS_PER_EVENT {
        if !sock.core.wants_read(side) {
            break;
        }
        count(counters, |c| c.read_calls.inc());
        match sock.core.read_from(side, stream) {
            Ok(0) => return true,
            Ok(n) => {
                count(counters, |c| c.read_bytes.add(n as u64));
                if n < 4096 {
                    break;
                }
            }
            Err(e) if e.kind() == io::ErrorKind::WouldBlock => break,
            Err(e) if e.kind() == io::ErrorKind::Interrupted => continue,
            Err(_) if side == Side::Backend => return true,
            Err(_) => {
                sock.dead = true;
                break;
            }
        }
    }
    false
}

/// Flushes what each socket of core `idx` accepts and keeps its epoll
/// interest in sync with what the core actually waits on.
fn pump<C: Core>(cores: &mut Cores<'_, C>, idx: usize) {
    let Cores {
        poll,
        counters,
        socks,
        ..
    } = cores;
    let Some(sock) = socks.get_mut(idx).and_then(Option::as_mut) else {
        return;
    };
    for side in SIDES {
        let Some(stream) = sock.streams[side as usize].as_mut() else {
            continue;
        };
        if !sock.core.wants_write(side) || sock.dead {
            continue;
        }
        count(*counters, |c| c.write_calls.inc());
        match sock.core.write_to(side, stream) {
            Ok(n) => count(*counters, |c| c.write_bytes.add(n as u64)),
            Err(_) if side == Side::Backend => {
                sock.core.backend_lost();
                take_backend(poll, *counters, sock);
            }
            Err(_) => sock.dead = true,
        }
    }
    if sock.dead || sock.core.finished() {
        return;
    }
    if sock.core.is_overloaded() && sock.overload_deadline.is_none() {
        sock.overload_deadline = Some(Instant::now() + OVERLOAD_GRACE);
    }
    for side in SIDES {
        let Some(stream) = sock.streams[side as usize].as_ref() else {
            continue;
        };
        let mut want = Interest::NONE;
        if sock.core.wants_read(side) {
            want = want | Interest::READABLE;
        }
        if sock.core.wants_write(side) {
            want = want | Interest::WRITABLE;
        }
        if want != sock.interest[side as usize] {
            ctl(*counters);
            let token = Token(BASE + 2 * idx + side as usize);
            if poll.reregister(stream.as_raw_fd(), token, want).is_ok() {
                sock.interest[side as usize] = want;
            }
        }
    }
}
