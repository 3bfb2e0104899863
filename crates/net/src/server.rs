//! The socket server: N readiness loops and non-blocking connection state
//! machines, generic over a [`Service`] that maps one request to one
//! response.
//!
//! A thread per connection would pin an OS thread through every blocking
//! read and top out around a few hundred concurrent peers. This module
//! uses the classic readiness architecture on [`crate::poll`]'s raw epoll
//! wrappers instead:
//!
//! * **N event-loop threads**, each owning one `epoll` instance and an
//!   exclusive set of connections. Loop 0 also owns the (non-blocking)
//!   listener; accepted sockets are distributed round-robin, crossing
//!   loops through a mutexed mailbox plus an `eventfd` wakeup. After the
//!   handoff a connection is touched by exactly one thread — no
//!   per-connection locks anywhere.
//! * **A per-connection state machine**: an incremental
//!   [`RequestParser`] takes in whatever bytes each readable event
//!   yields (partial heads, split bodies, pipelined keep-alive bursts),
//!   complete requests dispatch into the shared [`Service`], and responses
//!   accumulate in an output buffer drained on writability.
//! * **Hostile input**: a malformed request is answered `400` and its
//!   connection closed; an over-long line or header block is answered
//!   `400` and a body over [`ServerConfig::body_cap`] `413`, and in both
//!   cases the parser skips the refused message and the connection keeps
//!   serving what follows it. A request whose handler panics is answered
//!   `500`; its connection and the loop serve on
//!   ([`LoopStats::handler_panics`] counts them).
//! * **No copies on the way through**: each read lands in the
//!   connection's parse buffer, a parsed request borrows its bytes there,
//!   and its response is written straight into the output buffer.
//! * **Backpressure**: a connection whose peer stops reading accumulates
//!   response bytes; past a high-water mark the loop stops *reading*
//!   from it (interest drops `EPOLLIN`) until the kernel drains the
//!   queue below the low-water mark — a slow consumer throttles itself,
//!   not the loop.
//! * **FD hygiene**: idle connections are closed on a deadline sweep,
//!   `EPOLLERR`/`EPOLLHUP`/`ECONNRESET` tear down the one connection
//!   (never the loop), connections past [`ServerConfig::max_conns`] are
//!   shed at accept, and shutdown releases the listener first, then
//!   drains buffered responses for a bounded window before closing
//!   everything.
//!
//! Two services run on it: the DASH origin ([`ChunkServer`]) and
//! `abr-serve`'s decision service. The server is generic rather than
//! `dyn`, so each service's request path compiles to direct calls.

use crate::http::{
    ChunkServer, HttpError, ParseStep, Request, RequestParser, Response, MAX_REQUEST_BODY_BYTES,
};
use crate::poll::{self, Epoll, Event, EventFd, EPOLLERR, EPOLLHUP, EPOLLIN, EPOLLOUT, EPOLLRDHUP};
use std::io;
use std::net::{SocketAddr, TcpListener};
use std::os::fd::{AsRawFd, RawFd};
use std::panic::{self, AssertUnwindSafe};
use std::sync::atomic::{AtomicBool, AtomicU64, AtomicUsize, Ordering};
use std::sync::{Arc, Mutex};
use std::thread::JoinHandle;
use std::time::{Duration, Instant};

/// What the server runs: one parsed request in, one response out.
/// Shared by every loop thread, so implementations synchronise their own
/// state.
pub trait Service: Send + Sync + 'static {
    /// Routes one request to its response.
    fn handle(&self, req: &Request) -> Response;
}

impl Service for ChunkServer<'static> {
    fn handle(&self, req: &Request) -> Response {
        ChunkServer::handle(self, req)
    }
}

/// Transport configuration for [`Server::spawn`].
#[derive(Debug, Clone)]
pub struct ServerConfig {
    /// Event-loop threads (at least 1). Loop 0 owns the listener.
    pub loops: usize,
    /// Global cap on simultaneously open connections; sockets accepted
    /// beyond it are closed immediately.
    pub max_conns: usize,
    /// Request-body cap in bytes. A request declaring a larger
    /// `Content-Length` is answered `413` and its body skipped.
    pub body_cap: usize,
    /// Connections with no traffic for this long are closed by the
    /// sweep. Protects the fd budget from peers that connect and stall.
    pub idle_timeout: Duration,
}

impl Default for ServerConfig {
    fn default() -> Self {
        Self {
            loops: 2,
            max_conns: 16 * 1024,
            body_cap: MAX_REQUEST_BODY_BYTES,
            idle_timeout: Duration::from_secs(60),
        }
    }
}

/// One event loop's observability counters (all lock-free atomics; the
/// loop thread is the only writer).
#[derive(Debug, Default)]
pub struct LoopStats {
    /// Times the loop's `epoll_wait` returned (including timeouts).
    pub wakeups: AtomicU64,
    /// Connections this loop accepted (only the listener-owning loop
    /// accepts; the others show 0).
    pub accepts: AtomicU64,
    /// Reads that left an incomplete request buffered — the byte stream
    /// paused mid-message and the state machine carried it across.
    pub partial_reads: AtomicU64,
    /// Writes that could not drain the full response buffer (kernel
    /// send-queue pushback; the remainder waits for writability).
    pub short_writes: AtomicU64,
    /// Connections currently owned by this loop.
    pub open_conns: AtomicU64,
    /// Requests whose [`Service::handle`] panicked; each was answered
    /// `500` and the loop served on.
    pub handler_panics: AtomicU64,
}

/// A running server; dropping it shuts it down.
pub struct Server<S: Service> {
    addr: SocketAddr,
    service: Arc<S>,
    stats: Vec<Arc<LoopStats>>,
    stop: Arc<AtomicBool>,
    wakers: Vec<Arc<EventFd>>,
    mailboxes: Vec<Arc<Mutex<Vec<RawFd>>>>,
    threads: Vec<JoinHandle<()>>,
}

impl<S: Service> Server<S> {
    /// Starts `cfg.loops` loop threads, named `abr-evloop-{i}`, serving
    /// `service` on a loopback listener.
    pub fn spawn(service: S, cfg: ServerConfig) -> io::Result<Self> {
        let cfg = ServerConfig { loops: cfg.loops.max(1), ..cfg };
        let listener = TcpListener::bind("127.0.0.1:0")?;
        listener.set_nonblocking(true)?;
        let addr = listener.local_addr()?;
        let service = Arc::new(service);
        let stop = Arc::new(AtomicBool::new(false));
        let open_total = Arc::new(AtomicUsize::new(0));
        let stats: Vec<Arc<LoopStats>> =
            (0..cfg.loops).map(|_| Arc::new(LoopStats::default())).collect();
        let wakers: Vec<Arc<EventFd>> = (0..cfg.loops)
            .map(|_| EventFd::new().map(Arc::new))
            .collect::<io::Result<_>>()?;
        let mailboxes: Vec<Arc<Mutex<Vec<RawFd>>>> =
            (0..cfg.loops).map(|_| Arc::new(Mutex::new(Vec::new()))).collect();

        let mut listener = Some(listener);
        let threads = (0..cfg.loops)
            .map(|me| {
                let worker = LoopWorker {
                    me,
                    cfg: cfg.clone(),
                    listener: listener.take().filter(|_| me == 0),
                    service: Arc::clone(&service),
                    stats: Arc::clone(&stats[me]),
                    stop: Arc::clone(&stop),
                    open_total: Arc::clone(&open_total),
                    wake: Arc::clone(&wakers[me]),
                    wakers: wakers.clone(),
                    mailboxes: mailboxes.clone(),
                    rr: 0,
                    conns: Vec::new(),
                    gens: Vec::new(),
                    free: Vec::new(),
                };
                std::thread::Builder::new()
                    .name(format!("abr-evloop-{me}"))
                    .spawn(move || worker.run())
            })
            .collect::<io::Result<Vec<_>>>()?;

        Ok(Self {
            addr,
            service,
            stats,
            stop,
            wakers,
            mailboxes,
            threads,
        })
    }

    /// The loopback address clients connect to.
    pub fn addr(&self) -> SocketAddr {
        self.addr
    }

    /// The service, for in-process inspection.
    pub fn service(&self) -> &S {
        &self.service
    }

    /// Each loop's counters, indexed by loop.
    pub fn loop_stats(&self) -> &[Arc<LoopStats>] {
        &self.stats
    }

    /// Graceful shutdown: signals every loop, which release the listener
    /// immediately (the port frees before this returns), drain buffered
    /// responses for a bounded window, then close their connections.
    /// Idempotent; joins all loop threads.
    pub fn shutdown(&mut self) {
        if self.threads.is_empty() {
            return;
        }
        self.stop.store(true, Ordering::Release);
        for w in &self.wakers {
            let _ = w.signal();
        }
        for t in self.threads.drain(..) {
            let _ = t.join();
        }
        // Sockets handed off but never collected by their target loop.
        for mb in &self.mailboxes {
            let mut handoff = mb.lock().unwrap_or_else(|poisoned| poisoned.into_inner());
            for fd in handoff.drain(..) {
                let _ = poll::close(fd);
            }
        }
    }
}

impl<S: Service> Drop for Server<S> {
    fn drop(&mut self) {
        self.shutdown();
    }
}

/// Epoll token of the listener (loop 0 only).
const TOK_LISTEN: u64 = u64::MAX;
/// Epoll token of the loop's wakeup eventfd.
const TOK_WAKE: u64 = u64::MAX - 1;

/// Stop reading from a connection once this many response bytes are
/// queued unsent (slow-consumer backpressure)...
const HIGH_WATER: usize = 256 * 1024;
/// ...and resume reading once the queue drains below this.
const LOW_WATER: usize = 64 * 1024;

/// One non-blocking connection owned by exactly one loop.
struct Conn {
    fd: RawFd,
    /// Token-reuse guard: bumped every time this slot is reassigned, so
    /// readiness events from a previous occupant are ignored.
    gen: u32,
    parser: RequestParser,
    /// Buffered response bytes awaiting the socket.
    out: Vec<u8>,
    /// Sent prefix of `out`.
    out_pos: usize,
    last_active: Instant,
    /// Close once `out` fully drains (peer EOF, `connection: close`, or
    /// unrecoverable parse failure).
    close_after_flush: bool,
    /// Reading paused by the backpressure high-water mark.
    paused: bool,
    /// Interest mask currently registered with epoll.
    interest: u32,
}

struct LoopWorker<S> {
    me: usize,
    cfg: ServerConfig,
    listener: Option<TcpListener>,
    service: Arc<S>,
    stats: Arc<LoopStats>,
    stop: Arc<AtomicBool>,
    open_total: Arc<AtomicUsize>,
    wake: Arc<EventFd>,
    wakers: Vec<Arc<EventFd>>,
    mailboxes: Vec<Arc<Mutex<Vec<RawFd>>>>,
    /// Round-robin distribution cursor (loop 0 only).
    rr: usize,
    conns: Vec<Option<Conn>>,
    /// Per-slot generation, bumped on close so readiness events queued
    /// for a previous occupant never reach the slot's next connection.
    gens: Vec<u32>,
    free: Vec<usize>,
}

impl<S: Service> LoopWorker<S> {
    fn run(mut self) {
        let Ok(epoll) = Epoll::new() else { return };
        if epoll.add(self.wake.fd(), EPOLLIN, TOK_WAKE).is_err() {
            return;
        }
        if let Some(l) = &self.listener {
            if epoll.add(l.as_raw_fd(), EPOLLIN, TOK_LISTEN).is_err() {
                return;
            }
        }
        let mut events = vec![Event::default(); 1024];
        let mut last_sweep = Instant::now();
        let mut drain_deadline: Option<Instant> = None;
        loop {
            let timeout_ms = if drain_deadline.is_some() { 10 } else { 250 };
            let n = match epoll.wait(&mut events, timeout_ms) {
                Ok(n) => n,
                Err(_) => break,
            };
            self.stats.wakeups.fetch_add(1, Ordering::Relaxed);
            for ev in events.iter().take(n).copied() {
                match ev.token() {
                    TOK_WAKE => {
                        let _ = self.wake.drain();
                        self.collect_mailbox(&epoll, drain_deadline.is_some());
                    }
                    TOK_LISTEN => self.accept_ready(&epoll),
                    token => self.conn_ready(&epoll, token, ev, drain_deadline.is_some()),
                }
            }
            if self.stop.load(Ordering::Acquire) && drain_deadline.is_none() {
                // Graceful shutdown, phase 1: stop accepting — dropping
                // the listener releases the port right away — then give
                // buffered responses a bounded window to drain.
                self.listener = None;
                self.collect_mailbox(&epoll, true);
                drain_deadline = Some(Instant::now() + Duration::from_secs(1));
            }
            if let Some(deadline) = drain_deadline {
                let pending = self
                    .conns
                    .iter()
                    .flatten()
                    .any(|c| c.out_pos < c.out.len());
                if !pending || Instant::now() >= deadline {
                    break;
                }
            } else if last_sweep.elapsed() >= Duration::from_secs(1) {
                self.sweep_idle(&epoll);
                last_sweep = Instant::now();
            }
        }
        // Phase 2: everything still open goes down with the loop.
        for slot in 0..self.conns.len() {
            self.close_conn(&epoll, slot);
        }
    }

    // -- accept / distribute ------------------------------------------------

    fn accept_ready(&mut self, epoll: &Epoll) {
        let Some(listener_fd) = self.listener.as_ref().map(|l| l.as_raw_fd()) else {
            return;
        };
        loop {
            match poll::accept4(listener_fd) {
                Ok(Some(fd)) => {
                    if self.open_total.load(Ordering::Relaxed) >= self.cfg.max_conns
                        || self.stop.load(Ordering::Acquire)
                    {
                        let _ = poll::close(fd);
                        continue;
                    }
                    let _ = poll::set_tcp_nodelay(fd);
                    self.open_total.fetch_add(1, Ordering::Relaxed);
                    self.stats.accepts.fetch_add(1, Ordering::Relaxed);
                    let target = self.rr % self.cfg.loops;
                    self.rr += 1;
                    if target == self.me {
                        self.register_conn(epoll, fd);
                    } else {
                        self.mailboxes[target]
                            .lock()
                            .expect("a loop panicked holding its mailbox")
                            .push(fd);
                        let _ = self.wakers[target].signal();
                    }
                }
                Ok(None) => break,
                Err(_) => break,
            }
        }
    }

    fn collect_mailbox(&mut self, epoll: &Epoll, draining: bool) {
        let handoff: Vec<RawFd> = std::mem::take(
            &mut *self.mailboxes[self.me]
                .lock()
                .expect("a loop panicked holding its mailbox"),
        );
        for fd in handoff {
            if draining {
                let _ = poll::close(fd);
                self.open_total.fetch_sub(1, Ordering::Relaxed);
            } else {
                self.register_conn(epoll, fd);
            }
        }
    }

    fn register_conn(&mut self, epoll: &Epoll, fd: RawFd) {
        let slot = match self.free.pop() {
            Some(s) => s,
            None => {
                self.conns.push(None);
                self.gens.push(0);
                self.conns.len() - 1
            }
        };
        let gen = self.gens[slot];
        let interest = EPOLLIN | EPOLLRDHUP;
        if epoll.add(fd, interest, token(slot, gen)).is_err() {
            let _ = poll::close(fd);
            self.free.push(slot);
            self.open_total.fetch_sub(1, Ordering::Relaxed);
            return;
        }
        self.conns[slot] = Some(Conn {
            fd,
            gen,
            parser: RequestParser::with_cap(self.cfg.body_cap),
            out: Vec::new(),
            out_pos: 0,
            last_active: Instant::now(),
            close_after_flush: false,
            paused: false,
            interest,
        });
        self.stats.open_conns.fetch_add(1, Ordering::Relaxed);
    }

    fn close_conn(&mut self, epoll: &Epoll, slot: usize) {
        let Some(conn) = self.conns.get_mut(slot).and_then(Option::take) else {
            return;
        };
        let _ = epoll.delete(conn.fd);
        let _ = poll::close(conn.fd);
        self.gens[slot] = conn.gen.wrapping_add(1);
        self.free.push(slot);
        self.stats.open_conns.fetch_sub(1, Ordering::Relaxed);
        self.open_total.fetch_sub(1, Ordering::Relaxed);
    }

    // -- per-connection events ----------------------------------------------

    fn conn_ready(&mut self, epoll: &Epoll, tok: u64, ev: Event, draining: bool) {
        let slot = (tok & 0xffff_ffff) as usize;
        let gen = (tok >> 32) as u32;
        let Some(conn) = self.conns.get(slot).and_then(Option::as_ref) else {
            return; // stale event for an already-closed slot
        };
        if conn.gen != gen {
            return; // slot was recycled; event belongs to the old socket
        }
        if ev.readiness() & (EPOLLERR | EPOLLHUP) != 0 {
            // Peer reset or kernel error: this connection is done; the
            // loop itself is untouched.
            self.close_conn(epoll, slot);
            return;
        }
        if ev.writable() && !self.flush(epoll, slot) {
            return; // closed while flushing
        }
        let closing = self.conns[slot]
            .as_ref()
            .is_some_and(|c| c.close_after_flush);
        if (ev.readable() || ev.readiness() & EPOLLRDHUP != 0) && !draining && !closing {
            self.read_ready(epoll, slot);
        }
    }

    fn read_ready(&mut self, epoll: &Epoll, slot: usize) {
        loop {
            let conn = match self.conns[slot].as_mut() {
                Some(c) => c,
                None => return,
            };
            // The read lands straight in the parser's buffer.
            let spare = conn.parser.spare();
            let room = spare.len();
            match poll::read(conn.fd, spare) {
                Ok(Some(0)) => {
                    // Clean EOF. Anything still owed (buffered responses)
                    // is flushed first; a half-received request is
                    // abandoned with the connection.
                    if conn.parser.is_clean() && conn.out_pos >= conn.out.len() {
                        self.close_conn(epoll, slot);
                    } else {
                        conn.close_after_flush = true;
                        self.flush(epoll, slot);
                    }
                    return;
                }
                Ok(Some(n)) => {
                    conn.last_active = Instant::now();
                    conn.parser.commit(n);
                    if !self.process_requests(slot) {
                        // `connection: close` or a poisoned stream: flush
                        // what we owe and close.
                        self.flush(epoll, slot);
                        return;
                    }
                    let conn = self.conns[slot].as_mut().expect("conn alive");
                    if conn.out.len() - conn.out_pos > HIGH_WATER {
                        break; // backpressure: stop reading, go flush
                    }
                    if n < room {
                        break; // kernel buffer drained
                    }
                }
                Ok(None) => break,
                Err(_) => {
                    // ECONNRESET and friends: drop the connection only.
                    self.close_conn(epoll, slot);
                    return;
                }
            }
        }
        if let Some(conn) = self.conns[slot].as_ref() {
            if conn.parser.buffered() > 0 {
                // The byte stream paused mid-message; the state machine
                // holds the partial request until the next readable event.
                self.stats.partial_reads.fetch_add(1, Ordering::Relaxed);
            }
        }
        self.flush(epoll, slot);
    }

    /// Drains every complete pipelined request through the service, each
    /// answered straight into the connection's output buffer. Returns
    /// `false` when the connection should close after flushing (close
    /// requested or the request stream is unrecoverable).
    fn process_requests(&mut self, slot: usize) -> bool {
        let Some(conn) = self.conns[slot].as_mut() else {
            return false;
        };
        let Conn {
            parser,
            out,
            close_after_flush,
            ..
        } = conn;
        loop {
            match parser.next_request() {
                ParseStep::Complete(req) => {
                    // A panicking handler costs its request a 500, not the
                    // loop: the connection and every other one live on.
                    let handled =
                        panic::catch_unwind(AssertUnwindSafe(|| self.service.handle(&req)));
                    let resp = handled.unwrap_or_else(|_| {
                        self.stats.handler_panics.fetch_add(1, Ordering::Relaxed);
                        Response::new(500, b"internal server error", "text/plain")
                    });
                    let _ = resp.write_to(out);
                    if req.wants_close() {
                        *close_after_flush = true;
                        return false;
                    }
                }
                ParseStep::Incomplete => return true,
                ParseStep::Failed { error, recoverable } => {
                    let resp = match &error {
                        HttpError::BodyTooLarge { len, cap } => {
                            Response::payload_too_large(*len, *cap)
                        }
                        HttpError::Malformed(what) => Response::bad_request(what),
                        other => Response::bad_request(&other.to_string()),
                    };
                    let _ = resp.write_to(out);
                    if !recoverable {
                        *close_after_flush = true;
                        return false;
                    }
                    // Recoverable (size caps): the parser already
                    // resynced; keep serving this connection.
                }
            }
        }
    }

    /// Writes as much buffered output as the socket accepts. Returns
    /// `false` if the connection was closed (fatal error, or
    /// close-after-flush completed).
    fn flush(&mut self, epoll: &Epoll, slot: usize) -> bool {
        let conn = match self.conns[slot].as_mut() {
            Some(c) => c,
            None => return false,
        };
        while conn.out_pos < conn.out.len() {
            let remaining = conn.out.len() - conn.out_pos;
            match poll::write(conn.fd, &conn.out[conn.out_pos..]) {
                Ok(Some(n)) => {
                    conn.out_pos += n;
                    conn.last_active = Instant::now();
                    if n < remaining {
                        self.stats.short_writes.fetch_add(1, Ordering::Relaxed);
                    }
                }
                Ok(None) => {
                    // Kernel send queue full: wait for writability.
                    self.stats.short_writes.fetch_add(1, Ordering::Relaxed);
                    break;
                }
                Err(_) => {
                    self.close_conn(epoll, slot);
                    return false;
                }
            }
        }
        if conn.out_pos >= conn.out.len() {
            conn.out.clear();
            conn.out_pos = 0;
            // A burst can balloon the buffer; don't pin that memory for
            // the connection's lifetime.
            if conn.out.capacity() > HIGH_WATER {
                conn.out = Vec::new();
            }
            if conn.close_after_flush {
                self.close_conn(epoll, slot);
                return false;
            }
        }
        self.update_interest(epoll, slot);
        true
    }

    /// Recomputes the epoll interest mask from connection state:
    /// `EPOLLIN` unless paused by backpressure or closing (nothing more is
    /// read once a close is due), `EPOLLOUT` while output is pending,
    /// `EPOLLRDHUP` always.
    fn update_interest(&mut self, epoll: &Epoll, slot: usize) {
        let conn = match self.conns[slot].as_mut() {
            Some(c) => c,
            None => return,
        };
        let pending = conn.out.len() - conn.out_pos;
        if conn.paused {
            if pending < LOW_WATER {
                conn.paused = false;
            }
        } else if pending > HIGH_WATER {
            conn.paused = true;
        }
        let mut want = EPOLLRDHUP;
        if !conn.paused && !conn.close_after_flush {
            want |= EPOLLIN;
        }
        if pending > 0 {
            want |= EPOLLOUT;
        }
        if want != conn.interest && epoll.modify(conn.fd, want, token(slot, conn.gen)).is_ok() {
            conn.interest = want;
        }
    }

    fn sweep_idle(&mut self, epoll: &Epoll) {
        let deadline = self.cfg.idle_timeout;
        for slot in 0..self.conns.len() {
            let expired = self.conns[slot]
                .as_ref()
                .is_some_and(|c| c.last_active.elapsed() > deadline);
            if expired {
                self.close_conn(epoll, slot);
            }
        }
    }
}

fn token(slot: usize, gen: u32) -> u64 {
    ((gen as u64) << 32) | slot as u64
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::http::HttpClient;
    use abr_video::envivio_video;
    use std::io::{BufReader, Read as _, Write as _};
    use std::net::TcpStream;

    fn origin(cfg: ServerConfig) -> Server<ChunkServer<'static>> {
        Server::spawn(ChunkServer::new(envivio_video()), cfg).unwrap()
    }

    fn client<S: Service>(server: &Server<S>) -> HttpClient<TcpStream> {
        HttpClient::new(TcpStream::connect(server.addr()).unwrap())
    }

    fn manifest_request() -> Vec<u8> {
        let mut wire = Vec::new();
        Request::get("/manifest.mpd").write_to(&mut wire).unwrap();
        wire
    }

    #[test]
    fn malformed_request_gets_400_and_loops_survive() {
        let server = origin(ServerConfig::default());
        // A garbled request line, and a POST without content-length.
        for garbage in [&b"NOT-HTTP-AT-ALL\r\n\r\n"[..], b"POST /x HTTP/1.1\r\n\r\n"] {
            let mut bad = TcpStream::connect(server.addr()).unwrap();
            bad.write_all(garbage).unwrap();
            let resp = Response::read_from(&mut BufReader::new(&mut bad)).unwrap();
            assert_eq!(resp.status, 400);
            // The poisoned connection is closed by the server...
            let mut probe = [0u8; 1];
            bad.set_read_timeout(Some(Duration::from_secs(5))).unwrap();
            assert_eq!(bad.read(&mut probe).unwrap(), 0);
        }
        // ...while fresh connections keep being served, keep-alive.
        let mut c = client(&server);
        assert_eq!(c.get("/manifest.mpd").unwrap().status, 200);
        let chunk = c.get("/video/0/3.m4s").unwrap();
        assert_eq!(chunk.status, 200);
        assert_eq!(chunk.body.len(), 175_000);
        assert_eq!(c.get("/video/0/9999.m4s").unwrap().status, 404);
    }

    #[test]
    fn oversized_body_gets_413_and_the_connection_survives() {
        let server = origin(ServerConfig { body_cap: 256, ..ServerConfig::default() });
        let mut stream = TcpStream::connect(server.addr()).unwrap();
        let body = "x".repeat(512);
        stream
            .write_all(
                format!("POST /upload HTTP/1.1\r\ncontent-length: 512\r\n\r\n{body}").as_bytes(),
            )
            .unwrap();
        let mut reader = BufReader::new(stream.try_clone().unwrap());
        let resp = Response::read_from(&mut reader).unwrap();
        assert_eq!(resp.status, 413);
        // The same connection keeps working: the parser skipped the
        // refused body and resynced.
        stream.write_all(&manifest_request()).unwrap();
        let resp = Response::read_from(&mut reader).unwrap();
        assert_eq!(resp.status, 200);
    }

    #[test]
    fn idle_connections_are_closed_on_deadline() {
        let server = origin(ServerConfig {
            idle_timeout: Duration::from_millis(200),
            ..ServerConfig::default()
        });
        let mut stream = TcpStream::connect(server.addr()).unwrap();
        stream.set_read_timeout(Some(Duration::from_secs(10))).unwrap();
        // Never send a byte: the sweep must reap us (sweep cadence is
        // 1 s, so allow a few seconds).
        let mut probe = [0u8; 1];
        let n = stream.read(&mut probe).unwrap();
        assert_eq!(n, 0, "server should close the idle connection");
    }

    #[test]
    fn abrupt_peer_reset_kills_only_that_connection() {
        let server = origin(ServerConfig::default());
        for _ in 0..4 {
            // Request, then vanish without reading the response: closing
            // with unread data pending makes the kernel send RST, which
            // the loop must absorb as a single-connection death.
            let mut stream = TcpStream::connect(server.addr()).unwrap();
            stream.write_all(&manifest_request()).unwrap();
            drop(stream);
        }
        std::thread::sleep(Duration::from_millis(100));
        let mut c = client(&server);
        assert_eq!(c.get("/manifest.mpd").unwrap().status, 200);
    }

    #[test]
    fn max_conns_cap_sheds_excess_connections() {
        let server = origin(ServerConfig { max_conns: 2, ..ServerConfig::default() });
        let mut keep: Vec<TcpStream> = Vec::new();
        let mut shed = 0;
        for _ in 0..6 {
            let mut s = TcpStream::connect(server.addr()).unwrap();
            s.set_read_timeout(Some(Duration::from_secs(5))).unwrap();
            s.write_all(&manifest_request()).unwrap();
            match Response::read_from(&mut BufReader::new(s.try_clone().unwrap())) {
                Ok(resp) => {
                    assert_eq!(resp.status, 200);
                    keep.push(s);
                }
                Err(_) => shed += 1, // closed by the cap before answering
            }
        }
        assert!(shed >= 4, "cap 2 must shed most of 6 connections, shed {shed}");
        assert!(!keep.is_empty(), "some connections must be served");
    }

    #[test]
    fn shutdown_releases_the_listener_port() {
        let mut server = origin(ServerConfig::default());
        let addr = server.addr();
        {
            let mut c = client(&server);
            assert_eq!(c.get("/manifest.mpd").unwrap().status, 200);
            // Client closes first, so no server-side TIME_WAIT lingers on
            // the port.
        }
        server.shutdown();
        server.shutdown(); // idempotent
        // The exact port can be bound again: the listener fd was released.
        let rebind = TcpListener::bind(addr);
        assert!(rebind.is_ok(), "rebind failed: {:?}", rebind.err());
        // And the old server no longer answers.
        drop(rebind);
        assert!(TcpStream::connect(addr).is_err() || {
            let mut c = HttpClient::new(TcpStream::connect(addr).unwrap());
            c.get("/manifest.mpd").is_err()
        });
    }

    /// Panics on `/boom`; answers every other path with the path.
    struct Fragile;

    impl Service for Fragile {
        fn handle(&self, req: &Request) -> Response {
            assert_ne!(req.path(), "/boom", "a handler bug");
            Response::ok(req.path().as_bytes().to_vec(), "text/plain")
        }
    }

    #[test]
    fn a_handler_panic_costs_one_500_not_the_loop() {
        let server = Server::spawn(
            Fragile,
            ServerConfig {
                loops: 1,
                ..ServerConfig::default()
            },
        )
        .unwrap();
        let mut stream = TcpStream::connect(server.addr()).unwrap();
        stream
            .set_read_timeout(Some(Duration::from_secs(20)))
            .unwrap();
        // Pipelined in one write: the request after the panic is read from
        // the same buffer and must still be answered, in order.
        let mut wire = Vec::new();
        for path in ["/a", "/boom", "/b"] {
            Request::get(path).write_to(&mut wire).unwrap();
        }
        stream.write_all(&wire).unwrap();
        let mut reader = BufReader::new(stream.try_clone().unwrap());
        let answers: Vec<(u16, Vec<u8>)> = (0..3)
            .map(|_| {
                let resp = Response::read_from(&mut reader).unwrap();
                (resp.status, resp.body.to_vec())
            })
            .collect();
        assert_eq!(
            answers,
            [
                (200, b"/a".to_vec()),
                (500, b"internal server error".to_vec()),
                (200, b"/b".to_vec()),
            ]
        );
        // The only loop still serves that connection and a new one.
        stream.write_all(&manifest_request()).unwrap();
        assert_eq!(Response::read_from(&mut reader).unwrap().status, 200);
        let mut other = HttpClient::new(TcpStream::connect(server.addr()).unwrap());
        assert_eq!(other.get("/c").unwrap().body.as_ref(), b"/c");
        assert_eq!(
            server.loop_stats()[0]
                .handler_panics
                .load(Ordering::Relaxed),
            1
        );
    }

    #[test]
    fn connections_spread_across_loops() {
        let server = origin(ServerConfig { loops: 2, ..ServerConfig::default() });
        let mut clients: Vec<_> = (0..4).map(|_| client(&server)).collect();
        for c in &mut clients {
            assert_eq!(c.get("/manifest.mpd").unwrap().status, 200);
        }
        // Round-robin distribution: both loops own connections.
        let open: Vec<u64> = server
            .loop_stats()
            .iter()
            .map(|l| l.open_conns.load(Ordering::Relaxed))
            .collect();
        assert_eq!(open, [2, 2]);
        assert_eq!(server.loop_stats()[0].accepts.load(Ordering::Relaxed), 4);
    }
}
