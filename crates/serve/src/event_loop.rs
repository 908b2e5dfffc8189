//! The connection engine shared by `dg-serve` shards and `dg-router`: a
//! std-only epoll readiness layer, and one event-driven connection state
//! machine on top of it that is generic over a small `Dispatcher` trait.
//!
//! The readiness layer needs exactly three kernel facilities: register a
//! file descriptor with a token, change the interest set, and block until
//! something is ready. Rather than pulling in a dependency, this module
//! declares the three `epoll` entry points directly (they are part of the
//! kernel ABI and stable since Linux 2.6) and wraps the epoll instance in
//! an [`std::os::fd::OwnedFd`] so it closes on drop like any other std
//! handle. Wakeups from worker threads use a [`UnixStream`] pair instead of
//! an eventfd: the write side is shared behind an `Arc` (a one-byte write
//! on a `SOCK_STREAM` socket is atomic), the read side sits in the epoll
//! set like any connection, and a full socket buffer simply means a wakeup
//! is already pending — `Waker::notify` ignores `WouldBlock` by design.
//!
//! Life of a connection, the same on a shard and on the router:
//!
//! 1. the event loop accepts the socket (non-blocking, counted,
//!    `TCP_NODELAY`) and registers it for read readiness under a
//!    monotonically increasing token that is never recycled, so a late
//!    completion for a dead connection can never touch its successor,
//! 2. read readiness feeds the hardened incremental [`RequestParser`]
//!    until one request completes; the loop stops reading there, leaving
//!    any pipelined bytes to the kernel and the parser buffer,
//! 3. the server's `Dispatcher::admit` either answers the request inline
//!    or hands back a job for the bounded worker queue. A full queue sheds
//!    **that request** with `503`, a `Retry-After` derived from the current
//!    queue depth ([`retry_after_secs`]), and `Connection: close`,
//! 4. while a job is queued or running the connection's epoll interest
//!    drops to zero: the peer's further pipelined bytes stay in the kernel
//!    buffer (TCP backpressure bounds memory) and only the worker's
//!    completions — delivered through a self-pipe `Waker` — resume the
//!    state machine. A streamed reply arrives as several completions and
//!    is written as they land,
//! 5. replies are written optimistically; a short write parks the
//!    connection on write readiness (`EPOLLOUT`) until the peer drains it,
//!    with progress bounded by the read-timeout deadline scan,
//! 6. HTTP/1.1 keep-alive: after a full flush the parser is polled for a
//!    buffered pipelined request, otherwise the connection re-arms for
//!    read readiness and an idle deadline,
//! 7. closes (errors, `Connection: close`, drain, per-connection request
//!    cap) go through a non-blocking linger: write side shut down, reads
//!    sunk for up to 250 ms (`LINGER_BUDGET_MS`), so the peer's
//!    in-flight bytes never turn the reply into an RST,
//! 8. on drain the listener closes immediately, idle connections drop,
//!    admitted requests finish with `Connection: close`, then the queue
//!    closes, workers exit, and `EngineHandle::shutdown` reports whether
//!    every thread exited cleanly.
//!
//! Both dispatcher calls run under `catch_unwind`, the serve tier's one
//! panic boundary: a panicking handler costs its request a `500` (or, once
//! a stream has started, a cut stream and a close), never the loop or a
//! worker.

use crate::http::{write_response, HttpError, ParserLimits, Request, RequestParser};
use crate::metrics::monotonic_us;
use crate::queue::BoundedQueue;
use dg_engine::sync::TrackedMutex;
use std::cell::Cell;
use std::collections::HashMap;
use std::io::{self, ErrorKind, Read, Write};
use std::net::{Shutdown, SocketAddr, TcpListener, TcpStream};
use std::os::fd::{AsRawFd, FromRawFd, OwnedFd, RawFd};
use std::os::unix::net::UnixStream;
use std::panic::{catch_unwind, AssertUnwindSafe};
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::Arc;
use std::thread::{self, JoinHandle};

/// Readable interest (`EPOLLIN`).
const EVENT_READ: u32 = 0x001;
/// Writable interest (`EPOLLOUT`).
const EVENT_WRITE: u32 = 0x004;

const EPOLL_CTL_ADD: i32 = 1;
const EPOLL_CTL_DEL: i32 = 2;
const EPOLL_CTL_MOD: i32 = 3;
const EPOLL_CLOEXEC: i32 = 0o200_0000;

/// Matches the kernel's `struct epoll_event`. On x86-64 the kernel ABI
/// packs the struct (4-byte aligned `u64`), hence the conditional repr.
#[repr(C)]
#[cfg_attr(target_arch = "x86_64", repr(packed))]
#[derive(Clone, Copy)]
struct EpollEvent {
    events: u32,
    data: u64,
}

extern "C" {
    fn epoll_create1(flags: i32) -> i32;
    fn epoll_ctl(epfd: i32, op: i32, fd: i32, event: *mut EpollEvent) -> i32;
    fn epoll_wait(epfd: i32, events: *mut EpollEvent, maxevents: i32, timeout: i32) -> i32;
}

/// How many readiness events one [`Poller::wait`] call can surface.
const WAIT_CAPACITY: usize = 256;

/// An owned epoll instance: register fds with a `u64` token, then block in
/// [`Poller::wait`] for `(token, readiness)` pairs.
struct Poller {
    epoll: OwnedFd,
}

impl std::fmt::Debug for Poller {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("Poller")
            .field("epfd", &self.epoll.as_raw_fd())
            .finish()
    }
}

impl Poller {
    /// Creates a close-on-exec epoll instance.
    ///
    /// # Errors
    ///
    /// Propagates `epoll_create1` failure (fd exhaustion).
    pub fn new() -> io::Result<Self> {
        // SAFETY: epoll_create1 returns a fresh fd we uniquely own (or -1,
        // checked below before the fd is wrapped).
        let fd = unsafe { epoll_create1(EPOLL_CLOEXEC) };
        if fd < 0 {
            return Err(io::Error::last_os_error());
        }
        // SAFETY: `fd` is a valid, owned descriptor from the kernel.
        Ok(Poller {
            epoll: unsafe { OwnedFd::from_raw_fd(fd) },
        })
    }

    fn ctl(&self, op: i32, fd: RawFd, token: u64, interest: u32) -> io::Result<()> {
        let mut event = EpollEvent {
            events: interest,
            data: token,
        };
        // SAFETY: `event` outlives the call; the kernel copies it.
        let rc = unsafe { epoll_ctl(self.epoll.as_raw_fd(), op, fd, &mut event) };
        if rc < 0 {
            return Err(io::Error::last_os_error());
        }
        Ok(())
    }

    /// Registers `fd` under `token` with the given interest set.
    ///
    /// # Errors
    ///
    /// Propagates `epoll_ctl` failure (bad fd, duplicate registration).
    pub fn add(&self, fd: RawFd, token: u64, interest: u32) -> io::Result<()> {
        self.ctl(EPOLL_CTL_ADD, fd, token, interest)
    }

    /// Replaces the interest set of an already-registered `fd`. An empty
    /// interest (`0`) parks the fd: errors and hangups are still reported
    /// by the kernel, but no read/write readiness fires — that is the
    /// event loop's backpressure state while a request is dispatched.
    ///
    /// # Errors
    ///
    /// Propagates `epoll_ctl` failure (fd was never registered).
    fn modify(&self, fd: RawFd, token: u64, interest: u32) -> io::Result<()> {
        self.ctl(EPOLL_CTL_MOD, fd, token, interest)
    }

    /// Deregisters `fd`. Dropping the socket also deregisters it, so this
    /// mainly keeps the registration count honest on explicit closes.
    ///
    /// # Errors
    ///
    /// Propagates `epoll_ctl` failure (fd was never registered).
    pub fn remove(&self, fd: RawFd) -> io::Result<()> {
        self.ctl(EPOLL_CTL_DEL, fd, 0, 0)
    }

    /// Blocks up to `timeout_ms` for readiness, appending `(token,
    /// readiness)` pairs to `out` (which is cleared first).
    ///
    /// # Errors
    ///
    /// Propagates `epoll_wait` failure other than `EINTR` (which is
    /// treated as an empty wakeup).
    pub fn wait(&self, out: &mut Vec<(u64, u32)>, timeout_ms: i32) -> io::Result<()> {
        out.clear();
        let mut buf = [EpollEvent { events: 0, data: 0 }; WAIT_CAPACITY];
        // SAFETY: `buf` is a valid array of WAIT_CAPACITY events; the
        // kernel writes at most that many entries.
        let rc = unsafe {
            epoll_wait(
                self.epoll.as_raw_fd(),
                buf.as_mut_ptr(),
                WAIT_CAPACITY as i32,
                timeout_ms,
            )
        };
        if rc < 0 {
            let err = io::Error::last_os_error();
            if err.kind() == io::ErrorKind::Interrupted {
                return Ok(());
            }
            return Err(err);
        }
        for ev in buf.iter().take(rc.max(0) as usize) {
            // Copy out of the (possibly packed) struct by value.
            let token = ev.data;
            let readiness = ev.events;
            out.push((token, readiness));
        }
        Ok(())
    }
}

/// The write side of the loop's self-pipe; clone freely across workers.
#[derive(Clone)]
struct Waker {
    tx: Arc<UnixStream>,
}

impl std::fmt::Debug for Waker {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("Waker").finish()
    }
}

impl Waker {
    /// Nudges the event loop out of [`Poller::wait`]. Never blocks: a full
    /// pipe means a wakeup is already pending, which is just as good.
    fn notify(&self) {
        let _ = (&*self.tx).write(&[1u8]);
    }
}

/// Builds the self-pipe: a [`Waker`] for producers and the non-blocking
/// read side for the event loop to register and drain.
///
/// # Errors
///
/// Propagates socketpair creation or `set_nonblocking` failure.
fn waker_pair() -> io::Result<(Waker, UnixStream)> {
    let (tx, rx) = UnixStream::pair()?;
    tx.set_nonblocking(true)?;
    rx.set_nonblocking(true)?;
    Ok((Waker { tx: Arc::new(tx) }, rx))
}

/// Drains every pending wakeup byte; call on read-readiness of the pipe.
fn drain_wakeups(rx: &mut UnixStream) {
    let mut sink = [0u8; 256];
    while matches!(rx.read(&mut sink), Ok(n) if n > 0) {}
}

const TOKEN_LISTENER: u64 = 0;
const TOKEN_WAKER: u64 = 1;
const FIRST_CONN_TOKEN: u64 = 2;

/// epoll wait timeout; also the granularity of the deadline scan.
const TICK_MS: i32 = 25;

/// Total wall-clock budget for a lingering close. Bounds how long a peer
/// trickling bytes can keep a closed connection's fd alive.
const LINGER_BUDGET_MS: u64 = 250;

/// Set by the [`stop_on_signals`] handler.
static STOP: AtomicBool = AtomicBool::new(false);

/// Makes SIGINT and SIGTERM set a process-wide stop flag, which a server
/// binary's main loop polls with [`stop_signalled`] before it drains.
pub fn stop_on_signals() {
    extern "C" fn on_signal(_signum: i32) {
        // Only async-signal-safe work here: one atomic store.
        STOP.store(true, Ordering::SeqCst);
    }
    extern "C" {
        fn signal(signum: i32, handler: extern "C" fn(i32)) -> usize;
    }
    // SIGINT = 2, SIGTERM = 15 on every Linux target (epoll already ties
    // the engine to Linux).
    // SAFETY: `on_signal` only performs one atomic store, which is
    // async-signal-safe.
    unsafe {
        signal(2, on_signal);
        signal(15, on_signal);
    }
}

/// Whether SIGINT or SIGTERM arrived since [`stop_on_signals`].
pub fn stop_signalled() -> bool {
    STOP.load(Ordering::SeqCst)
}

/// The `Retry-After` a shed response carries: the configured base plus a
/// penalty that grows with how deep the queue already is, so a client of
/// a lightly loaded server retries quickly while a client of a saturated
/// one backs off harder. Monotone in `queue_len`, capped at 30 s.
pub fn retry_after_secs(base: u32, queue_len: usize, capacity: usize) -> u32 {
    if capacity == 0 {
        // Nothing can ever be admitted; advertise the maximum backoff.
        return 30;
    }
    let penalty = (3 * queue_len) / capacity;
    base.saturating_add(penalty.min(u32::MAX as usize) as u32)
        .min(30)
}

/// The framed `500` for a request whose handler panicked before sending
/// anything.
fn panic_reply(close: bool) -> Vec<u8> {
    write_response(
        500,
        "Internal Server Error",
        "application/json",
        &[],
        b"{\"ok\":false,\"error\":\"internal handler panic\"}",
        close,
    )
}

/// What a server's shutdown observed.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct DrainReport {
    /// Requests served over the server's lifetime (inline + dispatched).
    pub requests_served: usize,
    /// `true` when the event loop and every worker exited without
    /// panicking — the graceful-drain contract held.
    pub clean: bool,
}

/// The settings a server maps its own config onto.
#[derive(Debug, Clone)]
pub(crate) struct EngineConfig {
    /// Bind address; port 0 picks an ephemeral port.
    pub(crate) addr: String,
    /// Thread-name prefix (`dg-serve`, `dg-router`).
    pub(crate) name: &'static str,
    /// Worker threads serving queued jobs.
    pub(crate) workers: usize,
    /// Jobs queued ahead of the workers before requests are shed.
    pub(crate) queue_depth: usize,
    /// HTTP framing limits.
    pub(crate) limits: ParserLimits,
    /// Idle deadline: a connection that neither delivers bytes nor accepts
    /// reply bytes for this long is closed. Drain latency is bounded by it.
    pub(crate) read_timeout_ms: u64,
    /// Base of the shed reply's `Retry-After`.
    pub(crate) retry_after_secs: u32,
    /// Requests served on one connection before it is closed.
    pub(crate) max_requests_per_conn: usize,
    /// Open-connection cap; beyond it new sockets get a best-effort 503.
    pub(crate) max_connections: usize,
}

/// What a dispatcher decided for one request parsed on the event loop.
pub(crate) enum Admit<J> {
    /// Answer now with these framed bytes, closing afterwards if `close`.
    Reply { bytes: Vec<u8>, close: bool },
    /// Queue the job for the worker pool.
    Queue(J),
}

/// A connection-level event a dispatcher counts in its own metrics.
#[derive(Debug, Clone, Copy)]
pub(crate) enum Event {
    /// A socket was accepted.
    Accepted,
    /// A request or a new connection was shed with `503`.
    Shed,
    /// The parser rejected a request's framing with this status.
    BadRequest(u16),
    /// A dispatcher call panicked; the engine ended the reply itself.
    Panic,
}

/// The per-server half of the connection engine: what a parsed request
/// becomes. The engine owns everything else — sockets, parsing,
/// backpressure, writes, linger, deadlines, shedding and drain.
pub(crate) trait Dispatcher: Send + Sync + 'static {
    /// A queued request, as a worker receives it.
    type Job: Send + 'static;
    /// State only the event-loop thread touches.
    type LoopState: Default;
    /// State each worker keeps across the jobs it serves.
    type WorkerState: Default;

    /// Decides a request on the event loop: answer it inline or queue it.
    /// `close` is the engine's verdict (the client asked, a drain, or the
    /// per-connection cap). Runs on the loop thread, so it must not block.
    fn admit(&self, state: &mut Self::LoopState, request: Request, close: bool)
        -> Admit<Self::Job>;

    /// Serves one queued job on a worker, pushing its reply to `out`.
    /// `close` also covers a drain that began while the job was queued.
    fn serve(&self, state: &mut Self::WorkerState, job: Self::Job, close: bool, out: &Outbox<'_>);

    /// Counts a connection-level event.
    fn note(&self, event: Event);
}

/// A queued request: which connection wants the answer, and whether that
/// connection must close after it.
struct Job<J> {
    token: u64,
    close: bool,
    work: J,
}

/// Bytes a worker hands back to the event loop, already framed for the
/// wire. A plain reply is one completion with `fin`; a stream is a
/// sequence — head, progress chunks, then the terminal chunk — where only
/// the last carries `fin`. Completions for one token are pushed in wire
/// order and the event loop appends them in arrival order.
struct Completion {
    token: u64,
    bytes: Vec<u8>,
    /// Whether this completion ends the reply.
    fin: bool,
    /// Whether the connection closes once the reply is written.
    close: bool,
}

/// A worker's channel back to the connection its job came from.
pub(crate) struct Outbox<'a> {
    completions: &'a TrackedMutex<Vec<Completion>>,
    waker: &'a Waker,
    token: u64,
    /// Whether any part of the reply has been pushed.
    started: Cell<bool>,
    /// Whether the reply's last part has been pushed.
    finished: Cell<bool>,
}

impl Outbox<'_> {
    /// Queues `bytes` for the connection and wakes the loop. `fin` marks
    /// the reply's last part; the connection then closes if `close`.
    pub(crate) fn push(&self, bytes: Vec<u8>, fin: bool, close: bool) {
        self.started.set(true);
        self.finished.set(self.finished.get() || fin);
        self.completions.lock().push(Completion {
            token: self.token,
            bytes,
            fin,
            close,
        });
        self.waker.notify();
    }
}

/// Everything the event loop, the workers and the handle share.
pub(crate) struct Engine<D: Dispatcher> {
    /// The server's half.
    pub(crate) dispatcher: D,
    /// Set to start a graceful drain.
    pub(crate) draining: Arc<AtomicBool>,
    config: EngineConfig,
    queue: BoundedQueue<Job<D::Job>>,
    completions: TrackedMutex<Vec<Completion>>,
    waker: Waker,
}

impl<D: Dispatcher> Engine<D> {
    /// Binds, spawns the worker pool and the event loop, and returns a
    /// handle. Setting `draining` (the handle does it too) starts a drain.
    ///
    /// # Errors
    ///
    /// Propagates the bind failure (address in use, permission, …) and
    /// epoll/self-pipe/thread setup failures.
    pub(crate) fn start(
        config: EngineConfig,
        dispatcher: D,
        draining: Arc<AtomicBool>,
    ) -> io::Result<EngineHandle<D>> {
        let listener = TcpListener::bind(&config.addr)?;
        listener.set_nonblocking(true)?;
        let local_addr = listener.local_addr()?;
        let poller = Poller::new()?;
        let (waker, wake_rx) = waker_pair()?;
        let engine = Arc::new(Engine {
            dispatcher,
            draining,
            queue: BoundedQueue::new(config.queue_depth),
            completions: TrackedMutex::new("serve.completions", Vec::new()),
            waker,
            config,
        });
        let name = engine.config.name;
        let workers = (0..engine.config.workers.max(1))
            .map(|i| {
                let engine = Arc::clone(&engine);
                thread::Builder::new()
                    .name(format!("{name}-worker-{i}"))
                    .spawn(move || worker_loop(&engine))
            })
            .collect::<io::Result<Vec<_>>>()?;
        let event_loop = {
            let engine = Arc::clone(&engine);
            thread::Builder::new()
                .name(format!("{name}-loop"))
                .spawn(move || EventLoop::new(&engine, poller, listener, wake_rx).run())?
        };
        Ok(EngineHandle {
            engine,
            local_addr,
            event_loop,
            workers,
        })
    }

    /// Starts a graceful drain: stop admitting, serve what was admitted.
    /// Idempotent; returns immediately.
    pub(crate) fn request_drain(&self) {
        self.draining.store(true, Ordering::SeqCst);
        self.waker.notify();
    }

    /// The `503` a shed request gets: a `Retry-After` derived from the
    /// current queue depth, and `Connection: close`.
    fn shed_reply(&self) -> Vec<u8> {
        let secs = retry_after_secs(
            self.config.retry_after_secs,
            self.queue.len(),
            self.queue.capacity(),
        );
        let body =
            format!("{{\"ok\":false,\"error\":\"server is at capacity, retry after {secs}s\"}}");
        write_response(
            503,
            "Service Unavailable",
            "application/json",
            &[("Retry-After".to_owned(), secs.to_string())],
            body.as_bytes(),
            true,
        )
    }
}

/// A running engine. Dropping it does **not** stop the server — call
/// [`EngineHandle::shutdown`].
pub(crate) struct EngineHandle<D: Dispatcher> {
    engine: Arc<Engine<D>>,
    local_addr: SocketAddr,
    event_loop: JoinHandle<usize>,
    workers: Vec<JoinHandle<()>>,
}

impl<D: Dispatcher> std::fmt::Debug for EngineHandle<D> {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("EngineHandle")
            .field("local_addr", &self.local_addr)
            .field("workers", &self.workers.len())
            .finish()
    }
}

impl<D: Dispatcher> EngineHandle<D> {
    /// The bound address (resolves port 0 binds).
    pub(crate) fn local_addr(&self) -> SocketAddr {
        self.local_addr
    }

    /// The state the loop and the workers share.
    pub(crate) fn engine(&self) -> &Arc<Engine<D>> {
        &self.engine
    }

    /// Drains (if not already draining) and blocks until the event loop
    /// and every worker have exited.
    pub(crate) fn shutdown(self) -> DrainReport {
        self.engine.request_drain();
        // The loop closes the queue on its way out; workers then see
        // `None` and exit.
        let (requests_served, mut clean) = match self.event_loop.join() {
            Ok(served) => (served, true),
            Err(_) => (0, false),
        };
        for worker in self.workers {
            clean &= worker.join().is_ok();
        }
        DrainReport {
            requests_served,
            clean,
        }
    }
}

/// Pops queued jobs and serves them with panics contained. A job that
/// panics still ends its reply, so its connection never waits forever.
fn worker_loop<D: Dispatcher>(engine: &Engine<D>) {
    let mut state = D::WorkerState::default();
    while let Some(job) = engine.queue.pop() {
        let close = job.close || engine.draining.load(Ordering::SeqCst);
        let out = Outbox {
            completions: &engine.completions,
            waker: &engine.waker,
            token: job.token,
            started: Cell::new(false),
            finished: Cell::new(false),
        };
        let served = catch_unwind(AssertUnwindSafe(|| {
            engine.dispatcher.serve(&mut state, job.work, close, &out);
        }));
        if served.is_err() {
            engine.dispatcher.note(Event::Panic);
            // The unwind may have left the worker's state mid-update.
            state = D::WorkerState::default();
            if !out.finished.get() {
                // A stream whose head is out cannot turn into a 500:
                // cut it short and close.
                let started = out.started.get();
                let bytes = if started {
                    Vec::new()
                } else {
                    panic_reply(close)
                };
                out.push(bytes, true, close || started);
            }
        }
    }
}

/// Where a connection's state machine currently is.
enum ConnState {
    /// Waiting for (more) request bytes, or flushing a reply.
    Reading,
    /// A job is with the worker pool; epoll interest is empty, so the
    /// peer's further bytes exert TCP backpressure instead of buffering.
    Dispatched,
    /// Write side shut down; sinking the peer's in-flight bytes until FIN
    /// or the deadline.
    Lingering { deadline_us: u64 },
}

struct Conn {
    stream: TcpStream,
    parser: RequestParser,
    out: Vec<u8>,
    out_pos: usize,
    state: ConnState,
    close_after_write: bool,
    /// Set when the final completion of a streamed reply has been
    /// appended to `out`: the next full flush may leave
    /// [`ConnState::Dispatched`] instead of waiting for more chunks.
    stream_fin: bool,
    served: usize,
    last_activity_us: u64,
    interest: u32,
}

/// What a readiness handler decided about one connection.
enum Action {
    /// Nothing further; keep waiting.
    Keep,
    /// Close and forget the connection.
    Drop,
    /// A complete request parsed; dispatch it.
    Request(Request),
    /// The parser rejected the framing.
    ParseError(HttpError),
}

struct EventLoop<'a, D: Dispatcher> {
    engine: &'a Engine<D>,
    poller: Poller,
    listener: Option<TcpListener>,
    wake_rx: UnixStream,
    conns: HashMap<u64, Conn>,
    state: D::LoopState,
    next_token: u64,
    served: usize,
    events: Vec<(u64, u32)>,
}

impl<'a, D: Dispatcher> EventLoop<'a, D> {
    fn new(
        engine: &'a Engine<D>,
        poller: Poller,
        listener: TcpListener,
        wake_rx: UnixStream,
    ) -> Self {
        let _ = poller.add(listener.as_raw_fd(), TOKEN_LISTENER, EVENT_READ);
        let _ = poller.add(wake_rx.as_raw_fd(), TOKEN_WAKER, EVENT_READ);
        EventLoop {
            engine,
            poller,
            listener: Some(listener),
            wake_rx,
            conns: HashMap::new(),
            state: D::LoopState::default(),
            next_token: FIRST_CONN_TOKEN,
            served: 0,
            events: Vec::with_capacity(256),
        }
    }

    fn run(mut self) -> usize {
        loop {
            if self.engine.draining.load(Ordering::SeqCst) {
                self.begin_drain();
                if self.conns.is_empty() {
                    self.engine.queue.close();
                    return self.served;
                }
            }
            let mut events = std::mem::take(&mut self.events);
            let _ = self.poller.wait(&mut events, TICK_MS);
            for &(token, _readiness) in &events {
                match token {
                    TOKEN_LISTENER => self.accept_ready(),
                    TOKEN_WAKER => drain_wakeups(&mut self.wake_rx),
                    token => self.conn_ready(token),
                }
            }
            self.events = events;
            self.apply_completions();
            self.scan_deadlines();
        }
    }

    /// Stops admission (idempotent): close the listener, drop idle
    /// connections. In-flight work — dispatched requests, partial
    /// uploads, unflushed replies, lingers — continues to completion,
    /// each path bounded by its own deadline.
    fn begin_drain(&mut self) {
        if let Some(listener) = self.listener.take() {
            // dg-analyze: allow(swallowed-result, reason = "the listener is closed on the next line regardless; a failed epoll DEL cannot keep it admitting")
            let _ = self.poller.remove(listener.as_raw_fd());
        }
        let idle: Vec<u64> = self
            .conns
            .iter()
            .filter(|(_, c)| {
                matches!(c.state, ConnState::Reading)
                    && c.out.is_empty()
                    && c.parser.buffered() == 0
            })
            .map(|(&t, _)| t)
            .collect();
        for token in idle {
            self.drop_conn(token);
        }
    }

    fn accept_ready(&mut self) {
        loop {
            let Some(listener) = &self.listener else {
                return;
            };
            match listener.accept() {
                Ok((stream, _peer)) => {
                    self.engine.dispatcher.note(Event::Accepted);
                    if stream.set_nonblocking(true).is_err() {
                        continue;
                    }
                    let _ = stream.set_nodelay(true);
                    if self.conns.len() >= self.engine.config.max_connections {
                        // Best-effort shed; never block the loop on it.
                        self.engine.dispatcher.note(Event::Shed);
                        let mut stream = stream;
                        let _ = stream.write(&self.engine.shed_reply());
                        continue;
                    }
                    let token = self.next_token;
                    self.next_token += 1;
                    if self
                        .poller
                        .add(stream.as_raw_fd(), token, EVENT_READ)
                        .is_err()
                    {
                        continue;
                    }
                    self.conns.insert(
                        token,
                        Conn {
                            stream,
                            parser: RequestParser::new(self.engine.config.limits),
                            out: Vec::new(),
                            out_pos: 0,
                            state: ConnState::Reading,
                            close_after_write: false,
                            stream_fin: false,
                            served: 0,
                            last_activity_us: monotonic_us(),
                            interest: EVENT_READ,
                        },
                    );
                }
                Err(e) if e.kind() == ErrorKind::WouldBlock => return,
                // Transient accept errors (EMFILE, ECONNABORTED): the next
                // readiness event retries rather than killing the daemon.
                Err(_) => return,
            }
        }
    }

    fn conn_ready(&mut self, token: u64) {
        let Some(conn) = self.conns.get_mut(&token) else {
            return;
        };
        match conn.state {
            // While dispatched, readiness only matters if a streamed
            // reply parked mid-chunk on write readiness; otherwise
            // (interest is empty, but level-triggered ERR/HUP still fire)
            // the completion path discovers a dead peer at write time.
            ConnState::Dispatched => {
                if conn.out_pos < conn.out.len() {
                    self.flush(token);
                }
            }
            ConnState::Lingering { .. } => self.linger_ready(token),
            ConnState::Reading => {
                if conn.out_pos < conn.out.len() {
                    self.flush(token);
                } else {
                    self.read_ready(token);
                }
            }
        }
    }

    /// Reads until one request completes, the socket runs dry, or the
    /// connection dies. Stops at the first complete request so pipelined
    /// successors wait their turn in kernel + parser buffers.
    fn read_ready(&mut self, token: u64) {
        let mut chunk = [0u8; 16 * 1024];
        loop {
            let Some(conn) = self.conns.get_mut(&token) else {
                return;
            };
            let action = match conn.stream.read(&mut chunk) {
                Ok(0) => Action::Drop,
                Ok(n) => {
                    conn.last_activity_us = monotonic_us();
                    match conn.parser.feed(chunk.get(..n).unwrap_or_default()) {
                        Ok(Some(request)) => Action::Request(request),
                        Ok(None) => continue,
                        Err(e) => Action::ParseError(e),
                    }
                }
                Err(e) if e.kind() == ErrorKind::WouldBlock => Action::Keep,
                Err(e) if e.kind() == ErrorKind::Interrupted => continue,
                Err(_) => Action::Drop,
            };
            match action {
                Action::Keep => return,
                Action::Drop => return self.drop_conn(token),
                Action::Request(request) => return self.on_request(token, request),
                Action::ParseError(e) => return self.on_parse_error(token, e),
            }
        }
    }

    /// A complete request: the dispatcher answers it inline or queues it;
    /// a full queue sheds it.
    fn on_request(&mut self, token: u64, request: Request) {
        self.served += 1;
        let draining = self.engine.draining.load(Ordering::SeqCst);
        let Some(conn) = self.conns.get_mut(&token) else {
            return;
        };
        conn.served += 1;
        let close = !request.keep_alive()
            || draining
            || conn.served >= self.engine.config.max_requests_per_conn;

        let engine = self.engine;
        let state = &mut self.state;
        let admitted = catch_unwind(AssertUnwindSafe(|| {
            engine.dispatcher.admit(state, request, close)
        }));
        match admitted {
            Ok(Admit::Reply { bytes, close }) => self.queue_write(token, bytes, close),
            Ok(Admit::Queue(work)) => match engine.queue.try_push(Job { token, close, work }) {
                Ok(()) => {
                    if let Some(conn) = self.conns.get_mut(&token) {
                        conn.state = ConnState::Dispatched;
                    }
                    self.set_interest(token, 0);
                }
                Err(_) => {
                    engine.dispatcher.note(Event::Shed);
                    self.queue_write(token, engine.shed_reply(), true);
                }
            },
            Err(_) => {
                engine.dispatcher.note(Event::Panic);
                self.queue_write(token, panic_reply(close), close);
            }
        }
    }

    fn on_parse_error(&mut self, token: u64, error: HttpError) {
        let (status, reason) = error.status();
        self.engine.dispatcher.note(Event::BadRequest(status));
        let body = format!("{{\"ok\":false,\"error\":\"{error}\"}}");
        let bytes = write_response(
            status,
            reason,
            "application/json",
            &[],
            body.as_bytes(),
            true,
        );
        // Framing is ambiguous from here on: answer and close.
        self.queue_write(token, bytes, true);
    }

    /// Stages `bytes` as the connection's pending output and flushes
    /// optimistically.
    fn queue_write(&mut self, token: u64, bytes: Vec<u8>, close: bool) {
        let Some(conn) = self.conns.get_mut(&token) else {
            return;
        };
        conn.state = ConnState::Reading;
        conn.out = bytes;
        conn.out_pos = 0;
        conn.close_after_write = close;
        conn.stream_fin = false;
        self.flush(token);
    }

    /// Writes pending output until done or the kernel pushes back; a full
    /// flush either lingers the connection out or re-arms it for the next
    /// request (serving a buffered pipelined one immediately).
    fn flush(&mut self, token: u64) {
        loop {
            let Some(conn) = self.conns.get_mut(&token) else {
                return;
            };
            if conn.out_pos >= conn.out.len() {
                break;
            }
            let pending = conn.out.get(conn.out_pos..).unwrap_or_default();
            match conn.stream.write(pending) {
                Ok(0) => return self.drop_conn(token),
                Ok(n) => {
                    conn.out_pos += n;
                    conn.last_activity_us = monotonic_us();
                }
                Err(e) if e.kind() == ErrorKind::WouldBlock => {
                    // Peer not draining yet: park on write readiness.
                    return self.set_interest(token, EVENT_WRITE);
                }
                Err(e) if e.kind() == ErrorKind::Interrupted => {}
                Err(_) => return self.drop_conn(token),
            }
        }
        let Some(conn) = self.conns.get_mut(&token) else {
            return;
        };
        if matches!(conn.state, ConnState::Dispatched) && !conn.stream_fin {
            // Mid-stream: the chunks written so far are out, the worker
            // will push more. Stay dispatched with empty interest so only
            // the next completion (or a terminal deadline) resumes us.
            conn.out = Vec::new();
            conn.out_pos = 0;
            conn.last_activity_us = monotonic_us();
            return self.set_interest(token, 0);
        }
        conn.out = Vec::new();
        conn.out_pos = 0;
        conn.stream_fin = false;
        conn.state = ConnState::Reading;
        if conn.close_after_write {
            return self.begin_linger(token);
        }
        conn.last_activity_us = monotonic_us();
        self.set_interest(token, EVENT_READ);
        // Keep-alive: a pipelined successor may already be buffered.
        let Some(conn) = self.conns.get_mut(&token) else {
            return;
        };
        match conn.parser.feed(&[]) {
            Ok(Some(request)) => self.on_request(token, request),
            Ok(None) => {}
            Err(e) => self.on_parse_error(token, e),
        }
    }

    /// Non-blocking linger: half-close, then sink reads until FIN or the
    /// deadline scan reaps the connection.
    fn begin_linger(&mut self, token: u64) {
        let Some(conn) = self.conns.get_mut(&token) else {
            return;
        };
        let _ = conn.stream.shutdown(Shutdown::Write);
        conn.state = ConnState::Lingering {
            deadline_us: monotonic_us().saturating_add(LINGER_BUDGET_MS.saturating_mul(1_000)),
        };
        self.set_interest(token, EVENT_READ);
        self.linger_ready(token);
    }

    fn linger_ready(&mut self, token: u64) {
        let mut sink = [0u8; 4096];
        loop {
            let Some(conn) = self.conns.get_mut(&token) else {
                return;
            };
            match conn.stream.read(&mut sink) {
                Ok(0) => return self.drop_conn(token),
                Ok(_) => {}
                Err(e) if e.kind() == ErrorKind::WouldBlock => return,
                Err(e) if e.kind() == ErrorKind::Interrupted => {}
                Err(_) => return self.drop_conn(token),
            }
        }
    }

    /// Hands worker completions back to their connections' state machines.
    /// A dispatched connection **appends** each completion's bytes (the
    /// completion vector preserves the worker's push order, so a streamed
    /// head → progress → terminal sequence lands on the wire in order);
    /// only the `fin` completion releases the connection back to
    /// [`ConnState::Reading`] via the flush tail.
    fn apply_completions(&mut self) {
        let done = std::mem::take(&mut *self.engine.completions.lock());
        for completion in done {
            // The connection may have died while its request was in
            // flight; tokens are never recycled, so a stale completion
            // simply misses.
            let Some(conn) = self.conns.get_mut(&completion.token) else {
                continue;
            };
            if matches!(conn.state, ConnState::Dispatched) {
                conn.out.extend_from_slice(&completion.bytes);
                if completion.fin {
                    conn.stream_fin = true;
                    conn.close_after_write = completion.close;
                }
                self.flush(completion.token);
            } else {
                // Defensive: a completion for a connection no longer
                // dispatched (should not happen — the worker owns the
                // connection until fin). Frame it as a whole reply.
                self.queue_write(completion.token, completion.bytes, completion.close);
            }
        }
    }

    /// Reaps idle connections, stalled writers, and expired lingers.
    fn scan_deadlines(&mut self) {
        let now = monotonic_us();
        let idle_budget_us = self
            .engine
            .config
            .read_timeout_ms
            .max(1)
            .saturating_mul(1_000);
        let expired: Vec<u64> = self
            .conns
            .iter()
            .filter(|(_, c)| match c.state {
                ConnState::Lingering { deadline_us } => now >= deadline_us,
                // Covers idle keep-alive, stalled heads/bodies, and peers
                // not draining their reply (write stall): any quiet
                // period past the read timeout closes the connection.
                ConnState::Reading => now.saturating_sub(c.last_activity_us) >= idle_budget_us,
                // The worker owns the deadline while dispatched — unless a
                // streamed reply has pending bytes the peer will not
                // drain (a stalled streaming reader), which the idle
                // budget reaps like any other write stall.
                ConnState::Dispatched => {
                    !c.out.is_empty() && now.saturating_sub(c.last_activity_us) >= idle_budget_us
                }
            })
            .map(|(&t, _)| t)
            .collect();
        for token in expired {
            self.drop_conn(token);
        }
    }

    fn set_interest(&mut self, token: u64, interest: u32) {
        let Some(conn) = self.conns.get_mut(&token) else {
            return;
        };
        if conn.interest != interest {
            // A failed re-arm would otherwise leave the fd silently stalled
            // (never readable/writable again): tear the connection down.
            let rearmed = self
                .poller
                .modify(conn.stream.as_raw_fd(), token, interest)
                .is_ok();
            conn.interest = interest;
            if !rearmed {
                self.drop_conn(token);
            }
        }
    }

    fn drop_conn(&mut self, token: u64) {
        if let Some(conn) = self.conns.remove(&token) {
            // dg-analyze: allow(swallowed-result, reason = "the fd is being torn down; EBADF from epoll_ctl DEL is the expected benign race with peer close")
            let _ = self.poller.remove(conn.stream.as_raw_fd());
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::http::{read_reply, write_chunk, write_stream_head, RawReply};
    use std::sync::atomic::AtomicUsize;
    use std::time::Duration;

    /// The one progress line the panicking stream sends before it dies.
    const PROGRESS: &[u8] = b"{\"completed\":1}\n";

    /// A dispatcher that panics on request: `/admit-panic` in `admit`,
    /// `/panic` in `serve` before any push, `/stream-panic` in `serve`
    /// after a stream head and one chunk. Anything else is queued and
    /// answered `200 ok`.
    #[derive(Default)]
    struct Panicky {
        panics: AtomicUsize,
    }

    impl Dispatcher for Panicky {
        type Job = String;
        type LoopState = ();
        type WorkerState = ();

        fn admit(&self, _: &mut (), request: Request, _close: bool) -> Admit<String> {
            assert_ne!(request.target, "/admit-panic", "admit panics on purpose");
            Admit::Queue(request.target)
        }

        fn serve(&self, _: &mut (), target: String, close: bool, out: &Outbox<'_>) {
            match target.as_str() {
                "/panic" => panic!("serve panics on purpose"),
                "/stream-panic" => {
                    let head = write_stream_head(200, "OK", "application/x-ndjson", close);
                    out.push(head, false, close);
                    out.push(write_chunk(PROGRESS), false, close);
                    panic!("serve panics mid-stream on purpose");
                }
                _ => {
                    let bytes = write_response(200, "OK", "text/plain", &[], b"ok", close);
                    out.push(bytes, true, close);
                }
            }
        }

        fn note(&self, event: Event) {
            if matches!(event, Event::Panic) {
                self.panics.fetch_add(1, Ordering::SeqCst);
            }
        }
    }

    fn start_panicky() -> EngineHandle<Panicky> {
        let config = EngineConfig {
            addr: "127.0.0.1:0".to_owned(),
            name: "panicky",
            workers: 1,
            queue_depth: 4,
            limits: ParserLimits::default(),
            read_timeout_ms: 2_000,
            retry_after_secs: 1,
            max_requests_per_conn: 100,
            max_connections: 64,
        };
        Engine::start(config, Panicky::default(), Arc::new(AtomicBool::new(false))).expect("bind")
    }

    fn send(addr: SocketAddr, target: &str) -> TcpStream {
        let mut s = TcpStream::connect(addr).expect("connect");
        s.set_read_timeout(Some(Duration::from_secs(5)))
            .expect("timeout");
        s.write_all(format!("GET {target} HTTP/1.1\r\nHost: t\r\n\r\n").as_bytes())
            .expect("write");
        s
    }

    /// One keep-alive request on a fresh connection and its one reply.
    fn exchange(addr: SocketAddr, target: &str) -> RawReply {
        let mut leftover = Vec::new();
        let reply = read_reply(&mut send(addr, target), &mut leftover).expect("one reply");
        assert!(leftover.is_empty(), "nothing follows the reply");
        reply
    }

    fn panics(handle: &EngineHandle<Panicky>) -> usize {
        handle.engine().dispatcher.panics.load(Ordering::SeqCst)
    }

    #[test]
    fn a_serve_panic_before_any_byte_is_one_framed_500() {
        let handle = start_panicky();
        let addr = handle.local_addr();
        let reply = exchange(addr, "/panic");
        assert_eq!(reply.status, 500);
        assert!(
            reply
                .bytes
                .ends_with(br#"{"ok":false,"error":"internal handler panic"}"#),
            "{}",
            String::from_utf8_lossy(&reply.bytes)
        );
        assert_eq!(panics(&handle), 1);
        assert_eq!(exchange(addr, "/ok").status, 200, "the worker survives");
        assert_eq!(panics(&handle), 1);
        assert!(handle.shutdown().clean);
    }

    #[test]
    fn a_serve_panic_after_a_stream_head_cuts_the_stream_and_closes() {
        let handle = start_panicky();
        let mut s = send(handle.local_addr(), "/stream-panic");
        let mut bytes = Vec::new();
        s.read_to_end(&mut bytes)
            .expect("the engine closes the connection");
        let mut sent = write_stream_head(200, "OK", "application/x-ndjson", false);
        sent.extend_from_slice(&write_chunk(PROGRESS));
        assert_eq!(
            bytes,
            sent,
            "exactly the head and the chunk, with no terminal chunk: {}",
            String::from_utf8_lossy(&bytes)
        );
        assert_eq!(panics(&handle), 1);
        assert!(handle.shutdown().clean);
    }

    #[test]
    fn an_admit_panic_is_a_500_and_the_loop_keeps_accepting() {
        let handle = start_panicky();
        let addr = handle.local_addr();
        assert_eq!(exchange(addr, "/admit-panic").status, 500);
        assert_eq!(panics(&handle), 1);
        assert_eq!(exchange(addr, "/ok").status, 200, "the loop survives");
        assert!(handle.shutdown().clean);
    }

    #[test]
    fn poller_surfaces_listener_readiness_with_the_registered_token() {
        let poller = Poller::new().expect("epoll");
        let listener = TcpListener::bind("127.0.0.1:0").expect("bind");
        listener.set_nonblocking(true).expect("nonblocking");
        poller
            .add(listener.as_raw_fd(), 7, EVENT_READ)
            .expect("add");

        let mut events = Vec::new();
        poller.wait(&mut events, 0).expect("wait");
        assert!(events.is_empty(), "nothing connected yet");

        let _client = TcpStream::connect(listener.local_addr().expect("addr")).expect("connect");
        poller.wait(&mut events, 1_000).expect("wait");
        assert!(
            events
                .iter()
                .any(|&(token, ev)| token == 7 && ev & EVENT_READ != 0),
            "listener must become readable under its token: {events:?}"
        );
        poller.remove(listener.as_raw_fd()).expect("remove");
    }

    #[test]
    fn waker_crosses_threads_and_coalesces() {
        let poller = Poller::new().expect("epoll");
        let (waker, mut rx) = waker_pair().expect("pair");
        poller.add(rx.as_raw_fd(), 1, EVENT_READ).expect("add");

        let remote = waker.clone();
        std::thread::spawn(move || {
            for _ in 0..100 {
                remote.notify();
            }
        })
        .join()
        .expect("notifier");

        let mut events = Vec::new();
        poller.wait(&mut events, 1_000).expect("wait");
        assert!(events.iter().any(|&(token, _)| token == 1));
        drain_wakeups(&mut rx);
        // Drained: an immediate re-poll reports nothing.
        poller.wait(&mut events, 0).expect("wait");
        assert!(
            !events.iter().any(|&(token, _)| token == 1),
            "wakeups must coalesce and drain: {events:?}"
        );
    }

    #[test]
    fn interest_can_be_parked_and_restored() {
        let poller = Poller::new().expect("epoll");
        let (waker, rx) = waker_pair().expect("pair");
        poller.add(rx.as_raw_fd(), 3, EVENT_READ).expect("add");
        waker.notify();

        // Park: pending readable bytes no longer surface.
        poller.modify(rx.as_raw_fd(), 3, 0).expect("park");
        let mut events = Vec::new();
        poller.wait(&mut events, 0).expect("wait");
        assert!(events.is_empty(), "parked fd must stay silent: {events:?}");

        // Restore: the same bytes surface again (level-triggered).
        poller
            .modify(rx.as_raw_fd(), 3, EVENT_READ)
            .expect("restore");
        poller.wait(&mut events, 1_000).expect("wait");
        assert!(events.iter().any(|&(token, _)| token == 3));
    }
}
