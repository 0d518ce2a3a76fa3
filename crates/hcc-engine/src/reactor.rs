//! Event-driven wire path: a single-thread epoll reactor multiplexing
//! every connection.
//!
//! A thread-per-connection server spends one OS thread per
//! connection, and a pipelined client still pays a full round trip per
//! request. This module is instead a hand-rolled reactor (std-only, no
//! async runtime):
//!
//! - **One reactor thread.** A level-triggered epoll instance watches
//!   the listener, a wake pipe, and every client socket; accept, read,
//!   decode, dispatch, and write all happen on this thread. Job
//!   execution stays on the engine's worker pool — the reactor
//!   subscribes to results with [`crate::Engine::on_finish`] and never
//!   blocks on a job, so reactor threads stay at `1` no matter how
//!   many connections or jobs are open.
//! - **Two protocols on one port.** The first byte a connection sends
//!   picks its protocol: [`frame::MAGIC`] means the framed binary
//!   protocol ([`crate::protocol::frame`]); anything else (legacy
//!   commands start with an uppercase ASCII letter) is served by the
//!   legacy line-protocol dispatch
//!   ([`crate::server::dispatch_legacy`]).
//! - **Multi-tenant admission control.** Each connection has two
//!   request lanes — interactive ([`frame::FLAG_BULK`] clear) and bulk
//!   (set) — with separate in-flight quotas, plus a bounded park
//!   buffer absorbing short engine-queue-full spikes. When both the
//!   quota (or queue) and the park buffer are exhausted, the request
//!   is shed with a structured [`frame::T_BUSY`] frame — the framed
//!   generalization of the legacy `busy:` token — never silently
//!   dropped. Parked interactive requests re-admit before bulk ones.
//!
//! Completions cross from worker threads to the reactor through
//! [`CompletionQueue`]: a `wire`-ranked mutex (last in the lock order,
//! so a watcher fired under no engine lock can always take it) plus a
//! nonblocking wake pipe that interrupts `epoll_wait`.

use std::collections::{BTreeMap, VecDeque};
use std::io::{self, Read, Write};
use std::net::{TcpListener, TcpStream, ToSocketAddrs};
use std::os::unix::io::AsRawFd;
use std::os::unix::net::UnixStream;
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::Arc;
use std::time::{Duration, Instant};

use hcc_consistency::TopDownConfig;
use hcc_data::DatasetDelta;

use crate::job::{EngineError, JobId, JobStatus, ReleaseRequest};
use crate::locks::{Rank, RankedMutex};
use crate::protocol::frame::{
    self, busy_frame, decode_frame, encode_frame, error_frame, hello_ok_frame, ok_text_frame,
    parse_derive, parse_prepare, parse_submit, parse_unprepare, result_frame, Frame, FrameError,
    HelloLimits, B_QUEUE, B_QUOTA, E_BUDGET, E_FAILED, E_PROTO, E_REJECTED, E_TIMEOUT, E_VERSION,
    FLAG_BULK, HEADER_LEN, T_APPEND, T_DERIVE, T_GOODBYE, T_HELLO, T_METRICS, T_PING, T_PONG,
    T_PREPARE, T_STATS, T_SUBMIT, T_UNPREPARE,
};
use crate::protocol::{format_stats, one_line};
use crate::registry::DatasetHandle;
use crate::server::{
    dispatch_legacy, load_dataset, render_wait_reply, submit_config, wait_outcome, LegacyOutcome,
    ServerHandle, MAX_SECTION_BYTES, MAX_SECTION_LINES,
};
use crate::telemetry::WireStats;
use crate::Engine;

/// Minimal epoll FFI. The only unsafe code in the workspace lives in
/// this module; every call site carries a `hcc-lint` hygiene waiver
/// stating why it is sound. libc is already linked by std, so the
/// symbols resolve without any build-script or dependency work.
#[allow(unsafe_code)]
mod sys {
    use std::io;

    pub const EPOLL_CTL_ADD: i32 = 1;
    pub const EPOLL_CTL_DEL: i32 = 2;
    pub const EPOLL_CTL_MOD: i32 = 3;
    pub const EPOLLIN: u32 = 0x1;
    pub const EPOLLOUT: u32 = 0x4;
    pub const EPOLLERR: u32 = 0x8;
    pub const EPOLLHUP: u32 = 0x10;
    pub const EPOLLRDHUP: u32 = 0x2000;
    const EPOLL_CLOEXEC: i32 = 0o2000000;

    /// Mirrors the kernel's `struct epoll_event`. On x86-64 the kernel
    /// ABI packs it (no padding between `events` and `data`); other
    /// 64-bit targets use the naturally-aligned layout.
    #[repr(C)]
    #[cfg_attr(target_arch = "x86_64", repr(packed))]
    #[derive(Clone, Copy)]
    pub struct EpollEvent {
        pub events: u32,
        pub data: u64,
    }

    extern "C" {
        fn epoll_create1(flags: i32) -> i32;
        fn epoll_ctl(epfd: i32, op: i32, fd: i32, event: *mut EpollEvent) -> i32;
        fn epoll_wait(epfd: i32, events: *mut EpollEvent, maxevents: i32, timeout: i32) -> i32;
        fn close(fd: i32) -> i32;
    }

    /// Creates a close-on-exec epoll instance.
    pub fn epoll_create() -> io::Result<i32> {
        // hcc-lint: allow(hygiene, reason = "audited FFI: epoll_create1 takes no pointers; the returned fd is checked before use")
        let fd = unsafe { epoll_create1(EPOLL_CLOEXEC) };
        if fd < 0 {
            Err(io::Error::last_os_error())
        } else {
            Ok(fd)
        }
    }

    /// Adds/modifies/deletes `fd`'s interest set. An event struct is
    /// passed even for DEL (required by kernels before 2.6.9, ignored
    /// since).
    pub fn ctl(epfd: i32, op: i32, fd: i32, events: u32, data: u64) -> io::Result<()> {
        let mut ev = EpollEvent { events, data };
        // hcc-lint: allow(hygiene, reason = "audited FFI: the event pointer refers to a live stack value for exactly the duration of the call")
        let rc = unsafe { epoll_ctl(epfd, op, fd, &mut ev) };
        if rc < 0 {
            Err(io::Error::last_os_error())
        } else {
            Ok(())
        }
    }

    /// Waits for events, returning how many were written into
    /// `events`. `EINTR` is reported as zero events.
    pub fn wait(epfd: i32, events: &mut [EpollEvent], timeout_ms: i32) -> io::Result<usize> {
        let max = i32::try_from(events.len()).unwrap_or(i32::MAX);
        if max == 0 {
            return Ok(0);
        }
        // hcc-lint: allow(hygiene, reason = "audited FFI: the pointer/length pair comes from one live mutable slice; the kernel writes at most `max` entries")
        let n = unsafe { epoll_wait(epfd, events.as_mut_ptr(), max, timeout_ms) };
        if n < 0 {
            let e = io::Error::last_os_error();
            if e.kind() == io::ErrorKind::Interrupted {
                return Ok(0);
            }
            return Err(e);
        }
        Ok(usize::try_from(n).unwrap_or(0))
    }

    /// Closes an fd this module opened (best-effort).
    pub fn close_fd(fd: i32) {
        // hcc-lint: allow(hygiene, reason = "audited FFI: closes only the epoll fd this module created; double-close is impossible because the owner is dropped exactly once")
        let _ = unsafe { close(fd) };
    }
}

/// Safe owner of one epoll instance.
struct Epoll {
    fd: i32,
}

impl Epoll {
    fn new() -> io::Result<Epoll> {
        Ok(Epoll {
            fd: sys::epoll_create()?,
        })
    }

    fn add(&self, fd: i32, events: u32, token: u64) -> io::Result<()> {
        sys::ctl(self.fd, sys::EPOLL_CTL_ADD, fd, events, token)
    }

    fn modify(&self, fd: i32, events: u32, token: u64) -> io::Result<()> {
        sys::ctl(self.fd, sys::EPOLL_CTL_MOD, fd, events, token)
    }

    fn delete(&self, fd: i32) {
        let _ = sys::ctl(self.fd, sys::EPOLL_CTL_DEL, fd, 0, 0);
    }

    fn wait(&self, events: &mut [sys::EpollEvent], timeout_ms: i32) -> io::Result<usize> {
        sys::wait(self.fd, events, timeout_ms)
    }
}

impl Drop for Epoll {
    fn drop(&mut self) {
        sys::close_fd(self.fd);
    }
}

/// Reactor transport and admission knobs, applied by
/// [`serve_reactor`].
#[derive(Clone, Debug)]
pub struct ReactorConfig {
    /// Close a connection idle this long with nothing in flight
    /// (`None` disables the sweep).
    pub read_timeout: Option<Duration>,
    /// Most concurrent connections; beyond this, new clients get one
    /// `ERR server busy` line and are dropped.
    pub max_connections: usize,
    /// Largest frame payload accepted from a client.
    pub max_frame: u32,
    /// Interactive-lane (default) in-flight job quota per connection.
    pub interactive_inflight: usize,
    /// Bulk-lane ([`FLAG_BULK`]) in-flight job quota per connection.
    pub bulk_inflight: usize,
    /// Requests parked per connection (awaiting quota or an engine
    /// queue slot) before further submits are shed with `BUSY`.
    pub park_capacity: usize,
}

impl Default for ReactorConfig {
    fn default() -> Self {
        Self {
            read_timeout: Some(Duration::from_secs(30)),
            max_connections: 1024,
            max_frame: frame::DEFAULT_MAX_FRAME,
            interactive_inflight: 256,
            bulk_inflight: 64,
            park_capacity: 64,
        }
    }
}

impl ReactorConfig {
    /// Sets the idle timeout (`None` disables it).
    pub fn with_read_timeout(mut self, timeout: Option<Duration>) -> Self {
        self.read_timeout = timeout;
        self
    }

    /// Sets the concurrent-connection bound.
    pub fn with_max_connections(mut self, max: usize) -> Self {
        assert!(max >= 1, "need at least one connection slot");
        self.max_connections = max;
        self
    }

    /// Sets the largest accepted frame payload.
    pub fn with_max_frame(mut self, max: u32) -> Self {
        self.max_frame = max;
        self
    }

    /// Sets the interactive-lane in-flight quota.
    pub fn with_interactive_inflight(mut self, quota: usize) -> Self {
        assert!(quota >= 1, "need at least one interactive slot");
        self.interactive_inflight = quota;
        self
    }

    /// Sets the bulk-lane in-flight quota.
    pub fn with_bulk_inflight(mut self, quota: usize) -> Self {
        assert!(quota >= 1, "need at least one bulk slot");
        self.bulk_inflight = quota;
        self
    }

    /// Sets the per-connection park-buffer capacity (may be zero:
    /// every over-quota submit is shed immediately).
    pub fn with_park_capacity(mut self, capacity: usize) -> Self {
        self.park_capacity = capacity;
        self
    }
}

/// Token of the listening socket in the epoll interest set.
const TOK_LISTENER: u64 = 0;
/// Token of the wake pipe's read end.
const TOK_WAKE: u64 = 1;
/// First token handed to a client connection (monotonic, never
/// reused, so a stale event cannot alias a new connection).
const FIRST_CONN_TOKEN: u64 = 2;
/// Retry hint carried in `BUSY` frames.
const BUSY_RETRY_MS: u32 = 50;
/// A connection whose peer stops reading may buffer at most this many
/// unsent response bytes before being dropped.
const OUTBUF_CAP: usize = 1 << 30;
/// How often the idle sweep runs.
const SWEEP_EVERY: Duration = Duration::from_millis(500);

/// A job completion crossing from a worker thread to the reactor.
struct Completion {
    token: u64,
    request_id: u64,
    job: JobId,
    kind: CompletionKind,
    status: JobStatus,
}

/// What the completion resolves on the connection.
enum CompletionKind {
    /// A framed submit; the response is a `RESULT`/`ERROR` frame keyed
    /// by request id.
    Framed,
    /// A legacy `WAIT`; the response is the line-protocol release
    /// block, and the connection resumes parsing afterwards.
    LegacyWait,
}

/// The worker→reactor handoff: completions land in a `wire`-ranked
/// vector (the last rank, so watchers may push while holding no other
/// lock and the reactor drains without ordering hazards), and a byte
/// on the wake pipe interrupts `epoll_wait`.
struct CompletionQueue {
    completions: RankedMutex<Vec<Completion>>,
    wake: UnixStream,
}

impl CompletionQueue {
    fn push(&self, completion: Completion) {
        self.completions.lock().push(completion);
        // Nonblocking: a full pipe already guarantees a pending wake.
        let _ = (&self.wake).write(&[1]);
    }

    fn drain(&self) -> Vec<Completion> {
        std::mem::take(&mut *self.completions.lock())
    }
}

/// Incremental scanner finding the end of one legacy line-protocol
/// request in a growing buffer, without copying or re-scanning
/// consumed bytes. Mirrors the framing rules of
/// [`crate::server::dispatch_legacy`]'s section reader: sectioned
/// commands (`SUBMIT`/`PREPARE`/`DERIVE`/`APPEND`) run through `END`,
/// with each `<label> <count>` header declaring `count` payload lines;
/// every other command is one line.
#[derive(Default)]
struct LegacyScan {
    /// Bytes of the current request already validated.
    offset: usize,
    /// Whether the command line has been consumed.
    started: bool,
    /// Whether the command carries sections through `END`.
    in_sections: bool,
    /// Payload lines still to skip in the current section.
    lines_left: usize,
}

impl LegacyScan {
    /// Advances over `buf` (the unconsumed input, starting at the
    /// request's first byte). `Ok(Some(len))` means the first `len`
    /// bytes form one complete request; `Ok(None)` means more input is
    /// needed; `Err` is a fatal framing error (mirroring the
    /// close-the-connection cases of [`crate::server::dispatch_legacy`]'s
    /// section reader, with identical text).
    fn advance(&mut self, buf: &[u8]) -> Result<Option<usize>, String> {
        loop {
            while self.lines_left > 0 {
                let Some(end) = next_line_end(buf, self.offset) else {
                    return Ok(None);
                };
                self.offset = end;
                self.lines_left -= 1;
            }
            let Some(end) = next_line_end(buf, self.offset) else {
                return Ok(None);
            };
            let line = line_text(buf, self.offset, end);
            let at_start = !self.started;
            self.offset = end;
            if at_start {
                self.started = true;
                let cmd = line.split(' ').next().unwrap_or("");
                if matches!(cmd, "SUBMIT" | "PREPARE" | "DERIVE" | "APPEND") {
                    self.in_sections = true;
                    continue;
                }
                return Ok(Some(self.offset));
            }
            // Inside sections: END terminates; anything else must be a
            // section header declaring its payload length.
            if line == "END" {
                return Ok(Some(self.offset));
            }
            let header = line
                .split_once(' ')
                .and_then(|(label, count)| Some((label, count.parse::<usize>().ok()?)));
            let Some((label, count)) = header else {
                return Err(format!(
                    "unparseable section header {line:?}; closing connection"
                ));
            };
            if count > MAX_SECTION_LINES {
                return Err(format!(
                    "section {label} declares {count} lines (limit {MAX_SECTION_LINES}); \
                     closing connection"
                ));
            }
            self.lines_left = count;
        }
    }
}

/// Index just past the next `\n` at or after `from`, if present.
fn next_line_end(buf: &[u8], from: usize) -> Option<usize> {
    let rest = buf.get(from..)?;
    rest.iter().position(|&b| b == b'\n').map(|i| from + i + 1)
}

/// The text of `buf[start..end]` minus the line terminator (lossy:
/// only used for framing decisions; the dispatch re-reads the bytes
/// with the strict UTF-8 reader).
fn line_text(buf: &[u8], start: usize, end: usize) -> String {
    let mut bytes = buf.get(start..end).unwrap_or(&[]);
    while let Some((&last, rest)) = bytes.split_last() {
        if last == b'\n' || last == b'\r' {
            bytes = rest;
        } else {
            break;
        }
    }
    String::from_utf8_lossy(bytes).into_owned()
}

/// Which protocol a connection speaks, decided by its first byte.
enum Mode {
    /// Nothing received yet.
    Detect,
    /// Binary framed protocol.
    Framed,
    /// Legacy line protocol, with its request scanner.
    Legacy(LegacyScan),
}

/// A request admitted past parsing but not yet submitted to the
/// engine (it may wait in the park buffer for a queue slot or lane
/// quota).
struct Pending {
    request_id: u64,
    bulk: bool,
    work: PendingWork,
}

/// The submittable form of a parked request.
enum PendingWork {
    /// Inline tables, already parsed and aggregated.
    Inline(ReleaseRequest),
    /// A prepared-dataset submission.
    Prepared {
        handle: DatasetHandle,
        config: TopDownConfig,
        seed: u64,
    },
}

/// Per-connection state machine.
struct Conn {
    stream: TcpStream,
    mode: Mode,
    inbuf: Vec<u8>,
    outbuf: Vec<u8>,
    /// Bytes of `outbuf` already written to the socket.
    out_at: usize,
    last_activity: Instant,
    /// Close once `outbuf` drains (goodbye, fatal error, idle sweep).
    close_after_flush: bool,
    /// Whether the epoll interest set currently includes `EPOLLOUT`.
    wants_writable: bool,
    /// Whether the framed handshake (`HELLO`) has completed.
    hello_done: bool,
    /// A legacy `WAIT` is outstanding; parsing is paused so replies
    /// keep the line protocol's strict request/response order.
    legacy_waiting: bool,
    /// Consecutive idle-sweep passes that saw this connection past the
    /// read timeout with nothing in flight. Closing needs two strikes,
    /// so a client that is merely starved for CPU (not gone) gets a
    /// full sweep period to show life after the first observation.
    idle_strikes: u8,
    /// In-flight framed submits: request id → bulk lane?
    inflight: BTreeMap<u64, bool>,
    inflight_interactive: usize,
    inflight_bulk: usize,
    /// Requests parked for admission, oldest first.
    parked: VecDeque<Pending>,
}

impl Conn {
    fn new(stream: TcpStream) -> Conn {
        Conn {
            stream,
            mode: Mode::Detect,
            inbuf: Vec::new(),
            outbuf: Vec::new(),
            out_at: 0,
            last_activity: Instant::now(),
            close_after_flush: false,
            wants_writable: false,
            hello_done: false,
            legacy_waiting: false,
            idle_strikes: 0,
            inflight: BTreeMap::new(),
            inflight_interactive: 0,
            inflight_bulk: 0,
            parked: VecDeque::new(),
        }
    }
}

/// One decodable unit pulled off a connection's input buffer.
enum Step {
    /// Input incomplete; wait for more bytes.
    Idle,
    /// Parsing is paused (legacy `WAIT` outstanding).
    Blocked,
    /// One complete frame.
    Frame(Frame),
    /// One complete legacy request (raw bytes: command line + payload).
    Legacy(Vec<u8>),
    /// Unrecoverable frame-stream error (desynced; must close).
    FrameFatal(FrameError),
    /// Unrecoverable legacy framing error (must close).
    LegacyFatal(String),
}

/// Pulls the next complete request off `conn.inbuf`, consuming its
/// bytes. Also performs first-byte protocol detection.
fn next_step(conn: &mut Conn, wire: &WireStats, max_frame: u32) -> Step {
    if let Mode::Detect = conn.mode {
        match conn.inbuf.first() {
            None => return Step::Idle,
            Some(&b) if b == frame::MAGIC => conn.mode = Mode::Framed,
            Some(_) => {
                conn.mode = Mode::Legacy(LegacyScan::default());
                wire.legacy_connections.fetch_add(1, Ordering::Relaxed);
            }
        }
    }
    match &mut conn.mode {
        Mode::Detect => Step::Idle,
        Mode::Framed => match decode_frame(&conn.inbuf, max_frame) {
            Ok(None) => Step::Idle,
            Ok(Some((frame, used))) => {
                conn.inbuf.drain(..used);
                Step::Frame(frame)
            }
            Err(e) => Step::FrameFatal(e),
        },
        Mode::Legacy(scan) => {
            if conn.legacy_waiting {
                return Step::Blocked;
            }
            match scan.advance(&conn.inbuf) {
                Ok(None) => Step::Idle,
                Ok(Some(len)) => {
                    let raw: Vec<u8> = conn.inbuf.drain(..len).collect();
                    *scan = LegacyScan::default();
                    Step::Legacy(raw)
                }
                Err(msg) => Step::LegacyFatal(msg),
            }
        }
    }
}

/// Submits (or resubmits) admitted work to the engine.
fn try_submit(engine: &Engine, work: &PendingWork) -> Result<JobId, EngineError> {
    match work {
        PendingWork::Inline(request) => engine.submit(request.clone()),
        PendingWork::Prepared {
            handle,
            config,
            seed,
        } => engine.submit_prepared(*handle, config.clone(), *seed),
    }
}

fn clamp_u16(v: usize) -> u16 {
    u16::try_from(v).unwrap_or(u16::MAX)
}

/// The reactor: all connection state, owned by its one thread.
struct Reactor {
    engine: Arc<Engine>,
    cfg: ReactorConfig,
    epoll: Epoll,
    listener: TcpListener,
    wake_rx: UnixStream,
    stop: Arc<AtomicBool>,
    wire: Arc<WireStats>,
    completions: Arc<CompletionQueue>,
    conns: BTreeMap<u64, Conn>,
    next_token: u64,
    /// Connections with (possibly) new response bytes this loop pass.
    touched: Vec<u64>,
}

/// Binds `addr` and serves the engine through the epoll reactor until
/// the handle is shut down. `ReactorConfig::default()` gives the
/// defaults `hcc serve` starts from.
pub fn serve_reactor(
    engine: Arc<Engine>,
    addr: impl ToSocketAddrs,
    config: ReactorConfig,
) -> io::Result<ServerHandle> {
    let listener = TcpListener::bind(addr)?;
    listener.set_nonblocking(true)?;
    let addr = listener.local_addr()?;
    let (wake_tx, wake_rx) = UnixStream::pair()?;
    wake_tx.set_nonblocking(true)?;
    wake_rx.set_nonblocking(true)?;
    let epoll = Epoll::new()?;
    epoll.add(listener.as_raw_fd(), sys::EPOLLIN, TOK_LISTENER)?;
    epoll.add(wake_rx.as_raw_fd(), sys::EPOLLIN, TOK_WAKE)?;
    let stop = Arc::new(AtomicBool::new(false));
    let wire = Arc::new(WireStats::default());
    let completions = Arc::new(CompletionQueue {
        completions: RankedMutex::new(Rank::Wire, Vec::new()),
        wake: wake_tx.try_clone()?,
    });
    let reactor = Reactor {
        engine,
        cfg: config,
        epoll,
        listener,
        wake_rx,
        stop: Arc::clone(&stop),
        wire: Arc::clone(&wire),
        completions,
        conns: BTreeMap::new(),
        next_token: FIRST_CONN_TOKEN,
        touched: Vec::new(),
    };
    let thread = std::thread::Builder::new()
        .name("hcc-engine-reactor".to_string())
        .spawn(move || reactor.run())?;
    Ok(ServerHandle::for_reactor(addr, stop, wake_tx, thread, wire))
}

impl Reactor {
    fn run(mut self) {
        let mut events = [sys::EpollEvent { events: 0, data: 0 }; 256];
        let mut last_sweep = Instant::now();
        while !self.stop.load(Ordering::Acquire) {
            let n = match self.epoll.wait(&mut events, 500) {
                Ok(n) => n,
                Err(_) => break,
            };
            for ev in events.iter().take(n) {
                let token = ev.data;
                let bits = ev.events;
                match token {
                    TOK_LISTENER => self.accept_ready(),
                    TOK_WAKE => self.drain_wake(),
                    token => {
                        if bits & (sys::EPOLLIN | sys::EPOLLRDHUP | sys::EPOLLHUP | sys::EPOLLERR)
                            != 0
                        {
                            self.handle_readable(token);
                        }
                        if bits & sys::EPOLLOUT != 0 {
                            self.touched.push(token);
                        }
                    }
                }
            }
            self.drain_completions();
            if last_sweep.elapsed() >= SWEEP_EVERY {
                self.sweep_idle();
                last_sweep = Instant::now();
            }
            self.flush_touched();
        }
    }

    fn accept_ready(&mut self) {
        loop {
            match self.listener.accept() {
                Ok((stream, _)) => self.register_conn(stream),
                Err(e) if e.kind() == io::ErrorKind::WouldBlock => return,
                // Transient accept failures (EMFILE etc.): epoll is
                // level-triggered, so the pending connection re-fires
                // next round; no busy spin.
                Err(_) => return,
            }
        }
    }

    fn register_conn(&mut self, mut stream: TcpStream) {
        if self.conns.len() >= self.cfg.max_connections {
            self.wire.rejected.fetch_add(1, Ordering::Relaxed);
            let max = self.cfg.max_connections;
            // A legacy-protocol line; framed clients see the
            // connection die during their handshake.
            let _ = writeln!(stream, "ERR server busy ({max} connections)");
            return;
        }
        if stream.set_nonblocking(true).is_err() {
            return;
        }
        // Responses are small and latency-sensitive; never Nagle them.
        let _ = stream.set_nodelay(true);
        let token = self.next_token;
        self.next_token += 1;
        if self
            .epoll
            .add(stream.as_raw_fd(), sys::EPOLLIN | sys::EPOLLRDHUP, token)
            .is_err()
        {
            return;
        }
        self.wire.accepted.fetch_add(1, Ordering::Relaxed);
        self.wire.active.fetch_add(1, Ordering::Relaxed);
        self.conns.insert(token, Conn::new(stream));
    }

    fn drain_wake(&mut self) {
        let mut buf = [0u8; 256];
        loop {
            match (&self.wake_rx).read(&mut buf) {
                Ok(0) => return,
                Ok(_) => continue,
                Err(e) if e.kind() == io::ErrorKind::Interrupted => continue,
                Err(_) => return,
            }
        }
    }

    fn handle_readable(&mut self, token: u64) {
        let mut buf = [0u8; 64 * 1024];
        loop {
            let Some(conn) = self.conns.get_mut(&token) else {
                return;
            };
            match conn.stream.read(&mut buf) {
                Ok(0) => {
                    self.close_conn(token);
                    return;
                }
                Ok(n) => {
                    conn.last_activity = Instant::now();
                    conn.idle_strikes = 0;
                    conn.inbuf.extend_from_slice(buf.get(..n).unwrap_or(&[]));
                    self.wire.bytes_in.fetch_add(n as u64, Ordering::Relaxed);
                    // Process after every chunk so pipelined requests
                    // are consumed as they complete instead of
                    // accumulating in the input buffer.
                    self.process_conn(token);
                    self.touched.push(token);
                }
                Err(e) if e.kind() == io::ErrorKind::WouldBlock => return,
                Err(e) if e.kind() == io::ErrorKind::Interrupted => continue,
                Err(_) => {
                    self.close_conn(token);
                    return;
                }
            }
        }
    }

    /// Decodes and dispatches every complete request currently
    /// buffered on `token`.
    fn process_conn(&mut self, token: u64) {
        loop {
            let max_frame = self.cfg.max_frame;
            let Some(conn) = self.conns.get_mut(&token) else {
                return;
            };
            if conn.close_after_flush {
                return;
            }
            match next_step(conn, &self.wire, max_frame) {
                Step::Idle => {
                    // A request that can never complete within the
                    // buffer bound is a fatal framing problem (framed
                    // streams bound this earlier via the header's
                    // declared length).
                    let limit = match conn.mode {
                        Mode::Framed => HEADER_LEN.saturating_add(max_frame as usize),
                        _ => MAX_SECTION_BYTES,
                    };
                    if conn.inbuf.len() > limit {
                        self.push_bytes(
                            token,
                            b"ERR request exceeds the server's buffer; closing connection\n"
                                .to_vec(),
                        );
                        self.set_close(token);
                    }
                    return;
                }
                Step::Blocked => return,
                Step::Frame(frame) => self.handle_frame(token, frame),
                Step::Legacy(raw) => self.handle_legacy(token, raw),
                Step::FrameFatal(e) => {
                    let code = match e {
                        FrameError::BadVersion(_) => E_VERSION,
                        _ => E_PROTO,
                    };
                    self.push_frame(token, error_frame(0, code, &e.to_string()));
                    self.set_close(token);
                    return;
                }
                Step::LegacyFatal(msg) => {
                    self.push_bytes(token, format!("ERR {}\n", one_line(&msg)).into_bytes());
                    self.set_close(token);
                    return;
                }
            }
        }
    }

    /// Dispatches one framed request.
    fn handle_frame(&mut self, token: u64, f: Frame) {
        self.wire.frames_in.fetch_add(1, Ordering::Relaxed);
        let engine = Arc::clone(&self.engine);
        let rid = f.request_id;
        let hello_done = self
            .conns
            .get(&token)
            .map(|c| c.hello_done)
            .unwrap_or(false);
        if !hello_done {
            if f.ftype != T_HELLO {
                self.push_frame(
                    token,
                    error_frame(
                        rid,
                        E_PROTO,
                        "HELLO must be the first frame on a connection",
                    ),
                );
                self.set_close(token);
                return;
            }
            // Version negotiation happened at the header level: a
            // HELLO with an unsupported version never decodes, and the
            // client learns the server's version from the E_VERSION
            // error. Reaching here means the versions agree.
            if let Some(conn) = self.conns.get_mut(&token) {
                conn.hello_done = true;
            }
            let limits = HelloLimits {
                max_frame: self.cfg.max_frame,
                interactive_inflight: clamp_u16(self.cfg.interactive_inflight),
                bulk_inflight: clamp_u16(self.cfg.bulk_inflight),
                park_capacity: clamp_u16(self.cfg.park_capacity),
            };
            self.push_frame(token, hello_ok_frame(rid, &limits));
            return;
        }
        match f.ftype {
            T_HELLO => self.push_frame(token, error_frame(rid, E_PROTO, "duplicate HELLO")),
            T_PING => self.push_frame(token, Frame::empty(T_PONG, rid)),
            T_STATS => {
                let line = format_stats(
                    engine.config().workers,
                    engine.queue_len(),
                    engine.prepared_len(),
                    &engine.stats(),
                );
                self.push_frame(token, ok_text_frame(rid, &line));
            }
            T_METRICS => {
                let mut text = engine.telemetry().to_prometheus();
                text.push_str(&self.wire.snapshot().to_prometheus());
                self.push_frame(token, ok_text_frame(rid, &text));
            }
            T_UNPREPARE => {
                let reply = match parse_unprepare(&f.payload)
                    .and_then(|text| text.parse::<DatasetHandle>())
                {
                    Err(e) => error_frame(rid, E_PROTO, &one_line(&e)),
                    Ok(handle) => match engine.unprepare(handle) {
                        Ok(refs) => ok_text_frame(rid, &format!("refs={refs}")),
                        Err(e) => error_frame(rid, E_REJECTED, &one_line(&e.to_string())),
                    },
                };
                self.push_frame(token, reply);
            }
            T_PREPARE => {
                let reply = match parse_prepare(&f.payload) {
                    Err(e) => error_frame(rid, E_PROTO, &one_line(&e)),
                    Ok([h, g, ent]) => match load_dataset(&h, &g, &ent) {
                        Err(e) => error_frame(rid, E_PROTO, &one_line(&e)),
                        Ok((hierarchy, data)) => match engine.prepare(hierarchy, data) {
                            Ok(handle) => ok_text_frame(rid, &handle.to_string()),
                            Err(e) => error_frame(rid, E_REJECTED, &one_line(&e.to_string())),
                        },
                    },
                };
                self.push_frame(token, reply);
            }
            T_DERIVE | T_APPEND => {
                let append = f.ftype == T_APPEND;
                let reply = match parse_derive(&f.payload) {
                    Err(e) => error_frame(rid, E_PROTO, &one_line(&e)),
                    Ok((parent, delta_csv)) => {
                        let derived = parent
                            .parse::<DatasetHandle>()
                            .and_then(|parent| {
                                DatasetDelta::from_csv(&delta_csv)
                                    .map(|delta| (parent, delta))
                                    .map_err(|e| e.to_string())
                            })
                            .and_then(|(parent, delta)| {
                                if append {
                                    engine.append(parent, &delta)
                                } else {
                                    engine.derive(parent, &delta)
                                }
                                .map_err(|e| e.to_string())
                            });
                        match derived {
                            Ok(handle) => ok_text_frame(rid, &handle.to_string()),
                            Err(e) => error_frame(rid, E_REJECTED, &one_line(&e)),
                        }
                    }
                };
                self.push_frame(token, reply);
            }
            T_SUBMIT => self.handle_submit(token, f),
            T_GOODBYE => {
                self.push_frame(token, ok_text_frame(rid, "BYE"));
                self.set_close(token);
            }
            other => self.push_frame(
                token,
                error_frame(rid, E_PROTO, &format!("unknown frame type 0x{other:02X}")),
            ),
        }
    }

    /// Parses a framed `SUBMIT` and runs it through admission control.
    fn handle_submit(&mut self, token: u64, f: Frame) {
        let rid = f.request_id;
        let bulk = f.flags & FLAG_BULK != 0;
        let (params, tables) = match parse_submit(&f.payload) {
            Ok(parsed) => parsed,
            Err(e) => {
                self.push_frame(token, error_frame(rid, E_PROTO, &one_line(&e)));
                return;
            }
        };
        let config = match submit_config(&params) {
            Ok(config) => config,
            Err(e) => {
                self.push_frame(token, error_frame(rid, E_PROTO, &one_line(&e)));
                return;
            }
        };
        let work = if let Some(handle) = params.handle {
            if tables.is_some() {
                self.push_frame(
                    token,
                    error_frame(rid, E_PROTO, "SUBMIT with handle= takes no data sections"),
                );
                return;
            }
            PendingWork::Prepared {
                handle,
                config,
                seed: params.seed,
            }
        } else {
            let Some([h, g, ent]) = tables else {
                self.push_frame(
                    token,
                    error_frame(
                        rid,
                        E_PROTO,
                        "SUBMIT needs HIERARCHY, GROUPS, and ENTITIES tables (or a handle=)",
                    ),
                );
                return;
            };
            // Parsing/aggregation happens on the reactor thread: a
            // deliberate tradeoff keeping job identity (and the cache
            // key) computed exactly as the legacy `SUBMIT` does. Heavy
            // repeat traffic should PREPARE once and submit by handle.
            match load_dataset(&h, &g, &ent) {
                Ok((hierarchy, data)) => {
                    PendingWork::Inline(ReleaseRequest::new(hierarchy, data, config, params.seed))
                }
                Err(e) => {
                    self.push_frame(token, error_frame(rid, E_PROTO, &one_line(&e)));
                    return;
                }
            }
        };
        self.admit(
            token,
            Pending {
                request_id: rid,
                bulk,
                work,
            },
        );
    }

    /// Admission control for one framed submit: lane quota → engine
    /// queue → park buffer → structured backpressure.
    fn admit(&mut self, token: u64, pending: Pending) {
        let engine = Arc::clone(&self.engine);
        let (at_quota, park_room, queued) = {
            let Some(conn) = self.conns.get_mut(&token) else {
                return;
            };
            let at_quota = if pending.bulk {
                conn.inflight_bulk >= self.cfg.bulk_inflight
            } else {
                conn.inflight_interactive >= self.cfg.interactive_inflight
            };
            (
                at_quota,
                conn.parked.len() < self.cfg.park_capacity,
                u32::try_from(conn.parked.len()).unwrap_or(u32::MAX),
            )
        };
        if at_quota {
            if park_room {
                self.park(token, pending);
            } else {
                self.shed(token, &pending, B_QUOTA, queued);
            }
            return;
        }
        match try_submit(&engine, &pending.work) {
            Ok(id) => self.track(token, id, pending),
            Err(EngineError::QueueFull { .. }) => {
                if park_room {
                    self.park(token, pending);
                } else {
                    self.shed(token, &pending, B_QUEUE, queued);
                }
            }
            Err(e @ EngineError::BudgetExhausted { .. }) => self.push_frame(
                token,
                error_frame(pending.request_id, E_BUDGET, &one_line(&e.to_string())),
            ),
            Err(e) => self.push_frame(
                token,
                error_frame(pending.request_id, E_REJECTED, &one_line(&e.to_string())),
            ),
        }
    }

    fn park(&mut self, token: u64, pending: Pending) {
        if let Some(conn) = self.conns.get_mut(&token) {
            conn.parked.push_back(pending);
            self.wire.parked.fetch_add(1, Ordering::Relaxed);
        }
    }

    /// Sheds one request with a structured backpressure frame.
    fn shed(&mut self, token: u64, pending: &Pending, code: u8, queued: u32) {
        self.wire.backpressure.fetch_add(1, Ordering::Relaxed);
        let msg = match code {
            B_QUOTA => "per-connection lane quota and park buffer full",
            _ => "engine queue and park buffer full",
        };
        self.push_frame(
            token,
            busy_frame(pending.request_id, code, BUSY_RETRY_MS, queued, msg),
        );
    }

    /// Records a submitted job and subscribes its completion.
    fn track(&mut self, token: u64, id: JobId, pending: Pending) {
        let request_id = pending.request_id;
        let bulk = pending.bulk;
        {
            let Some(conn) = self.conns.get_mut(&token) else {
                return;
            };
            conn.inflight.insert(request_id, bulk);
            if bulk {
                conn.inflight_bulk += 1;
            } else {
                conn.inflight_interactive += 1;
            }
        }
        let queue = Arc::clone(&self.completions);
        let subscribed = self.engine.on_finish(id, move |job, status| {
            queue.push(Completion {
                token,
                request_id,
                job,
                kind: CompletionKind::Framed,
                status,
            });
        });
        if let Err(e) = subscribed {
            // Unreachable right after a successful submit; keep the
            // books straight anyway.
            self.untrack(token, request_id);
            self.push_frame(
                token,
                error_frame(request_id, E_REJECTED, &one_line(&e.to_string())),
            );
        }
    }

    /// Removes one in-flight entry, returning its lane.
    fn untrack(&mut self, token: u64, request_id: u64) -> Option<bool> {
        let conn = self.conns.get_mut(&token)?;
        let bulk = conn.inflight.remove(&request_id)?;
        if bulk {
            conn.inflight_bulk = conn.inflight_bulk.saturating_sub(1);
        } else {
            conn.inflight_interactive = conn.inflight_interactive.saturating_sub(1);
        }
        Some(bulk)
    }

    /// Delivers finished jobs to their connections, then re-admits
    /// parked requests into the freed capacity.
    fn drain_completions(&mut self) {
        let drained = self.completions.drain();
        if drained.is_empty() {
            return;
        }
        for c in drained {
            match c.kind {
                CompletionKind::Framed => {
                    if self.untrack(c.token, c.request_id).is_none() {
                        // Connection closed while the job ran; the
                        // result stays queryable via the engine.
                        continue;
                    }
                    let reply = match c.status {
                        JobStatus::Done { result, from_cache } => {
                            let rows = u32::try_from(result.rows).unwrap_or(u32::MAX);
                            result_frame(c.request_id, from_cache, rows, &result.csv)
                        }
                        JobStatus::Failed(msg) => {
                            error_frame(c.request_id, E_FAILED, &one_line(&msg))
                        }
                        // Watchers only fire on terminal states.
                        JobStatus::Queued | JobStatus::Running => continue,
                    };
                    self.push_frame(c.token, reply);
                }
                CompletionKind::LegacyWait => {
                    let Some(conn) = self.conns.get_mut(&c.token) else {
                        continue;
                    };
                    conn.legacy_waiting = false;
                    let reply = render_wait_reply(wait_outcome(c.job, c.status));
                    self.push_bytes(c.token, reply);
                    // Resume any requests pipelined behind the WAIT.
                    self.process_conn(c.token);
                }
            }
        }
        self.drain_parked();
    }

    /// Re-admits parked requests after completions free capacity.
    /// Interactive lanes drain before bulk lanes, round-robin across
    /// connections; a full engine queue stops the whole pass.
    fn drain_parked(&mut self) {
        let engine = Arc::clone(&self.engine);
        for bulk_pass in [false, true] {
            let tokens: Vec<u64> = self
                .conns
                .iter()
                .filter(|(_, c)| c.parked.iter().any(|p| p.bulk == bulk_pass))
                .map(|(t, _)| *t)
                .collect();
            for token in tokens {
                loop {
                    let pending = {
                        let Some(conn) = self.conns.get_mut(&token) else {
                            break;
                        };
                        let headroom = if bulk_pass {
                            self.cfg.bulk_inflight.saturating_sub(conn.inflight_bulk)
                        } else {
                            self.cfg
                                .interactive_inflight
                                .saturating_sub(conn.inflight_interactive)
                        };
                        if headroom == 0 {
                            break;
                        }
                        let Some(pos) = conn.parked.iter().position(|p| p.bulk == bulk_pass) else {
                            break;
                        };
                        match conn.parked.remove(pos) {
                            Some(p) => p,
                            None => break,
                        }
                    };
                    self.wire.parked.fetch_sub(1, Ordering::Relaxed);
                    match try_submit(&engine, &pending.work) {
                        Ok(id) => {
                            self.track(token, id, pending);
                            self.touched.push(token);
                        }
                        Err(EngineError::QueueFull { .. }) => {
                            // Still no queue slot: put it back and stop
                            // the whole drain until the next completion.
                            self.wire.parked.fetch_add(1, Ordering::Relaxed);
                            if let Some(conn) = self.conns.get_mut(&token) {
                                conn.parked.push_front(pending);
                            }
                            return;
                        }
                        Err(e) => {
                            let code = match e {
                                EngineError::BudgetExhausted { .. } => E_BUDGET,
                                _ => E_REJECTED,
                            };
                            self.push_frame(
                                token,
                                error_frame(pending.request_id, code, &one_line(&e.to_string())),
                            );
                        }
                    }
                }
            }
        }
    }

    /// Dispatches one complete legacy request through the shared
    /// line-protocol dispatch.
    fn handle_legacy(&mut self, token: u64, raw: Vec<u8>) {
        let engine = Arc::clone(&self.engine);
        let line_end = raw
            .iter()
            .position(|&b| b == b'\n')
            .map(|i| i + 1)
            .unwrap_or(raw.len());
        let (line_bytes, rest) = raw.split_at(line_end);
        let mut line_vec = line_bytes.to_vec();
        while matches!(line_vec.last(), Some(&(b'\n' | b'\r'))) {
            line_vec.pop();
        }
        let Ok(line) = String::from_utf8(line_vec) else {
            // The legacy protocol's strict line reader treats
            // non-UTF-8 as a transport error; drop the connection.
            self.close_conn(token);
            return;
        };
        let mut payload = io::Cursor::new(rest);
        match dispatch_legacy(&engine, &line, &mut payload, &self.wire) {
            Ok(LegacyOutcome::Reply(bytes)) => self.push_bytes(token, bytes),
            Ok(LegacyOutcome::Close(bytes)) => {
                self.push_bytes(token, bytes);
                self.set_close(token);
            }
            Ok(LegacyOutcome::Wait(id)) => {
                if let Some(conn) = self.conns.get_mut(&token) {
                    conn.legacy_waiting = true;
                }
                let queue = Arc::clone(&self.completions);
                let subscribed = engine.on_finish(id, move |job, status| {
                    queue.push(Completion {
                        token,
                        request_id: 0,
                        job,
                        kind: CompletionKind::LegacyWait,
                        status,
                    });
                });
                if let Err(e) = subscribed {
                    if let Some(conn) = self.conns.get_mut(&token) {
                        conn.legacy_waiting = false;
                    }
                    self.push_bytes(token, render_wait_reply(Err(e.to_string())));
                }
            }
            // The scanner guaranteed a complete request, so an I/O
            // error here means the payload was internally inconsistent
            // beyond recovery; drop the connection.
            Err(_) => self.close_conn(token),
        }
    }

    /// Closes connections idle past the read timeout with nothing in
    /// flight (in-flight work exempts a connection: the timer guards
    /// slots against idle peers, not against slow jobs).
    fn sweep_idle(&mut self) {
        let Some(timeout) = self.cfg.read_timeout else {
            return;
        };
        let mut idle: Vec<(u64, bool)> = Vec::new();
        for (&token, conn) in self.conns.iter_mut() {
            let quiet = !conn.close_after_flush
                && conn.inflight.is_empty()
                && conn.parked.is_empty()
                && !conn.legacy_waiting
                && conn.last_activity.elapsed() >= timeout;
            if !quiet {
                conn.idle_strikes = 0;
                continue;
            }
            conn.idle_strikes = conn.idle_strikes.saturating_add(1);
            // Two strikes before closing: with sweeps every
            // `SWEEP_EVERY`, a peer observed idle once gets a full
            // sweep period of grace. A loaded host can starve a live
            // client past a short timeout between two of its requests;
            // only a peer quiet across consecutive sweeps is treated
            // as gone.
            if conn.idle_strikes >= 2 {
                idle.push((token, matches!(conn.mode, Mode::Framed)));
            }
        }
        for (token, framed) in idle {
            if framed {
                self.push_frame(
                    token,
                    error_frame(0, E_TIMEOUT, "idle timeout; closing connection"),
                );
            } else {
                self.push_bytes(token, b"ERR idle timeout; closing connection\n".to_vec());
            }
            self.set_close(token);
        }
    }

    /// Appends one response frame to a connection's output buffer.
    fn push_frame(&mut self, token: u64, frame: Frame) {
        let Some(conn) = self.conns.get_mut(&token) else {
            return;
        };
        encode_frame(&mut conn.outbuf, &frame);
        self.wire.frames_out.fetch_add(1, Ordering::Relaxed);
        self.touched.push(token);
    }

    /// Appends raw legacy-protocol response bytes.
    fn push_bytes(&mut self, token: u64, bytes: Vec<u8>) {
        let Some(conn) = self.conns.get_mut(&token) else {
            return;
        };
        conn.outbuf.extend_from_slice(&bytes);
        self.touched.push(token);
    }

    fn set_close(&mut self, token: u64) {
        if let Some(conn) = self.conns.get_mut(&token) {
            conn.close_after_flush = true;
        }
    }

    /// Flushes every connection touched since the last pass.
    fn flush_touched(&mut self) {
        let mut tokens = std::mem::take(&mut self.touched);
        tokens.sort_unstable();
        tokens.dedup();
        for token in tokens {
            self.flush_conn(token);
        }
    }

    /// Writes as much buffered output as the socket accepts, managing
    /// `EPOLLOUT` interest and deferred closes.
    fn flush_conn(&mut self, token: u64) {
        enum After {
            Nothing,
            Close,
            Modify(i32, u32),
        }
        let mut wrote = 0u64;
        let after = {
            let Some(conn) = self.conns.get_mut(&token) else {
                return;
            };
            let mut failed = false;
            loop {
                let pending = match conn.outbuf.get(conn.out_at..) {
                    Some(p) if !p.is_empty() => p,
                    _ => break,
                };
                match conn.stream.write(pending) {
                    Ok(0) => {
                        failed = true;
                        break;
                    }
                    Ok(n) => {
                        conn.out_at += n;
                        wrote += n as u64;
                    }
                    Err(e) if e.kind() == io::ErrorKind::WouldBlock => break,
                    Err(e) if e.kind() == io::ErrorKind::Interrupted => continue,
                    Err(_) => {
                        failed = true;
                        break;
                    }
                }
            }
            if failed {
                After::Close
            } else if conn.out_at >= conn.outbuf.len() {
                conn.outbuf.clear();
                conn.out_at = 0;
                if conn.close_after_flush {
                    After::Close
                } else if conn.wants_writable {
                    conn.wants_writable = false;
                    After::Modify(conn.stream.as_raw_fd(), sys::EPOLLIN | sys::EPOLLRDHUP)
                } else {
                    After::Nothing
                }
            } else {
                // Partial write: drop the sent prefix once it is large
                // enough to matter, enforce the slow-reader bound, and
                // subscribe for writability.
                if conn.out_at > (1 << 20) {
                    conn.outbuf.drain(..conn.out_at);
                    conn.out_at = 0;
                }
                if conn.outbuf.len().saturating_sub(conn.out_at) > OUTBUF_CAP {
                    After::Close
                } else if !conn.wants_writable {
                    conn.wants_writable = true;
                    After::Modify(
                        conn.stream.as_raw_fd(),
                        sys::EPOLLIN | sys::EPOLLRDHUP | sys::EPOLLOUT,
                    )
                } else {
                    After::Nothing
                }
            }
        };
        if wrote > 0 {
            self.wire.bytes_out.fetch_add(wrote, Ordering::Relaxed);
        }
        match after {
            After::Nothing => {}
            After::Close => self.close_conn(token),
            After::Modify(fd, events) => {
                if self.epoll.modify(fd, events, token).is_err() {
                    self.close_conn(token);
                }
            }
        }
    }

    /// Tears down one connection. In-flight jobs keep running; their
    /// completions find the connection gone and are dropped (results
    /// stay queryable through the engine).
    fn close_conn(&mut self, token: u64) {
        if let Some(conn) = self.conns.remove(&token) {
            self.epoll.delete(conn.stream.as_raw_fd());
            self.wire.active.fetch_sub(1, Ordering::Relaxed);
            let parked = conn.parked.len() as u64;
            if parked > 0 {
                self.wire.parked.fetch_sub(parked, Ordering::Relaxed);
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn legacy_scan_one_line_commands() {
        let mut scan = LegacyScan::default();
        assert_eq!(scan.advance(b"PING"), Ok(None));
        assert_eq!(scan.advance(b"PING\nSTATS\n"), Ok(Some(5)));
    }

    #[test]
    fn legacy_scan_sectioned_request_incrementally() {
        let req = b"SUBMIT epsilon=1\nHIERARCHY 2\na\nb\nEND\n";
        let mut scan = LegacyScan::default();
        // Feed byte by byte: the scanner must never re-consume lines.
        for cut in 0..req.len() {
            assert_eq!(scan.advance(&req[..cut]), Ok(None), "cut at {cut}");
        }
        assert_eq!(scan.advance(req), Ok(Some(req.len())));
    }

    #[test]
    fn legacy_scan_rejects_bad_section_headers() {
        let mut scan = LegacyScan::default();
        let err = scan
            .advance(b"SUBMIT epsilon=1\nHIERARCHY lots\n")
            .unwrap_err();
        assert!(err.contains("unparseable section header"), "{err}");

        let mut scan = LegacyScan::default();
        let err = scan.advance(b"PREPARE\nGROUPS 99999999999\n").unwrap_err();
        assert!(err.contains("declares"), "{err}");
    }

    #[test]
    fn legacy_scan_handles_pipelined_requests() {
        let buf = b"PING\nSTATS\n";
        let mut scan = LegacyScan::default();
        let first = scan.advance(buf).unwrap().unwrap();
        assert_eq!(first, 5);
        // Caller drains the consumed prefix and resets the scanner.
        let mut scan = LegacyScan::default();
        assert_eq!(scan.advance(&buf[first..]), Ok(Some(6)));
    }

    #[test]
    fn clamp_u16_saturates() {
        assert_eq!(clamp_u16(7), 7);
        assert_eq!(clamp_u16(1 << 20), u16::MAX);
    }
}
