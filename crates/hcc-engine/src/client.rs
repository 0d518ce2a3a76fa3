//! TCP clients for the engine server: [`Client`] speaks the legacy
//! line protocol (one blocking request/response at a time);
//! [`MuxClient`] speaks the versioned framed protocol and pipelines —
//! many requests may be in flight on one connection, with responses
//! matched back by request id in whatever order the server finishes
//! them.

use std::collections::VecDeque;
use std::io::{self, BufReader, BufWriter, Write};
use std::net::{TcpStream, ToSocketAddrs};
use std::time::Duration;

use crate::job::JobId;
use crate::protocol::frame::{
    self, parse_busy, parse_error, parse_hello_ok, parse_result, read_frame, Frame, HelloLimits,
    T_BUSY, T_ERROR, T_GOODBYE, T_HELLO, T_HELLO_OK, T_METRICS, T_OK_TEXT, T_PING, T_PONG,
    T_RESULT, T_STATS,
};
use crate::protocol::{read_line, read_section_body, write_section, SubmitParams};
use crate::registry::DatasetHandle;
use crate::telemetry::SpanEvent;

/// A release fetched over the wire.
#[derive(Clone, Debug, PartialEq)]
pub struct FetchedRelease {
    /// The `region,level,size,count` CSV, exactly as released.
    pub csv: String,
    /// Whether the server's result cache served it.
    pub from_cache: bool,
}

/// How a client reacts to `BUSY` backpressure: bounded exponential
/// backoff seeded from the server's retry hint, with deterministic
/// jitter (no ambient entropy — two clients built with the same seed
/// sleep the same schedule).
///
/// Attempt `n` sleeps `min(hint << n, max_delay_ms)` plus a jitter of
/// up to a quarter of that, then resubmits; after `max_attempts`
/// sheds the request fails with the server's `busy:` text instead of
/// retrying forever. [`RetryPolicy::disabled`] (the CLI's
/// `--no-retry`) surfaces the first shed immediately.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct RetryPolicy {
    /// How many sheds are retried before giving up (0 = fail on the
    /// first `BUSY`).
    pub max_attempts: u32,
    /// Ceiling on any single backoff sleep, in milliseconds.
    pub max_delay_ms: u32,
    /// Seed of the deterministic jitter stream.
    pub jitter_seed: u64,
}

impl Default for RetryPolicy {
    fn default() -> Self {
        Self {
            max_attempts: 8,
            max_delay_ms: 2_000,
            jitter_seed: 0x9E37_79B9_7F4A_7C15,
        }
    }
}

impl RetryPolicy {
    /// Never retry: the first `BUSY` shed is surfaced to the caller.
    pub fn disabled() -> Self {
        Self {
            max_attempts: 0,
            ..Self::default()
        }
    }

    /// The bounded, jittered sleep before retry number `attempt`
    /// (0-based), given the server's `retry_ms` hint. Pure: the same
    /// (policy, attempt, hint) always yields the same delay.
    pub fn delay_ms(&self, attempt: u32, hint_ms: u32) -> u32 {
        let base = u64::from(hint_ms.max(1))
            .saturating_mul(1u64 << attempt.min(16))
            .min(u64::from(self.max_delay_ms));
        // splitmix-style scramble keyed by (seed, attempt): spreads
        // synchronized clients without consulting a clock or OS RNG.
        let mut x = self
            .jitter_seed
            .wrapping_add(u64::from(attempt).wrapping_mul(0x9E37_79B9_7F4A_7C15));
        x = (x ^ (x >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
        x = (x ^ (x >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
        x ^= x >> 31;
        let jitter = x % (base / 4 + 1);
        u32::try_from(
            base.saturating_add(jitter)
                .min(u64::from(self.max_delay_ms)),
        )
        .unwrap_or(self.max_delay_ms)
    }

    /// The failure text reported when every allowed retry was shed.
    fn exhausted(&self, last: &str) -> String {
        format!(
            "{} server backpressure persisted after {} retries: {last}",
            crate::protocol::BUSY,
            self.max_attempts
        )
    }
}

/// One connection to an engine server; every method is a blocking
/// request/response exchange.
pub struct Client {
    reader: BufReader<TcpStream>,
    writer: BufWriter<TcpStream>,
    retry: RetryPolicy,
}

/// Splits an `OK <tail>` / `ERR <message>` reply line, delegating the
/// OK tail to `ok` and passing errors (or unrecognisable replies)
/// through as `Err`.
fn parse_reply<T>(reply: &str, ok: impl FnOnce(&str) -> Result<T, String>) -> Result<T, String> {
    match reply.split_once(' ') {
        Some(("OK", tail)) => ok(tail),
        Some(("ERR", msg)) => Err(msg.to_string()),
        _ => Err(format!("unexpected reply {reply:?}")),
    }
}

impl Client {
    /// Connects to a server started with [`crate::serve_reactor`] or
    /// `hcc serve`.
    pub fn connect(addr: impl ToSocketAddrs) -> io::Result<Self> {
        let stream = TcpStream::connect(addr)?;
        Ok(Self {
            reader: BufReader::new(stream.try_clone()?),
            writer: BufWriter::new(stream),
            retry: RetryPolicy::default(),
        })
    }

    /// Replaces the `BUSY` backoff policy (see [`RetryPolicy`]).
    pub fn with_retry_policy(mut self, retry: RetryPolicy) -> Self {
        self.retry = retry;
        self
    }

    fn request_line(&mut self, line: &str) -> io::Result<String> {
        writeln!(self.writer, "{line}")?;
        self.writer.flush()?;
        self.read_reply()
    }

    /// Reads the single reply line of the request just flushed.
    fn read_reply(&mut self) -> io::Result<String> {
        read_line(&mut self.reader)?.ok_or_else(|| {
            io::Error::new(io::ErrorKind::UnexpectedEof, "server closed the connection")
        })
    }

    /// Health check.
    pub fn ping(&mut self) -> io::Result<bool> {
        Ok(self.request_line("PING")? == "PONG")
    }

    /// The server's `STATS` line (workers, queue depth, counters).
    pub fn stats(&mut self) -> io::Result<String> {
        self.request_line("STATS")
    }

    /// Downloads the server's telemetry snapshot as Prometheus-style
    /// text exposition (the `METRICS` verb): counters, gauges,
    /// latency histograms, and derived p50/p95/p99 quantiles.
    pub fn metrics(&mut self) -> io::Result<String> {
        let reply = self.request_line("METRICS")?;
        let lines = Self::framed_len(&reply, "METRICS")?;
        let text = read_section_body(&mut self.reader, lines, 1 << 26)?;
        self.expect_end()?;
        Ok(text)
    }

    /// Drains the server's span recorder (the `TRACE` verb),
    /// returning the recorded scheduler spans. Empty unless the
    /// server was started with tracing enabled (`hcc serve
    /// --trace N`). Draining is destructive: each span is returned
    /// once.
    pub fn trace(&mut self) -> io::Result<Vec<SpanEvent>> {
        let reply = self.request_line("TRACE")?;
        let count = Self::framed_len(&reply, "TRACE")?;
        let body = read_section_body(&mut self.reader, count, 1 << 28)?;
        self.expect_end()?;
        body.lines()
            .map(|line| {
                SpanEvent::from_wire_line(line).map_err(|e| {
                    io::Error::new(io::ErrorKind::InvalidData, format!("bad span line: {e}"))
                })
            })
            .collect()
    }

    /// Parses the `<verb> <n>` header of a framed reply.
    fn framed_len(reply: &str, verb: &str) -> io::Result<usize> {
        reply
            .strip_prefix(verb)
            .and_then(|tail| tail.trim().parse().ok())
            .ok_or_else(|| {
                io::Error::new(
                    io::ErrorKind::InvalidData,
                    format!("expected `{verb} <n>`, got {reply:?}"),
                )
            })
    }

    /// Consumes the `END` line closing a framed reply.
    fn expect_end(&mut self) -> io::Result<()> {
        match read_line(&mut self.reader)? {
            Some(end) if end == "END" => Ok(()),
            other => Err(io::Error::new(
                io::ErrorKind::InvalidData,
                format!("expected END, got {other:?}"),
            )),
        }
    }

    /// Submits a release job from raw CSV tables, returning its id.
    pub fn submit(
        &mut self,
        params: &SubmitParams,
        hierarchy_csv: &str,
        groups_csv: &str,
        entities_csv: &str,
    ) -> io::Result<Result<JobId, String>> {
        writeln!(self.writer, "SUBMIT {}", params.encode())?;
        write_section(&mut self.writer, "HIERARCHY", hierarchy_csv)?;
        write_section(&mut self.writer, "GROUPS", groups_csv)?;
        write_section(&mut self.writer, "ENTITIES", entities_csv)?;
        writeln!(self.writer, "END")?;
        self.writer.flush()?;
        let reply = self.read_reply()?;
        Ok(parse_reply(&reply, |id| id.parse()))
    }

    /// Registers the three CSV tables as a prepared dataset on the
    /// server, returning its content-addressed handle. Subsequent
    /// [`Client::submit_prepared`] calls reference the handle and skip
    /// shipping + re-parsing the tables entirely.
    pub fn prepare(
        &mut self,
        hierarchy_csv: &str,
        groups_csv: &str,
        entities_csv: &str,
    ) -> io::Result<Result<DatasetHandle, String>> {
        writeln!(self.writer, "PREPARE")?;
        write_section(&mut self.writer, "HIERARCHY", hierarchy_csv)?;
        write_section(&mut self.writer, "GROUPS", groups_csv)?;
        write_section(&mut self.writer, "ENTITIES", entities_csv)?;
        writeln!(self.writer, "END")?;
        self.writer.flush()?;
        let reply = self.read_reply()?;
        Ok(parse_reply(&reply, |handle| handle.parse()))
    }

    /// Derives a new prepared dataset on the server by applying
    /// `delta` to the prepared dataset `parent`, returning the derived
    /// content-addressed handle. No table is re-shipped or re-parsed —
    /// only the delta CSV travels, and the server re-aggregates just
    /// the touched root-to-leaf paths (see [`crate::Engine::derive`]).
    /// The parent stays registered with its references intact.
    pub fn derive(
        &mut self,
        parent: DatasetHandle,
        delta: &hcc_data::DatasetDelta,
    ) -> io::Result<Result<DatasetHandle, String>> {
        self.derive_with(parent, delta, "DERIVE")
    }

    /// Rolling-update variant of [`Client::derive`]: the server also
    /// drops one reference on `parent`, so repeatedly appending
    /// deltas holds one registry slot rather than a growing chain.
    pub fn append(
        &mut self,
        parent: DatasetHandle,
        delta: &hcc_data::DatasetDelta,
    ) -> io::Result<Result<DatasetHandle, String>> {
        self.derive_with(parent, delta, "APPEND")
    }

    fn derive_with(
        &mut self,
        parent: DatasetHandle,
        delta: &hcc_data::DatasetDelta,
        cmd: &str,
    ) -> io::Result<Result<DatasetHandle, String>> {
        writeln!(self.writer, "{cmd} {parent}")?;
        write_section(&mut self.writer, "DELTA", &delta.to_csv())?;
        writeln!(self.writer, "END")?;
        self.writer.flush()?;
        let reply = self.read_reply()?;
        Ok(parse_reply(&reply, |handle| handle.parse()))
    }

    /// Drops one reference to a prepared dataset; returns how many
    /// references the server still holds.
    pub fn unprepare(&mut self, handle: DatasetHandle) -> io::Result<Result<u64, String>> {
        let reply = self.request_line(&format!("UNPREPARE {handle}"))?;
        Ok(parse_reply(&reply, |tail| {
            tail.strip_prefix("refs=")
                .and_then(|n| n.parse().ok())
                .ok_or_else(|| format!("unexpected reply tail {tail:?}"))
        }))
    }

    /// Submits a release of a prepared dataset — no CSV payload is
    /// shipped; any `handle` already inside `params` is overridden.
    pub fn submit_prepared(
        &mut self,
        params: &SubmitParams,
        handle: DatasetHandle,
    ) -> io::Result<Result<JobId, String>> {
        let params = SubmitParams {
            handle: Some(handle),
            ..params.clone()
        };
        writeln!(self.writer, "SUBMIT {}", params.encode())?;
        writeln!(self.writer, "END")?;
        self.writer.flush()?;
        let reply = self.read_reply()?;
        Ok(parse_reply(&reply, |id| id.parse()))
    }

    /// Batch-submits an ε grid over one prepared handle on this
    /// connection, then streams the finished releases back in grid
    /// order, invoking `each` as every ε completes. Submissions are
    /// enqueued as fast as the server accepts them, so the sweep runs
    /// with full worker-pool parallelism; when the server's bounded
    /// queue pushes back, the client drains its oldest in-flight
    /// point (delivering its result) and retries, so grids larger
    /// than the server queue still complete.
    pub fn sweep(
        &mut self,
        base: &SubmitParams,
        handle: DatasetHandle,
        epsilons: &[f64],
        mut each: impl FnMut(f64, Result<FetchedRelease, String>),
    ) -> io::Result<()> {
        // Every point's outcome is buffered (a job id or a hard
        // rejection) and delivered strictly in grid order — callers
        // label results positionally, so even a failed submission
        // must not jump the queue ahead of older in-flight successes.
        let mut in_flight: std::collections::VecDeque<(f64, Result<JobId, String>)> =
            std::collections::VecDeque::new();
        for &epsilon in epsilons {
            let params = SubmitParams {
                epsilon,
                ..base.clone()
            };
            // Backoff attempts only count when we hold nothing to
            // drain — draining an in-flight point makes progress and
            // resets the clock.
            let mut backoffs = 0u32;
            loop {
                match self.submit_prepared(&params, handle)? {
                    Ok(id) => {
                        in_flight.push_back((epsilon, Ok(id)));
                        break;
                    }
                    // Retryable rejection (stable `busy:` wire token,
                    // never matched on prose): drain our oldest
                    // in-flight point and retry — or, when *other*
                    // clients saturate the queue and we hold nothing
                    // to drain, back off with the bounded jittered
                    // policy and retry, failing the point once the
                    // attempts run out.
                    Err(e) if e.starts_with(crate::protocol::BUSY) => match in_flight.pop_front() {
                        Some((done_eps, Ok(id))) => {
                            backoffs = 0;
                            each(done_eps, self.wait(id)?);
                        }
                        Some((done_eps, Err(failed))) => {
                            backoffs = 0;
                            each(done_eps, Err(failed));
                        }
                        None => {
                            if backoffs >= self.retry.max_attempts {
                                in_flight.push_back((epsilon, Err(self.retry.exhausted(&e))));
                                break;
                            }
                            let delay = self.retry.delay_ms(backoffs, 50);
                            backoffs += 1;
                            std::thread::sleep(std::time::Duration::from_millis(u64::from(delay)));
                        }
                    },
                    Err(e) => {
                        in_flight.push_back((epsilon, Err(e)));
                        break;
                    }
                }
            }
        }
        for (epsilon, outcome) in in_flight {
            match outcome {
                Ok(id) => each(epsilon, self.wait(id)?),
                Err(e) => each(epsilon, Err(e)),
            }
        }
        Ok(())
    }

    /// One-line job status, e.g. `QUEUED` or `DONE rows=12 cached=0`.
    pub fn status(&mut self, id: JobId) -> io::Result<String> {
        self.request_line(&format!("STATUS {id}"))
    }

    /// Blocks until the job finishes and downloads the release.
    pub fn wait(&mut self, id: JobId) -> io::Result<Result<FetchedRelease, String>> {
        self.fetch_with(id, "WAIT")
    }

    /// Downloads a finished release without blocking on computation.
    pub fn fetch(&mut self, id: JobId) -> io::Result<Result<FetchedRelease, String>> {
        self.fetch_with(id, "FETCH")
    }

    fn fetch_with(&mut self, id: JobId, cmd: &str) -> io::Result<Result<FetchedRelease, String>> {
        let reply = self.request_line(&format!("{cmd} {id}"))?;
        let Some(("RELEASE", tail)) = reply.split_once(' ') else {
            return Ok(Err(reply
                .strip_prefix("ERR ")
                .unwrap_or(&reply)
                .to_string()));
        };
        let (lines, cached) = match tail.split_once(' ') {
            Some((n, c)) => (n, c.strip_prefix("cached=").unwrap_or("0")),
            None => (tail, "0"),
        };
        let lines: usize = lines.parse().map_err(|_| {
            io::Error::new(
                io::ErrorKind::InvalidData,
                format!("bad RELEASE header {reply:?}"),
            )
        })?;
        // The client trusts its own server for release sizes; cap at
        // a level no legitimate release exceeds.
        let csv = read_section_body(&mut self.reader, lines, 1 << 32)?;
        self.expect_end()?;
        Ok(Ok(FetchedRelease {
            csv,
            from_cache: cached == "1",
        }))
    }

    /// Says goodbye and closes the connection.
    pub fn quit(mut self) -> io::Result<()> {
        let _ = self.request_line("QUIT")?;
        Ok(())
    }
}

/// One ε-grid point's outcome from [`MuxClient::sweep`], in grid
/// order.
#[derive(Clone, Debug)]
pub struct SweepPoint {
    /// The grid point's privacy budget.
    pub epsilon: f64,
    /// The fetched release, or the server's rejection/failure text.
    pub outcome: Result<FetchedRelease, String>,
}

/// Multiplexed framed-protocol client: one connection, many requests
/// in flight, responses matched by request id.
///
/// Where [`Client`] pays a full round trip per request, `MuxClient`
/// writes a whole batch of frames back-to-back and collects the
/// responses as the server finishes them — on a sweep this collapses
/// `n` round trips into roughly one. Structured [`frame::T_BUSY`]
/// backpressure is honoured transparently: shed submits are
/// resubmitted after the server's retry hint.
pub struct MuxClient {
    reader: BufReader<TcpStream>,
    writer: TcpStream,
    next_id: u64,
    limits: HelloLimits,
    /// Responses read while looking for a different request id.
    stash: VecDeque<Frame>,
    retry: RetryPolicy,
}

/// Response-size cap: a client trusts its own server, and release CSVs
/// can be large.
const CLIENT_MAX_FRAME: u32 = u32::MAX;

impl MuxClient {
    /// Connects and performs the `HELLO` handshake, learning the
    /// server's advertised limits.
    pub fn connect(addr: impl ToSocketAddrs) -> io::Result<Self> {
        let stream = TcpStream::connect(addr)?;
        stream.set_nodelay(true)?;
        let mut client = MuxClient {
            reader: BufReader::new(stream.try_clone()?),
            writer: stream,
            next_id: 1,
            limits: HelloLimits {
                max_frame: frame::DEFAULT_MAX_FRAME,
                interactive_inflight: 1,
                bulk_inflight: 1,
                park_capacity: 0,
            },
            stash: VecDeque::new(),
            retry: RetryPolicy::default(),
        };
        let rid = client.send(|rid| Frame::empty(T_HELLO, rid))?;
        let reply = client.recv_for(rid)?;
        match reply.ftype {
            T_HELLO_OK => {
                client.limits = parse_hello_ok(&reply.payload)
                    .map_err(|e| io::Error::new(io::ErrorKind::InvalidData, e))?;
                Ok(client)
            }
            T_ERROR => {
                let (_, msg) = parse_error(&reply.payload);
                Err(io::Error::new(
                    io::ErrorKind::ConnectionRefused,
                    format!("handshake rejected: {msg}"),
                ))
            }
            other => Err(unexpected_frame(other)),
        }
    }

    /// The limits the server advertised during the handshake.
    pub fn limits(&self) -> HelloLimits {
        self.limits
    }

    /// Replaces the `BUSY` backoff policy (see [`RetryPolicy`]).
    pub fn with_retry_policy(mut self, retry: RetryPolicy) -> Self {
        self.retry = retry;
        self
    }

    /// Builds a frame with a fresh request id and writes it out.
    fn send(&mut self, build: impl FnOnce(u64) -> Frame) -> io::Result<u64> {
        let rid = self.next_id;
        self.next_id += 1;
        let f = build(rid);
        frame::write_frame(&mut self.writer, &f)?;
        Ok(rid)
    }

    /// Reads the next response frame (stashed frames first).
    fn recv_any(&mut self) -> io::Result<Frame> {
        if let Some(f) = self.stash.pop_front() {
            return Ok(f);
        }
        read_frame(&mut self.reader, CLIENT_MAX_FRAME)
    }

    /// Reads until the response for `rid` arrives, stashing any
    /// out-of-band responses for other in-flight requests.
    fn recv_for(&mut self, rid: u64) -> io::Result<Frame> {
        if let Some(pos) = self.stash.iter().position(|f| f.request_id == rid) {
            if let Some(f) = self.stash.remove(pos) {
                return Ok(f);
            }
        }
        loop {
            let f = read_frame(&mut self.reader, CLIENT_MAX_FRAME)?;
            if f.request_id == rid {
                return Ok(f);
            }
            self.stash.push_back(f);
        }
    }

    /// One request/response exchange resolving to `OK <text>`-style
    /// replies.
    fn rpc_text(&mut self, build: impl FnOnce(u64) -> Frame) -> io::Result<Result<String, String>> {
        let rid = self.send(build)?;
        let reply = self.recv_for(rid)?;
        match reply.ftype {
            T_OK_TEXT => Ok(Ok(String::from_utf8_lossy(&reply.payload).into_owned())),
            T_ERROR => {
                let (_, msg) = parse_error(&reply.payload);
                Ok(Err(msg))
            }
            other => Err(unexpected_frame(other)),
        }
    }

    /// Health check.
    pub fn ping(&mut self) -> io::Result<bool> {
        let rid = self.send(|rid| Frame::empty(T_PING, rid))?;
        Ok(self.recv_for(rid)?.ftype == T_PONG)
    }

    /// The server's `STATS` line (workers, queue depth, counters).
    pub fn stats(&mut self) -> io::Result<String> {
        self.rpc_text(|rid| Frame::empty(T_STATS, rid))?
            .map_err(io::Error::other)
    }

    /// The server's Prometheus-style metrics text, wire counters
    /// included.
    pub fn metrics(&mut self) -> io::Result<String> {
        self.rpc_text(|rid| Frame::empty(T_METRICS, rid))?
            .map_err(io::Error::other)
    }

    /// Registers the three CSV tables as a prepared dataset (see
    /// [`Client::prepare`]).
    pub fn prepare(
        &mut self,
        hierarchy_csv: &str,
        groups_csv: &str,
        entities_csv: &str,
    ) -> io::Result<Result<DatasetHandle, String>> {
        let tables = [hierarchy_csv, groups_csv, entities_csv];
        let reply = self.rpc_text(|rid| frame::prepare_frame(rid, tables))?;
        Ok(reply.and_then(|text| text.parse()))
    }

    /// Derives a prepared dataset by applying `delta` to `parent`
    /// (see [`Client::derive`]).
    pub fn derive(
        &mut self,
        parent: DatasetHandle,
        delta: &hcc_data::DatasetDelta,
    ) -> io::Result<Result<DatasetHandle, String>> {
        let csv = delta.to_csv();
        let parent = parent.to_string();
        let reply =
            self.rpc_text(|rid| frame::derive_frame(rid, frame::T_DERIVE, &parent, &csv))?;
        Ok(reply.and_then(|text| text.parse()))
    }

    /// Rolling-update variant of [`MuxClient::derive`] (see
    /// [`Client::append`]).
    pub fn append(
        &mut self,
        parent: DatasetHandle,
        delta: &hcc_data::DatasetDelta,
    ) -> io::Result<Result<DatasetHandle, String>> {
        let csv = delta.to_csv();
        let parent = parent.to_string();
        let reply =
            self.rpc_text(|rid| frame::derive_frame(rid, frame::T_APPEND, &parent, &csv))?;
        Ok(reply.and_then(|text| text.parse()))
    }

    /// Drops one reference to a prepared dataset; returns how many
    /// references the server still holds.
    pub fn unprepare(&mut self, handle: DatasetHandle) -> io::Result<Result<u64, String>> {
        let handle = handle.to_string();
        let reply = self.rpc_text(|rid| frame::unprepare_frame(rid, &handle))?;
        Ok(reply.and_then(|text| {
            text.strip_prefix("refs=")
                .and_then(|n| n.parse().ok())
                .ok_or_else(|| format!("unexpected reply {text:?}"))
        }))
    }

    /// Submits one release from raw CSV tables and blocks until its
    /// result frame arrives. `BUSY` sheds are retried after the
    /// server's hint.
    pub fn submit_release(
        &mut self,
        params: &SubmitParams,
        hierarchy_csv: &str,
        groups_csv: &str,
        entities_csv: &str,
    ) -> io::Result<Result<FetchedRelease, String>> {
        let tables = Some([hierarchy_csv, groups_csv, entities_csv]);
        let mut attempt = 0u32;
        loop {
            let rid = self.send(|rid| frame::submit_frame(rid, params, tables, false))?;
            match self.await_submit(rid)? {
                SubmitOutcome::Done(outcome) => return Ok(outcome),
                SubmitOutcome::Busy(retry_ms) => {
                    if attempt >= self.retry.max_attempts {
                        return Ok(Err(self.retry.exhausted(&format!("retry in {retry_ms}ms"))));
                    }
                    let delay = self.retry.delay_ms(attempt, retry_ms);
                    attempt += 1;
                    std::thread::sleep(Duration::from_millis(u64::from(delay)));
                }
            }
        }
    }

    /// Submits one release of a prepared dataset and blocks until its
    /// result frame arrives.
    pub fn submit_prepared(
        &mut self,
        params: &SubmitParams,
        handle: DatasetHandle,
    ) -> io::Result<Result<FetchedRelease, String>> {
        let params = SubmitParams {
            handle: Some(handle),
            ..params.clone()
        };
        let mut attempt = 0u32;
        loop {
            let rid = self.send(|rid| frame::submit_frame(rid, &params, None, false))?;
            match self.await_submit(rid)? {
                SubmitOutcome::Done(outcome) => return Ok(outcome),
                SubmitOutcome::Busy(retry_ms) => {
                    if attempt >= self.retry.max_attempts {
                        return Ok(Err(self.retry.exhausted(&format!("retry in {retry_ms}ms"))));
                    }
                    let delay = self.retry.delay_ms(attempt, retry_ms);
                    attempt += 1;
                    std::thread::sleep(Duration::from_millis(u64::from(delay)));
                }
            }
        }
    }

    /// Resolves one in-flight submit's response frame.
    fn await_submit(&mut self, rid: u64) -> io::Result<SubmitOutcome> {
        let reply = self.recv_for(rid)?;
        Ok(match reply.ftype {
            T_RESULT => {
                let parsed = parse_result(&reply.payload)
                    .map_err(|e| io::Error::new(io::ErrorKind::InvalidData, e))?;
                SubmitOutcome::Done(Ok(FetchedRelease {
                    csv: parsed.csv,
                    from_cache: parsed.from_cache,
                }))
            }
            T_ERROR => {
                let (_, msg) = parse_error(&reply.payload);
                SubmitOutcome::Done(Err(msg))
            }
            T_BUSY => {
                let busy = parse_busy(&reply.payload)
                    .map_err(|e| io::Error::new(io::ErrorKind::InvalidData, e))?;
                SubmitOutcome::Busy(busy.retry_ms)
            }
            other => return Err(unexpected_frame(other)),
        })
    }

    /// Pipelined ε-sweep over one prepared handle: every grid point's
    /// submit frame is written before any response is read, so the
    /// sweep costs roughly one round trip instead of one per point.
    /// Results return in grid order regardless of completion order;
    /// `BUSY` sheds resubmit after the server's retry hint. Points
    /// beyond the first are submitted on the bulk lane, keeping a big
    /// sweep from starving the connection's interactive quota.
    pub fn sweep(
        &mut self,
        base: &SubmitParams,
        handle: DatasetHandle,
        epsilons: &[f64],
    ) -> io::Result<Vec<SweepPoint>> {
        let mut outcomes: Vec<Option<Result<FetchedRelease, String>>> =
            epsilons.iter().map(|_| None).collect();
        // Per-point shed count: the backoff ladder climbs point by
        // point, so one hot grid entry cannot exhaust its neighbours.
        let mut attempts: Vec<u32> = epsilons.iter().map(|_| 0).collect();
        // request id → grid index
        let mut pending: Vec<(u64, usize)> = Vec::with_capacity(epsilons.len());
        for (idx, &epsilon) in epsilons.iter().enumerate() {
            let params = SubmitParams {
                epsilon,
                handle: Some(handle),
                ..base.clone()
            };
            let rid = self.send(|rid| frame::submit_frame(rid, &params, None, idx > 0))?;
            pending.push((rid, idx));
        }
        let mut done = 0usize;
        while done < epsilons.len() {
            let reply = self.recv_any()?;
            let Some(pos) = pending.iter().position(|&(rid, _)| rid == reply.request_id) else {
                // A response for nothing we sent (e.g. a server-side
                // idle notice) — fatal for the sweep.
                return Err(unexpected_frame(reply.ftype));
            };
            let (_, idx) = pending.swap_remove(pos);
            match reply.ftype {
                T_RESULT => {
                    let parsed = parse_result(&reply.payload)
                        .map_err(|e| io::Error::new(io::ErrorKind::InvalidData, e))?;
                    if let Some(slot) = outcomes.get_mut(idx) {
                        *slot = Some(Ok(FetchedRelease {
                            csv: parsed.csv,
                            from_cache: parsed.from_cache,
                        }));
                    }
                    done += 1;
                }
                T_ERROR => {
                    let (_, msg) = parse_error(&reply.payload);
                    if let Some(slot) = outcomes.get_mut(idx) {
                        *slot = Some(Err(msg));
                    }
                    done += 1;
                }
                T_BUSY => {
                    let busy = parse_busy(&reply.payload)
                        .map_err(|e| io::Error::new(io::ErrorKind::InvalidData, e))?;
                    let attempt = attempts.get(idx).copied().unwrap_or(0);
                    if attempt >= self.retry.max_attempts {
                        if let Some(slot) = outcomes.get_mut(idx) {
                            *slot = Some(Err(self
                                .retry
                                .exhausted(&format!("retry in {}ms", busy.retry_ms))));
                        }
                        done += 1;
                        continue;
                    }
                    if let Some(a) = attempts.get_mut(idx) {
                        *a += 1;
                    }
                    let delay = self.retry.delay_ms(attempt, busy.retry_ms);
                    std::thread::sleep(Duration::from_millis(u64::from(delay)));
                    let params = SubmitParams {
                        epsilon: epsilons.get(idx).copied().unwrap_or(base.epsilon),
                        handle: Some(handle),
                        ..base.clone()
                    };
                    let rid = self.send(|rid| frame::submit_frame(rid, &params, None, idx > 0))?;
                    pending.push((rid, idx));
                }
                other => return Err(unexpected_frame(other)),
            }
        }
        Ok(epsilons
            .iter()
            .zip(outcomes)
            .map(|(&epsilon, outcome)| SweepPoint {
                epsilon,
                outcome: outcome.unwrap_or_else(|| Err("sweep point never resolved".to_string())),
            })
            .collect())
    }

    /// Says goodbye and closes the connection.
    pub fn quit(mut self) -> io::Result<()> {
        let rid = self.send(|rid| Frame::empty(T_GOODBYE, rid))?;
        let _ = self.recv_for(rid)?;
        Ok(())
    }
}

/// A submit's response frame, resolved.
enum SubmitOutcome {
    Done(Result<FetchedRelease, String>),
    Busy(u32),
}

fn unexpected_frame(ftype: u8) -> io::Error {
    io::Error::new(
        io::ErrorKind::InvalidData,
        format!("unexpected response frame type 0x{ftype:02X}"),
    )
}
