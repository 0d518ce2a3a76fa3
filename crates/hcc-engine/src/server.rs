//! TCP front end: the [`ServerHandle`] that [`crate::serve_reactor`]
//! returns, and the legacy line-protocol request dispatch
//! ([`dispatch_legacy`]) that the reactor feeds from a buffered,
//! already-framed request. Keeping every legacy reply byte in one
//! function keeps the line protocol, an external contract, in one
//! place.

use std::io::{self, Write};
use std::net::SocketAddr;
use std::os::unix::net::UnixStream;
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::Arc;
use std::thread::JoinHandle;

use hcc_consistency::{HierarchicalCounts, TopDownConfig};
use hcc_data::DatasetDelta;
use hcc_hierarchy::{hierarchy_from_csv, Hierarchy};
use hcc_tables::CsvLoader;

use crate::job::{EngineError, JobId, JobStatus, ReleaseRequest, ReleaseResult};
use crate::protocol::{
    format_stats, level_method, one_line, read_line, read_section_body, SubmitParams,
};
use crate::registry::DatasetHandle;
use crate::telemetry::WireStats;
use crate::Engine;

/// Most lines one `SUBMIT` section may declare; counts come from the
/// peer, so they are bounded before any payload is read.
pub(crate) const MAX_SECTION_LINES: usize = 50_000_000;

/// Most bytes one `SUBMIT` section may occupy once reassembled.
pub(crate) const MAX_SECTION_BYTES: usize = 1 << 30;

/// A running TCP server; dropping the handle stops the server and
/// tears down its open connections.
pub struct ServerHandle {
    addr: SocketAddr,
    stop: Arc<AtomicBool>,
    /// Reactor wake pipe: one byte interrupts `epoll_wait`.
    wake: UnixStream,
    /// `None` once the reactor thread has been joined.
    thread: Option<JoinHandle<()>>,
    wire: Arc<WireStats>,
}

impl ServerHandle {
    pub(crate) fn for_reactor(
        addr: SocketAddr,
        stop: Arc<AtomicBool>,
        wake: UnixStream,
        thread: JoinHandle<()>,
        wire: Arc<WireStats>,
    ) -> Self {
        Self {
            addr,
            stop,
            wake,
            thread: Some(thread),
            wire,
        }
    }

    /// The bound address (useful with port `0`).
    pub fn addr(&self) -> SocketAddr {
        self.addr
    }

    /// A snapshot of the wire-level counters (connections, frames,
    /// bytes, backpressure). Always `Some`.
    pub fn wire_stats(&self) -> Option<crate::telemetry::WireSnapshot> {
        Some(self.wire.snapshot())
    }

    /// Stops the server thread and joins it.
    pub fn shutdown(mut self) {
        self.stop_serving();
    }

    fn stop_serving(&mut self) {
        self.stop.store(true, Ordering::Release);
        let _ = (&self.wake).write_all(&[1]);
        if let Some(t) = self.thread.take() {
            let _ = t.join();
        }
    }
}

impl Drop for ServerHandle {
    fn drop(&mut self) {
        self.stop_serving();
    }
}

/// What one legacy line-protocol request asks of the transport, after
/// [`dispatch_legacy`] has executed it against the engine.
pub(crate) enum LegacyOutcome {
    /// Reply bytes; keep the connection.
    Reply(Vec<u8>),
    /// Reply bytes; close the connection afterwards (`QUIT`, or a
    /// fatal framing error that desynced the stream).
    Close(Vec<u8>),
    /// `WAIT`: the reply is [`render_wait_reply`] over the job's
    /// terminal status, whenever it arrives.
    Wait(JobId),
}

/// Renders the terminal half of a `WAIT`/`FETCH` reply: `ERR` line,
/// or `RELEASE <n> cached=<b>` + CSV + `END`.
pub(crate) fn render_wait_reply(finished: Result<(Arc<ReleaseResult>, bool), String>) -> Vec<u8> {
    match finished {
        Err(e) => format!("ERR {}\n", one_line(&e)).into_bytes(),
        Ok((result, from_cache)) => {
            let mut out = format!(
                "RELEASE {} cached={}\n",
                result.csv.lines().count(),
                u8::from(from_cache)
            )
            .into_bytes();
            out.extend_from_slice(result.csv.as_bytes());
            out.extend_from_slice(b"END\n");
            out
        }
    }
}

/// Converts a terminal [`JobStatus`] into the payload
/// [`render_wait_reply`] expects, with the same error text
/// `Engine::wait` would produce.
pub(crate) fn wait_outcome(
    id: JobId,
    status: JobStatus,
) -> Result<(Arc<ReleaseResult>, bool), String> {
    match status {
        JobStatus::Done { result, from_cache } => Ok((result, from_cache)),
        JobStatus::Failed(msg) => Err(EngineError::JobFailed(msg).to_string()),
        JobStatus::Queued | JobStatus::Running => Err(format!("job {id} not finished")),
    }
}

/// Executes one legacy line-protocol request: `line` is the command
/// line (already stripped of its newline), `reader` supplies any
/// sectioned payload. `wire` supplies the wire counters appended to
/// `METRICS` output.
///
/// Every observable byte written for a given request is produced
/// here. An `Err` return means the transport failed mid-request (or
/// the payload ended early) and the connection is beyond saving.
pub(crate) fn dispatch_legacy(
    engine: &Engine,
    line: &str,
    reader: &mut impl io::BufRead,
    wire: &WireStats,
) -> io::Result<LegacyOutcome> {
    let (cmd, tail) = match line.split_once(' ') {
        Some((c, t)) => (c, t.trim()),
        None => (line, ""),
    };
    let mut out = Vec::new();
    match cmd {
        "" => {}
        "PING" => writeln!(out, "PONG")?,
        "QUIT" => {
            writeln!(out, "BYE")?;
            return Ok(LegacyOutcome::Close(out));
        }
        "STATS" => {
            let line = format_stats(
                engine.config().workers,
                engine.queue_len(),
                engine.prepared_len(),
                &engine.stats(),
            );
            writeln!(out, "{line}")?;
        }
        "METRICS" => {
            // Prometheus text exposition, framed like every other
            // bulk payload: `METRICS <n>` + n lines + END.
            let mut text = engine.telemetry().to_prometheus();
            text.push_str(&wire.snapshot().to_prometheus());
            writeln!(out, "METRICS {}", text.lines().count())?;
            out.extend_from_slice(text.as_bytes());
            writeln!(out, "END")?;
        }
        "TRACE" => {
            // Drains the span recorder (empty unless the engine
            // was started with a trace capacity).
            let spans = engine.take_trace();
            writeln!(out, "TRACE {}", spans.len())?;
            for span in &spans {
                writeln!(out, "{}", span.to_wire_line())?;
            }
            writeln!(out, "END")?;
        }
        "SUBMIT" => match read_submit(engine, reader, tail) {
            Ok(id) => writeln!(out, "OK {id}")?,
            Err(SubmitFailure::Protocol(e)) => writeln!(out, "ERR {}", one_line(&e))?,
            Err(SubmitFailure::Fatal(e)) => {
                // Section framing is lost; any further reads would
                // misparse payload as commands. Report and close.
                writeln!(out, "ERR {}", one_line(&e))?;
                return Ok(LegacyOutcome::Close(out));
            }
            Err(SubmitFailure::Io(e)) => return Err(e),
        },
        "PREPARE" => match read_prepare(engine, reader) {
            Ok(handle) => writeln!(out, "OK {handle}")?,
            Err(SubmitFailure::Protocol(e)) => writeln!(out, "ERR {}", one_line(&e))?,
            Err(SubmitFailure::Fatal(e)) => {
                writeln!(out, "ERR {}", one_line(&e))?;
                return Ok(LegacyOutcome::Close(out));
            }
            Err(SubmitFailure::Io(e)) => return Err(e),
        },
        "UNPREPARE" => match tail.parse::<DatasetHandle>() {
            Err(e) => writeln!(out, "ERR {}", one_line(&e))?,
            Ok(handle) => match engine.unprepare(handle) {
                Ok(refs) => writeln!(out, "OK refs={refs}")?,
                Err(e) => writeln!(out, "ERR {}", one_line(&e.to_string()))?,
            },
        },
        "DERIVE" | "APPEND" => match read_derive(engine, reader, tail, cmd == "APPEND") {
            Ok(handle) => writeln!(out, "OK {handle}")?,
            Err(SubmitFailure::Protocol(e)) => writeln!(out, "ERR {}", one_line(&e))?,
            Err(SubmitFailure::Fatal(e)) => {
                writeln!(out, "ERR {}", one_line(&e))?;
                return Ok(LegacyOutcome::Close(out));
            }
            Err(SubmitFailure::Io(e)) => return Err(e),
        },
        "STATUS" => match tail.parse::<crate::JobId>() {
            Err(e) => writeln!(out, "ERR {}", one_line(&e))?,
            Ok(id) => match engine.status(id) {
                None => writeln!(out, "ERR unknown job {id}")?,
                Some(JobStatus::Queued) => writeln!(out, "QUEUED")?,
                Some(JobStatus::Running) => writeln!(out, "RUNNING")?,
                Some(JobStatus::Done { result, from_cache }) => writeln!(
                    out,
                    "DONE rows={} cached={}",
                    result.rows,
                    u8::from(from_cache)
                )?,
                Some(JobStatus::Failed(msg)) => writeln!(out, "FAILED {}", one_line(&msg))?,
            },
        },
        "WAIT" => match tail.parse::<crate::JobId>() {
            Err(e) => writeln!(out, "ERR {}", one_line(&e))?,
            Ok(id) => return Ok(LegacyOutcome::Wait(id)),
        },
        "FETCH" => match tail.parse::<crate::JobId>() {
            Err(e) => writeln!(out, "ERR {}", one_line(&e))?,
            Ok(id) => {
                let finished = match engine.status(id) {
                    None => Err(EngineError::UnknownJob(id).to_string()),
                    Some(status) => wait_outcome(id, status),
                };
                out.extend_from_slice(&render_wait_reply(finished));
            }
        },
        other => writeln!(out, "ERR unknown command {:?}", one_line(other))?,
    }
    Ok(LegacyOutcome::Reply(out))
}

enum SubmitFailure {
    /// Malformed request whose payload was fully drained — report on
    /// the wire, keep the connection.
    Protocol(String),
    /// Malformed request whose section framing is unrecoverable (the
    /// remaining payload length is unknowable) — report, then close
    /// the connection so stale payload is never parsed as commands.
    Fatal(String),
    /// Transport failure — give up on the connection.
    Io(io::Error),
}

impl From<io::Error> for SubmitFailure {
    fn from(e: io::Error) -> Self {
        SubmitFailure::Io(e)
    }
}

/// Reads the labelled sections of a sectioned command (`SUBMIT`,
/// `PREPARE`, `DERIVE`, `APPEND`) through the terminating `END`,
/// filling `sections[i]` with the body of the section labelled
/// `labels[i]`. Every slot may be `None`: a handle submission
/// legitimately carries no sections, and a malformed request must
/// still be drained so the connection stays in sync.
fn read_sections(
    reader: &mut impl io::BufRead,
    labels: &[&str],
) -> Result<Vec<Option<String>>, SubmitFailure> {
    let mut bad_section: Option<String> = None;
    let mut sections: Vec<Option<String>> = vec![None; labels.len()];
    loop {
        let Some(line) = read_line(reader)? else {
            return Err(SubmitFailure::Io(io::Error::new(
                io::ErrorKind::UnexpectedEof,
                "connection closed mid-submit",
            )));
        };
        if line == "END" {
            break;
        }
        let header = line
            .split_once(' ')
            .and_then(|(label, count)| Some((label, count.parse::<usize>().ok()?)));
        let Some((label, count)) = header else {
            return Err(SubmitFailure::Fatal(format!(
                "unparseable section header {line:?}; closing connection"
            )));
        };
        // Declared lengths are peer-controlled: refuse to buffer (or
        // even drain) absurd sections before reading a single line.
        if count > MAX_SECTION_LINES {
            return Err(SubmitFailure::Fatal(format!(
                "section {label} declares {count} lines (limit {MAX_SECTION_LINES}); \
                 closing connection"
            )));
        }
        let body = read_section_body(reader, count, MAX_SECTION_BYTES).map_err(|e| {
            if e.kind() == io::ErrorKind::InvalidData {
                SubmitFailure::Fatal(e.to_string())
            } else {
                SubmitFailure::Io(e)
            }
        })?;
        match labels
            .iter()
            .position(|&l| l == label)
            .and_then(|i| sections.get_mut(i))
        {
            Some(slot) => *slot = Some(body),
            None => {
                bad_section.get_or_insert_with(|| format!("unknown section {label:?}"));
            }
        }
    }
    if let Some(e) = bad_section {
        return Err(SubmitFailure::Protocol(e));
    }
    Ok(sections)
}

/// The three base tables of a `SUBMIT`/`PREPARE`.
fn read_table_sections(
    reader: &mut impl io::BufRead,
) -> Result<[Option<String>; 3], SubmitFailure> {
    let sections = read_sections(reader, &["HIERARCHY", "GROUPS", "ENTITIES"])?;
    let mut it = sections.into_iter();
    Ok([
        it.next().flatten(),
        it.next().flatten(),
        it.next().flatten(),
    ])
}

/// Parses the three CSV tables and aggregates the per-node true
/// views — the expensive load that `PREPARE` amortizes. Shared with
/// the reactor's framed `SUBMIT`/`PREPARE` handlers.
pub(crate) fn load_dataset(
    hierarchy_csv: &str,
    groups_csv: &str,
    entities_csv: &str,
) -> Result<(Arc<Hierarchy>, Arc<HierarchicalCounts>), String> {
    let (hierarchy, _) =
        hierarchy_from_csv(hierarchy_csv).map_err(|e| format!("hierarchy: {e}"))?;
    let mut loader = CsvLoader::new(&hierarchy);
    loader
        .load_groups(groups_csv)
        .map_err(|e| format!("groups: {e}"))?;
    loader
        .load_entities(entities_csv)
        .map_err(|e| format!("entities: {e}"))?;
    let db = loader.finish();
    let data = HierarchicalCounts::from_node_histograms(&hierarchy, db.node_histograms(&hierarchy))
        .map_err(|e| e.to_string())?;
    Ok((Arc::new(hierarchy), Arc::new(data)))
}

/// Builds the release configuration a request's parameters describe —
/// the half of request validation shared by both wire protocols.
pub(crate) fn submit_config(params: &SubmitParams) -> Result<TopDownConfig, String> {
    let method = level_method(&params.method, params.bound)?;
    Ok(TopDownConfig::new(params.epsilon).with_method(method))
}

/// Reads the sections of a `SUBMIT` (inline tables or none for a
/// handle submission), builds the request, and enqueues it.
fn read_submit(
    engine: &Engine,
    reader: &mut impl io::BufRead,
    params_tail: &str,
) -> Result<crate::JobId, SubmitFailure> {
    // Parse the parameter line but defer its error: the client has
    // already written the section payload, so it must be consumed
    // through END either way — replying before draining would leave
    // stale CSV lines on the stream and desync every later request on
    // this connection. The same applies to an unknown-but-well-framed
    // section label (drain it, then reject); only a header whose
    // length is unparseable forces closing the connection.
    let params = SubmitParams::decode(params_tail);
    let sections = read_table_sections(reader)?;
    let params = params.map_err(SubmitFailure::Protocol)?;
    let config = submit_config(&params).map_err(SubmitFailure::Protocol)?;

    if let Some(handle) = params.handle {
        if sections.iter().any(Option::is_some) {
            return Err(SubmitFailure::Protocol(
                "SUBMIT with handle= takes no data sections".to_string(),
            ));
        }
        return engine
            .submit_prepared(handle, config, params.seed)
            .map_err(|e| SubmitFailure::Protocol(reject_text(e)));
    }

    let [Some(hierarchy_csv), Some(groups_csv), Some(entities_csv)] = sections else {
        return Err(SubmitFailure::Protocol(
            "SUBMIT needs HIERARCHY, GROUPS, and ENTITIES sections (or a handle=)".to_string(),
        ));
    };
    let (hierarchy, data) = load_dataset(&hierarchy_csv, &groups_csv, &entities_csv)
        .map_err(SubmitFailure::Protocol)?;
    let request = ReleaseRequest::new(hierarchy, data, config, params.seed);
    engine
        .submit(request)
        .map_err(|e| SubmitFailure::Protocol(reject_text(e)))
}

/// Renders an engine-side submission rejection for the wire,
/// prefixing retryable conditions with the stable
/// [`protocol::BUSY`](crate::protocol::BUSY) token (and budget
/// exhaustion with [`protocol::BUDGET`](crate::protocol::BUDGET)) so
/// clients can key their handling on a stable token instead of on
/// error prose.
fn reject_text(e: EngineError) -> String {
    match e {
        EngineError::QueueFull { .. } => format!("{} {e}", crate::protocol::BUSY),
        EngineError::BudgetExhausted { .. } => format!("{} {e}", crate::protocol::BUDGET),
        other => other.to_string(),
    }
}

/// Reads the sections of a `PREPARE`, loads the dataset once, and
/// registers it under its content-addressed handle.
fn read_prepare(
    engine: &Engine,
    reader: &mut impl io::BufRead,
) -> Result<DatasetHandle, SubmitFailure> {
    let sections = read_table_sections(reader)?;
    let [Some(hierarchy_csv), Some(groups_csv), Some(entities_csv)] = sections else {
        return Err(SubmitFailure::Protocol(
            "PREPARE needs HIERARCHY, GROUPS, and ENTITIES sections".to_string(),
        ));
    };
    let (hierarchy, data) = load_dataset(&hierarchy_csv, &groups_csv, &entities_csv)
        .map_err(SubmitFailure::Protocol)?;
    engine
        .prepare(hierarchy, data)
        .map_err(|e| SubmitFailure::Protocol(e.to_string()))
}

/// Reads the `DELTA` section of a `DERIVE`/`APPEND`, parses it, and
/// derives a new prepared dataset from the parent handle on the
/// command line. The section is drained through `END` even when the
/// handle is malformed, so the connection stays in sync.
fn read_derive(
    engine: &Engine,
    reader: &mut impl io::BufRead,
    params_tail: &str,
    append: bool,
) -> Result<DatasetHandle, SubmitFailure> {
    let parent = params_tail.parse::<DatasetHandle>();
    let sections = read_sections(reader, &["DELTA"])?;
    let parent = parent.map_err(SubmitFailure::Protocol)?;
    let Some(delta_csv) = sections.into_iter().next().flatten() else {
        return Err(SubmitFailure::Protocol(
            "DERIVE/APPEND needs a DELTA section".to_string(),
        ));
    };
    let delta =
        DatasetDelta::from_csv(&delta_csv).map_err(|e| SubmitFailure::Protocol(e.to_string()))?;
    let derived = if append {
        engine.append(parent, &delta)
    } else {
        engine.derive(parent, &delta)
    };
    derived.map_err(|e| SubmitFailure::Protocol(e.to_string()))
}
