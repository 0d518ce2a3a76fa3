//! In-memory spans for the traced run, written once as Chrome-trace
//! JSON when the run ends.
//!
//! Spans are recorded from the benchmark's own code around its calls
//! into each layer; the program under test carries no span of its own
//! here.

use std::io::Write;
use std::path::Path;
use std::time::{Duration, Instant};

/// One recorded span.
#[derive(Clone, Debug)]
pub struct Span {
    /// `<layer>.<call>`, e.g. `hcc-noise.noise`.
    pub name: &'static str,
    /// Start, in ns since the tracer was created.
    pub start_ns: u64,
    /// End, in ns since the tracer was created (`start_ns` while open).
    pub end_ns: u64,
    /// Index of the enclosing span, if any.
    pub parent: Option<usize>,
    /// The request the span belongs to.
    pub request: u64,
}

impl Span {
    /// Wall time of the span.
    pub fn dur_ns(&self) -> u64 {
        self.end_ns.saturating_sub(self.start_ns)
    }
}

/// A span recorder: open spans nest, so each new span's parent is the
/// innermost open one.
pub struct Tracer {
    origin: Instant,
    spans: Vec<Span>,
    open: Vec<usize>,
}

impl Default for Tracer {
    fn default() -> Self {
        Self::new()
    }
}

impl Tracer {
    /// An empty recorder whose clock starts now.
    pub fn new() -> Self {
        Self {
            origin: Instant::now(),
            spans: Vec::with_capacity(1 << 16),
            open: Vec::new(),
        }
    }

    fn now_ns(&self, at: Instant) -> u64 {
        u64::try_from(at.saturating_duration_since(self.origin).as_nanos()).unwrap_or(u64::MAX)
    }

    /// Opens a span nested in the innermost open one.
    pub fn begin(&mut self, name: &'static str, request: u64) -> usize {
        let start_ns = self.now_ns(Instant::now());
        let id = self.spans.len();
        self.spans.push(Span {
            name,
            start_ns,
            end_ns: start_ns,
            parent: self.open.last().copied(),
            request,
        });
        self.open.push(id);
        id
    }

    /// Closes the innermost open span, which must be `id`.
    pub fn end(&mut self, id: usize) {
        let end_ns = self.now_ns(Instant::now());
        let popped = self.open.pop();
        assert_eq!(popped, Some(id), "spans must close innermost first");
        self.spans[id].end_ns = end_ns;
    }

    /// Runs `f` inside a span.
    pub fn span<T>(
        &mut self,
        name: &'static str,
        request: u64,
        f: impl FnOnce(&mut Self) -> T,
    ) -> T {
        let id = self.begin(name, request);
        let out = f(self);
        self.end(id);
        out
    }

    /// Records an already-timed interval as a span under the innermost
    /// open one (used for wire requests timed by the load generator).
    pub fn record(
        &mut self,
        name: &'static str,
        request: u64,
        start: Instant,
        end: Instant,
    ) -> usize {
        let id = self.spans.len();
        self.spans.push(Span {
            name,
            start_ns: self.now_ns(start),
            end_ns: self.now_ns(end),
            parent: self.open.last().copied(),
            request,
        });
        id
    }

    /// Every recorded span.
    pub fn spans(&self) -> &[Span] {
        &self.spans
    }

    /// Self time of every span: its wall time minus the part its
    /// children cover.
    pub fn self_times_ns(&self) -> Vec<u64> {
        let mut child = vec![0u64; self.spans.len()];
        for s in &self.spans {
            if let Some(p) = s.parent {
                child[p] += s.dur_ns();
            }
        }
        self.spans
            .iter()
            .zip(child)
            .map(|(s, c)| s.dur_ns().saturating_sub(c))
            .collect()
    }

    /// Σ self time of the spans named `name` whose root ancestor is
    /// one of `roots`.
    pub fn self_ns_under(&self, name: &str, roots: &[usize]) -> u64 {
        let selfs = self.self_times_ns();
        self.spans
            .iter()
            .enumerate()
            .filter(|(i, s)| s.name == name && roots.contains(&self.root_of(*i)))
            .map(|(i, _)| selfs[i])
            .sum()
    }

    /// The outermost ancestor of span `i`.
    pub fn root_of(&self, mut i: usize) -> usize {
        while let Some(p) = self.spans[i].parent {
            i = p;
        }
        i
    }

    /// Writes every span as one Chrome-trace JSON file (`chrome://tracing`,
    /// Perfetto): complete events in µs, with the parent span and the
    /// request id in `args`.
    pub fn write_chrome(&self, path: &Path) -> std::io::Result<()> {
        let mut out = std::io::BufWriter::new(std::fs::File::create(path)?);
        out.write_all(b"{\"traceEvents\":[\n")?;
        for (i, s) in self.spans.iter().enumerate() {
            let parent = s.parent.map_or(-1, |p| p as i64);
            writeln!(
                out,
                "{}{{\"name\":\"{}\",\"cat\":\"{}\",\"ph\":\"X\",\"ts\":{:.3},\"dur\":{:.3},\
                 \"pid\":1,\"tid\":1,\"args\":{{\"id\":{i},\"parent\":{parent},\"request\":{}}}}}",
                if i == 0 { "" } else { "," },
                s.name,
                s.name.split('.').next().unwrap_or(s.name),
                s.start_ns as f64 / 1e3,
                s.dur_ns() as f64 / 1e3,
                s.request
            )?;
        }
        out.write_all(b"]}\n")?;
        out.flush()
    }
}

/// One request as the load generator saw it: when it was due, when it
/// was written, and when its response arrived.
#[derive(Clone, Copy, Debug)]
pub struct WireSample {
    /// Span name of the request kind.
    pub name: &'static str,
    /// Request id (the release seed in closed loops, the frame request
    /// id in the open loop).
    pub request: u64,
    /// When the request was due to be sent.
    pub due: Instant,
    /// When it was written.
    pub sent: Instant,
    /// When its response was read.
    pub done: Instant,
}

impl WireSample {
    /// A closed-loop request: due when sent.
    pub fn closed(name: &'static str, request: u64, sent: Instant, took: Duration) -> Self {
        Self {
            name,
            request,
            due: sent,
            sent,
            done: sent + took,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn self_time_excludes_children() {
        let mut t = Tracer::new();
        let root = t.begin("release", 7);
        t.span("hcc-noise.noise", 7, |_| {
            std::thread::sleep(Duration::from_millis(2))
        });
        t.end(root);
        let selfs = t.self_times_ns();
        assert_eq!(t.spans()[1].parent, Some(0));
        assert_eq!(selfs[0] + selfs[1], t.spans()[0].dur_ns());
        assert_eq!(t.self_ns_under("hcc-noise.noise", &[root]), selfs[1]);
    }
}
