//! In-memory span recorder for traced runs: host-time spans at each layer
//! boundary the benchmark calls into, tagged with their iteration id and
//! parent, written out once as a Chrome trace when the run ends.

use std::fmt::Write as _;
use std::path::Path;
use std::time::{Duration, Instant};

/// One recorded span.
#[derive(Debug, Clone)]
struct Span {
    iteration: usize,
    name: String,
    parent: Option<usize>,
    start: Duration,
    end: Duration,
}

/// Spans of a whole run, relative to the recorder's creation.
#[derive(Debug)]
pub struct Spans {
    origin: Instant,
    spans: Vec<Span>,
}

/// Handle of an open span.
#[derive(Debug, Clone, Copy)]
pub struct SpanId(usize);

impl Spans {
    pub fn new() -> Self {
        Self {
            origin: Instant::now(),
            spans: Vec::new(),
        }
    }

    /// Opens a span now.
    pub fn open(&mut self, iteration: usize, name: &str, parent: Option<SpanId>) -> SpanId {
        let now = self.origin.elapsed();
        self.spans.push(Span {
            iteration,
            name: name.to_owned(),
            parent: parent.map(|p| p.0),
            start: now,
            end: now,
        });
        SpanId(self.spans.len() - 1)
    }

    /// Closes a span now, returning its duration.
    pub fn close(&mut self, id: SpanId) -> Duration {
        let span = &mut self.spans[id.0];
        span.end = self.origin.elapsed();
        span.end - span.start
    }

    /// Records a span timed elsewhere (a worker thread).
    pub fn record(
        &mut self,
        iteration: usize,
        name: &str,
        parent: Option<SpanId>,
        start: Instant,
        end: Instant,
    ) {
        self.spans.push(Span {
            iteration,
            name: name.to_owned(),
            parent: parent.map(|p| p.0),
            start: start.saturating_duration_since(self.origin),
            end: end.saturating_duration_since(self.origin),
        });
    }

    /// Writes every span as Chrome trace-event JSON (`X` events, one
    /// thread per iteration, parent named in `args`).
    pub fn write_chrome(&self, path: &Path) -> std::io::Result<()> {
        let mut out = String::from("{\"traceEvents\":[\n");
        for (i, s) in self.spans.iter().enumerate() {
            if i > 0 {
                out.push_str(",\n");
            }
            let parent = s
                .parent
                .map_or_else(String::new, |p| escape(&self.spans[p].name));
            let _ = write!(
                out,
                "{{\"name\":\"{}\",\"ph\":\"X\",\"pid\":1,\"tid\":{},\"ts\":{:.3},\"dur\":{:.3},\
                 \"args\":{{\"iteration\":{},\"parent\":\"{parent}\"}}}}",
                escape(&s.name),
                s.iteration,
                s.start.as_secs_f64() * 1e6,
                (s.end - s.start).as_secs_f64() * 1e6,
                s.iteration
            );
        }
        out.push_str("\n]}\n");
        if let Some(dir) = path.parent() {
            std::fs::create_dir_all(dir)?;
        }
        std::fs::write(path, out)
    }
}

fn escape(s: &str) -> String {
    s.replace('\\', "\\\\").replace('"', "\\\"")
}
