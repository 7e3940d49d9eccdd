//! The benchmark's own span recorder.
//!
//! Spans are taken around calls into each layer's public functions, kept in
//! memory while the run measures, and written out as JSON lines when it
//! ends. A span's self time is its duration minus that of its children.

use std::io::Write;
use std::path::Path;
use std::time::Instant;

use chambolle_telemetry::json::JsonValue;

/// Index of a span in its [`Recorder`].
pub type SpanId = usize;

/// One recorded interval.
#[derive(Debug, Clone)]
pub struct Span {
    /// Layer call the span covers, e.g. `tvl1.pyramid`.
    pub name: &'static str,
    /// Enclosing span, if any.
    pub parent: Option<SpanId>,
    /// Start, in ns since the recorder was created.
    pub start_ns: u64,
    /// End, in ns since the recorder was created (equal to `start_ns` while
    /// the span is open).
    pub end_ns: u64,
}

impl Span {
    /// Duration in milliseconds.
    pub fn ms(&self) -> f64 {
        (self.end_ns - self.start_ns) as f64 / 1e6
    }
}

/// In-memory span store.
#[derive(Debug)]
pub struct Recorder {
    epoch: Instant,
    spans: Vec<Span>,
}

impl Recorder {
    /// An empty recorder whose clock starts now.
    pub fn new() -> Self {
        Recorder {
            epoch: Instant::now(),
            spans: Vec::new(),
        }
    }

    fn now_ns(&self) -> u64 {
        self.epoch.elapsed().as_nanos() as u64
    }

    /// Opens a span now; close it with [`Recorder::close`].
    pub fn open(&mut self, name: &'static str, parent: Option<SpanId>) -> SpanId {
        let now = self.now_ns();
        self.spans.push(Span {
            name,
            parent,
            start_ns: now,
            end_ns: now,
        });
        self.spans.len() - 1
    }

    /// Closes span `id` now and returns its duration in milliseconds.
    pub fn close(&mut self, id: SpanId) -> f64 {
        let now = self.now_ns();
        let span = &mut self.spans[id];
        span.end_ns = now;
        span.ms()
    }

    /// Runs `f` inside a span named `name`, returning its result.
    pub fn time<T>(
        &mut self,
        name: &'static str,
        parent: Option<SpanId>,
        f: impl FnOnce() -> T,
    ) -> T {
        let id = self.open(name, parent);
        let out = f();
        self.close(id);
        out
    }

    /// Records an interval measured elsewhere.
    pub fn record(
        &mut self,
        name: &'static str,
        parent: Option<SpanId>,
        start: Instant,
        end: Instant,
    ) -> SpanId {
        let at = |t: Instant| t.saturating_duration_since(self.epoch).as_nanos() as u64;
        let (start_ns, end_ns) = (at(start), at(end).max(at(start)));
        self.spans.push(Span {
            name,
            parent,
            start_ns,
            end_ns,
        });
        self.spans.len() - 1
    }

    /// All spans, in opening order.
    pub fn spans(&self) -> &[Span] {
        &self.spans
    }

    /// Duration of span `id` minus the durations of its direct children.
    pub fn self_ms(&self, id: SpanId) -> f64 {
        let children: f64 = self
            .spans
            .iter()
            .filter(|s| s.parent == Some(id))
            .map(Span::ms)
            .sum();
        self.spans[id].ms() - children
    }

    /// Writes every span as one JSON object per line.
    pub fn write_jsonl(&self, path: &Path) -> std::io::Result<()> {
        if let Some(dir) = path.parent() {
            std::fs::create_dir_all(dir)?;
        }
        let mut out = std::io::BufWriter::new(std::fs::File::create(path)?);
        for (id, s) in self.spans.iter().enumerate() {
            let line = JsonValue::Object(vec![
                ("id".into(), id.into()),
                (
                    "parent".into(),
                    s.parent.map_or(JsonValue::Null, JsonValue::from),
                ),
                ("name".into(), s.name.into()),
                ("start_ns".into(), s.start_ns.into()),
                ("end_ns".into(), s.end_ns.into()),
            ]);
            writeln!(out, "{}", line.to_string())?;
        }
        out.flush()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::time::Duration;

    #[test]
    fn self_time_excludes_children() {
        let mut rec = Recorder::new();
        let base = Instant::now();
        let ms = |n: u64| base + Duration::from_millis(n);
        let root = rec.record("flow", None, ms(0), ms(10));
        rec.record("pyramid", Some(root), ms(0), ms(2));
        rec.record("inner", Some(root), ms(3), ms(9));
        assert!((rec.self_ms(root) - 2.0).abs() < 1e-9);
        assert_eq!(rec.spans().len(), 3);
    }
}
