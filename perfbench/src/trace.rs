//! In-memory span recorder for the traced run.
//!
//! Spans are recorded by the benchmark around its calls into each layer
//! of the program: a name, start and end (nanoseconds since the tracer
//! was made), the enclosing span and a request id.
//! Nothing is written until the run ends. A disabled tracer still times
//! every call (the end-to-end metrics need the durations) but records
//! nothing, so the untraced run pays only the clock reads.

use std::collections::BTreeMap;
use std::io::Write;
use std::path::Path;
use std::time::Instant;

/// One recorded span.
#[derive(Debug, Clone)]
pub struct Span {
    pub name: &'static str,
    pub start_ns: u64,
    pub end_ns: u64,
    /// Index of the enclosing span in the same tracer.
    pub parent: Option<usize>,
    pub request: u64,
}

/// A handle on an open span (or on nothing, when tracing is off).
#[must_use]
pub struct Open {
    index: Option<usize>,
    started: Instant,
}

#[derive(Debug)]
pub struct Tracer {
    on: bool,
    origin: Instant,
    spans: Vec<Span>,
    stack: Vec<usize>,
}

impl Tracer {
    pub fn new(on: bool) -> Self {
        Self {
            on,
            origin: Instant::now(),
            spans: Vec::new(),
            stack: Vec::new(),
        }
    }

    pub fn enabled(&self) -> bool {
        self.on
    }

    pub fn set_enabled(&mut self, on: bool) {
        self.on = on;
    }

    fn ns(&self, t: Instant) -> u64 {
        t.duration_since(self.origin).as_nanos() as u64
    }

    /// Opens a span; spans opened before it is closed become its children.
    pub fn begin(&mut self, name: &'static str, request: u64) -> Open {
        let started = Instant::now();
        if !self.on {
            return Open {
                index: None,
                started,
            };
        }
        let index = self.spans.len();
        self.spans.push(Span {
            name,
            start_ns: self.ns(started),
            end_ns: 0,
            parent: self.stack.last().copied(),
            request,
        });
        self.stack.push(index);
        Open {
            index: Some(index),
            started,
        }
    }

    /// Closes a span and returns its duration in seconds.
    pub fn end(&mut self, open: Open) -> f64 {
        let now = Instant::now();
        if let Some(i) = open.index {
            self.spans[i].end_ns = self.ns(now);
            let top = self.stack.pop();
            debug_assert_eq!(top, Some(i), "spans close in reverse order");
        }
        now.duration_since(open.started).as_secs_f64()
    }

    /// Times `f` as one span with no children and returns its result and
    /// its duration in seconds.
    pub fn time<T>(&mut self, name: &'static str, request: u64, f: impl FnOnce() -> T) -> (T, f64) {
        let open = self.begin(name, request);
        let out = std::hint::black_box(f());
        let dt = self.end(open);
        (out, dt)
    }

    pub fn span_count(&self) -> usize {
        self.spans.len()
    }

    /// Per span name: (count, total seconds, self seconds), where self
    /// time is each span's duration minus that of its direct children.
    pub fn self_times(&self) -> BTreeMap<&'static str, (u64, f64, f64)> {
        let mut child_ns = vec![0u64; self.spans.len()];
        for s in &self.spans {
            if let Some(p) = s.parent {
                child_ns[p] += s.end_ns.saturating_sub(s.start_ns);
            }
        }
        let mut table: BTreeMap<&'static str, (u64, f64, f64)> = BTreeMap::new();
        for (s, &kids) in self.spans.iter().zip(&child_ns) {
            let dur = s.end_ns.saturating_sub(s.start_ns);
            let row = table.entry(s.name).or_default();
            row.0 += 1;
            row.1 += dur as f64 * 1e-9;
            row.2 += dur.saturating_sub(kids) as f64 * 1e-9;
        }
        table
    }

    /// The per-layer self-time table, one line per span name.
    pub fn render_table(&self) -> String {
        let table = self.self_times();
        let mut out = format!(
            "{:<28} {:>9} {:>12} {:>12}\n",
            "span", "count", "total_ms", "self_ms"
        );
        for (name, (count, total, own)) in table {
            out += &format!(
                "{name:<28} {count:>9} {:>12.3} {:>12.3}\n",
                total * 1e3,
                own * 1e3
            );
        }
        out
    }

    /// Writes every span as one JSON object per line.
    pub fn write_jsonl(&self, path: &Path) -> std::io::Result<()> {
        if let Some(dir) = path.parent() {
            std::fs::create_dir_all(dir)?;
        }
        let mut w = std::io::BufWriter::new(std::fs::File::create(path)?);
        for (i, s) in self.spans.iter().enumerate() {
            let parent = s.parent.map_or("null".to_string(), |p| p.to_string());
            writeln!(
                w,
                "{{\"id\":{i},\"name\":\"{}\",\"start_ns\":{},\"end_ns\":{},\"parent\":{parent},\"request\":{}}}",
                s.name, s.start_ns, s.end_ns, s.request
            )?;
        }
        w.flush()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn self_time_subtracts_direct_children() {
        let mut tr = Tracer::new(true);
        let outer = tr.begin("outer", 1);
        let (_, inner) = tr.time("inner", 1, || {
            std::thread::sleep(std::time::Duration::from_millis(5))
        });
        let total = tr.end(outer);
        let table = tr.self_times();
        let (_, outer_total, outer_self) = table["outer"];
        assert!(inner >= 0.005 && total >= inner);
        assert!((outer_total - outer_self - table["inner"].1).abs() < 1e-6);
    }

    #[test]
    fn a_disabled_tracer_times_but_records_nothing() {
        let mut tr = Tracer::new(false);
        let (_, dt) = tr.time("x", 0, || 1 + 1);
        assert!(dt >= 0.0);
        assert_eq!(tr.span_count(), 0);
    }
}
