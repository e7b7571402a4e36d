//! The traced mode: spans recorded by the benchmark's own code around
//! each call into a layer, kept in memory and written as JSONL at exit.
//!
//! A span has a name, a start and end (nanoseconds since the tracer was
//! created), the id of the span that caused it, and optionally a request
//! id (every span of one serve request carries the same one), an item
//! (the unit or program it concerns) and numeric attributes. A layer's
//! self time is its span's duration minus what its children cover.
//!
//! Spans named after a cure stage (`ast.parse`, `cil.lower`,
//! `infer.infer`, `core.instrument`, `analysis.optimize`) are laid end to
//! end inside their `core.cure_source` span from the `StageTimings` the
//! cure returns; they carry the attribute `derived = 1`.

use crate::json;
use std::io::{self, Write};
use std::path::{Path, PathBuf};
use std::time::Instant;

/// Directory, relative to the working directory, for trace files.
pub const DIR: &str = ".perfbench-traces";

/// Where a traced run of `workload` with `seed` writes its spans.
pub fn default_path(workload: &str, seed: u64) -> PathBuf {
    Path::new(DIR).join(format!(
        "{workload}-seed{seed}-{}.jsonl",
        std::process::id()
    ))
}

/// Identifies a span; `0` is "no span" (the root's parent, and every id
/// a disabled tracer hands out).
pub type SpanId = u32;

/// Optional span fields.
#[derive(Debug, Clone, Default)]
pub struct Fields {
    /// Serve request id shared by every span of that request.
    pub req: Option<u64>,
    /// The unit or program the span concerns.
    pub item: Option<String>,
    /// Numeric attributes (counts, sizes, waits).
    pub attrs: Vec<(&'static str, f64)>,
}

impl Fields {
    /// Fields naming an item.
    pub fn item(name: &str) -> Fields {
        Fields {
            item: Some(name.to_string()),
            ..Fields::default()
        }
    }

    /// Fields carrying a request id.
    pub fn req(id: u64) -> Fields {
        Fields {
            req: Some(id),
            ..Fields::default()
        }
    }

    /// Adds a numeric attribute.
    pub fn with(mut self, key: &'static str, value: f64) -> Fields {
        self.attrs.push((key, value));
        self
    }
}

#[derive(Debug, Clone)]
struct Span {
    id: SpanId,
    parent: SpanId,
    name: &'static str,
    start_ns: u64,
    end_ns: u64,
    fields: Fields,
}

/// In-memory span recorder; a disabled tracer records nothing.
#[derive(Debug)]
pub struct Tracer {
    enabled: bool,
    origin: Instant,
    next: SpanId,
    spans: Vec<Span>,
}

impl Tracer {
    /// A tracer; `enabled = false` makes every call a no-op.
    pub fn new(enabled: bool) -> Tracer {
        Tracer {
            enabled,
            origin: Instant::now(),
            next: 1,
            spans: Vec::new(),
        }
    }

    /// Whether spans are being recorded.
    pub fn enabled(&self) -> bool {
        self.enabled
    }

    /// Spans recorded so far.
    pub fn len(&self) -> usize {
        self.spans.len()
    }

    /// Reserves an id for a span that will be recorded after its children.
    pub fn reserve(&mut self) -> SpanId {
        if !self.enabled {
            return 0;
        }
        let id = self.next;
        self.next += 1;
        id
    }

    fn ns(&self, t: Instant) -> u64 {
        t.saturating_duration_since(self.origin).as_nanos() as u64
    }

    /// Records span `id` (from [`Tracer::reserve`]).
    pub fn record(
        &mut self,
        id: SpanId,
        parent: SpanId,
        name: &'static str,
        start: Instant,
        end: Instant,
        fields: Fields,
    ) {
        if !self.enabled {
            return;
        }
        let (start_ns, end_ns) = (self.ns(start), self.ns(end));
        self.spans.push(Span {
            id,
            parent,
            name,
            start_ns,
            end_ns,
            fields,
        });
    }

    /// Reserves an id and records a leaf span in one step; returns the id.
    pub fn leaf(
        &mut self,
        parent: SpanId,
        name: &'static str,
        start: Instant,
        end: Instant,
        fields: Fields,
    ) -> SpanId {
        let id = self.reserve();
        self.record(id, parent, name, start, end, fields);
        id
    }

    /// Lays the five cure stages end to end from `start` as children of
    /// `parent`, one derived span per stage.
    pub fn stages(&mut self, parent: SpanId, start: Instant, t: &ccured::StageTimings) {
        if !self.enabled {
            return;
        }
        let mut at = start;
        for (name, d) in [
            ("ast.parse", t.parse),
            ("cil.lower", t.lower),
            ("infer.infer", t.infer),
            ("core.instrument", t.instrument),
            ("analysis.optimize", t.optimize),
        ] {
            let end = at + d;
            self.leaf(
                parent,
                name,
                at,
                end,
                Fields::default().with("derived", 1.0),
            );
            at = end;
        }
    }

    /// Writes every span as one JSON object per line, creating the
    /// file's directory.
    ///
    /// # Errors
    ///
    /// I/O errors creating or writing the file.
    pub fn write_jsonl(&self, path: &Path) -> io::Result<()> {
        if let Some(dir) = path.parent() {
            std::fs::create_dir_all(dir)?;
        }
        let mut w = io::BufWriter::new(std::fs::File::create(path)?);
        for s in &self.spans {
            write!(
                w,
                "{{\"id\":{},\"parent\":{},\"name\":{},\"start_ns\":{},\"end_ns\":{}",
                s.id,
                s.parent,
                json::quote(s.name),
                s.start_ns,
                s.end_ns
            )?;
            if let Some(r) = s.fields.req {
                write!(w, ",\"req\":{r}")?;
            }
            if let Some(item) = &s.fields.item {
                write!(w, ",\"item\":{}", json::quote(item))?;
            }
            for (k, v) in &s.fields.attrs {
                write!(w, ",{}:{}", json::quote(k), json::number(*v))?;
            }
            writeln!(w, "}}")?;
        }
        w.flush()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::json::Json;
    use std::time::Duration;

    #[test]
    fn disabled_tracer_records_nothing() {
        let mut t = Tracer::new(false);
        let now = Instant::now();
        assert_eq!(t.leaf(0, "x", now, now, Fields::default()), 0);
        assert_eq!(t.len(), 0);
    }

    #[test]
    fn spans_round_trip_as_jsonl_with_parents_and_request_ids() {
        let mut t = Tracer::new(true);
        let a = Instant::now();
        let b = a + Duration::from_micros(50);
        let parent = t.reserve();
        let child = t.leaf(parent, "batch.serve.request", a, b, Fields::req(7));
        t.record(
            parent,
            0,
            "serve.op",
            a,
            b,
            Fields::req(7).with("worker_ns", 12.0),
        );
        t.stages(parent, a, &ccured::StageTimings::default());
        assert_eq!(t.len(), 7);

        let dir = crate::scratch::Scratch::create(Path::new(crate::scratch::ROOT)).unwrap();
        let path = dir.path().join("t.jsonl");
        t.write_jsonl(&path).unwrap();
        let text = std::fs::read_to_string(&path).unwrap();
        let lines: Vec<Json> = text.lines().map(|l| Json::parse(l).unwrap()).collect();
        assert_eq!(lines.len(), 7);
        let first = &lines[0];
        assert_eq!(
            first.get("id").and_then(Json::as_f64),
            Some(f64::from(child))
        );
        assert_eq!(
            first.get("parent").and_then(Json::as_f64),
            Some(f64::from(parent))
        );
        assert_eq!(first.get("req").and_then(Json::as_f64), Some(7.0));
        assert_eq!(lines[1].get("req").and_then(Json::as_f64), Some(7.0));
        assert_eq!(lines[1].get("worker_ns").and_then(Json::as_f64), Some(12.0));
        assert_eq!(
            lines[2].get("name").and_then(Json::as_str),
            Some("ast.parse")
        );
        dir.remove().unwrap();
    }
}
