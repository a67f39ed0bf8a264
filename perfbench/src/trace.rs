//! In-memory spans around the benchmark's calls into each layer.
//!
//! A span has a name, a start, an end, the span that was open when it
//! started, the workload operation it belongs to (a push or an append;
//! 0 for set-up) and a request id. Spans may carry counts. Spans stay in
//! memory until [`Tracer::write_jsonl`] writes them at exit. With tracing
//! off every call is a no-op, so one code path serves both runs.

use std::cell::{Cell, RefCell};
use std::io::Write as _;
use std::path::Path;
use std::time::Instant;

#[derive(Debug, Clone)]
pub struct Span {
    pub name: &'static str,
    /// Seconds since the tracer was created.
    pub start: f64,
    pub end: f64,
    pub parent: Option<usize>,
    pub op: u64,
    pub request: u64,
    pub counts: Vec<(&'static str, u64)>,
}

impl Span {
    pub fn seconds(&self) -> f64 {
        self.end - self.start
    }

    pub fn count(&self, key: &str) -> u64 {
        self.counts
            .iter()
            .filter(|(k, _)| *k == key)
            .map(|(_, v)| v)
            .sum()
    }
}

pub struct Tracer {
    enabled: bool,
    active: Cell<bool>,
    origin: Instant,
    spans: RefCell<Vec<Span>>,
    open: RefCell<Vec<usize>>,
    op: Cell<u64>,
    request: Cell<u64>,
}

/// Closes its span when dropped.
pub struct Guard<'a> {
    tracer: &'a Tracer,
    index: Option<usize>,
}

impl Guard<'_> {
    /// Adds `value` to the span's count `key`.
    pub fn count(&self, key: &'static str, value: u64) {
        if let Some(index) = self.index {
            self.tracer.spans.borrow_mut()[index]
                .counts
                .push((key, value));
        }
    }
}

impl Drop for Guard<'_> {
    fn drop(&mut self) {
        if let Some(index) = self.index {
            let end = self.tracer.origin.elapsed().as_secs_f64();
            self.tracer.spans.borrow_mut()[index].end = end;
            let mut open = self.tracer.open.borrow_mut();
            if let Some(pos) = open.iter().rposition(|&i| i == index) {
                open.remove(pos);
            }
        }
    }
}

impl Tracer {
    pub fn new(enabled: bool) -> Tracer {
        Tracer {
            enabled,
            active: Cell::new(true),
            origin: Instant::now(),
            spans: RefCell::new(Vec::new()),
            open: RefCell::new(Vec::new()),
            op: Cell::new(0),
            request: Cell::new(0),
        }
    }

    pub fn enabled(&self) -> bool {
        self.enabled
    }

    /// Whether a span opened now would be recorded.
    pub fn recording(&self) -> bool {
        self.enabled && self.active.get()
    }

    /// Sets the operation and request that new spans belong to.
    pub fn set_context(&self, op: u64, request: u64) {
        self.op.set(op);
        self.request.set(request);
    }

    pub fn span(&self, name: &'static str) -> Guard<'_> {
        if !self.enabled || !self.active.get() {
            return Guard {
                tracer: self,
                index: None,
            };
        }
        let start = self.origin.elapsed().as_secs_f64();
        let mut spans = self.spans.borrow_mut();
        let index = spans.len();
        spans.push(Span {
            name,
            start,
            end: start,
            parent: self.open.borrow().last().copied(),
            op: self.op.get(),
            request: self.request.get(),
            counts: Vec::new(),
        });
        self.open.borrow_mut().push(index);
        Guard {
            tracer: self,
            index: Some(index),
        }
    }

    /// Runs `f` inside a span named `name`.
    pub fn time<T>(&self, name: &'static str, f: impl FnOnce() -> T) -> T {
        let _span = self.span(name);
        f()
    }

    pub fn spans(&self) -> std::cell::Ref<'_, Vec<Span>> {
        self.spans.borrow()
    }

    /// Suspends or resumes recording (a suspended tracer opens no spans).
    pub fn set_active(&self, active: bool) {
        self.active.set(active);
    }

    /// Each span's seconds not covered by its direct children, by index.
    pub fn self_seconds(&self) -> Vec<f64> {
        let spans = self.spans.borrow();
        let mut own: Vec<f64> = spans.iter().map(Span::seconds).collect();
        for span in spans.iter() {
            if let Some(parent) = span.parent {
                own[parent] -= span.seconds();
            }
        }
        own
    }

    /// Writes `header`, then one JSON object per span with its self time.
    pub fn write_jsonl(&self, path: &Path, header: &str) -> Result<(), String> {
        let own = self.self_seconds();
        let spans = self.spans.borrow();
        let mut out = String::new();
        out.push_str(header);
        out.push('\n');
        for (i, span) in spans.iter().enumerate() {
            let parent = span.parent.map_or("null".to_string(), |p| p.to_string());
            let counts: Vec<String> = span
                .counts
                .iter()
                .map(|(k, v)| format!("\"{k}\": {v}"))
                .collect();
            out.push_str(&format!(
                "{{\"id\": {i}, \"name\": \"{}\", \"start_s\": {}, \"end_s\": {}, \"self_s\": {}, \"parent\": {parent}, \"op\": {}, \"request\": {}, \"counts\": {{{}}}}}\n",
                span.name,
                span.start,
                span.end,
                own[i],
                span.op,
                span.request,
                counts.join(", ")
            ));
        }
        if let Some(dir) = path.parent() {
            std::fs::create_dir_all(dir).map_err(|e| format!("cannot create trace dir: {e}"))?;
        }
        let mut file =
            std::fs::File::create(path).map_err(|e| format!("cannot create trace file: {e}"))?;
        file.write_all(out.as_bytes())
            .map_err(|e| format!("cannot write trace file: {e}"))
    }
}
