//! Pipeline-wide self-instrumentation for Benchpark, in the spirit of
//! Caliper/Adiak annotations the paper's experiments rely on — except turned
//! inward, on the benchmarking pipeline itself.
//!
//! Three primitives:
//!
//! * **Spans** — hierarchical timed regions (`pipeline.setup` →
//!   `workspace.setup` → `environment` → `concretize` / `install` → …).
//!   Every span records *real* wall-clock duration; phases that simulate
//!   time (the installer's makespan, the cluster scheduler) may additionally
//!   attach a *virtual* duration.
//! * **Counters** — monotonically increasing named totals
//!   (`concretizer.solves`, `cache.hit`, `ci.jobs.success`, …).
//! * **Observations** — point samples aggregated into count/sum/min/max/last
//!   (`scheduler.queue_depth`, `install.worker_utilization`, …).
//! * **Histograms** — latency distributions over deterministic
//!   power-of-two buckets ([`TelemetrySink::record_hist`]): bucket `i`
//!   counts samples `<= 2^i` ticks, so two runs that record the same
//!   virtual-time values build byte-identical distributions regardless of
//!   worker count. Mergeable, with rank-based quantile estimates
//!   ([`HistogramStats::quantile`]).
//!
//! Every event is also appended to a structured journal, so a report can
//! replay the exact instrumentation sequence. (Histogram samples are the
//! one exception: they aggregate in place without a journal entry, so a
//! million-sample latency distribution does not swamp the journal.) The
//! whole subsystem is reached
//! through a [`TelemetrySink`] handle: a disabled sink (the default
//! everywhere) is a `None` and costs one branch per call site. A
//! long-lived recorder ([`TelemetrySink::aggregating`], the serve daemon's)
//! keeps the totals only: no spans and no journal, so its memory and its
//! [`TelemetrySink::report`] cost stay flat however many events it sees.

use std::collections::{BTreeMap, BTreeSet};
use std::fmt::Write as _;
use std::sync::{Arc, Mutex};
use std::time::Instant;

/// A cheap-to-clone handle to a telemetry recorder, or a no-op.
///
/// All pipeline components accept a sink and default to [`TelemetrySink::noop`],
/// so instrumentation is zero-cost unless a recording sink is plumbed in
/// (e.g. by `benchpark trace`).
#[derive(Clone, Default)]
pub struct TelemetrySink(Option<Arc<Recorder>>);

impl std::fmt::Debug for TelemetrySink {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_tuple("TelemetrySink")
            .field(&match &self.0 {
                Some(recorder) if recorder.journal => "recording",
                Some(_) => "aggregating",
                None => "noop",
            })
            .finish()
    }
}

impl TelemetrySink {
    /// The disabled sink: every call is a no-op.
    pub fn noop() -> TelemetrySink {
        TelemetrySink(None)
    }

    /// A live sink backed by a fresh recorder.
    pub fn recording() -> TelemetrySink {
        TelemetrySink(Some(Arc::new(Recorder::new(true))))
    }

    /// A live sink for a long-lived recorder: counters, observations and
    /// histograms update their totals exactly as on a [`recording`] sink,
    /// but spans are no-ops and nothing is journaled, so the report carries
    /// aggregates only and costs the same at any age.
    ///
    /// [`recording`]: TelemetrySink::recording
    pub fn aggregating() -> TelemetrySink {
        TelemetrySink(Some(Arc::new(Recorder::new(false))))
    }

    /// Whether events are being recorded.
    pub fn is_enabled(&self) -> bool {
        self.0.is_some()
    }

    /// Opens a span; it closes (and records its real duration) when the
    /// returned guard drops. Nested `span` calls on clones of the same sink
    /// form the hierarchy.
    pub fn span(&self, name: &str) -> SpanGuard {
        let Some(recorder) = self.0.as_ref().filter(|r| r.journal) else {
            return SpanGuard {
                recorder: None,
                index: 0,
            };
        };
        let index = recorder.start_span(name);
        SpanGuard {
            recorder: Some(Arc::clone(recorder)),
            index,
        }
    }

    /// Adds `delta` to the named counter.
    pub fn incr(&self, name: &str, delta: u64) {
        if let Some(recorder) = &self.0 {
            recorder.incr(name, delta);
        }
    }

    /// Records one sample of a named quantity.
    pub fn observe(&self, name: &str, value: f64) {
        if let Some(recorder) = &self.0 {
            recorder.observe(name, value, false);
        }
    }

    /// Records one sample of a *volatile* quantity — one whose value depends
    /// on wall clock or worker count (e.g. a parallel makespan or a
    /// utilization ratio). Volatile streams are aggregated and journaled like
    /// ordinary observations, but are flagged in the report so deterministic
    /// consumers (canonical trace exports, the run ledger) can exclude them.
    pub fn observe_volatile(&self, name: &str, value: f64) {
        if let Some(recorder) = &self.0 {
            recorder.observe(name, value, true);
        }
    }

    /// Records one sample into the named log-bucketed histogram. Values are
    /// virtual-time ticks (or any deterministic non-negative quantity);
    /// bucket boundaries are fixed powers of two, so the resulting
    /// distribution is byte-identical across runs that observe the same
    /// values, whatever order they arrive in.
    pub fn record_hist(&self, name: &str, value: u64) {
        if let Some(recorder) = &self.0 {
            recorder.record_hist(name, value);
        }
    }

    /// A snapshot of everything recorded so far (`None` for a no-op sink).
    /// An aggregating sink's report has no spans and an empty journal.
    pub fn report(&self) -> Option<TelemetryReport> {
        self.0.as_ref().map(|r| r.snapshot())
    }
}

/// RAII guard for an open span; ends the span when dropped.
pub struct SpanGuard {
    recorder: Option<Arc<Recorder>>,
    index: usize,
}

impl SpanGuard {
    /// Attaches a simulated-time duration to this span (e.g. the installer's
    /// virtual makespan), alongside the real wall-clock time measured on drop.
    pub fn set_virtual(&self, seconds: f64) {
        if let Some(recorder) = &self.recorder {
            recorder.set_virtual(self.index, seconds, false);
        }
    }

    /// Like [`SpanGuard::set_virtual`], but marks the duration as *volatile*:
    /// its value depends on the worker count (e.g. a parallel schedule's
    /// makespan), so canonical exports must not compare it across runs.
    pub fn set_virtual_volatile(&self, seconds: f64) {
        if let Some(recorder) = &self.recorder {
            recorder.set_virtual(self.index, seconds, true);
        }
    }

    /// Attaches a `key=value` attribute to this span (e.g. a task's dispatch
    /// index, its scheduled slot, or a CI job's stage). Attributes surface in
    /// trace exports as Chrome `args`. Setting the same key twice keeps the
    /// last value.
    pub fn set_attr(&self, key: &str, value: impl ToString) {
        if let Some(recorder) = &self.recorder {
            recorder.set_attr(self.index, key, value.to_string(), false);
        }
    }

    /// Like [`SpanGuard::set_attr`], but marks the attribute as *volatile*
    /// (worker-count- or wall-clock-dependent, e.g. a task's planned slot
    /// when the plan width is user-chosen). Volatile attributes appear in
    /// wall-time exports but are excluded from canonical ones.
    pub fn set_attr_volatile(&self, key: &str, value: impl ToString) {
        if let Some(recorder) = &self.recorder {
            recorder.set_attr(self.index, key, value.to_string(), true);
        }
    }
}

impl Drop for SpanGuard {
    fn drop(&mut self) {
        if let Some(recorder) = &self.recorder {
            recorder.end_span(self.index);
        }
    }
}

/// One entry in the append-only journal. `at` is seconds since the recorder
/// was created.
///
/// Names are interned `Arc<str>`s: instrumentation points fire the same few
/// dozen names millions of times, so each append clones a refcount instead
/// of allocating a `String`. `&Event.name` coerces to `&str` wherever one is
/// expected.
#[derive(Debug, Clone, PartialEq)]
pub enum Event {
    SpanStart {
        at: f64,
        name: Arc<str>,
        depth: usize,
    },
    SpanEnd {
        at: f64,
        name: Arc<str>,
        real_seconds: f64,
    },
    Counter {
        at: f64,
        name: Arc<str>,
        delta: u64,
        total: u64,
    },
    Observe {
        at: f64,
        name: Arc<str>,
        value: f64,
    },
}

/// A recorded span, in creation order (preorder of the span tree).
#[derive(Debug, Clone)]
pub struct SpanRecord {
    /// Interned span name (coerces to `&str`).
    pub name: Arc<str>,
    /// Index of the parent span in the arena, or `None` for a root.
    pub parent: Option<usize>,
    /// Depth in the tree: roots are 1.
    pub depth: usize,
    /// Start offset in seconds since the recorder epoch.
    pub started_at: f64,
    /// Real wall-clock duration; `None` while the span is still open.
    pub real_seconds: Option<f64>,
    /// Simulated-time duration, if the phase attached one.
    pub virtual_seconds: Option<f64>,
    /// True when `virtual_seconds` depends on worker count (a parallel
    /// makespan) rather than being a deterministic property of the workload.
    pub virtual_volatile: bool,
    /// Stable `key=value` attributes attached via [`SpanGuard::set_attr`],
    /// in insertion order (last write per key wins).
    pub attrs: Vec<(String, String)>,
    /// Volatile attributes ([`SpanGuard::set_attr_volatile`]): present in
    /// wall-time exports, excluded from canonical ones.
    pub volatile_attrs: Vec<(String, String)>,
}

impl SpanRecord {
    /// Looks up a stable attribute by key.
    pub fn attr(&self, key: &str) -> Option<&str> {
        self.attrs
            .iter()
            .find(|(k, _)| k == key)
            .map(|(_, v)| v.as_str())
    }

    /// Looks up a volatile attribute by key.
    pub fn volatile_attr(&self, key: &str) -> Option<&str> {
        self.volatile_attrs
            .iter()
            .find(|(k, _)| k == key)
            .map(|(_, v)| v.as_str())
    }
}

/// Aggregate statistics for one observation stream.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct ObservationStats {
    pub count: u64,
    pub sum: f64,
    pub min: f64,
    pub max: f64,
    pub last: f64,
}

impl ObservationStats {
    pub fn mean(&self) -> f64 {
        if self.count == 0 {
            0.0
        } else {
            self.sum / self.count as f64
        }
    }
}

/// Number of finite histogram buckets: bucket `i` counts samples
/// `<= 2^i`, for `i` in `0..32`; anything above `2^31` lands in the
/// overflow bucket (Prometheus `+Inf`).
pub const HIST_BUCKET_COUNT: usize = 32;

/// A log-bucketed latency histogram with deterministic power-of-two
/// boundaries. Bucket `i` holds the count of samples `<= 2^i` (exclusive of
/// smaller buckets — counts are per-bucket, not cumulative); samples above
/// `2^31` land in `overflow`. Because the boundaries are fixed and samples
/// are integers, two runs recording the same multiset of values produce
/// identical histograms regardless of arrival order or worker count.
#[derive(Debug, Clone, PartialEq, Eq, Default)]
pub struct HistogramStats {
    /// Per-bucket sample counts; bucket `i` covers `(2^(i-1), 2^i]`
    /// (bucket 0 covers `[0, 1]`).
    pub buckets: [u64; HIST_BUCKET_COUNT],
    /// Samples above the largest finite boundary (`2^31`).
    pub overflow: u64,
    /// Total samples recorded.
    pub count: u64,
    /// Exact sum of all samples (integer, so merge order cannot change it).
    pub sum: u64,
    /// Smallest sample seen (0 when empty).
    pub min: u64,
    /// Largest sample seen (0 when empty).
    pub max: u64,
}

impl HistogramStats {
    /// An empty histogram.
    pub fn new() -> HistogramStats {
        HistogramStats::default()
    }

    /// The finite bucket index for `value`, or `None` for the overflow
    /// bucket: the smallest `i` with `value <= 2^i`.
    pub fn bucket_index(value: u64) -> Option<usize> {
        if value <= 1 {
            return Some(0);
        }
        let index = 64 - (value - 1).leading_zeros() as usize;
        (index < HIST_BUCKET_COUNT).then_some(index)
    }

    /// The inclusive upper boundary of finite bucket `i` (`2^i`).
    pub fn bucket_le(index: usize) -> u64 {
        1u64 << index
    }

    /// Records one sample.
    pub fn record(&mut self, value: u64) {
        match HistogramStats::bucket_index(value) {
            Some(index) => self.buckets[index] += 1,
            None => self.overflow += 1,
        }
        if self.count == 0 {
            self.min = value;
            self.max = value;
        } else {
            self.min = self.min.min(value);
            self.max = self.max.max(value);
        }
        self.count += 1;
        self.sum += value;
    }

    /// Folds another histogram into this one. Buckets are aligned by
    /// construction, so merging is elementwise addition — the basis for
    /// per-tenant → global rollups.
    pub fn merge(&mut self, other: &HistogramStats) {
        if other.count == 0 {
            return;
        }
        for (mine, theirs) in self.buckets.iter_mut().zip(&other.buckets) {
            *mine += theirs;
        }
        self.overflow += other.overflow;
        if self.count == 0 {
            self.min = other.min;
            self.max = other.max;
        } else {
            self.min = self.min.min(other.min);
            self.max = self.max.max(other.max);
        }
        self.count += other.count;
        self.sum += other.sum;
    }

    /// Mean sample value (0 when empty).
    pub fn mean(&self) -> f64 {
        if self.count == 0 {
            0.0
        } else {
            self.sum as f64 / self.count as f64
        }
    }

    /// The estimated `q`-quantile (`0.0..=1.0`): the upper boundary of the
    /// bucket containing the ceil(q·count)-th sample, clamped to the
    /// observed max so a one-value histogram reports that value exactly.
    /// Deterministic — a pure function of the bucket counts.
    pub fn quantile(&self, q: f64) -> u64 {
        if self.count == 0 {
            return 0;
        }
        let rank = ((q * self.count as f64).ceil() as u64).clamp(1, self.count);
        let mut seen = 0u64;
        for (index, bucket) in self.buckets.iter().enumerate() {
            seen += bucket;
            if seen >= rank {
                return HistogramStats::bucket_le(index).min(self.max);
            }
        }
        self.max
    }
}

#[derive(Default)]
struct RecorderState {
    spans: Vec<SpanRecord>,
    /// Indices of currently-open spans, innermost last.
    stack: Vec<usize>,
    counters: BTreeMap<Arc<str>, u64>,
    observations: BTreeMap<Arc<str>, ObservationStats>,
    histograms: BTreeMap<Arc<str>, HistogramStats>,
    /// Names of observation streams that were ever recorded as volatile.
    volatile_observations: BTreeSet<Arc<str>>,
    journal: Vec<Event>,
    /// Intern table: every distinct name seen by this recorder, so the hot
    /// journal/counter/observation paths allocate a name string at most once
    /// per distinct name over the recorder's lifetime.
    names: BTreeSet<Arc<str>>,
}

impl RecorderState {
    fn intern(&mut self, name: &str) -> Arc<str> {
        if let Some(existing) = self.names.get(name) {
            return Arc::clone(existing);
        }
        let interned: Arc<str> = Arc::from(name);
        self.names.insert(Arc::clone(&interned));
        interned
    }
}

/// The shared mutable core behind a live [`TelemetrySink`].
pub struct Recorder {
    epoch: Instant,
    /// Records spans and the event journal; `false` keeps aggregates only
    /// ([`TelemetrySink::aggregating`]).
    journal: bool,
    state: Mutex<RecorderState>,
}

impl Recorder {
    fn new(journal: bool) -> Recorder {
        Recorder {
            epoch: Instant::now(),
            journal,
            state: Mutex::new(RecorderState::default()),
        }
    }

    fn now(&self) -> f64 {
        self.epoch.elapsed().as_secs_f64()
    }

    fn start_span(&self, name: &str) -> usize {
        let at = self.now();
        let mut state = self.state.lock().unwrap();
        let name = state.intern(name);
        let parent = state.stack.last().copied();
        let depth = parent.map(|p| state.spans[p].depth + 1).unwrap_or(1);
        let index = state.spans.len();
        state.spans.push(SpanRecord {
            name: Arc::clone(&name),
            parent,
            depth,
            started_at: at,
            real_seconds: None,
            virtual_seconds: None,
            virtual_volatile: false,
            attrs: Vec::new(),
            volatile_attrs: Vec::new(),
        });
        state.stack.push(index);
        state.journal.push(Event::SpanStart { at, name, depth });
        index
    }

    fn end_span(&self, index: usize) {
        let at = self.now();
        let mut state = self.state.lock().unwrap();
        // Close any spans opened after this one that leaked (guard dropped
        // out of order); normal RAII nesting pops exactly one.
        while let Some(top) = state.stack.pop() {
            let span = &mut state.spans[top];
            let real = at - span.started_at;
            span.real_seconds = Some(real);
            let name = Arc::clone(&span.name);
            state.journal.push(Event::SpanEnd {
                at,
                name,
                real_seconds: real,
            });
            if top == index {
                break;
            }
        }
    }

    fn set_virtual(&self, index: usize, seconds: f64, volatile: bool) {
        let mut state = self.state.lock().unwrap();
        if let Some(span) = state.spans.get_mut(index) {
            span.virtual_seconds = Some(seconds);
            span.virtual_volatile = volatile;
        }
    }

    fn set_attr(&self, index: usize, key: &str, value: String, volatile: bool) {
        let mut state = self.state.lock().unwrap();
        if let Some(span) = state.spans.get_mut(index) {
            let list = if volatile {
                &mut span.volatile_attrs
            } else {
                &mut span.attrs
            };
            if let Some(slot) = list.iter_mut().find(|(k, _)| k == key) {
                slot.1 = value;
            } else {
                list.push((key.to_string(), value));
            }
        }
    }

    /// The journal timestamp for an event, read before taking the lock;
    /// `None` when this recorder keeps no journal.
    fn journal_at(&self) -> Option<f64> {
        self.journal.then(|| self.now())
    }

    fn incr(&self, name: &str, delta: u64) {
        let at = self.journal_at();
        let mut state = self.state.lock().unwrap();
        let name = state.intern(name);
        let total = state.counters.entry(Arc::clone(&name)).or_insert(0);
        *total += delta;
        let total = *total;
        if let Some(at) = at {
            state.journal.push(Event::Counter {
                at,
                name,
                delta,
                total,
            });
        }
    }

    fn observe(&self, name: &str, value: f64, volatile: bool) {
        let at = self.journal_at();
        let mut state = self.state.lock().unwrap();
        let name = state.intern(name);
        if volatile {
            state.volatile_observations.insert(Arc::clone(&name));
        }
        state
            .observations
            .entry(Arc::clone(&name))
            .and_modify(|s| {
                s.count += 1;
                s.sum += value;
                s.min = s.min.min(value);
                s.max = s.max.max(value);
                s.last = value;
            })
            .or_insert(ObservationStats {
                count: 1,
                sum: value,
                min: value,
                max: value,
                last: value,
            });
        if let Some(at) = at {
            state.journal.push(Event::Observe { at, name, value });
        }
    }

    fn record_hist(&self, name: &str, value: u64) {
        // Deliberately not journaled: histogram call sites fire per-sample
        // at high rates and the aggregate is the product.
        let mut state = self.state.lock().unwrap();
        let name = state.intern(name);
        state.histograms.entry(name).or_default().record(value);
    }

    fn snapshot(&self) -> TelemetryReport {
        // The cold path pays the String conversions the hot paths avoided,
        // keeping the report's public maps `String`-keyed.
        let state = self.state.lock().unwrap();
        TelemetryReport {
            spans: state.spans.clone(),
            counters: state
                .counters
                .iter()
                .map(|(k, v)| (k.to_string(), *v))
                .collect(),
            observations: state
                .observations
                .iter()
                .map(|(k, v)| (k.to_string(), *v))
                .collect(),
            histograms: state
                .histograms
                .iter()
                .map(|(k, v)| (k.to_string(), v.clone()))
                .collect(),
            volatile_observations: state
                .volatile_observations
                .iter()
                .map(|k| k.to_string())
                .collect(),
            journal: state.journal.clone(),
        }
    }
}

/// An immutable snapshot of a recorder: the span tree, counter totals,
/// observation statistics, and the full event journal.
#[derive(Debug, Clone, Default)]
pub struct TelemetryReport {
    pub spans: Vec<SpanRecord>,
    pub counters: BTreeMap<String, u64>,
    pub observations: BTreeMap<String, ObservationStats>,
    /// Log-bucketed latency histograms ([`TelemetrySink::record_hist`]),
    /// keyed by name. Deterministic by construction — never volatile.
    pub histograms: BTreeMap<String, HistogramStats>,
    /// Streams recorded via [`TelemetrySink::observe_volatile`] — their
    /// values are wall-clock- or worker-count-dependent and must be skipped
    /// by deterministic consumers (canonical exports, the run ledger).
    pub volatile_observations: BTreeSet<String>,
    pub journal: Vec<Event>,
}

impl TelemetryReport {
    /// Total for a named counter (0 if never incremented).
    pub fn counter(&self, name: &str) -> u64 {
        self.counters.get(name).copied().unwrap_or(0)
    }

    /// Statistics for a named observation stream, if any samples exist.
    pub fn observation(&self, name: &str) -> Option<&ObservationStats> {
        self.observations.get(name)
    }

    /// True when the named observation stream was recorded as volatile.
    pub fn is_volatile_observation(&self, name: &str) -> bool {
        self.volatile_observations.contains(name)
    }

    /// The named histogram, if any samples were recorded.
    pub fn histogram(&self, name: &str) -> Option<&HistogramStats> {
        self.histograms.get(name)
    }

    /// Histogram `(name, stats)` pairs, explicitly sorted by name — same
    /// contract as [`TelemetryReport::sorted_counters`].
    pub fn sorted_histograms(&self) -> Vec<(&str, &HistogramStats)> {
        let mut out: Vec<(&str, &HistogramStats)> = self
            .histograms
            .iter()
            .map(|(k, v)| (k.as_str(), v))
            .collect();
        out.sort_by(|a, b| a.0.cmp(b.0));
        out
    }

    /// Counter `(name, total)` pairs, explicitly sorted by name. Rendering
    /// and exports go through this so the ordering contract does not silently
    /// depend on the backing map's iteration order.
    pub fn sorted_counters(&self) -> Vec<(&str, u64)> {
        let mut out: Vec<(&str, u64)> = self
            .counters
            .iter()
            .map(|(k, v)| (k.as_str(), *v))
            .collect();
        out.sort_by(|a, b| a.0.cmp(b.0));
        out
    }

    /// Observation `(name, stats)` pairs, explicitly sorted by name — same
    /// contract as [`TelemetryReport::sorted_counters`].
    pub fn sorted_observations(&self) -> Vec<(&str, &ObservationStats)> {
        let mut out: Vec<(&str, &ObservationStats)> = self
            .observations
            .iter()
            .map(|(k, v)| (k.as_str(), v))
            .collect();
        out.sort_by(|a, b| a.0.cmp(b.0));
        out
    }

    /// Deepest nesting level reached in the span tree (roots are 1).
    pub fn max_depth(&self) -> usize {
        self.spans.iter().map(|s| s.depth).max().unwrap_or(0)
    }

    /// Renders the span tree, counters, and observations as aligned text —
    /// the body of `benchpark trace`.
    ///
    /// Ordering invariant: spans appear in creation order (preorder of the
    /// span tree); counters and observations appear in ascending
    /// lexicographic name order via [`TelemetryReport::sorted_counters`] /
    /// [`TelemetryReport::sorted_observations`], never in backing-map
    /// iteration order. Volatile observation streams are marked with a
    /// trailing `*`.
    pub fn render(&self) -> String {
        let mut out = String::new();
        out.push_str("telemetry: span tree (real wall-clock; ~virtual where simulated)\n");
        for span in &self.spans {
            let indent = "  ".repeat(span.depth - 1);
            let real = span
                .real_seconds
                .map(|s| format!("{:.6}s", s))
                .unwrap_or_else(|| "open".to_string());
            match span.virtual_seconds {
                Some(v) => {
                    let _ = writeln!(out, "  {indent}{:<32} {real:>12}  ~{v:.3}s", span.name);
                }
                None => {
                    let _ = writeln!(out, "  {indent}{:<32} {real:>12}", span.name);
                }
            }
        }
        if !self.counters.is_empty() {
            out.push_str("\ntelemetry: counters\n");
            for (name, total) in self.sorted_counters() {
                let _ = writeln!(out, "  {name:<36} {total:>10}");
            }
        }
        if !self.observations.is_empty() {
            out.push_str("\ntelemetry: observations (mean/min/max over samples)\n");
            let mut any_volatile = false;
            for (name, stats) in self.sorted_observations() {
                let mark = if self.is_volatile_observation(name) {
                    any_volatile = true;
                    "*"
                } else {
                    ""
                };
                let label = format!("{name}{mark}");
                let _ = writeln!(
                    out,
                    "  {label:<36} mean {:>9.3}  min {:>9.3}  max {:>9.3}  n={}",
                    stats.mean(),
                    stats.min,
                    stats.max,
                    stats.count
                );
            }
            if any_volatile {
                out.push_str("  (* volatile: wall-clock/worker-count dependent)\n");
            }
        }
        if !self.histograms.is_empty() {
            out.push_str("\ntelemetry: histograms (power-of-two buckets, ticks)\n");
            for (name, hist) in self.sorted_histograms() {
                let _ = writeln!(
                    out,
                    "  {name:<36} p50 {:>6}  p95 {:>6}  p99 {:>6}  max {:>6}  n={}",
                    hist.quantile(0.50),
                    hist.quantile(0.95),
                    hist.quantile(0.99),
                    hist.max,
                    hist.count
                );
            }
        }
        let _ = writeln!(
            out,
            "\ntelemetry: {} journal events, max span depth {}",
            self.journal.len(),
            self.max_depth()
        );
        out
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn noop_sink_records_nothing() {
        let sink = TelemetrySink::noop();
        assert!(!sink.is_enabled());
        {
            let span = sink.span("anything");
            span.set_virtual(1.0);
            sink.incr("x", 5);
            sink.observe("y", 2.0);
        }
        assert!(sink.report().is_none());
    }

    #[test]
    fn aggregating_sink_keeps_totals_without_spans_or_journal() {
        let sink = TelemetrySink::aggregating();
        assert!(sink.is_enabled());
        assert_eq!(format!("{sink:?}"), "TelemetrySink(\"aggregating\")");
        {
            let span = sink.span("serve.request");
            span.set_attr("tenant", "alice");
            span.set_virtual(3.0);
            let _inner = sink.span("inner");
            sink.incr("serve.completed", 2);
            sink.incr("serve.completed", 1);
            sink.observe("serve.queue.depth", 4.0);
            sink.observe_volatile("serve.wall", 0.5);
            sink.record_hist("serve.stage.execute", 9);
        }
        let report = sink.report().unwrap();
        assert!(report.spans.is_empty());
        assert!(report.journal.is_empty());
        assert_eq!(report.counter("serve.completed"), 3);
        assert_eq!(report.observation("serve.queue.depth").unwrap().last, 4.0);
        assert!(report.is_volatile_observation("serve.wall"));
        assert_eq!(report.histogram("serve.stage.execute").unwrap().sum, 9);
    }

    #[test]
    fn default_sink_is_noop() {
        assert!(!TelemetrySink::default().is_enabled());
    }

    #[test]
    fn spans_nest_and_record_depth() {
        let sink = TelemetrySink::recording();
        {
            let _a = sink.span("a");
            {
                let _b = sink.span("b");
                let _c = sink.span("c");
            }
            let _d = sink.span("d");
        }
        let report = sink.report().unwrap();
        assert_eq!(report.spans.len(), 4);
        assert_eq!(report.max_depth(), 3);
        let by_name: BTreeMap<&str, &SpanRecord> =
            report.spans.iter().map(|s| (s.name.as_ref(), s)).collect();
        assert_eq!(by_name["a"].depth, 1);
        assert_eq!(by_name["b"].depth, 2);
        assert_eq!(by_name["c"].depth, 3);
        assert_eq!(by_name["d"].depth, 2);
        assert_eq!(by_name["c"].parent, Some(1));
        // all closed
        assert!(report.spans.iter().all(|s| s.real_seconds.is_some()));
    }

    #[test]
    fn counters_accumulate_and_journal_orders_events() {
        let sink = TelemetrySink::recording();
        sink.incr("cache.hit", 2);
        sink.incr("cache.hit", 3);
        sink.incr("cache.miss", 1);
        let report = sink.report().unwrap();
        assert_eq!(report.counter("cache.hit"), 5);
        assert_eq!(report.counter("cache.miss"), 1);
        assert_eq!(report.counter("never"), 0);
        assert_eq!(report.journal.len(), 3);
        match &report.journal[1] {
            Event::Counter {
                name, delta, total, ..
            } => {
                assert_eq!(name.as_ref(), "cache.hit");
                assert_eq!(*delta, 3);
                assert_eq!(*total, 5);
            }
            other => panic!("unexpected event {other:?}"),
        }
    }

    #[test]
    fn observations_aggregate() {
        let sink = TelemetrySink::recording();
        sink.observe("queue_depth", 4.0);
        sink.observe("queue_depth", 1.0);
        sink.observe("queue_depth", 7.0);
        let report = sink.report().unwrap();
        let stats = report.observation("queue_depth").unwrap();
        assert_eq!(stats.count, 3);
        assert_eq!(stats.min, 1.0);
        assert_eq!(stats.max, 7.0);
        assert_eq!(stats.last, 7.0);
        assert!((stats.mean() - 4.0).abs() < 1e-12);
    }

    #[test]
    fn virtual_time_is_attached() {
        let sink = TelemetrySink::recording();
        {
            let span = sink.span("install");
            span.set_virtual(123.5);
        }
        let report = sink.report().unwrap();
        assert_eq!(report.spans[0].virtual_seconds, Some(123.5));
        assert!(report.render().contains("~123.500s"));
    }

    #[test]
    fn cloned_sinks_share_one_recorder() {
        let sink = TelemetrySink::recording();
        let clone = sink.clone();
        let _outer = sink.span("outer");
        {
            let _inner = clone.span("inner");
        }
        clone.incr("shared", 1);
        drop(_outer);
        let report = sink.report().unwrap();
        assert_eq!(report.spans.len(), 2);
        assert_eq!(report.spans[1].parent, Some(0));
        assert_eq!(report.counter("shared"), 1);
    }

    #[test]
    fn out_of_order_drop_closes_leaked_children() {
        let sink = TelemetrySink::recording();
        let outer = sink.span("outer");
        let _leaked = sink.span("leaked");
        drop(outer); // closes `leaked` too
        let report = sink.report().unwrap();
        assert!(report.spans.iter().all(|s| s.real_seconds.is_some()));
    }

    #[test]
    fn span_attrs_are_recorded_last_write_wins() {
        let sink = TelemetrySink::recording();
        {
            let span = sink.span("engine.task");
            span.set_attr("dispatch", 3);
            span.set_attr("worker", 1);
            span.set_attr("worker", 2);
        }
        let report = sink.report().unwrap();
        let span = &report.spans[0];
        assert_eq!(span.attr("dispatch"), Some("3"));
        assert_eq!(span.attr("worker"), Some("2"));
        assert_eq!(span.attrs.len(), 2);
        assert_eq!(span.attr("missing"), None);
    }

    #[test]
    fn volatile_attrs_live_in_their_own_list() {
        let sink = TelemetrySink::recording();
        {
            let span = sink.span("engine.task");
            span.set_attr("dispatch", 0);
            span.set_attr_volatile("slot.start", 1.5);
            span.set_attr_volatile("slot.start", 2.5);
        }
        let report = sink.report().unwrap();
        let span = &report.spans[0];
        assert_eq!(span.attr("dispatch"), Some("0"));
        assert_eq!(span.attr("slot.start"), None);
        assert_eq!(span.volatile_attr("slot.start"), Some("2.5"));
        assert_eq!(span.volatile_attrs.len(), 1);
    }

    #[test]
    fn volatile_observations_are_flagged() {
        let sink = TelemetrySink::recording();
        sink.observe("stable.metric", 1.0);
        sink.observe_volatile("install.makespan_seconds", 42.0);
        let report = sink.report().unwrap();
        assert!(!report.is_volatile_observation("stable.metric"));
        assert!(report.is_volatile_observation("install.makespan_seconds"));
        // volatile streams still aggregate and journal normally
        assert_eq!(
            report.observation("install.makespan_seconds").unwrap().last,
            42.0
        );
        assert_eq!(report.journal.len(), 2);
        let text = report.render();
        assert!(text.contains("install.makespan_seconds*"));
        assert!(text.contains("(* volatile"));
    }

    #[test]
    fn volatile_virtual_time_is_flagged() {
        let sink = TelemetrySink::recording();
        {
            let span = sink.span("engine.run");
            span.set_virtual_volatile(8.0);
        }
        {
            let span = sink.span("scheduler.drain");
            span.set_virtual(100.0);
        }
        let report = sink.report().unwrap();
        assert!(report.spans[0].virtual_volatile);
        assert_eq!(report.spans[0].virtual_seconds, Some(8.0));
        assert!(!report.spans[1].virtual_volatile);
    }

    #[test]
    fn render_sorts_counters_and_observations_by_name() {
        let sink = TelemetrySink::recording();
        // insert in deliberately non-sorted order
        sink.incr("zeta.count", 1);
        sink.incr("alpha.count", 1);
        sink.incr("mid.count", 1);
        sink.observe("z.obs", 1.0);
        sink.observe("a.obs", 1.0);
        let report = sink.report().unwrap();
        assert_eq!(
            report
                .sorted_counters()
                .iter()
                .map(|(n, _)| *n)
                .collect::<Vec<_>>(),
            vec!["alpha.count", "mid.count", "zeta.count"]
        );
        let text = report.render();
        let pos = |needle: &str| {
            text.find(needle)
                .unwrap_or_else(|| panic!("missing {needle}"))
        };
        assert!(pos("alpha.count") < pos("mid.count"));
        assert!(pos("mid.count") < pos("zeta.count"));
        assert!(pos("a.obs") < pos("z.obs"));
    }

    #[test]
    fn render_lists_sections() {
        let sink = TelemetrySink::recording();
        {
            let _root = sink.span("pipeline.setup");
            let _child = sink.span("concretize");
            sink.incr("concretizer.solves", 3);
            sink.observe("scheduler.queue_depth", 2.0);
        }
        let text = sink.report().unwrap().render();
        assert!(text.contains("pipeline.setup"));
        assert!(text.contains("  concretize"));
        assert!(text.contains("concretizer.solves"));
        assert!(text.contains("scheduler.queue_depth"));
        assert!(text.contains("journal events"));
    }

    #[test]
    fn histogram_buckets_are_powers_of_two() {
        assert_eq!(HistogramStats::bucket_index(0), Some(0));
        assert_eq!(HistogramStats::bucket_index(1), Some(0));
        assert_eq!(HistogramStats::bucket_index(2), Some(1));
        assert_eq!(HistogramStats::bucket_index(3), Some(2));
        assert_eq!(HistogramStats::bucket_index(4), Some(2));
        assert_eq!(HistogramStats::bucket_index(5), Some(3));
        assert_eq!(HistogramStats::bucket_index(1 << 31), Some(31));
        assert_eq!(HistogramStats::bucket_index((1 << 31) + 1), None);
        assert_eq!(HistogramStats::bucket_index(u64::MAX), None);
        assert_eq!(HistogramStats::bucket_le(0), 1);
        assert_eq!(HistogramStats::bucket_le(5), 32);
    }

    #[test]
    fn histogram_records_and_aggregates() {
        let mut hist = HistogramStats::new();
        for value in [0, 1, 2, 3, 100, 5_000_000_000] {
            hist.record(value);
        }
        assert_eq!(hist.count, 6);
        assert_eq!(hist.sum, 5_000_000_106);
        assert_eq!(hist.min, 0);
        assert_eq!(hist.max, 5_000_000_000);
        assert_eq!(hist.buckets[0], 2); // 0 and 1
        assert_eq!(hist.buckets[1], 1); // 2
        assert_eq!(hist.buckets[2], 1); // 3
        assert_eq!(hist.buckets[7], 1); // 100 <= 128
        assert_eq!(hist.overflow, 1);
    }

    #[test]
    fn histogram_quantiles_are_bucket_bounds_clamped_to_max() {
        let mut hist = HistogramStats::new();
        for _ in 0..99 {
            hist.record(3); // bucket le=4
        }
        hist.record(1000); // bucket le=1024
        assert_eq!(hist.quantile(0.50), 4);
        assert_eq!(hist.quantile(0.99), 4);
        assert_eq!(hist.quantile(1.0), 1000); // le bound 1024 clamped to max
                                              // a single-value histogram reports that value at every quantile
        let mut single = HistogramStats::new();
        single.record(3);
        assert_eq!(single.quantile(0.5), 3);
        assert_eq!(HistogramStats::new().quantile(0.99), 0);
    }

    #[test]
    fn histogram_merge_is_elementwise_and_order_independent() {
        let mut a = HistogramStats::new();
        let mut b = HistogramStats::new();
        for v in [1, 5, 9] {
            a.record(v);
        }
        for v in [2, 6_000_000_000] {
            b.record(v);
        }
        let mut ab = a.clone();
        ab.merge(&b);
        let mut ba = b.clone();
        ba.merge(&a);
        assert_eq!(ab, ba);
        assert_eq!(ab.count, 5);
        assert_eq!(ab.min, 1);
        assert_eq!(ab.max, 6_000_000_000);
        assert_eq!(ab.overflow, 1);
        let mut empty = HistogramStats::new();
        empty.merge(&ab);
        assert_eq!(empty, ab);
    }

    #[test]
    fn record_hist_reaches_the_report_in_sorted_order() {
        let sink = TelemetrySink::recording();
        sink.record_hist("serve.stage.queue_wait", 7);
        sink.record_hist("serve.stage.execute", 900);
        sink.record_hist("serve.stage.queue_wait", 2);
        let report = sink.report().unwrap();
        let names: Vec<&str> = report.sorted_histograms().iter().map(|(n, _)| *n).collect();
        assert_eq!(names, vec!["serve.stage.execute", "serve.stage.queue_wait"]);
        let wait = report.histogram("serve.stage.queue_wait").unwrap();
        assert_eq!(wait.count, 2);
        assert_eq!(wait.sum, 9);
        assert!(report.histogram("missing").is_none());
        // journal untouched: histogram samples aggregate in place
        assert!(report.journal.is_empty());
        let text = report.render();
        assert!(text.contains("telemetry: histograms"));
        assert!(text.contains("serve.stage.execute"));
        // the no-op sink ignores histogram records
        let noop = TelemetrySink::noop();
        noop.record_hist("x", 1);
        assert!(noop.report().is_none());
    }
}
