//! The daemon's live status snapshot: per-tenant stage latencies, rolling
//! windows, and SLO verdicts, serialized deterministically.
//!
//! `benchpark serve --status-out PATH` writes a snapshot atomically
//! (temp-file + rename, so a concurrent reader never sees a torn file)
//! after every drain round, and a final one lands at `<root>/status.json`
//! on flush; `benchpark status <root>` renders either without touching the
//! daemon. Every number in the snapshot derives from virtual ticks or
//! commit-order tallies — never wall clocks — so `--jobs 1` and `--jobs 8`
//! drains of the same submissions write byte-identical files.

use crate::report::{hit_rate, ServeReport};
use crate::slo::{SloSpec, SloVerdict, Verdict};
use crate::window::RollingWindows;
use benchpark_telemetry::HistogramStats;
use benchpark_yamlite::{emit_json, parse_json, Map, Value};
use std::collections::BTreeMap;
use std::fmt::Write as _;
use std::path::Path;

/// The daemon's in-memory stage-latency accumulators: one histogram per
/// pipeline stage, plus per-tenant queue-wait/execute pairs. Mirrors what
/// the telemetry sink holds under `serve.stage.*` / `serve.tenant.*` names,
/// kept separately so snapshot construction does not clone the telemetry
/// journal every drain round.
#[derive(Debug, Clone, Default)]
pub struct StageHists {
    /// Ticks between admission and DRR pick.
    pub queue_wait: HistogramStats,
    /// Dispatch offset within the picked batch.
    pub schedule: HistogramStats,
    /// Virtual execution ticks.
    pub execute: HistogramStats,
    /// Position in the serialized commit sequence.
    pub commit: HistogramStats,
    /// Per-tenant `(queue_wait, execute)` histograms.
    pub tenants: BTreeMap<String, (HistogramStats, HistogramStats)>,
}

impl StageHists {
    /// Records one committed request's stage latencies.
    pub fn record(
        &mut self,
        tenant: &str,
        queue_wait: u64,
        schedule: u64,
        execute: u64,
        commit: u64,
    ) {
        self.queue_wait.record(queue_wait);
        self.schedule.record(schedule);
        self.execute.record(execute);
        self.commit.record(commit);
        let (tenant_wait, tenant_execute) = self.tenants.entry(tenant.to_string()).or_default();
        tenant_wait.record(queue_wait);
        tenant_execute.record(execute);
    }
}

/// Latency quantiles for one stage, in virtual ticks.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct StageLatency {
    /// Median.
    pub p50: u64,
    /// 95th percentile.
    pub p95: u64,
    /// 99th percentile.
    pub p99: u64,
    /// Largest sample.
    pub max: u64,
    /// Sample count.
    pub count: u64,
}

impl StageLatency {
    /// Derives the quantile summary from a histogram.
    pub fn from_hist(hist: &HistogramStats) -> StageLatency {
        StageLatency {
            p50: hist.quantile(0.50),
            p95: hist.quantile(0.95),
            p99: hist.quantile(0.99),
            max: hist.max,
            count: hist.count,
        }
    }
}

/// One tenant's row in the status table.
#[derive(Debug, Clone, Default)]
pub struct TenantStatus {
    /// Tenant name.
    pub name: String,
    /// Requests admitted.
    pub submitted: u64,
    /// Requests refused.
    pub rejected: u64,
    /// Requests completed.
    pub completed: u64,
    /// Requests failed.
    pub failed: u64,
    /// Experiments measured fresh.
    pub fresh: u64,
    /// Experiments spliced from caches.
    pub cached: u64,
    /// Memo-fastpath completions.
    pub fastpath: u64,
    /// Queue-wait quantiles.
    pub queue_wait: StageLatency,
    /// Execute quantiles.
    pub execute: StageLatency,
}

/// One rolling window's row.
#[derive(Debug, Clone, Default)]
pub struct WindowStatus {
    /// Window ordinal.
    pub index: u64,
    /// First covered tick.
    pub start_tick: u64,
    /// One past the last covered tick.
    pub end_tick: u64,
    /// Admissions in the window.
    pub submitted: u64,
    /// Rejections in the window (all codes).
    pub rejected: u64,
    /// Completions in the window.
    pub completed: u64,
    /// Failures in the window.
    pub failed: u64,
    /// Completions per tick.
    pub throughput: f64,
    /// Cached / all experiments.
    pub hit_rate: f64,
    /// Rejected / arrived.
    pub reject_rate: f64,
    /// Queue-wait quantiles inside the window.
    pub queue_wait: StageLatency,
    /// Execute quantiles inside the window.
    pub execute: StageLatency,
}

/// One SLO verdict row.
#[derive(Debug, Clone)]
pub struct SloStatus {
    /// The target as written (`p99_queue_wait <= 2048`).
    pub target: String,
    /// Metric value over the fast horizon.
    pub fast: f64,
    /// Metric value over the slow horizon.
    pub slow: f64,
    /// `PASS` / `WARN` / `FAIL`.
    pub verdict: String,
}

/// The full snapshot.
#[derive(Debug, Clone, Default)]
pub struct StatusSnapshot {
    /// Queue virtual-clock tick at snapshot time.
    pub tick: u64,
    /// Window width in ticks.
    pub window_width: u64,
    /// Requests admitted.
    pub admitted: u64,
    /// Requests refused.
    pub rejected: u64,
    /// Requests completed.
    pub completed: u64,
    /// Requests failed.
    pub failed: u64,
    /// DRR rounds executed.
    pub batches: u64,
    /// Memo-fastpath completions.
    pub fastpath: u64,
    /// Experiments measured fresh.
    pub experiments_fresh: u64,
    /// Experiments spliced from caches.
    pub experiments_cached: u64,
    /// Global stage quantiles, in pipeline order.
    pub stages: Vec<(String, StageLatency)>,
    /// Per-tenant rows, by name.
    pub tenants: Vec<TenantStatus>,
    /// Retained windows, oldest first.
    pub windows: Vec<WindowStatus>,
    /// SLO verdicts (empty without `--slo`).
    pub slo: Vec<SloStatus>,
}

impl StatusSnapshot {
    /// Builds a snapshot from the daemon's live state.
    pub fn build(
        tick: u64,
        report: &ServeReport,
        hists: &StageHists,
        windows: &RollingWindows,
        slo: Option<&SloSpec>,
    ) -> StatusSnapshot {
        let stages = vec![
            (
                "queue_wait".to_string(),
                StageLatency::from_hist(&hists.queue_wait),
            ),
            (
                "schedule".to_string(),
                StageLatency::from_hist(&hists.schedule),
            ),
            (
                "execute".to_string(),
                StageLatency::from_hist(&hists.execute),
            ),
            ("commit".to_string(), StageLatency::from_hist(&hists.commit)),
        ];
        // union of tallied and latency-bearing tenants, name order
        let mut names: Vec<&String> = report.tenants.keys().collect();
        for name in hists.tenants.keys() {
            if !report.tenants.contains_key(name) {
                names.push(name);
            }
        }
        names.sort();
        let empty = (HistogramStats::default(), HistogramStats::default());
        let tenants = names
            .into_iter()
            .map(|name| {
                let stats = report.tenants.get(name).cloned().unwrap_or_default();
                let (wait, execute) = hists.tenants.get(name).unwrap_or(&empty);
                TenantStatus {
                    name: name.clone(),
                    submitted: stats.submitted,
                    rejected: stats.rejected,
                    completed: stats.completed,
                    failed: stats.failed,
                    fresh: stats.fresh,
                    cached: stats.cached,
                    fastpath: stats.fastpath,
                    queue_wait: StageLatency::from_hist(wait),
                    execute: StageLatency::from_hist(execute),
                }
            })
            .collect();
        let window_rows = windows
            .views()
            .into_iter()
            .map(|w| WindowStatus {
                index: w.index,
                start_tick: w.start_tick,
                end_tick: w.end_tick,
                submitted: w.submitted,
                rejected: w.rejected_total(),
                completed: w.completed,
                failed: w.failed,
                throughput: w.throughput(),
                hit_rate: w.hit_rate(),
                reject_rate: w.reject_rate(),
                queue_wait: StageLatency::from_hist(&w.queue_wait),
                execute: StageLatency::from_hist(&w.execute),
            })
            .collect();
        let verdicts = slo
            .map(|spec| {
                let slow = windows.slow();
                spec.evaluate(windows.fast(), &slow)
            })
            .unwrap_or_default();
        StatusSnapshot {
            tick,
            window_width: windows.config().width_ticks,
            admitted: report.admitted,
            rejected: report.rejected,
            completed: report.completed,
            failed: report.failed,
            batches: report.batches,
            fastpath: report.fastpath,
            experiments_fresh: report.experiments_fresh,
            experiments_cached: report.experiments_cached,
            stages,
            tenants,
            windows: window_rows,
            slo: verdicts
                .into_iter()
                .map(|v: SloVerdict| SloStatus {
                    target: v.target,
                    fast: v.fast,
                    slow: v.slow,
                    verdict: v.verdict.as_str().to_string(),
                })
                .collect(),
        }
    }

    /// Fraction of experiments satisfied from fingerprint caches.
    pub fn hit_rate(&self) -> f64 {
        hit_rate(self.experiments_fresh, self.experiments_cached)
    }

    /// True when any target's verdict is `FAIL` (`benchpark status
    /// --check` exits non-zero on this).
    pub fn has_failing_slo(&self) -> bool {
        self.slo
            .iter()
            .any(|s| Verdict::parse(&s.verdict) == Some(Verdict::Fail))
    }

    /// Serializes the snapshot as canonical JSON (fixed field order,
    /// deterministic number formatting).
    pub fn to_json(&self) -> String {
        let lat = |l: &StageLatency| {
            let mut m = Map::new();
            m.insert("p50", Value::Int(l.p50 as i64));
            m.insert("p95", Value::Int(l.p95 as i64));
            m.insert("p99", Value::Int(l.p99 as i64));
            m.insert("max", Value::Int(l.max as i64));
            m.insert("count", Value::Int(l.count as i64));
            Value::Map(m)
        };
        let mut root = Map::new();
        root.insert("schema", Value::Int(1));
        root.insert("tick", Value::Int(self.tick as i64));
        root.insert("window_width_ticks", Value::Int(self.window_width as i64));
        let mut totals = Map::new();
        totals.insert("admitted", Value::Int(self.admitted as i64));
        totals.insert("rejected", Value::Int(self.rejected as i64));
        totals.insert("completed", Value::Int(self.completed as i64));
        totals.insert("failed", Value::Int(self.failed as i64));
        totals.insert("batches", Value::Int(self.batches as i64));
        totals.insert("fastpath", Value::Int(self.fastpath as i64));
        totals.insert(
            "experiments_fresh",
            Value::Int(self.experiments_fresh as i64),
        );
        totals.insert(
            "experiments_cached",
            Value::Int(self.experiments_cached as i64),
        );
        totals.insert("hit_rate", Value::Float(self.hit_rate()));
        root.insert("totals", Value::Map(totals));
        let mut stages = Map::new();
        for (name, latency) in &self.stages {
            stages.insert(name, lat(latency));
        }
        root.insert("stages", Value::Map(stages));
        let mut tenants = Map::new();
        for t in &self.tenants {
            let mut m = Map::new();
            m.insert("submitted", Value::Int(t.submitted as i64));
            m.insert("rejected", Value::Int(t.rejected as i64));
            m.insert("completed", Value::Int(t.completed as i64));
            m.insert("failed", Value::Int(t.failed as i64));
            m.insert("fresh", Value::Int(t.fresh as i64));
            m.insert("cached", Value::Int(t.cached as i64));
            m.insert("fastpath", Value::Int(t.fastpath as i64));
            m.insert("queue_wait", lat(&t.queue_wait));
            m.insert("execute", lat(&t.execute));
            tenants.insert(&t.name, Value::Map(m));
        }
        root.insert("tenants", Value::Map(tenants));
        let windows = self
            .windows
            .iter()
            .map(|w| {
                let mut m = Map::new();
                m.insert("index", Value::Int(w.index as i64));
                m.insert("start_tick", Value::Int(w.start_tick as i64));
                m.insert("end_tick", Value::Int(w.end_tick as i64));
                m.insert("submitted", Value::Int(w.submitted as i64));
                m.insert("rejected", Value::Int(w.rejected as i64));
                m.insert("completed", Value::Int(w.completed as i64));
                m.insert("failed", Value::Int(w.failed as i64));
                m.insert("throughput", Value::Float(w.throughput));
                m.insert("hit_rate", Value::Float(w.hit_rate));
                m.insert("reject_rate", Value::Float(w.reject_rate));
                m.insert("queue_wait", lat(&w.queue_wait));
                m.insert("execute", lat(&w.execute));
                Value::Map(m)
            })
            .collect();
        root.insert("windows", Value::Seq(windows));
        let slo = self
            .slo
            .iter()
            .map(|s| {
                let mut m = Map::new();
                m.insert("target", Value::str(s.target.clone()));
                m.insert("fast", Value::Float(s.fast));
                m.insert("slow", Value::Float(s.slow));
                m.insert("verdict", Value::str(s.verdict.clone()));
                Value::Map(m)
            })
            .collect();
        root.insert("slo", Value::Seq(slo));
        emit_json(&Value::Map(root))
    }

    /// Parses a snapshot back from its JSON form (`benchpark status`).
    pub fn parse(text: &str) -> Result<StatusSnapshot, String> {
        let doc = parse_json(text)?;
        let int = |value: Option<&Value>, what: &str| -> Result<u64, String> {
            let n = value
                .and_then(Value::as_int)
                .ok_or_else(|| format!("status snapshot lacks `{what}`"))?;
            if n < 0 {
                return Err(format!("status `{what}` is negative"));
            }
            Ok(n as u64)
        };
        let float = |value: Option<&Value>, what: &str| -> Result<f64, String> {
            value
                .and_then(Value::as_float)
                .ok_or_else(|| format!("status snapshot lacks `{what}`"))
        };
        let lat = |value: Option<&Value>, what: &str| -> Result<StageLatency, String> {
            let map = value.ok_or_else(|| format!("status snapshot lacks `{what}`"))?;
            Ok(StageLatency {
                p50: int(map.get("p50"), "p50")?,
                p95: int(map.get("p95"), "p95")?,
                p99: int(map.get("p99"), "p99")?,
                max: int(map.get("max"), "max")?,
                count: int(map.get("count"), "count")?,
            })
        };
        let schema = int(doc.get("schema"), "schema")?;
        if schema != 1 {
            return Err(format!("unknown status schema version {schema}"));
        }
        let totals = doc.get("totals").ok_or("status snapshot lacks `totals`")?;
        let mut stages = Vec::new();
        if let Some(map) = doc.get("stages").and_then(Value::as_map) {
            // preserve pipeline order, not map order
            for name in ["queue_wait", "schedule", "execute", "commit"] {
                if let Some(value) = map.get(name) {
                    stages.push((name.to_string(), lat(Some(value), name)?));
                }
            }
        }
        let mut tenants = Vec::new();
        if let Some(map) = doc.get("tenants").and_then(Value::as_map) {
            for (name, t) in map.iter() {
                tenants.push(TenantStatus {
                    name: name.clone(),
                    submitted: int(t.get("submitted"), "submitted")?,
                    rejected: int(t.get("rejected"), "rejected")?,
                    completed: int(t.get("completed"), "completed")?,
                    failed: int(t.get("failed"), "failed")?,
                    fresh: int(t.get("fresh"), "fresh")?,
                    cached: int(t.get("cached"), "cached")?,
                    fastpath: int(t.get("fastpath"), "fastpath")?,
                    queue_wait: lat(t.get("queue_wait"), "queue_wait")?,
                    execute: lat(t.get("execute"), "execute")?,
                });
            }
        }
        let mut windows = Vec::new();
        if let Some(items) = doc.get("windows").and_then(Value::as_seq) {
            for w in items {
                windows.push(WindowStatus {
                    index: int(w.get("index"), "index")?,
                    start_tick: int(w.get("start_tick"), "start_tick")?,
                    end_tick: int(w.get("end_tick"), "end_tick")?,
                    submitted: int(w.get("submitted"), "submitted")?,
                    rejected: int(w.get("rejected"), "rejected")?,
                    completed: int(w.get("completed"), "completed")?,
                    failed: int(w.get("failed"), "failed")?,
                    throughput: float(w.get("throughput"), "throughput")?,
                    hit_rate: float(w.get("hit_rate"), "hit_rate")?,
                    reject_rate: float(w.get("reject_rate"), "reject_rate")?,
                    queue_wait: lat(w.get("queue_wait"), "queue_wait")?,
                    execute: lat(w.get("execute"), "execute")?,
                });
            }
        }
        let mut slo = Vec::new();
        if let Some(items) = doc.get("slo").and_then(Value::as_seq) {
            for s in items {
                slo.push(SloStatus {
                    target: s
                        .get("target")
                        .and_then(Value::as_str)
                        .ok_or("slo entry lacks `target`")?
                        .to_string(),
                    fast: float(s.get("fast"), "fast")?,
                    slow: float(s.get("slow"), "slow")?,
                    verdict: s
                        .get("verdict")
                        .and_then(Value::as_str)
                        .ok_or("slo entry lacks `verdict`")?
                        .to_string(),
                });
            }
        }
        Ok(StatusSnapshot {
            tick: int(doc.get("tick"), "tick")?,
            window_width: int(doc.get("window_width_ticks"), "window_width_ticks")?,
            admitted: int(totals.get("admitted"), "admitted")?,
            rejected: int(totals.get("rejected"), "rejected")?,
            completed: int(totals.get("completed"), "completed")?,
            failed: int(totals.get("failed"), "failed")?,
            batches: int(totals.get("batches"), "batches")?,
            fastpath: int(totals.get("fastpath"), "fastpath")?,
            experiments_fresh: int(totals.get("experiments_fresh"), "experiments_fresh")?,
            experiments_cached: int(totals.get("experiments_cached"), "experiments_cached")?,
            stages,
            tenants,
            windows,
            slo,
        })
    }

    /// Renders the snapshot as the `benchpark status` table.
    pub fn render(&self) -> String {
        let mut out = String::new();
        let _ = writeln!(
            out,
            "status @ tick {} ({} batches, window width {} ticks)",
            self.tick, self.batches, self.window_width
        );
        let _ = writeln!(
            out,
            "  totals: {} admitted, {} rejected | {} completed, {} failed | hit rate {:.1}% ({} fastpath)",
            self.admitted,
            self.rejected,
            self.completed,
            self.failed,
            self.hit_rate() * 100.0,
            self.fastpath
        );
        if !self.stages.is_empty() {
            let _ = writeln!(out, "  stage latencies (virtual ticks):");
            let _ = writeln!(
                out,
                "    {:<12} {:>8} {:>8} {:>8} {:>8} {:>8}",
                "stage", "p50", "p95", "p99", "max", "n"
            );
            for (name, l) in &self.stages {
                let _ = writeln!(
                    out,
                    "    {:<12} {:>8} {:>8} {:>8} {:>8} {:>8}",
                    name, l.p50, l.p95, l.p99, l.max, l.count
                );
            }
        }
        if !self.tenants.is_empty() {
            let _ = writeln!(out, "  tenants:");
            let _ = writeln!(
                out,
                "    {:<12} {:>5} {:>5} {:>5} {:>5} {:>6} {:>6}  {:>18}  {:>18}",
                "tenant",
                "sub",
                "rej",
                "done",
                "fail",
                "fresh",
                "cached",
                "wait p50/p95/p99",
                "exec p50/p95/p99"
            );
            for t in &self.tenants {
                let _ = writeln!(
                    out,
                    "    {:<12} {:>5} {:>5} {:>5} {:>5} {:>6} {:>6}  {:>18}  {:>18}",
                    t.name,
                    t.submitted,
                    t.rejected,
                    t.completed,
                    t.failed,
                    t.fresh,
                    t.cached,
                    format!(
                        "{}/{}/{}",
                        t.queue_wait.p50, t.queue_wait.p95, t.queue_wait.p99
                    ),
                    format!("{}/{}/{}", t.execute.p50, t.execute.p95, t.execute.p99),
                );
            }
        }
        if !self.windows.is_empty() {
            let _ = writeln!(out, "  windows:");
            let _ = writeln!(
                out,
                "    {:<16} {:>5} {:>5} {:>5} {:>5} {:>7} {:>6} {:>6} {:>8}",
                "ticks", "sub", "rej", "done", "fail", "thr", "hit%", "rej%", "wait p99"
            );
            for w in &self.windows {
                let _ = writeln!(
                    out,
                    "    {:<16} {:>5} {:>5} {:>5} {:>5} {:>7.3} {:>6.1} {:>6.1} {:>8}",
                    format!("[{}, {})", w.start_tick, w.end_tick),
                    w.submitted,
                    w.rejected,
                    w.completed,
                    w.failed,
                    w.throughput,
                    w.hit_rate * 100.0,
                    w.reject_rate * 100.0,
                    w.queue_wait.p99
                );
            }
        }
        if !self.slo.is_empty() {
            let _ = writeln!(out, "  slo (fast = latest window, slow = all retained):");
            for s in &self.slo {
                let _ = writeln!(
                    out,
                    "    {:<4} {:<28} fast {:.3}  slow {:.3}",
                    s.verdict, s.target, s.fast, s.slow
                );
            }
        }
        out
    }
}

/// Writes `contents` to `path` atomically: a temp file in the same
/// directory, fsynced, then renamed over the target. A concurrent
/// `benchpark status` reader sees either the old snapshot or the new one,
/// never a torn write.
pub fn write_atomic(path: &Path, contents: &str) -> Result<(), String> {
    if let Some(parent) = path.parent().filter(|p| !p.as_os_str().is_empty()) {
        std::fs::create_dir_all(parent)
            .map_err(|e| format!("cannot create `{}`: {e}", parent.display()))?;
    }
    let tmp = path.with_extension("tmp");
    {
        use std::io::Write as _;
        let mut file = std::fs::File::create(&tmp)
            .map_err(|e| format!("cannot create `{}`: {e}", tmp.display()))?;
        file.write_all(contents.as_bytes())
            .map_err(|e| format!("cannot write `{}`: {e}", tmp.display()))?;
        file.sync_all()
            .map_err(|e| format!("cannot sync `{}`: {e}", tmp.display()))?;
    }
    std::fs::rename(&tmp, path)
        .map_err(|e| format!("cannot rename `{}` into place: {e}", tmp.display()))
}
