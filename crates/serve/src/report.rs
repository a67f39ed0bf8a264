//! The serve report: throughput, hit rate, rejections, per-tenant stats.

use benchpark_ramble::ExperimentResult;
use benchpark_yamlite::{emit_json, Map, Value};
use std::collections::BTreeMap;

/// Fraction of experiments satisfied from fingerprint caches: `cached /
/// (fresh + cached)`, and 0 before any experiment ran. The one formula
/// behind the report, status snapshot and rolling-window hit rates.
pub(crate) fn hit_rate(fresh: u64, cached: u64) -> f64 {
    let total = fresh + cached;
    if total == 0 {
        return 0.0;
    }
    cached as f64 / total as f64
}

/// One refused submission in the rejection roll.
#[derive(Debug, Clone)]
pub struct RejectionRecord {
    /// 1-based line number in the replay/spool input (0 for programmatic
    /// submissions).
    pub line: usize,
    /// The submitting tenant, as written.
    pub tenant: String,
    /// Stable kebab-case reason code (`tenant-queue-full`, …).
    pub code: String,
    /// Human-readable detail.
    pub detail: String,
}

/// Per-tenant tallies.
#[derive(Debug, Clone, Default)]
pub struct TenantStats {
    /// Requests admitted to the queue.
    pub submitted: u64,
    /// Requests refused by admission control.
    pub rejected: u64,
    /// Requests that ran (or spliced) to completion.
    pub completed: u64,
    /// Requests whose pipeline errored.
    pub failed: u64,
    /// Experiments measured fresh on a cluster.
    pub fresh: u64,
    /// Experiments satisfied from the tenant's fingerprint shards.
    pub cached: u64,
    /// Requests short-circuited by the memo fastpath (no setup at all).
    pub fastpath: u64,
}

/// What one `benchpark serve` drain did: totals, per-tenant stats, the
/// rejection and failure rolls, and wall-clock throughput.
#[derive(Debug, Clone, Default)]
pub struct ServeReport {
    /// Requests admitted across all tenants.
    pub admitted: u64,
    /// Requests refused (see `rejections`).
    pub rejected: u64,
    /// Requests completed.
    pub completed: u64,
    /// Requests failed.
    pub failed: u64,
    /// Scheduler rounds executed.
    pub batches: u64,
    /// Experiments measured fresh.
    pub experiments_fresh: u64,
    /// Experiments satisfied from fingerprint caches (splices + fastpath).
    pub experiments_cached: u64,
    /// Requests short-circuited by the memo fastpath.
    pub fastpath: u64,
    /// Wall-clock drain time, seconds.
    pub elapsed_s: f64,
    /// Per-tenant tallies, by tenant name.
    pub tenants: BTreeMap<String, TenantStats>,
    /// Every refused submission, in intake order.
    pub rejections: Vec<RejectionRecord>,
    /// Every failed request: (request key, error), in pick order.
    pub failures: Vec<(String, String)>,
}

impl ServeReport {
    /// Completed requests per wall-clock second.
    pub fn throughput(&self) -> f64 {
        if self.elapsed_s <= 0.0 {
            return 0.0;
        }
        self.completed as f64 / self.elapsed_s
    }

    /// Fraction of experiments satisfied from fingerprint caches.
    pub fn hit_rate(&self) -> f64 {
        hit_rate(self.experiments_fresh, self.experiments_cached)
    }

    /// Human-readable summary.
    pub fn render(&self) -> String {
        let mut out = String::new();
        out.push_str(&format!(
            "serve: {} admitted, {} rejected | {} completed, {} failed in {} batches\n",
            self.admitted, self.rejected, self.completed, self.failed, self.batches
        ));
        out.push_str(&format!(
            "  throughput: {:.1} req/s ({:.3}s wall) | fingerprint hit rate: {:.1}% ({} cached / {} fresh, {} fastpath)\n",
            self.throughput(),
            self.elapsed_s,
            self.hit_rate() * 100.0,
            self.experiments_cached,
            self.experiments_fresh,
            self.fastpath
        ));
        for (tenant, stats) in &self.tenants {
            out.push_str(&format!(
                "  {tenant}: {} submitted, {} rejected, {} completed, {} failed, {} fresh, {} cached\n",
                stats.submitted,
                stats.rejected,
                stats.completed,
                stats.failed,
                stats.fresh,
                stats.cached
            ));
        }
        for r in &self.rejections {
            out.push_str(&format!(
                "  rejected line {} [{}] {}: {}\n",
                r.line, r.code, r.tenant, r.detail
            ));
        }
        for (key, error) in &self.failures {
            out.push_str(&format!("  failed {key}: {error}\n"));
        }
        out
    }

    /// The report as a JSON object (the CI artifact).
    pub fn to_json(&self) -> String {
        let mut root = Map::new();
        root.insert("admitted", Value::Int(self.admitted as i64));
        root.insert("rejected", Value::Int(self.rejected as i64));
        root.insert("completed", Value::Int(self.completed as i64));
        root.insert("failed", Value::Int(self.failed as i64));
        root.insert("batches", Value::Int(self.batches as i64));
        root.insert(
            "experiments_fresh",
            Value::Int(self.experiments_fresh as i64),
        );
        root.insert(
            "experiments_cached",
            Value::Int(self.experiments_cached as i64),
        );
        root.insert("fastpath", Value::Int(self.fastpath as i64));
        root.insert("elapsed_s", Value::Float(self.elapsed_s));
        root.insert("throughput_rps", Value::Float(self.throughput()));
        root.insert("fingerprint_hit_rate", Value::Float(self.hit_rate()));
        let mut tenants = Map::new();
        for (tenant, stats) in &self.tenants {
            let mut m = Map::new();
            m.insert("submitted", Value::Int(stats.submitted as i64));
            m.insert("rejected", Value::Int(stats.rejected as i64));
            m.insert("completed", Value::Int(stats.completed as i64));
            m.insert("failed", Value::Int(stats.failed as i64));
            m.insert("fresh", Value::Int(stats.fresh as i64));
            m.insert("cached", Value::Int(stats.cached as i64));
            m.insert("fastpath", Value::Int(stats.fastpath as i64));
            tenants.insert(tenant.clone(), Value::Map(m));
        }
        root.insert("tenants", Value::Map(tenants));
        let rejections = self
            .rejections
            .iter()
            .map(|r| {
                let mut m = Map::new();
                m.insert("line", Value::Int(r.line as i64));
                m.insert("tenant", Value::str(r.tenant.clone()));
                m.insert("code", Value::str(r.code.clone()));
                m.insert("detail", Value::str(r.detail.clone()));
                Value::Map(m)
            })
            .collect();
        root.insert("rejections", Value::Seq(rejections));
        let failures = self
            .failures
            .iter()
            .map(|(key, error)| {
                let mut m = Map::new();
                m.insert("request", Value::str(key.clone()));
                m.insert("error", Value::str(error.clone()));
                Value::Map(m)
            })
            .collect();
        root.insert("failures", Value::Seq(failures));
        emit_json(&Value::Map(root))
    }
}

/// Renders one request's results as the FOM transcript block body:
/// experiment name, then one indented `name = value units` line per FOM.
/// Deliberately excludes status markers, cache provenance, and telemetry —
/// everything volatile or path-dependent — so the daemon's per-tenant
/// transcripts are byte-comparable against the serial one-shot driver and
/// across `--jobs` counts.
pub fn fom_transcript(results: &[ExperimentResult]) -> String {
    let mut out = String::new();
    for r in results {
        out.push_str(&r.experiment);
        out.push('\n');
        for fom in &r.foms {
            out.push_str(&format!("    {} = {} {}\n", fom.name, fom.value, fom.units));
        }
    }
    out
}
