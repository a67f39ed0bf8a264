//! The metrics database (Figure 6's top-right box; §5's results-with-
//! manifests goal).

use benchpark_perf::{Profile, Thicket};
use benchpark_ramble::{ExperimentResult, ExperimentStatus};
use parking_lot::RwLock;
use std::sync::Arc;

/// One stored experiment result, annotated with its provenance.
#[derive(Debug, Clone)]
pub struct StoredResult {
    pub id: u64,
    /// Monotonic "when" (continuous benchmarking tracks performance over
    /// time; the sequence number stands in for wall-clock).
    pub sequence: u64,
    pub system: String,
    pub benchmark: String,
    pub variant: String,
    /// The exact experiment manifest (environment specs + system), enabling
    /// functional reproduction of the result.
    pub manifest: String,
    pub result: ExperimentResult,
}

/// A thread-safe store of benchmark results across systems and time.
#[derive(Debug, Clone, Default)]
pub struct MetricsDatabase {
    inner: Arc<RwLock<Store>>,
}

#[derive(Debug, Default)]
struct Store {
    records: Vec<StoredResult>,
    next_id: u64,
    sequence: u64,
}

impl MetricsDatabase {
    /// An empty database.
    pub fn new() -> MetricsDatabase {
        MetricsDatabase::default()
    }

    /// Records one analysis batch, all stamped with the same sequence point.
    pub fn record(
        &self,
        system: &str,
        benchmark: &str,
        variant: &str,
        manifest: &str,
        results: &[ExperimentResult],
    ) -> u64 {
        let mut store = self.inner.write();
        store.sequence += 1;
        let sequence = store.sequence;
        for result in results {
            let id = store.next_id;
            store.next_id += 1;
            store.records.push(StoredResult {
                id,
                sequence,
                system: system.to_string(),
                benchmark: benchmark.to_string(),
                variant: variant.to_string(),
                manifest: manifest.to_string(),
                result: result.clone(),
            });
        }
        sequence
    }

    /// All records, as a deep copy (manifests and variable maps included).
    /// Analysis that only reads should use [`MetricsDatabase::with_records`].
    pub fn all(&self) -> Vec<StoredResult> {
        self.inner.read().records.clone()
    }

    /// Calls `f` on every stored record, in insertion order, borrowed under
    /// the read lock: the copy-free read path for analysis. `f` must not
    /// write to this database.
    pub fn with_records<R>(&self, f: impl FnOnce(&[StoredResult]) -> R) -> R {
        f(&self.inner.read().records)
    }

    /// Number of stored results.
    pub fn len(&self) -> usize {
        self.inner.read().records.len()
    }

    /// True when empty.
    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }

    /// Copies of the records matching the given benchmark and system
    /// (`None` = any). Analysis that only reads should use
    /// [`MetricsDatabase::with_records`].
    pub fn query(&self, benchmark: Option<&str>, system: Option<&str>) -> Vec<StoredResult> {
        self.inner
            .read()
            .records
            .iter()
            .filter(|r| benchmark.is_none_or(|b| r.benchmark == b))
            .filter(|r| system.is_none_or(|s| r.system == s))
            .cloned()
            .collect()
    }

    /// `(x, y)` series of a FOM against a numeric experiment variable —
    /// e.g. `triad_bw` against `n_threads` — for one benchmark/system.
    pub fn fom_series(
        &self,
        benchmark: &str,
        system: &str,
        fom: &str,
        x_variable: &str,
    ) -> Vec<(f64, f64)> {
        let mut points: Vec<(f64, f64)> = self
            .query(Some(benchmark), Some(system))
            .into_iter()
            .filter(|r| r.result.status == ExperimentStatus::Success)
            .filter_map(|r| {
                let x: f64 = r.result.variables.get(x_variable)?.parse().ok()?;
                let y = r
                    .result
                    .foms
                    .iter()
                    .find(|f| f.name == fom)
                    .and_then(|f| f.as_f64())?;
                Some((x, y))
            })
            .collect();
        points.sort_by(|a, b| a.0.total_cmp(&b.0));
        points
    }

    /// Converts stored results into a [`Thicket`] of Caliper-style profiles,
    /// with metadata from the experiment variables plus provenance — the
    /// §5 pipeline feeding Extra-P (Figure 14).
    pub fn to_thicket(&self, benchmark: Option<&str>, system: Option<&str>) -> Thicket {
        let profiles: Vec<Profile> = self
            .query(benchmark, system)
            .into_iter()
            .map(|r| {
                let mut metadata: Vec<(String, String)> = r
                    .result
                    .variables
                    .iter()
                    .map(|(k, v)| (k.to_string(), v.to_string()))
                    .collect();
                metadata.push(("system".to_string(), r.system.clone()));
                metadata.push(("benchmark".to_string(), r.benchmark.clone()));
                metadata.push(("sequence".to_string(), r.sequence.to_string()));
                Profile::from_parts(r.result.profile.clone(), metadata)
            })
            .collect();
        Thicket::from_profiles(profiles)
    }

    /// Records a pipeline telemetry report alongside benchmark results:
    /// counters and observation means become FOMs, the span tree becomes the
    /// stored profile — so pipeline health is queryable with the same
    /// machinery as benchmark performance. Volatile observation streams
    /// (wall-clock/worker-count dependent) are excluded, so the stored FOMs
    /// are comparable across runs with different `--jobs`. Returns the
    /// sequence point.
    pub fn record_telemetry(
        &self,
        system: &str,
        report: &benchpark_telemetry::TelemetryReport,
    ) -> u64 {
        use benchpark_ramble::FomValue;
        let mut foms = Vec::new();
        for (name, total) in report.sorted_counters() {
            foms.push(FomValue {
                name: name.to_string(),
                value: total.to_string(),
                units: "count".to_string(),
                context: Default::default(),
            });
        }
        for (name, stats) in report.sorted_observations() {
            if report.is_volatile_observation(name) {
                continue;
            }
            foms.push(FomValue {
                name: name.to_string(),
                value: format!("{:.6}", stats.mean()),
                units: "mean".to_string(),
                context: Default::default(),
            });
        }
        let profile: Vec<(String, f64)> = report
            .spans
            .iter()
            .map(|s| (s.name.to_string(), s.real_seconds.unwrap_or(0.0)))
            .collect();
        let result = ExperimentResult {
            experiment: "pipeline-telemetry".to_string(),
            application: "benchpark".to_string(),
            workload: "pipeline".to_string(),
            status: ExperimentStatus::Success,
            foms,
            criteria: Vec::new(),
            variables: Default::default(),
            profile,
            cached: false,
        };
        self.record(
            system,
            "benchpark-pipeline",
            "telemetry",
            "pipeline self-instrumentation (spans, counters, observations)",
            &[result],
        )
    }

    /// Benchmark usage counts (§5: *"collecting metrics on benchmark usage —
    /// which codes in Benchpark are accessed most heavily"*), most-used
    /// first.
    pub fn usage_counts(&self) -> Vec<(String, usize)> {
        use std::collections::BTreeMap;
        let mut counts: BTreeMap<String, usize> = BTreeMap::new();
        for r in self.inner.read().records.iter() {
            *counts.entry(r.benchmark.clone()).or_insert(0) += 1;
        }
        let mut out: Vec<(String, usize)> = counts.into_iter().collect();
        out.sort_by(|a, b| b.1.cmp(&a.1).then_with(|| a.0.cmp(&b.0)));
        out
    }

    /// A text dashboard: per (benchmark, system), run counts and success
    /// rates — the "quick glance of the multi-dimensional performance data"
    /// §5 asks a dashboard for.
    pub fn render_dashboard(&self) -> String {
        use std::collections::BTreeMap;
        let mut groups: BTreeMap<(String, String), (usize, usize)> = BTreeMap::new();
        for r in self.inner.read().records.iter() {
            let entry = groups
                .entry((r.benchmark.clone(), r.system.clone()))
                .or_insert((0, 0));
            entry.0 += 1;
            if r.result.status == ExperimentStatus::Success {
                entry.1 += 1;
            }
        }
        let mut out = String::from("benchmark            system       runs  success\n");
        for ((benchmark, system), (runs, ok)) in groups {
            out.push_str(&format!(
                "{benchmark:<20} {system:<12} {runs:>4}  {ok:>4}/{runs}\n"
            ));
        }
        out
    }
}
