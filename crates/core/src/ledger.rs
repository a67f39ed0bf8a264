//! The durable run ledger: one self-contained JSONL record per pipeline
//! invocation (paper §3.3, Figure 6 — the *persistent* metrics database the
//! continuous-benchmarking loop ends in).
//!
//! Every `benchpark trace … --export` appends one line to the ledger; later
//! invocations of `benchpark history` / `benchpark regress` replay those
//! lines through [`crate::regression`], so baselines span real prior
//! process lifetimes instead of one in-memory session.
//!
//! Design constraints, in order:
//!
//! * **Self-contained** — each line carries the run's provenance (system,
//!   benchmark/variant, the exact experiment manifest), every experiment
//!   result with FOMs, and a telemetry summary. A collaborator can append
//!   their lines to yours and the history still makes sense.
//! * **Deterministic** — records are emitted through
//!   [`benchpark_yamlite::emit_json`] with fixed field order, and the
//!   telemetry summary excludes *volatile* metrics (wall-clock or
//!   worker-count dependent, see
//!   [`benchpark_telemetry::TelemetryReport::volatile_observations`]), so a
//!   `--jobs 1` and a `--jobs 8` run of the same pipeline append
//!   byte-identical records.
//! * **Corruption-tolerant** — a truncated or garbled line (the process
//!   died mid-append, a careless merge) is skipped and counted under the
//!   `obs.ledger.skipped` telemetry counter; the surrounding history stays
//!   loadable.
//! * **Versioned** — each record carries `schema`; records with an
//!   unrecognized version are skipped like corrupt lines rather than
//!   misread. This build writes schema 3 (which adds the optional
//!   [`RequestTrace`] block the serve daemon stamps: tenant, request id,
//!   and per-stage virtual-tick durations) and still reads schema 2
//!   (per-experiment content-addressed fingerprints, see
//!   [`crate::fingerprint`], and a `cached` provenance marker per result)
//!   and schema-1 lines. An older record simply carries no fingerprints
//!   and/or no request trace — it can never satisfy a fingerprint lookup
//!   and reports absent stage timings, but stays fully usable for
//!   `history`/`regress`.

use crate::fingerprint::FingerprintIndex;
use crate::metrics::MetricsDatabase;
use benchpark_ramble::{ExperimentResult, ExperimentStatus, FomValue};
use benchpark_telemetry::{TelemetryReport, TelemetrySink};
use benchpark_yamlite::{emit_json, parse_json, Map, Value};
use std::borrow::Cow;
use std::collections::BTreeMap;
use std::path::Path;

/// The ledger schema version this build writes.
pub const LEDGER_SCHEMA: i64 = 3;

/// The oldest schema version this build still reads. Records outside
/// `LEDGER_SCHEMA_MIN..=LEDGER_SCHEMA` are skipped as unknown.
pub const LEDGER_SCHEMA_MIN: i64 = 1;

/// The request-scoped trace the serve daemon stamps onto a record at
/// commit (schema 3): who asked, and how long each service stage took in
/// the daemon's virtual clock. All tick values are deterministic functions
/// of the submission sequence — identical at any worker count. Absent on
/// one-shot (`benchpark trace`) records and on schema-1/2 history.
#[derive(Debug, Clone, PartialEq, Eq, Default)]
pub struct RequestTrace {
    /// The submitting tenant.
    pub tenant: String,
    /// Global intake sequence number (1-based).
    pub request_id: u64,
    /// Daemon virtual-clock tick at admission.
    pub submit_tick: u64,
    /// Ticks spent queued between admission and the DRR pick.
    pub queue_wait_ticks: u64,
    /// Dispatch offset within the picked batch (pick-order position).
    pub schedule_ticks: u64,
    /// Virtual execution time: the summed stable virtual-seconds of the
    /// run's simulated phases (cluster drains), rounded to ticks.
    pub execute_ticks: u64,
    /// Position in the batch's serialized commit sequence (1-based).
    pub commit_ticks: u64,
}

/// One pipeline invocation, as persisted in the ledger.
#[derive(Debug, Clone)]
pub struct RunRecord {
    /// Monotonic position in the ledger, assigned by [`append_run`]
    /// (1-based; 0 until appended).
    pub sequence: u64,
    /// System profile the run executed on.
    pub system: String,
    /// Benchmark name.
    pub benchmark: String,
    /// Experiment variant (programming model).
    pub variant: String,
    /// The exact experiment manifest, for functional reproduction.
    pub manifest: String,
    /// Every experiment result of the run.
    pub results: Vec<ExperimentResult>,
    /// Content-addressed fingerprint per experiment (experiment name →
    /// canonical hex, sorted by name; empty for replayed schema-1 records).
    /// This is what lets a later run recognize "nothing changed" and splice
    /// this record's FOMs instead of re-executing.
    pub fingerprints: Vec<(String, String)>,
    /// Telemetry counter totals, sorted by name.
    pub counters: Vec<(String, u64)>,
    /// Means of *stable* observation streams, sorted by name (volatile
    /// streams are excluded by construction).
    pub observations: Vec<(String, f64)>,
    /// The serve daemon's request trace (schema 3); `None` for one-shot
    /// runs and for records replayed from schema-1/2 history.
    pub request: Option<RequestTrace>,
}

impl RunRecord {
    /// Builds a record from one run's outputs. The telemetry summary keeps
    /// counters and stable observation means only.
    pub fn from_run(
        system: &str,
        benchmark: &str,
        variant: &str,
        manifest: &str,
        results: &[ExperimentResult],
        report: Option<&TelemetryReport>,
    ) -> RunRecord {
        let mut counters = Vec::new();
        let mut observations = Vec::new();
        if let Some(report) = report {
            for (name, total) in report.sorted_counters() {
                counters.push((name.to_string(), total));
            }
            for (name, stats) in report.sorted_observations() {
                if !report.is_volatile_observation(name) {
                    observations.push((name.to_string(), stats.mean()));
                }
            }
        }
        RunRecord {
            sequence: 0,
            system: system.to_string(),
            benchmark: benchmark.to_string(),
            variant: variant.to_string(),
            manifest: manifest.to_string(),
            results: results.to_vec(),
            fingerprints: Vec::new(),
            counters,
            observations,
            request: None,
        }
    }

    /// Attaches per-experiment fingerprints (experiment name → canonical
    /// hex); pairs are sorted by experiment name for deterministic
    /// serialization.
    pub fn with_fingerprints(mut self, mut fingerprints: Vec<(String, String)>) -> RunRecord {
        fingerprints.sort();
        self.fingerprints = fingerprints;
        self
    }

    /// Attaches the serve daemon's request trace (schema 3).
    pub fn with_request(mut self, request: RequestTrace) -> RunRecord {
        self.request = Some(request);
        self
    }

    /// Serializes the record as one JSON line (no trailing newline). Field
    /// order is fixed, so equal records serialize byte-identically.
    pub fn to_json_line(&self) -> String {
        let mut root = Map::new();
        root.insert("schema", Value::Int(LEDGER_SCHEMA));
        root.insert("sequence", Value::Int(self.sequence as i64));
        root.insert("system", Value::str(self.system.clone()));
        root.insert("benchmark", Value::str(self.benchmark.clone()));
        root.insert("variant", Value::str(self.variant.clone()));
        root.insert("manifest", Value::str(self.manifest.clone()));
        if let Some(trace) = &self.request {
            let mut request = Map::new();
            request.insert("tenant", Value::str(trace.tenant.clone()));
            request.insert("request_id", Value::Int(trace.request_id as i64));
            request.insert("submit_tick", Value::Int(trace.submit_tick as i64));
            request.insert(
                "queue_wait_ticks",
                Value::Int(trace.queue_wait_ticks as i64),
            );
            request.insert("schedule_ticks", Value::Int(trace.schedule_ticks as i64));
            request.insert("execute_ticks", Value::Int(trace.execute_ticks as i64));
            request.insert("commit_ticks", Value::Int(trace.commit_ticks as i64));
            root.insert("request", Value::Map(request));
        }
        root.insert(
            "results",
            Value::Seq(self.results.iter().map(result_to_value).collect()),
        );
        let mut fingerprints = Map::new();
        for (experiment, fingerprint) in &self.fingerprints {
            fingerprints.insert(experiment, Value::str(fingerprint.clone()));
        }
        root.insert("fingerprints", Value::Map(fingerprints));
        let mut telemetry = Map::new();
        let mut counters = Map::new();
        for (name, total) in &self.counters {
            counters.insert(name, Value::Int(*total as i64));
        }
        telemetry.insert("counters", Value::Map(counters));
        let mut observations = Map::new();
        for (name, mean) in &self.observations {
            observations.insert(name, Value::Float(*mean));
        }
        telemetry.insert("observations", Value::Map(observations));
        root.insert("telemetry", Value::Map(telemetry));
        emit_json(&Value::Map(root))
    }

    /// Parses one ledger line. Fails on malformed JSON, a missing required
    /// field, a malformed field value, or an unknown schema version.
    pub fn parse_line(line: &str) -> Result<RunRecord, String> {
        let doc = parse_json(line)?;
        let schema = doc
            .get("schema")
            .and_then(Value::as_int)
            .ok_or("record lacks `schema`")?;
        if !(LEDGER_SCHEMA_MIN..=LEDGER_SCHEMA).contains(&schema) {
            return Err(format!("unknown ledger schema version {schema}"));
        }
        let text = |key: &str| -> Result<String, String> {
            doc.get(key)
                .and_then(Value::as_str)
                .map(String::from)
                .ok_or_else(|| format!("record lacks `{key}`"))
        };
        let mut results = Vec::new();
        for item in doc
            .get("results")
            .and_then(Value::as_seq)
            .ok_or("record lacks `results`")?
        {
            results.push(result_from_value(item)?);
        }
        let mut fingerprints = Vec::new();
        if let Some(map) = doc.get("fingerprints").and_then(Value::as_map) {
            for (experiment, fingerprint) in map.iter() {
                let fingerprint = fingerprint
                    .as_str()
                    .ok_or("fingerprint must be a string")?
                    .to_string();
                fingerprints.push((experiment.clone(), fingerprint));
            }
        }
        let mut counters = Vec::new();
        let mut observations = Vec::new();
        if let Some(telemetry) = doc.get("telemetry") {
            if let Some(map) = telemetry.get("counters").and_then(Value::as_map) {
                for (name, total) in map.iter() {
                    let total = total.as_int().ok_or("counter total must be an integer")?;
                    // a negative total is corruption, not data — reject the
                    // record (the corrupt-line skip path handles it) rather
                    // than clamp it into a valid-looking history
                    if total < 0 {
                        return Err(format!("counter `{name}` total {total} is negative"));
                    }
                    counters.push((name.clone(), total as u64));
                }
            }
            if let Some(map) = telemetry.get("observations").and_then(Value::as_map) {
                for (name, mean) in map.iter() {
                    let mean = mean.as_float().ok_or("observation mean must be numeric")?;
                    observations.push((name.clone(), mean));
                }
            }
        }
        let mut request = None;
        if let Some(map) = doc.get("request").and_then(Value::as_map) {
            let tick = |key: &str| -> Result<u64, String> {
                let value = map
                    .get(key)
                    .and_then(Value::as_int)
                    .ok_or_else(|| format!("request trace lacks `{key}`"))?;
                if value < 0 {
                    return Err(format!("request trace `{key}` {value} is negative"));
                }
                Ok(value as u64)
            };
            request = Some(RequestTrace {
                tenant: map
                    .get("tenant")
                    .and_then(Value::as_str)
                    .ok_or("request trace lacks `tenant`")?
                    .to_string(),
                request_id: tick("request_id")?,
                submit_tick: tick("submit_tick")?,
                queue_wait_ticks: tick("queue_wait_ticks")?,
                schedule_ticks: tick("schedule_ticks")?,
                execute_ticks: tick("execute_ticks")?,
                commit_ticks: tick("commit_ticks")?,
            });
        }
        let sequence = doc
            .get("sequence")
            .and_then(Value::as_int)
            .ok_or("record lacks `sequence`")?;
        if sequence < 0 {
            return Err(format!("sequence {sequence} is negative"));
        }
        Ok(RunRecord {
            sequence: sequence as u64,
            system: text("system")?,
            benchmark: text("benchmark")?,
            variant: text("variant")?,
            manifest: text("manifest")?,
            results,
            fingerprints,
            counters,
            observations,
            request,
        })
    }

    /// Total for a named counter in this record's telemetry summary.
    pub fn counter(&self, name: &str) -> u64 {
        self.counters
            .iter()
            .find(|(n, _)| n == name)
            .map(|(_, t)| *t)
            .unwrap_or(0)
    }

    /// How many of this record's experiments did not succeed.
    pub fn failed_experiments(&self) -> usize {
        self.results
            .iter()
            .filter(|r| r.status != ExperimentStatus::Success)
            .count()
    }
}

fn result_to_value(result: &ExperimentResult) -> Value {
    let mut rec = Map::new();
    rec.insert("experiment", Value::str(result.experiment.clone()));
    rec.insert("application", Value::str(result.application.clone()));
    rec.insert("workload", Value::str(result.workload.clone()));
    rec.insert("status", Value::str(format!("{:?}", result.status)));
    rec.insert("cached", Value::Bool(result.cached));
    let mut foms = Vec::new();
    for f in &result.foms {
        let mut fom = Map::new();
        fom.insert("name", Value::str(f.name.clone()));
        fom.insert("value", Value::str(f.value.clone()));
        fom.insert("units", Value::str(f.units.clone()));
        if !f.context.is_empty() {
            let mut context = Map::new();
            for (k, v) in &f.context {
                context.insert(k, Value::str(v.clone()));
            }
            fom.insert("context", Value::Map(context));
        }
        foms.push(Value::Map(fom));
    }
    rec.insert("foms", Value::Seq(foms));
    rec.insert(
        "criteria",
        Value::Seq(
            result
                .criteria
                .iter()
                .map(|(name, ok)| Value::Seq(vec![Value::str(name.clone()), Value::Bool(*ok)]))
                .collect(),
        ),
    );
    let mut variables = Map::new();
    for (k, v) in &result.variables {
        variables.insert(k, Value::str(v));
    }
    rec.insert("variables", Value::Map(variables));
    // profiles come from virtual-time execution, so they are deterministic
    // and safe to persist
    rec.insert(
        "profile",
        Value::Seq(
            result
                .profile
                .iter()
                .map(|(name, seconds)| {
                    Value::Seq(vec![Value::str(name.clone()), Value::Float(*seconds)])
                })
                .collect(),
        ),
    );
    Value::Map(rec)
}

fn result_from_value(value: &Value) -> Result<ExperimentResult, String> {
    let text = |key: &str| -> Result<String, String> {
        value
            .get(key)
            .and_then(Value::as_str)
            .map(String::from)
            .ok_or_else(|| format!("experiment result lacks `{key}`"))
    };
    let status = match text("status")?.as_str() {
        "Success" => ExperimentStatus::Success,
        "Failed" => ExperimentStatus::Failed,
        "JobError" => ExperimentStatus::JobError,
        other => return Err(format!("unknown experiment status `{other}`")),
    };
    let mut foms = Vec::new();
    for item in value
        .get("foms")
        .and_then(Value::as_seq)
        .ok_or("experiment result lacks `foms`")?
    {
        let field = |key: &str| -> Result<String, String> {
            item.get(key)
                .and_then(Value::as_str)
                .map(String::from)
                .ok_or_else(|| format!("fom lacks `{key}`"))
        };
        let mut context = BTreeMap::new();
        if let Some(map) = item.get("context").and_then(Value::as_map) {
            for (k, v) in map.iter() {
                context.insert(k.clone(), v.scalar_string().unwrap_or_default());
            }
        }
        foms.push(FomValue {
            name: field("name")?,
            value: field("value")?,
            units: field("units")?,
            context,
        });
    }
    let mut criteria = Vec::new();
    if let Some(items) = value.get("criteria").and_then(Value::as_seq) {
        for pair in items {
            let pair = pair.as_seq().ok_or("criterion must be a [name, ok] pair")?;
            match pair {
                [Value::Str(name), Value::Bool(ok)] => criteria.push((name.clone(), *ok)),
                _ => return Err("criterion must be a [name, ok] pair".to_string()),
            }
        }
    }
    let variables = value
        .get("variables")
        .and_then(Value::as_map)
        .map(|map| {
            map.iter()
                .map(|(k, v)| match v.as_str() {
                    Some(text) => (k, Cow::Borrowed(text)),
                    None => (k, Cow::Owned(v.scalar_string().unwrap_or_default())),
                })
                .collect()
        })
        .unwrap_or_default();
    let mut profile = Vec::new();
    if let Some(items) = value.get("profile").and_then(Value::as_seq) {
        for pair in items {
            let pair = pair
                .as_seq()
                .ok_or("profile entry must be [name, seconds]")?;
            match pair {
                [Value::Str(name), seconds] => profile.push((
                    name.clone(),
                    seconds
                        .as_float()
                        .ok_or("profile seconds must be numeric")?,
                )),
                _ => return Err("profile entry must be [name, seconds]".to_string()),
            }
        }
    }
    Ok(ExperimentResult {
        experiment: text("experiment")?,
        application: text("application")?,
        workload: text("workload")?,
        status,
        foms,
        criteria,
        variables,
        profile,
        // absent in schema-1 records: those were all freshly measured
        cached: value
            .get("cached")
            .and_then(Value::as_bool)
            .unwrap_or(false),
    })
}

/// Appends one record to the ledger at `path`, creating the file if needed.
/// The record's `sequence` is stamped from the ledger's current count of
/// *valid* records — the same criterion [`load_ledger`] re-stamps by — so
/// persisted and replayed sequence numbers agree even when corrupt or
/// unknown-schema lines sit in the file (a count of raw lines would
/// diverge as soon as one line is garbled). The file is streamed line by
/// line rather than slurped, so a growing ledger never costs a
/// whole-history allocation per append. Returns the stamped sequence.
///
/// Crash safety: the record is serialized into a single buffer, written
/// with one `write_all`, and `fsync`ed before this function returns — a
/// caller (like the serve daemon's fingerprint index) never observes an
/// append that is not durable. If the file's last byte is not a newline —
/// the tail of a torn append from a process killed mid-write — a newline
/// is emitted first, so the torn fragment stays contained in its own line
/// (skipped and counted by [`load_ledger`]) instead of corrupting this
/// record too.
pub fn append_run(path: &Path, record: &mut RunRecord) -> Result<u64, String> {
    use std::io::{BufRead as _, Write as _};
    let (existing, ends_with_newline) = match std::fs::File::open(path) {
        Ok(file) => {
            let mut reader = std::io::BufReader::new(file);
            let mut line = String::new();
            let mut valid = 0u64;
            let mut newline_terminated = true;
            loop {
                line.clear();
                let read = reader
                    .read_line(&mut line)
                    .map_err(|e| format!("cannot read ledger `{}`: {e}", path.display()))?;
                if read == 0 {
                    break;
                }
                newline_terminated = line.ends_with('\n');
                if !line.trim().is_empty() && RunRecord::parse_line(line.trim_end()).is_ok() {
                    valid += 1;
                }
            }
            (valid, newline_terminated)
        }
        Err(e) if e.kind() == std::io::ErrorKind::NotFound => (0, true),
        Err(e) => return Err(format!("cannot read ledger `{}`: {e}", path.display())),
    };
    record.sequence = existing + 1;
    let mut payload = String::new();
    if !ends_with_newline {
        payload.push('\n');
    }
    payload.push_str(&record.to_json_line());
    payload.push('\n');
    let mut file = std::fs::OpenOptions::new()
        .create(true)
        .append(true)
        .open(path)
        .map_err(|e| format!("cannot open ledger `{}`: {e}", path.display()))?;
    file.write_all(payload.as_bytes())
        .map_err(|e| format!("cannot append to ledger `{}`: {e}", path.display()))?;
    file.sync_all()
        .map_err(|e| format!("cannot sync ledger `{}`: {e}", path.display()))?;
    Ok(record.sequence)
}

/// What [`load_ledger`] found.
#[derive(Debug, Clone, Default)]
pub struct LedgerLoad {
    /// Valid records, in file order, re-stamped with 1-based sequences.
    pub runs: Vec<RunRecord>,
    /// Corrupt or unknown-schema lines that were skipped.
    pub skipped: usize,
}

impl LedgerLoad {
    /// Replays the loaded runs into a fresh [`MetricsDatabase`], one
    /// sequence point per run in ledger order — the input
    /// [`crate::regression`] expects.
    pub fn to_database(&self) -> MetricsDatabase {
        let db = MetricsDatabase::new();
        for run in &self.runs {
            db.record(
                &run.system,
                &run.benchmark,
                &run.variant,
                &run.manifest,
                &run.results,
            );
        }
        db
    }
}

/// Loads a ledger, skipping corrupt lines. Each skipped line increments the
/// `obs.ledger.skipped` counter on `sink` (and is tallied in the returned
/// [`LedgerLoad::skipped`]). Loaded runs are re-stamped with consecutive
/// 1-based sequences in file order, so histories assembled from several
/// processes (or with holes from skipped lines) stay monotonic.
pub fn load_ledger(path: &Path, sink: &TelemetrySink) -> Result<LedgerLoad, String> {
    let text = std::fs::read_to_string(path)
        .map_err(|e| format!("cannot read ledger `{}`: {e}", path.display()))?;
    let mut load = LedgerLoad::default();
    for line in text.lines() {
        if line.trim().is_empty() {
            continue;
        }
        match RunRecord::parse_line(line) {
            Ok(mut record) => {
                record.sequence = load.runs.len() as u64 + 1;
                load.runs.push(record);
            }
            Err(_) => {
                load.skipped += 1;
                sink.incr("obs.ledger.skipped", 1);
            }
        }
    }
    Ok(load)
}

/// The shard file for one `(tenant, system)` pair under a sharded-ledger
/// root: `<root>/<tenant>/<system>.jsonl`. This is the multi-tenant layout
/// the `benchpark serve` daemon appends to — one schema-2 JSONL ledger per
/// tenant/system, so tenants never contend on (or corrupt) each other's
/// history, while [`ShardedLedger::load`] still presents the union.
pub fn shard_path(root: &Path, tenant: &str, system: &str) -> std::path::PathBuf {
    root.join(tenant).join(format!("{system}.jsonl"))
}

/// One discovered shard of a sharded ledger.
#[derive(Debug, Clone)]
pub struct LedgerShard {
    /// Tenant the shard belongs to (the directory name).
    pub tenant: String,
    /// System the shard records (the file stem).
    pub system: String,
    /// The shard file.
    pub path: std::path::PathBuf,
    /// Valid records loaded from this shard.
    pub runs: usize,
    /// Corrupt or unknown-schema lines skipped in this shard.
    pub skipped: usize,
}

/// A merge-on-query view over a directory of per-tenant/system ledger
/// shards (`<root>/<tenant>/<system>.jsonl`).
///
/// Shards are discovered in sorted `(tenant, system)` order and their
/// records concatenated in file order, then re-stamped with consecutive
/// global sequences — so the merged view is a deterministic function of
/// shard *contents*, independent of the interleaving in which concurrent
/// tenants appended. `history`, `regress`, and `fingerprints` run
/// unchanged over [`ShardedLedger::merged`]; per-tenant fingerprint
/// caches (the serve daemon's read path) come from
/// [`ShardedLedger::tenant_view`].
#[derive(Debug, Clone, Default)]
pub struct ShardedLedger {
    /// Every discovered shard, sorted by `(tenant, system)`.
    pub shards: Vec<LedgerShard>,
    /// All shard records merged in shard order, re-stamped 1-based.
    pub merged: LedgerLoad,
    /// Tenant of `merged.runs[i]`, index-parallel with the merged runs.
    pub tenants: Vec<String>,
}

impl ShardedLedger {
    /// Discovers and loads every `<tenant>/<system>.jsonl` shard under
    /// `root`. Non-directories at the top level and non-`.jsonl` files
    /// inside tenant directories are ignored; corrupt lines are skipped
    /// and counted exactly as [`load_ledger`] counts them. An empty or
    /// missing root yields an empty view, not an error — a daemon's first
    /// boot has no history yet.
    pub fn load(root: &Path, sink: &TelemetrySink) -> Result<ShardedLedger, String> {
        let mut sharded = ShardedLedger::default();
        let entries = match std::fs::read_dir(root) {
            Ok(entries) => entries,
            Err(e) if e.kind() == std::io::ErrorKind::NotFound => return Ok(sharded),
            Err(e) => return Err(format!("cannot read shard root `{}`: {e}", root.display())),
        };
        let mut tenant_dirs: Vec<std::path::PathBuf> = entries
            .filter_map(|e| e.ok().map(|e| e.path()))
            .filter(|p| p.is_dir())
            .collect();
        tenant_dirs.sort();
        for tenant_dir in tenant_dirs {
            let tenant = tenant_dir
                .file_name()
                .and_then(|n| n.to_str())
                .unwrap_or_default()
                .to_string();
            let mut shard_files: Vec<std::path::PathBuf> = std::fs::read_dir(&tenant_dir)
                .map_err(|e| format!("cannot read shard dir `{}`: {e}", tenant_dir.display()))?
                .filter_map(|e| e.ok().map(|e| e.path()))
                .filter(|p| p.is_file() && p.extension().and_then(|e| e.to_str()) == Some("jsonl"))
                .collect();
            shard_files.sort();
            for path in shard_files {
                let system = path
                    .file_stem()
                    .and_then(|n| n.to_str())
                    .unwrap_or_default()
                    .to_string();
                let load = load_ledger(&path, sink)?;
                sharded.shards.push(LedgerShard {
                    tenant: tenant.clone(),
                    system,
                    path,
                    runs: load.runs.len(),
                    skipped: load.skipped,
                });
                sharded.merged.skipped += load.skipped;
                for mut run in load.runs {
                    run.sequence = sharded.merged.runs.len() as u64 + 1;
                    sharded.merged.runs.push(run);
                    sharded.tenants.push(tenant.clone());
                }
            }
        }
        Ok(sharded)
    }

    /// The merged view restricted to one tenant's shards, re-stamped with
    /// consecutive 1-based sequences — the ledger a fingerprint lookup for
    /// that tenant's submissions resolves against (tenant isolation: a
    /// tenant's cache hits come only from its own measurements).
    pub fn tenant_view(&self, tenant: &str) -> LedgerLoad {
        let mut load = LedgerLoad::default();
        for shard in self.shards.iter().filter(|s| s.tenant == tenant) {
            load.skipped += shard.skipped;
        }
        for (run, run_tenant) in self.merged.runs.iter().zip(&self.tenants) {
            if run_tenant == tenant {
                let mut run = run.clone();
                run.sequence = load.runs.len() as u64 + 1;
                load.runs.push(run);
            }
        }
        load
    }

    /// Consumes the view into each tenant's fingerprint index: for every
    /// tenant with a shard, the index
    /// `FingerprintIndex::from_ledger(&self.tenant_view(tenant))` builds,
    /// with the same tenant-local sequences, but with the indexed results
    /// moved out of the merged runs instead of copied.
    pub fn into_tenant_indexes(self) -> BTreeMap<String, FingerprintIndex> {
        // tenant -> (runs seen so far, index)
        let mut indexes: BTreeMap<String, (u64, FingerprintIndex)> = BTreeMap::new();
        for shard in self.shards {
            indexes.entry(shard.tenant).or_default();
        }
        for (mut run, tenant) in self.merged.runs.into_iter().zip(self.tenants) {
            let (seen, index) = indexes.entry(tenant).or_default();
            *seen += 1;
            run.sequence = *seen;
            index.absorb_run(run);
        }
        indexes
            .into_iter()
            .map(|(tenant, (_, index))| (tenant, index))
            .collect()
    }

    /// Tenant names with at least one shard, sorted.
    pub fn tenant_names(&self) -> Vec<&str> {
        let mut names: Vec<&str> = self.shards.iter().map(|s| s.tenant.as_str()).collect();
        names.dedup();
        names
    }

    /// Total records across all shards.
    pub fn len(&self) -> usize {
        self.merged.runs.len()
    }

    /// True when no shard holds a record.
    pub fn is_empty(&self) -> bool {
        self.merged.runs.is_empty()
    }
}
