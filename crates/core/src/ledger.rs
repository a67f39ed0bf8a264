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
//!   loadable. Ledgers are read as bytes and split on `\n`, so this holds
//!   for a line that is not UTF-8 too, such as a record torn inside a
//!   multi-byte character.
//! * **Cheap to replay** — every reader ([`load_ledger`],
//!   [`ShardedLedger::load`], and the valid-record count in [`append_run`])
//!   decodes a line straight into a [`RunRecord`] from a
//!   [`benchpark_yamlite::JsonCursor`], without building a JSON tree first.
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
use benchpark_ramble::{ExperimentResult, ExperimentStatus, FomValue, VarMap};
use benchpark_telemetry::{TelemetryReport, TelemetrySink};
use benchpark_yamlite::{emit_json, JsonCursor, Map, Token, Value};
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
    ///
    /// The line is decoded straight from a [`JsonCursor`], with no
    /// [`Value`] tree in between. It reads JSON the way [`parse_json`]
    /// does: the whole line must be well formed and nest at most 128
    /// levels, unknown keys included, and of a repeated key the last
    /// occurrence counts, so an earlier malformed duplicate does not fail
    /// the line.
    ///
    /// [`parse_json`]: benchpark_yamlite::parse_json
    pub fn parse_line(line: &str) -> Result<RunRecord, String> {
        let mut cursor = JsonCursor::new(line);
        let record = match record(&mut cursor) {
            Ok(record) => record,
            Err(Bad::Json(error) | Bad::Field(error)) => return Err(error),
        };
        cursor.finish()?;
        Ok(record)
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

/// Why a ledger line did not decode: its JSON is malformed, or a well-formed
/// value does not fit its field.
enum Bad {
    Json(String),
    Field(String),
}

impl From<String> for Bad {
    fn from(error: String) -> Bad {
        Bad::Json(error)
    }
}

type Decoded<T> = Result<T, Bad>;

fn bad<T>(message: impl Into<String>) -> Decoded<T> {
    Err(Bad::Field(message.into()))
}

/// The last occurrence of one object key: `None` until the key is seen,
/// then its value or why the value does not fit.
type Slot<T> = Option<Result<T, String>>;

/// Decodes the value due next with `decode`, then skips whatever of it
/// `decode` left unread. A value that does not fit its field comes back as
/// `Ok(Err(_))`, for a [`Slot`] a later duplicate key may still overwrite;
/// only malformed JSON fails at once.
fn field<'a, T>(
    cursor: &mut JsonCursor<'a>,
    decode: impl FnOnce(&mut JsonCursor<'a>) -> Decoded<T>,
) -> Result<Result<T, String>, String> {
    let depth = cursor.depth();
    let decoded = match decode(cursor) {
        Ok(value) => Ok(value),
        Err(Bad::Field(error)) => Err(error),
        Err(Bad::Json(error)) => return Err(error),
    };
    cursor.skip_to(depth)?;
    Ok(decoded)
}

fn required<T>(slot: Slot<T>, missing: &str) -> Decoded<T> {
    slot.unwrap_or_else(|| Err(missing.to_string()))
        .map_err(Bad::Field)
}

fn optional<T: Default>(slot: Slot<T>) -> Decoded<T> {
    slot.unwrap_or_else(|| Ok(T::default())).map_err(Bad::Field)
}

fn text<'a>(cursor: &mut JsonCursor<'a>) -> Decoded<Cow<'a, str>> {
    match cursor.value()? {
        Token::Str(text) => Ok(text),
        _ => bad("expected a string"),
    }
}

/// A non-negative integer: a negative one is corruption, not data, so it
/// fails the record (the loader skips and counts it) rather than being
/// clamped into a valid-looking history.
fn count(token: Token<'_>, what: impl FnOnce() -> String) -> Result<u64, String> {
    match token {
        Token::Int(n) if n >= 0 => Ok(n as u64),
        Token::Int(n) => Err(format!("{} {n} is negative", what())),
        _ => Err(format!("{} must be an integer", what())),
    }
}

fn number(token: Token<'_>) -> Option<f64> {
    match token {
        Token::Int(i) => Some(i as f64),
        Token::Float(f) => Some(f),
        _ => None,
    }
}

/// A scalar as text, the way [`Value::scalar_string`] renders it; `null`
/// and collections (skipped) read as empty.
fn scalar_text<'a>(cursor: &mut JsonCursor<'a>) -> Result<Cow<'a, str>, String> {
    let depth = cursor.depth();
    Ok(match cursor.value()? {
        Token::Str(text) => text,
        Token::Bool(b) => Cow::Borrowed(if b { "true" } else { "false" }),
        Token::Int(i) => Cow::Owned(i.to_string()),
        Token::Float(f) => Cow::Owned(Value::Float(f).scalar_string().unwrap_or_default()),
        Token::Null => Cow::Borrowed(""),
        Token::Map | Token::Seq => {
            cursor.skip_to(depth)?;
            Cow::Borrowed("")
        }
    })
}

/// An object of scalars as a list in first-occurrence order, each key with
/// its last value. A value `decode` rejects fails the list only if no later
/// duplicate replaces it. Anything but an object reads as empty.
fn entries<'a, V>(
    cursor: &mut JsonCursor<'a>,
    decode: impl Fn(&str, Token<'a>) -> Result<V, String>,
) -> Decoded<Vec<(String, V)>> {
    if cursor.value()? != Token::Map {
        return Ok(Vec::new());
    }
    let mut list: Vec<(String, Result<V, String>)> = Vec::new();
    while let Some(key) = cursor.key()? {
        let depth = cursor.depth();
        let value = decode(&key, cursor.value()?);
        cursor.skip_to(depth)?;
        match list.iter_mut().find(|(k, _)| *k == key) {
            Some(entry) => entry.1 = value,
            None => list.push((key.into_owned(), value)),
        }
    }
    // exactly sized: a loaded ledger keeps these lists
    let mut entries = Vec::with_capacity(list.len());
    for (key, value) in list {
        entries.push((key, value.map_err(Bad::Field)?));
    }
    Ok(entries)
}

/// Each item of a sequence through `decode`. Anything but a sequence fails
/// with `missing` when the field is required, else reads as empty.
fn items<'a, T>(
    cursor: &mut JsonCursor<'a>,
    missing: Option<&str>,
    mut decode: impl FnMut(&mut JsonCursor<'a>) -> Decoded<T>,
) -> Decoded<Vec<T>> {
    let mut items = Vec::new();
    if cursor.value()? == Token::Seq {
        while cursor.item()? {
            items.push(decode(cursor)?);
        }
    } else if let Some(missing) = missing {
        return bad(missing);
    }
    Ok(items)
}

/// A two-item sequence `[name, second]`; `None` for any other shape.
fn pair<'a>(cursor: &mut JsonCursor<'a>) -> Result<Option<(Cow<'a, str>, Token<'a>)>, String> {
    if cursor.value()? != Token::Seq || !cursor.item()? {
        return Ok(None);
    }
    let Token::Str(name) = cursor.value()? else {
        return Ok(None);
    };
    if !cursor.item()? {
        return Ok(None);
    }
    let second = cursor.value()?;
    if matches!(second, Token::Map | Token::Seq) || cursor.item()? {
        return Ok(None);
    }
    Ok(Some((name, second)))
}

fn record(cursor: &mut JsonCursor<'_>) -> Decoded<RunRecord> {
    if cursor.value()? != Token::Map {
        return bad("record is not an object");
    }
    let (mut schema, mut sequence, mut request) = (None, None, None);
    let (mut system, mut benchmark, mut variant, mut manifest) = (None, None, None, None);
    let (mut results, mut fingerprints, mut telemetry) = (None, None, None);
    while let Some(key) = cursor.key()? {
        match &*key {
            "schema" => {
                schema = Some(field(cursor, |c| match c.value()? {
                    Token::Int(schema) => Ok(schema),
                    _ => bad("record lacks `schema`"),
                })?)
            }
            "sequence" => {
                sequence = Some(field(cursor, |c| {
                    count(c.value()?, || "sequence".to_string()).map_err(Bad::Field)
                })?)
            }
            "system" => system = Some(field(cursor, text)?),
            "benchmark" => benchmark = Some(field(cursor, text)?),
            "variant" => variant = Some(field(cursor, text)?),
            "manifest" => manifest = Some(field(cursor, text)?),
            "request" => request = Some(field(cursor, request_trace)?),
            "results" => {
                results = Some(field(cursor, |c| {
                    items(c, Some("record lacks `results`"), experiment_result)
                })?)
            }
            "fingerprints" => {
                fingerprints = Some(field(cursor, |c| {
                    entries(c, |_, token| match token {
                        Token::Str(fingerprint) => Ok(fingerprint.into_owned()),
                        _ => Err("fingerprint must be a string".to_string()),
                    })
                })?)
            }
            "telemetry" => telemetry = Some(field(cursor, telemetry_summary)?),
            _ => cursor.skip()?,
        }
    }
    let schema = required(schema, "record lacks `schema`")?;
    if !(LEDGER_SCHEMA_MIN..=LEDGER_SCHEMA).contains(&schema) {
        return bad(format!("unknown ledger schema version {schema}"));
    }
    let (counters, observations) = optional(telemetry)?;
    Ok(RunRecord {
        sequence: required(sequence, "record lacks `sequence`")?,
        system: required(system, "record lacks `system`")?.into_owned(),
        benchmark: required(benchmark, "record lacks `benchmark`")?.into_owned(),
        variant: required(variant, "record lacks `variant`")?.into_owned(),
        manifest: required(manifest, "record lacks `manifest`")?.into_owned(),
        results: required(results, "record lacks `results`")?,
        fingerprints: optional(fingerprints)?,
        counters,
        observations,
        request: optional(request)?,
    })
}

/// The `telemetry` block's counter totals and observation means; anything
/// but an object reads as empty.
#[allow(clippy::type_complexity)]
fn telemetry_summary(
    cursor: &mut JsonCursor<'_>,
) -> Decoded<(Vec<(String, u64)>, Vec<(String, f64)>)> {
    let (mut counters, mut observations) = (None, None);
    if cursor.value()? == Token::Map {
        while let Some(key) = cursor.key()? {
            match &*key {
                "counters" => {
                    counters = Some(field(cursor, |c| {
                        entries(c, |name, token| {
                            count(token, || format!("counter `{name}` total"))
                        })
                    })?)
                }
                "observations" => {
                    observations = Some(field(cursor, |c| {
                        entries(c, |_, token| {
                            number(token)
                                .ok_or_else(|| "observation mean must be numeric".to_string())
                        })
                    })?)
                }
                _ => cursor.skip()?,
            }
        }
    }
    Ok((optional(counters)?, optional(observations)?))
}

/// The `request` block; anything but an object reads as no trace.
fn request_trace(cursor: &mut JsonCursor<'_>) -> Decoded<Option<RequestTrace>> {
    const TICKS: [&str; 6] = [
        "request_id",
        "submit_tick",
        "queue_wait_ticks",
        "schedule_ticks",
        "execute_ticks",
        "commit_ticks",
    ];
    if cursor.value()? != Token::Map {
        return Ok(None);
    }
    let mut tenant = None;
    let mut ticks: [Slot<u64>; 6] = Default::default();
    while let Some(key) = cursor.key()? {
        if key == "tenant" {
            tenant = Some(field(cursor, text)?);
        } else if let Some(i) = TICKS.iter().position(|name| key == *name) {
            ticks[i] = Some(field(cursor, |c| {
                count(c.value()?, || format!("request trace `{}`", TICKS[i])).map_err(Bad::Field)
            })?);
        } else {
            cursor.skip()?;
        }
    }
    let mut values = [0u64; 6];
    for ((value, slot), name) in values.iter_mut().zip(ticks).zip(TICKS) {
        *value = match slot {
            Some(tick) => tick.map_err(Bad::Field)?,
            None => return bad(format!("request trace lacks `{name}`")),
        };
    }
    let [request_id, submit_tick, queue_wait_ticks, schedule_ticks, execute_ticks, commit_ticks] =
        values;
    Ok(Some(RequestTrace {
        tenant: required(tenant, "request trace lacks `tenant`")?.into_owned(),
        request_id,
        submit_tick,
        queue_wait_ticks,
        schedule_ticks,
        execute_ticks,
        commit_ticks,
    }))
}

fn experiment_result(cursor: &mut JsonCursor<'_>) -> Decoded<ExperimentResult> {
    if cursor.value()? != Token::Map {
        return bad("experiment result is not an object");
    }
    let (mut experiment, mut application, mut workload, mut status) = (None, None, None, None);
    let (mut foms, mut criteria, mut variables, mut profile, mut cached) =
        (None, None, None, None, None);
    while let Some(key) = cursor.key()? {
        match &*key {
            "experiment" => experiment = Some(field(cursor, text)?),
            "application" => application = Some(field(cursor, text)?),
            "workload" => workload = Some(field(cursor, text)?),
            "status" => {
                status = Some(field(cursor, |c| match &*text(c)? {
                    "Success" => Ok(ExperimentStatus::Success),
                    "Failed" => Ok(ExperimentStatus::Failed),
                    "JobError" => Ok(ExperimentStatus::JobError),
                    other => bad(format!("unknown experiment status `{other}`")),
                })?)
            }
            "foms" => {
                foms = Some(field(cursor, |c| {
                    items(c, Some("experiment result lacks `foms`"), fom)
                })?)
            }
            "criteria" => {
                criteria = Some(field(cursor, |c| {
                    items(c, None, |c| match pair(c)? {
                        Some((name, Token::Bool(ok))) => Ok((name.into_owned(), ok)),
                        _ => bad("criterion must be a [name, ok] pair"),
                    })
                })?)
            }
            "variables" => {
                variables = Some(field(cursor, |c| {
                    let mut pairs = Vec::new();
                    if c.value()? == Token::Map {
                        while let Some(key) = c.key()? {
                            pairs.push((key, scalar_text(c)?));
                        }
                    }
                    Ok(pairs.into_iter().collect::<VarMap>())
                })?)
            }
            "profile" => {
                profile = Some(field(cursor, |c| {
                    items(c, None, |c| match pair(c)? {
                        Some((name, seconds)) => match number(seconds) {
                            Some(seconds) => Ok((name.into_owned(), seconds)),
                            None => bad("profile seconds must be numeric"),
                        },
                        None => bad("profile entry must be [name, seconds]"),
                    })
                })?)
            }
            // absent in schema-1 records: those were all freshly measured
            "cached" => cached = Some(field(cursor, |c| Ok(c.value()? == Token::Bool(true)))?),
            _ => cursor.skip()?,
        }
    }
    Ok(ExperimentResult {
        experiment: required(experiment, "experiment result lacks `experiment`")?.into_owned(),
        application: required(application, "experiment result lacks `application`")?.into_owned(),
        workload: required(workload, "experiment result lacks `workload`")?.into_owned(),
        status: required(status, "experiment result lacks `status`")?,
        foms: required(foms, "experiment result lacks `foms`")?,
        criteria: optional(criteria)?,
        variables: optional(variables)?,
        profile: optional(profile)?,
        cached: optional(cached)?,
    })
}

fn fom(cursor: &mut JsonCursor<'_>) -> Decoded<FomValue> {
    if cursor.value()? != Token::Map {
        return bad("fom is not an object");
    }
    let (mut name, mut value, mut units, mut context) = (None, None, None, None);
    while let Some(key) = cursor.key()? {
        match &*key {
            "name" => name = Some(field(cursor, text)?),
            "value" => value = Some(field(cursor, text)?),
            "units" => units = Some(field(cursor, text)?),
            "context" => {
                context = Some(field(cursor, |c| {
                    let mut context = BTreeMap::new();
                    if c.value()? == Token::Map {
                        while let Some(key) = c.key()? {
                            context.insert(key.into_owned(), scalar_text(c)?.into_owned());
                        }
                    }
                    Ok(context)
                })?)
            }
            _ => cursor.skip()?,
        }
    }
    Ok(FomValue {
        name: required(name, "fom lacks `name`")?.into_owned(),
        value: required(value, "fom lacks `value`")?.into_owned(),
        units: required(units, "fom lacks `units`")?.into_owned(),
        context: optional(context)?,
    })
}

/// Streams the lines of the file at `path` into `each` as bytes, each with
/// its `\n` if it has one. Nothing is decoded as text here, so a line that
/// is not UTF-8 reaches `each` like any other.
fn read_lines(path: &Path, mut each: impl FnMut(&[u8])) -> std::io::Result<()> {
    use std::io::BufRead as _;
    let mut reader = std::io::BufReader::with_capacity(1 << 16, std::fs::File::open(path)?);
    let mut line = Vec::new();
    while reader.read_until(b'\n', &mut line)? > 0 {
        each(&line);
        line.clear();
    }
    Ok(())
}

/// Decodes one ledger line: `None` when it is blank, else its record or why
/// it is corrupt. A line that is not UTF-8 (say, a record torn inside a
/// multi-byte character) is corrupt like any other.
fn decode_line(line: &[u8]) -> Option<Result<RunRecord, String>> {
    match std::str::from_utf8(line) {
        Ok(text) if text.trim().is_empty() => None,
        Ok(text) => Some(RunRecord::parse_line(text)),
        Err(e) => Some(Err(format!("line is not UTF-8: {e}"))),
    }
}

/// Appends one record to the ledger at `path`, creating the file if needed.
/// The record's `sequence` is stamped from the ledger's current count of
/// *valid* records — the same criterion [`load_ledger`] re-stamps by, line
/// for line — so persisted and replayed sequence numbers agree even when
/// corrupt, non-UTF-8 or unknown-schema lines sit in the file (a count of
/// raw lines would diverge as soon as one line is garbled). The file is
/// streamed as bytes, line by line, rather than slurped, so a growing
/// ledger never costs a whole-history allocation per append. Returns the
/// stamped sequence.
///
/// Crash safety: the record is serialized into a single buffer, written
/// with one `write_all`, and `fsync`ed before this function returns — a
/// caller (like the serve daemon's fingerprint index) never observes an
/// append that is not durable. If the file's last byte is not a newline —
/// the tail of a torn append from a process killed mid-write, perhaps
/// inside a multi-byte character — a newline is emitted first, so the torn
/// fragment stays contained in its own line (skipped and counted by
/// [`load_ledger`]) instead of corrupting this record too.
pub fn append_run(path: &Path, record: &mut RunRecord) -> Result<u64, String> {
    use std::io::Write as _;
    let mut existing = 0u64;
    let mut ends_with_newline = true;
    match read_lines(path, |line| {
        ends_with_newline = line.ends_with(b"\n");
        if let Some(Ok(_)) = decode_line(line) {
            existing += 1;
        }
    }) {
        Ok(()) => {}
        Err(e) if e.kind() == std::io::ErrorKind::NotFound => {}
        Err(e) => return Err(format!("cannot read ledger `{}`: {e}", path.display())),
    }
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

/// Loads a ledger, skipping corrupt lines. The file is read as bytes and
/// split on `\n`; a line that is not UTF-8 is corrupt like a malformed or
/// unknown-schema one, so a record torn inside a multi-byte character costs
/// one line, not the ledger. Each skipped line increments the
/// `obs.ledger.skipped` counter on `sink` (and is tallied in the returned
/// [`LedgerLoad::skipped`]); blank lines are ignored. Loaded runs are
/// re-stamped with consecutive 1-based sequences in file order, so
/// histories assembled from several processes (or with holes from skipped
/// lines) stay monotonic.
pub fn load_ledger(path: &Path, sink: &TelemetrySink) -> Result<LedgerLoad, String> {
    let mut load = LedgerLoad::default();
    read_lines(path, |line| match decode_line(line) {
        None => {}
        Some(Ok(mut record)) => {
            record.sequence = load.runs.len() as u64 + 1;
            load.runs.push(record);
        }
        Some(Err(_)) => {
            load.skipped += 1;
            sink.incr("obs.ledger.skipped", 1);
        }
    })
    .map_err(|e| format!("cannot read ledger `{}`: {e}", path.display()))?;
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
