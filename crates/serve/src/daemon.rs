//! The serve daemon: intake → fair scheduling → pooled execution →
//! sharded commit.

use crate::queue::{QueuedRequest, RejectReason, SubmissionQueue};
use crate::report::{fom_transcript, RejectionRecord, ServeReport};
use crate::request::ExperimentRequest;
use crate::sched::DrrScheduler;
use crate::slo::SloSpec;
use crate::status::{write_atomic, StageHists, StatusSnapshot};
use crate::window::{CompletionEvent, RollingWindows};
use benchpark_cluster::{FaultPlan, TransientFault};
use benchpark_core::{
    append_run, shard_path, Benchpark, CollectedRun, FingerprintIndex, RequestTrace, RunSpec,
    ShardedLedger, SystemProfile,
};
use benchpark_engine::{Engine, FailurePolicy, TaskGraph, TaskStatus};
use benchpark_obs::{prometheus_text, Timebase};
use benchpark_ramble::{ExperimentResult, ExperimentStatus};
use benchpark_telemetry::{TelemetryReport, TelemetrySink};
use std::collections::BTreeMap;
use std::path::{Path, PathBuf};

/// Daemon configuration: the service root directory, queue quotas, and the
/// worker-pool width.
#[derive(Debug, Clone)]
pub struct ServeConfig {
    /// Service root. Shards live under `<root>/ledger/<tenant>/<system>.jsonl`,
    /// workspaces under `<root>/work/`, FOM transcripts under `<root>/foms/`,
    /// the Prometheus snapshot at `<root>/metrics.prom`.
    pub root: PathBuf,
    /// Admission-control quotas and scheduler parameters.
    pub queue: crate::queue::QueueConfig,
    /// Worker-pool width for each scheduler batch.
    pub jobs: usize,
    /// Declarative SLO targets (`--slo FILE`); verdicts land in the status
    /// snapshot.
    pub slo: Option<SloSpec>,
    /// Where to write the live status snapshot after every drain round
    /// (`--status-out PATH`). The final snapshot always lands at
    /// `<root>/status.json` regardless.
    pub status_out: Option<PathBuf>,
}

impl ServeConfig {
    /// Defaults: default quotas, one worker, no SLOs.
    pub fn new(root: impl AsRef<Path>) -> ServeConfig {
        ServeConfig {
            root: root.as_ref().to_path_buf(),
            queue: crate::queue::QueueConfig::default(),
            jobs: 1,
            slo: None,
            status_out: None,
        }
    }
}

/// The demo transient-fault plan a `faults` request token activates: flaky
/// binary-cache fetches plus an all-but-one node failure mid-drain (the
/// same plan `benchpark trace --faults` uses). Seeded, so deterministic.
pub fn demo_fault_plan(system: &str) -> Result<FaultPlan, String> {
    let nodes = SystemProfile::by_name(system)
        .ok_or_else(|| format!("unknown system `{system}`"))?
        .machine()
        .nodes
        .saturating_sub(1);
    Ok(FaultPlan::new(2023)
        .with(TransientFault::FlakyCacheFetch { rate: 1.0 })
        .with(TransientFault::NodeFailureAt { at_s: 0.25, nodes })
        .with_budget(12))
}

enum Outcome {
    /// Memo fastpath: every experiment spliced from the tenant's index
    /// without touching a workspace.
    Fast(Vec<ExperimentResult>),
    /// Ran through the staged pipeline.
    Ran(Box<CollectedRun>, Option<TelemetryReport>),
    /// The pipeline errored.
    Failed(String),
}

/// Virtual execution ticks for one request: the rounded sum of the
/// *stable* virtual durations in its telemetry report. Only spans that set
/// a non-volatile virtual duration contribute (the cluster scheduler's
/// simulated makespan does; wall-clock-derived spans do not), so the result
/// is identical at any worker count — and inflates deterministically when a
/// seeded fault plan extends the simulated schedule.
fn execute_ticks(report: Option<&TelemetryReport>) -> u64 {
    let Some(report) = report else { return 0 };
    report
        .spans
        .iter()
        .filter(|span| !span.virtual_volatile)
        .filter_map(|span| span.virtual_seconds)
        .sum::<f64>()
        .round() as u64
}

/// The multi-tenant daemon: owns the submission queue, the scheduler, the
/// per-tenant fingerprint indexes over the sharded ledger, and the drain
/// loop. Everything is deterministic in the submission sequence — batch
/// composition, shard contents, and FOM transcripts are identical at any
/// `jobs` count.
pub struct ServeDaemon {
    config: ServeConfig,
    telemetry: TelemetrySink,
    queue: SubmissionQueue,
    sched: DrrScheduler,
    /// Per-tenant fingerprint index over that tenant's ledger shards only:
    /// one tenant's measurements never satisfy another tenant's lookups.
    pub(crate) indexes: BTreeMap<String, FingerprintIndex>,
    /// Spec-key → per-experiment fingerprints of a fully successful run.
    /// Lets a repeat submission skip workspace setup entirely when the
    /// submitting tenant's index already holds every fingerprint.
    memo: BTreeMap<String, Vec<(String, String)>>,
    foms: BTreeMap<String, String>,
    report: ServeReport,
    /// Rolling tick windows feeding the SLO evaluator and status snapshot.
    windows: RollingWindows,
    /// Stage-latency histograms, mirrored into the telemetry sink as
    /// `serve.stage.*` / `serve.tenant.<t>.*` histogram families.
    hists: StageHists,
}

impl ServeDaemon {
    /// Opens the service root: discovers existing ledger shards and builds
    /// each tenant's fingerprint index from its own shards.
    pub fn new(config: ServeConfig) -> Result<ServeDaemon, String> {
        let telemetry = TelemetrySink::recording();
        let indexes =
            ShardedLedger::load(&config.root.join("ledger"), &telemetry)?.into_tenant_indexes();
        let queue = SubmissionQueue::new(config.queue.clone(), telemetry.clone());
        let sched = DrrScheduler::new(&config.queue);
        Ok(ServeDaemon {
            config,
            telemetry,
            queue,
            sched,
            indexes,
            memo: BTreeMap::new(),
            foms: BTreeMap::new(),
            report: ServeReport::default(),
            windows: RollingWindows::default(),
            hists: StageHists::default(),
        })
    }

    /// The daemon's telemetry sink (`serve.*` counters live here).
    pub fn telemetry(&self) -> TelemetrySink {
        self.telemetry.clone()
    }

    /// The running report.
    pub fn report(&self) -> &ServeReport {
        &self.report
    }

    /// Submits one request programmatically. Returns the tenant-FIFO
    /// sequence number on admission.
    pub fn submit(&mut self, request: ExperimentRequest) -> Result<u64, String> {
        self.submit_at(request, 0)
    }

    fn submit_at(&mut self, request: ExperimentRequest, line: usize) -> Result<u64, String> {
        let tick = self.queue.tick();
        match self.queue.admit(request) {
            Ok(seq) => {
                self.report.admitted += 1;
                self.windows.record_submit(tick);
                Ok(seq)
            }
            Err(e) => {
                self.reject(line, e.tenant.clone(), &e.reason);
                Err(e.to_string())
            }
        }
    }

    fn reject(&mut self, line: usize, tenant: String, reason: &RejectReason) {
        self.windows.record_reject(self.queue.tick(), reason.code());
        if !matches!(
            reason,
            RejectReason::BadTenant { .. } | RejectReason::BadRequest { .. }
        ) {
            self.report
                .tenants
                .entry(tenant.clone())
                .or_default()
                .rejected += 1;
        }
        self.report.rejected += 1;
        self.report.rejections.push(RejectionRecord {
            line,
            tenant,
            code: reason.code().to_string(),
            detail: reason.to_string(),
        });
    }

    /// Processes a whole replay/spool text, line by line: parse, resolve
    /// `template=PATH` (relative paths resolve against `base`), admit.
    /// Rejections — including parse failures and unreadable templates —
    /// land in the report's rejection roll; intake never aborts.
    pub fn intake_text(&mut self, text: &str, base: &Path) {
        for (i, raw) in text.lines().enumerate() {
            let line_no = i + 1;
            let mut request = match ExperimentRequest::parse_line(raw) {
                Ok(None) => continue,
                Ok(Some(request)) => request,
                Err(detail) => {
                    let tenant = raw.split_whitespace().next().unwrap_or("-").to_string();
                    let reason = RejectReason::BadRequest { detail };
                    self.telemetry.incr("serve.rejected", 1);
                    self.telemetry
                        .incr(&format!("serve.rejected.{}", reason.code()), 1);
                    self.reject(line_no, tenant, &reason);
                    continue;
                }
            };
            if let Some(path) = request.template_path.clone() {
                let resolved = if path.is_absolute() {
                    path.clone()
                } else {
                    base.join(&path)
                };
                match std::fs::read_to_string(&resolved) {
                    Ok(text) => request.template = Some(text),
                    Err(e) => {
                        let reason = RejectReason::TemplateUnreadable {
                            path: path.display().to_string(),
                            error: e.to_string(),
                        };
                        self.telemetry.incr("serve.rejected", 1);
                        self.telemetry
                            .incr(&format!("serve.rejected.{}", reason.code()), 1);
                        self.reject(line_no, request.tenant.clone(), &reason);
                        continue;
                    }
                }
            }
            let _ = self.submit_at(request, line_no);
        }
    }

    /// Drains the queue to empty: repeated DRR rounds, each fanned out over
    /// the engine pool, each committed (shards, indexes, transcripts) in
    /// pick order. Then flushes the per-tenant FOM transcripts and the
    /// Prometheus snapshot under the root.
    pub fn drain(&mut self) -> Result<&ServeReport, String> {
        let start = std::time::Instant::now();
        while !self.queue.is_empty() {
            // every request picked this round waited until the same tick
            let pick_tick = self.queue.tick();
            let batch = self.sched.next_batch(&mut self.queue);
            if batch.is_empty() {
                return Err("scheduler made no progress with a non-empty queue".to_string());
            }
            self.report.batches += 1;
            self.telemetry.incr("serve.batches", 1);
            self.run_batch(batch, pick_tick)?;
            self.queue.advance_tick(1);
            // sample the depth every drain tick, not just on queue churn —
            // the gauge must show the queue reaching empty
            self.telemetry
                .observe("serve.queue.depth", self.queue.len() as f64);
            self.windows.roll_to(self.queue.tick());
            if let Some(path) = self.config.status_out.clone() {
                self.write_status(&path)?;
            }
        }
        self.report.elapsed_s += start.elapsed().as_secs_f64();
        self.flush()?;
        Ok(&self.report)
    }

    /// The current status snapshot (tick clock, stage latencies, windows,
    /// SLO verdicts).
    pub fn status(&self) -> StatusSnapshot {
        StatusSnapshot::build(
            self.queue.tick(),
            &self.report,
            &self.hists,
            &self.windows,
            self.config.slo.as_ref(),
        )
    }

    fn write_status(&self, path: &Path) -> Result<(), String> {
        write_atomic(path, &self.status().to_json())
    }

    fn fastpath_results(&self, picked: &QueuedRequest) -> Option<Vec<ExperimentResult>> {
        let fingerprints = self.memo.get(&picked.request.spec_key())?;
        let index = self.indexes.get(&picked.request.tenant)?;
        let mut results = Vec::with_capacity(fingerprints.len());
        for (_experiment, fp) in fingerprints {
            let entry = index.lookup_hex(fp)?;
            let mut result = entry.result.clone();
            result.cached = true;
            results.push(result);
        }
        Some(results)
    }

    fn run_batch(&mut self, batch: Vec<QueuedRequest>, pick_tick: u64) -> Result<(), String> {
        // Phase 1 — memo fastpath: repeat submissions whose fingerprints all
        // resolve against the submitting tenant's index skip setup outright.
        let mut outcomes: Vec<Option<Outcome>> = batch.iter().map(|_| None).collect();
        let mut pool: Vec<usize> = Vec::new();
        for (idx, picked) in batch.iter().enumerate() {
            match self.fastpath_results(picked) {
                Some(results) => outcomes[idx] = Some(Outcome::Fast(results)),
                None => pool.push(idx),
            }
        }

        // Phase 2 — fan the rest out over the engine pool. Each request gets
        // its own driver, workspace directory, and recording sink; the
        // tenant's index snapshot (as of batch start) serves cache lookups.
        if !pool.is_empty() {
            let mut graph = TaskGraph::new();
            for &idx in &pool {
                let picked = &batch[idx];
                let id = graph
                    .add_task(
                        &format!(
                            "{}#{}:{}/{}@{}",
                            picked.request.tenant,
                            picked.tenant_seq,
                            picked.request.benchmark,
                            picked.request.variant,
                            picked.request.system
                        ),
                        idx,
                        1.0,
                    )
                    .map_err(|e| e.to_string())?;
                graph.set_policy(id, FailurePolicy::AllowFailure);
            }
            let indexes = &self.indexes;
            let config = &self.config;
            let engine_report = Engine::new(self.config.jobs)
                .run_pool(&graph, |task, _ctx| {
                    let picked = &batch[task.payload];
                    let req = &picked.request;
                    let sink = TelemetrySink::recording();
                    // the request's trace context roots this run's span tree;
                    // every field is a pure function of the intake sequence
                    let ctx = picked.ctx();
                    let span = sink.span("serve.request");
                    span.set_attr("tenant", &ctx.tenant);
                    span.set_attr("request_id", ctx.request_id);
                    span.set_attr("spec_key", &ctx.spec_key);
                    span.set_attr("submit_tick", ctx.submit_tick);
                    let mut benchpark = Benchpark::new().with_telemetry(sink.clone()).with_jobs(1);
                    if req.faults {
                        benchpark = benchpark.with_fault_plan(demo_fault_plan(&req.system)?);
                    }
                    let workdir = config
                        .root
                        .join("work")
                        .join(&req.tenant)
                        .join(format!("req-{:06}", picked.intake_seq));
                    let mut spec =
                        RunSpec::new(&req.benchmark, &req.variant, &req.system, &workdir);
                    if let Some(template) = &req.template {
                        spec = spec.with_template(template.clone());
                    }
                    let collected =
                        benchpark.run_request(&spec, indexes.get(&req.tenant), false)?;
                    drop(span); // close serve.request before snapshotting
                    let report = sink.report();
                    Ok((Box::new(collected), report))
                })
                .map_err(|e| e.to_string())?;
            // `run_pool` reports tasks in insertion order — the `pool` order.
            for (task, &slot) in engine_report.tasks.into_iter().zip(&pool) {
                let outcome = match task.status {
                    TaskStatus::Success => {
                        let (collected, report) = task.output.expect("successful task has output");
                        Outcome::Ran(collected, report)
                    }
                    _ => Outcome::Failed(task.error.unwrap_or_else(|| "skipped".to_string())),
                };
                outcomes[slot] = Some(outcome);
            }
        }

        // Phase 3 — commit in pick order: transcripts, shard appends, index
        // and memo updates. Serialized, so shard sequence numbers, stage
        // ticks, and per-tenant FIFO are exact whatever the pool width was.
        for (idx, picked) in batch.iter().enumerate() {
            let outcome = outcomes[idx]
                .take()
                .expect("every batch entry has an outcome");
            self.commit(picked, outcome, pick_tick, idx as u64)?;
        }
        Ok(())
    }

    /// Stamps one committed request's stage latencies everywhere they are
    /// observable: the daemon's own histograms (status snapshot), the
    /// telemetry sink's histogram families (Prometheus exposition), a
    /// `serve.request` span on the daemon's span tree, and the rolling
    /// windows (SLO horizons). Returns the trace for the ledger record.
    fn stamp_stages(
        &mut self,
        picked: &QueuedRequest,
        pick_tick: u64,
        batch_idx: u64,
        execute: u64,
        event: CompletionEvent,
    ) -> RequestTrace {
        let ctx = picked.ctx();
        let queue_wait = pick_tick.saturating_sub(ctx.submit_tick);
        let schedule = batch_idx;
        let commit = batch_idx + 1;
        if !event.failed {
            self.hists
                .record(&ctx.tenant, queue_wait, schedule, execute, commit);
            for (stage, ticks) in [
                ("queue_wait", queue_wait),
                ("schedule", schedule),
                ("execute", execute),
                ("commit", commit),
            ] {
                self.telemetry
                    .record_hist(&format!("serve.stage.{stage}"), ticks);
            }
            self.telemetry.record_hist(
                &format!("serve.tenant.{}.queue_wait", ctx.tenant),
                queue_wait,
            );
            self.telemetry
                .record_hist(&format!("serve.tenant.{}.execute", ctx.tenant), execute);
        }
        let span = self.telemetry.span("serve.request");
        span.set_attr("tenant", &ctx.tenant);
        span.set_attr("request_id", ctx.request_id);
        span.set_attr("submit_tick", ctx.submit_tick);
        span.set_attr("queue_wait_ticks", queue_wait);
        span.set_attr("schedule_ticks", schedule);
        span.set_attr("execute_ticks", execute);
        span.set_attr("commit_ticks", commit);
        span.set_virtual((queue_wait + schedule + execute + commit) as f64);
        drop(span);
        self.windows.record_complete(
            pick_tick,
            CompletionEvent {
                queue_wait_ticks: queue_wait,
                execute_ticks: execute,
                ..event
            },
        );
        RequestTrace {
            tenant: ctx.tenant,
            request_id: ctx.request_id,
            submit_tick: ctx.submit_tick,
            queue_wait_ticks: queue_wait,
            schedule_ticks: schedule,
            execute_ticks: execute,
            commit_ticks: commit,
        }
    }

    fn commit(
        &mut self,
        picked: &QueuedRequest,
        outcome: Outcome,
        pick_tick: u64,
        batch_idx: u64,
    ) -> Result<(), String> {
        let req = &picked.request;
        let tenant = req.tenant.clone();
        let header = format!(
            "=== {}#{} {}/{} @ {}\n",
            tenant, picked.tenant_seq, req.benchmark, req.variant, req.system
        );
        match outcome {
            Outcome::Fast(results) => {
                let transcript = self.foms.entry(tenant.clone()).or_default();
                transcript.push_str(&header);
                transcript.push_str(&fom_transcript(&results));
                transcript.push('\n');
                let stats = self.report.tenants.entry(tenant.clone()).or_default();
                stats.submitted += 1;
                stats.completed += 1;
                stats.fastpath += 1;
                stats.cached += results.len() as u64;
                self.report.completed += 1;
                self.report.fastpath += 1;
                self.report.experiments_cached += results.len() as u64;
                self.telemetry.incr("serve.completed", 1);
                self.telemetry.incr("serve.fastpath", 1);
                self.telemetry
                    .incr("serve.experiments.cached", results.len() as u64);
                self.telemetry
                    .incr(&format!("serve.tenant.{tenant}.completed"), 1);
                self.stamp_stages(
                    picked,
                    pick_tick,
                    batch_idx,
                    0, // fastpath splices touch no cluster: zero execute ticks
                    CompletionEvent {
                        fastpath: true,
                        cached: results.len() as u64,
                        ..CompletionEvent::default()
                    },
                );
            }
            Outcome::Ran(collected, tel_report) => {
                let transcript = self.foms.entry(tenant.clone()).or_default();
                transcript.push_str(&header);
                transcript.push_str(&fom_transcript(&collected.results));
                transcript.push('\n');
                let fresh = collected.executed.len() as u64;
                let cached = collected.cached() as u64;
                let stats = self.report.tenants.entry(tenant.clone()).or_default();
                stats.submitted += 1;
                stats.completed += 1;
                stats.fresh += fresh;
                stats.cached += cached;
                self.report.completed += 1;
                self.report.experiments_fresh += fresh;
                self.report.experiments_cached += cached;
                self.telemetry.incr("serve.completed", 1);
                self.telemetry.incr("serve.experiments.fresh", fresh);
                self.telemetry.incr("serve.experiments.cached", cached);
                self.telemetry
                    .incr(&format!("serve.tenant.{tenant}.completed"), 1);
                let trace = self.stamp_stages(
                    picked,
                    pick_tick,
                    batch_idx,
                    execute_ticks(tel_report.as_ref()),
                    CompletionEvent {
                        fresh,
                        cached,
                        ..CompletionEvent::default()
                    },
                );
                if let Some(record) = collected.to_record(tel_report.as_ref()) {
                    let mut record = record.with_request(trace);
                    let path =
                        shard_path(&self.config.root.join("ledger"), &tenant, &collected.system);
                    if let Some(parent) = path.parent() {
                        std::fs::create_dir_all(parent)
                            .map_err(|e| format!("cannot create shard dir: {e}"))?;
                    }
                    append_run(&path, &mut record)?;
                    self.indexes
                        .entry(tenant.clone())
                        .or_default()
                        .index_run(&record);
                }
                if collected
                    .results
                    .iter()
                    .all(|r| r.status == ExperimentStatus::Success)
                {
                    let fingerprints: Option<Vec<(String, String)>> = collected
                        .results
                        .iter()
                        .map(|r| {
                            collected
                                .fingerprints
                                .get(&r.experiment)
                                .map(|fp| (r.experiment.clone(), fp.hex()))
                        })
                        .collect();
                    if let Some(fingerprints) = fingerprints {
                        self.memo.insert(req.spec_key(), fingerprints);
                    }
                }
            }
            Outcome::Failed(error) => {
                let stats = self.report.tenants.entry(tenant.clone()).or_default();
                stats.submitted += 1;
                stats.failed += 1;
                self.report.failed += 1;
                self.report.failures.push((
                    format!(
                        "{}#{} {}/{} @ {}",
                        tenant, picked.tenant_seq, req.benchmark, req.variant, req.system
                    ),
                    error,
                ));
                self.telemetry.incr("serve.failed", 1);
                self.telemetry
                    .incr(&format!("serve.tenant.{tenant}.failed"), 1);
                self.stamp_stages(
                    picked,
                    pick_tick,
                    batch_idx,
                    0,
                    CompletionEvent {
                        failed: true,
                        ..CompletionEvent::default()
                    },
                );
            }
        }
        Ok(())
    }

    fn flush(&mut self) -> Result<(), String> {
        let foms_dir = self.config.root.join("foms");
        std::fs::create_dir_all(&foms_dir).map_err(|e| format!("cannot create foms dir: {e}"))?;
        for (tenant, transcript) in &self.foms {
            std::fs::write(foms_dir.join(format!("{tenant}.txt")), transcript)
                .map_err(|e| format!("cannot write FOM transcript: {e}"))?;
        }
        if let Some(report) = self.telemetry.report() {
            let prom = prometheus_text(&report, Timebase::Canonical);
            std::fs::write(self.config.root.join("metrics.prom"), prom)
                .map_err(|e| format!("cannot write metrics.prom: {e}"))?;
        }
        // the final snapshot always lands under the root (what `benchpark
        // status <root>` reads), plus wherever --status-out pointed
        self.write_status(&self.config.root.join("status.json"))?;
        if let Some(path) = self.config.status_out.clone() {
            self.write_status(&path)?;
        }
        Ok(())
    }
}
