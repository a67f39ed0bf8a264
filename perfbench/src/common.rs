//! Phases every workload shares: the seed push that yields template runs,
//! opening a root (set-up), the regression pass, and timed pushes.

use crate::gen::{Req, PAIRS};
use crate::rng::Rng;
use crate::trace::Tracer;
use crate::{layers, metrics, Options, Outcome};
use benchpark_core::{scan_regressions, FingerprintIndex, RunRecord, ShardedLedger};
use benchpark_obs::{prometheus_text, Timebase};
use benchpark_serve::{ServeConfig, ServeDaemon};
use benchpark_telemetry::TelemetrySink;
use std::collections::{BTreeMap, BTreeSet};
use std::path::{Path, PathBuf};
use std::time::Instant;

/// Regression threshold of the timed regress pass (`benchpark regress`'s
/// default).
pub const REGRESS_THRESHOLD: f64 = 0.05;

/// One timed operation: a push (serve) or an append (ledger).
#[derive(Debug, Clone, Copy)]
pub struct Op {
    /// Latency: a push from first submit to drain return, or one append.
    pub seconds: f64,
    /// Wall time the operation occupied, including work that follows its
    /// latency (an append's lookups); throughput divides by this.
    pub busy: f64,
    /// Units of work it completed (requests, or appends).
    pub units: u64,
    /// Whether spans were recorded during it.
    pub traced: bool,
}

/// Raw timings a workload hands back for the metrics.
#[derive(Debug, Clone, Default)]
pub struct Measured {
    pub setup_s: Vec<f64>,
    pub regress_s: Vec<f64>,
    pub ops: Vec<Op>,
}

pub struct Ctx<'a> {
    pub options: &'a Options,
    pub tracer: Tracer,
    pub rng: Rng,
    pub failures: Vec<String>,
    pub attempted: u64,
    pub failed: u64,
    pub counts: Vec<(String, u64)>,
}

impl<'a> Ctx<'a> {
    pub fn new(options: &'a Options) -> Ctx<'a> {
        Ctx {
            options,
            tracer: Tracer::new(options.trace),
            rng: Rng::new(options.seed),
            failures: Vec::new(),
            attempted: 0,
            failed: 0,
            counts: Vec::new(),
        }
    }

    /// Records a failed output check unless `ok`.
    pub fn check(&mut self, ok: bool, what: impl FnOnce() -> String) {
        if !ok {
            self.failures.push(what());
        }
    }

    /// Records a tally a test compares across runs.
    pub fn count(&mut self, name: &str, value: u64) {
        self.counts.push((name.to_string(), value));
    }

    pub fn dir(&self, name: &str) -> PathBuf {
        self.options.work.join(name)
    }

    pub fn finish(self, measured: Measured) -> Outcome {
        let metrics = if self.options.trace {
            metrics::per_layer(&self.tracer, &measured, self.options)
        } else {
            metrics::end_to_end(&measured)
        };
        let mut counts = self.counts;
        if self.options.trace {
            counts.extend(metrics::layer_counts(&self.tracer, self.options));
        }
        Outcome {
            correct: self.failures.is_empty(),
            attempted: self.attempted.max(1),
            failed: self.failed + self.failures.len() as u64,
            metrics,
            failures: self.failures,
            counts,
        }
    }
}

pub fn daemon(root: &Path, jobs: usize) -> Result<ServeDaemon, String> {
    ServeDaemon::new(ServeConfig {
        jobs,
        ..ServeConfig::new(root)
    })
}

/// What the seed push yields: each built-in template's experiment count,
/// and per pair one real ledger run of a single-experiment user template,
/// the template for generated history.
pub struct Seed {
    pub builtin: [usize; 12],
    pub templates: [RunRecord; 12],
}

/// Pushes each pair once with its built-in template and once with a
/// one-value user template through a daemon on an empty root, and keeps
/// the committed runs. With `traced`, a traced run records the push and
/// replays it through [`layers::run`].
pub fn seed(ctx: &mut Ctx, traced: bool) -> Result<Seed, String> {
    ctx.tracer.set_active(traced);
    let seed = seed_push(ctx);
    ctx.tracer.set_active(true);
    seed
}

fn seed_push(ctx: &mut Ctx) -> Result<Seed, String> {
    let root = ctx.dir("seed");
    let mut daemon = daemon(&root, ctx.options.jobs)?;
    let reqs: Vec<Req> = [None, Some(vec![0])]
        .into_iter()
        .flat_map(|values| {
            (0..PAIRS.len()).map(move |pair| Req {
                tenant: "seed".to_string(),
                pair,
                values: values.clone(),
            })
        })
        .collect();
    let pushed = push(ctx, &mut daemon, &reqs, 0, &root)?;
    ctx.check(pushed.completed == reqs.len() as u64, || {
        format!("seed push completed {} of {}", pushed.completed, reqs.len())
    });
    if ctx.tracer.recording() {
        let items: Vec<(&Req, &String)> = reqs
            .iter()
            .zip(&pushed.headers)
            .filter_map(|(req, header)| header.as_ref().map(|h| (req, h)))
            .collect();
        let expected = replay(ctx, &items, &mut BTreeMap::new(), 0, None)?;
        verify_transcripts(ctx, &root, &expected);
    }
    // the shard keeps commit order, which is push order: built-ins first
    let sharded = ShardedLedger::load(&root.join("ledger"), &TelemetrySink::noop())?;
    let mut runs: BTreeMap<(bool, usize), RunRecord> = BTreeMap::new();
    for run in sharded.merged.runs {
        let Some(pair) = PAIRS.iter().position(|p| {
            (p.0, p.1, p.2) == (&run.benchmark[..], &run.variant[..], &run.system[..])
        }) else {
            continue;
        };
        let single = runs.contains_key(&(false, pair));
        runs.insert((single, pair), run);
    }
    let mut take = |single: bool| -> Result<[RunRecord; 12], String> {
        let runs: Vec<RunRecord> = (0..PAIRS.len())
            .map(|pair| {
                runs.remove(&(single, pair))
                    .ok_or_else(|| format!("seed push committed no run for pair {pair}"))
            })
            .collect::<Result<_, _>>()?;
        Ok(runs.try_into().expect("one run per pair"))
    };
    let builtin_runs = take(false)?;
    let templates = take(true)?;
    let _ = std::fs::remove_dir_all(&root);
    Ok(Seed {
        builtin: std::array::from_fn(|pair| builtin_runs[pair].results.len()),
        templates,
    })
}

/// What one push did, from the daemon's report.
#[derive(Debug, Clone, Default)]
pub struct Pushed {
    pub seconds: f64,
    /// Transcript header of each admitted request, in push order.
    pub headers: Vec<Option<String>>,
    pub completed: u64,
    pub failed: u64,
    pub rejected: u64,
    pub fastpath: u64,
    pub fresh: u64,
}

/// Submits `reqs` to the daemon and drains it: one closed-loop push. Its
/// time runs from the first submit until `drain` returns. A traced push
/// also times the daemon's status snapshot and Prometheus rendering, and
/// counts the bytes the drain flushed.
pub fn push(
    ctx: &mut Ctx,
    daemon: &mut ServeDaemon,
    reqs: &[Req],
    op: u64,
    root: &Path,
) -> Result<Pushed, String> {
    let requests: Vec<_> = reqs.iter().map(Req::request).collect();
    let before = Tally::of(daemon);
    let tracer = &ctx.tracer;
    tracer.set_context(op, 0);
    let push_span = tracer.span("serve.push");
    let mut seqs = Vec::with_capacity(reqs.len());
    let start = Instant::now();
    for request in requests {
        let _submit = tracer.span("serve.submit");
        seqs.push(daemon.submit(request).ok());
    }
    tracer.time("serve.drain", || daemon.drain().map(|_| ()))?;
    let seconds = start.elapsed().as_secs_f64();
    let headers = reqs
        .iter()
        .zip(seqs)
        .map(|(req, seq)| {
            let (benchmark, variant, system) = PAIRS[req.pair];
            seq.map(|seq| format!("=== {}#{seq} {benchmark}/{variant} @ {system}", req.tenant))
        })
        .collect();
    let after = Tally::of(daemon);
    let pushed = Pushed {
        seconds,
        headers,
        completed: after.completed - before.completed,
        failed: after.failed - before.failed,
        rejected: after.rejected - before.rejected,
        fastpath: after.fastpath - before.fastpath,
        fresh: after.fresh - before.fresh,
    };
    push_span.count("batches", after.batches - before.batches);
    push_span.count("completed", pushed.completed);
    push_span.count("fastpath", pushed.fastpath);
    if tracer.recording() {
        push_span.count("flush_bytes", flushed_bytes(root));
    }
    drop(push_span);
    if tracer.recording() {
        tracer.time("serve.status", || daemon.status());
        if let Some(report) = daemon.telemetry().report() {
            tracer.time("obs.prom", || prometheus_text(&report, Timebase::Canonical));
        }
    }
    ctx.attempted += reqs.len() as u64;
    ctx.failed += pushed.failed + pushed.rejected;
    Ok(pushed)
}

/// The daemon report's running totals.
#[derive(Debug, Clone, Copy)]
struct Tally {
    completed: u64,
    failed: u64,
    rejected: u64,
    fastpath: u64,
    fresh: u64,
    batches: u64,
}

impl Tally {
    fn of(daemon: &ServeDaemon) -> Tally {
        let r = daemon.report();
        Tally {
            completed: r.completed,
            failed: r.failed,
            rejected: r.rejected,
            fastpath: r.fastpath,
            fresh: r.experiments_fresh,
            batches: r.batches,
        }
    }
}

/// Bytes of the files a drain flushes: FOM transcripts, `metrics.prom`
/// and `status.json`.
fn flushed_bytes(root: &Path) -> u64 {
    let size = |p: &Path| std::fs::metadata(p).map_or(0, |m| m.len());
    let foms: u64 = std::fs::read_dir(root.join("foms"))
        .map(|entries| entries.flatten().map(|e| size(&e.path())).sum())
        .unwrap_or(0);
    foms + size(&root.join("metrics.prom")) + size(&root.join("status.json"))
}

/// Replays pushed requests through [`layers::run`] in a side directory
/// (traced runs only): each `(req, header)` of `items` plans against its
/// tenant's entry in `indexes`, which its fresh record then updates, and
/// appends under `shards` when given. Returns `(tenant, header,
/// transcript)` triples the daemon's transcripts must match.
pub fn replay(
    ctx: &mut Ctx,
    items: &[(&Req, &String)],
    indexes: &mut BTreeMap<String, FingerprintIndex>,
    op: u64,
    shards: Option<&Path>,
) -> Result<Vec<(String, String, String)>, String> {
    let mut expected = Vec::new();
    let side = ctx.dir("replay");
    for (i, (req, header)) in items.iter().enumerate() {
        ctx.tracer.set_context(op, i as u64 + 1);
        let shard =
            shards.map(|dir| benchpark_core::shard_path(dir, &req.tenant, PAIRS[req.pair].2));
        let index = indexes.entry(req.tenant.clone()).or_default();
        let layered = layers::run(
            &ctx.tracer,
            req,
            &side.join(format!("req-{op}-{i}")),
            index,
            shard.as_deref(),
        )?;
        if let Some(record) = &layered.record {
            index.index_run(record);
        }
        expected.push((
            req.tenant.clone(),
            (*header).clone(),
            layered.transcript + "\n",
        ));
    }
    let _ = std::fs::remove_dir_all(&side);
    Ok(expected)
}

/// The daemon's transcript blocks for `tenant`, by header line.
pub fn transcripts(root: &Path, tenant: &str) -> BTreeMap<String, String> {
    let text = std::fs::read_to_string(root.join("foms").join(format!("{tenant}.txt")))
        .unwrap_or_default();
    let mut blocks: BTreeMap<String, String> = BTreeMap::new();
    let mut current: Option<String> = None;
    for line in text.lines() {
        if line.starts_with("=== ") {
            current = Some(line.to_string());
            blocks.insert(line.to_string(), String::new());
        } else if let Some(header) = &current {
            let body = blocks.get_mut(header).expect("current block exists");
            body.push_str(line);
            body.push('\n');
        }
    }
    blocks
}

/// Checks each `(tenant, header, body)` against the daemon's transcripts.
pub fn verify_transcripts(ctx: &mut Ctx, root: &Path, expected: &[(String, String, String)]) {
    let mut by_tenant: BTreeMap<&str, BTreeMap<String, String>> = BTreeMap::new();
    for (tenant, header, body) in expected {
        let blocks = by_tenant
            .entry(tenant)
            .or_insert_with(|| transcripts(root, tenant));
        let got = blocks.get(header);
        ctx.check(got == Some(body), || {
            format!("FOM transcript of `{header}` differs from the one-shot path")
        });
    }
}

/// Copies the directory tree `from` to `to`.
pub fn copy_tree(from: &Path, to: &Path) -> Result<(), String> {
    std::fs::create_dir_all(to).map_err(|e| format!("cannot create `{}`: {e}", to.display()))?;
    let entries =
        std::fs::read_dir(from).map_err(|e| format!("cannot read `{}`: {e}", from.display()))?;
    for entry in entries.flatten() {
        let target = to.join(entry.file_name());
        if entry.path().is_dir() {
            copy_tree(&entry.path(), &target)?;
        } else {
            std::fs::copy(entry.path(), &target)
                .map_err(|e| format!("cannot copy `{}`: {e}", entry.path().display()))?;
        }
    }
    Ok(())
}

/// Set-up (opening a root with `ServeDaemon::new`) and the regression pass
/// (`to_database` then `scan_regressions` over the merged root), each
/// repeated across the run's timed window rather than before it. The
/// machine's speed drifts over seconds, so spreading the repetitions makes
/// every metric of a run sample the same stretch of time. Both work on
/// roots frozen before the window opens, so what the timed operations
/// commit does not change them.
pub struct Repeated {
    setup_root: PathBuf,
    ledger: ShardedLedger,
    expected: BTreeSet<(String, String, String)>,
    setup_s: Vec<f64>,
    regress_s: Vec<f64>,
    setup_target: usize,
    regress_target: usize,
}

impl Repeated {
    /// Loads `regress_root`, times one repetition of each phase, and from
    /// those sizes the rest: at least `reps` each, or as many as fit in
    /// `rep_share` of the window. A traced run first splits set-up by
    /// layer: shard load, per-tenant index build, and the JSON parse of
    /// every ledger line.
    pub fn new(
        ctx: &mut Ctx,
        setup_root: &Path,
        regress_root: &Path,
        expected: BTreeSet<(String, String, String)>,
    ) -> Result<Repeated, String> {
        if ctx.tracer.enabled() {
            decompose_setup(ctx, setup_root)?;
        }
        let ledger = ShardedLedger::load(&regress_root.join("ledger"), &TelemetrySink::noop())?;
        let mut repeated = Repeated {
            setup_root: setup_root.to_path_buf(),
            ledger,
            expected,
            setup_s: Vec::new(),
            regress_s: Vec::new(),
            setup_target: 0,
            regress_target: 0,
        };
        repeated.setup(ctx)?;
        repeated.regress(ctx)?;
        let scale = &ctx.options.scale;
        let budget = scale.rep_share * ctx.options.seconds;
        let target = |first: f64| ((budget / first) as usize).clamp(scale.reps.max(1), 64);
        repeated.setup_target = target(repeated.setup_s[0]);
        repeated.regress_target = target(repeated.regress_s[0]);
        Ok(repeated)
    }

    /// The loaded regression root.
    pub fn ledger(&self) -> &ShardedLedger {
        &self.ledger
    }

    /// Runs the repetitions due by now: as the window's elapsed share.
    pub fn catch_up(&mut self, ctx: &mut Ctx, window: Instant) -> Result<(), String> {
        let share = (window.elapsed().as_secs_f64() / ctx.options.seconds.max(1e-9)).min(1.0);
        while (self.setup_s.len() as f64) < share * self.setup_target as f64 {
            self.setup(ctx)?;
        }
        while (self.regress_s.len() as f64) < share * self.regress_target as f64 {
            self.regress(ctx)?;
        }
        Ok(())
    }

    /// Completes the repetitions; returns the set-up and regress times.
    pub fn finish(mut self, ctx: &mut Ctx) -> Result<(Vec<f64>, Vec<f64>), String> {
        while self.setup_s.len() < self.setup_target {
            self.setup(ctx)?;
        }
        while self.regress_s.len() < self.regress_target {
            self.regress(ctx)?;
        }
        ctx.count("regress.flagged", self.expected.len() as u64);
        Ok((self.setup_s, self.regress_s))
    }

    fn setup(&mut self, ctx: &mut Ctx) -> Result<(), String> {
        let start = Instant::now();
        let opened = daemon(&self.setup_root, ctx.options.jobs)?;
        self.setup_s.push(start.elapsed().as_secs_f64());
        drop(opened);
        Ok(())
    }

    fn regress(&mut self, ctx: &mut Ctx) -> Result<(), String> {
        ctx.tracer.set_context(0, 0);
        let start = Instant::now();
        let db = ctx
            .tracer
            .time("core.to_database", || self.ledger.merged.to_database());
        let reports = ctx
            .tracer
            .time("core.scan", || scan_regressions(&db, REGRESS_THRESHOLD));
        self.regress_s.push(start.elapsed().as_secs_f64());
        let flagged: BTreeSet<(String, String, String)> = reports
            .iter()
            .filter(|r| r.regressed)
            .map(|r| (r.benchmark.clone(), r.system.clone(), r.fom.clone()))
            .collect();
        ctx.attempted += 1;
        let expected = &self.expected;
        ctx.check(&flagged == expected, || {
            format!("regress flagged {flagged:?}, planted {expected:?}")
        });
        Ok(())
    }
}

/// The work of `ServeDaemon::new` on `root`, one layer call per span.
fn decompose_setup(ctx: &mut Ctx, root: &Path) -> Result<(), String> {
    let tracer = &ctx.tracer;
    tracer.set_context(0, 0);
    let ledger = root.join("ledger");
    let sharded = tracer.time("core.load", || {
        ShardedLedger::load(&ledger, &TelemetrySink::noop())
    })?;
    let build = tracer.span("core.index_build");
    let tenants = sharded.tenant_names();
    for tenant in &tenants {
        std::hint::black_box(FingerprintIndex::from_ledger(&sharded.tenant_view(tenant)));
    }
    build.count("tenants", tenants.len() as u64);
    drop(build);
    let texts: Vec<String> = sharded
        .shards
        .iter()
        .map(|s| std::fs::read_to_string(&s.path).unwrap_or_default())
        .collect();
    let parse = tracer.span("yamlite.json_parse");
    let mut lines = 0;
    for line in texts.iter().flat_map(|t| t.lines()) {
        if benchpark_yamlite::parse_json(line).is_ok() {
            lines += 1;
        }
    }
    parse.count("lines", lines);
    Ok(())
}
