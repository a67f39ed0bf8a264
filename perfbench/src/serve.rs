//! The serve workloads: one closed-loop client pushing requests at a
//! daemon whose root holds a seeded history.

use crate::common::{self, Ctx, Measured, Op, Pushed, Seed};
use crate::gen::{self, Req, RequestStream, HISTORY_REQUEST_BASE, PAIRS};
use benchpark_core::{Benchpark, FingerprintIndex, RunSpec, ShardedLedger};
use benchpark_serve::{fom_transcript, ServeDaemon};
use benchpark_telemetry::TelemetrySink;
use std::collections::{BTreeMap, BTreeSet, HashSet};
use std::path::Path;
use std::time::Instant;

/// A serve root with generated history for the stream's first tenants.
fn history_root(
    ctx: &mut Ctx,
    seed: &Seed,
    stream: &RequestStream,
) -> Result<gen::History, String> {
    let scale = &ctx.options.scale;
    let tenants = stream.initial_tenants();
    let mut rng = ctx.rng.fork(2);
    let history = gen::history(
        &mut rng,
        &seed.templates,
        &tenants,
        1.0 / tenants.len() as f64,
        scale.serve_history,
        scale.serve_injections,
    );
    history.write(&ctx.dir("root").join("ledger"))?;
    Ok(history)
}

/// Per-tenant fingerprint indexes over a root, as a daemon builds them.
fn indexes(root: &Path) -> Result<BTreeMap<String, FingerprintIndex>, String> {
    let sharded = ShardedLedger::load(&root.join("ledger"), &TelemetrySink::noop())?;
    Ok(sharded
        .tenant_names()
        .into_iter()
        .map(|t| {
            (
                t.to_string(),
                FingerprintIndex::from_ledger(&sharded.tenant_view(t)),
            )
        })
        .collect())
}

/// Whether the timed loop needs another operation.
fn more(ctx: &Ctx, start: Instant, ops: usize) -> bool {
    ops < ctx.options.scale.min_ops || start.elapsed().as_secs_f64() < ctx.options.seconds
}

/// In a traced run, every other operation records spans, so traced and
/// untraced latencies of one run give the tracing overhead.
fn traced_op(ctx: &Ctx, op: u64) -> bool {
    ctx.tracer.enabled() && op % 2 == 1
}

/// The `(req, header)` pairs of a push that the daemon admitted.
fn admitted<'a>(reqs: &'a [Req], pushed: &'a Pushed) -> Vec<(&'a Req, &'a String)> {
    reqs.iter()
        .zip(&pushed.headers)
        .filter_map(|(req, header)| header.as_ref().map(|h| (req, h)))
        .collect()
}

/// The daemon's commits reloaded from disk: no skipped line, and exactly
/// one run per request id the daemon handed out.
fn check_commits(ctx: &mut Ctx, root: &Path, requests: u64) -> Result<(), String> {
    let sharded = ShardedLedger::load(&root.join("ledger"), &TelemetrySink::noop())?;
    ctx.check(sharded.merged.skipped == 0, || {
        format!("{} ledger lines skipped on reload", sharded.merged.skipped)
    });
    let mut ids: Vec<u64> = sharded
        .merged
        .runs
        .iter()
        .filter_map(|run| run.request.as_ref().map(|r| r.request_id))
        .filter(|&id| id < HISTORY_REQUEST_BASE)
        .collect();
    ids.sort_unstable();
    let unique: BTreeSet<u64> = ids.iter().copied().collect();
    ctx.check(
        ids.len() as u64 == requests && unique.len() == ids.len(),
        || {
            format!(
                "{} committed runs ({} distinct ids) for {requests} requests",
                ids.len(),
                unique.len()
            )
        },
    );
    Ok(())
}

/// Checks a seeded sample of the daemon's FOM transcripts against the
/// one-shot `Benchpark::run_request` path.
fn check_sample(ctx: &mut Ctx, root: &Path, done: &[(Req, String)]) -> Result<(), String> {
    let mut rng = ctx.rng.fork(3);
    let mut expected = Vec::new();
    for k in 0..ctx.options.scale.transcript_samples.min(done.len()) {
        let (req, header) = &done[rng.below(done.len())];
        let (benchmark, variant, system) = PAIRS[req.pair];
        let mut spec = RunSpec::new(benchmark, variant, system, ctx.dir(&format!("oneshot-{k}")));
        if let Some(template) = req.template() {
            spec = spec.with_template(template);
        }
        let collected = Benchpark::new()
            .with_jobs(1)
            .run_request(&spec, None, false)?;
        expected.push((
            req.tenant.clone(),
            header.clone(),
            fom_transcript(&collected.results) + "\n",
        ));
        let _ = std::fs::remove_dir_all(&spec.workspace_dir);
    }
    common::verify_transcripts(ctx, root, &expected);
    Ok(())
}

/// `serve-fresh`: pushes of requests that each miss every cache.
pub fn fresh(ctx: &mut Ctx) -> Result<Measured, String> {
    let seed = common::seed(ctx, false)?;
    let root = ctx.dir("root");
    let mut stream = RequestStream::new(ctx.rng.fork(1), ctx.options.scale.tenants);
    let history = history_root(ctx, &seed, &stream)?;
    let frozen = ctx.dir("frozen");
    common::copy_tree(&root, &frozen)?;
    let mut reps = common::Repeated::new(ctx, &frozen, &frozen, history.injected)?;
    let mut daemon = common::daemon(&root, ctx.options.jobs)?;
    let mut replay_indexes = if ctx.tracer.enabled() {
        indexes(&root)?
    } else {
        BTreeMap::new()
    };

    let mut ops = Vec::new();
    let mut done: Vec<(Req, String)> = Vec::new();
    let mut expected = Vec::new();
    let mut predicted = 0u64;
    let start = Instant::now();
    while more(ctx, start, ops.len()) {
        let op = ops.len() as u64 + 1;
        let reqs = stream.push(ctx.options.scale.push);
        predicted += reqs
            .iter()
            .map(|r| r.experiments(&seed.builtin) as u64)
            .sum::<u64>();
        let traced = traced_op(ctx, op);
        ctx.tracer.set_active(traced);
        let pushed = common::push(ctx, &mut daemon, &reqs, op, &root)?;
        ctx.tracer.set_active(true);
        ctx.check(pushed.completed == reqs.len() as u64, || {
            format!(
                "push {op}: {} of {} requests completed",
                pushed.completed,
                reqs.len()
            )
        });
        ops.push(Op {
            seconds: pushed.seconds,
            busy: pushed.seconds,
            units: pushed.completed,
            traced,
        });
        let items = admitted(&reqs, &pushed);
        if traced {
            let side = ctx.dir("replay-ledger");
            if !side.exists() {
                common::copy_tree(&frozen.join("ledger"), &side)?;
            }
            expected.extend(common::replay(
                ctx,
                &items,
                &mut replay_indexes,
                op,
                Some(&side),
            )?);
        }
        done.extend(items.into_iter().map(|(r, h)| (r.clone(), h.clone())));
        let _ = std::fs::remove_dir_all(root.join("work"));
        reps.catch_up(ctx, start)?;
    }
    let (setup_s, regress_s) = reps.finish(ctx)?;
    finish_checks(ctx, &daemon, predicted, 0);
    check_commits(ctx, &root, done.len() as u64)?;
    common::verify_transcripts(ctx, &root, &expected);
    check_sample(ctx, &root, &done)?;
    ctx.count("requests", done.len() as u64);
    ctx.count("experiments.fresh", predicted);
    Ok(Measured {
        setup_s,
        regress_s,
        ops,
    })
}

/// The daemon's totals against the generator's predictions.
fn finish_checks(ctx: &mut Ctx, daemon: &ServeDaemon, fresh: u64, fastpath: u64) {
    let report = daemon.report();
    ctx.check(report.failed == 0 && report.rejected == 0, || {
        format!(
            "{} requests failed, {} rejected",
            report.failed, report.rejected
        )
    });
    ctx.check(report.experiments_fresh == fresh, || {
        format!(
            "{} experiments ran fresh, the generator predicted {fresh}",
            report.experiments_fresh
        )
    });
    ctx.check(report.fastpath == fastpath, || {
        format!(
            "{} requests took the fastpath, the generator predicted {fastpath}",
            report.fastpath
        )
    });
    if fastpath == 0 {
        ctx.check(report.experiments_cached == 0, || {
            format!(
                "{} experiments came from a cache",
                report.experiments_cached
            )
        });
    }
}

/// A resubmission with one value of its template changed (a built-in
/// request becomes a one-experiment user template).
fn edit(req: &Req, rng: &mut crate::rng::Rng, next_value: &mut u64) -> Req {
    let mut values = req.values.clone().unwrap_or_default();
    if values.is_empty() {
        values.push(*next_value);
    } else {
        let k = rng.below(values.len());
        values[k] = *next_value;
    }
    *next_value += 1;
    Req {
        values: Some(values),
        ..req.clone()
    }
}

/// Edited values start above any value the request stream hands out.
const EDIT_VALUE_BASE: u64 = 100;

/// `serve-rebench`: a primed root, reopened, answering resubmissions.
pub fn rebench(ctx: &mut Ctx) -> Result<Measured, String> {
    let seed = common::seed(ctx, false)?;
    let root = ctx.dir("root");
    let scale = ctx.options.scale.clone();
    let mut stream = RequestStream::new(ctx.rng.fork(1), scale.tenants);
    let history = history_root(ctx, &seed, &stream)?;
    let frozen_history = ctx.dir("frozen-history");
    common::copy_tree(&root, &frozen_history)?;

    // prime: a fresh pass of the seeded request set
    let mut specs: Vec<Req> = stream.push(scale.rebench_specs);
    let mut primer = common::daemon(&root, ctx.options.jobs)?;
    ctx.tracer.set_active(false);
    for chunk in specs.chunks(scale.push) {
        common::push(ctx, &mut primer, chunk, 0, &root)?;
    }
    ctx.tracer.set_active(true);
    let primed: u64 = specs
        .iter()
        .map(|r| r.experiments(&seed.builtin) as u64)
        .sum();
    finish_checks(ctx, &primer, primed, 0);
    drop(primer);
    let _ = std::fs::remove_dir_all(root.join("work"));

    let frozen = ctx.dir("frozen");
    common::copy_tree(&root, &frozen)?;
    let mut reps = common::Repeated::new(ctx, &frozen, &frozen_history, history.injected)?;
    let mut daemon = common::daemon(&root, ctx.options.jobs)?;
    let mut replay_indexes = if ctx.tracer.enabled() {
        indexes(&root)?
    } else {
        BTreeMap::new()
    };
    let mut by_tenant: BTreeMap<String, Vec<usize>> = BTreeMap::new();
    for (i, spec) in specs.iter().enumerate() {
        by_tenant.entry(spec.tenant.clone()).or_default().push(i);
    }
    let tenants: Vec<String> = by_tenant.keys().cloned().collect();
    // what the daemon can answer without running: `has` = (tenant, spec
    // key) pairs whose fingerprints sit in that tenant's index; `memo` =
    // spec keys this daemon has run to success
    let key = |req: &Req| req.request().spec_key();
    let mut has: HashSet<(String, String)> =
        specs.iter().map(|r| (r.tenant.clone(), key(r))).collect();
    let mut memo: HashSet<String> = HashSet::new();
    let mut next_values: BTreeMap<String, u64> = BTreeMap::new();
    let mut rng = ctx.rng.fork(4);

    let mut ops = Vec::new();
    let mut expected = Vec::new();
    let (mut fresh, mut fastpath) = (0u64, 0u64);
    let start = Instant::now();
    while more(ctx, start, ops.len()) {
        let op = ops.len() as u64 + 1;
        // distinct tenants, so a push drains as one scheduler batch
        let mut order = tenants.clone();
        let mut reqs = Vec::new();
        while reqs.len() < scale.push && !order.is_empty() {
            let tenant = order.swap_remove(rng.below(order.len()));
            let owned = &by_tenant[&tenant];
            let i = owned[rng.below(owned.len())];
            if rng.one_in(scale.edit_one_in) {
                let next = next_values.entry(tenant).or_insert(EDIT_VALUE_BASE);
                specs[i] = edit(&specs[i], &mut rng, next);
            }
            reqs.push(specs[i].clone());
        }
        let mut pool = Vec::new();
        let (mut push_fresh, mut push_fast) = (0u64, 0u64);
        for (j, req) in reqs.iter().enumerate() {
            let k = key(req);
            let known = has.contains(&(req.tenant.clone(), k.clone()));
            if known && memo.contains(&k) {
                push_fast += 1;
            } else {
                if !known {
                    push_fresh += req.experiments(&seed.builtin) as u64;
                }
                pool.push(j);
            }
        }
        let traced = traced_op(ctx, op);
        ctx.tracer.set_active(traced);
        let pushed = common::push(ctx, &mut daemon, &reqs, op, &root)?;
        ctx.tracer.set_active(true);
        ctx.check(
            pushed.completed == reqs.len() as u64
                && pushed.fastpath == push_fast
                && pushed.fresh == push_fresh,
            || {
                format!(
                    "push {op}: {} completed, {} fastpath, {} fresh; predicted {}, {push_fast}, {push_fresh}",
                    pushed.completed,
                    pushed.fastpath,
                    pushed.fresh,
                    reqs.len()
                )
            },
        );
        for &j in &pool {
            let k = key(&reqs[j]);
            has.insert((reqs[j].tenant.clone(), k.clone()));
            memo.insert(k);
        }
        fresh += push_fresh;
        fastpath += push_fast;
        ops.push(Op {
            seconds: pushed.seconds,
            busy: pushed.seconds,
            units: pushed.completed,
            traced,
        });
        if traced {
            let items: Vec<(&Req, &String)> = pool
                .iter()
                .filter_map(|&j| pushed.headers[j].as_ref().map(|h| (&reqs[j], h)))
                .collect();
            let side = ctx.dir("replay-ledger");
            if !side.exists() {
                common::copy_tree(&frozen.join("ledger"), &side)?;
            }
            expected.extend(common::replay(
                ctx,
                &items,
                &mut replay_indexes,
                op,
                Some(&side),
            )?);
        }
        let _ = std::fs::remove_dir_all(root.join("work"));
        reps.catch_up(ctx, start)?;
    }
    let (setup_s, regress_s) = reps.finish(ctx)?;
    finish_checks(ctx, &daemon, fresh, fastpath);
    common::verify_transcripts(ctx, &root, &expected);
    ctx.count("requests", ops.iter().map(|o| o.units).sum());
    ctx.count("experiments.fresh", fresh);
    ctx.count("fastpath", fastpath);
    Ok(Measured {
        setup_s,
        regress_s,
        ops,
    })
}
