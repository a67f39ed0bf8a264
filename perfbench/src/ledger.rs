//! `ledger-scale`: a large sharded history that only grows. A regression
//! scan over the merged root, then appends onto its largest shard, each
//! followed by fingerprint lookups.

use crate::common::{self, Ctx, Measured, Op};
use crate::gen::{self, HISTORY_REQUEST_BASE};
use benchpark_core::{append_run, shard_path, FingerprintIndex};
use std::time::Instant;

pub fn scale(ctx: &mut Ctx) -> Result<Measured, String> {
    let seed = common::seed(ctx, true)?;
    let root = ctx.dir("root");
    let scale = ctx.options.scale.clone();
    let tenants: Vec<String> = (0..scale.ledger_tenants).map(|t| format!("l{t}")).collect();
    let mut rng = ctx.rng.fork(2);
    let history = gen::history(
        &mut rng,
        &seed.templates,
        &tenants,
        0.5,
        scale.ledger_runs,
        scale.ledger_injections,
    );
    history.write(&root.join("ledger"))?;
    let (owner, system) = history.largest_shard();
    let base_len = history.shards[&(owner.clone(), system.clone())].len() as u64;
    let injected = history.injected.clone();
    drop(history);
    let frozen = ctx.dir("frozen");
    common::copy_tree(&root, &frozen)?;
    let mut reps = common::Repeated::new(ctx, &frozen, &frozen, injected)?;

    // the owner's index and the fingerprints it must resolve
    let view = reps.ledger().tenant_view(&owner);
    let mut known: Vec<String> = view
        .runs
        .iter()
        .flat_map(|run| run.fingerprints.iter().map(|(_, fp)| fp.clone()))
        .collect();
    let mut index = FingerprintIndex::from_ledger(&view);
    drop(view);
    let path = shard_path(&root.join("ledger"), &owner, &system);

    let mut ops = Vec::new();
    let start = Instant::now();
    while ops.len() < scale.min_ops || start.elapsed().as_secs_f64() < ctx.options.seconds {
        let op = ops.len() as u64 + 1;
        let traced = ctx.tracer.enabled() && op % 2 == 1;
        ctx.tracer.set_active(traced);
        ctx.tracer.set_context(op, 0);
        let pair = gen::pick_pair(&mut rng, &system);
        let mut run = gen::synth_run(
            &seed.templates[pair],
            &mut rng,
            &owner,
            HISTORY_REQUEST_BASE + scale.ledger_runs as u64 + op,
        );
        let begin = Instant::now();
        let append = ctx.tracer.span("core.append");
        let sequence = append_run(&path, &mut run);
        let seconds = begin.elapsed().as_secs_f64();
        let sequence = sequence?;
        append.count("lines", sequence - 1);
        drop(append);
        index.index_run(&run);
        let mut misses = 0;
        for k in 0..scale.lookups_per_append {
            let (fingerprint, present) = match k % 3 {
                0 => (run.fingerprints[k % run.fingerprints.len()].1.clone(), true),
                1 => (known[rng.below(known.len())].clone(), true),
                _ => (rng.hex(), false),
            };
            if index.lookup_hex(&fingerprint).is_some() != present {
                misses += 1;
            }
        }
        let busy = begin.elapsed().as_secs_f64();
        ctx.tracer.set_active(true);
        known.extend(run.fingerprints.iter().map(|(_, fp)| fp.clone()));
        ctx.attempted += 1 + scale.lookups_per_append as u64;
        ctx.check(sequence == base_len + op, || {
            format!(
                "append {op} got sequence {sequence}, expected {}",
                base_len + op
            )
        });
        ctx.check(misses == 0, || {
            format!("append {op}: {misses} lookups answered wrongly")
        });
        ops.push(Op {
            seconds,
            busy,
            units: 1,
            traced,
        });
        reps.catch_up(ctx, start)?;
    }
    let (setup_s, regress_s) = reps.finish(ctx)?;
    ctx.count("appends", ops.len() as u64);
    ctx.count("shard.lines", base_len);
    Ok(Measured {
        setup_s,
        regress_s,
        ops,
    })
}
