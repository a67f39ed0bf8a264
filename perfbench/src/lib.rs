//! The repository's benchmark: seeded workloads driven as one process
//! through the public APIs of `serve`, `core` and the layers below them.
//!
//! * `serve-fresh` — a closed-loop client pushing requests that all miss
//!   every fingerprint cache, so each runs the whole pipeline.
//! * `serve-rebench` — CI re-benchmarking an unchanged tree: resubmissions
//!   a primed root answers from its memo fastpath and fingerprint index.
//! * `ledger-scale` — a large sharded history: a regression scan over the
//!   merged root, then appends onto its largest shard mixed with lookups.
//!
//! An untraced run reports the end-to-end metrics; a traced run records
//! spans around the benchmark's calls into each layer (see [`trace`]) and
//! reports the per-layer metrics derived from them.

pub mod common;
pub mod gen;
pub mod layers;
pub mod ledger;
pub mod metrics;
pub mod rng;
pub mod serve;
pub mod stats;
pub mod trace;

use std::path::PathBuf;

#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Workload {
    ServeFresh,
    ServeRebench,
    LedgerScale,
}

impl Workload {
    pub const ALL: [Workload; 3] = [
        Workload::ServeFresh,
        Workload::ServeRebench,
        Workload::LedgerScale,
    ];

    pub fn name(self) -> &'static str {
        match self {
            Workload::ServeFresh => "serve-fresh",
            Workload::ServeRebench => "serve-rebench",
            Workload::LedgerScale => "ledger-scale",
        }
    }

    pub fn parse(name: &str) -> Option<Workload> {
        Workload::ALL.into_iter().find(|w| w.name() == name)
    }
}

/// Input sizes. [`Scale::full`] is what the benchmark measures;
/// [`Scale::tiny`] keeps the same shapes small enough for tests.
#[derive(Debug, Clone)]
pub struct Scale {
    /// Tenant slots of the serve workloads.
    pub tenants: usize,
    /// Requests per push.
    pub push: usize,
    /// Runs of generated history under a serve root.
    pub serve_history: usize,
    /// Regressions planted in that history.
    pub serve_injections: usize,
    /// Requests in the set `serve-rebench` primes and resubmits.
    pub rebench_specs: usize,
    /// One resubmission in this many edits its template.
    pub edit_one_in: usize,
    /// Runs of generated history under the `ledger-scale` root.
    pub ledger_runs: usize,
    /// Tenants of that history; the first owns half of it.
    pub ledger_tenants: usize,
    /// Regressions planted in it.
    pub ledger_injections: usize,
    /// Fingerprint lookups after each append.
    pub lookups_per_append: usize,
    /// Set-up (opening the root) and the regression pass each repeat at
    /// least `reps` times, or as often as fits in `rep_share` of the timed
    /// window; their medians are reported.
    pub reps: usize,
    pub rep_share: f64,
    /// Fewest timed operations a run makes, so at least a tenth of them lie
    /// beyond the p90.
    pub min_ops: usize,
    /// Operations whose spans feed the per-layer counts. A fixed window
    /// keeps the counts identical across runs of one seed, whatever the
    /// run length.
    pub count_ops: u64,
    /// Requests whose transcripts are checked against the one-shot driver.
    pub transcript_samples: usize,
}

impl Scale {
    pub fn full() -> Scale {
        Scale {
            tenants: 64,
            push: 16,
            serve_history: 3000,
            serve_injections: 3,
            rebench_specs: 128,
            edit_one_in: 8,
            ledger_runs: 20_000,
            ledger_tenants: 8,
            ledger_injections: 6,
            lookups_per_append: 8,
            reps: 7,
            rep_share: 0.15,
            min_ops: 100,
            count_ops: 8,
            transcript_samples: 8,
        }
    }

    pub fn tiny() -> Scale {
        Scale {
            tenants: 6,
            push: 4,
            serve_history: 150,
            serve_injections: 2,
            rebench_specs: 8,
            edit_one_in: 3,
            ledger_runs: 400,
            ledger_tenants: 3,
            ledger_injections: 3,
            lookups_per_append: 4,
            reps: 2,
            rep_share: 0.0,
            min_ops: 6,
            count_ops: 4,
            transcript_samples: 3,
        }
    }
}

#[derive(Debug, Clone)]
pub struct Options {
    pub workload: Workload,
    pub seed: u64,
    /// Minimum seconds of timed operations.
    pub seconds: f64,
    pub trace: bool,
    pub scale: Scale,
    /// Scratch directory for the run's roots; emptied before and after.
    pub work: PathBuf,
    /// Where a traced run writes its spans.
    pub spans_out: Option<PathBuf>,
    /// Worker-pool width of the daemon.
    pub jobs: usize,
}

/// What a run reports.
#[derive(Debug, Clone, Default)]
pub struct Outcome {
    pub correct: bool,
    pub attempted: u64,
    pub failed: u64,
    /// `(name, value)` in the order of [`metrics::END_TO_END`] or
    /// [`metrics::PER_LAYER`].
    pub metrics: Vec<(&'static str, f64)>,
    /// Every failed output check, one line each.
    pub failures: Vec<String>,
    /// Counts a test can compare across runs (per-layer counts, and the
    /// workload's own tallies).
    pub counts: Vec<(String, u64)>,
}

/// Runs one workload.
pub fn run(options: &Options) -> Result<Outcome, String> {
    let _ = std::fs::remove_dir_all(&options.work);
    std::fs::create_dir_all(&options.work)
        .map_err(|e| format!("cannot create work dir `{}`: {e}", options.work.display()))?;
    let mut ctx = common::Ctx::new(options);
    let result = match options.workload {
        Workload::ServeFresh => serve::fresh(&mut ctx),
        Workload::ServeRebench => serve::rebench(&mut ctx),
        Workload::LedgerScale => ledger::scale(&mut ctx),
    };
    let _ = std::fs::remove_dir_all(&options.work);
    let measured = result?;
    if let Some(path) = &options.spans_out {
        let header = format!(
            "{{\"workload\": \"{}\", \"seed\": {}, \"jobs\": {}}}",
            options.workload.name(),
            options.seed,
            options.jobs
        );
        ctx.tracer.write_jsonl(path, &header)?;
    }
    Ok(ctx.finish(measured))
}
