//! The benchmark at tiny scale: every workload passes its output checks,
//! a traced run's counts repeat exactly for a fixed seed, another seed
//! changes the inputs while every check still passes, and a wrong output
//! fails the run.

use benchpark_core::{Benchpark, RunSpec};
use benchpark_perfbench::common::{self, Ctx, Measured};
use benchpark_perfbench::gen::{user_template, RequestStream, PAIRS};
use benchpark_perfbench::metrics::{END_TO_END, PER_LAYER};
use benchpark_perfbench::rng::Rng;
use benchpark_perfbench::{run, Options, Outcome, Scale, Workload};
use benchpark_ramble::ExperimentStatus;
use benchpark_yamlite::{parse_json, Value};
use std::path::PathBuf;

fn scratch(name: &str) -> PathBuf {
    PathBuf::from(env!("CARGO_TARGET_TMPDIR")).join(format!("perfbench-{name}"))
}

fn options(workload: Workload, seed: u64, trace: bool, tag: &str) -> Options {
    Options {
        workload,
        seed,
        seconds: 0.0,
        trace,
        scale: Scale::tiny(),
        work: scratch(&format!("{tag}-{}", workload.name())),
        spans_out: None,
        jobs: 2,
    }
}

fn outcome(workload: Workload, seed: u64, trace: bool, tag: &str) -> Outcome {
    let outcome = run(&options(workload, seed, trace, tag)).expect("the run completes");
    assert!(
        outcome.correct,
        "{} seed {seed} failed its checks: {:?}",
        workload.name(),
        outcome.failures
    );
    outcome
}

/// Per-layer metrics that are counts (or ratios of counts) and so must
/// repeat exactly.
const COUNT_METRICS: [&str; 10] = [
    "concretizer.solves",
    "spack.cache_hit_ratio",
    "ramble.files_written",
    "ramble.bytes_written",
    "cluster.jobs",
    "core.plan_hit_ratio",
    "core.append_lines_read",
    "serve.batches_per_push",
    "serve.fastpath_ratio",
    "serve.flush_bytes",
];

#[test]
fn every_workload_passes_its_checks_and_reports_every_metric() {
    for workload in Workload::ALL {
        let untraced = outcome(workload, 1, false, "checks");
        let names: Vec<&str> = untraced.metrics.iter().map(|(n, _)| *n).collect();
        let expected: Vec<&str> = END_TO_END.iter().map(|(n, _)| *n).collect();
        assert_eq!(names, expected);
        for (name, value) in &untraced.metrics {
            assert!(value.is_finite() && *value > 0.0, "{name} = {value}");
        }
        assert!(untraced.attempted > 0);
        assert_eq!(untraced.failed, 0);

        let traced = outcome(workload, 1, true, "checks");
        let names: Vec<&str> = traced.metrics.iter().map(|(n, _)| *n).collect();
        let expected: Vec<&str> = PER_LAYER.iter().map(|(n, _)| *n).collect();
        assert_eq!(names, expected);
        for (name, value) in &traced.metrics {
            assert!(value.is_finite(), "{name} = {value}");
            if name.ends_with("_ms") && *name != "trace.overhead_ms" {
                assert!(*value > 0.0, "{} never timed {name}", workload.name());
            }
        }
    }
}

#[test]
fn traced_counts_repeat_exactly_for_a_seed() {
    for workload in Workload::ALL {
        let first = outcome(workload, 7, true, "repeat");
        let second = outcome(workload, 7, true, "repeat");
        assert_eq!(first.counts, second.counts, "{}", workload.name());
        for name in COUNT_METRICS {
            let value = |o: &Outcome| o.metrics.iter().find(|(n, _)| *n == name).map(|(_, v)| *v);
            assert_eq!(value(&first), value(&second), "{} {name}", workload.name());
        }
    }
}

#[test]
fn another_seed_changes_the_inputs_and_keeps_every_check() {
    let mut a = RequestStream::new(Rng::new(1).fork(1), 6);
    let mut b = RequestStream::new(Rng::new(2).fork(1), 6);
    assert_ne!(a.push(8), b.push(8));
    for workload in Workload::ALL {
        let one = outcome(workload, 1, true, "seeds");
        let two = outcome(workload, 2, true, "seeds");
        assert_ne!(one.counts, two.counts, "{}", workload.name());
    }
}

#[test]
fn user_templates_run_for_every_pair_across_the_value_range() {
    for (pair, (benchmark, variant, system)) in PAIRS.iter().enumerate() {
        let dir = scratch(&format!("template-{pair}"));
        let _ = std::fs::remove_dir_all(&dir);
        let values = [0, 95, 100, 260];
        let spec = RunSpec::new(benchmark, variant, system, &dir)
            .with_template(user_template(pair, &values));
        let collected = Benchpark::new()
            .with_jobs(1)
            .run_request(&spec, None, false)
            .expect("the user template runs");
        assert_eq!(collected.results.len(), values.len());
        for result in &collected.results {
            assert_eq!(
                result.status,
                ExperimentStatus::Success,
                "{benchmark}/{variant}@{system}: {}",
                result.experiment
            );
        }
        let _ = std::fs::remove_dir_all(&dir);
    }
}

#[test]
fn a_wrong_transcript_fails_the_run() {
    let options = options(Workload::ServeFresh, 1, false, "mismatch");
    let root = options.work.join("root");
    std::fs::create_dir_all(root.join("foms")).unwrap();
    std::fs::write(
        root.join("foms/alice.txt"),
        "=== alice#1 saxpy/openmp @ cts1\nsaxpy_1\n    time = 1.0 s\n\n",
    )
    .unwrap();
    let header = "=== alice#1 saxpy/openmp @ cts1".to_string();
    let mut ctx = Ctx::new(&options);
    let right = "saxpy_1\n    time = 1.0 s\n\n".to_string();
    common::verify_transcripts(&mut ctx, &root, &[("alice".into(), header.clone(), right)]);
    assert!(ctx.failures.is_empty(), "{:?}", ctx.failures);
    let wrong = "saxpy_1\n    time = 2.0 s\n\n".to_string();
    common::verify_transcripts(&mut ctx, &root, &[("alice".into(), header, wrong)]);
    let outcome = ctx.finish(Measured::default());
    assert!(!outcome.correct);
    assert_eq!(outcome.failed, 1);
    let _ = std::fs::remove_dir_all(&options.work);
}

#[test]
fn benchmark_json_lists_the_workloads_and_metrics_the_benchmark_reports() {
    let path = PathBuf::from(env!("CARGO_MANIFEST_DIR")).join("../BENCHMARK.json");
    let doc = parse_json(&std::fs::read_to_string(path).unwrap()).unwrap();
    let list = |key: &str, field: &str| -> Vec<String> {
        doc.get(key)
            .and_then(Value::as_seq)
            .unwrap()
            .iter()
            .map(|item| item.get(field).and_then(Value::as_str).unwrap().to_string())
            .collect()
    };
    let workloads: Vec<String> = Workload::ALL.iter().map(|w| w.name().to_string()).collect();
    assert_eq!(list("workloads", "name"), workloads);
    for (key, reported) in [
        ("end_to_end", &END_TO_END[..]),
        ("per_layer", &PER_LAYER[..]),
    ] {
        let names: Vec<String> = reported.iter().map(|(n, _)| n.to_string()).collect();
        let units: Vec<String> = reported.iter().map(|(_, u)| u.to_string()).collect();
        assert_eq!(list(key, "name"), names, "{key} names");
        assert_eq!(list(key, "unit"), units, "{key} units");
    }
}
