//! Tests for the observability layer: the durable run ledger, regression
//! edge cases, the units heuristic, the whole-database scan, and the
//! failed-experiment gate.

use crate::{
    append_run, baseline_verdict, detect_regression, gate_failed_experiments, load_ledger,
    lower_is_better_units, scan_regressions, MetricsDatabase, RequestTrace, RunRecord,
};
use benchpark_ramble::{ExperimentResult, ExperimentStatus, FomValue};
use benchpark_telemetry::TelemetrySink;

fn temp_ledger(tag: &str) -> std::path::PathBuf {
    let dir = std::env::temp_dir().join(format!("benchpark-obs-{tag}-{}", std::process::id()));
    let _ = std::fs::remove_dir_all(&dir);
    std::fs::create_dir_all(&dir).unwrap();
    dir.join("ledger.jsonl")
}

fn result(fom: &str, value: f64, units: &str, status: ExperimentStatus) -> ExperimentResult {
    ExperimentResult {
        experiment: "exp_1".to_string(),
        application: "stream".to_string(),
        workload: "stream".to_string(),
        status,
        foms: vec![FomValue {
            name: fom.to_string(),
            value: value.to_string(),
            units: units.to_string(),
            context: Default::default(),
        }],
        criteria: vec![("found_fom".to_string(), true)],
        variables: [("n_threads".to_string(), "8".to_string())].into(),
        profile: vec![("kernel".to_string(), 1.5)],
        cached: false,
    }
}

fn record(value: f64) -> RunRecord {
    RunRecord::from_run(
        "cts1",
        "stream",
        "openmp",
        "manifest: stream/openmp on cts1",
        &[result("triad_bw", value, "MB/s", ExperimentStatus::Success)],
        None,
    )
}

// ---------------------------------------------------------------------------
// Ledger persistence
// ---------------------------------------------------------------------------

#[test]
fn ledger_record_round_trips_through_json() {
    let sink = TelemetrySink::recording();
    sink.incr("cache.hit", 4);
    sink.observe("queue.depth", 2.0);
    sink.observe_volatile("install.makespan_seconds", 9.0);
    let report = sink.report().unwrap();
    let mut original = RunRecord::from_run(
        "ats2",
        "amg2023",
        "cuda",
        "manifest text\nwith two lines",
        &[result("fom_a", 42.5, "GB/s", ExperimentStatus::Success)],
        Some(&report),
    );
    original.sequence = 7;
    let parsed = RunRecord::parse_line(&original.to_json_line()).expect("round trip");
    assert_eq!(parsed.sequence, 7);
    assert_eq!(parsed.system, "ats2");
    assert_eq!(parsed.benchmark, "amg2023");
    assert_eq!(parsed.variant, "cuda");
    assert_eq!(parsed.manifest, original.manifest);
    assert_eq!(parsed.counters, original.counters);
    assert_eq!(parsed.counter("cache.hit"), 4);
    // volatile observation stream excluded by construction
    assert!(original
        .observations
        .iter()
        .all(|(n, _)| n == "queue.depth"));
    assert_eq!(parsed.observations, original.observations);
    let r = &parsed.results[0];
    assert_eq!(r.status, ExperimentStatus::Success);
    assert_eq!(r.foms[0].name, "fom_a");
    assert_eq!(r.foms[0].value, "42.5");
    assert_eq!(r.criteria, vec![("found_fom".to_string(), true)]);
    assert_eq!(&r.variables["n_threads"], "8");
    assert_eq!(r.profile, vec![("kernel".to_string(), 1.5)]);
    // deterministic serialization: emitting the parsed record is byte-identical
    assert_eq!(parsed.to_json_line(), original.to_json_line());
}

/// Result variables keep their bytes through a ledger line: keys in
/// ascending order, control and non-ASCII characters intact, and a parsed
/// line re-emits byte-for-byte.
#[test]
fn ledger_line_round_trips_unusual_variables_byte_for_byte() {
    let mut exp = result("fom_a", 1.0, "s", ExperimentStatus::Success);
    exp.variables = [
        ("n_threads", "8"),
        ("line\nbreak", "two\nlines"),
        ("nul\0key", "nul\0value"),
        ("größe", "日本語"),
        ("", ""),
    ]
    .into();
    let line =
        RunRecord::from_run("cts1", "stream", "openmp", "m", &[exp.clone()], None).to_json_line();
    assert!(
        line.contains(
            r#""variables":{"":"","größe":"日本語","line\nbreak":"two\nlines","n_threads":"8","nul\u0000key":"nul\u0000value"}"#
        ),
        "{line}"
    );
    let parsed = RunRecord::parse_line(&line).unwrap();
    assert_eq!(parsed.results[0].variables, exp.variables);
    assert_eq!(parsed.to_json_line(), line);
}

#[test]
fn ledger_append_stamps_consecutive_sequences() {
    let path = temp_ledger("append");
    for expected in 1..=3u64 {
        let mut rec = record(100.0);
        let got = append_run(&path, &mut rec).expect("append");
        assert_eq!(got, expected);
        assert_eq!(rec.sequence, expected);
    }
    let text = std::fs::read_to_string(&path).unwrap();
    assert_eq!(text.lines().count(), 3);
}

#[test]
fn ledger_load_skips_corrupt_and_unknown_schema_lines() {
    let path = temp_ledger("corrupt");
    let mut first = record(100.0);
    append_run(&path, &mut first).unwrap();
    // a truncated append and a future schema version land between two
    // good records
    use std::io::Write as _;
    let mut file = std::fs::OpenOptions::new()
        .append(true)
        .open(&path)
        .unwrap();
    writeln!(file, "{{\"schema\":1,\"sequence\":99,\"trunc").unwrap();
    writeln!(file, "{{\"schema\":999,\"sequence\":2}}").unwrap();
    drop(file);
    let mut last = record(90.0);
    append_run(&path, &mut last).unwrap();

    let sink = TelemetrySink::recording();
    let load = load_ledger(&path, &sink).expect("load survives corruption");
    assert_eq!(load.runs.len(), 2);
    assert_eq!(load.skipped, 2);
    assert_eq!(sink.report().unwrap().counter("obs.ledger.skipped"), 2);
    // survivors are re-stamped with consecutive sequences
    assert_eq!(load.runs[0].sequence, 1);
    assert_eq!(load.runs[1].sequence, 2);
}

#[test]
fn ledger_replay_feeds_regression_scan() {
    let path = temp_ledger("replay");
    for value in [100.0, 100.0, 100.0, 50.0] {
        let mut rec = record(value);
        append_run(&path, &mut rec).unwrap();
    }
    let load = load_ledger(&path, &TelemetrySink::noop()).unwrap();
    let db = load.to_database();
    let reports = scan_regressions(&db, 0.10);
    assert_eq!(reports.len(), 1);
    let report = &reports[0];
    assert_eq!(
        (report.benchmark.as_str(), report.fom.as_str()),
        ("stream", "triad_bw")
    );
    assert!(report.regressed, "{}", report.render());
}

// ---------------------------------------------------------------------------
// Regression edge cases
// ---------------------------------------------------------------------------

#[test]
fn regression_zero_baseline_std_flags_any_real_drop() {
    // byte-identical baseline runs have zero variance; the 2-sigma noise
    // band degenerates to "any difference", and the threshold alone decides
    let db = MetricsDatabase::new();
    for _ in 0..3 {
        db.record(
            "cts1",
            "stream",
            "openmp",
            "m",
            &[result("triad_bw", 100.0, "MB/s", ExperimentStatus::Success)],
        );
    }
    db.record(
        "cts1",
        "stream",
        "openmp",
        "m",
        &[result("triad_bw", 88.0, "MB/s", ExperimentStatus::Success)],
    );
    let report = detect_regression(&db, "stream", "cts1", "triad_bw", true, 0.10).unwrap();
    assert_eq!(report.baseline_std, 0.0);
    assert!(report.regressed, "{}", report.render());
}

#[test]
fn regression_quiet_on_identical_reruns() {
    let db = MetricsDatabase::new();
    for _ in 0..4 {
        db.record(
            "cts1",
            "stream",
            "openmp",
            "m",
            &[result("triad_bw", 100.0, "MB/s", ExperimentStatus::Success)],
        );
    }
    let report = detect_regression(&db, "stream", "cts1", "triad_bw", true, 0.10).unwrap();
    assert!(!report.regressed, "{}", report.render());
    assert_eq!(report.change, 0.0);
}

#[test]
fn regression_ignores_failed_experiments() {
    let db = MetricsDatabase::new();
    db.record(
        "cts1",
        "stream",
        "openmp",
        "m",
        &[result("triad_bw", 100.0, "MB/s", ExperimentStatus::Success)],
    );
    db.record(
        "cts1",
        "stream",
        "openmp",
        "m",
        &[result("triad_bw", 100.0, "MB/s", ExperimentStatus::Success)],
    );
    // an all-failed sequence contributes nothing: still only 2 usable
    // sequences, so no verdict
    db.record(
        "cts1",
        "stream",
        "openmp",
        "m",
        &[result("triad_bw", 1.0, "MB/s", ExperimentStatus::Failed)],
    );
    assert!(detect_regression(&db, "stream", "cts1", "triad_bw", true, 0.10).is_none());
    // one more success: the failed sequence is skipped, not treated as latest
    db.record(
        "cts1",
        "stream",
        "openmp",
        "m",
        &[result("triad_bw", 100.0, "MB/s", ExperimentStatus::Success)],
    );
    let report = detect_regression(&db, "stream", "cts1", "triad_bw", true, 0.10).unwrap();
    assert!(!report.regressed, "{}", report.render());
}

#[test]
fn units_heuristic_classifies_directions() {
    // table-driven: (units, lower_is_better)
    let cases = [
        // plain time units, smallest to largest, with common spellings
        ("s", true),
        ("sec", true),
        ("secs", true),
        ("seconds", true),
        ("Seconds", true),
        ("ms", true),
        ("msecs", true),
        ("us", true),
        ("usec", true),
        ("usecs", true),
        ("microseconds", true),
        ("ns", true),
        ("nsecs", true),
        ("min", true),
        ("mins", true),
        ("minutes", true),
        ("h", true),
        ("hr", true),
        ("hours", true),
        ("total_seconds", true),
        ("p99_latency", true),
        // time per unit of work is a cost
        ("s/iter", true),
        ("ms/op", true),
        ("usec/call", true),
        ("Sec/Step", true),
        ("minutes/rep", true),
        // work per unit of time is a rate
        ("MB/s", false),
        ("GB/s", false),
        ("iter/s", false),
        ("iterations/sec", false),
        ("ops/ms", false),
        // unknown denominators stay higher-is-better
        ("s/node", false),
        // not time at all
        ("count", false),
        ("", false),
        ("FLOPS", false),
        ("minsize", false),
        ("hours_of_uptime", false),
    ];
    for (units, lower) in cases {
        assert_eq!(
            lower_is_better_units(units),
            lower,
            "`{units}` should be lower_is_better={lower}"
        );
    }
}

#[test]
fn scan_inverts_direction_for_minutes_and_per_iteration_units() {
    // a walltime in `minutes` that doubles, and an `ms/op` cost that
    // doubles: both must be flagged as regressions, not improvements
    for units in ["minutes", "ms/op"] {
        let db = MetricsDatabase::new();
        for value in [10.0, 10.0, 10.0, 20.0] {
            db.record(
                "cts1",
                "lulesh",
                "openmp",
                "m",
                &[result("walltime", value, units, ExperimentStatus::Success)],
            );
        }
        let reports = scan_regressions(&db, 0.10);
        assert_eq!(reports.len(), 1);
        assert!(
            reports[0].regressed,
            "`{units}` increase must regress: {}",
            reports[0].render()
        );
    }
    // the same doubling in a throughput unit is an improvement
    let db = MetricsDatabase::new();
    for value in [10.0, 10.0, 10.0, 20.0] {
        db.record(
            "cts1",
            "lulesh",
            "openmp",
            "m",
            &[result("rate", value, "iter/s", ExperimentStatus::Success)],
        );
    }
    let reports = scan_regressions(&db, 0.10);
    assert_eq!(reports.len(), 1);
    assert!(!reports[0].regressed, "{}", reports[0].render());
}

#[test]
fn scan_uses_units_to_infer_direction_and_skips_pipeline_telemetry() {
    let db = MetricsDatabase::new();
    // latency in `us`: an increase is a regression
    for value in [10.0, 10.0, 10.0, 25.0] {
        db.record(
            "cts1",
            "osu-bcast",
            "scaling",
            "m",
            &[result(
                "avg_latency",
                value,
                "us",
                ExperimentStatus::Success,
            )],
        );
        // pipeline pseudo-benchmark history that would "regress" if scanned
        db.record(
            "cts1",
            "benchpark-pipeline",
            "telemetry",
            "m",
            &[result(
                "obs.ledger.skipped",
                value,
                "count",
                ExperimentStatus::Success,
            )],
        );
    }
    let reports = scan_regressions(&db, 0.10);
    assert_eq!(reports.len(), 1, "pipeline telemetry must be excluded");
    assert_eq!(reports[0].fom, "avg_latency");
    assert!(reports[0].regressed, "{}", reports[0].render());
}

/// The one-pass scan must agree bit-for-bit with judging each triple on its
/// own through `detect_regression`, over a history mixing several
/// benchmarks, systems, FOMs and results per sequence, failures,
/// non-numeric values, pipeline telemetry, and a FOM whose units (and so
/// direction) change between sightings.
#[test]
fn scan_matches_per_triple_detect_regression() {
    use std::collections::BTreeMap;
    let mut state = 0x2545_f491_4f6c_dd1du64;
    let mut noise = move || {
        state = state
            .wrapping_mul(6364136223846793005)
            .wrapping_add(1442695040888963407);
        1.0 + ((state >> 33) as f64 / (1u64 << 31) as f64 - 0.5) * 0.02
    };
    let fom = |name: &str, value: String, units: &str| FomValue {
        name: name.to_string(),
        value,
        units: units.to_string(),
        context: Default::default(),
    };
    let db = MetricsDatabase::new();
    for seq in 0..6 {
        for benchmark in ["amg2023", "lulesh", "stream"] {
            for system in ["ats2", "cts1"] {
                let slow = if seq == 5 && benchmark == "amg2023" && system == "cts1" {
                    1.5
                } else {
                    1.0
                };
                let results: Vec<ExperimentResult> = (0..3)
                    .map(|e| ExperimentResult {
                        experiment: format!("exp_{e}"),
                        foms: vec![
                            fom("time", (10.0 * slow * noise()).to_string(), "s"),
                            fom("bw", (50.0 / slow * noise()).to_string(), "GB/s"),
                            fom("label", "n/a".to_string(), ""),
                            fom(
                                "flip",
                                (4.0 * slow * noise()).to_string(),
                                if seq < 4 { "s" } else { "GB/s" },
                            ),
                        ],
                        status: if (seq + e) % 4 == 3 {
                            ExperimentStatus::Failed
                        } else {
                            ExperimentStatus::Success
                        },
                        ..result("time", 0.0, "s", ExperimentStatus::Success)
                    })
                    .collect();
                db.record(system, benchmark, "openmp", "m", &results);
            }
        }
        db.record(
            "cts1",
            "benchpark-pipeline",
            "telemetry",
            "m",
            &[result(
                "spans",
                10.0 * (seq + 1) as f64,
                "count",
                ExperimentStatus::Success,
            )],
        );
    }

    let mut triples: BTreeMap<(String, String, String), String> = BTreeMap::new();
    for r in db.all() {
        if r.benchmark == "benchpark-pipeline" || r.result.status != ExperimentStatus::Success {
            continue;
        }
        for f in r.result.foms.iter().filter(|f| f.as_f64().is_some()) {
            let key = (r.benchmark.clone(), r.system.clone(), f.name.clone());
            triples.insert(key, f.units.clone());
        }
    }
    let reference: Vec<_> = triples
        .iter()
        .filter_map(|((benchmark, system, fom), units)| {
            detect_regression(
                &db,
                benchmark,
                system,
                fom,
                !lower_is_better_units(units),
                0.10,
            )
        })
        .collect();
    let scanned = scan_regressions(&db, 0.10);

    // independently: each sequence contributes the mean of its values in
    // record order, the last is judged against the others by its latest units
    for want in &reference {
        let units = &triples[&(
            want.benchmark.clone(),
            want.system.clone(),
            want.fom.clone(),
        )];
        let mut by_seq: BTreeMap<u64, Vec<f64>> = BTreeMap::new();
        for r in db.all() {
            if (&r.benchmark, &r.system) != (&want.benchmark, &want.system)
                || r.result.status != ExperimentStatus::Success
            {
                continue;
            }
            for f in r.result.foms.iter().filter(|f| f.name == want.fom) {
                by_seq.entry(r.sequence).or_default().extend(f.as_f64());
            }
        }
        let means: Vec<f64> = by_seq
            .values()
            .map(|values| values.iter().sum::<f64>() / values.len() as f64)
            .collect();
        let (&latest_mean, baseline) = means.split_last().unwrap();
        let verdict = baseline_verdict(baseline, latest_mean, !lower_is_better_units(units), 0.10);
        for (a, b) in [
            (want.baseline_mean, verdict.baseline_mean),
            (want.baseline_std, verdict.baseline_std),
            (want.latest_mean, latest_mean),
            (want.change, verdict.change),
        ] {
            assert_eq!(a.to_bits(), b.to_bits(), "{}", want.render());
        }
        assert_eq!(
            (want.regressed, want.history_len),
            (verdict.regressed, baseline.len())
        );
    }
    assert_eq!(reference.len(), 3 * 2 * 3, "every numeric triple is judged");
    assert_eq!(scanned.len(), reference.len());
    for (got, want) in scanned.iter().zip(&reference) {
        let triple =
            |r: &crate::RegressionReport| (r.benchmark.clone(), r.system.clone(), r.fom.clone());
        assert_eq!(triple(got), triple(want));
        for (a, b) in [
            (got.baseline_mean, want.baseline_mean),
            (got.baseline_std, want.baseline_std),
            (got.latest_mean, want.latest_mean),
            (got.change, want.change),
        ] {
            assert_eq!(
                a.to_bits(),
                b.to_bits(),
                "{} vs {}",
                got.render(),
                want.render()
            );
        }
        assert_eq!(
            (got.regressed, got.history_len),
            (want.regressed, want.history_len)
        );
    }
    let flagged: Vec<_> = scanned
        .iter()
        .filter(|r| r.regressed)
        .map(|r| (r.benchmark.as_str(), r.system.as_str(), r.fom.as_str()))
        .collect();
    // `flip` is judged as GB/s (its latest units): its rise is no regression
    assert_eq!(
        flagged,
        [("amg2023", "cts1", "bw"), ("amg2023", "cts1", "time")]
    );
}

// ---------------------------------------------------------------------------
// Failed-experiment gate
// ---------------------------------------------------------------------------

#[test]
fn gate_passes_clean_runs_and_names_failures() {
    let ok = [result("x", 1.0, "s", ExperimentStatus::Success)];
    assert!(gate_failed_experiments(&ok, false).is_ok());

    let mixed = [
        result("x", 1.0, "s", ExperimentStatus::Success),
        result("x", 1.0, "s", ExperimentStatus::Failed),
        result("x", 1.0, "s", ExperimentStatus::JobError),
    ];
    let err = gate_failed_experiments(&mixed, false).unwrap_err();
    assert!(err.contains("Failed"), "{err}");
    assert!(err.contains("JobError"), "{err}");
    assert!(err.contains("--allow-failed"), "{err}");
    assert!(gate_failed_experiments(&mixed, true).is_ok());
}

// ---------------------------------------------------------------------------
// Ledger schema 2/3: fingerprints, cached markers, request traces, parse hardening
// ---------------------------------------------------------------------------

#[test]
fn ledger_schema2_round_trips_fingerprints_and_cached_marker() {
    let mut rec = record(100.0).with_fingerprints(vec![
        ("exp_b".to_string(), "00000000000000ff".to_string()),
        ("exp_1".to_string(), "deadbeefdeadbeef".to_string()),
    ]);
    rec.sequence = 3;
    rec.results[0].cached = true;
    let line = rec.to_json_line();
    assert!(line.starts_with("{\"schema\":3,"), "{line}");
    let parsed = RunRecord::parse_line(&line).expect("schema-2 line parses");
    // with_fingerprints sorts by experiment name for deterministic emission
    assert_eq!(
        parsed.fingerprints,
        vec![
            ("exp_1".to_string(), "deadbeefdeadbeef".to_string()),
            ("exp_b".to_string(), "00000000000000ff".to_string()),
        ]
    );
    assert!(parsed.results[0].cached);
    assert_eq!(parsed.to_json_line(), line);
}

#[test]
fn ledger_loads_mixed_schema1_and_schema2_lines() {
    let path = temp_ledger("mixed-schema");
    // a schema-1 line (pre-fingerprint era) followed by a schema-2 line
    let schema1 = record(100.0)
        .to_json_line()
        .replacen("{\"schema\":3,", "{\"schema\":1,", 1);
    let mut rec2 =
        record(90.0).with_fingerprints(vec![("exp_1".to_string(), "1111111111111111".to_string())]);
    std::fs::write(&path, format!("{schema1}\n{}\n", rec2.to_json_line())).unwrap();

    let load = load_ledger(&path, &TelemetrySink::noop()).expect("mixed schemas load");
    assert_eq!(load.runs.len(), 2);
    assert_eq!(load.skipped, 0);
    // the schema-1 record simply has no fingerprints
    assert!(load.runs[0].fingerprints.is_empty());
    assert_eq!(load.runs[1].fingerprints.len(), 1);
    let _ = &mut rec2;
}

#[test]
fn ledger_schema3_round_trips_request_trace() {
    let mut rec = record(100.0).with_request(RequestTrace {
        tenant: "alice".to_string(),
        request_id: 17,
        submit_tick: 3,
        queue_wait_ticks: 9,
        schedule_ticks: 1,
        execute_ticks: 812,
        commit_ticks: 2,
    });
    rec.sequence = 1;
    let line = rec.to_json_line();
    assert!(line.contains("\"request\":{\"tenant\":\"alice\""), "{line}");
    let parsed = RunRecord::parse_line(&line).expect("schema-3 line parses");
    let trace = parsed.request.as_ref().expect("trace survives");
    assert_eq!(trace.tenant, "alice");
    assert_eq!(trace.request_id, 17);
    assert_eq!(trace.queue_wait_ticks, 9);
    assert_eq!(trace.execute_ticks, 812);
    assert_eq!(parsed.to_json_line(), line);
    // negative tick values are corruption, not data
    let bad = line.replace("\"execute_ticks\":812", "\"execute_ticks\":-1");
    assert!(RunRecord::parse_line(&bad).is_err());
}

#[test]
fn ledger_loads_mixed_schema123_with_absent_stage_timings() {
    let path = temp_ledger("mixed-schema123");
    // history written by three generations of the tool: schema 1 (no
    // fingerprints), schema 2 (fingerprints, no request trace), schema 3
    // (request trace from the serve daemon)
    let schema1 = record(100.0)
        .to_json_line()
        .replacen("{\"schema\":3,", "{\"schema\":1,", 1);
    let schema2 = record(95.0)
        .with_fingerprints(vec![("exp_1".to_string(), "2222222222222222".to_string())])
        .to_json_line()
        .replacen("{\"schema\":3,", "{\"schema\":2,", 1);
    let schema3 = record(90.0)
        .with_request(RequestTrace {
            tenant: "bob".to_string(),
            request_id: 1,
            submit_tick: 0,
            queue_wait_ticks: 2,
            schedule_ticks: 0,
            execute_ticks: 400,
            commit_ticks: 1,
        })
        .to_json_line();
    std::fs::write(&path, format!("{schema1}\n{schema2}\n{schema3}\n")).unwrap();

    let load = load_ledger(&path, &TelemetrySink::noop()).expect("mixed schemas load");
    assert_eq!(load.runs.len(), 3);
    assert_eq!(load.skipped, 0);
    // old records report absent stage timings rather than failing
    assert!(load.runs[0].request.is_none());
    assert!(load.runs[1].request.is_none());
    assert_eq!(
        load.runs[2].request.as_ref().map(|t| t.queue_wait_ticks),
        Some(2)
    );
    // and the mixed file still answers history/regress queries: all three
    // generations replay into the metrics database and the scan flags the
    // 10% triad_bw drop across them
    let db = load.to_database();
    assert_eq!(db.len(), 3);
    let scan = scan_regressions(&db, 0.05);
    assert!(
        scan.iter().any(|r| r.fom == "triad_bw"),
        "expected the cross-generation drop to be flagged: {scan:?}"
    );
}

#[test]
fn ledger_rejects_negative_counter_totals_and_sequences() {
    // a negative counter total is corruption and must fail the line, not be
    // clamped into a plausible-looking zero
    let good = record(100.0).to_json_line();
    let line = good.replacen(
        "\"telemetry\":{\"counters\":{}",
        "\"telemetry\":{\"counters\":{\"retry.attempts\":-3}",
        1,
    );
    assert_ne!(line, good, "replacement must have applied");
    let err = RunRecord::parse_line(&line).unwrap_err();
    assert!(err.contains("negative"), "{err}");

    let line = good.replacen("\"sequence\":0,", "\"sequence\":-7,", 1);
    assert_ne!(line, good);
    let err = RunRecord::parse_line(&line).unwrap_err();
    assert!(err.contains("negative"), "{err}");

    // and the corrupt line is skipped (not fatal) on load
    let path = temp_ledger("neg-counter");
    let bad = good.replacen(
        "\"telemetry\":{\"counters\":{}",
        "\"telemetry\":{\"counters\":{\"retry.attempts\":-3}",
        1,
    );
    std::fs::write(&path, format!("{good}\n{bad}\n")).unwrap();
    let load = load_ledger(&path, &TelemetrySink::noop()).unwrap();
    assert_eq!((load.runs.len(), load.skipped), (1, 1));
}

#[test]
fn ledger_skips_unboundedly_nested_lines() {
    let path = temp_ledger("deep-nesting");
    let good = record(100.0).to_json_line();
    std::fs::write(&path, format!("{good}\n{}\n", "[".repeat(200_000))).unwrap();
    let load = load_ledger(&path, &TelemetrySink::noop()).unwrap();
    assert_eq!((load.runs.len(), load.skipped), (1, 1));
}

#[test]
fn ledger_append_counts_only_valid_records() {
    // garbage lines must not inflate the next sequence stamp: the stamp
    // counts records load_ledger will actually keep
    let path = temp_ledger("valid-count");
    let mut first = record(100.0);
    append_run(&path, &mut first).unwrap();
    use std::io::Write as _;
    let mut file = std::fs::OpenOptions::new()
        .append(true)
        .open(&path)
        .unwrap();
    writeln!(file, "half a rec").unwrap();
    writeln!(file, "{{\"schema\":999}}").unwrap();
    writeln!(file).unwrap();
    drop(file);

    let mut next = record(90.0);
    let sequence = append_run(&path, &mut next).unwrap();
    assert_eq!(sequence, 2, "2 garbage lines must not count as records");
    // the stamp agrees with what a load re-stamps
    let load = load_ledger(&path, &TelemetrySink::noop()).unwrap();
    assert_eq!(load.runs.len(), 2);
    assert_eq!(load.runs.last().unwrap().sequence, 2);
}

// ---------------------------------------------------------------------------
// Fingerprints: builder framing and the ledger-backed index
// ---------------------------------------------------------------------------

#[test]
fn fingerprint_builder_is_deterministic_and_framing_sensitive() {
    use crate::FingerprintBuilder;
    let base = || {
        FingerprintBuilder::new()
            .field("template", "x: 1")
            .field("system", "cts1")
    };
    assert_eq!(base().finish(), base().finish());
    assert_eq!(base().finish().hex().len(), 16);

    // any value edit changes the hash
    assert_ne!(
        base().finish(),
        FingerprintBuilder::new()
            .field("template", "x: 2")
            .field("system", "cts1")
            .finish()
    );
    // field order matters (the driver feeds a fixed order)
    assert_ne!(
        base().finish(),
        FingerprintBuilder::new()
            .field("system", "cts1")
            .field("template", "x: 1")
            .finish()
    );
    // framing: ("ab","c") must not collide with ("a","bc"), nor an empty
    // value with a missing field
    assert_ne!(
        FingerprintBuilder::new()
            .field("k", "ab")
            .field("k", "c")
            .finish(),
        FingerprintBuilder::new()
            .field("k", "a")
            .field("k", "bc")
            .finish()
    );
    assert_ne!(
        FingerprintBuilder::new().field("k", "").finish(),
        FingerprintBuilder::new().finish()
    );
    // fields() labels each pair under the prefix
    assert_ne!(
        FingerprintBuilder::new()
            .fields("var", [("n", "1")])
            .finish(),
        FingerprintBuilder::new()
            .fields("env", [("n", "1")])
            .finish()
    );
}

#[test]
fn fingerprint_index_skips_failures_and_splices_and_prefers_latest() {
    use crate::FingerprintIndex;
    let path = temp_ledger("index");
    let fp = |hex: &str| vec![("exp_1".to_string(), hex.to_string())];

    // run 1: success @ fp aaaa… ; run 2: FAILURE @ fp bbbb… ; run 3: a
    // spliced (cached) replay @ fp cccc… ; run 4: success @ fp aaaa… again
    // with a different value (a --force re-measurement)
    let mut r1 = record(100.0).with_fingerprints(fp("aaaaaaaaaaaaaaaa"));
    append_run(&path, &mut r1).unwrap();
    let mut r2 = RunRecord::from_run(
        "cts1",
        "stream",
        "openmp",
        "m",
        &[result("triad_bw", 1.0, "MB/s", ExperimentStatus::Failed)],
        None,
    )
    .with_fingerprints(fp("bbbbbbbbbbbbbbbb"));
    append_run(&path, &mut r2).unwrap();
    let mut r3 = record(100.0).with_fingerprints(fp("cccccccccccccccc"));
    r3.results[0].cached = true;
    append_run(&path, &mut r3).unwrap();
    let mut r4 = record(250.0).with_fingerprints(fp("aaaaaaaaaaaaaaaa"));
    append_run(&path, &mut r4).unwrap();

    let load = load_ledger(&path, &TelemetrySink::noop()).unwrap();
    let index = FingerprintIndex::from_ledger(&load);
    assert_eq!(index.len(), 1, "failure and splice must not be indexed");
    assert!(index.lookup_hex("bbbbbbbbbbbbbbbb").is_none());
    assert!(index.lookup_hex("cccccccccccccccc").is_none());
    let entry = index.lookup_hex("aaaaaaaaaaaaaaaa").expect("hit");
    // the later measurement superseded the earlier one
    assert_eq!(entry.sequence, 4);
    assert_eq!(entry.result.foms[0].value, "250");
    assert!(!entry.result.cached);
}

/// Moving results out of an owned run indexes exactly what copying them
/// out of a borrowed one does, including a result two fingerprints name.
#[test]
fn fingerprint_index_absorbs_owned_runs_like_borrowed_ones() {
    use crate::FingerprintIndex;
    let named = |experiment: &str, status| ExperimentResult {
        experiment: experiment.to_string(),
        ..result("triad_bw", 1.0, "MB/s", status)
    };
    let mut run = record(0.0);
    run.results = vec![
        named("exp_1", ExperimentStatus::Success),
        named("exp_2", ExperimentStatus::Failed),
        ExperimentResult {
            cached: true,
            ..named("exp_3", ExperimentStatus::Success)
        },
        named("exp_4", ExperimentStatus::Success),
    ];
    run = run.with_fingerprints(
        [
            ("exp_1", "aa"),
            ("exp_2", "bb"),
            ("exp_1", "dd"),
            ("exp_3", "cc"),
            ("exp_4", ""),
            ("exp_5", "ee"),
            ("exp_4", "ff"),
        ]
        .map(|(e, f)| (e.to_string(), f.to_string()))
        .to_vec(),
    );
    let mut borrowed = FingerprintIndex::new();
    borrowed.index_run(&run);
    let mut owned = FingerprintIndex::new();
    owned.absorb_run(run);
    assert_eq!(borrowed.len(), 3, "aa, dd and ff");
    assert_eq!(format!("{owned:?}"), format!("{borrowed:?}"));
}

#[test]
fn driver_plan_incremental_skips_hits_and_honors_force() {
    use crate::{Benchpark, FingerprintIndex};

    let base = std::env::temp_dir().join(format!("benchpark-inc-unit-{}", std::process::id()));
    let _ = std::fs::remove_dir_all(&base);

    // measure once, persist with fingerprints (what `trace --export` does)
    let benchpark = Benchpark::new();
    let mut ws = benchpark
        .setup_workspace("saxpy", "openmp", "cts1", base.join("ws1"))
        .unwrap();
    ws.run().unwrap();
    let analysis = ws.analyze(&benchpark).unwrap();
    let fingerprints: Vec<(String, String)> = ws
        .fingerprints
        .iter()
        .map(|(name, fp)| (name.clone(), fp.hex()))
        .collect();
    assert_eq!(fingerprints.len(), analysis.results.len());
    let ledger = base.join("ledger.jsonl");
    let mut rec = RunRecord::from_run("cts1", "saxpy", "openmp", "m", &analysis.results, None)
        .with_fingerprints(fingerprints);
    append_run(&ledger, &mut rec).unwrap();

    let load = load_ledger(&ledger, &TelemetrySink::noop()).unwrap();
    let index = FingerprintIndex::from_ledger(&load);

    // a second workspace in a different directory: identical fingerprints,
    // so the whole run is served from the ledger
    let mut ws2 = benchpark
        .setup_workspace("saxpy", "openmp", "cts1", base.join("ws2"))
        .unwrap();
    assert_eq!(ws.fingerprints, ws2.fingerprints, "path-independent hashes");
    let plan = ws2.plan_incremental(&index, false);
    assert!(plan.all_cached());
    assert_eq!(plan.hits, analysis.results.len());
    assert_eq!(plan.to_run(), 0);
    let spliced = plan.splice(Vec::new());
    assert_eq!(spliced.len(), analysis.results.len());
    assert!(spliced.iter().all(|r| r.cached));
    // splicing preserves the measured FOMs exactly
    for (cached, measured) in spliced.iter().zip(&analysis.results) {
        assert_eq!(cached.experiment, measured.experiment);
        assert_eq!(cached.foms.len(), measured.foms.len());
        for (a, b) in cached.foms.iter().zip(&measured.foms) {
            assert_eq!(
                (a.name.as_str(), a.value.as_str()),
                (b.name.as_str(), b.value.as_str())
            );
        }
    }
    // with everything pruned, running the workspace is a setup error
    assert!(ws2.run().is_err());

    // --force: hits become forced work, nothing is spliced
    let mut ws3 = benchpark
        .setup_workspace("saxpy", "openmp", "cts1", base.join("ws3"))
        .unwrap();
    let plan = ws3.plan_incremental(&index, true);
    assert!(!plan.all_cached());
    assert_eq!(plan.hits, 0);
    assert_eq!(plan.forced, analysis.results.len());
    assert!(plan.cached.is_empty());
    // the forced workspace still runs in full
    ws3.run().unwrap();
    let rerun = ws3.analyze(&benchpark).unwrap();
    assert_eq!(rerun.results.len(), analysis.results.len());
}

// ---------------------------------------------------------------------------
// Crash safety and the sharded multi-tenant layout
// ---------------------------------------------------------------------------

/// A process killed mid-append leaves a torn line with no trailing newline.
/// The next `append_run` must contain the fragment in its own line (never
/// splice the new record onto it), and the load must count exactly one
/// skipped line.
#[test]
fn append_contains_torn_tail_from_killed_writer() {
    let path = temp_ledger("torn-tail");
    let mut first = record(100.0);
    append_run(&path, &mut first).unwrap();

    // simulate a writer killed mid-line: a truncated JSON prefix, no newline
    use std::io::Write as _;
    let mut file = std::fs::OpenOptions::new()
        .append(true)
        .open(&path)
        .unwrap();
    write!(file, "{{\"schema\":2,\"sequence\":9,\"sys").unwrap();
    drop(file);

    let mut next = record(90.0);
    let sequence = append_run(&path, &mut next).unwrap();
    assert_eq!(sequence, 2, "the torn fragment is not a record");

    let load = load_ledger(&path, &TelemetrySink::noop()).unwrap();
    assert_eq!(load.runs.len(), 2, "both real records survive");
    assert_eq!(load.skipped, 1, "the torn fragment is one skipped line");
    assert_eq!(load.runs[1].sequence, 2);
}

/// A writer killed inside a multi-byte character leaves a tail that is not
/// UTF-8. It is one corrupt line to every reader, not an error: the shard
/// loads with its one run and one skipped line, and the next append stamps
/// sequence 2 on a fresh line.
#[test]
fn torn_multibyte_tail_is_one_skipped_line() {
    use crate::{shard_path, ShardedLedger};
    let root = temp_ledger("torn-utf8").parent().unwrap().join("ledger");
    let path = shard_path(&root, "alice", "cts1");
    std::fs::create_dir_all(path.parent().unwrap()).unwrap();
    let mut first = record(100.0);
    first.results[0].variables = [("größe", "8")].into();
    append_run(&path, &mut first).unwrap();
    let line = std::fs::read(&path).unwrap();
    // the next record, cut between the two bytes of `ö`
    let cut = line.iter().position(|&b| b == 0xc3).unwrap() + 1;
    let mut torn = line.clone();
    torn.extend_from_slice(&line[..cut]);
    std::fs::write(&path, &torn).unwrap();
    // and the garbage tail of a line torn mid-string, on its own line
    let garbage = temp_ledger("utf8-garbage");
    std::fs::write(
        &garbage,
        [&line[..], b"{\"schema\":3,\"garbage\xff\xfe"].concat(),
    )
    .unwrap();

    let sink = TelemetrySink::recording();
    for ledger in [&path, &garbage] {
        let load = load_ledger(ledger, &sink).expect("a torn character is not fatal");
        assert_eq!((load.runs.len(), load.skipped), (1, 1));
    }
    assert_eq!(sink.report().unwrap().counter("obs.ledger.skipped"), 2);
    let sharded = ShardedLedger::load(&root, &TelemetrySink::noop()).unwrap();
    assert_eq!((sharded.len(), sharded.merged.skipped), (1, 1));

    let mut next = record(90.0);
    assert_eq!(append_run(&path, &mut next).unwrap(), 2);
    let bytes = std::fs::read(&path).unwrap();
    let appended = [&torn[..], b"\n", next.to_json_line().as_bytes(), b"\n"].concat();
    assert_eq!(bytes, appended, "the new record starts a fresh line");
    let load = load_ledger(&path, &TelemetrySink::noop()).unwrap();
    assert_eq!((load.runs.len(), load.skipped), (2, 1));
    assert_eq!(load.runs[1].sequence, 2);
    assert_eq!(&load.runs[0].results[0].variables["größe"], "8");
}

/// Shard discovery: `<root>/<tenant>/<system>.jsonl` files load sorted by
/// `(tenant, system)`, the merged view re-stamps 1-based sequences in that
/// order, and `tenant_view` exposes exactly one tenant's runs.
#[test]
fn sharded_ledger_discovers_and_merges_per_tenant_shards() {
    use crate::{shard_path, ShardedLedger};
    let root = temp_ledger("shards");
    let root = root.parent().unwrap().join("ledger");

    // append out of discovery order to prove sorting is by name, not mtime
    for (tenant, system, value) in [
        ("zoe", "cts1", 10.0),
        ("amy", "ats2", 20.0),
        ("amy", "cts1", 30.0),
        ("amy", "cts1", 40.0),
    ] {
        let path = shard_path(&root, tenant, system);
        std::fs::create_dir_all(path.parent().unwrap()).unwrap();
        let mut rec = record(value);
        rec.system = system.to_string();
        append_run(&path, &mut rec).unwrap();
    }

    let sink = TelemetrySink::noop();
    let sharded = ShardedLedger::load(&root, &sink).unwrap();
    assert_eq!(sharded.tenant_names(), ["amy", "zoe"]);
    assert_eq!(sharded.shards.len(), 3, "one shard per (tenant, system)");
    assert_eq!(sharded.len(), 4);

    // merged order: amy/ats2, amy/cts1 (x2), zoe/cts1 — re-stamped 1..=4
    let sequences: Vec<u64> = sharded.merged.runs.iter().map(|r| r.sequence).collect();
    assert_eq!(sequences, [1, 2, 3, 4]);
    let systems: Vec<&str> = sharded
        .merged
        .runs
        .iter()
        .map(|r| r.system.as_str())
        .collect();
    assert_eq!(systems, ["ats2", "cts1", "cts1", "cts1"]);

    let amy = sharded.tenant_view("amy");
    assert_eq!(amy.runs.len(), 3, "tenant view holds only amy's runs");
    let zoe = sharded.tenant_view("zoe");
    assert_eq!(zoe.runs.len(), 1);
    assert_eq!(zoe.runs[0].system, "cts1");

    // a missing root is an empty ledger, not an error
    let empty = ShardedLedger::load(&root.join("nope"), &sink).unwrap();
    assert!(empty.is_empty());
    assert!(empty.tenant_names().is_empty());
}
