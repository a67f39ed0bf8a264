//! Tests for the bench trajectory: `BENCH_<date>.json` round-trips, the
//! schema gate, and the regression verdict edge cases the methodology in
//! `docs/perf/methodology.md` leans on (first run, zero-variance baseline,
//! improvement direction per unit, the two-sigma noise band).

use crate::benchjson::{
    calibration_speed_factor, compare_bench_reports, compare_bench_reports_calibrated,
    date_from_unix_days, format_ns,
};
use crate::regression::{baseline_verdict, lower_is_better_units};
use crate::{BenchEnv, BenchRecord, BenchReport, BENCH_SCHEMA, BENCH_SUITE};

fn record(name: &str, median_ns: f64, units: &str) -> BenchRecord {
    BenchRecord {
        name: name.to_string(),
        group: name.split('.').next().unwrap_or("misc").to_string(),
        iters: 4,
        samples: 7,
        median_ns,
        mean_ns: median_ns * 1.01,
        std_ns: median_ns * 0.02,
        units: units.to_string(),
    }
}

fn report(created: &str, results: Vec<BenchRecord>) -> BenchReport {
    BenchReport {
        schema: BENCH_SCHEMA,
        suite: BENCH_SUITE.to_string(),
        created: created.to_string(),
        env: BenchEnv {
            os: "linux".to_string(),
            arch: "x86_64".to_string(),
            cpus: 8,
            version: "0.1.0".to_string(),
            profile: "release".to_string(),
        },
        results,
    }
}

// ---------------------------------------------------------------------------
// Round-trip and determinism
// ---------------------------------------------------------------------------

/// Emission sorts results by name, parsing reproduces every field exactly,
/// and re-emitting the parsed report yields the identical byte string — the
/// property that makes committed trajectory files reviewable.
#[test]
fn bench_report_round_trips_deterministically() {
    // deliberately unsorted input
    let original = report(
        "2026-08-08",
        vec![
            record("yamlite.parse.manifest1500", 16_411_380.5, "ns/iter"),
            record("concretize.single", 29_426.5, "ns/iter"),
            record("engine.plan.lpt.100k", 30_144_594.0, "ns/iter"),
        ],
    );
    let json = original.to_json();
    let parsed = BenchReport::parse(&json).expect("round-trip parses");

    assert_eq!(parsed.schema, BENCH_SCHEMA);
    assert_eq!(parsed.suite, BENCH_SUITE);
    assert_eq!(parsed.created, "2026-08-08");
    assert_eq!(parsed.env, original.env);
    assert_eq!(parsed.file_name(), "BENCH_2026-08-08.json");
    // parse sorts, emission sorted: names come back ordered
    let names: Vec<&str> = parsed.results.iter().map(|r| r.name.as_str()).collect();
    assert_eq!(
        names,
        [
            "concretize.single",
            "engine.plan.lpt.100k",
            "yamlite.parse.manifest1500"
        ]
    );
    assert_eq!(
        parsed.result("concretize.single").unwrap().median_ns,
        29_426.5
    );
    // emit(parse(emit(x))) == emit(x): byte-identical
    assert_eq!(parsed.to_json(), json);
}

/// One result per line, so trajectory commits diff bench-by-bench.
#[test]
fn bench_report_emits_one_result_per_line() {
    let r = report(
        "2026-08-08",
        vec![
            record("a.one", 10.0, "ns/iter"),
            record("b.two", 20.0, "ns/iter"),
        ],
    );
    let json = r.to_json();
    let result_lines = json
        .lines()
        .filter(|l| l.trim_start().starts_with("{\"name\""))
        .count();
    assert_eq!(result_lines, 2);
}

// ---------------------------------------------------------------------------
// The schema gate
// ---------------------------------------------------------------------------

/// Unknown schema versions are a parse error, never a misread.
#[test]
fn bench_report_rejects_unknown_schema() {
    let mut r = report("2026-08-08", vec![record("a.one", 10.0, "ns/iter")]);
    r.schema = BENCH_SCHEMA + 1;
    let err = BenchReport::parse(&r.to_json()).unwrap_err();
    assert!(err.contains("unknown bench schema"), "got: {err}");
}

/// Every required field is enforced: dropping one fails with a message
/// naming it.
#[test]
fn bench_report_rejects_missing_fields() {
    let good = report("2026-08-08", vec![record("a.one", 10.0, "ns/iter")]).to_json();
    for (needle, expect) in [
        ("\"suite\": \"hotpath\",", "`suite`"),
        ("\"created\": \"2026-08-08\",", "`created`"),
        ("\"median_ns\": 10.0,", "`median_ns`"),
        (", \"units\": \"ns/iter\"", "`units`"),
    ] {
        assert!(good.contains(needle), "fixture drifted: {needle}");
        let broken = good.replacen(needle, "", 1);
        let err = BenchReport::parse(&broken).unwrap_err();
        assert!(err.contains(expect), "dropping {needle:?} gave: {err}");
    }
    // negative statistics are rejected, not silently absorbed
    let negative = good.replacen("\"median_ns\": 10.0,", "\"median_ns\": -10.0,", 1);
    assert!(BenchReport::parse(&negative).is_err());
    // malformed JSON is an error, not a panic
    assert!(BenchReport::parse("{\"schema\": 1,").is_err());
}

// ---------------------------------------------------------------------------
// Trajectory comparison edge cases
// ---------------------------------------------------------------------------

/// A first run has no baseline: nothing to compare, nothing flagged.
#[test]
fn first_run_yields_no_verdicts() {
    let only = report("2026-08-08", vec![record("a.one", 100.0, "ns/iter")]);
    assert!(compare_bench_reports(&[&only], 0.05).is_empty());
    assert!(compare_bench_reports(&[], 0.05).is_empty());
}

/// A bench that appears only in the latest report (new or renamed/resized
/// workload) is skipped — fresh workloads have no trajectory yet.
#[test]
fn fresh_bench_is_skipped() {
    let old = report("2026-08-07", vec![record("a.one", 100.0, "ns/iter")]);
    let new = report(
        "2026-08-08",
        vec![
            record("a.one", 100.0, "ns/iter"),
            record("b.new.2k", 55.0, "ns/iter"),
        ],
    );
    let verdicts = compare_bench_reports(&[&old, &new], 0.05);
    assert_eq!(verdicts.len(), 1);
    assert_eq!(verdicts[0].name, "a.one");
    assert_eq!(verdicts[0].history_len, 1);
}

/// With a single prior report the baseline deviation is zero, so the noise
/// band never suppresses: the threshold alone governs in both directions.
#[test]
fn zero_variance_baseline_is_governed_by_threshold_alone() {
    let old = report("2026-08-07", vec![record("a.one", 100.0, "ns/iter")]);

    // 20% slower in a lower-is-better unit: regression at 10%
    let slow = report("2026-08-08", vec![record("a.one", 120.0, "ns/iter")]);
    let v = &compare_bench_reports(&[&old, &slow], 0.10)[0];
    assert!(v.regressed && !v.improved);
    assert!(v.change < 0.0, "slower must fold to negative change");

    // 5% slower: inside the 10% threshold, ok
    let mild = report("2026-08-08", vec![record("a.one", 105.0, "ns/iter")]);
    let v = &compare_bench_reports(&[&old, &mild], 0.10)[0];
    assert!(!v.regressed && !v.improved);

    // 20% faster: improvement at 10%
    let fast = report("2026-08-08", vec![record("a.one", 80.0, "ns/iter")]);
    let v = &compare_bench_reports(&[&old, &fast], 0.10)[0];
    assert!(v.improved && !v.regressed);
    assert!(v.change > 0.0, "faster must fold to positive change");
}

/// The improvement direction comes from the units: `ns/iter` improves
/// downward, a rate like `GB/s` improves upward. The same latest-vs-baseline
/// numbers produce opposite verdicts.
#[test]
fn direction_follows_units() {
    let old_cost = report("2026-08-07", vec![record("a.one", 100.0, "ns/iter")]);
    let new_cost = report("2026-08-08", vec![record("a.one", 50.0, "ns/iter")]);
    let v = &compare_bench_reports(&[&old_cost, &new_cost], 0.10)[0];
    assert!(v.improved, "halving a duration is an improvement");

    let old_rate = report("2026-08-07", vec![record("a.one", 100.0, "GB/s")]);
    let new_rate = report("2026-08-08", vec![record("a.one", 50.0, "GB/s")]);
    let v = &compare_bench_reports(&[&old_rate, &new_rate], 0.10)[0];
    assert!(v.regressed, "halving a rate is a regression");
}

/// A noisy baseline widens the band: a change beyond the threshold but
/// inside two baseline standard deviations is not flagged.
#[test]
fn noise_band_suppresses_verdicts_within_two_sigma() {
    // baseline medians 100 and 140: mean 120, population std 20
    let a = report("2026-08-06", vec![record("a.one", 100.0, "ns/iter")]);
    let b = report("2026-08-07", vec![record("a.one", 140.0, "ns/iter")]);
    // 12.5% over the mean — beyond a 5% threshold, but |135-120| < 2*20
    let latest = report("2026-08-08", vec![record("a.one", 135.0, "ns/iter")]);
    let v = &compare_bench_reports(&[&a, &b, &latest], 0.05)[0];
    assert!(!v.regressed && !v.improved);
    assert_eq!(v.history_len, 2);
    assert_eq!(v.baseline_ns, 120.0);
    assert_eq!(v.baseline_std_ns, 20.0);

    // far outside the band: |200-120| > 40 and 66% over — flagged
    let bad = report("2026-08-08", vec![record("a.one", 200.0, "ns/iter")]);
    let v = &compare_bench_reports(&[&a, &b, &bad], 0.05)[0];
    assert!(v.regressed);
    // and the render names the verdict
    assert!(v.render().contains("REGRESSION"), "got: {}", v.render());
}

/// The shared statistic itself: sign folding and the noise band, as
/// documented on [`baseline_verdict`].
#[test]
fn baseline_verdict_folds_direction() {
    // lower-is-better (higher_is_better = false): latest above mean = worse
    let v = baseline_verdict(&[100.0], 150.0, false, 0.10);
    assert!(v.change < 0.0 && v.regressed && v.beyond_noise);
    let v = baseline_verdict(&[100.0], 60.0, false, 0.10);
    assert!(v.change > 0.0 && !v.regressed);
    // higher-is-better: latest above mean = better
    let v = baseline_verdict(&[100.0], 150.0, true, 0.10);
    assert!(v.change > 0.0 && !v.regressed);
}

/// Units heuristics the trajectory relies on.
#[test]
fn bench_units_directions() {
    assert!(lower_is_better_units("ns/iter"));
    assert!(lower_is_better_units("ms/op"));
    assert!(lower_is_better_units("seconds"));
    assert!(!lower_is_better_units("GB/s"));
    assert!(!lower_is_better_units("iter/s"));
    assert!(!lower_is_better_units("count"));
}

// ---------------------------------------------------------------------------
// Speed calibration
// ---------------------------------------------------------------------------

/// A uniformly 2× slower machine flags everything absolutely but nothing
/// calibrated — the shift cancels against the suite's own median bench
/// ratio, and the speed factor reports it instead.
#[test]
fn calibration_cancels_uniform_machine_shifts() {
    let old = report(
        "2026-08-07",
        vec![
            record("a.one", 100.0, "ns/iter"),
            record("b.two", 1_000.0, "ns/iter"),
            record("c.three", 10_000.0, "ns/iter"),
        ],
    );
    let slow_machine = report(
        "2026-08-08",
        vec![
            record("a.one", 200.0, "ns/iter"),
            record("b.two", 2_000.0, "ns/iter"),
            record("c.three", 20_000.0, "ns/iter"),
        ],
    );

    let absolute = compare_bench_reports(&[&old, &slow_machine], 0.10);
    assert_eq!(absolute.iter().filter(|v| v.regressed).count(), 3);

    let calibrated = compare_bench_reports_calibrated(&[&old, &slow_machine], 0.10);
    assert_eq!(calibrated.len(), 3);
    assert!(calibrated.iter().all(|v| !v.regressed && !v.improved));
    for v in &calibrated {
        assert!(v.change.abs() < 1e-9, "{}: {}", v.name, v.change);
    }

    let factor = calibration_speed_factor(&[&old, &slow_machine]).unwrap();
    assert!((factor - 0.5).abs() < 1e-9, "half speed, got {factor}");
}

/// One bench regressing against an otherwise steady suite survives
/// calibration: the basis barely moves, the outlier stands out.
#[test]
fn calibration_still_flags_a_relative_regression() {
    let old = report(
        "2026-08-07",
        vec![
            record("a.one", 100.0, "ns/iter"),
            record("b.two", 1_000.0, "ns/iter"),
            record("c.three", 10_000.0, "ns/iter"),
            record("d.four", 100_000.0, "ns/iter"),
        ],
    );
    let mut results = old.results.clone();
    results[0].median_ns = 200.0; // a.one doubled, rest steady
    let latest = report("2026-08-08", results);

    let calibrated = compare_bench_reports_calibrated(&[&old, &latest], 0.10);
    let a = calibrated.iter().find(|v| v.name == "a.one").unwrap();
    assert!(
        a.regressed,
        "doubled bench must flag: {:+.1}%",
        a.change * 100.0
    );
    for v in calibrated.iter().filter(|v| v.name != "a.one") {
        assert!(!v.regressed, "{} paid for the basis shift", v.name);
    }
    // the median bench ratio ignores the outlier
    let factor = calibration_speed_factor(&[&old, &latest]).unwrap();
    assert_eq!(factor, 1.0);
}

/// One bench landing a large speed-up must not make the steady rest of the
/// suite look slower. Five noisy sightings of 13 benches, then a latest
/// report where one bench runs 6× faster and the others within the
/// baseline noise: only that bench moves, as an improvement.
#[test]
fn calibration_is_not_pulled_by_one_bench_speeding_up() {
    let names: Vec<String> = (0..13).map(|i| format!("g{i}.bench")).collect();
    let sighting = |created: &str, wobble: f64| {
        let results = names
            .iter()
            .enumerate()
            .map(|(i, n)| {
                let sign = if i % 2 == 0 { 1.0 } else { -1.0 };
                record(
                    n,
                    1_000.0 * (i + 1) as f64 * (1.0 + sign * wobble),
                    "ns/iter",
                )
            })
            .collect();
        report(created, results)
    };
    let baseline: Vec<BenchReport> = [0.02, -0.03, 0.01, 0.03, -0.02]
        .iter()
        .enumerate()
        .map(|(k, &w)| sighting(&format!("2026-08-0{}", k + 1), w))
        .collect();
    let mut latest = sighting("2026-08-09", 0.01);
    latest.results[4].median_ns /= 6.0;

    let mut history: Vec<&BenchReport> = baseline.iter().collect();
    history.push(&latest);
    let verdicts = compare_bench_reports_calibrated(&history, 0.10);
    assert_eq!(verdicts.len(), 13);
    for v in &verdicts {
        assert!(
            !v.regressed,
            "{} regressed {:+.1}%",
            v.name,
            v.change * 100.0
        );
        assert_eq!(v.improved, v.name == "g4.bench", "{}", v.name);
        if v.name != "g4.bench" {
            assert!(
                v.change.abs() < 0.05,
                "{}: {:+.1}%",
                v.name,
                v.change * 100.0
            );
        }
    }
    let factor = calibration_speed_factor(&history).unwrap();
    assert!((factor - 1.0).abs() < 0.03, "got {factor}");
}

/// With fewer than two shared benches there is no basis to calibrate
/// against: the comparison falls back to raw medians rather than gating
/// nothing.
#[test]
fn calibration_falls_back_without_a_shared_basis() {
    let old = report("2026-08-07", vec![record("a.one", 100.0, "ns/iter")]);
    let slow = report("2026-08-08", vec![record("a.one", 150.0, "ns/iter")]);
    assert!(calibration_speed_factor(&[&old, &slow]).is_none());
    let verdicts = compare_bench_reports_calibrated(&[&old, &slow], 0.10);
    assert_eq!(verdicts.len(), 1);
    assert!(verdicts[0].regressed, "raw fallback must still gate");
}

// ---------------------------------------------------------------------------
// Formatting helpers
// ---------------------------------------------------------------------------

#[test]
fn format_ns_scales_units() {
    assert_eq!(format_ns(512.0), "512.0 ns");
    assert_eq!(format_ns(29_426.5), "29.427 µs");
    assert_eq!(format_ns(16_411_380.5), "16.411 ms");
    assert_eq!(format_ns(2_500_000_000.0), "2.500 s");
}

#[test]
fn date_from_unix_days_is_civil() {
    assert_eq!(date_from_unix_days(0), "1970-01-01");
    assert_eq!(date_from_unix_days(20_673), "2026-08-08");
    assert_eq!(date_from_unix_days(19_054), "2022-03-03");
}
