use crate::{
    chrome_trace, export_all, folded_stacks, prometheus_text, report_to_json, span_ticks, Timebase,
    EXPORT_FILES,
};
use benchpark_telemetry::{TelemetryReport, TelemetrySink};
use benchpark_yamlite::{parse_json, Value};

/// A small, fully deterministic report: two nested spans plus a sibling,
/// one counter, one stable and one volatile observation.
fn sample_report() -> TelemetryReport {
    let sink = TelemetrySink::recording();
    {
        let root = sink.span("pipeline.run");
        root.set_attr("benchmark", "amg2023");
        {
            let child = sink.span("install");
            child.set_virtual(12.0);
            child.set_attr("packages", 3);
            child.set_attr_volatile("workers", 4);
            sink.incr("cache.hit", 2);
            sink.observe("queue.depth", 5.0);
            sink.observe_volatile("install.makespan_seconds", 7.5);
        }
        let _sibling = sink.span("analyze");
    }
    sink.report().unwrap()
}

#[test]
fn span_ticks_pair_starts_with_ends() {
    let report = sample_report();
    let ticks = span_ticks(&report);
    assert_eq!(ticks.len(), 3);
    // journal: B(run) B(install) C O O E(install) B(analyze) E(analyze) E(run)
    assert_eq!(ticks[0], (0, 8)); // pipeline.run spans the whole journal
    assert_eq!(ticks[1], (1, 5)); // install closes after the three samples
    assert_eq!(ticks[2], (6, 7)); // analyze
}

#[test]
fn canonical_chrome_trace_is_valid_json_with_tick_timestamps() {
    let report = sample_report();
    let text = chrome_trace(&report, Timebase::Canonical);
    let doc = parse_json(&text).expect("canonical trace parses");
    let events = doc.get("traceEvents").and_then(Value::as_seq).unwrap();
    assert_eq!(events.len(), report.journal.len() - 1); // volatile observe dropped
                                                        // First event: B pipeline.run at tick 0 with stable args.
    let first = &events[0];
    assert_eq!(first.get("ph").and_then(Value::as_str), Some("B"));
    assert_eq!(first.get("ts").and_then(Value::as_int), Some(0));
    assert_eq!(
        first
            .get("args")
            .and_then(|a| a.get("benchmark"))
            .and_then(Value::as_str),
        Some("amg2023")
    );
    // The install span keeps its stable virtual time but not the volatile attr.
    let install = events
        .iter()
        .find(|e| e.get("name").and_then(Value::as_str) == Some("install"))
        .unwrap();
    let args = install.get("args").unwrap();
    assert!(args.get("virtual_seconds").is_some());
    assert!(args.get("workers").is_none());
    // No volatile observation anywhere.
    assert!(!text.contains("install.makespan_seconds"));
    // Canonical output never leaks wall-clock fields.
    assert!(!text.contains("real_seconds"));
}

#[test]
fn wall_chrome_trace_includes_volatile_data_and_durations() {
    let report = sample_report();
    let text = chrome_trace(&report, Timebase::Wall);
    let doc = parse_json(&text).expect("wall trace parses");
    let events = doc.get("traceEvents").and_then(Value::as_seq).unwrap();
    let install = events
        .iter()
        .find(|e| {
            e.get("name").and_then(Value::as_str) == Some("install")
                && e.get("ph").and_then(Value::as_str) == Some("X")
        })
        .unwrap();
    assert!(install.get("dur").is_some());
    assert_eq!(
        install
            .get("args")
            .and_then(|a| a.get("workers"))
            .and_then(Value::as_str),
        Some("4")
    );
    assert!(text.contains("install.makespan_seconds"));
}

#[test]
fn wall_chrome_trace_lays_out_virtual_worker_tracks() {
    let sink = TelemetrySink::recording();
    {
        let span = sink.span("engine.task.a");
        span.set_attr("slot.start", "0");
        span.set_attr("slot.finish", "2.5");
        span.set_attr("worker", "1");
    }
    let text = chrome_trace(&sink.report().unwrap(), Timebase::Wall);
    let doc = parse_json(&text).unwrap();
    let events = doc.get("traceEvents").and_then(Value::as_seq).unwrap();
    // A second X event for the task on pid 2 (virtual), tid = worker + 1.
    let virtual_ev = events
        .iter()
        .find(|e| {
            e.get("ph").and_then(Value::as_str) == Some("X")
                && e.get("pid").and_then(Value::as_int) == Some(2)
        })
        .expect("virtual track event");
    assert_eq!(virtual_ev.get("tid").and_then(Value::as_int), Some(2));
    assert_eq!(virtual_ev.get("dur").and_then(Value::as_float), Some(2.5e6));
    // And a thread_name metadata record for the worker.
    assert!(text.contains("thread_name"));
    assert!(text.contains("worker 1"));
}

#[test]
fn folded_stacks_aggregate_self_ticks_per_path() {
    let report = sample_report();
    let text = folded_stacks(&report, Timebase::Canonical);
    let lines: Vec<&str> = text.lines().collect();
    // Sorted lexicographically by path.
    assert_eq!(
        lines,
        vec![
            "pipeline.run 3", // extent 8 - install 4 - analyze 1
            "pipeline.run;analyze 1",
            "pipeline.run;install 4",
        ]
    );
}

#[test]
fn folded_stacks_merge_repeated_paths() {
    let sink = TelemetrySink::recording();
    {
        let _root = sink.span("root");
        for _ in 0..3 {
            let _child = sink.span("step");
        }
    }
    let text = folded_stacks(&sink.report().unwrap(), Timebase::Canonical);
    // Three `step` spans fold into one line with summed ticks.
    assert_eq!(
        text.lines().filter(|l| l.starts_with("root;step ")).count(),
        1
    );
    assert!(text.contains("root;step 3"));
}

#[test]
fn prometheus_text_exposes_counters_and_skips_volatile_in_canonical() {
    let report = sample_report();
    let text = prometheus_text(&report, Timebase::Canonical);
    assert!(text.contains("# TYPE benchpark_cache_hit_total counter"));
    assert!(text.contains("benchpark_cache_hit_total 2"));
    assert!(text.contains("benchpark_queue_depth{stat=\"mean\"} 5.0"));
    assert!(text.contains("benchpark_queue_depth_samples 1"));
    assert!(!text.contains("makespan"));
    let wall = prometheus_text(&report, Timebase::Wall);
    assert!(wall.contains("benchpark_install_makespan_seconds{stat=\"last\"} 7.5"));
}

#[test]
fn report_json_round_trips_and_labels_volatility() {
    let report = sample_report();
    let text = report_to_json(&report);
    let doc = parse_json(&text).expect("report json parses");
    assert_eq!(doc.get("schema").and_then(Value::as_int), Some(1));
    let spans = doc.get("spans").and_then(Value::as_seq).unwrap();
    assert_eq!(spans.len(), 3);
    let obs = doc.get("observations").unwrap();
    assert_eq!(
        obs.get("install.makespan_seconds")
            .and_then(|o| o.get("volatile"))
            .and_then(Value::as_bool),
        Some(true)
    );
    assert_eq!(
        obs.get("queue.depth")
            .and_then(|o| o.get("volatile"))
            .and_then(Value::as_bool),
        Some(false)
    );
}

#[test]
fn export_all_writes_the_bundle() {
    let dir = std::env::temp_dir().join(format!("benchpark-obs-test-{}", std::process::id()));
    let _ = std::fs::remove_dir_all(&dir);
    let report = sample_report();
    let written = export_all(&report, &dir).expect("export succeeds");
    assert_eq!(written, EXPORT_FILES.to_vec());
    for name in EXPORT_FILES {
        let body = std::fs::read_to_string(dir.join(name)).unwrap();
        assert!(!body.is_empty(), "{name} is empty");
    }
    // The canonical trace parses as JSON.
    let trace = std::fs::read_to_string(dir.join("trace.json")).unwrap();
    parse_json(&trace).expect("exported trace parses");
    let _ = std::fs::remove_dir_all(&dir);
}

#[test]
fn canonical_exports_are_reproducible_across_reruns() {
    // Two identically-shaped recordings taken at different wall times
    // produce byte-identical canonical artifacts.
    let (a, b) = (sample_report(), sample_report());
    assert_eq!(
        chrome_trace(&a, Timebase::Canonical),
        chrome_trace(&b, Timebase::Canonical)
    );
    assert_eq!(
        folded_stacks(&a, Timebase::Canonical),
        folded_stacks(&b, Timebase::Canonical)
    );
    assert_eq!(
        prometheus_text(&a, Timebase::Canonical),
        prometheus_text(&b, Timebase::Canonical)
    );
}

#[test]
fn prometheus_text_labels_per_tenant_serve_counters() {
    let sink = TelemetrySink::recording();
    sink.incr("serve.submitted", 7);
    sink.incr("serve.tenant.alice.submitted", 4);
    sink.incr("serve.tenant.bob.submitted", 3);
    sink.incr("serve.tenant.alice.completed", 4);
    let text = prometheus_text(&sink.report().unwrap(), Timebase::Canonical);
    // Flat counters keep their names.
    assert!(text.contains("benchpark_serve_submitted_total 7"));
    // Per-tenant counters collapse into one labeled family per metric...
    assert!(text.contains("benchpark_serve_submitted_total{tenant=\"alice\"} 4"));
    assert!(text.contains("benchpark_serve_submitted_total{tenant=\"bob\"} 3"));
    assert!(text.contains("benchpark_serve_completed_total{tenant=\"alice\"} 4"));
    // ...with exactly one HELP/TYPE header pair per family, even when a
    // flat counter shares the family name (unlabeled aggregate + labeled
    // series under one header).
    let headers = text
        .matches("# TYPE benchpark_serve_submitted_total counter")
        .count();
    assert_eq!(headers, 1);
    assert_eq!(
        text.matches("# HELP benchpark_serve_completed_total ")
            .count(),
        1
    );
    let flat = text.find("benchpark_serve_submitted_total 7").unwrap();
    let labeled = text
        .find("benchpark_serve_submitted_total{tenant=\"alice\"}")
        .unwrap();
    assert!(flat < labeled);
}

// --- PR 10: label escaping and histogram exposition ---

/// Label values with exposition-format metacharacters must be escaped.
/// Tenant ids are admission-validated today, but the exporter hardens
/// against whatever lands in a telemetry name; table-driven over the
/// characters the format reserves.
#[test]
fn prometheus_label_values_are_escaped() {
    let cases: [(&str, &str); 5] = [
        ("plain", "plain"),
        ("he\"llo\n", "he\\\"llo\\n"),
        ("back\\slash", "back\\\\slash"),
        ("a\nb", "a\\nb"),
        ("q\"q", "q\\\"q"),
    ];
    for (raw, want) in cases {
        let sink = TelemetrySink::recording();
        // constructed via the counter name, bypassing admission validation
        sink.incr(&format!("serve.tenant.{raw}.completed"), 3);
        let text = prometheus_text(&sink.report().unwrap(), Timebase::Canonical);
        let line = format!("benchpark_serve_completed_total{{tenant=\"{want}\"}} 3");
        assert!(text.contains(&line), "expected {line:?} in:\n{text}");
        // every emitted label value is free of raw quotes/newlines inside
        for l in text.lines() {
            assert!(!l.contains('\n'), "no raw newline can survive in one line");
        }
    }
}

#[test]
fn prometheus_histograms_expose_cumulative_buckets_sum_and_count() {
    let sink = TelemetrySink::recording();
    for v in [1u64, 2, 2, 3, 100] {
        sink.record_hist("serve.stage.queue_wait", v);
    }
    let text = prometheus_text(&sink.report().unwrap(), Timebase::Canonical);
    assert!(text.contains("# TYPE benchpark_serve_stage_queue_wait histogram"));
    // per-bucket counts become cumulative: le=1 -> 1, le=2 -> 3, le=4 -> 4,
    // then flat until le=128 catches 100
    assert!(text.contains("benchpark_serve_stage_queue_wait_bucket{le=\"1\"} 1"));
    assert!(text.contains("benchpark_serve_stage_queue_wait_bucket{le=\"2\"} 3"));
    assert!(text.contains("benchpark_serve_stage_queue_wait_bucket{le=\"4\"} 4"));
    assert!(text.contains("benchpark_serve_stage_queue_wait_bucket{le=\"128\"} 5"));
    assert!(text.contains("benchpark_serve_stage_queue_wait_bucket{le=\"+Inf\"} 5"));
    assert!(
        !text.contains("le=\"256\""),
        "trailing empty finite buckets are trimmed:\n{text}"
    );
    assert!(text.contains("benchpark_serve_stage_queue_wait_sum 108"));
    assert!(text.contains("benchpark_serve_stage_queue_wait_count 5"));

    // cumulative bucket series must be monotone nondecreasing
    let mut prev = 0u64;
    for line in text.lines() {
        if let Some(rest) = line.strip_prefix("benchpark_serve_stage_queue_wait_bucket") {
            let count: u64 = rest.rsplit(' ').next().unwrap().parse().unwrap();
            assert!(count >= prev, "bucket counts regressed in:\n{text}");
            prev = count;
        }
    }
}

#[test]
fn prometheus_per_tenant_histograms_share_one_family_header() {
    let sink = TelemetrySink::recording();
    sink.record_hist("serve.tenant.alice.execute", 5);
    sink.record_hist("serve.tenant.bob.execute", 300);
    let text = prometheus_text(&sink.report().unwrap(), Timebase::Canonical);
    assert_eq!(
        text.matches("# TYPE benchpark_serve_execute histogram")
            .count(),
        1,
        "one header per family:\n{text}"
    );
    assert!(text.contains("benchpark_serve_execute_bucket{tenant=\"alice\",le=\"8\"} 1"));
    assert!(text.contains("benchpark_serve_execute_bucket{tenant=\"alice\",le=\"+Inf\"} 1"));
    assert!(text.contains("benchpark_serve_execute_bucket{tenant=\"bob\",le=\"512\"} 1"));
    assert!(text.contains("benchpark_serve_execute_sum{tenant=\"alice\"} 5"));
    assert!(text.contains("benchpark_serve_execute_count{tenant=\"bob\"} 1"));
    // flat histograms and labeled families coexist
    sink.record_hist("telemetry.latency", 9);
    let text = prometheus_text(&sink.report().unwrap(), Timebase::Canonical);
    assert!(text.contains("benchpark_telemetry_latency_bucket{le=\"16\"} 1"));
}

/// The serve daemon's aggregate-only sink must expose exactly what a
/// recording sink fed the same events exposes: the exposition reads
/// counters, observations and histograms, never spans or the journal.
#[test]
fn aggregating_sink_renders_the_same_prometheus_text_as_recording() {
    let feed = |sink: &TelemetrySink| {
        for i in 0..40u64 {
            let tenant = ["alice", "bob", "carol"][i as usize % 3];
            let span = sink.span("serve.request");
            span.set_attr("tenant", tenant);
            span.set_virtual(i as f64);
            sink.incr("serve.completed", 1);
            sink.incr(&format!("serve.tenant.{tenant}.completed"), 1);
            sink.incr("serve.experiments.cached", i % 4);
            sink.observe("serve.queue.depth", (40 - i) as f64);
            sink.observe_volatile("serve.wall_ms", i as f64 * 0.25);
            sink.record_hist("serve.stage.execute", i * i);
            sink.record_hist(&format!("serve.tenant.{tenant}.queue_wait"), i);
        }
    };
    let recording = TelemetrySink::recording();
    let aggregating = TelemetrySink::aggregating();
    feed(&recording);
    feed(&aggregating);
    let (full, totals) = (recording.report().unwrap(), aggregating.report().unwrap());
    assert_eq!(full.spans.len(), 40);
    assert!(totals.spans.is_empty() && totals.journal.is_empty());
    for timebase in [Timebase::Canonical, Timebase::Wall] {
        let text = prometheus_text(&totals, timebase);
        assert!(text.contains("benchpark_serve_completed_total{tenant=\"bob\"} 13"));
        assert_eq!(text, prometheus_text(&full, timebase));
    }
}
