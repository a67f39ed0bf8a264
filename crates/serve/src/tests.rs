use crate::queue::{QueueConfig, RejectReason, SubmissionQueue};
use crate::request::ExperimentRequest;
use crate::sched::DrrScheduler;
use benchpark_telemetry::TelemetrySink;

fn req(tenant: &str) -> ExperimentRequest {
    ExperimentRequest::new(tenant, "saxpy", "openmp", "cts1")
}

#[test]
fn parse_line_roundtrip() {
    let r = ExperimentRequest::parse_line("alice saxpy/openmp cts1")
        .unwrap()
        .unwrap();
    assert_eq!(r.tenant, "alice");
    assert_eq!(r.benchmark, "saxpy");
    assert_eq!(r.variant, "openmp");
    assert_eq!(r.system, "cts1");
    assert!(!r.faults);
    assert_eq!(r.to_line(), "alice saxpy/openmp cts1");

    let r = ExperimentRequest::parse_line("bob stream/openmp ats2 faults template=t.yaml")
        .unwrap()
        .unwrap();
    assert!(r.faults);
    assert_eq!(
        r.template_path.as_ref().unwrap().to_str().unwrap(),
        "t.yaml"
    );
    assert_eq!(r.to_line(), "bob stream/openmp ats2 faults template=t.yaml");
}

#[test]
fn parse_line_skips_comments_and_rejects_malformed() {
    assert!(ExperimentRequest::parse_line("").unwrap().is_none());
    assert!(ExperimentRequest::parse_line("  # comment")
        .unwrap()
        .is_none());
    assert!(ExperimentRequest::parse_line("alice").is_err());
    assert!(ExperimentRequest::parse_line("alice saxpy cts1").is_err());
    assert!(ExperimentRequest::parse_line("alice saxpy/openmp cts1 bogus").is_err());
}

#[test]
fn spec_key_ignores_tenant_but_not_template() {
    let a = req("alice");
    let b = req("bob");
    assert_eq!(a.spec_key(), b.spec_key());
    let mut c = req("alice");
    c.template = Some("experiments: {}".to_string());
    assert_ne!(a.spec_key(), c.spec_key());
    let mut d = req("alice");
    d.faults = true;
    assert_ne!(a.spec_key(), d.spec_key());
}

#[test]
fn admission_validates_and_enforces_quotas() {
    let sink = TelemetrySink::recording();
    let config = QueueConfig {
        max_queued_per_tenant: 2,
        max_queued_global: 3,
        ..QueueConfig::default()
    };
    let mut queue = SubmissionQueue::new(config, sink.clone());

    let bad = queue.admit(req("Alice")).unwrap_err();
    assert!(matches!(bad.reason, RejectReason::BadTenant { .. }));
    assert_eq!(bad.reason.code(), "bad-tenant");

    let mut r = req("alice");
    r.system = "nosuch".to_string();
    let bad = queue.admit(r).unwrap_err();
    assert_eq!(bad.reason.code(), "unknown-system");

    let mut r = req("alice");
    r.benchmark = "nosuch".to_string();
    let bad = queue.admit(r).unwrap_err();
    assert_eq!(bad.reason.code(), "unknown-experiment");

    assert_eq!(queue.admit(req("alice")).unwrap(), 1);
    assert_eq!(queue.admit(req("alice")).unwrap(), 2);
    let bad = queue.admit(req("alice")).unwrap_err();
    assert!(matches!(
        bad.reason,
        RejectReason::TenantQueueFull { limit: 2 }
    ));

    assert_eq!(queue.admit(req("bob")).unwrap(), 1);
    let bad = queue.admit(req("carol")).unwrap_err();
    assert!(matches!(
        bad.reason,
        RejectReason::GlobalQueueFull { limit: 3 }
    ));

    let report = sink.report().unwrap();
    assert_eq!(report.counter("serve.submitted"), 3);
    assert_eq!(report.counter("serve.rejected"), 5);
    assert_eq!(report.counter("serve.rejected.tenant-queue-full"), 1);
    assert_eq!(report.counter("serve.rejected.global-queue-full"), 1);
    assert_eq!(report.counter("serve.tenant.alice.submitted"), 2);
    assert_eq!(report.counter("serve.tenant.alice.rejected"), 3);
}

#[test]
fn queue_is_fifo_within_tenant() {
    let mut queue = SubmissionQueue::new(QueueConfig::default(), TelemetrySink::noop());
    let mut a1 = req("alice");
    a1.system = "cts1".to_string();
    let mut a2 = req("alice");
    a2.system = "ats2".to_string();
    queue.admit(a1).unwrap();
    queue.admit(a2).unwrap();
    let first = queue.pop_front("alice").unwrap();
    let second = queue.pop_front("alice").unwrap();
    assert_eq!(first.tenant_seq, 1);
    assert_eq!(first.request.system, "cts1");
    assert_eq!(second.tenant_seq, 2);
    assert_eq!(second.request.system, "ats2");
    assert!(queue.pop_front("alice").is_none());
}

#[test]
fn drr_is_fair_across_tenants() {
    let config = QueueConfig {
        quantum: 2,
        max_inflight_per_tenant: 4,
        ..QueueConfig::default()
    };
    let mut queue = SubmissionQueue::new(config.clone(), TelemetrySink::noop());
    // alice floods, bob submits two: bob must not starve.
    for _ in 0..6 {
        queue.admit(req("alice")).unwrap();
    }
    for _ in 0..2 {
        queue.admit(req("bob")).unwrap();
    }
    let mut sched = DrrScheduler::new(&config);

    let batch = sched.next_batch(&mut queue);
    let tenants: Vec<&str> = batch.iter().map(|q| q.request.tenant.as_str()).collect();
    assert_eq!(tenants, vec!["alice", "alice", "bob", "bob"]);

    let batch = sched.next_batch(&mut queue);
    let tenants: Vec<&str> = batch.iter().map(|q| q.request.tenant.as_str()).collect();
    assert_eq!(tenants, vec!["alice", "alice"]);

    let batch = sched.next_batch(&mut queue);
    assert_eq!(batch.len(), 2);
    assert!(queue.is_empty());
    assert!(sched.next_batch(&mut queue).is_empty());
}

#[test]
fn drr_caps_per_tenant_inflight_and_carries_deficit() {
    let config = QueueConfig {
        quantum: 5,
        max_inflight_per_tenant: 3,
        ..QueueConfig::default()
    };
    let mut queue = SubmissionQueue::new(config.clone(), TelemetrySink::noop());
    for _ in 0..8 {
        queue.admit(req("alice")).unwrap();
    }
    let mut sched = DrrScheduler::new(&config);
    // Round 1: deficit 5, capped at 3 picks, 2 carried.
    assert_eq!(sched.next_batch(&mut queue).len(), 3);
    assert_eq!(sched.deficit("alice"), 2);
    // Round 2: deficit 7, capped at 3 picks.
    assert_eq!(sched.next_batch(&mut queue).len(), 3);
    // Round 3: queue empties; deficit forfeited.
    assert_eq!(sched.next_batch(&mut queue).len(), 2);
    assert_eq!(sched.deficit("alice"), 0);
}

#[test]
fn report_json_and_render() {
    let mut report = crate::report::ServeReport {
        admitted: 10,
        completed: 9,
        failed: 1,
        batches: 3,
        experiments_fresh: 4,
        experiments_cached: 12,
        elapsed_s: 2.0,
        ..Default::default()
    };
    report.tenants.insert(
        "alice".to_string(),
        crate::report::TenantStats {
            submitted: 10,
            completed: 9,
            failed: 1,
            fresh: 4,
            cached: 12,
            ..Default::default()
        },
    );
    assert!((report.throughput() - 4.5).abs() < 1e-9);
    assert!((report.hit_rate() - 0.75).abs() < 1e-9);
    let json = report.to_json();
    assert!(json.contains("\"throughput_rps\""));
    assert!(json.contains("\"alice\""));
    let text = report.render();
    assert!(text.contains("hit rate: 75.0%"));
}

// --- PR 10: virtual clock, trace context, windows, SLOs, status ---

#[test]
fn admission_stamps_ticks_and_mints_request_ctx() {
    let mut queue = SubmissionQueue::new(QueueConfig::default(), TelemetrySink::noop());
    assert_eq!(queue.tick(), 0);
    queue.admit(req("alice")).unwrap();
    queue.admit(req("bob")).unwrap();
    assert_eq!(queue.tick(), 2, "one tick per admission");
    queue.advance_tick(3);
    assert_eq!(queue.tick(), 5);

    let picked = queue.pop_front("alice").unwrap();
    assert_eq!(picked.submit_tick, 0);
    let ctx = picked.ctx();
    assert_eq!(ctx.tenant, "alice");
    assert_eq!(ctx.request_id, 1, "request id is the global intake seq");
    assert_eq!(ctx.submit_tick, 0);
    assert_eq!(ctx.spec_key, picked.request.spec_key());
    let picked = queue.pop_front("bob").unwrap();
    assert_eq!(picked.submit_tick, 1);
    assert_eq!(picked.ctx().request_id, 2);
}

/// Regression (the fix this PR carries): the queue-depth gauge must be
/// sampled at every drain tick and reach zero once the queue is fully
/// drained — not be left dangling at the last pop's pre-decrement value.
#[test]
fn queue_depth_gauge_reaches_zero_after_full_drain() {
    let base = std::env::temp_dir().join(format!("benchpark-serve-depth-{}", std::process::id()));
    let _ = std::fs::remove_dir_all(&base);
    std::fs::create_dir_all(&base).unwrap();
    let mut daemon =
        crate::daemon::ServeDaemon::new(crate::daemon::ServeConfig::new(&base)).unwrap();
    for _ in 0..5 {
        daemon.submit(req("alice")).unwrap();
    }
    let sink = daemon.telemetry();
    daemon.drain().unwrap();
    let report = sink.report().unwrap();
    let depth = report
        .observation("serve.queue.depth")
        .expect("depth gauge sampled");
    assert_eq!(depth.last, 0.0, "depth must be 0 after a full drain");
    assert!(depth.max >= 5.0, "depth peaked at the queued count");
    let _ = std::fs::remove_dir_all(&base);
}

#[test]
fn rolling_windows_aggregate_and_close_on_tick_boundaries() {
    use crate::window::{CompletionEvent, RollingWindows, WindowConfig};
    let mut windows = RollingWindows::new(WindowConfig {
        width_ticks: 10,
        retain: 2,
    });
    windows.record_submit(0);
    windows.record_submit(3);
    windows.record_reject(4, "tenant-queue-full");
    windows.record_complete(
        5,
        CompletionEvent {
            fresh: 2,
            cached: 6,
            queue_wait_ticks: 5,
            execute_ticks: 40,
            ..CompletionEvent::default()
        },
    );
    let current = windows.fast();
    assert_eq!(current.index, 0);
    assert_eq!(current.submitted, 2);
    assert_eq!(current.rejected_total(), 1);
    assert_eq!(current.completed, 1);
    assert!((current.reject_rate() - 1.0 / 3.0).abs() < 1e-9);
    assert!((current.hit_rate() - 0.75).abs() < 1e-9);
    assert!((current.throughput() - 0.1).abs() < 1e-9);

    // crossing a boundary closes window 0; empty windows in between do not
    // consume retention slots
    windows.record_complete(47, CompletionEvent::default());
    let views = windows.views();
    assert_eq!(views.len(), 2, "closed window 0 + current window 4");
    assert_eq!(views[0].index, 0);
    assert_eq!(views[1].index, 4);
    assert_eq!(views[1].start_tick, 40);

    // slow horizon is the union; fast is the current (active) window
    let slow = windows.slow();
    assert_eq!(slow.submitted, 2);
    assert_eq!(slow.completed, 2);
    assert_eq!(slow.start_tick, 0);
    assert_eq!(slow.end_tick, 50);
    assert_eq!(windows.fast().index, 4);

    // retention: two more non-empty windows evict window 0
    windows.record_complete(50, CompletionEvent::default());
    windows.record_complete(60, CompletionEvent::default());
    windows.record_complete(70, CompletionEvent::default());
    let views = windows.views();
    assert!(views.iter().all(|w| w.index != 0), "window 0 evicted");
    assert_eq!(views.len(), 3, "retain=2 closed + current");
}

#[test]
fn slo_parse_rejects_unknown_metrics_and_accepts_units() {
    use crate::slo::SloSpec;
    let spec = SloSpec::parse(
        "# comment\np99_queue_wait <= 2048 ticks\nreject_rate <= 0.01\nhit_rate >= 0.5\n",
    )
    .unwrap();
    assert_eq!(spec.targets.len(), 3);
    assert_eq!(spec.targets[0].render(), "p99_queue_wait <= 2048");

    let err = SloSpec::parse("p42_queue_wait <= 7\n").unwrap_err();
    assert!(err.contains("slo line 1"), "{err}");
    assert!(err.contains("unknown metric"), "{err}");
    assert!(SloSpec::parse("p99_queue_wait < 7\n").is_err(), "bad op");
    assert!(
        SloSpec::parse("p99_queue_wait <= abc\n").is_err(),
        "bad threshold"
    );
    assert!(
        SloSpec::parse("p99_queue_wait <= 7 bogus\n").is_err(),
        "bad unit"
    );
}

#[test]
fn slo_verdicts_follow_multi_window_burn_rates() {
    use crate::slo::{SloSpec, Verdict};
    use crate::window::{CompletionEvent, RollingWindows, WindowConfig};
    let spec = SloSpec::parse("p99_queue_wait <= 10\n").unwrap();
    let mut windows = RollingWindows::new(WindowConfig {
        width_ticks: 10,
        retain: 8,
    });
    // slow history: two healthy windows with enough samples that one
    // outlier cannot drag the union's p99 (rank ceil(0.99 * n) must land on a
    // healthy sample)
    for tick in [0, 10] {
        for _ in 0..50 {
            windows.record_complete(
                tick,
                CompletionEvent {
                    queue_wait_ticks: 2,
                    ..CompletionEvent::default()
                },
            );
        }
    }
    let verdicts = spec.evaluate(windows.fast(), &windows.slow());
    assert_eq!(verdicts[0].verdict, Verdict::Pass);

    // fast horizon breaches, slow still healthy: WARN
    windows.record_complete(
        20,
        CompletionEvent {
            queue_wait_ticks: 500,
            ..CompletionEvent::default()
        },
    );
    let verdicts = spec.evaluate(windows.fast(), &windows.slow());
    assert_eq!(verdicts[0].verdict, Verdict::Warn);
    assert!(verdicts[0].fast > 10.0);
    assert!(verdicts[0].slow <= 10.0, "slow horizon still healthy");

    // sustained breach drags the slow horizon over too: FAIL
    for tick in [30, 40, 50] {
        for _ in 0..20 {
            windows.record_complete(
                tick,
                CompletionEvent {
                    queue_wait_ticks: 500,
                    ..CompletionEvent::default()
                },
            );
        }
    }
    let verdicts = spec.evaluate(windows.fast(), &windows.slow());
    assert_eq!(verdicts[0].verdict, Verdict::Fail);
}

#[test]
fn status_snapshot_roundtrips_and_check_semantics() {
    use crate::slo::SloSpec;
    use crate::status::{StageHists, StatusSnapshot};
    use crate::window::{CompletionEvent, RollingWindows};
    let mut report = crate::report::ServeReport {
        admitted: 3,
        completed: 3,
        batches: 1,
        experiments_fresh: 4,
        experiments_cached: 12,
        ..Default::default()
    };
    report.tenants.insert(
        "alice".to_string(),
        crate::report::TenantStats {
            submitted: 3,
            completed: 3,
            fresh: 4,
            cached: 12,
            ..Default::default()
        },
    );
    let mut hists = StageHists::default();
    hists.record("alice", 4, 0, 338, 1);
    hists.record("alice", 5, 1, 1, 2);
    hists.record("alice", 6, 2, 1, 3);
    let mut windows = RollingWindows::default();
    for i in 0..3u64 {
        windows.record_submit(i);
        windows.record_complete(
            3,
            CompletionEvent {
                fresh: 1,
                cached: 4,
                queue_wait_ticks: 4 + i,
                execute_ticks: if i == 0 { 338 } else { 1 },
                ..CompletionEvent::default()
            },
        );
    }
    let slo = SloSpec::parse("p99_execute <= 10\nhit_rate >= 0.5\n").unwrap();
    let snapshot = StatusSnapshot::build(7, &report, &hists, &windows, Some(&slo));

    assert_eq!(snapshot.tick, 7);
    assert_eq!(snapshot.stages[0].0, "queue_wait");
    assert_eq!(snapshot.stages[2].0, "execute");
    assert_eq!(snapshot.stages[2].1.max, 338);
    assert_eq!(snapshot.tenants.len(), 1);
    assert_eq!(snapshot.tenants[0].queue_wait.count, 3);
    assert!(snapshot.has_failing_slo(), "execute p99 512-bucket > 10");

    // canonical JSON round-trips losslessly
    let json = snapshot.to_json();
    let parsed = StatusSnapshot::parse(&json).unwrap();
    assert_eq!(parsed.to_json(), json, "parse∘emit is the identity");
    assert!(parsed.has_failing_slo());

    // rendering mentions the failing target
    let text = snapshot.render();
    assert!(text.contains("FAIL p99_execute <= 10"), "{text}");
    assert!(text.contains("alice"), "{text}");

    // without SLOs nothing can fail
    let quiet = StatusSnapshot::build(7, &report, &hists, &windows, None);
    assert!(!quiet.has_failing_slo());
    assert!(
        StatusSnapshot::parse("{\"schema\":9}").is_err(),
        "unknown schema"
    );
}

#[test]
fn atomic_status_write_replaces_not_appends() {
    use crate::status::write_atomic;
    let base = std::env::temp_dir().join(format!("benchpark-serve-atomic-{}", std::process::id()));
    let _ = std::fs::remove_dir_all(&base);
    let path = base.join("nested").join("status.json");
    write_atomic(&path, "{\"a\":1}").unwrap();
    write_atomic(&path, "{\"b\":2}").unwrap();
    assert_eq!(std::fs::read_to_string(&path).unwrap(), "{\"b\":2}");
    assert!(
        !path.with_extension("tmp").exists(),
        "temp file renamed away"
    );
    let _ = std::fs::remove_dir_all(&base);
}

/// A reopened daemon builds each tenant's index by moving results out of
/// the loaded shards. It must hold exactly the indexes `tenant_view` +
/// `from_ledger` build, tenant-local sequences included, and answer
/// resubmissions exactly as a daemon holding those indexes does.
#[test]
fn reopened_daemon_indexes_match_tenant_views() {
    use crate::daemon::{ServeConfig, ServeDaemon};
    use benchpark_core::{append_run, shard_path, FingerprintIndex, RunRecord, ShardedLedger};
    use std::collections::BTreeMap;

    let base = std::env::temp_dir().join(format!("benchpark-serve-reopen-{}", std::process::id()));
    let _ = std::fs::remove_dir_all(&base);
    let requests: String = ["amy", "bea", "cyd"]
        .iter()
        .flat_map(|t| ["cts1", "ats2"].map(|s| format!("{t} saxpy/openmp {s}\n")))
        .collect();
    let primed = base.join("primed");
    let mut daemon = ServeDaemon::new(ServeConfig::new(&primed)).unwrap();
    daemon.intake_text(&requests, &base);
    assert_eq!(daemon.drain().unwrap().completed, 6);
    drop(daemon);

    let ledger = primed.join("ledger");
    // cyd reruns its cts1 experiment: same fingerprint, a later record wins
    let shard = shard_path(&ledger, "cyd", "cts1");
    let text = std::fs::read_to_string(&shard).unwrap();
    let mut rerun = RunRecord::parse_line(text.lines().next().unwrap()).unwrap();
    rerun.results[0].foms[0].value = "999".to_string();
    append_run(&shard, &mut rerun).unwrap();
    // a corrupt line, a tenant with an empty shard, one with only garbage
    let mut bea = std::fs::read_to_string(shard_path(&ledger, "bea", "ats2")).unwrap();
    bea.push_str("{\"schema\":2,\"truncated\n");
    std::fs::write(shard_path(&ledger, "bea", "ats2"), bea).unwrap();
    for (tenant, body) in [("dot", ""), ("eve", "not json\n")] {
        std::fs::create_dir_all(ledger.join(tenant)).unwrap();
        std::fs::write(shard_path(&ledger, tenant, "cts1"), body).unwrap();
    }

    let sharded = ShardedLedger::load(&ledger, &TelemetrySink::noop()).unwrap();
    let reference: BTreeMap<String, FingerprintIndex> = sharded
        .tenant_names()
        .into_iter()
        .map(|t| {
            (
                t.to_string(),
                FingerprintIndex::from_ledger(&sharded.tenant_view(t)),
            )
        })
        .collect();
    let superseded = reference["cyd"]
        .iter()
        .find(|e| e.system == "cts1")
        .expect("cyd's cts1 experiment is indexed");
    assert_eq!(superseded.sequence, 3, "tenant-local, not merged, sequence");
    assert_eq!(superseded.result.foms[0].value, "999");

    // two copies of the primed ledger: one opened as-is, one handed the
    // reference indexes
    let mut transcripts = Vec::new();
    for (side, use_reference) in [("opened", false), ("reference", true)] {
        let root = base.join(side);
        for shard in &sharded.shards {
            let target = shard_path(&root.join("ledger"), &shard.tenant, &shard.system);
            std::fs::create_dir_all(target.parent().unwrap()).unwrap();
            std::fs::copy(&shard.path, &target).unwrap();
        }
        let mut daemon = ServeDaemon::new(ServeConfig::new(&root)).unwrap();
        if use_reference {
            daemon.indexes = reference.clone();
        } else {
            assert_eq!(format!("{:?}", daemon.indexes), format!("{reference:?}"));
        }
        // the first resubmission splices from the index and fills the memo;
        // the second takes the memo fastpath
        for _ in 0..2 {
            daemon.intake_text(&requests, &base);
            daemon.drain().unwrap();
        }
        let report = daemon.report();
        assert_eq!((report.completed, report.fastpath), (12, 6));
        assert_eq!(report.experiments_fresh, 0);
        let foms = |tenant: &str| {
            std::fs::read_to_string(root.join("foms").join(format!("{tenant}.txt"))).unwrap()
        };
        assert!(foms("cyd").contains("999"));
        transcripts.push(["amy", "bea", "cyd"].map(foms));
    }
    assert_eq!(transcripts[0], transcripts[1]);
    let _ = std::fs::remove_dir_all(&base);
}

/// Transcripts are appended per drain, yet every file must read exactly as
/// a whole rewrite from memory would leave it: one section per request the
/// tenant committed in this daemon's lifetime, in FIFO order, each section
/// byte-equal to the serial one-shot driver's. A reopened daemon's first
/// flush for a tenant truncates; a tenant it never serves keeps its file.
/// The daemon's own telemetry holds aggregates only, however long it runs.
#[test]
fn appended_transcripts_match_whole_rewrite_across_reopen() {
    use crate::daemon::{ServeConfig, ServeDaemon};
    use crate::report::fom_transcript;
    use benchpark_core::{Benchpark, RunSpec};
    use std::collections::BTreeMap;

    let base = std::env::temp_dir().join(format!("benchpark-serve-append-{}", std::process::id()));
    let _ = std::fs::remove_dir_all(&base);
    let root = base.join("root");
    let mut serial: BTreeMap<&str, String> = BTreeMap::new();
    for system in ["cts1", "ats2"] {
        let spec = RunSpec::new(
            "saxpy",
            "openmp",
            system,
            base.join(format!("serial-{system}")),
        );
        let collected = Benchpark::new().run_request(&spec, None, false).unwrap();
        serial.insert(system, fom_transcript(&collected.results));
    }

    // per lifetime, the drains' `(tenant, system)` requests and the memo
    // fastpath count: amy repeats a spec, and is not served after the reopen
    type Drain<'a> = &'a [(&'a str, &'a str)];
    let lifetimes: [(&[Drain], u64); 2] = [
        (
            &[
                &[("amy", "cts1"), ("bea", "cts1")],
                &[("amy", "ats2"), ("cyd", "cts1")],
                &[("amy", "cts1"), ("bea", "ats2")],
            ],
            1,
        ),
        (&[&[("bea", "cts1"), ("cyd", "ats2")]], 0),
    ];
    let mut expected: BTreeMap<&str, String> = BTreeMap::new();
    for (drains, fastpath) in lifetimes {
        let mut daemon = ServeDaemon::new(ServeConfig::new(&root)).unwrap();
        let mut seqs: BTreeMap<&str, u64> = BTreeMap::new();
        for drain in drains {
            for &(tenant, system) in drain.iter() {
                daemon
                    .submit(ExperimentRequest::new(tenant, "saxpy", "openmp", system))
                    .unwrap();
                let seq = seqs.entry(tenant).or_insert(0);
                *seq += 1;
                let text = expected.entry(tenant).or_default();
                if *seq == 1 {
                    text.clear(); // this lifetime's first flush truncates
                }
                text.push_str(&format!(
                    "=== {tenant}#{seq} saxpy/openmp @ {system}\n{}\n",
                    serial[system]
                ));
            }
            let report = daemon.drain().unwrap();
            assert_eq!(report.failed, 0);
            for (tenant, text) in &expected {
                let file = root.join("foms").join(format!("{tenant}.txt"));
                assert_eq!(&std::fs::read_to_string(file).unwrap(), text, "{tenant}");
            }
        }
        assert_eq!(daemon.report().fastpath, fastpath);
        let telemetry = daemon.telemetry().report().unwrap();
        assert!(telemetry.spans.is_empty(), "daemon keeps no spans");
        assert!(telemetry.journal.is_empty(), "daemon keeps no journal");
        let requests: usize = drains.iter().map(|d| d.len()).sum();
        assert_eq!(telemetry.counter("serve.completed"), requests as u64);
        assert_eq!(
            telemetry.histogram("serve.stage.execute").unwrap().count,
            requests as u64
        );
    }
    let _ = std::fs::remove_dir_all(&base);
}

/// A template nested past the parser's depth bound, flow or block, fails
/// its own request with a parse error; the daemon keeps serving, and the
/// ordinary request in the same replay still commits.
#[test]
fn deeply_nested_templates_fail_their_request_not_the_daemon() {
    use crate::daemon::{ServeConfig, ServeDaemon};

    let base = std::env::temp_dir().join(format!("benchpark-serve-deep-{}", std::process::id()));
    let _ = std::fs::remove_dir_all(&base);
    std::fs::create_dir_all(&base).unwrap();
    let flow = format!("{}{}", "[".repeat(200_000), "]".repeat(200_000));
    let block: String = (0..2_000)
        .map(|i| format!("{}k{i}:\n", " ".repeat(i)))
        .collect();
    std::fs::write(base.join("flow.yaml"), flow).unwrap();
    std::fs::write(base.join("block.yaml"), block).unwrap();
    let replay = "amy saxpy/openmp cts1 template=flow.yaml\n\
                  bea saxpy/openmp cts1 template=block.yaml\n\
                  cyd saxpy/openmp cts1\n";
    let mut daemon = ServeDaemon::new(ServeConfig::new(base.join("root"))).unwrap();
    daemon.intake_text(replay, &base);
    let report = daemon.drain().unwrap();
    assert_eq!((report.completed, report.failed), (1, 2));
    assert_eq!(report.tenants["cyd"].completed, 1);
    for (request, error) in &report.failures {
        assert!(
            error.contains("nesting deeper than 128"),
            "{request}: {error}"
        );
    }
    let _ = std::fs::remove_dir_all(&base);
}
