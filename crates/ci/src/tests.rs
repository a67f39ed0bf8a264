//! Tests for the CI substrate: git model, hub/lab services, Hubcast gating,
//! Jacamar user mapping, and pipeline execution.

use crate::{
    run_pipeline, BenchparkExecutor, Hub, Hubcast, Jacamar, JobState, Lab, MirrorDecision,
    PipelineState, PrState, Repository, SiteAccounts, StatusState,
};
use benchpark_cluster::{Cluster, Machine};
use benchpark_concretizer::SiteConfig;
use benchpark_pkg::Repo;

// ---------------------------------------------------------------------------
// Git model
// ---------------------------------------------------------------------------

#[test]
fn git_commit_read_and_history() {
    let mut repo = Repository::init("llnl/benchpark");
    let c1 = repo
        .commit(
            "main",
            "olga",
            "add saxpy",
            &[("experiments/saxpy.yaml", "n: 512\n")],
        )
        .unwrap();
    let c2 = repo
        .commit(
            "main",
            "olga",
            "bump n",
            &[("experiments/saxpy.yaml", "n: 1024\n")],
        )
        .unwrap();
    assert_ne!(c1, c2);
    assert_eq!(
        repo.read("main", "experiments/saxpy.yaml"),
        Some("n: 1024\n")
    );
    assert_eq!(repo.head("main").unwrap().hash, c2);
    assert_eq!(repo.head("main").unwrap().parent.as_ref(), Some(&c1));
    assert_eq!(
        repo.changed_paths(&c2),
        vec!["experiments/saxpy.yaml".to_string()]
    );
}

#[test]
fn git_hash_is_content_addressed() {
    let mut a = Repository::init("r");
    let mut b = Repository::init("r");
    let ha = a.commit("main", "u", "m", &[("f", "x")]).unwrap();
    let hb = b.commit("main", "u", "m", &[("f", "x")]).unwrap();
    assert_eq!(ha, hb);
    let hc = b.commit("main", "u", "m", &[("f", "y")]).unwrap();
    assert_ne!(ha, hc);
}

#[test]
fn git_branch_fork_import() {
    let mut repo = Repository::init("llnl/benchpark");
    repo.commit("main", "olga", "base", &[("README", "hi")])
        .unwrap();

    let mut fork = repo.fork("alice/benchpark");
    fork.create_branch("feature", "main").unwrap();
    let head = fork
        .commit("feature", "alice", "tweak", &[("README", "hello")])
        .unwrap();

    let mut mirror = Repository::init("mirror");
    let imported = mirror.import_branch(&fork, "feature", "pr-1").unwrap();
    assert_eq!(imported, head);
    assert_eq!(mirror.read("pr-1", "README"), Some("hello"));
}

#[test]
fn git_fast_forward_rules() {
    let mut repo = Repository::init("r");
    repo.commit("main", "u", "base", &[("f", "1")]).unwrap();
    repo.create_branch("feature", "main").unwrap();
    let feat = repo.commit("feature", "u", "work", &[("f", "2")]).unwrap();
    repo.fast_forward("main", &feat).unwrap();
    assert_eq!(repo.read("main", "f"), Some("2"));

    // diverged: main moves on, feature2 branches from the old head
    repo.create_branch("feature2", "main").unwrap();
    let f2 = repo.commit("feature2", "u", "a", &[("f", "3")]).unwrap();
    repo.commit("main", "u", "b", &[("g", "4")]).unwrap();
    assert!(repo.fast_forward("main", &f2).is_err());
}

// ---------------------------------------------------------------------------
// Hub: PRs, approvals, merge gating
// ---------------------------------------------------------------------------

fn hub_with_pr() -> (Hub, u64) {
    let mut canonical = Repository::init("llnl/benchpark");
    canonical
        .commit(
            "main",
            "olga",
            "base",
            &[(".gitlab-ci.yml", CI_CONFIG), ("README", "benchpark")],
        )
        .unwrap();
    let mut hub = Hub::new(canonical);
    hub.add_admin("olga");
    let fork = hub.fork("llnl/benchpark", "jens").unwrap();
    let repo = hub.repos.get_mut(&fork).unwrap();
    repo.create_branch("add-bcast", "main").unwrap();
    repo.commit(
        "add-bcast",
        "jens",
        "add bcast benchmark",
        &[(
            "ci/bcast_cts1.sbatch",
            "#SBATCH -N 2\n#SBATCH -n 16\nsrun -n 16 osu_bcast -m 8:8 -i 100\n",
        )],
    )
    .unwrap();
    let pr = hub
        .open_pr("llnl/benchpark", &fork, "add-bcast", "main", "jens")
        .unwrap();
    (hub, pr)
}

const CI_CONFIG: &str = "stages:\n  - build\n  - bench\nbuild-cts1:\n  stage: build\n  script:\n    - spack install saxpy+openmp\n  tags: [cts1]\nbench-cts1:\n  stage: bench\n  script:\n    - submit cts1 ci/bcast_cts1.sbatch\n  tags: [cts1]\n";

#[test]
fn approvals_policy() {
    let (mut hub, pr) = hub_with_pr();
    // outsiders cannot review
    assert!(hub.approve(pr, "random").is_err());
    // authors cannot self-approve
    hub.add_org_member("jens");
    assert!(hub.approve(pr, "jens").is_err());
    // admins can
    hub.approve(pr, "olga").unwrap();
    assert!(hub.pr(pr).unwrap().approvals.contains("olga"));
}

#[test]
fn merge_requires_approval_and_green_checks() {
    let (mut hub, pr) = hub_with_pr();
    assert!(hub.merge("llnl/benchpark", pr).is_err()); // no approval
    hub.approve(pr, "olga").unwrap();
    assert!(hub.merge("llnl/benchpark", pr).is_err()); // no checks
    hub.pr_mut(pr)
        .unwrap()
        .set_check("gitlab-ci/pipeline", StatusState::Success, "ok");
    hub.merge("llnl/benchpark", pr).unwrap();
    assert_eq!(hub.pr(pr).unwrap().state, PrState::Merged);
    // the canonical main now has the new file
    assert!(hub.repos["llnl/benchpark"]
        .read("main", "ci/bcast_cts1.sbatch")
        .is_some());
}

// ---------------------------------------------------------------------------
// Hubcast: security criteria and mirroring (§3.3.1)
// ---------------------------------------------------------------------------

#[test]
fn untrusted_pr_waits_for_admin_approval() {
    let (mut hub, pr) = hub_with_pr();
    let mut lab = Lab::new();
    let jacamar = Jacamar::new(SiteAccounts::new(&["olga"]));
    let mut hubcast = Hubcast::new();

    // jens is not in the trusted org: no mirroring
    let decision = hubcast.process_pr(&mut hub, &mut lab, &jacamar, pr);
    assert_eq!(decision, MirrorDecision::AwaitingApproval);
    assert!(lab.pipelines().is_empty());
    let check = &hub.pr(pr).unwrap().checks[0];
    assert_eq!(check.context, "hubcast/mirror");
    assert_eq!(check.state, StatusState::Pending);

    // after the admin approves, the branch mirrors and a pipeline appears
    hub.approve(pr, "olga").unwrap();
    let decision = hubcast.process_pr(&mut hub, &mut lab, &jacamar, pr);
    match decision {
        MirrorDecision::Mirrored { pipeline, run_as } => {
            assert_eq!(run_as, "olga"); // jens has no site account
            assert!(lab.pipeline(pipeline).is_some());
        }
        other => panic!("expected mirror, got {other:?}"),
    }
    // idempotent at the same head
    let again = hubcast.process_pr(&mut hub, &mut lab, &jacamar, pr);
    assert_eq!(again, MirrorDecision::AlreadyMirrored);
}

#[test]
fn updated_pr_requires_fresh_approval_and_remirrors() {
    let (mut hub, pr) = hub_with_pr();
    let mut lab = Lab::new();
    let jacamar = Jacamar::new(SiteAccounts::new(&["olga"]));
    let mut hubcast = Hubcast::new();

    hub.approve(pr, "olga").unwrap();
    let MirrorDecision::Mirrored { pipeline: p1, .. } =
        hubcast.process_pr(&mut hub, &mut lab, &jacamar, pr)
    else {
        panic!("expected first mirror");
    };

    // the contributor pushes a new commit to the PR branch
    let source_repo = hub.pr(pr).unwrap().source_repo.clone();
    hub.repos
        .get_mut(&source_repo)
        .unwrap()
        .commit(
            "add-bcast",
            "jens",
            "tweak message size",
            &[(
                "ci/bcast_cts1.sbatch",
                "#SBATCH -N 2\n#SBATCH -n 16\nsrun -n 16 osu_bcast -m 64:64 -i 100\n",
            )],
        )
        .unwrap();
    assert!(hub.refresh_pr_head(pr).unwrap());
    assert!(!hub.refresh_pr_head(pr).unwrap(), "idempotent");

    // stale approval was dismissed: the new head must wait again
    assert_eq!(
        hubcast.process_pr(&mut hub, &mut lab, &jacamar, pr),
        MirrorDecision::AwaitingApproval
    );
    hub.approve(pr, "olga").unwrap();
    let MirrorDecision::Mirrored { pipeline: p2, .. } =
        hubcast.process_pr(&mut hub, &mut lab, &jacamar, pr)
    else {
        panic!("expected re-mirror");
    };
    assert_ne!(p1, p2, "updated head gets a fresh pipeline");
    // the mirrored branch carries the new content
    let mirrored = lab
        .repo
        .as_ref()
        .unwrap()
        .read("pr-1", "ci/bcast_cts1.sbatch")
        .unwrap();
    assert!(mirrored.contains("-m 64:64"), "{mirrored}");
}

#[test]
fn trusted_member_mirrors_without_approval() {
    let (mut hub, pr) = hub_with_pr();
    hub.add_org_member("jens");
    let mut lab = Lab::new();
    let jacamar = Jacamar::new(SiteAccounts::new(&["jens", "olga"]));
    let mut hubcast = Hubcast::new();
    match hubcast.process_pr(&mut hub, &mut lab, &jacamar, pr) {
        MirrorDecision::Mirrored { run_as, .. } => assert_eq!(run_as, "jens"),
        other => panic!("expected mirror, got {other:?}"),
    }
}

// ---------------------------------------------------------------------------
// Jacamar (§3.3.2)
// ---------------------------------------------------------------------------

#[test]
fn jacamar_user_mapping() {
    let jacamar = Jacamar::new(SiteAccounts::new(&["olga", "alec"]));
    // author with account runs as themself
    assert_eq!(jacamar.resolve_user("alec", Some("olga")).unwrap(), "alec");
    // author without account runs as the approver
    assert_eq!(jacamar.resolve_user("jens", Some("olga")).unwrap(), "olga");
    // neither has an account → refusal (no service-account fallback)
    assert!(jacamar.resolve_user("jens", Some("doug")).is_err());
    assert!(jacamar.resolve_user("jens", None).is_err());
}

// ---------------------------------------------------------------------------
// Pipelines: parsing and execution (Figure 6 end to end)
// ---------------------------------------------------------------------------

#[test]
fn ci_config_parsing() {
    let (stages, jobs) = crate::lab::parse_ci_config(CI_CONFIG).unwrap();
    assert_eq!(stages, vec!["build", "bench"]);
    assert_eq!(jobs.len(), 2);
    assert_eq!(jobs[0].name, "build-cts1");
    assert_eq!(jobs[0].stage, "build");
    assert_eq!(jobs[0].script, vec!["spack install saxpy+openmp"]);
    assert_eq!(jobs[0].tags, vec!["cts1"]);

    assert!(crate::lab::parse_ci_config("stages: [a]\n").is_err()); // no jobs
    assert!(
        crate::lab::parse_ci_config("stages: [a]\nj:\n  stage: b\n  script: [x]\n").is_err(),
        "unknown stage must be rejected"
    );
}

#[test]
fn ci_config_rejects_duplicate_job_names() {
    // Block style: the same job declared twice must be a parse error, not a
    // silent last-writer-wins overwrite.
    let block =
        "stages: [a]\nbuild:\n  stage: a\n  script: [x]\nbuild:\n  stage: a\n  script: [y]\n";
    let err = crate::lab::parse_ci_config(block).unwrap_err();
    assert!(err.contains("duplicate"), "{err}");

    // Flow style used to slip through the duplicate check entirely.
    let flow = "{stages: [a], build: {stage: a, script: [x]}, build: {stage: a, script: [y]}}\n";
    let err = crate::lab::parse_ci_config(flow).unwrap_err();
    assert!(err.contains("duplicate"), "{err}");
}

/// Figure 6, end to end: PR → approval → Hubcast mirror → GitLab pipeline
/// (build via Spack + benchmark run on the simulated cluster) → status back
/// on GitHub → merge.
#[test]
fn golden_fig6_automation_workflow() {
    let (mut hub, pr) = hub_with_pr();
    let mut lab = Lab::new();
    let jacamar = Jacamar::new(SiteAccounts::new(&["olga"]));
    let mut hubcast = Hubcast::new();

    hub.approve(pr, "olga").unwrap();
    let MirrorDecision::Mirrored { pipeline, run_as } =
        hubcast.process_pr(&mut hub, &mut lab, &jacamar, pr)
    else {
        panic!("mirror expected");
    };

    // CI builders + benchmark runners
    let pkg_repo = Repo::builtin();
    let mut executor = BenchparkExecutor::new(&pkg_repo, SiteConfig::example_cts());
    executor.add_cluster("cts1", Cluster::new(Machine::cts1()));
    run_pipeline(&mut lab, pipeline, &run_as, &mut executor).unwrap();

    let p = lab.pipeline(pipeline).unwrap();
    assert_eq!(p.state(), PipelineState::Success, "{:#?}", p.jobs);
    assert!(p.jobs.iter().all(|j| j.ran_as.as_deref() == Some("olga")));
    let build = &p.jobs[0];
    assert!(build.log.contains("installed"), "{}", build.log);
    let bench = &p.jobs[1];
    assert!(
        bench.log.contains("OSU MPI Broadcast Latency Test"),
        "{}",
        bench.log
    );

    // status streams back; PR becomes mergeable
    hubcast.report_pipeline(&mut hub, &lab, pr, pipeline);
    assert!(hub.pr(pr).unwrap().checks_green());
    hub.merge("llnl/benchpark", pr).unwrap();
    assert_eq!(hub.pr(pr).unwrap().state, PrState::Merged);
}

#[test]
fn pipeline_failure_blocks_merge() {
    // PR whose benchmark script launches an unknown binary
    let mut canonical = Repository::init("llnl/benchpark");
    canonical
        .commit("main", "olga", "base", &[(".gitlab-ci.yml", CI_CONFIG)])
        .unwrap();
    let mut hub = Hub::new(canonical);
    hub.add_admin("olga");
    let fork = hub.fork("llnl/benchpark", "eve").unwrap();
    let repo = hub.repos.get_mut(&fork).unwrap();
    repo.create_branch("bad", "main").unwrap();
    repo.commit(
        "bad",
        "eve",
        "broken bench",
        &[("ci/bcast_cts1.sbatch", "srun -n 4 nonexistent_binary\n")],
    )
    .unwrap();
    let pr = hub
        .open_pr("llnl/benchpark", &fork, "bad", "main", "eve")
        .unwrap();
    hub.approve(pr, "olga").unwrap();

    let mut lab = Lab::new();
    let jacamar = Jacamar::new(SiteAccounts::new(&["olga"]));
    let mut hubcast = Hubcast::new();
    let MirrorDecision::Mirrored { pipeline, run_as } =
        hubcast.process_pr(&mut hub, &mut lab, &jacamar, pr)
    else {
        panic!("mirror expected");
    };
    let pkg_repo = Repo::builtin();
    let mut executor = BenchparkExecutor::new(&pkg_repo, SiteConfig::example_cts());
    executor.add_cluster("cts1", Cluster::new(Machine::cts1()));
    run_pipeline(&mut lab, pipeline, &run_as, &mut executor).unwrap();

    let p = lab.pipeline(pipeline).unwrap();
    assert_eq!(p.state(), PipelineState::Failed);
    // build succeeded, bench failed
    assert_eq!(p.jobs[0].state, JobState::Success);
    assert_eq!(p.jobs[1].state, JobState::Failed);

    hubcast.report_pipeline(&mut hub, &lab, pr, pipeline);
    let err = hub.merge("llnl/benchpark", pr).unwrap_err();
    assert!(err.contains("failing"), "{err}");
}

#[test]
fn failed_stage_skips_later_stages() {
    let config = "stages:\n  - build\n  - bench\nb:\n  stage: build\n  script:\n    - spack install definitely-not-a-package\nr:\n  stage: bench\n  script:\n    - echo never runs\n";
    let mut repo = Repository::init("r");
    repo.commit("main", "u", "c", &[(".gitlab-ci.yml", config)])
        .unwrap();
    let mut lab = Lab::new();
    let source = repo.clone();
    let id = lab.receive_mirror(&source, "main", "pr-1").unwrap();

    let pkg_repo = Repo::builtin();
    let mut executor = BenchparkExecutor::new(&pkg_repo, SiteConfig::example_cts());
    run_pipeline(&mut lab, id, "olga", &mut executor).unwrap();
    let p = lab.pipeline(id).unwrap();
    assert_eq!(p.jobs[0].state, JobState::Failed);
    // bugfix: skipped jobs are marked explicitly, not left as Created
    assert_eq!(
        p.jobs[1].state,
        JobState::Skipped,
        "bench stage must be skipped"
    );
    assert_eq!(p.state(), PipelineState::Failed);
}

#[test]
fn pipeline_state_empty_and_partial_progress() {
    use crate::lab::{CiJob, Pipeline};

    let job = |state: JobState| CiJob {
        name: "j".to_string(),
        stage: "build".to_string(),
        script: vec!["echo hi".to_string()],
        tags: Vec::new(),
        retry: 0,
        allow_failure: false,
        needs: Vec::new(),
        state,
        ran_as: None,
        log: String::new(),
        started_at: None,
        finished_at: None,
    };
    let pipeline = |jobs: Vec<CiJob>| Pipeline {
        id: 1,
        commit: "c".to_string(),
        branch: "pr-1".to_string(),
        stages: vec!["build".to_string()],
        jobs,
    };

    // regression: a pipeline with no jobs must not be vacuously Success
    assert_eq!(pipeline(Vec::new()).state(), PipelineState::Pending);
    // nothing started yet
    assert_eq!(
        pipeline(vec![job(JobState::Created), job(JobState::Created)]).state(),
        PipelineState::Pending
    );
    // regression: some jobs done, some not yet started → still Running
    assert_eq!(
        pipeline(vec![job(JobState::Success), job(JobState::Created)]).state(),
        PipelineState::Running
    );
    assert_eq!(
        pipeline(vec![job(JobState::Running), job(JobState::Created)]).state(),
        PipelineState::Running
    );
    // terminal states
    assert_eq!(
        pipeline(vec![job(JobState::Success), job(JobState::Success)]).state(),
        PipelineState::Success
    );
    assert_eq!(
        pipeline(vec![job(JobState::Success), job(JobState::Failed)]).state(),
        PipelineState::Failed
    );
}

/// Table 1 row 6: "Hubcast@LLNL/RIKEN/AWS" — three sites validate the same
/// PR; each posts its own status; all must pass before merge.
#[test]
fn federation_requires_all_sites_green() {
    use crate::{Federation, PipelineState, Site, SiteOutcome};

    // CI config whose bench job targets `cts1` — a runner every site has to
    // provide under its own tag mapping.
    let (mut hub, pr) = hub_with_pr();
    hub.approve(pr, "olga").unwrap();

    let mut federation = Federation::new(vec![
        Site::new("llnl", Jacamar::new(SiteAccounts::new(&["olga"]))),
        Site::new("riken", Jacamar::new(SiteAccounts::new(&["olga", "jens"]))),
        Site::new("aws", Jacamar::new(SiteAccounts::new(&["olga", "heidi"]))),
    ]);

    let pkg_repo = Repo::builtin();
    let site_cfg = SiteConfig::example_cts();
    let mut llnl = BenchparkExecutor::new(&pkg_repo, site_cfg.clone());
    llnl.add_cluster("cts1", Cluster::new(Machine::cts1()));
    let mut riken = BenchparkExecutor::new(&pkg_repo, site_cfg.clone());
    riken.add_cluster("cts1", Cluster::new(Machine::ats4()));
    // AWS "forgot" to register a runner for the cts1 tag → its bench job fails
    let mut aws = BenchparkExecutor::new(&pkg_repo, site_cfg.clone());

    let outcomes = federation.process_pr(&mut hub, pr, &mut [&mut llnl, &mut riken, &mut aws]);
    assert_eq!(outcomes.len(), 3);
    assert_eq!(outcomes[0].1, SiteOutcome::Ran(PipelineState::Success));
    assert_eq!(outcomes[1].1, SiteOutcome::Ran(PipelineState::Success));
    assert_eq!(outcomes[2].1, SiteOutcome::Ran(PipelineState::Failed));

    // per-site status checks on the PR
    let checks = &hub.pr(pr).unwrap().checks;
    let check = |ctx: &str| checks.iter().find(|c| c.context == ctx).unwrap().state;
    assert_eq!(check("gitlab-ci/llnl"), StatusState::Success);
    assert_eq!(check("gitlab-ci/riken"), StatusState::Success);
    assert_eq!(check("gitlab-ci/aws"), StatusState::Failure);
    // merge is blocked by the failing site
    assert!(hub.merge("llnl/benchpark", pr).is_err());

    // AWS fixes its runner; reprocessing is up-to-date at green sites and
    // retries nothing (same head already mirrored there)
    aws.add_cluster("cts1", Cluster::new(Machine::cloud_c5()));
    let outcomes = federation.process_pr(&mut hub, pr, &mut [&mut llnl, &mut riken, &mut aws]);
    assert_eq!(outcomes[0].1, SiteOutcome::UpToDate);
    assert_eq!(
        outcomes[2].1,
        SiteOutcome::UpToDate,
        "same head is not re-run"
    );

    // the contributor pushes a fix commit → all sites revalidate
    let source_repo = hub.pr(pr).unwrap().source_repo.clone();
    hub.repos
        .get_mut(&source_repo)
        .unwrap()
        .commit(
            "add-bcast",
            "jens",
            "bump iters",
            &[(
                "ci/bcast_cts1.sbatch",
                "#SBATCH -N 2\n#SBATCH -n 16\nsrun -n 16 osu_bcast -m 8:8 -i 200\n",
            )],
        )
        .unwrap();
    hub.refresh_pr_head(pr).unwrap();
    hub.approve(pr, "olga").unwrap();
    let outcomes = federation.process_pr(&mut hub, pr, &mut [&mut llnl, &mut riken, &mut aws]);
    assert!(
        outcomes
            .iter()
            .all(|(_, o)| *o == SiteOutcome::Ran(PipelineState::Success)),
        "{outcomes:?}"
    );
    hub.merge("llnl/benchpark", pr).unwrap();
}

#[test]
fn binary_cache_shared_across_pipeline_runs() {
    let mut repo = Repository::init("r");
    let config =
        "stages: [build]\nb:\n  stage: build\n  script:\n    - spack install amg2023+caliper\n";
    repo.commit("main", "u", "c", &[(".gitlab-ci.yml", config)])
        .unwrap();

    let pkg_repo = Repo::builtin();
    let mut executor = BenchparkExecutor::new(&pkg_repo, SiteConfig::example_cts());

    let mut lab = Lab::new();
    let p1 = lab.receive_mirror(&repo.clone(), "main", "pr-1").unwrap();
    run_pipeline(&mut lab, p1, "olga", &mut executor).unwrap();
    let builds_before = executor.cache.len();
    assert!(builds_before > 0);

    // a second pipeline on a "fresh machine" (empty DB) hits the cache
    executor.db = benchpark_spack::InstallDatabase::new();
    let p2 = lab.receive_mirror(&repo.clone(), "main", "pr-2").unwrap();
    run_pipeline(&mut lab, p2, "olga", &mut executor).unwrap();
    let log = &lab.pipeline(p2).unwrap().jobs[0].log;
    assert!(log.contains("FetchFromCache"), "{log}");
    assert!(
        !log.contains(" Build "),
        "second run should not rebuild: {log}"
    );

    // ablation A2: the warm cache cuts virtual build time at least 5x
    let build_seconds = |id| -> f64 {
        // "installed N packages in X virtual seconds"
        let log = &lab.pipeline(id).unwrap().jobs[0].log;
        let line = log.lines().find(|l| l.contains("virtual seconds"));
        line.and_then(|l| l.split_whitespace().nth(4))
            .and_then(|v| v.parse().ok())
            .unwrap_or_else(|| panic!("no build time in log: {log}"))
    };
    let (cold, warm) = (build_seconds(p1), build_seconds(p2));
    assert!(warm * 5.0 < cold, "cold {cold} s, warm {warm} s");
}

// ---------------------------------------------------------------------------
// Resilience: retry, allow_failure, flaky runners
// ---------------------------------------------------------------------------

#[test]
fn ci_config_parses_retry_and_allow_failure() {
    let config = "stages: [a]\nplain:\n  stage: a\n  script: [x]\nint-form:\n  stage: a\n  script: [x]\n  retry: 2\nmap-form:\n  stage: a\n  script: [x]\n  retry:\n    max: 3\ntolerated:\n  stage: a\n  script: [x]\n  allow_failure: true\n";
    let (_, jobs) = crate::lab::parse_ci_config(config).unwrap();
    let by_name = |n: &str| jobs.iter().find(|j| j.name == n).unwrap();
    assert_eq!(by_name("plain").retry, 0);
    assert!(!by_name("plain").allow_failure);
    assert_eq!(by_name("int-form").retry, 2);
    assert_eq!(by_name("map-form").retry, 3);
    assert!(by_name("tolerated").allow_failure);
}

#[test]
fn allow_failure_does_not_fail_pipeline_or_skip_stages() {
    let config = "stages:\n  - build\n  - bench\ncanary:\n  stage: build\n  script:\n    - spack install definitely-not-a-package\n  allow_failure: true\nr:\n  stage: bench\n  script:\n    - echo still runs\n";
    let mut repo = Repository::init("r");
    repo.commit("main", "u", "c", &[(".gitlab-ci.yml", config)])
        .unwrap();
    let mut lab = Lab::new();
    let id = lab.receive_mirror(&repo.clone(), "main", "pr-1").unwrap();

    let pkg_repo = Repo::builtin();
    let mut executor = BenchparkExecutor::new(&pkg_repo, SiteConfig::example_cts());
    run_pipeline(&mut lab, id, "olga", &mut executor).unwrap();
    let p = lab.pipeline(id).unwrap();
    assert_eq!(p.jobs[0].state, JobState::Failed);
    assert_eq!(p.jobs[1].state, JobState::Success, "later stage must run");
    assert_eq!(p.state(), PipelineState::Success, "failure was tolerated");
}

#[test]
fn retry_recovers_flaky_runner() {
    use benchpark_resilience::FaultInjector;
    use benchpark_telemetry::TelemetrySink;

    let config = "stages: [build]\nb:\n  stage: build\n  script:\n    - echo ok\n  retry: 3\n";
    let mut repo = Repository::init("r");
    repo.commit("main", "u", "c", &[(".gitlab-ci.yml", config)])
        .unwrap();
    let mut lab = Lab::new();
    let id = lab.receive_mirror(&repo.clone(), "main", "pr-1").unwrap();

    let pkg_repo = Repo::builtin();
    let sink = TelemetrySink::recording();
    let mut executor =
        BenchparkExecutor::new(&pkg_repo, SiteConfig::example_cts()).with_telemetry(sink.clone());
    // the first two attempts die at the runner level, the third succeeds
    executor.inject_runner_faults(FaultInjector::new(1.0, 11).with_budget(2));
    run_pipeline(&mut lab, id, "olga", &mut executor).unwrap();

    let p = lab.pipeline(id).unwrap();
    assert_eq!(p.state(), PipelineState::Success, "{:#?}", p.jobs);
    assert!(p.jobs[0].log.contains("runner system failure"));
    assert!(p.jobs[0].log.contains("attempt 3/4"), "{}", p.jobs[0].log);
    let report = sink.report().unwrap();
    assert_eq!(report.counter("retry.attempts"), 2);
    assert_eq!(report.counter("ci.runner.flakes"), 2);
}

#[test]
fn retry_exhaustion_fails_job_and_skips_later_stages() {
    use benchpark_resilience::FaultInjector;

    let config = "stages:\n  - build\n  - bench\nb:\n  stage: build\n  script:\n    - echo ok\n  retry: 1\nr:\n  stage: bench\n  script:\n    - echo never\n";
    let mut repo = Repository::init("r");
    repo.commit("main", "u", "c", &[(".gitlab-ci.yml", config)])
        .unwrap();
    let mut lab = Lab::new();
    let id = lab.receive_mirror(&repo.clone(), "main", "pr-1").unwrap();

    let pkg_repo = Repo::builtin();
    let mut executor = BenchparkExecutor::new(&pkg_repo, SiteConfig::example_cts());
    executor.inject_runner_faults(FaultInjector::new(1.0, 5)); // unbounded outage
    run_pipeline(&mut lab, id, "olga", &mut executor).unwrap();

    let p = lab.pipeline(id).unwrap();
    assert_eq!(p.jobs[0].state, JobState::Failed);
    assert_eq!(p.jobs[1].state, JobState::Skipped);
    assert_eq!(p.state(), PipelineState::Failed);
}

/// The convergence guarantee behind runner-level fault injection: because a
/// flake strikes *before* the job reaches the cluster, the eventual
/// successful attempt replays exactly the work the fault-free pipeline does
/// — same cluster job ids, same deterministic noise, same FOMs.
#[test]
fn flaky_pipeline_converges_to_fault_free_results() {
    use benchpark_resilience::FaultInjector;
    use benchpark_telemetry::TelemetrySink;

    let config = "stages:\n  - build\n  - bench\nbuild-cts1:\n  stage: build\n  script:\n    - spack install saxpy+openmp\n  tags: [cts1]\n  retry: 3\nbench-cts1:\n  stage: bench\n  script:\n    - submit cts1 ci/bcast_cts1.sbatch\n  tags: [cts1]\n  retry: 3\n";
    let sbatch = "#SBATCH -N 2\n#SBATCH -n 16\nsrun -n 16 osu_bcast -m 8:8 -i 100\n";
    let mut repo = Repository::init("r");
    repo.commit(
        "main",
        "u",
        "c",
        &[(".gitlab-ci.yml", config), ("ci/bcast_cts1.sbatch", sbatch)],
    )
    .unwrap();

    let pkg_repo = Repo::builtin();
    let run = |faults: Option<FaultInjector>| {
        let mut lab = Lab::new();
        let id = lab.receive_mirror(&repo.clone(), "main", "pr-1").unwrap();
        let sink = TelemetrySink::recording();
        let mut executor = BenchparkExecutor::new(&pkg_repo, SiteConfig::example_cts())
            .with_telemetry(sink.clone());
        executor.add_cluster("cts1", Cluster::new(Machine::cts1()));
        if let Some(injector) = faults {
            executor.inject_runner_faults(injector);
        }
        run_pipeline(&mut lab, id, "olga", &mut executor).unwrap();
        let p = lab.pipeline(id).unwrap();
        assert_eq!(p.state(), PipelineState::Success, "{:#?}", p.jobs);
        (p.jobs[1].log.clone(), sink.report().unwrap())
    };

    let (clean_bench, _) = run(None);
    // a 30% flaky runner, as a paper-scale fault load; the budget guarantees
    // the pipeline converges within the per-job retry allowance
    let (flaky_bench, report) = run(Some(FaultInjector::new(0.3, 16).with_budget(3)));

    assert!(
        report.counter("ci.runner.flakes") > 0,
        "seed must produce at least one flake for the test to mean anything"
    );
    assert!(report.counter("retry.attempts") > 0);
    // the successful attempt's output — FOMs included — is byte-identical
    assert!(
        flaky_bench.ends_with(&clean_bench),
        "flaky run must converge to the fault-free log;\nclean:\n{clean_bench}\nflaky:\n{flaky_bench}"
    );
    assert_ne!(flaky_bench, clean_bench, "retry markers precede the replay");
}

// ---------------------------------------------------------------------------
// Job DAGs: same-stage independence and `needs:`
// ---------------------------------------------------------------------------

/// Regression: GitLab runs every job within a stage regardless of sibling
/// failures — only *later* stages gate on the outcome. The old stage loop
/// skipped the rest of a stage as soon as one job failed.
#[test]
fn same_stage_jobs_all_run_when_one_fails() {
    let config = "stages:\n  - build\n  - bench\nb1:\n  stage: build\n  script:\n    - frobnicate\nb2:\n  stage: build\n  script:\n    - echo still runs\nr:\n  stage: bench\n  script:\n    - echo never\n";
    let mut repo = Repository::init("r");
    repo.commit("main", "u", "c", &[(".gitlab-ci.yml", config)])
        .unwrap();
    let mut lab = Lab::new();
    let id = lab.receive_mirror(&repo.clone(), "main", "pr-1").unwrap();

    let pkg_repo = Repo::builtin();
    let mut executor = BenchparkExecutor::new(&pkg_repo, SiteConfig::example_cts());
    run_pipeline(&mut lab, id, "olga", &mut executor).unwrap();

    let p = lab.pipeline(id).unwrap();
    let by_name = |n: &str| p.jobs.iter().find(|j| j.name == n).unwrap();
    assert_eq!(by_name("b1").state, JobState::Failed);
    assert_eq!(
        by_name("b2").state,
        JobState::Success,
        "a stage sibling of a failed job must still run"
    );
    assert!(by_name("b2").log.contains("still runs"));
    assert_eq!(
        by_name("r").state,
        JobState::Skipped,
        "later stages still gate on the failure"
    );
    assert_eq!(p.state(), PipelineState::Failed);
}

/// The point of `needs:`: a job detaches from stage ordering and starts as
/// soon as the jobs it names finish — here the bench job starts (in virtual
/// time) long before the slow build-stage straggler has finished.
#[test]
fn needs_job_starts_before_earlier_stage_finishes() {
    let config = "stages:\n  - build\n  - bench\nb-fast:\n  stage: build\n  script:\n    - echo one\nb-slow:\n  stage: build\n  script:\n    - echo one\n    - echo two\n    - echo three\n    - echo four\n    - echo five\nr:\n  stage: bench\n  needs: [b-fast]\n  script:\n    - echo early\n";
    let mut repo = Repository::init("r");
    repo.commit("main", "u", "c", &[(".gitlab-ci.yml", config)])
        .unwrap();
    let mut lab = Lab::new();
    let id = lab.receive_mirror(&repo.clone(), "main", "pr-1").unwrap();

    let pkg_repo = Repo::builtin();
    let mut executor = BenchparkExecutor::new(&pkg_repo, SiteConfig::example_cts());
    run_pipeline(&mut lab, id, "olga", &mut executor).unwrap();

    let p = lab.pipeline(id).unwrap();
    assert_eq!(p.state(), PipelineState::Success, "{:#?}", p.jobs);
    let by_name = |n: &str| p.jobs.iter().find(|j| j.name == n).unwrap();
    let needs_start = by_name("r").started_at.unwrap();
    let fast_finish = by_name("b-fast").finished_at.unwrap();
    let slow_finish = by_name("b-slow").finished_at.unwrap();
    assert!(
        needs_start >= fast_finish,
        "needs edge still gates: {needs_start} < {fast_finish}"
    );
    assert!(
        needs_start < slow_finish,
        "needs job must start before the earlier stage finishes \
         ({needs_start} vs {slow_finish})"
    );
}

/// A `needs:` failure skips exactly the dependent chain, not unrelated jobs.
#[test]
fn needs_failure_skips_only_dependents() {
    let config = "stages:\n  - build\n  - bench\nb-ok:\n  stage: build\n  script:\n    - echo fine\nb-bad:\n  stage: build\n  script:\n    - frobnicate\nr-ok:\n  stage: bench\n  needs: [b-ok]\n  script:\n    - echo runs\nr-bad:\n  stage: bench\n  needs: [b-bad]\n  script:\n    - echo never\n";
    let mut repo = Repository::init("r");
    repo.commit("main", "u", "c", &[(".gitlab-ci.yml", config)])
        .unwrap();
    let mut lab = Lab::new();
    let id = lab.receive_mirror(&repo.clone(), "main", "pr-1").unwrap();

    let pkg_repo = Repo::builtin();
    let mut executor = BenchparkExecutor::new(&pkg_repo, SiteConfig::example_cts());
    run_pipeline(&mut lab, id, "olga", &mut executor).unwrap();

    let p = lab.pipeline(id).unwrap();
    let by_name = |n: &str| p.jobs.iter().find(|j| j.name == n).unwrap();
    assert_eq!(by_name("b-bad").state, JobState::Failed);
    assert_eq!(
        by_name("r-ok").state,
        JobState::Success,
        "a needs job with healthy dependencies is detached from the failure"
    );
    assert_eq!(by_name("r-bad").state, JobState::Skipped);
    assert_eq!(p.state(), PipelineState::Failed);
}

#[test]
fn ci_config_validates_needs_references() {
    let unknown = "stages: [a]\nj:\n  stage: a\n  script: [x]\n  needs: [ghost]\n";
    assert!(crate::lab::parse_ci_config(unknown)
        .unwrap_err()
        .contains("unknown job `ghost`"));

    let forward = "stages: [a, b]\nearly:\n  stage: a\n  script: [x]\n  needs: [late]\nlate:\n  stage: b\n  script: [x]\n";
    assert!(crate::lab::parse_ci_config(forward)
        .unwrap_err()
        .contains("later stage"));

    let selfish = "stages: [a]\nj:\n  stage: a\n  script: [x]\n  needs: [j]\n";
    assert!(crate::lab::parse_ci_config(selfish)
        .unwrap_err()
        .contains("cannot need itself"));

    let ok = "stages: [a, b]\nbase:\n  stage: a\n  script: [x]\nnext:\n  stage: b\n  script: [x]\n  needs: [base]\n";
    let (_, jobs) = crate::lab::parse_ci_config(ok).unwrap();
    assert_eq!(
        jobs.iter().find(|j| j.name == "next").unwrap().needs,
        vec!["base".to_string()]
    );
}
