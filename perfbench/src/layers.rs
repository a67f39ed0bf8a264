//! One request through the one-shot path, composed from each layer's public
//! functions so every layer call sits in its own span.
//!
//! The composition follows `Benchpark::run_request` step for step: build
//! the driver (`pkg`), lint the composition, set up the Ramble workspace,
//! concretize and install each application for the cluster, fingerprint
//! the experiments, plan against the tenant's index, run on the simulated
//! cluster, extract FOMs (`rex`), collect, and append the ledger record.
//! Callers compare its FOM transcript with the daemon's, so a drift between
//! this composition and the driver fails the run instead of skewing the
//! layer numbers.

use crate::gen::{Req, PAIRS};
use crate::trace::Tracer;
use benchpark_cluster::{BinaryInfo, Cluster, ProgrammingModel};
use benchpark_concretizer::Concretizer;
use benchpark_core::{
    append_run, Benchpark, Fingerprint, FingerprintBuilder, FingerprintIndex, RunRecord,
    SystemProfile,
};
use benchpark_ramble::{analyze_experiment_with, ExperimentResult, RunOutput, Workspace};
use benchpark_serve::fom_transcript;
use benchpark_spack::{InstallDatabase, InstallOptions, Installer};
use benchpark_spec::{Spec, VariantValue};
use benchpark_telemetry::TelemetrySink;
use std::cell::RefCell;
use std::collections::{BTreeMap, BTreeSet};
use std::path::Path;

/// What one layered request produced.
pub struct Layered {
    /// FOM transcript body, as the daemon writes it.
    pub transcript: String,
    /// The ledger record of the fresh measurements, once appended.
    pub record: Option<RunRecord>,
}

/// Counter totals the request's telemetry sink recorded.
fn counter(report: Option<&benchpark_telemetry::TelemetryReport>, name: &str) -> u64 {
    report.map_or(0, |r| r.counter(name))
}

/// Files and bytes under `dir`.
pub fn walk(dir: &Path) -> (u64, u64) {
    let mut files = 0;
    let mut bytes = 0;
    let mut stack = vec![dir.to_path_buf()];
    while let Some(dir) = stack.pop() {
        let Ok(entries) = std::fs::read_dir(&dir) else {
            continue;
        };
        for entry in entries.flatten() {
            let Ok(meta) = entry.metadata() else { continue };
            if meta.is_dir() {
                stack.push(entry.path());
            } else {
                files += 1;
                bytes += meta.len();
            }
        }
    }
    (files, bytes)
}

/// Runs `req` in `workdir` against `index`, appending its record (if it
/// measured anything) to `shard` when one is given.
pub fn run(
    tracer: &Tracer,
    req: &Req,
    workdir: &Path,
    index: &FingerprintIndex,
    shard: Option<&Path>,
) -> Result<Layered, String> {
    let (benchmark, variant, system) = PAIRS[req.pair];
    let request_span = tracer.span("core.request");
    let sink = TelemetrySink::recording();
    let benchpark = tracer.time("pkg.builtin", || {
        Benchpark::new().with_telemetry(sink.clone()).with_jobs(1)
    });
    let install_options = InstallOptions {
        jobs: 1,
        ..InstallOptions::default()
    };

    // ---- setup stage ---------------------------------------------------
    let setup_span = tracer.span("core.stage_setup");
    let template = match req.template() {
        Some(text) => text,
        None => benchpark_core::experiment_template(benchmark, variant)
            .ok_or_else(|| format!("unknown experiment `{benchmark}/{variant}`"))?,
    };
    let profile =
        SystemProfile::by_name(system).ok_or_else(|| format!("unknown system `{system}`"))?;
    let lint = tracer.time("lint.compose", || {
        benchpark.lint_composition(&template, &profile)
    });
    if lint.errors() > 0 {
        sink.incr("lint.errors", lint.errors() as u64);
    }
    if lint.warnings() > 0 {
        sink.incr("lint.warnings", lint.warnings() as u64);
    }
    let site = profile.site_config();
    let (mut workspace, setup_report) = tracer.time("ramble.setup", || {
        let mut workspace = Workspace::create(workdir).map_err(|e| e.to_string())?;
        workspace.set_telemetry(sink.clone());
        workspace.set_cache(benchpark.site_cache());
        workspace.set_config(&template).map_err(|e| e.to_string())?;
        workspace
            .merge_spack(&profile.spack_yaml)
            .map_err(|e| e.to_string())?;
        workspace
            .merge_variables(&profile.variables_yaml)
            .map_err(|e| e.to_string())?;
        let report = workspace
            .setup(
                &benchpark.repo,
                &benchpark.app_repo,
                &site,
                &install_options,
            )
            .map_err(|e| e.to_string())?;
        Ok::<_, String>((workspace, report))
    })?;

    let machine = profile.machine();
    let machine_text = format!("{machine:?}");
    let mut cluster = Cluster::new(machine);
    cluster.set_telemetry(sink.clone());
    let installer = Installer::new(&benchpark.repo)
        .with_database(InstallDatabase::new())
        .with_cache(benchpark.site_cache())
        .with_telemetry(sink.clone());
    let mut concrete_inputs: Vec<(String, String, String)> = Vec::new();
    let applications: Vec<String> = workspace
        .config()
        .expect("config set above")
        .applications
        .keys()
        .cloned()
        .collect();
    for app_name in applications {
        let app = benchpark
            .app_repo
            .get(&app_name)
            .ok_or_else(|| format!("unknown application `{app_name}`"))?;
        let spec_text = workspace
            .config()
            .expect("config set above")
            .resolved_spec(&app.software)
            .map_err(|e| e.to_string())?;
        let abstract_spec: Spec = spec_text.parse().map_err(|e| format!("{e}"))?;
        let dag = tracer.time("concretizer.solve", || {
            Concretizer::new(&benchpark.repo, &site)
                .with_telemetry(sink.clone())
                .concretize(&abstract_spec)
                .map_err(|e| e.to_string())
        })?;
        tracer.time("spack.install", || {
            installer.install(&dag, &install_options)
        });
        concrete_inputs.push((
            app_name.clone(),
            dag.dag_hash().to_string(),
            app.fingerprint_text(),
        ));
        let concrete = &dag.root_node().spec;
        let target = concrete
            .target
            .clone()
            .unwrap_or_else(|| "x86_64".to_string());
        let enabled = |name: &str| concrete.variants.get(name) == Some(&VariantValue::Bool(true));
        let model = if enabled("cuda") {
            ProgrammingModel::Cuda
        } else if enabled("rocm") {
            ProgrammingModel::Rocm
        } else if enabled("openmp") {
            ProgrammingModel::OpenMp
        } else {
            ProgrammingModel::Serial
        };
        for exe in &app.executables {
            let base = exe
                .template
                .split_whitespace()
                .next()
                .unwrap_or(&app.software);
            cluster.install_binary(BinaryInfo::for_target(base, &target, model));
        }
    }

    let mut shared = FingerprintBuilder::new()
        .field("benchmark", benchmark)
        .field("variant", variant)
        .field("system", &profile.name)
        .field("template", &template)
        .field("compilers.yaml", &profile.compilers_yaml)
        .field("packages.yaml", &profile.packages_yaml)
        .field("spack.yaml", &profile.spack_yaml)
        .field("variables.yaml", &profile.variables_yaml)
        .field("machine", &machine_text);
    for (app_name, dag_hash, app_text) in &concrete_inputs {
        shared = shared
            .field(&format!("concrete.{app_name}"), dag_hash)
            .field(&format!("application.{app_name}"), app_text);
    }
    let mut fingerprints: BTreeMap<String, Fingerprint> = BTreeMap::new();
    for exp in &setup_report.experiments {
        let fp = shared
            .clone()
            .field("experiment", &exp.name)
            .field("application", &exp.application)
            .field("workload", &exp.workload)
            .fields("var", exp.provenance_variables())
            .fields(
                "env",
                exp.env_vars.iter().map(|(k, v)| (k.as_str(), v.as_str())),
            )
            .finish();
        fingerprints.insert(exp.name.clone(), fp);
    }

    let order: Vec<String> = setup_report
        .experiments
        .iter()
        .map(|e| e.name.clone())
        .collect();
    let mut cached: Vec<ExperimentResult> = Vec::new();
    let plan_span = tracer.span("core.plan");
    let mut to_run: BTreeSet<String> = BTreeSet::new();
    for (name, fp) in &fingerprints {
        match index.lookup(fp) {
            Some(entry) => {
                let mut result = entry.result.clone();
                result.cached = true;
                cached.push(result);
            }
            None => {
                to_run.insert(name.clone());
            }
        }
    }
    workspace.retain_experiments(|name| to_run.contains(name));
    if !cached.is_empty() {
        sink.incr("fp.hits", cached.len() as u64);
    }
    if !to_run.is_empty() {
        sink.incr("fp.misses", to_run.len() as u64);
    }
    plan_span.count("hits", cached.len() as u64);
    plan_span.count("misses", to_run.len() as u64);
    drop(plan_span);
    drop(setup_span);

    // ---- execute stage -------------------------------------------------
    let execute_span = tracer.span("core.stage_execute");
    let mut executed: Vec<ExperimentResult> = Vec::new();
    if !to_run.is_empty() {
        tracer.time("cluster.run", || {
            let cluster = RefCell::new(&mut cluster);
            workspace
                .run_batched(
                    |_exp, script| {
                        cluster
                            .borrow_mut()
                            .submit_script(script, "benchpark")
                            .map_err(|e| RunOutput {
                                stdout: format!("sbatch: error: {e}\n"),
                                exit_code: 1,
                                profile: Vec::new(),
                            })
                    },
                    || cluster.borrow_mut().run_until_idle(),
                    |_exp, id| {
                        let cluster = cluster.borrow();
                        let job = cluster.job(id).expect("submitted job exists");
                        RunOutput {
                            stdout: job.stdout.clone(),
                            exit_code: job.exit_code,
                            profile: job.profile.clone(),
                        }
                    },
                )
                .map_err(|e| e.to_string())
        })?;
        let analyze_span = tracer.span("ramble.analyze");
        for exp in workspace.experiments() {
            let app = benchpark
                .app_repo
                .get(&exp.application)
                .ok_or_else(|| format!("unknown app `{}`", exp.application))?;
            let output = workspace
                .run_output(&exp.name)
                .ok_or_else(|| format!("experiment `{}` never ran", exp.name))?;
            let extra = workspace
                .config()
                .and_then(|c| c.applications.get(&exp.application))
                .and_then(|workloads| workloads.get(&exp.workload))
                .map(|wl| wl.success_criteria.clone())
                .unwrap_or_default();
            let result = tracer.time("rex.extract", || {
                analyze_experiment_with(exp, app, output, &extra)
            });
            executed.push(result.map_err(|e| e.to_string())?);
        }
        drop(analyze_span);
    }
    drop(execute_span);

    // ---- collect stage -------------------------------------------------
    let collect_span = tracer.span("core.stage_collect");
    let position = |name: &str| order.iter().position(|n| n == name).unwrap_or(order.len());
    let mut results = cached;
    results.extend(executed.iter().cloned());
    results.sort_by_key(|r| position(&r.experiment));
    let mut manifest = format!(
        "benchmark: {benchmark}/{variant}\nsystem: {}\n",
        profile.name
    );
    for (env, specs) in &setup_report.environment_specs {
        manifest.push_str(&format!("environment {env}:\n"));
        for spec in specs {
            manifest.push_str(&format!("  - {spec}\n"));
        }
    }
    let report = tracer.time("telemetry.report", || sink.report());
    let record = (!executed.is_empty()).then(|| {
        let executed_fps: Vec<(String, String)> = fingerprints
            .iter()
            .filter(|(name, _)| executed.iter().any(|r| &r.experiment == *name))
            .map(|(name, fp)| (name.clone(), fp.hex()))
            .collect();
        RunRecord::from_run(
            &profile.name,
            benchmark,
            variant,
            &manifest,
            &executed,
            report.as_ref(),
        )
        .with_fingerprints(executed_fps)
    });
    let transcript = fom_transcript(&results);
    drop(collect_span);

    let record = match (record, shard) {
        (Some(mut record), Some(shard)) => {
            std::fs::create_dir_all(shard.parent().expect("shard paths have a parent"))
                .map_err(|e| format!("cannot create shard dir: {e}"))?;
            let append_span = tracer.span("core.append");
            let sequence = append_run(shard, &mut record)?;
            append_span.count("lines", sequence - 1);
            drop(append_span);
            Some(record)
        }
        (record, _) => record,
    };

    let (files, bytes) = walk(workdir);
    let report = report.as_ref();
    request_span.count("solves", counter(report, "concretizer.solves"));
    request_span.count("cache_hits", counter(report, "cache.hit"));
    request_span.count("cache_misses", counter(report, "cache.miss"));
    request_span.count("jobs", counter(report, "scheduler.jobs_completed"));
    request_span.count("files", files);
    request_span.count("bytes", bytes);
    Ok(Layered { transcript, record })
}
