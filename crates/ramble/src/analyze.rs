//! FOM extraction and success-criteria evaluation
//! (`ramble workspace analyze`, paper §3.2.5 and §4.5).

use crate::error::RambleError;
use crate::expgen::ExperimentInstance;
use crate::vars::VarMap;
use crate::workspace::RunOutput;
use benchpark_pkg::{ApplicationDef, SuccessMode};
use benchpark_rex::Regex;
use std::collections::BTreeMap;

/// Did the experiment succeed?
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum ExperimentStatus {
    /// Exit code 0 and every success criterion matched.
    Success,
    /// Ran, but a success criterion failed.
    Failed,
    /// The job itself failed (nonzero exit).
    JobError,
}

/// One extracted figure of merit.
#[derive(Debug, Clone, PartialEq)]
pub struct FomValue {
    pub name: String,
    /// The captured group text.
    pub value: String,
    pub units: String,
    /// Additional named groups captured by the same regex
    /// (`size` in osu-bcast's per-size latency lines).
    pub context: BTreeMap<String, String>,
}

impl FomValue {
    /// The value as a float, when numeric.
    pub fn as_f64(&self) -> Option<f64> {
        self.value.parse().ok()
    }
}

/// The analysis of one experiment.
#[derive(Debug, Clone)]
pub struct ExperimentResult {
    pub experiment: String,
    pub application: String,
    pub workload: String,
    pub status: ExperimentStatus,
    pub foms: Vec<FomValue>,
    /// Per-criterion outcomes, in declaration order.
    pub criteria: Vec<(String, bool)>,
    /// The experiment's variables (stored with results for reproducibility,
    /// per §5's manifest-with-results goal).
    pub variables: VarMap,
    /// Caliper-style profile captured by the runner, if any.
    pub profile: Vec<(String, f64)>,
    /// Provenance: `true` when this result was *not* measured by the run
    /// that reports it but spliced from an earlier ledger record whose
    /// experiment fingerprint matched (incremental re-benchmarking).
    pub cached: bool,
}

/// All experiment results of a workspace.
#[derive(Debug, Clone)]
pub struct AnalyzeReport {
    pub results: Vec<ExperimentResult>,
}

impl AnalyzeReport {
    /// Results with status `Success`.
    pub fn successes(&self) -> impl Iterator<Item = &ExperimentResult> {
        self.results
            .iter()
            .filter(|r| r.status == ExperimentStatus::Success)
    }

    /// Looks up one experiment's result.
    pub fn get(&self, experiment: &str) -> Option<&ExperimentResult> {
        self.results.iter().find(|r| r.experiment == experiment)
    }

    /// A flat `(experiment, fom name, value)` table, the input to dashboards
    /// and the metrics database.
    pub fn fom_table(&self) -> Vec<(String, String, String)> {
        self.results
            .iter()
            .flat_map(|r| {
                r.foms
                    .iter()
                    .map(|f| (r.experiment.clone(), f.name.clone(), f.value.clone()))
            })
            .collect()
    }

    /// Renders a human-readable summary.
    pub fn render(&self) -> String {
        let mut out = String::new();
        for r in &self.results {
            out.push_str(&format!(
                "{} [{}:{}] — {:?}{}\n",
                r.experiment,
                r.application,
                r.workload,
                r.status,
                if r.cached { " [cached]" } else { "" }
            ));
            for fom in &r.foms {
                out.push_str(&format!("    {} = {} {}\n", fom.name, fom.value, fom.units));
            }
        }
        out
    }
}

/// Analyzes one experiment's captured output.
pub fn analyze_experiment(
    exp: &ExperimentInstance,
    app: &ApplicationDef,
    output: &RunOutput,
) -> Result<ExperimentResult, RambleError> {
    analyze_experiment_with(exp, app, output, &[])
}

/// Like [`analyze_experiment`], with extra criteria from `ramble.yaml`
/// (experiment-specific evaluation, §4.5).
pub fn analyze_experiment_with(
    exp: &ExperimentInstance,
    app: &ApplicationDef,
    output: &RunOutput,
    extra_criteria: &[benchpark_pkg::SuccessCriterion],
) -> Result<ExperimentResult, RambleError> {
    // --- figures of merit: regex per line, all matches collected -----------
    let mut foms = Vec::new();
    for fom in &app.figures_of_merit {
        let re = Regex::new(&fom.fom_regex)
            .map_err(|e| RambleError::Regex(format!("{}/{}: {e}", app.name, fom.name)))?;
        for line in output.stdout.lines() {
            if let Some(caps) = re.captures(line) {
                if let Some(m) = caps.name(&fom.group_name) {
                    let mut context = BTreeMap::new();
                    for group in caps.group_names() {
                        if group != fom.group_name {
                            if let Some(gm) = caps.name(group) {
                                context.insert(group.to_string(), gm.text.to_string());
                            }
                        }
                    }
                    foms.push(FomValue {
                        name: fom.name.clone(),
                        value: m.text.to_string(),
                        units: fom.units.clone(),
                        context,
                    });
                }
            }
        }
    }

    // --- success criteria ----------------------------------------------------
    let mut criteria = Vec::new();
    let mut all_passed = true;
    for crit in app.success_criteria.iter().chain(extra_criteria) {
        let passed = match crit.mode {
            SuccessMode::StringMatch => {
                let re = Regex::new(&crit.match_expr)
                    .map_err(|e| RambleError::Regex(format!("{}/{}: {e}", app.name, crit.name)))?;
                output.stdout.lines().any(|line| re.is_match(line))
            }
            SuccessMode::FomComparison => evaluate_fom_comparison(&crit.match_expr, &foms)?,
        };
        all_passed &= passed;
        criteria.push((crit.name.clone(), passed));
    }

    let status = if output.exit_code != 0 {
        ExperimentStatus::JobError
    } else if all_passed {
        ExperimentStatus::Success
    } else {
        ExperimentStatus::Failed
    };

    Ok(ExperimentResult {
        experiment: exp.name.clone(),
        application: exp.application.clone(),
        workload: exp.workload.clone(),
        status,
        foms,
        criteria,
        variables: exp.variables.iter().collect(),
        profile: output.profile.clone(),
        cached: false,
    })
}

/// Evaluates `"<fom_name> <op> <number>"` against the extracted FOMs
/// (`mode='fom_comparison'`). Every instance of the named FOM must satisfy
/// the comparison; a missing FOM fails.
fn evaluate_fom_comparison(expr: &str, foms: &[FomValue]) -> Result<bool, RambleError> {
    let parts: Vec<&str> = expr.split_whitespace().collect();
    let [name, op, value] = parts.as_slice() else {
        return Err(RambleError::Config(format!(
            "fom_comparison must be `<fom> <op> <number>`, got {expr:?}"
        )));
    };
    let threshold: f64 = value
        .parse()
        .map_err(|_| RambleError::Config(format!("bad comparison constant in {expr:?}")))?;
    let values: Vec<f64> = foms
        .iter()
        .filter(|f| f.name == *name)
        .filter_map(FomValue::as_f64)
        .collect();
    if values.is_empty() {
        return Ok(false);
    }
    let check = |v: f64| match *op {
        ">" => v > threshold,
        ">=" => v >= threshold,
        "<" => v < threshold,
        "<=" => v <= threshold,
        "==" => (v - threshold).abs() < f64::EPSILON,
        _ => false,
    };
    if !matches!(*op, ">" | ">=" | "<" | "<=" | "==") {
        return Err(RambleError::Config(format!(
            "unknown comparison operator in {expr:?}"
        )));
    }
    Ok(values.into_iter().all(check))
}
