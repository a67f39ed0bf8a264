//! Canonical JSON serialization of a run's experiment results — the
//! `results.json` half of the `--export` bundle.
//!
//! Unlike the telemetry exports this one is about *what was measured*: every
//! FOM, criterion, and variable of every experiment, each result annotated
//! with its content-addressed fingerprint and its `cached` provenance flag
//! (`true` when the result was spliced from an earlier ledger record instead
//! of re-measured — incremental re-benchmarking). Emission is fully
//! deterministic (fixed field order, sorted maps): everything except the
//! `cached` provenance flags is byte-identical between a measured run and
//! the cached replay that splices it, which is what lets CI diff them.

use benchpark_ramble::ExperimentResult;
use benchpark_yamlite::{emit_json, Map, Value};

/// Renders results (with their `experiment name → fingerprint hex` map) as
/// one compact JSON document.
pub fn results_to_json(results: &[ExperimentResult], fingerprints: &[(String, String)]) -> String {
    let fingerprint_of = |experiment: &str| {
        fingerprints
            .iter()
            .find(|(name, _)| name == experiment)
            .map(|(_, hex)| hex.clone())
    };
    let mut root = Map::new();
    root.insert("schema", Value::Int(1));
    let mut entries = Vec::new();
    for result in results {
        let mut entry = Map::new();
        entry.insert("experiment", Value::str(result.experiment.clone()));
        entry.insert(
            "fingerprint",
            fingerprint_of(&result.experiment)
                .map(Value::str)
                .unwrap_or(Value::Null),
        );
        entry.insert("application", Value::str(result.application.clone()));
        entry.insert("workload", Value::str(result.workload.clone()));
        entry.insert("status", Value::str(format!("{:?}", result.status)));
        entry.insert("cached", Value::Bool(result.cached));
        let mut foms = Map::new();
        for fom in &result.foms {
            let mut body = Map::new();
            body.insert("value", Value::str(fom.value.clone()));
            body.insert("units", Value::str(fom.units.clone()));
            foms.insert(&fom.name, Value::Map(body));
        }
        entry.insert("foms", Value::Map(foms));
        let mut criteria = Map::new();
        for (name, passed) in &result.criteria {
            criteria.insert(name, Value::Bool(*passed));
        }
        entry.insert("criteria", Value::Map(criteria));
        let mut variables = Map::new();
        for (name, value) in &result.variables {
            variables.insert(name, Value::str(value));
        }
        entry.insert("variables", Value::Map(variables));
        entries.push(Value::Map(entry));
    }
    root.insert("results", Value::Seq(entries));
    emit_json(&Value::Map(root))
}

/// Writes `results.json` into `dir` (created if missing). Returns the file
/// name written, matching the [`crate::export_all`] convention.
pub fn export_results(
    results: &[ExperimentResult],
    fingerprints: &[(String, String)],
    dir: &std::path::Path,
) -> Result<String, String> {
    std::fs::create_dir_all(dir).map_err(|e| format!("create {}: {e}", dir.display()))?;
    let path = dir.join("results.json");
    std::fs::write(&path, results_to_json(results, fingerprints))
        .map_err(|e| format!("write {}: {e}", path.display()))?;
    Ok("results.json".to_string())
}
