//! `benchpark-ramble` — the experimentation framework (paper §3.2).
//!
//! Ramble is *"a Python experimentation framework enabling the creation of
//! large sets of experiments with concise YAML files"*. This crate
//! reimplements the workflow of Figure 5 over the same file formats:
//!
//! * [`Workspace::create`] — `ramble workspace create`: a self-contained
//!   directory with `configs/`, `experiments/`, `software/`, `logs/`.
//! * [`Workspace::set_config`] — `ramble workspace edit`: installs the
//!   `ramble.yaml` (Figure 10 parses verbatim) and the
//!   `execute_experiment.tpl` template (Figure 13).
//! * [`Workspace::setup`] — `ramble workspace setup`: expands **variables**
//!   (`{var}` substitution, recursive), **zips** (list variables of equal
//!   length advance together), and **matrices** (cross products, Figure 10's
//!   `size_threads`) into concrete experiments; renders a batch script per
//!   experiment; builds the software environments through the Spack
//!   substrate (§3.2.3: *"Installing any required software with Spack"*).
//! * [`Workspace::run_with`] — `ramble on`: executes every rendered script
//!   through a pluggable runner (the simulated cluster, in Benchpark's case)
//!   and captures stdout into `{experiment_run_dir}/{experiment_name}.out`.
//! * [`Workspace::analyze`] — `ramble workspace analyze`: applies each
//!   application's FOM regexes and success criteria (Figure 8) to the
//!   captured output and produces structured results.
//!
//! Experiment-name templates (`saxpy_{n}_{n_nodes}_{n_ranks}_{n_threads}`)
//! and the matrix semantics reproduce Figure 10's eight generated
//! experiments exactly — see `tests::golden_fig10_expansion`.

mod analyze;
mod error;
mod expand;
mod expgen;
mod modifiers;
mod rconfig;
mod template;
mod vars;
mod workspace;

pub use analyze::{
    analyze_experiment, analyze_experiment_with, AnalyzeReport, ExperimentResult, ExperimentStatus,
    FomValue,
};
pub use error::RambleError;
pub use expand::expand;
pub use expgen::{generate_experiments, ExperimentInstance, WORKSPACE_LOCAL_VARIABLES};
pub use modifiers::Modifier;
pub use rconfig::{
    EnvironmentDef, ExperimentDef, RambleConfig, SpackPackageDef, VarValue, WorkloadConfig,
};
pub use template::render_template;
pub use vars::VarMap;

/// The default batch template (Figure 13), re-exported for writers of
/// workspace skeletons.
pub fn template_default() -> &'static str {
    template::DEFAULT_TEMPLATE
}
pub use workspace::{RunOutput, SetupReport, Workspace};

#[cfg(test)]
mod tests;
