//! The Figure 14 pipeline: scaling study → Thicket → Extra-P model.
//!
//! The paper's Figure 14 shows *"an Extra-P model for performance of a
//! function in one of our applications: … performance measurements of an
//! MPI_Bcast function on the CTS architecture"*, with the fitted model
//! `-0.6355857931034596 + 0.04660217702356169 · p^(1)`. This module
//! regenerates that experiment on the simulated CTS system — and, as
//! ablation A4, on alternative broadcast algorithms, where the fitted model
//! flips to logarithmic.

use crate::driver::Benchpark;
use crate::metrics::MetricsDatabase;
use crate::systems::SystemProfile;
use benchpark_cluster::BcastAlgorithm;
use benchpark_perf::{extrap, ScalingModel, Thicket};
use std::path::Path;

/// The outcome of a broadcast scaling study.
#[derive(Debug, Clone)]
pub struct ScalingStudy {
    /// `(nprocs, MPI_Bcast seconds)` measurements.
    pub points: Vec<(f64, f64)>,
    /// The fitted Extra-P model.
    pub model: ScalingModel,
    /// The broadcast algorithm the machine used.
    pub algorithm: BcastAlgorithm,
}

impl ScalingStudy {
    /// Renders the study in Figure 14's style.
    pub fn render(&self) -> String {
        let mut out = format!(
            "Extra-P model for MPI_Bcast ({:?} algorithm):\n  {}\n  complexity: {}  (R^2 = {:.6})\n\n  nprocs    measured(s)    model(s)\n",
            self.algorithm, self.model, self.model.complexity(), self.model.r_squared
        );
        for (p, y) in &self.points {
            out.push_str(&format!(
                "  {:>6}    {:>11.6}    {:>8.6}\n",
                p,
                y,
                self.model.predict(*p)
            ));
        }
        out
    }
}

/// Runs the osu-bcast scaling experiment on `system` (optionally overriding
/// the machine's broadcast algorithm), records results into `db`, and fits
/// the Extra-P model.
pub fn bcast_scaling_study(
    system: &str,
    algorithm: Option<BcastAlgorithm>,
    workspace_dir: impl AsRef<Path>,
    db: &MetricsDatabase,
) -> Result<ScalingStudy, String> {
    let benchpark = Benchpark::new();
    let profile =
        SystemProfile::by_name(system).ok_or_else(|| format!("unknown system `{system}`"))?;
    let mut machine = profile.machine();
    if let Some(alg) = algorithm {
        machine.network.bcast = alg;
    }
    let used_algorithm = machine.network.bcast;

    let mut ws = benchpark.setup_workspace_on(
        "osu-bcast",
        "scaling",
        system,
        workspace_dir,
        Some(machine),
    )?;
    ws.run().map_err(|e| e.to_string())?;
    let analysis = ws.analyze(&benchpark).map_err(|e| e.to_string())?;
    db.record(
        system,
        "osu-bcast",
        "scaling",
        &ws.manifest(),
        &analysis.results,
    );

    // compose profiles from this study's results only (the shared metrics
    // database may hold other algorithms' runs) and extract the MPI_Bcast
    // series against nprocs
    let profiles: Vec<benchpark_perf::Profile> = analysis
        .results
        .iter()
        .map(|r| {
            benchpark_perf::Profile::from_parts(
                r.profile.clone(),
                r.variables
                    .iter()
                    .map(|(k, v)| (k.to_string(), v.to_string())),
            )
        })
        .collect();
    let thicket = Thicket::from_profiles(profiles);
    let points = thicket.series("n_ranks", "MPI_Bcast");
    if points.len() < 3 {
        return Err(format!(
            "scaling study produced only {} usable points",
            points.len()
        ));
    }
    let model = extrap::fit(&points).ok_or("model fitting failed")?;
    Ok(ScalingStudy {
        points,
        model,
        algorithm: used_algorithm,
    })
}
