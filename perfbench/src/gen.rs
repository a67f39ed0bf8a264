//! Seeded inputs: request streams and ledger histories. Everything here is a
//! pure function of the seed and the template records the seed push
//! produced, so the same seed gives the same inputs.

use crate::rng::Rng;
use benchpark_core::{
    experiment_template, lower_is_better_units, shard_path, RequestTrace, RunRecord,
};
use benchpark_serve::ExperimentRequest;
use std::collections::{BTreeMap, BTreeSet};
use std::io::Write as _;
use std::path::Path;

/// The built-in `benchmark/variant × system` pairs the workloads draw
/// from: every experiment of each succeeds, and each benchmark appears
/// with one variant per system, so a regression scan over a mixed history
/// compares like with like.
pub const PAIRS: [(&str, &str, &str); 12] = [
    ("saxpy", "openmp", "cts1"),
    ("amg2023", "openmp", "cts1"),
    ("stream", "openmp", "cts1"),
    ("osu-bcast", "scaling", "cts1"),
    ("hpl", "mpi", "cts1"),
    ("lulesh", "openmp", "cts1"),
    ("saxpy", "cuda", "ats2"),
    ("amg2023", "cuda", "ats2"),
    ("stream", "openmp", "ats2"),
    ("saxpy", "rocm", "ats4"),
    ("amg2023", "rocm", "ats4"),
    ("hpl", "mpi", "ats4"),
];

/// How a user template varies one variable of a benchmark's experiment:
/// the experiment name pattern, the scalars it pins, and the list variable
/// whose `i`-th value is `base + step * i`.
struct UserBlock {
    name: &'static str,
    scalars: &'static [(&'static str, &'static str)],
    var: &'static str,
    base: u64,
    step: u64,
}

fn user_block(benchmark: &str) -> UserBlock {
    match benchmark {
        "saxpy" => UserBlock {
            name: "saxpy_user_{n}_{n_nodes}_{n_ranks}",
            scalars: &[
                ("processes_per_node", "4"),
                ("n_nodes", "1"),
                ("n_threads", "2"),
            ],
            var: "n",
            base: 512,
            step: 64,
        },
        "amg2023" => UserBlock {
            name: "amg2023_user_{nx}_{ny}_{nz}",
            scalars: &[("ny", "64"), ("nz", "64")],
            var: "nx",
            base: 64,
            step: 4,
        },
        "stream" => UserBlock {
            name: "stream_user_{n_threads}_{array_size}",
            scalars: &[("n_threads", "4")],
            var: "array_size",
            base: 80_000_000,
            step: 1_000_000,
        },
        "osu-bcast" => UserBlock {
            name: "bcast_user_{run_tag}_{n_nodes}",
            scalars: &[("n_nodes", "2")],
            var: "run_tag",
            base: 1,
            step: 1,
        },
        "hpl" => UserBlock {
            name: "hpl_user_{problem_size}_{n_nodes}_{n_ranks}",
            scalars: &[("n_nodes", "1")],
            var: "problem_size",
            base: 20_000,
            step: 200,
        },
        "lulesh" => UserBlock {
            name: "lulesh_user_{size}_{n_nodes}_{n_ranks}",
            scalars: &[
                ("processes_per_node", "8"),
                ("n_nodes", "1"),
                ("iterations", "100"),
            ],
            var: "size",
            base: 30,
            step: 1,
        },
        other => panic!("no user template for benchmark `{other}`"),
    }
}

/// A user `ramble.yaml` for `PAIRS[pair]`: the built-in template with its
/// experiment block replaced by one that zips a single list variable, so
/// it expands to exactly `values.len()` experiments.
pub fn user_template(pair: usize, values: &[u64]) -> String {
    let (benchmark, variant, _) = PAIRS[pair];
    let builtin = experiment_template(benchmark, variant).expect("PAIRS are built-in experiments");
    let start = builtin
        .find("          experiments:\n")
        .expect("built-in templates have an experiments block");
    let end = builtin
        .find("  spack:\n")
        .expect("built-in templates have a spack block");
    let block = user_block(benchmark);
    let mut text = String::from(&builtin[..start]);
    text.push_str("          experiments:\n");
    text.push_str(&format!(
        "            {}:\n              variables:\n",
        block.name
    ));
    for (key, value) in block.scalars {
        text.push_str(&format!("                {key}: '{value}'\n"));
    }
    let list: Vec<String> = values
        .iter()
        .map(|i| format!("'{}'", block.base + block.step * i))
        .collect();
    text.push_str(&format!(
        "                {}: [{}]\n",
        block.var,
        list.join(", ")
    ));
    text.push_str(&builtin[end..]);
    text
}

/// One generated request: a tenant, a pair, and — for a user template —
/// the indices of the varied values.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Req {
    pub tenant: String,
    pub pair: usize,
    pub values: Option<Vec<u64>>,
}

impl Req {
    pub fn template(&self) -> Option<String> {
        self.values.as_ref().map(|v| user_template(self.pair, v))
    }

    /// The request as the daemon receives it.
    pub fn request(&self) -> ExperimentRequest {
        let (benchmark, variant, system) = PAIRS[self.pair];
        let mut request = ExperimentRequest::new(&self.tenant, benchmark, variant, system);
        request.template = self.template();
        request
    }

    /// Experiments the request expands to (`builtin` holds the built-in
    /// templates' counts, by pair).
    pub fn experiments(&self, builtin: &[usize; 12]) -> usize {
        self.values.as_ref().map_or(builtin[self.pair], Vec::len)
    }
}

/// Requests a tenant name serves before it is retired for a fresh one, so
/// a built-in pair never repeats under one name.
const EPOCH_REQUESTS: usize = 12;

#[derive(Debug, Clone, Default)]
struct Slot {
    epoch: u32,
    used: [bool; 12],
    served: usize,
    next_value: u64,
}

/// The seeded request stream of the serve workloads. Each of `tenants`
/// slots submits under one name until it has sent [`EPOCH_REQUESTS`], then
/// under a fresh name. Half the requests use a built-in template the name
/// has not used; the other half carry a user template whose values the name
/// has never sent. So no request can be answered from a fingerprint cache.
#[derive(Debug, Clone)]
pub struct RequestStream {
    rng: Rng,
    slots: Vec<Slot>,
}

impl RequestStream {
    pub fn new(rng: Rng, tenants: usize) -> RequestStream {
        RequestStream {
            rng,
            slots: vec![Slot::default(); tenants],
        }
    }

    /// The name slot `slot` submits under in `epoch`.
    pub fn tenant_name(slot: usize, epoch: u32) -> String {
        if epoch == 0 {
            format!("t{slot:02}")
        } else {
            format!("t{slot:02}e{epoch}")
        }
    }

    /// The names slots use before any is retired.
    pub fn initial_tenants(&self) -> Vec<String> {
        (0..self.slots.len())
            .map(|slot| Self::tenant_name(slot, 0))
            .collect()
    }

    fn next_from(&mut self, slot: usize) -> Req {
        let state = &mut self.slots[slot];
        if state.served == EPOCH_REQUESTS {
            *state = Slot {
                epoch: state.epoch + 1,
                ..Slot::default()
            };
        }
        state.served += 1;
        let tenant = Self::tenant_name(slot, state.epoch);
        if self.rng.one_in(2) {
            let unused: Vec<usize> = (0..PAIRS.len()).filter(|&p| !state.used[p]).collect();
            let pair = unused[self.rng.below(unused.len())];
            state.used[pair] = true;
            Req {
                tenant,
                pair,
                values: None,
            }
        } else {
            let pair = self.rng.below(PAIRS.len());
            let len = 1 + self.rng.below(8) as u64;
            let values = (state.next_value..state.next_value + len).collect();
            state.next_value += len;
            Req {
                tenant,
                pair,
                values: Some(values),
            }
        }
    }

    /// A push of `size` requests from random slots.
    pub fn push(&mut self, size: usize) -> Vec<Req> {
        (0..size)
            .map(|_| {
                let slot = self.rng.below(self.slots.len());
                self.next_from(slot)
            })
            .collect()
    }
}

/// A generated sharded history: records per `(tenant, system)` shard in
/// file order, and the regressions planted in it.
#[derive(Debug, Clone, Default)]
pub struct History {
    pub shards: BTreeMap<(String, String), Vec<RunRecord>>,
    /// `(benchmark, system, fom)` triples whose latest run regressed.
    pub injected: BTreeSet<(String, String, String)>,
}

impl History {
    /// The `(tenant, system)` of the longest shard (first in order on a tie).
    pub fn largest_shard(&self) -> (String, String) {
        let mut best: Option<(&(String, String), usize)> = None;
        for (key, runs) in &self.shards {
            if best.is_none_or(|(_, len)| runs.len() > len) {
                best = Some((key, runs.len()));
            }
        }
        best.expect("history has shards").0.clone()
    }

    /// Writes every shard under `ledger_root` as schema-3 JSONL, with
    /// sequences stamped as `append_run` would, and syncs each file.
    pub fn write(&self, ledger_root: &Path) -> Result<(), String> {
        for ((tenant, system), runs) in &self.shards {
            let path = shard_path(ledger_root, tenant, system);
            std::fs::create_dir_all(path.parent().expect("shard paths have a parent"))
                .map_err(|e| format!("cannot create shard dir: {e}"))?;
            let mut text = String::new();
            for (i, run) in runs.iter().enumerate() {
                let mut run = run.clone();
                run.sequence = i as u64 + 1;
                text.push_str(&run.to_json_line());
                text.push('\n');
            }
            let mut file =
                std::fs::File::create(&path).map_err(|e| format!("cannot create shard: {e}"))?;
            file.write_all(text.as_bytes())
                .and_then(|()| file.sync_all())
                .map_err(|e| format!("cannot write shard: {e}"))?;
        }
        Ok(())
    }
}

/// Request ids of generated history start here, above any id a daemon
/// hands out in one run, so the two never collide.
pub const HISTORY_REQUEST_BASE: u64 = 1 << 40;

/// One synthetic run: `template` with fresh fingerprints, a request trace
/// for `tenant`, and every numeric FOM scaled by a per-run factor within
/// ±2% (one factor per FOM name).
pub fn synth_run(template: &RunRecord, rng: &mut Rng, tenant: &str, request_id: u64) -> RunRecord {
    let mut run = template.clone();
    let mut factors: BTreeMap<String, f64> = BTreeMap::new();
    for result in &mut run.results {
        for fom in &mut result.foms {
            if let Some(value) = fom.as_f64() {
                let factor = *factors
                    .entry(fom.name.clone())
                    .or_insert_with(|| 1.0 + 0.04 * (rng.unit() - 0.5));
                fom.value = format!("{}", value * factor);
            }
        }
    }
    run.fingerprints = run
        .fingerprints
        .iter()
        .map(|(experiment, _)| (experiment.clone(), rng.hex()))
        .collect();
    run.request = Some(RequestTrace {
        tenant: tenant.to_string(),
        request_id,
        submit_tick: request_id - HISTORY_REQUEST_BASE,
        queue_wait_ticks: rng.below(4) as u64,
        schedule_ticks: rng.below(16) as u64,
        execute_ticks: template.request.as_ref().map_or(1, |r| r.execute_ticks),
        commit_ticks: 1 + rng.below(16) as u64,
    });
    run
}

/// A pair of `system`, uniformly.
pub fn pick_pair(rng: &mut Rng, system: &str) -> usize {
    let pairs: Vec<usize> = (0..PAIRS.len()).filter(|&p| PAIRS[p].2 == system).collect();
    pairs[rng.below(pairs.len())]
}

/// Generates `runs` history runs over `tenants`. Every pair occurs equally
/// often (each block of 12 runs is a shuffle of the pairs), so the mix and
/// size of a history do not change with the seed. The first tenant owns
/// `owner_share` of the runs; the rest is spread uniformly. Then plants
/// `injections` regressions: for each chosen `(benchmark, system, fom)`,
/// the run that the merged view orders last for that benchmark and system
/// gets the FOM 20% worse.
pub fn history(
    rng: &mut Rng,
    templates: &[RunRecord; 12],
    tenants: &[String],
    owner_share: f64,
    runs: usize,
    injections: usize,
) -> History {
    let mut shards: BTreeMap<(String, String), Vec<RunRecord>> = BTreeMap::new();
    let mut block: Vec<usize> = Vec::new();
    for i in 0..runs {
        if block.is_empty() {
            block = (0..PAIRS.len()).collect();
        }
        let pair = block.swap_remove(rng.below(block.len()));
        let tenant = if rng.unit() < owner_share {
            &tenants[0]
        } else {
            &tenants[1 + rng.below(tenants.len() - 1)]
        };
        let run = synth_run(
            &templates[pair],
            rng,
            tenant,
            HISTORY_REQUEST_BASE + i as u64,
        );
        shards
            .entry((tenant.clone(), PAIRS[pair].2.to_string()))
            .or_default()
            .push(run);
    }

    // the merged view concatenates shards in (tenant, system) order, so the
    // last occurrence in this walk is the latest run of each pair
    let mut latest: BTreeMap<(String, String), ((String, String), usize)> = BTreeMap::new();
    let mut counts: BTreeMap<(String, String), usize> = BTreeMap::new();
    for (key, shard) in &shards {
        for (i, run) in shard.iter().enumerate() {
            let pair = (run.benchmark.clone(), run.system.clone());
            *counts.entry(pair.clone()).or_default() += 1;
            latest.insert(pair, (key.clone(), i));
        }
    }
    let mut candidates: Vec<(String, String, String)> = Vec::new();
    for template in templates.iter() {
        let pair = (template.benchmark.clone(), template.system.clone());
        // a scan needs three runs of a pair to judge its latest one
        if counts.get(&pair).copied().unwrap_or(0) < 3 {
            continue;
        }
        let mut names: BTreeSet<&str> = BTreeSet::new();
        for result in &template.results {
            for fom in &result.foms {
                names.insert(&fom.name);
            }
        }
        for name in names {
            let all_nonzero = template.results.iter().all(|r| {
                r.foms
                    .iter()
                    .filter(|f| f.name == name)
                    .all(|f| f.as_f64().is_some_and(|v| v != 0.0 && v.is_finite()))
            });
            if all_nonzero {
                candidates.push((pair.0.clone(), pair.1.clone(), name.to_string()));
            }
        }
    }
    let mut injected = BTreeSet::new();
    while injected.len() < injections.min(candidates.len()) {
        let triple = candidates.swap_remove(rng.below(candidates.len()));
        let (shard, index) = &latest[&(triple.0.clone(), triple.1.clone())];
        let run = &mut shards.get_mut(shard).expect("latest points at a shard")[*index];
        for result in &mut run.results {
            for fom in result.foms.iter_mut().filter(|f| f.name == triple.2) {
                let value = fom.as_f64().expect("candidates are numeric");
                let worse = if lower_is_better_units(&fom.units) {
                    1.25
                } else {
                    0.8
                };
                fom.value = format!("{}", value * worse);
            }
        }
        injected.insert(triple);
    }
    History { shards, injected }
}
