//! `benchpark-perfbench --workload <name> --seed <n> --seconds <s> --trace <0|1>`
//!
//! Runs one workload and prints, as its last line of output, one JSON
//! object: `correct`, `attempted`, `failed`, and `metrics` (end-to-end with
//! `--trace 0`, per-layer with `--trace 1`). Exits 1 when an output check
//! failed and 2 when the run could not complete.

use benchpark_perfbench::metrics::{END_TO_END, PER_LAYER};
use benchpark_perfbench::{run, Options, Scale, Workload};
use std::path::PathBuf;

const USAGE: &str =
    "usage: benchpark-perfbench --workload <serve-fresh|serve-rebench|ledger-scale> \
--seed <n> --seconds <s> --trace <0|1> [--storage <label>]";

fn parse(args: &[String]) -> Result<(Options, String), String> {
    let mut flags = std::collections::BTreeMap::new();
    let mut it = args.iter();
    while let Some(flag) = it.next() {
        let name = flag
            .strip_prefix("--")
            .ok_or_else(|| format!("unexpected argument `{flag}`"))?;
        let value = it.next().ok_or_else(|| format!("`{flag}` needs a value"))?;
        flags.insert(name.to_string(), value.clone());
    }
    let get = |name: &str| flags.get(name).ok_or_else(|| format!("missing --{name}"));
    let workload = Workload::parse(get("workload")?)
        .ok_or_else(|| format!("unknown workload `{}`", flags["workload"]))?;
    let seed: u64 = get("seed")?.parse().map_err(|e| format!("--seed: {e}"))?;
    let seconds: f64 = get("seconds")?
        .parse()
        .map_err(|e| format!("--seconds: {e}"))?;
    let trace = match get("trace")?.as_str() {
        "0" => false,
        "1" => true,
        other => return Err(format!("--trace must be 0 or 1, not `{other}`")),
    };
    let spans_out = trace.then(|| {
        PathBuf::from(".perfbench_out").join(format!("spans-{}-seed{seed}.jsonl", workload.name()))
    });
    let storage = flags
        .get("storage")
        .cloned()
        .unwrap_or_else(|| "disk".to_string());
    let options = Options {
        workload,
        seed,
        seconds,
        trace,
        scale: Scale::full(),
        work: PathBuf::from(".perfbench_work").join(workload.name()),
        spans_out,
        jobs: std::thread::available_parallelism().map_or(1, |n| n.get()),
    };
    Ok((options, storage))
}

fn main() {
    let args: Vec<String> = std::env::args().skip(1).collect();
    let (options, storage) = match parse(&args) {
        Ok(parsed) => parsed,
        Err(e) => {
            eprintln!("benchpark-perfbench: {e}\n{USAGE}");
            std::process::exit(2);
        }
    };
    eprintln!(
        "perfbench: {} seed {} for {}s, trace {}, pool width {}, roots on {} storage at {}",
        options.workload.name(),
        options.seed,
        options.seconds,
        u8::from(options.trace),
        options.jobs,
        storage,
        options.work.display()
    );
    let outcome = match run(&options) {
        Ok(outcome) => outcome,
        Err(e) => {
            eprintln!("benchpark-perfbench: {e}");
            std::process::exit(2);
        }
    };
    let units = if options.trace {
        &PER_LAYER[..]
    } else {
        &END_TO_END[..]
    };
    let mut correct = outcome.correct;
    let mut metrics = Vec::new();
    for ((name, value), (_, unit)) in outcome.metrics.iter().zip(units) {
        let value = if value.is_finite() {
            *value
        } else {
            eprintln!("perfbench: metric {name} is not finite");
            correct = false;
            0.0
        };
        metrics.push(format!(
            "\"{name}\": {{\"value\": {value}, \"unit\": \"{unit}\"}}"
        ));
    }
    for failure in &outcome.failures {
        eprintln!("perfbench: check failed: {failure}");
    }
    println!(
        "{{\"correct\": {correct}, \"attempted\": {}, \"failed\": {}, \"metrics\": {{{}}}}}",
        outcome.attempted,
        outcome.failed,
        metrics.join(", ")
    );
    if !correct {
        std::process::exit(1);
    }
}
