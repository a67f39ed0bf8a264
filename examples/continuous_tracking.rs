//! Continuous benchmarking through a system's service life (paper §1):
//! *"once the system has been accepted and is in service, benchmarking is a
//! useful tool for tracking system performance over time and diagnosing
//! hardware failures."*
//!
//! Six scheduled benchmarking epochs run on `cts1`. After epoch 4, a memory
//! DIMM degrades (bandwidth halved on the machine). The regression detector
//! flags the drop immediately, and the §5-style dashboard plot makes it
//! visible. Every run is appended to a ledger shard, the history the
//! detector reads, and a collaborating center rebuilds the same history from
//! the shared shards (§5).
//!
//! ```text
//! cargo run --example continuous_tracking
//! ```

use benchpark::cluster::FaultSpec;
use benchpark::core::{
    append_run, ascii_plot, detect_regression, load_ledger, shard_path, Benchpark, RunRecord,
    ShardedLedger, SystemProfile,
};
use benchpark::telemetry::TelemetrySink;
use std::path::Path;

fn run_epoch(ledger: &Path, epoch: usize, degrade: Option<f64>) {
    let benchpark = Benchpark::new();
    let mut machine = SystemProfile::cts1().machine();
    if let Some(factor) = degrade {
        machine = FaultSpec::DegradeMemoryBandwidth(factor).apply(machine);
    }
    let dir = std::env::temp_dir().join(format!("benchpark-tracking-{epoch}"));
    let _ = std::fs::remove_dir_all(&dir);
    let mut ws = benchpark
        .setup_workspace_on("stream", "openmp", "cts1", dir, Some(machine))
        .expect("setup");
    ws.run().expect("run");
    let analysis = ws.analyze(&benchpark).expect("analyze");
    let mut record = RunRecord::from_run(
        "cts1",
        "stream",
        "openmp",
        &ws.manifest(),
        &analysis.results,
        None,
    );
    append_run(ledger, &mut record).expect("append to ledger");
}

fn main() {
    let ledger_root = std::env::temp_dir().join("benchpark-tracking-ledger");
    let _ = std::fs::remove_dir_all(&ledger_root);
    let ledger = shard_path(&ledger_root, "llnl", "cts1");
    std::fs::create_dir_all(ledger.parent().unwrap()).expect("ledger dir");
    let history = || {
        let load = load_ledger(&ledger, &TelemetrySink::noop()).expect("load ledger");
        load.to_database()
    };

    println!("running 6 scheduled benchmarking epochs on cts1…");
    for epoch in 1..=6 {
        // the DIMM fails before epoch 5
        let degrade = (epoch >= 5).then_some(0.5);
        run_epoch(&ledger, epoch, degrade);
        let verdict = detect_regression(&history(), "stream", "cts1", "triad_bw", true, 0.10);
        match verdict {
            Some(report) => println!("epoch {epoch}: {}", report.render()),
            None => println!("epoch {epoch}: gathering baseline…"),
        }
    }

    let db = history();
    // dashboard view: triad bandwidth at max threads, per epoch
    let points: Vec<(f64, f64)> = db
        .query(Some("stream"), Some("cts1"))
        .into_iter()
        .filter(|r| r.result.variables.get("n_threads") == Some("36"))
        .filter_map(|r| {
            let y = r
                .result
                .foms
                .iter()
                .find(|f| f.name == "triad_bw")
                .and_then(|f| f.as_f64())?;
            Some((r.sequence as f64, y))
        })
        .collect();
    println!(
        "\n{}",
        ascii_plot(
            "STREAM triad MB/s (36 threads) across benchmarking epochs",
            &points,
            None,
            48,
            10
        )
    );

    println!(
        "benchmark usage (most exercised first): {:?}",
        db.usage_counts()
    );

    // share the history with a collaborator (§5): ledger records are
    // self-contained JSONL, so the shard root alone rebuilds the history
    let shared = ShardedLedger::load(&ledger_root, &TelemetrySink::noop()).expect("load ledger");
    let other_center = shared.merged.to_database();
    println!(
        "\nshared {} runs; the collaborating center rebuilt {} results and sees:",
        shared.len(),
        other_center.len()
    );
    print!("{}", other_center.render_dashboard());
}
