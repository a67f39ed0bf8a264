//! `benchpark-bench` — the repository's one bench harness.
//!
//! The [`suite`] module is the deterministic hot-path suite behind
//! `benchpark bench`; its medians form the committed `BENCH_<date>.json`
//! trajectory that CI gates on (see `docs/perf/methodology.md`). The
//! paper's tables and figures are regenerated by the CLI (`benchpark
//! table1`, `benchpark fig14 [tree]`), the examples and the tests that
//! assert them; `DESIGN.md` §4 indexes which one regenerates each artifact.

pub mod suite;

pub use suite::{
    deep_package_name, run_suite, suite_names, synth_ledger_lines, synth_manifest, synth_repo,
    Scale, SuiteConfig,
};
