//! The reported metrics: end-to-end ones from an untraced run, per-layer
//! ones derived from a traced run's spans. `BENCHMARK.json` lists the same
//! names and units (a test keeps the two in step).

use crate::common::Measured;
use crate::stats::{mean, median, quantile, ratio};
use crate::trace::{Span, Tracer};
use crate::Options;

/// `(name, unit)` of every end-to-end metric, in output order.
pub const END_TO_END: [(&str, &str); 6] = [
    ("setup_s", "s"),
    ("ops_per_s", "1/s"),
    ("op_p50_ms", "ms"),
    ("op_p90_ms", "ms"),
    ("regress_s", "s"),
    ("peak_rss_mb", "MiB"),
];

/// `(name, unit)` of every per-layer metric, in output order.
pub const PER_LAYER: [(&str, &str); 36] = [
    ("pkg.builtin_ms", "ms"),
    ("lint.compose_ms", "ms"),
    ("concretizer.solve_ms", "ms"),
    ("concretizer.solves", "count"),
    ("spack.install_ms", "ms"),
    ("spack.cache_hit_ratio", "ratio"),
    ("ramble.setup_ms", "ms"),
    ("ramble.analyze_ms", "ms"),
    ("ramble.files_written", "count"),
    ("ramble.bytes_written", "bytes"),
    ("cluster.run_ms", "ms"),
    ("cluster.jobs", "count"),
    ("rex.extract_us", "us"),
    ("core.stage_setup_ms", "ms"),
    ("core.stage_execute_ms", "ms"),
    ("core.stage_collect_ms", "ms"),
    ("core.uncovered_ms", "ms"),
    ("core.plan_ms", "ms"),
    ("core.plan_hit_ratio", "ratio"),
    ("core.append_ms", "ms"),
    ("core.append_lines_read", "count"),
    ("core.load_ms", "ms"),
    ("core.index_build_ms", "ms"),
    ("yamlite.json_parse_us", "us"),
    ("core.to_database_ms", "ms"),
    ("core.scan_ms", "ms"),
    ("serve.submit_us", "us"),
    ("serve.drain_ms", "ms"),
    ("serve.batches_per_push", "count"),
    ("serve.fastpath_ratio", "ratio"),
    ("serve.flush_bytes", "bytes"),
    ("serve.status_ms", "ms"),
    ("obs.prom_ms", "ms"),
    ("telemetry.report_ms", "ms"),
    ("engine.pool_utilization", "ratio"),
    ("trace.overhead_ms", "ms"),
];

const STAGES: [&str; 3] = [
    "core.stage_setup",
    "core.stage_execute",
    "core.stage_collect",
];

pub fn end_to_end(measured: &Measured) -> Vec<(&'static str, f64)> {
    let ops: Vec<_> = measured.ops.iter().filter(|op| !op.traced).collect();
    let latency_ms: Vec<f64> = ops.iter().map(|op| op.seconds * 1e3).collect();
    let units: u64 = ops.iter().map(|op| op.units).sum();
    let busy: f64 = ops.iter().map(|op| op.busy).sum();
    let values = [
        median(&measured.setup_s),
        ratio(units as f64, busy),
        quantile(&latency_ms, 0.5),
        quantile(&latency_ms, 0.9),
        median(&measured.regress_s),
        crate::stats::peak_rss_mb(),
    ];
    END_TO_END
        .iter()
        .zip(values)
        .map(|((name, _), value)| (*name, value))
        .collect()
}

/// Spans of one name, split into all of them and those inside the count
/// window (operations `0..=count_ops`).
struct Named<'a> {
    all: Vec<&'a Span>,
    window: Vec<&'a Span>,
}

impl Named<'_> {
    /// Mean duration, in seconds × `scale`.
    fn mean(&self, scale: f64) -> f64 {
        mean(
            &self
                .all
                .iter()
                .map(|s| s.seconds() * scale)
                .collect::<Vec<_>>(),
        )
    }

    /// Windowed mean of count `key` per span.
    fn per_span(&self, key: &str) -> f64 {
        ratio(self.sum(key) as f64, self.window.len() as f64)
    }

    /// Windowed sum of count `key`.
    fn sum(&self, key: &str) -> u64 {
        self.window.iter().map(|s| s.count(key)).sum()
    }

    /// Windowed `a / (a + b)` of two counts.
    fn share(&self, a: &str, b: &str) -> f64 {
        let a = self.sum(a) as f64;
        ratio(a, a + self.sum(b) as f64)
    }
}

fn named<'a>(spans: &'a [Span], name: &str, count_ops: u64) -> Named<'a> {
    let all: Vec<&Span> = spans.iter().filter(|s| s.name == name).collect();
    let window = all.iter().copied().filter(|s| s.op <= count_ops).collect();
    Named { all, window }
}

pub fn per_layer(
    tracer: &Tracer,
    measured: &Measured,
    options: &Options,
) -> Vec<(&'static str, f64)> {
    let own = tracer.self_seconds();
    let spans = tracer.spans();
    let window = options.scale.count_ops;
    let n = |name: &str| named(&spans, name, window);
    let (ms, us) = (1e3, 1e6);

    let requests = n("core.request");
    let stage_self: f64 = spans
        .iter()
        .zip(&own)
        .filter(|(s, _)| STAGES.contains(&s.name))
        .map(|(_, own)| own)
        .sum();
    let parse = n("yamlite.json_parse");
    let parse_us = ratio(
        parse.all.iter().map(|s| s.seconds()).sum::<f64>() * us,
        parse.all.iter().map(|s| s.count("lines")).sum::<u64>() as f64,
    );
    let pushes = n("serve.push");

    // pool utilization: the stage time of the pushes' requests, replayed
    // one at a time, over the drains' wall time times the pool width
    let stage_time: f64 = spans
        .iter()
        .filter(|s| STAGES.contains(&s.name))
        .map(Span::seconds)
        .sum();
    let drain_time: f64 = n("serve.drain").all.iter().map(|s| s.seconds()).sum();

    let traced: Vec<f64> = measured
        .ops
        .iter()
        .filter(|o| o.traced)
        .map(|o| o.seconds)
        .collect();
    let untraced: Vec<f64> = measured
        .ops
        .iter()
        .filter(|o| !o.traced)
        .map(|o| o.seconds)
        .collect();
    let overhead_ms = if traced.is_empty() || untraced.is_empty() {
        0.0
    } else {
        (median(&traced) - median(&untraced)) * ms
    };

    let values = [
        n("pkg.builtin").mean(ms),
        n("lint.compose").mean(ms),
        n("concretizer.solve").mean(ms),
        requests.per_span("solves"),
        n("spack.install").mean(ms),
        requests.share("cache_hits", "cache_misses"),
        n("ramble.setup").mean(ms),
        n("ramble.analyze").mean(ms),
        requests.per_span("files"),
        requests.per_span("bytes"),
        n("cluster.run").mean(ms),
        requests.per_span("jobs"),
        n("rex.extract").mean(us),
        n("core.stage_setup").mean(ms),
        n("core.stage_execute").mean(ms),
        n("core.stage_collect").mean(ms),
        ratio(stage_self * ms, requests.all.len() as f64),
        n("core.plan").mean(ms),
        n("core.plan").share("hits", "misses"),
        n("core.append").mean(ms),
        n("core.append").per_span("lines"),
        n("core.load").mean(ms),
        n("core.index_build").mean(ms),
        parse_us,
        n("core.to_database").mean(ms),
        n("core.scan").mean(ms),
        n("serve.submit").mean(us),
        n("serve.drain").mean(ms),
        pushes.per_span("batches"),
        ratio(
            pushes.sum("fastpath") as f64,
            pushes.sum("completed") as f64,
        ),
        pushes.per_span("flush_bytes"),
        n("serve.status").mean(ms),
        n("obs.prom").mean(ms),
        n("telemetry.report").mean(ms),
        ratio(stage_time, drain_time * options.jobs as f64),
        overhead_ms,
    ];
    PER_LAYER
        .iter()
        .zip(values)
        .map(|((name, _), value)| (*name, value))
        .collect()
}

/// The windowed count sums behind the per-layer count metrics, exact
/// integers a test can compare between runs.
pub fn layer_counts(tracer: &Tracer, options: &Options) -> Vec<(String, u64)> {
    let spans = tracer.spans();
    let window = options.scale.count_ops;
    let mut out = Vec::new();
    for (name, keys) in [
        (
            "core.request",
            &[
                "solves",
                "cache_hits",
                "cache_misses",
                "jobs",
                "files",
                "bytes",
            ][..],
        ),
        ("core.plan", &["hits", "misses"][..]),
        ("core.append", &["lines"][..]),
        (
            "serve.push",
            &["batches", "completed", "fastpath", "flush_bytes"][..],
        ),
        ("yamlite.json_parse", &["lines"][..]),
        ("core.index_build", &["tenants"][..]),
    ] {
        let named = named(&spans, name, window);
        out.push((format!("{name}.spans"), named.window.len() as u64));
        for key in keys {
            out.push((format!("{name}.{key}"), named.sum(key)));
        }
    }
    out
}
