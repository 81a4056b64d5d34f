//! Per-layer accounting over the program's own spans and the benchmark's
//! outside timings.
//!
//! Span times come from `tytra_trace::profile::attribution` over the
//! records a traced phase drains; the benchmark's own `bench.*` spans
//! wrap its calls into each layer, so the program's spans nest under
//! them. Every per-layer metric is reported per op: accumulated over the
//! traced phase, then divided by its op count. A workload that bypasses
//! a layer reports 0 for it.

use crate::{metric, Metric};
use std::collections::BTreeMap;
use tytra_trace::profile::attribution;
use tytra_trace::{SpanRecord, Value};

/// The eight estimator passes, in pipeline order.
pub const PASSES: [&str; 8] = [
    "validate",
    "parameters",
    "configure",
    "resources",
    "bandwidth",
    "clock",
    "schedule",
    "throughput",
];

/// Summed span statistics by span name.
#[derive(Default)]
pub struct SpanTotals {
    /// `(count, total_ns, self_ns)` by span name.
    by_name: BTreeMap<String, (u64, u64, u64)>,
    /// Source bytes the `ir.parse` spans report.
    pub parse_bytes: u64,
}

impl SpanTotals {
    /// Fold one batch of drained records in.
    pub fn add(&mut self, records: &[SpanRecord]) {
        for a in attribution(records) {
            let e = self.by_name.entry(a.name).or_default();
            e.0 += a.count;
            e.1 += a.total_ns;
            e.2 += a.self_ns;
        }
        for r in records.iter().filter(|r| r.name == "ir.parse") {
            for (k, v) in &r.fields {
                if let ("bytes", Value::U64(b)) = (k.as_str(), v) {
                    self.parse_bytes += b;
                }
            }
        }
    }

    pub fn count(&self, name: &str) -> u64 {
        self.by_name.get(name).map_or(0, |e| e.0)
    }

    pub fn total_ms(&self, name: &str) -> f64 {
        self.by_name.get(name).map_or(0.0, |e| e.1 as f64 / 1e6)
    }

    pub fn self_ms(&self, name: &str) -> f64 {
        self.by_name.get(name).map_or(0.0, |e| e.2 as f64 / 1e6)
    }
}

/// Per-op values of every per-layer metric, 0 where the workload does
/// no work in that layer. Field names follow the metric names.
#[derive(Default)]
pub struct Layers {
    pub ir_parse_ms: f64,
    pub ir_parse_mb_per_s: f64,
    pub ir_validate_ms: f64,
    pub lower_ms: f64,
    pub factory_cold_ms: f64,
    pub factory_warm_us: f64,
    pub factory_bases: f64,
    pub bound_calls: f64,
    pub bound_ms: f64,
    pub estimate_calls: f64,
    pub estimate_ms: f64,
    pub pass_ms: [f64; 8],
    pub memo_hit_rate: f64,
    pub memo_evictions: f64,
    pub analyze_classes: f64,
    pub analyze_collapsed: f64,
    pub analyze_module_ms: f64,
    pub sweep_ms: f64,
    pub search_ms: f64,
    pub tune_ms: f64,
    pub render_ms: f64,
    pub generated: f64,
    pub estimated: f64,
    pub pruned_bound: f64,
    pub pruned_unfit: f64,
    pub stolen: f64,
    pub estimate_ratio: f64,
    pub sched_idle_ms: f64,
    pub parallel_speedup: f64,
    pub read_parse_us: f64,
    pub write_us: f64,
    pub compute_us: f64,
    pub queue_us: f64,
    pub hit_rate: f64,
    pub evictions: f64,
    pub batches: f64,
    pub batch_size_mean: f64,
    pub computes_per_cold_key: f64,
    pub overhead_pct: f64,
    pub residual_pct: f64,
}

impl Layers {
    /// Fill the estimator fields (`cost.*` calls, times and per-pass
    /// self times) from span totals, per op.
    pub fn set_estimator(&mut self, spans: &SpanTotals, ops: f64) {
        self.bound_calls = spans.count("estimator.bound") as f64 / ops;
        self.bound_ms = spans.total_ms("estimator.bound") / ops;
        self.estimate_calls = spans.count("estimator.estimate") as f64 / ops;
        self.estimate_ms = spans.total_ms("estimator.estimate") / ops;
        for (slot, pass) in self.pass_ms.iter_mut().zip(PASSES) {
            *slot = spans.self_ms(&format!("estimator.{pass}")) / ops;
        }
    }

    /// The per-layer metrics, by name, in a fixed order.
    pub fn metrics(&self) -> Vec<Metric> {
        let mut m = vec![
            metric("ir.parse_ms", self.ir_parse_ms, "ms"),
            metric("ir.parse_mb_per_s", self.ir_parse_mb_per_s, "MB/s"),
            metric("ir.validate_ms", self.ir_validate_ms, "ms"),
            metric("transform.lower_ms", self.lower_ms, "ms"),
            metric("transform.factory_cold_ms", self.factory_cold_ms, "ms"),
            metric("transform.factory_warm_us", self.factory_warm_us, "us"),
            metric("transform.factory_bases", self.factory_bases, "count"),
            metric("cost.bound_calls", self.bound_calls, "count"),
            metric("cost.bound_ms", self.bound_ms, "ms"),
            metric("cost.estimate_calls", self.estimate_calls, "count"),
            metric("cost.estimate_ms", self.estimate_ms, "ms"),
        ];
        const PASS_NAMES: [&str; 8] = [
            "cost.pass.validate_ms",
            "cost.pass.parameters_ms",
            "cost.pass.configure_ms",
            "cost.pass.resources_ms",
            "cost.pass.bandwidth_ms",
            "cost.pass.clock_ms",
            "cost.pass.schedule_ms",
            "cost.pass.throughput_ms",
        ];
        for (name, v) in PASS_NAMES.into_iter().zip(self.pass_ms) {
            m.push(metric(name, v, "ms"));
        }
        m.extend([
            metric("cost.memo_hit_rate", self.memo_hit_rate, "ratio"),
            metric("cost.memo_evictions", self.memo_evictions, "count"),
            metric("analyze.classes", self.analyze_classes, "count"),
            metric("analyze.collapsed", self.analyze_collapsed, "count"),
            metric("analyze.module_ms", self.analyze_module_ms, "ms"),
            metric("dse.sweep_ms", self.sweep_ms, "ms"),
            metric("dse.search_ms", self.search_ms, "ms"),
            metric("dse.tune_ms", self.tune_ms, "ms"),
            metric("dse.render_ms", self.render_ms, "ms"),
            metric("dse.generated", self.generated, "count"),
            metric("dse.estimated", self.estimated, "count"),
            metric("dse.pruned_bound", self.pruned_bound, "count"),
            metric("dse.pruned_unfit", self.pruned_unfit, "count"),
            metric("dse.stolen", self.stolen, "count"),
            metric("dse.estimate_ratio", self.estimate_ratio, "ratio"),
            metric("dse.sched_idle_ms", self.sched_idle_ms, "ms"),
            metric("dse.parallel_speedup", self.parallel_speedup, "ratio"),
            metric("serve.read_parse_us", self.read_parse_us, "us"),
            metric("serve.write_us", self.write_us, "us"),
            metric("serve.compute_us", self.compute_us, "us"),
            metric("serve.queue_us", self.queue_us, "us"),
            metric("serve.hit_rate", self.hit_rate, "ratio"),
            metric("serve.evictions", self.evictions, "count"),
            metric("serve.batches", self.batches, "count"),
            metric("serve.batch_size_mean", self.batch_size_mean, "count"),
            metric("serve.computes_per_cold_key", self.computes_per_cold_key, "ratio"),
            metric("trace.overhead_pct", self.overhead_pct, "%"),
            metric("residual_pct", self.residual_pct, "%"),
        ]);
        m
    }
}
