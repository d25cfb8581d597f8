//! The metric tables: every name the benchmark prints, with its unit and
//! direction. `BENCHMARK.json` lists the same names; `smoke --check` fails
//! when the two drift apart.

use std::collections::BTreeMap;

use serde_json::{json, Map, Value};

use crate::json::compact;

pub struct MetricDef {
    pub name: &'static str,
    pub unit: &'static str,
    pub better: &'static str,
}

const fn def(name: &'static str, unit: &'static str, better: &'static str) -> MetricDef {
    MetricDef { name, unit, better }
}

/// What a user of the system sees. Printed by an untraced run; every
/// workload reports every one, and none is ever 0.
///
/// `p50_ms`, `p90_ms` and `throughput_rps` are taken over every sample of
/// their phase, so a cost that comes and goes counts as much as one that is
/// always there.
///
/// On `train_roi` an "operation" is one training step: `p50_ms`/`p90_ms`
/// are step latencies, `throughput_rps` is examples per second and
/// `quality` is the held-out AUC. On the serving workloads `quality` is
/// recall@10 against an exact scan.
pub const END_TO_END: &[MetricDef] = &[
    def("p50_ms", "ms", "lower"),
    def("p90_ms", "ms", "lower"),
    def("throughput_rps", "1/s", "higher"),
    def("ok_share", "ratio", "higher"),
    def("full_quality_share", "ratio", "higher"),
    def("quality", "ratio", "higher"),
    def("rss_mb", "MiB", "lower"),
    def("setup_s", "s", "lower"),
];

/// Single layers, timed from outside by stage replay. Printed by a traced
/// run; a metric a workload does not exercise reads 0.
pub const PER_LAYER: &[MetricDef] = &[
    // wire: codec cost and frame sizes (level A frames).
    def("wire.encode_request_us", "us", "lower"),
    def("wire.decode_request_us", "us", "lower"),
    def("wire.encode_response_us", "us", "lower"),
    def("wire.decode_response_us", "us", "lower"),
    def("wire.request_bytes", "bytes", "lower"),
    def("wire.response_bytes", "bytes", "lower"),
    // front door: level A, and A − B.
    def("frontdoor.roundtrip_us", "us", "lower"),
    def("frontdoor.self_us", "us", "lower"),
    def("frontdoor.queue_wait_us", "us", "lower"),
    // scatter-gather router: level B, and B − ΣC along the blocking path.
    def("sharded.handle_batch_us", "us", "lower"),
    def("sharded.self_us", "us", "lower"),
    def("sharded.stage_coverage_ratio", "ratio", "higher"),
    def("sharded.replies_lost", "count", "lower"),
    def("sharded.overhead_ratio", "ratio", "lower"),
    def("server.handle_batch_us", "us", "lower"),
    // neighbor cache.
    def("cache.get_many_us", "us", "lower"),
    def("cache.insert_many_us", "us", "lower"),
    def("cache.hit_ratio", "ratio", "higher"),
    def("cache.evictions", "count", "lower"),
    def("cache.admissions_rejected", "count", "lower"),
    def("cache.entries", "count", "higher"),
    // graph.
    def("graph.neutral_topk_us", "us", "lower"),
    def("graph.snapshot_read_ms", "ms", "lower"),
    def("graph.snapshot_bytes", "bytes", "lower"),
    // frozen model.
    def("model.embed_requests_us", "us", "lower"),
    def("model.embed_us_per_query", "us", "lower"),
    def("model.freeze_s", "s", "lower"),
    // retrieval backend.
    def("backend.search_batch_us", "us", "lower"),
    def("backend.search_us_per_query", "us", "lower"),
    def("backend.candidates_scored_per_query", "count", "lower"),
    def("backend.lists_probed_per_query", "count", "lower"),
    def("backend.quant.scored_i8_per_query", "count", "lower"),
    def("backend.quant.reranked_per_query", "count", "lower"),
    def("backend.build_s", "s", "lower"),
    def("backend.store_bytes", "bytes", "lower"),
    def("topk.top_k_desc_us", "us", "lower"),
    // shared kernels.
    def("tensor.dot_ns", "ns", "lower"),
    def("tensor.dot_i8_ns", "ns", "lower"),
    def("tensor.matmul_bias_embed_us", "us", "lower"),
    def("tensor.matmul_bias_train_us", "us", "lower"),
    def("brownout.degraded_batches", "count", "lower"),
    // load generator: validity of the open-loop latencies.
    def("loadgen.lateness_p99_ms", "ms", "lower"),
    def("loadgen.offered_fps", "1/s", "higher"),
    def("loadgen.achieved_fps", "1/s", "higher"),
    def("data.generate_s", "s", "lower"),
    // training (train_roi only).
    def("sampler.build_roi_us", "us", "lower"),
    def("sampler.roi_nodes", "count", "lower"),
    def("model.forward_us", "us", "lower"),
    def("autograd.backward_optim_us", "us", "lower"),
    def("train.step_us", "us", "lower"),
    // The issue's end-to-end names that cannot carry a relative bound:
    // p99 of sub-millisecond frames on this shared two-vCPU guest is set by
    // the hypervisor (it spreads 30–75 % run to run with the code unchanged),
    // and the others read 0 on a healthy run or on the workloads they do not
    // apply to. Their bounded forms are p90_ms, ok_share, full_quality_share,
    // quality and throughput_rps.
    def("p99_ms", "ms", "lower"),
    def("failed_share", "ratio", "lower"),
    def("degraded_share", "ratio", "lower"),
    def("recall_at_10", "ratio", "higher"),
    def("train_examples_per_s", "1/s", "higher"),
    def("train_auc", "ratio", "higher"),
    def("bench.trace_overhead_ratio", "ratio", "higher"),
];

/// Values measured by one run, keyed by table name.
#[derive(Default)]
pub struct Metrics(BTreeMap<&'static str, f64>);

impl Metrics {
    pub fn set(&mut self, name: &'static str, value: f64) {
        debug_assert!(
            END_TO_END.iter().chain(PER_LAYER).any(|d| d.name == name),
            "metric {name} is in neither table"
        );
        self.0.insert(name, value);
    }

    pub fn get(&self, name: &str) -> f64 {
        self.0.get(name).copied().unwrap_or(0.0)
    }

    /// `{"name": {"value": v, "unit": u}, …}` for every metric of `table`,
    /// in table order; a metric the run did not set reads 0.
    pub fn to_json(&self, table: &[MetricDef]) -> Value {
        let mut out = Map::new();
        for d in table {
            out.insert(d.name.to_string(), json!({"value": self.get(d.name), "unit": d.unit}));
        }
        Value::Object(out)
    }
}

/// The result line: the last line of standard output.
pub fn result_line(correct: bool, attempted: u64, failed: u64, metrics: Value) -> String {
    compact(&json!({
        "correct": correct,
        "attempted": attempted.max(1),
        "failed": failed,
        "metrics": metrics,
    }))
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::json::ValueExt;

    #[test]
    fn names_are_unique_and_well_formed() {
        let mut seen = std::collections::BTreeSet::new();
        for d in END_TO_END.iter().chain(PER_LAYER) {
            assert!(seen.insert(d.name), "duplicate metric {}", d.name);
            assert!(d.name.len() <= 64 && d.name.starts_with(|c: char| c.is_ascii_alphanumeric()));
            assert!(d.name.chars().all(|c| c.is_ascii_alphanumeric() || "_.-".contains(c)));
            assert!(d.unit.len() <= 16 && matches!(d.better, "lower" | "higher"));
        }
        assert!(END_TO_END.iter().any(|d| d.name == "setup_s" && d.unit == "s"));
    }

    #[test]
    fn result_line_lists_every_metric_of_the_table() {
        let mut m = Metrics::default();
        m.set("p50_ms", 1.25);
        let line = result_line(true, 10, 0, m.to_json(END_TO_END));
        let parsed = crate::json::parse(&line).expect("result line parses");
        let metrics = parsed.get("metrics").expect("metrics");
        assert_eq!(metrics.entries().len(), END_TO_END.len());
        assert_eq!(metrics.get("p50_ms").and_then(|m| m.get("value")), Some(&json!(1.25)));
        assert_eq!(parsed.get("attempted"), Some(&json!(10u64)));
        assert!(line.contains("\"attempted\":10,"), "{line}");
    }
}
