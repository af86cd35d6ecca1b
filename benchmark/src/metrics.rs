//! The metric names this benchmark prints. They mirror `BENCHMARK.json`
//! (a test holds the two equal); later issues cite metrics by these names.

use std::collections::BTreeMap;

use sa_json::Json;

/// `(name, unit)` of every end-to-end metric, printed by an untraced run.
pub const END_TO_END: &[(&str, &str)] = &[
    ("setup_s", "s"),
    ("op_ms_p50", "ms"),
    ("step_ms_p50", "ms"),
    ("peak_rss_mb", "MB"),
];

/// `(name, unit)` of every per-layer metric, printed by a traced run. A
/// metric reads 0 with 0 samples on a workload that does not measure it.
pub const PER_LAYER: &[(&str, &str)] = &[
    // sa-tensor primitives on fixed shapes, and the host's own ceilings.
    ("tensor.matmul_transb_gflops", "GFLOP/s"),
    ("tensor.softmax_rows_gbps", "GB/s"),
    ("tensor.col_sum_gbps", "GB/s"),
    ("tensor.tilepack_gather_gbps", "GB/s"),
    ("tensor.pool_dispatch_us_p50", "us"),
    ("host.stream_gbps", "GB/s"),
    ("host.fma_gflops", "GFLOP/s"),
    // sa-kernels, summed over the workload's head set.
    ("kernels.flash_ms_p50", "ms"),
    ("kernels.sparse_rowmajor_ms_p50", "ms"),
    ("kernels.sparse_tiled_ms_p50", "ms"),
    ("kernels.tiled_mask_build_ms_p50", "ms"),
    ("kernels.mask_density_mean", "share"),
    ("kernels.mask_nnz", "count"),
    ("kernels.sparse_gflops", "GFLOP/s"),
    ("kernels.sparse_computed_gbps", "GB/s"),
    ("kernels.roofline_share", "share"),
    // sa-core: the SampleAttention stages.
    ("core.stage1_ms_p50", "ms"),
    ("core.stage2_ms_p50", "ms"),
    ("core.merge_ms_p50", "ms"),
    ("core.discover_ms_p50", "ms"),
    ("core.forward_ms_p50", "ms"),
    ("core.forward_other_ms_p50", "ms"),
    ("core.discovery_share", "share"),
    ("core.speedup_vs_flash", "ratio"),
    ("core.kv_ratio_mean", "share"),
    ("core.capped_heads", "count"),
    ("core.alpha_miss_heads", "count"),
    ("core.fallback_heads", "count"),
    ("core.tile_size", "count"),
    ("core.attn_out_max_abs_err", "abs"),
    // sa-model: prefill and decode.
    ("model.prefill_ms_p50", "ms"),
    ("model.prefill_dense_ms_p50", "ms"),
    ("model.speedup_vs_dense", "ratio"),
    ("model.prefill_floor_ms_p50", "ms"),
    ("model.attention_share", "share"),
    ("model.layer0_ms_p50", "ms"),
    ("model.layer_rest_ms_p50", "ms"),
    ("model.chunked_prefill_ms_p50", "ms"),
    ("model.decode_step_ms_p50", "ms"),
    ("model.decode_step_ms_p95", "ms"),
    ("model.prefill_tokens_per_s", "1/s"),
    ("model.mean_density", "share"),
    ("model.fallback_heads", "count"),
    ("model.kv_cache_mb", "MB"),
    ("model.answer_match_share", "share"),
    // sa-serve: planner, execution and the virtual-clock outcome counts.
    ("serve.plan_ms_p50", "ms"),
    ("serve.execute_ms_p50", "ms"),
    ("serve.plan_share", "share"),
    ("serve.requests_per_wall_s", "1/s"),
    ("serve.wall_ms_per_virtual_s", "ms/s"),
    ("serve.ledger_json_ms_p50", "ms"),
    ("serve.requests", "count"),
    ("serve.served", "count"),
    ("serve.shed", "count"),
    ("serve.cancelled", "count"),
    ("serve.deadline_exceeded", "count"),
    ("serve.failed", "count"),
    ("serve.retries", "count"),
    ("serve.recovered_attempts", "count"),
    ("serve.canary_probes", "count"),
    ("serve.events", "count"),
    ("serve.ttft_virtual_ms_p50", "ms"),
    ("serve.ttft_virtual_ms_p99", "ms"),
    ("serve.tpot_virtual_ms_p50", "ms"),
    ("serve.goodput_virtual_rps", "1/s"),
    ("serve.goodput_share", "share"),
    // Observer cost: sa-trace on vs off, and the harness's own spans.
    ("trace.overhead_share_prefill", "share"),
    ("trace.overhead_share_serve", "share"),
    ("bench.trace_overhead_share", "share"),
    // Input generation, and sa-perf's model against measurement.
    ("workloads.generate_ms", "ms"),
    ("perf.model_speedup_err", "share"),
];

/// Values measured by one run, checked against a name table on insert.
#[derive(Debug)]
pub struct MetricSet {
    table: &'static [(&'static str, &'static str)],
    values: BTreeMap<&'static str, (f64, usize)>,
}

impl MetricSet {
    pub fn new(table: &'static [(&'static str, &'static str)]) -> Self {
        MetricSet {
            table,
            values: BTreeMap::new(),
        }
    }

    /// Records `value`, taken over `samples` samples.
    ///
    /// # Panics
    ///
    /// Panics on a name outside the table, a repeated name, or a value
    /// that is not finite: each is a bug in the harness.
    pub fn set(&mut self, name: &'static str, value: f64, samples: usize) {
        assert!(
            self.table.iter().any(|(n, _)| *n == name),
            "metric {name} is not in the name table"
        );
        assert!(value.is_finite(), "metric {name} is not finite: {value}");
        let previous = self.values.insert(name, (value, samples));
        assert!(previous.is_none(), "metric {name} set twice");
    }

    /// Every metric of the table, in table order, as
    /// `(name, unit, value, samples)`; unmeasured ones read 0 with 0 samples.
    pub fn rows(&self) -> Vec<(&'static str, &'static str, f64, usize)> {
        self.table
            .iter()
            .map(|&(name, unit)| {
                let (value, samples) = self.values.get(name).copied().unwrap_or((0.0, 0));
                (name, unit, value, samples)
            })
            .collect()
    }

    /// The `metrics` object of the result line.
    pub fn to_json(&self) -> Json {
        Json::Object(
            self.rows()
                .into_iter()
                .map(|(name, unit, value, _)| {
                    (
                        name.to_string(),
                        Json::Object(vec![
                            ("value".to_string(), Json::Float(value)),
                            ("unit".to_string(), Json::Str(unit.to_string())),
                        ]),
                    )
                })
                .collect(),
        )
    }

    /// `{name: samples}` for the run record.
    pub fn samples_json(&self) -> Json {
        Json::Object(
            self.rows()
                .into_iter()
                .map(|(name, _, _, samples)| (name.to_string(), Json::Int(samples as i64)))
                .collect(),
        )
    }
}
