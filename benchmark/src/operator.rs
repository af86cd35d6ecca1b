//! `op_sparse_16k` and `op_capped_8k`: the SampleAttention operator alone.
//!
//! One operation is one pass: `SampleAttention::forward` over the head set,
//! one head after the other from the main thread, so the pool parallelism
//! is the kernel's own (over query blocks). The two workloads run the same
//! code on head slots whose regime does not depend on the prompt: local and
//! sink slots, which stay sparse, against the wide-local and dispersed
//! slots, which always end at the schedule's 0.8 candidate where discovery
//! buys nothing. Retrieval slots flip between the two with the prompt's
//! content, so they are left to `request_niah_4k`.

use sa_core::{
    filter_kv_indices, merge_mask_with_diagonals, sample_attention_scores, select_tile_size,
    KvRatioSchedule, SampleAttention, SampleAttentionConfig, SampleAttentionStats, TilePolicy,
};
use sa_json::Json;
use sa_kernels::{
    flash_attention, sparse_flash_attention, sparse_flash_attention_tiled, FlashParams, TiledMask,
};
use sa_model::{ModelConfig, SyntheticTransformer};
use sa_perf::attention_cost::{flash_cost, sample_attention_cost};
use sa_perf::{kernel_time, HardwareModel, Precision};
use sa_tensor::{DeterministicRng, Matrix};

use crate::probes;
use crate::request::needle_tasks;
use crate::run::{measured_loop, Recorder, RunOpts, RunOutcome, Size, Workload, MODEL_SEED};
use crate::spans::Tracer;
use crate::stats::median;

/// The layer whose heads the operator workloads project.
const LAYER: usize = 2;
/// Query rows per head checked against the exact dense reference.
const REFERENCE_ROWS: usize = 48;
/// Largest `|SampleAttention - dense|` accepted on a reference row. At
/// alpha = 0.95 the operator may drop 5 % of a row's attention mass:
/// measured errors on these heads stay below 0.05 at full length (0.18 on
/// the 256-token miniature), while a head that lost its window or a stripe
/// is off by the size of the values themselves, O(1).
const MAX_ABS_ERR: f64 = 0.25;
/// `kv_ratio` from which a head counts as capped: the schedule's 0.8
/// candidate or beyond, where the mask is all but dense.
const CAPPED_KV_RATIO: f32 = 0.79;

struct Shape {
    seq_len: usize,
    heads: &'static [usize],
}

fn shape(workload: Workload, size: Size) -> Shape {
    let (seq_len, heads): (usize, &'static [usize]) = match workload {
        Workload::OpSparse16k => (16_384, &[0, 1, 3]),
        Workload::OpCapped8k => (8_192, &[5, 7]),
        other => unreachable!("{} is not an operator workload", other.name()),
    };
    Shape {
        seq_len: if size == Size::Full { seq_len } else { 256 },
        heads,
    }
}

struct Head {
    slot: usize,
    q: Matrix,
    k: Matrix,
    v: Matrix,
    /// `(row, exact dense attention output of that row)`.
    reference: Vec<(usize, Vec<f64>)>,
}

struct Inputs {
    heads: Vec<Head>,
    generate_ms: f64,
}

fn setup(tr: &mut Tracer, seed: u64, shape: &Shape) -> Inputs {
    let model = SyntheticTransformer::new(ModelConfig::chatglm2_like(MODEL_SEED))
        .expect("preset config is valid");
    let (tasks, generate_ms) = tr.time("workloads.generate", || {
        needle_tasks(&model, seed, shape.seq_len)
    });
    let embed = model.embedder().embed(&tasks[0].tokens);
    let mut rng = DeterministicRng::new(seed ^ 0x726f_7773);
    let heads: Vec<Head> = shape
        .heads
        .iter()
        .map(|&slot| {
            let (q, k, v) = model.layers()[LAYER]
                .project_head(&embed, slot)
                .expect("embedder output fits the layer");
            // The last row, plus rows spread over the sequence.
            let mut rows = rng.distinct_indices(q.rows() - 1, REFERENCE_ROWS.min(q.rows() - 1) - 1);
            rows.push(q.rows() - 1);
            let reference = rows
                .into_iter()
                .map(|i| (i, dense_row(&q, &k, &v, i)))
                .collect();
            Head {
                slot,
                q,
                k,
                v,
                reference,
            }
        })
        .collect();
    // Finish any lazy set-up inside the crates before the first timed pass.
    let head = &heads[0];
    let rows = head.q.rows().min(256);
    let slice = |m: &Matrix| m.slice_rows(0, rows).expect("slice within the matrix");
    SampleAttention::new(SampleAttentionConfig::paper_default())
        .forward(&slice(&head.q), &slice(&head.k), &slice(&head.v))
        .expect("warm-up forward");
    Inputs { heads, generate_ms }
}

/// Exact causal attention output of query row `i`, in f64.
fn dense_row(q: &Matrix, k: &Matrix, v: &Matrix, i: usize) -> Vec<f64> {
    let scale = 1.0 / (q.cols() as f64).sqrt();
    let scores: Vec<f64> = (0..=i)
        .map(|j| {
            scale
                * q.row(i)
                    .iter()
                    .zip(k.row(j))
                    .map(|(&a, &b)| f64::from(a) * f64::from(b))
                    .sum::<f64>()
        })
        .collect();
    let max = scores.iter().copied().fold(f64::NEG_INFINITY, f64::max);
    let weights: Vec<f64> = scores.iter().map(|s| (s - max).exp()).collect();
    let total: f64 = weights.iter().sum();
    let mut out = vec![0.0; v.cols()];
    for (j, w) in weights.iter().enumerate() {
        for (o, &x) in out.iter_mut().zip(v.row(j)) {
            *o += w / total * f64::from(x);
        }
    }
    out
}

fn max_abs_err(output: &Matrix, reference: &[(usize, Vec<f64>)]) -> f64 {
    reference
        .iter()
        .flat_map(|(i, want)| {
            output
                .row(*i)
                .iter()
                .zip(want)
                .map(|(&got, &w)| (f64::from(got) - w).abs())
        })
        .fold(0.0, f64::max)
}

/// What one pass over the head set measured.
struct Pass {
    wall_ms: f64,
    forward_ms: Vec<f64>,
    stats: Vec<SampleAttentionStats>,
    max_abs_err: f64,
}

/// One operation: forward over every head, with the output checks.
fn pass(rec: &mut Recorder, sa: &SampleAttention, heads: &[Head]) -> Pass {
    rec.tr.next_op();
    let open = rec.tr.open("bench.op");
    let mut problems = Vec::new();
    let mut out = Pass {
        wall_ms: 0.0,
        forward_ms: Vec::new(),
        stats: Vec::new(),
        max_abs_err: 0.0,
    };
    for head in heads {
        let (result, ms) = rec
            .tr
            .time("core.forward", || sa.forward(&head.q, &head.k, &head.v));
        out.forward_ms.push(ms);
        match result {
            Ok(result) => {
                let err = max_abs_err(&result.output, &head.reference);
                out.max_abs_err = out.max_abs_err.max(err);
                if !result.stats.alpha_satisfied {
                    problems.push(format!("head {}: alpha not satisfied", head.slot));
                }
                if result.stats.fell_back() {
                    problems.push(format!(
                        "head {}: fell back ({:?})",
                        head.slot, result.stats.fallback_reason
                    ));
                }
                if err > MAX_ABS_ERR {
                    problems.push(format!(
                        "head {}: max abs error {err} above {MAX_ABS_ERR}",
                        head.slot
                    ));
                }
                out.stats.push(result.stats);
            }
            Err(e) => problems.push(format!("head {}: forward failed: {e}", head.slot)),
        }
    }
    out.wall_ms = rec.tr.close(open);
    rec.tr.end_ops();
    rec.operation(problems);
    out
}

pub fn run(opts: &RunOpts) -> RunOutcome {
    let shape = shape(opts.workload, opts.size);
    let mut rec = Recorder::new(opts);
    let inputs = rec.timed_setup(|tr| setup(tr, opts.seed, &shape));
    let sa = SampleAttention::new(SampleAttentionConfig::paper_default());
    rec.fact("seq_len", Json::Int(shape.seq_len as i64));
    rec.fact("layer", Json::Int(LAYER as i64));
    rec.fact(
        "head_slots",
        Json::Array(shape.heads.iter().map(|&h| Json::Int(h as i64)).collect()),
    );

    let layers = opts
        .traced
        .then(|| layer_probes(&mut rec, opts, &sa, &inputs));
    if !opts.traced {
        // One pass outside the timings (checked and counted like the rest)
        // lets buffers and page tables reach steady state.
        let warm = pass(&mut rec, &sa, &inputs.heads);
        rec.fact("warmup_pass_ms", Json::Float(warm.wall_ms));
    }
    let mut passes = Vec::new();
    let budget = if opts.traced {
        opts.seconds / 4.0
    } else {
        opts.seconds
    };
    measured_loop(budget, if opts.traced { 1 } else { 2 }, || {
        passes.push(pass(&mut rec, &sa, &inputs.heads))
    });
    rec.fact("passes", Json::Int(passes.len() as i64));

    let pass_ms: Vec<f64> = passes.iter().map(|p| p.wall_ms).collect();
    let forward_ms: Vec<f64> = passes
        .iter()
        .flat_map(|p| p.forward_ms.iter().copied())
        .collect();
    if let Some(layers) = layers {
        layers.record(&mut rec, &passes, &inputs, shape.seq_len);
    } else {
        drop(inputs);
        let step = (median(&forward_ms), forward_ms.len());
        rec.end_to_end(&pass_ms, step, |tr| setup(tr, opts.seed, &shape));
    }
    rec.finish()
}

/// Per-head-set timings of the pieces `forward` is made of, each called
/// on its own on the workload's inputs.
struct LayerProbes {
    ceilings: probes::HostCeilings,
    flash_ms: f64,
    discover_ms: f64,
    stage1_ms: f64,
    stage2_ms: f64,
    merge_ms: f64,
    mask_build_ms: f64,
    tiled_ms: f64,
    rowmajor_ms: f64,
    nnz: u64,
    sparse_flops: u64,
    tiled_bytes: u64,
    sparse_intensity: f64,
}

fn layer_probes(
    rec: &mut Recorder,
    opts: &RunOpts,
    sa: &SampleAttention,
    inputs: &Inputs,
) -> LayerProbes {
    let (ceilings, sizes) = probes::run(
        &mut rec.tr,
        opts.seed,
        opts.size.probe_shape(),
        &mut rec.metrics,
    );
    rec.fact("probe_sizes", sizes);
    let cfg = *sa.config();
    let schedule = KvRatioSchedule::paper_coarse();
    // Dense attention costs the same on every head of one length: time it
    // on the first head and count it once per head.
    let first = &inputs.heads[0];
    let (flash, flash_one_ms) = rec.tr.time("kernels.flash", || {
        flash_attention(&first.q, &first.k, &first.v, true, FlashParams::default())
    });
    flash.expect("dense reference kernel");
    let mut p = LayerProbes {
        ceilings,
        flash_ms: flash_one_ms * inputs.heads.len() as f64,
        discover_ms: 0.0,
        stage1_ms: 0.0,
        stage2_ms: 0.0,
        merge_ms: 0.0,
        mask_build_ms: 0.0,
        tiled_ms: 0.0,
        rowmajor_ms: 0.0,
        nnz: 0,
        sparse_flops: 0,
        tiled_bytes: 0,
        sparse_intensity: 0.0,
    };
    let mut sparse_bytes = 0u64;
    for head in &inputs.heads {
        let (found, ms) = rec
            .tr
            .time("core.discover", || sa.discover_mask(&head.q, &head.k));
        let found = found.expect("discovery on healthy inputs");
        p.discover_ms += ms;

        // The same three stages, called one by one as `discover_mask` does.
        let parts = rec.tr.open("bench.discover_parts");
        let (sampled, ms) = rec.tr.time("core.stage1", || {
            sample_attention_scores(&head.q, &head.k, cfg.effective_sample_ratio(head.q.rows()))
        });
        let sampled = sampled.expect("stage 1");
        p.stage1_ms += ms;
        let (filtered, ms) = rec.tr.time("core.stage2", || {
            filter_kv_indices(
                &sampled.column_scores,
                cfg.cra_threshold,
                cfg.max_kv_ratio,
                &schedule,
            )
        });
        let filtered = filtered.expect("stage 2");
        p.stage2_ms += ms;
        let (mask, ms) = rec.tr.time("core.merge", || {
            merge_mask_with_diagonals(head.q.rows(), head.k.rows(), &filtered.indices, &[], &cfg)
        });
        let mask = mask.expect("mask merge");
        p.merge_ms += ms;
        rec.tr.close(parts);
        assert_eq!(
            mask.nnz(),
            found.mask.nnz(),
            "the staged discovery must find the same mask"
        );

        let (tiled, ms) = rec.tr.time("kernels.tiled_mask_build", || {
            let tile = select_tile_size(&TilePolicy::default(), &mask)
                .expect("tile choice")
                .tile;
            TiledMask::build(mask.clone(), tile)
        });
        let tiled = tiled.expect("tiled layout");
        p.mask_build_ms += ms;
        let (out, ms) = rec.tr.time("kernels.sparse_tiled", || {
            sparse_flash_attention_tiled(&head.q, &head.k, &head.v, &tiled)
        });
        let out = out.expect("tiled kernel");
        p.tiled_ms += ms;
        let (row, ms) = rec.tr.time("kernels.sparse_rowmajor", || {
            sparse_flash_attention(&head.q, &head.k, &head.v, &mask)
        });
        row.expect("row-major kernel");
        p.rowmajor_ms += ms;

        p.nnz += mask.nnz() as u64;
        p.sparse_flops += out.cost.flops;
        sparse_bytes += out.cost.bytes_total();
        let traffic = tiled.traffic();
        let row_bytes = 4 * (head.k.cols() + head.v.cols()) as u64;
        p.tiled_bytes += (traffic.full_rows + traffic.partial_rows) * row_bytes
            + traffic.bitmap_words * 8
            + traffic.span_entries * 4;
    }
    p.sparse_intensity = p.sparse_flops as f64 / sparse_bytes.max(1) as f64;
    p
}

impl LayerProbes {
    fn record(&self, rec: &mut Recorder, passes: &[Pass], inputs: &Inputs, seq_len: usize) {
        let heads = inputs.heads.len();
        let m = &mut rec.metrics;
        let pass_ms: Vec<f64> = passes.iter().map(|p| p.wall_ms).collect();
        let forward_ms = median(&pass_ms);
        m.set("kernels.flash_ms_p50", self.flash_ms, 1);
        m.set("kernels.sparse_rowmajor_ms_p50", self.rowmajor_ms, 1);
        m.set("kernels.sparse_tiled_ms_p50", self.tiled_ms, 1);
        m.set("kernels.tiled_mask_build_ms_p50", self.mask_build_ms, 1);
        m.set("kernels.mask_nnz", self.nnz as f64, heads);
        // Computed from the kernel's own FLOP count and the tile layout's
        // K/V row loads, not measured by a counter.
        let sparse_gflops = self.sparse_flops as f64 / (self.tiled_ms * 1e6);
        m.set("kernels.sparse_gflops", sparse_gflops, 1);
        m.set(
            "kernels.sparse_computed_gbps",
            self.tiled_bytes as f64 / (self.tiled_ms * 1e6),
            1,
        );
        let roof = self
            .ceilings
            .fma_gflops
            .min(self.ceilings.stream_gbps * self.sparse_intensity);
        m.set("kernels.roofline_share", sparse_gflops / roof, 1);

        m.set("core.stage1_ms_p50", self.stage1_ms, 1);
        m.set("core.stage2_ms_p50", self.stage2_ms, 1);
        m.set("core.merge_ms_p50", self.merge_ms, 1);
        m.set("core.discover_ms_p50", self.discover_ms, 1);
        m.set("core.forward_ms_p50", forward_ms, pass_ms.len());
        m.set(
            "core.forward_other_ms_p50",
            forward_ms - self.discover_ms - self.tiled_ms,
            1,
        );
        m.set("core.discovery_share", self.discover_ms / forward_ms, 1);
        let speedup = self.flash_ms / forward_ms;
        m.set("core.speedup_vs_flash", speedup, 1);

        let last = passes.last().expect("at least one pass ran");
        let stats = &last.stats;
        let mean = |f: &dyn Fn(&SampleAttentionStats) -> f64| {
            stats.iter().map(f).sum::<f64>() / stats.len().max(1) as f64
        };
        let count = |f: &dyn Fn(&SampleAttentionStats) -> bool| {
            stats.iter().filter(|s| f(s)).count() as f64
        };
        m.set(
            "kernels.mask_density_mean",
            mean(&|s| s.mask_density),
            stats.len(),
        );
        m.set(
            "core.kv_ratio_mean",
            mean(&|s| f64::from(s.kv_ratio)),
            stats.len(),
        );
        m.set(
            "core.capped_heads",
            count(&|s| s.kv_ratio >= CAPPED_KV_RATIO),
            stats.len(),
        );
        m.set(
            "core.alpha_miss_heads",
            count(&|s| !s.alpha_satisfied),
            stats.len(),
        );
        m.set(
            "core.fallback_heads",
            count(&|s| s.fell_back()),
            stats.len(),
        );
        m.set("core.tile_size", mean(&|s| s.tile_size as f64), stats.len());
        let err = passes.iter().map(|p| p.max_abs_err).fold(0.0, f64::max);
        m.set("core.attn_out_max_abs_err", err, passes.len() * heads);
        m.set("workloads.generate_ms", inputs.generate_ms, 1);

        // sa-perf's A100 roofline at the measured densities, against the
        // speed-up measured on this host: modelled versus measured.
        let hw = HardwareModel::a100_80gb();
        let d = inputs.heads[0].q.cols();
        let time = |cost| kernel_time(&cost, &hw, Precision::Fp16);
        let flash_s =
            heads as f64 * time(flash_cost(seq_len, d, FlashParams::default().block_rows));
        let cfg = SampleAttentionConfig::paper_default();
        let ratio = f64::from(cfg.effective_sample_ratio(seq_len));
        let sa_s: f64 = stats
            .iter()
            .map(|s| time(sample_attention_cost(seq_len, d, s.mask_density, ratio)))
            .sum();
        if sa_s > 0.0 {
            m.set(
                "perf.model_speedup_err",
                (flash_s / sa_s - speedup).abs() / speedup,
                1,
            );
        }
    }
}
