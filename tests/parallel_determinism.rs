//! Parallel-determinism equivalence suite.
//!
//! The worker pool's contract (see `sa_tensor::pool`) is that every
//! parallelised hot path is **bit-identical** to the serial execution:
//! work is partitioned only across independent rows/heads/columns and
//! any reduction folds in a thread-count-independent order. These tests
//! pin that contract by running each pipeline stage under a thread count
//! of 1, 2, and the session default (`pool::with_threads` is the
//! in-process equivalent of setting `SA_THREADS`) and asserting exact
//! `==` on the f32 outputs — no tolerances.

use sa_baselines::{
    finish_heads, AttentionMethod, FullAttention, GroupKeys, HeadPlan, MethodOutput, SampleAttentionMethod,
    WindowOnly,
};
use sa_core::filtering::{filter_kv_indices, KvRatioSchedule};
use sa_core::sampling::{sample_attention_scores, sample_attention_scores_prepared};
use sa_core::{SampleAttention, SampleAttentionConfig};
use sa_kernels::{
    flash_attention, full_attention, score_scale, CostReport, sparse_flash_attention, FlashParams, KeyPanels,
    StructuredMask,
};
use sa_model::{LayerKvCache, ModelConfig, PrefillResult, SyntheticTransformer};
use sa_tensor::pool::with_threads;
use sa_tensor::{
    col_sum, fma, matmul, matmul_packed, matmul_packed_parts, matmul_transb, softmax_row,
    softmax_rows_in_place, DeterministicRng, Matrix, PackedWeights, SaError, StrideSample,
};

fn qkv(s: usize, d: usize, seed: u64) -> (Matrix, Matrix, Matrix) {
    let mut rng = DeterministicRng::new(seed);
    (
        rng.normal_matrix(s, d, 1.0),
        rng.normal_matrix(s, d, 1.0),
        rng.normal_matrix(s, d, 1.0),
    )
}

/// Runs `f` serially, at 2 threads, at 3 threads, and at the session
/// default, asserting every result is bitwise equal to the serial one.
fn assert_thread_invariant<T: PartialEq + std::fmt::Debug>(label: &str, f: impl Fn() -> T) {
    let serial = with_threads(1, &f);
    for threads in [2usize, 3] {
        let parallel = with_threads(threads, &f);
        assert_eq!(serial, parallel, "{label}: threads=1 vs threads={threads}");
    }
    let default = f();
    assert_eq!(serial, default, "{label}: threads=1 vs session default");
}

#[test]
fn tensor_primitives_are_thread_invariant() {
    let mut rng = DeterministicRng::new(0xA11);
    let a = rng.normal_matrix(150, 96, 1.0);
    let b = rng.normal_matrix(96, 130, 1.0);
    let c = rng.normal_matrix(140, 96, 1.0);
    assert_thread_invariant("matmul", || matmul(&a, &b).unwrap());
    assert_thread_invariant("matmul_transb", || matmul_transb(&a, &c).unwrap());
    assert_thread_invariant("col_sum", || col_sum(&a));
    assert_thread_invariant("softmax_rows_in_place", || {
        let mut m = a.clone();
        softmax_rows_in_place(&mut m);
        m
    });
}

#[test]
fn packed_gemm_is_thread_invariant_and_equals_scalar_matmul() {
    // The packed GEMM partitions output rows in whole 64-row blocks: 300
    // rows are four blocks and a partial one, so 2, 3 and 5 workers each
    // split them unevenly; 64 and 33 rows never leave the caller's thread.
    // Every count must give the bits of the scalar oracle.
    let mut rng = DeterministicRng::new(0xB16);
    let (wk, wv) = (rng.normal_matrix(108, 64, 1.0), rng.normal_matrix(108, 64, 1.0));
    let w_down = rng.normal_matrix(216, 108, 1.0);
    let kv = PackedWeights::pack(&[&wk, &wv]).unwrap();
    let down = PackedWeights::pack(&[&w_down]).unwrap();
    let bits = |m: &Matrix| m.as_slice().iter().map(|x| x.to_bits()).collect::<Vec<_>>();
    for rows in [300, 64, 33] {
        let a = rng.normal_matrix(rows, 108, 1.0);
        let h = rng.normal_matrix(rows, 216, 1.0);
        let want = (
            bits(&matmul(&a, &wk).unwrap()),
            bits(&matmul(&a, &wv).unwrap()),
            bits(&matmul(&h, &w_down).unwrap()),
        );
        let run = || {
            let parts = matmul_packed_parts(&a, &kv, &[0..64, 64..128]).unwrap();
            (bits(&parts[0]), bits(&parts[1]), bits(&matmul_packed(&h, &down).unwrap()))
        };
        for threads in [1usize, 2, 3, 5] {
            assert_eq!(with_threads(threads, run), want, "{rows} rows at {threads} threads");
        }
        assert_eq!(run(), want, "{rows} rows at the session default");
        // Fused, each row is the key then the value.
        let fused = with_threads(3, || matmul_packed(&a, &kv).unwrap());
        for i in 0..rows {
            let row: Vec<u32> = fused.row(i).iter().map(|x| x.to_bits()).collect();
            assert_eq!(row[..64], want.0[i * 64..(i + 1) * 64]);
            assert_eq!(row[64..], want.1[i * 64..(i + 1) * 64]);
        }
    }
}

#[test]
fn flash_attention_is_thread_invariant() {
    let (q, k, v) = qkv(257, 32, 0xF1A);
    // Small tiles so several query blocks land in each chunk and the
    // chunk grain actually splits the work.
    let params = FlashParams {
        block_rows: 16,
        block_cols: 16,
    };
    assert_thread_invariant("flash_attention causal", || {
        flash_attention(&q, &k, &v, true, params).unwrap().output
    });
    assert_thread_invariant("flash_attention non-causal", || {
        flash_attention(&q, &k, &v, false, params).unwrap().output
    });
    assert_thread_invariant("full_attention", || {
        full_attention(&q, &k, &v, true).unwrap().output
    });
}

#[test]
fn sparse_flash_attention_is_thread_invariant() {
    let s = 256;
    let (q, k, v) = qkv(s, 32, 0x5FA);
    let mask = StructuredMask::builder(s, s)
        .window_ratio(0.1)
        .sinks(4)
        .columns((0..s / 32).map(|i| i * 29 % s).collect())
        .build()
        .unwrap();
    assert_thread_invariant("sparse_flash_attention", || {
        let out = sparse_flash_attention(&q, &k, &v, &mask).unwrap();
        // The live-pair tally feeds the cost model; it must also be
        // scheduling-independent.
        (out.output, out.cost.flops)
    });
}

#[test]
fn stage1_sampling_is_thread_invariant() {
    let (q, k, _) = qkv(300, 32, 0x5a1);
    assert_thread_invariant("sample_attention_scores", || {
        let s = sample_attention_scores(&q, &k, 0.1).unwrap();
        (s.column_scores, s.sampled_rows)
    });
}

/// Stage 1 as it was before it moved onto the key panels, kept as the
/// oracle: one strict-order scalar dot product of fused products per
/// (sampled row, visible key), a softmax per row, and the f64
/// column fold in sampled-row order. Returns the bits of `column_scores`.
fn scalar_stage1(q: &Matrix, k: &Matrix, sample_ratio: f32) -> Vec<u32> {
    let (s_q, s_k) = (q.rows(), k.rows());
    let scale = score_scale(q.cols());
    let mut column_acc = vec![0.0f64; s_k];
    for &i in StrideSample::by_ratio(s_q, sample_ratio).unwrap().indices() {
        let visible = (i + s_k + 1).saturating_sub(s_q).min(s_k);
        if visible == 0 {
            continue;
        }
        let mut probs: Vec<f32> = (0..visible)
            .map(|j| {
                let mut acc = 0.0f32;
                for (&a, &b) in q.row(i).iter().zip(k.row(j)) {
                    acc = fma(a, b, acc);
                }
                acc * scale
            })
            .collect();
        softmax_row(&mut probs);
        for (a, &p) in column_acc.iter_mut().zip(&probs) {
            *a += f64::from(p);
        }
    }
    column_acc.into_iter().map(|v| (v as f32).to_bits()).collect()
}

/// Stage 1 on the key panels (pairs of sampled rows through the engine's
/// score microkernel) produces the bits of the scalar row loop, whatever
/// the thread count: square and chunk-against-cache shapes, an odd number
/// of sampled rows (the last one scored alone), every row sampled, and
/// panels that were appended to rather than built at once.
#[test]
fn stage1_on_panels_matches_the_scalar_row_loop() {
    let bits = |xs: &[f32]| -> Vec<u32> { xs.iter().map(|x| x.to_bits()).collect() };
    // (s_q, s_k, ratio, sampled rows the stride sampler draws)
    let cases = [
        (300usize, 300usize, 0.1f32, 30usize),
        (200, 200, 0.085, 17),
        (32, 330, 0.5, 16),
        (7, 129, 1.0, 7),
        (97, 97, 1.0, 97),
        (140, 65, 0.2, 28),
    ];
    for (s_q, s_k, ratio, sampled) in cases {
        let mut rng = DeterministicRng::new(0x51a6e1 ^ (s_q * 1000 + s_k) as u64);
        let q = rng.normal_matrix(s_q, 24, 1.0);
        let k = rng.normal_matrix(s_k, 24, 1.0);
        let label = format!("s_q={s_q} s_k={s_k} ratio={ratio}");
        let oracle = scalar_stage1(&q, &k, ratio);
        // Resident panels, grown the way a cache grows them.
        let mut panels = KeyPanels::new(24);
        for start in (0..s_k).step_by(37) {
            panels
                .append(&k.slice_rows(start, (start + 37).min(s_k)).unwrap())
                .unwrap();
        }
        let run = || {
            let built = sample_attention_scores(&q, &k, ratio).unwrap();
            let resident =
                sample_attention_scores_prepared(&q, &panels, ratio)
                    .unwrap();
            assert_eq!(built.sampled_rows.len(), sampled, "{label}");
            assert_eq!(bits(&built.column_scores), bits(&resident.column_scores), "{label}");
            assert_eq!(built.cost, resident.cost, "{label}");
            bits(&resident.column_scores)
        };
        for threads in [1usize, 2, 3, 5] {
            assert_eq!(with_threads(threads, run), oracle, "{label} threads={threads}");
        }
        assert_eq!(run(), oracle, "{label} default threads");
    }
}

/// Graceful degradation must not cost determinism: for any seeded fault
/// mix — NaN stripes, `±inf` entries, zeroed rows, zero-mass sampled
/// scores, forced worker panics — the final attention output (including
/// the per-head dense-fallback path) and the recorded fallback reason
/// are bitwise identical across `SA_THREADS=1`, 2, 3, and the session
/// default. Reproduce a single case with `SA_PROP_SEED=<seed>`.
#[test]
fn seeded_fault_mixes_are_thread_invariant() {
    use sa_core::HealthPolicy;
    use sa_tensor::check::run_cases;
    use sa_tensor::fault::{self, FaultPlan};

    run_cases("faulty_pipeline_thread_invariance", |g| {
        let s = g.usize_in(96, 192);
        let (mut q, mut k, v) = qkv(s, 16, g.seed());
        let mut plan = FaultPlan::new(g.seed() ^ 0xFA17);
        if g.chance(0.4) {
            plan = plan.nan_stripes(g.usize_in(1, 3));
        }
        if g.chance(0.4) {
            plan = plan.inf_logits(g.usize_in(1, 4));
        }
        if g.chance(0.3) {
            plan = plan.zero_rows(g.usize_in(1, 3));
        }
        if g.chance(0.3) {
            plan = plan.zero_mass();
        }
        if g.chance(0.3) {
            plan = plan.worker_panic("sparse_flash_attention");
        }
        plan.corrupt_matrix(&mut q, 0);
        plan.corrupt_matrix(&mut k, 1);
        let _guard = fault::install(plan);
        let cfg = SampleAttentionConfig::builder()
            .health_policy(HealthPolicy::FallbackDense)
            .build()
            .unwrap();
        assert_thread_invariant("faulty pipeline", || {
            let out = SampleAttention::new(cfg)
                .forward(&q, &k, &v)
                .unwrap();
            assert!(
                out.output.as_slice().iter().all(|x| x.is_finite()),
                "non-finite output escaped (case seed {:#x})",
                g.seed()
            );
            (out.output, out.stats.fallback_reason)
        });
    });
}

/// Observability must be free of observer effects: with tracing enabled
/// the pipeline output is bitwise identical to the untraced run, at
/// `SA_THREADS=1` and at the session default. The traced run must still
/// record the full stage taxonomy — a trace that went silent would make
/// this test vacuous.
#[test]
fn tracing_does_not_perturb_pipeline_outputs() {
    let (q, k, v) = qkv(224, 32, 0x0071_2ace);
    let run = || {
        let attn = SampleAttention::new(SampleAttentionConfig::paper_default());
        let out = attn.forward(&q, &k, &v).unwrap();
        (out.output, out.stats.kv_ratio.to_bits())
    };
    let untraced = run();
    let untraced_serial = with_threads(1, run);
    assert_eq!(untraced, untraced_serial, "baseline thread invariance");

    let session = sa_trace::scoped();
    let traced = run();
    let traced_serial = with_threads(1, run);
    let events = sa_trace::drain();
    drop(session);

    assert_eq!(untraced, traced, "tracing on vs off at default threads");
    assert_eq!(untraced_serial, traced_serial, "tracing on vs off at SA_THREADS=1");
    for stage in ["stage1_sampling", "stage2_filtering", "mask_merge", "sparse_kernel"] {
        assert!(
            events.iter().any(|e| e.cat == "core" && e.name == stage),
            "traced run is missing core/{stage}"
        );
    }
}

/// The serving telemetry plane is emitted by the serial virtual-time
/// planner (and only reconciled against the executed ledger), so both
/// the `sa.events.v3` log and any timeline aggregation derived from it
/// must serialize byte-identically at every thread count, and so must
/// the ledger beside it, execution columns included.
#[test]
fn serving_telemetry_is_thread_invariant() {
    use sample_attention::json::{to_string, ToJson};
    use sample_attention::serve::{mixed_workload, Scheduler, ServeConfig};
    use sa_trace::Timeline;

    let cfg = ServeConfig {
        seed: 0x7E1E,
        max_pending: 3,
        ..ServeConfig::default()
    };
    let requests = mixed_workload(cfg.seed, 12);
    // The ledger's execution columns (checkpoints captured and restored)
    // are counted on the executing threads: they must not move either.
    assert_thread_invariant("serve ledger + event log + timeline", || {
        let scheduler = Scheduler::new(cfg.clone()).unwrap();
        let (ledger, log) = scheduler.run_continuous_with_events(&requests).unwrap();
        log.validate(&ledger).unwrap();
        let mut tl = Timeline::new(500);
        for ev in &log.events {
            tl.observe(&format!("{:?}", ev.kind), ev.t_ms, ev.mem_in_use);
        }
        let restores: u64 = ledger.records.iter().map(|r| r.checkpoint_restores).sum();
        assert!(restores > 0, "the workload must resume a checkpoint");
        (
            to_string(&ledger.to_json()),
            to_string(&log.to_json()),
            to_string(&tl.flush().to_json()),
        )
    });
}

#[test]
fn end_to_end_pipeline_is_thread_invariant() {
    let (q, k, v) = qkv(256, 32, 0xE2E);
    assert_thread_invariant("sample_attention e2e", || {
        let attn = SampleAttention::new(SampleAttentionConfig::paper_default());
        let out = attn.forward(&q, &k, &v).unwrap();
        (
            out.output,
            out.stats.kv_ratio.to_bits(),
            out.stats.covered_mass.to_bits(),
        )
    });
    // Stage 2 is serial but consumes stage-1 output; pin the combination.
    assert_thread_invariant("stage1+stage2", || {
        let sampled = sample_attention_scores(&q, &k, 0.05).unwrap();
        let filtered =
            filter_kv_indices(&sampled.column_scores, 0.95, 1.0, &KvRatioSchedule::Exact).unwrap();
        (filtered.indices, filtered.covered_mass.to_bits())
    });
}

/// A method whose heads take different paths: SampleAttention, dense and
/// window-only heads through their engine plans, and every fourth head
/// finished alone inside the plan fan-out.
struct MixedHeads {
    sparse: SampleAttentionMethod,
    dense: FullAttention,
    window: WindowOnly,
}

impl MixedHeads {
    fn pick(&self, layer: usize, head: usize) -> &dyn AttentionMethod {
        match (layer + head) % 3 {
            0 => &self.sparse,
            1 => &self.dense,
            _ => &self.window,
        }
    }
}

impl AttentionMethod for MixedHeads {
    fn name(&self) -> &str {
        "mixed"
    }

    fn forward(&self, q: &Matrix, k: &Matrix, v: &Matrix) -> Result<MethodOutput, SaError> {
        self.sparse.forward(q, k, v)
    }

    fn plan_head<'a>(
        &'a self,
        layer: usize,
        head: usize,
        q: Matrix,
        keys: &'a GroupKeys<'_>,
        v: &'a Matrix,
    ) -> Result<HeadPlan<'a>, SaError> {
        let plan = self.pick(layer, head).plan_head(layer, head, q, keys, v)?;
        if head % 4 == 3 {
            return finish_alone(plan).map(HeadPlan::Done);
        }
        Ok(plan)
    }
}

/// `plan` finished as an engine batch of one.
fn finish_alone(plan: HeadPlan<'_>) -> Result<MethodOutput, SaError> {
    finish_heads(vec![plan]).pop().expect("one output per plan")
}

/// Every head finished alone: each runs whole, one after another inside
/// the plan fan-out, as layers ran heads before the engine pass was
/// shared.
struct HeadByHead<'m>(&'m dyn AttentionMethod);

impl AttentionMethod for HeadByHead<'_> {
    fn name(&self) -> &str {
        "head-by-head"
    }

    fn forward(&self, q: &Matrix, k: &Matrix, v: &Matrix) -> Result<MethodOutput, SaError> {
        self.0.forward(q, k, v)
    }

    fn plan_head<'a>(
        &'a self,
        layer: usize,
        head: usize,
        q: Matrix,
        keys: &'a GroupKeys<'_>,
        v: &'a Matrix,
    ) -> Result<HeadPlan<'a>, SaError> {
        finish_alone(self.0.plan_head(layer, head, q, keys, v)?).map(HeadPlan::Done)
    }
}

/// The layers' shared engine pass — every planned head of a KV group cut
/// into live-pair-balanced (head, query-block) units — leaves exactly
/// the bits of running each head whole, at every thread count, for
/// whole-prompt and chunked prefill, healthy or with every sparse kernel
/// call failing into its dense fallback.
#[test]
fn a_layers_shared_engine_pass_equals_head_by_head_execution() {
    use sa_tensor::fault::{self, FaultPlan};

    let model = SyntheticTransformer::new(ModelConfig::tiny(0x5EED)).unwrap();
    let tokens = model.tokenize_filler(200);
    let mixed = MixedHeads {
        sparse: SampleAttentionMethod::paper_default(),
        dense: FullAttention::new(),
        window: WindowOnly::new(0.1).unwrap(),
    };
    let methods: [(&str, &dyn AttentionMethod); 2] = [("sample", &mixed.sparse), ("mixed", &mixed)];
    let bits = |m: &Matrix| m.as_slice().iter().map(|x| x.to_bits()).collect::<Vec<_>>();
    let summary = |r: &PrefillResult| {
        let heads: Vec<_> = r
            .head_reports
            .iter()
            .map(|h| (h.density.to_bits(), h.fell_back, h.fallback_reason, h.cost))
            .collect();
        (
            bits(&r.hidden),
            r.head_contents.iter().map(bits).collect::<Vec<_>>(),
            heads,
        )
    };
    // A chunked run keeps each head's newest row and the readout heads'
    // rows; every head's K and V in the caches cover the rest of it. In
    // its last layer a head it keeps one row of runs that row alone
    // through the shared pass, where the head-by-head reference, which
    // finishes every head inside its plan, runs all of them: those heads'
    // costs come apart from the rest, to be held to "no more".
    let last_layer = model.config().num_layers - 1;
    let chunked_summary = |(r, caches): &(PrefillResult, Vec<LayerKvCache>)| {
        let kv: Vec<_> = caches
            .iter()
            .flat_map(|c| (0..c.num_kv_heads()).map(|h| c.prepared(h)))
            .map(|(k, v)| (bits(&k.to_rows()), bits(v)))
            .collect();
        let (hidden, contents, mut heads) = summary(r);
        let mut cut_costs = Vec::new();
        for (head, (report, content)) in heads.iter_mut().zip(r.head_reports.iter().zip(&r.head_contents)) {
            if report.layer == last_layer && content.rows() == 1 {
                cut_costs.push(std::mem::take(&mut head.3));
            }
        }
        ((hidden, contents, heads), kv, cut_costs)
    };
    let no_more = |got: &[CostReport], want: &[CostReport]| {
        got.len() == want.len()
            && got.iter().zip(want).all(|(g, w)| {
                g.flops <= w.flops && g.bytes_read <= w.bytes_read && g.bytes_written <= w.bytes_written
            })
    };
    for faulty in [false, true] {
        let _guard = faulty
            .then(|| fault::install(FaultPlan::new(9).worker_panic("sparse_flash_attention")));
        // The window-only heads have no fallback: under the fault they fail.
        for &(name, method) in &methods[..if faulty { 1 } else { 2 }] {
            let want = with_threads(1, || model.prefill(&tokens, &HeadByHead(method)).unwrap());
            let want_chunked = with_threads(1, || {
                chunked_summary(&model.prefill_chunked(&tokens, 64, &HeadByHead(method)).unwrap())
            });
            if faulty {
                assert!(want.fallback_heads() > 0, "{name}: the fault never fired");
            }
            for threads in [1, 2, 3, 5] {
                let label = format!("{name}, faulty {faulty}, threads {threads}");
                let got = with_threads(threads, || model.prefill(&tokens, method).unwrap());
                assert!(summary(&got) == summary(&want), "{label}: prefill");
                let got = with_threads(threads, || {
                    chunked_summary(&model.prefill_chunked(&tokens, 64, method).unwrap())
                });
                assert!((&got.0, &got.1) == (&want_chunked.0, &want_chunked.1), "{label}: chunked");
                assert!(!got.2.is_empty(), "{label}: no head of the last layer keeps one row");
                assert!(no_more(&got.2, &want_chunked.2), "{label}: chunked, last layer's costs");
            }
        }
    }
}
