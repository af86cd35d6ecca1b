//! Fault-injection acceptance suite for the panic-free attention pipeline.
//!
//! Every fault class the harness can inject (`sa_tensor::fault`) must be
//! *contained*: the pipeline returns a typed [`SaError`] under
//! `HealthPolicy::Propagate`, or records a dense fallback with a fully
//! finite output under `HealthPolicy::FallbackDense`. A process panic or
//! a NaN escaping into the returned attention output is a failure of this
//! suite, whatever the fault mix.
//!
//! All corruption is seeded and deterministic, so failures replay
//! bit-identically. `scripts/verify.sh` runs this file twice — under
//! `SA_THREADS=1` and the session default — and once more with
//! `SA_FAULT=smoke`, which routes the canonical all-faults plan through
//! `sa_fault_env_plan_is_contained_end_to_end` below. A custom spec such
//! as `SA_FAULT=seed=9,nan=2,panic=sparse_flash_attention` works too.

use sample_attention::baselines::FullAttention;
use sample_attention::core::{
    select_tile_size, FallbackReason, HealthPolicy, SampleAttention, SampleAttentionConfig,
    SampleAttentionError, TilePolicy,
};
use sample_attention::kernels::{StructuredMask, MAX_TILE};
use sample_attention::json;
use sample_attention::kernels::{flash_attention, FlashParams};
use sample_attention::model::{ModelConfig, SyntheticTransformer};
use sample_attention::tensor::fault::{self, FaultPlan};
use sample_attention::tensor::{DeterministicRng, Matrix, SaError};

fn qkv(s: usize, d: usize, seed: u64) -> (Matrix, Matrix, Matrix) {
    let mut rng = DeterministicRng::new(seed);
    (
        rng.normal_matrix(s, d, 1.0),
        rng.normal_matrix(s, d, 1.0),
        rng.normal_matrix(s, d, 1.0),
    )
}

fn attn(policy: HealthPolicy) -> SampleAttention {
    let cfg = SampleAttentionConfig::builder()
        .health_policy(policy)
        .build()
        .expect("valid config");
    SampleAttention::new(cfg)
}

fn assert_all_finite(label: &str, m: &Matrix) {
    let bad = m.as_slice().iter().filter(|x| !x.is_finite()).count();
    assert_eq!(
        bad, 0,
        "{label}: {bad} non-finite values escaped into the output"
    );
}

/// NaN column stripes in Q: FallbackDense recovers with a finite dense
/// output and records why; Propagate surfaces the typed input sentinel.
#[test]
fn nan_stripes_in_inputs_never_escape() {
    let plan = FaultPlan::new(0xA11A).nan_stripes(2);
    let (mut q, k, v) = qkv(192, 16, 1);
    plan.corrupt_matrix(&mut q, 0);
    assert!(q.as_slice().iter().any(|x| x.is_nan()), "plan must corrupt");

    let out = attn(HealthPolicy::FallbackDense)
        .forward(&q, &k, &v)
        .unwrap();
    assert_eq!(out.stats.fallback_reason, FallbackReason::NonFiniteInputs);
    assert!(out.stats.fell_back());
    assert_eq!(out.stats.kv_ratio, 1.0);
    assert_all_finite("nan stripes / fallback", &out.output);

    match attn(HealthPolicy::Propagate).forward(&q, &k, &v) {
        Err(SampleAttentionError::Tensor(SaError::NonFinite { stage, count, .. })) => {
            assert_eq!(stage, "inputs");
            assert!(count > 0);
        }
        other => panic!("expected NonFinite inputs error, got {other:?}"),
    }
}

/// `±inf` entries in K and V are caught by the same input sentinel —
/// infinities would otherwise poison the softmax normalizer silently.
#[test]
fn inf_logits_in_inputs_never_escape() {
    let plan = FaultPlan::new(0xB0B).inf_logits(3);
    let (q, mut k, mut v) = qkv(160, 16, 2);
    plan.corrupt_matrix(&mut k, 1);
    plan.corrupt_matrix(&mut v, 2);

    let out = attn(HealthPolicy::FallbackDense)
        .forward(&q, &k, &v)
        .unwrap();
    assert_eq!(out.stats.fallback_reason, FallbackReason::NonFiniteInputs);
    assert_all_finite("inf logits / fallback", &out.output);

    let err = attn(HealthPolicy::Propagate)
        .forward(&q, &k, &v)
        .unwrap_err();
    assert!(
        matches!(
            err,
            SampleAttentionError::Tensor(SaError::NonFinite {
                stage: "inputs",
                ..
            })
        ),
        "expected NonFinite inputs error, got {err:?}"
    );
}

/// Zeroed rows are *finite* data — a silent upstream truncation rather
/// than numerical corruption. The pipeline must stay healthy (or degrade
/// gracefully) under both policies, and the output must stay finite: the
/// fully-masked-softmax convention maps dead rows to all-zero weights.
#[test]
fn zeroed_rows_stay_finite_under_both_policies() {
    let plan = FaultPlan::new(0xC4C4).zero_rows(3);
    let (mut q, mut k, v) = qkv(200, 16, 3);
    plan.corrupt_matrix(&mut q, 0);
    plan.corrupt_matrix(&mut k, 1);

    for policy in [HealthPolicy::FallbackDense, HealthPolicy::Propagate] {
        match attn(policy).forward(&q, &k, &v) {
            Ok(out) => assert_all_finite("zero rows", &out.output),
            Err(e) => panic!("zeroed rows must not error ({policy:?}): {e}"),
        }
    }
}

/// Zero-mass stage-1 scores (all sampled probability tampered to zero)
/// trip the degenerate-mask sentinel; the dense fallback is bit-identical
/// to running the flash kernel directly on the clean inputs.
#[test]
fn zero_mass_scores_degrade_to_dense() {
    let (q, k, v) = qkv(192, 16, 4);
    {
        let _guard = fault::install(FaultPlan::new(0xD0).zero_mass());
        let out = attn(HealthPolicy::FallbackDense)
            .forward(&q, &k, &v)
            .unwrap();
        assert_eq!(out.stats.fallback_reason, FallbackReason::ZeroSampledMass);
        assert_eq!(out.stats.mask_density, 1.0);
        assert_all_finite("zero mass / fallback", &out.output);

        let dense = flash_attention(&q, &k, &v, true, FlashParams::default()).unwrap();
        assert_eq!(
            out.output, dense.output,
            "fallback must equal the dense kernel"
        );

        let err = attn(HealthPolicy::Propagate)
            .forward(&q, &k, &v)
            .unwrap_err();
        assert!(
            matches!(
                err,
                SampleAttentionError::Tensor(SaError::DegenerateMask {
                    stage: "stage1_scores",
                    ..
                })
            ),
            "expected stage1 degenerate-mask error, got {err:?}"
        );
    }
    // Guard dropped: the same operator is healthy again.
    let out = attn(HealthPolicy::Propagate).forward(&q, &k, &v).unwrap();
    assert_eq!(out.stats.fallback_reason, FallbackReason::None);
}

/// Forced worker panics at each pool call site inside the operator are
/// caught at the chunk boundary and surfaced as `SaError::WorkerPanic`
/// (Propagate) or absorbed by the dense fallback (FallbackDense). The
/// fallback works even while the plan is live because it runs at the
/// distinct `"flash_attention"` site.
#[test]
fn worker_panics_are_contained_at_every_operator_site() {
    let (q, k, v) = qkv(192, 16, 5);
    for target in ["stage1_sampling", "sparse_flash_attention"] {
        let _guard = fault::install(FaultPlan::new(0xE0).worker_panic(target));

        let err = attn(HealthPolicy::Propagate)
            .forward(&q, &k, &v)
            .unwrap_err();
        match err {
            SampleAttentionError::Tensor(SaError::WorkerPanic { site, ref message }) => {
                assert_eq!(site, target);
                assert!(!message.is_empty(), "panic payload must be preserved");
            }
            other => panic!("{target}: expected WorkerPanic, got {other:?}"),
        }

        let out = attn(HealthPolicy::FallbackDense)
            .forward(&q, &k, &v)
            .unwrap();
        assert_eq!(out.stats.fallback_reason, FallbackReason::WorkerPanic);
        assert_all_finite(target, &out.output);
    }
}

/// The tile autotuner's failure surface is typed, never a panic: an
/// invalid policy (empty candidate list, candidate above `MAX_TILE`)
/// returns `InvalidConfig`, while degenerate masks (nnz == 0, problems
/// smaller than every candidate) take the clamped fallback tile.
#[test]
fn tile_autotuner_degenerate_inputs_are_typed_errors() {
    let mask = StructuredMask::dense_causal(8, 8);

    let empty_policy = TilePolicy {
        candidates: vec![],
        ..TilePolicy::default()
    };
    assert!(
        matches!(
            select_tile_size(&empty_policy, &mask),
            Err(SampleAttentionError::InvalidConfig { .. })
        ),
        "empty candidate list must be a typed config error"
    );

    let oversized_policy = TilePolicy {
        candidates: vec![MAX_TILE + 1],
        ..TilePolicy::default()
    };
    assert!(
        matches!(
            select_tile_size(&oversized_policy, &mask),
            Err(SampleAttentionError::InvalidConfig { .. })
        ),
        "candidate above MAX_TILE must be a typed config error"
    );

    // Fully-masked problem (nnz == 0): valid fallback tile, flagged.
    let dead = StructuredMask::builder(16, 16).window(0).build().unwrap();
    let choice = select_tile_size(&TilePolicy::default(), &dead).unwrap();
    assert!(choice.fallback, "nnz == 0 must take the fallback path");
    assert!(choice.tile >= 1 && choice.tile <= MAX_TILE);

    // Problem smaller than every candidate: clamped, still valid.
    let tiny = StructuredMask::dense_causal(3, 3);
    let choice = select_tile_size(&TilePolicy::default(), &tiny).unwrap();
    assert!(choice.fallback);
    assert_eq!(choice.tile, 3, "fallback clamps to the problem size");
}

/// A worker panic at the sparse engine's pool site
/// (`"sparse_flash_attention"`, the site every existing fault plan names)
/// surfaces as a typed error under `Propagate` and degrades the head to
/// dense under `FallbackDense`.
#[test]
fn worker_panics_contained_in_the_sparse_kernel() {
    let (q, k, v) = qkv(192, 16, 7);
    let _guard = fault::install(FaultPlan::new(0xE1).worker_panic("sparse_flash_attention"));

    let propagate = SampleAttention::new(
        SampleAttentionConfig::builder()
            .health_policy(HealthPolicy::Propagate)
            .build()
            .unwrap(),
    );
    let err = propagate.forward(&q, &k, &v).unwrap_err();
    assert!(
        matches!(
            err,
            SampleAttentionError::Tensor(SaError::WorkerPanic {
                site: "sparse_flash_attention",
                ..
            })
        ),
        "expected WorkerPanic, got {err:?}"
    );

    let fallback = SampleAttention::new(
        SampleAttentionConfig::builder()
            .health_policy(HealthPolicy::FallbackDense)
            .build()
            .unwrap(),
    );
    let out = fallback.forward(&q, &k, &v).unwrap();
    assert_eq!(out.stats.fallback_reason, FallbackReason::WorkerPanic);
    assert_all_finite("fallback", &out.output);
}

/// A panic in the model's per-head fan-out (outside the operator's own
/// fallback scope) propagates as a typed error from `prefill`, never as
/// a process abort; the same model recovers once the plan is dropped.
#[test]
fn layer_head_panics_surface_as_typed_prefill_errors() {
    let model = SyntheticTransformer::new(ModelConfig::tiny(21)).unwrap();
    let tokens = model.tokenize_filler(60);
    {
        let _guard = fault::install(FaultPlan::new(0xF0).worker_panic("layer_heads"));
        let err = model.prefill(&tokens, &FullAttention::new()).unwrap_err();
        match err {
            SaError::WorkerPanic { site, .. } => assert_eq!(site, "layer_heads"),
            other => panic!("expected layer_heads WorkerPanic, got {other:?}"),
        }
    }
    let result = model.prefill(&tokens, &FullAttention::new()).unwrap();
    assert_eq!(result.fallback_heads(), 0);
    assert_eq!(result.heads_alpha_unsatisfied(), 0);
}

/// The decode path: a worker panic in the per-head fan-out during a
/// decode step surfaces as a typed error from `DecodeSession::step`,
/// never a process abort, and the *same session* keeps working once the
/// plan is dropped — a contained step must not corrupt session state.
#[test]
fn decode_steps_surface_worker_panics_as_typed_errors() {
    let model = SyntheticTransformer::new(ModelConfig::tiny(33)).unwrap();
    let tokens = model.tokenize_filler(48);
    // Healthy prefill; the fault is installed only for the decode steps.
    let mut session = model.begin_decode(&tokens, &FullAttention::new()).unwrap();
    let healthy_len = session.tokens().len();
    {
        let _guard = fault::install(FaultPlan::new(0xF1).worker_panic("layer_heads"));
        let err = session.step().unwrap_err();
        match err {
            SaError::WorkerPanic { site, ref message } => {
                assert_eq!(site, "layer_heads");
                assert!(!message.is_empty());
            }
            other => panic!("expected layer_heads WorkerPanic from step, got {other:?}"),
        }
        let err = session.generate_in(3, 0..64).unwrap_err();
        assert!(
            matches!(err, SaError::WorkerPanic { .. }),
            "generate_in must surface the same typed error, got {err:?}"
        );
    }
    // Plan dropped: the session recovers and generates normally.
    session.step().unwrap();
    let generated = session.generate_in(2, 0..128).unwrap();
    assert_eq!(generated.len(), 2);
    assert!(session.tokens().len() > healthy_len);
}

/// Decode under an `SA_FAULT`-style worker-panic plan installed *before*
/// the session exists: prefill itself fails typed; once the plan is
/// gone, a fresh session on the same model works end to end.
#[test]
fn decode_after_failed_prefill_recovers_on_a_fresh_session() {
    let model = SyntheticTransformer::new(ModelConfig::tiny(34)).unwrap();
    let tokens = model.tokenize_filler(40);
    {
        let _guard = fault::install(FaultPlan::new(0xF2).worker_panic("layer_heads"));
        let err = model
            .begin_decode(&tokens, &FullAttention::new())
            .expect_err("prefill under a live panic plan must fail");
        assert!(matches!(err, SaError::WorkerPanic { .. }), "{err:?}");
    }
    let mut session = model.begin_decode(&tokens, &FullAttention::new()).unwrap();
    let (_, confidence) = session.step().unwrap();
    assert!(confidence.is_finite());
}

/// Truncated JSON (what a killed run leaves in `results/`) produces a
/// located parse error — byte offset plus line/column — instead of an
/// unwrap panic, for both raw values and typed config payloads.
#[test]
fn truncated_json_yields_located_errors() {
    let cfg = SampleAttentionConfig::paper_default();
    let text = json::to_string_pretty(&cfg);
    for bytes in [1usize, 16, text.len() / 2, text.len() - 1] {
        let broken = FaultPlan::new(0x11)
            .truncate_json(bytes)
            .corrupt_json(&text);
        assert!(broken.len() < text.len());
        let err = json::from_str::<SampleAttentionConfig>(&broken).unwrap_err();
        let msg = err.to_string();
        assert!(msg.contains("byte"), "no byte offset in: {msg}");
        assert!(msg.contains("line"), "no line number in: {msg}");
    }
}

/// End-to-end containment for the `SA_FAULT` plan: honors the
/// environment spec when set (`smoke`, or a custom comma-separated
/// spec), otherwise exercises the built-in smoke plan. Whatever the mix,
/// the outcome is a finite output or a typed error — never a panic.
#[test]
fn sa_fault_env_plan_is_contained_end_to_end() {
    let plan = FaultPlan::from_env().unwrap_or_else(|| FaultPlan::smoke(0x5EED));
    let (mut q, mut k, mut v) = qkv(224, 16, 6);
    plan.corrupt_matrix(&mut q, 0);
    plan.corrupt_matrix(&mut k, 1);
    plan.corrupt_matrix(&mut v, 2);
    let corrupts_data = plan.nan_stripes > 0 || plan.inf_logits > 0;

    let _guard = fault::install(plan.clone());
    for policy in [HealthPolicy::FallbackDense, HealthPolicy::Propagate] {
        match attn(policy).forward(&q, &k, &v) {
            Ok(out) => {
                assert_all_finite("SA_FAULT plan", &out.output);
                if corrupts_data && policy == HealthPolicy::FallbackDense {
                    assert!(
                        out.stats.fell_back(),
                        "corrupted inputs must be recorded as a fallback"
                    );
                }
            }
            // A typed, displayable error is an acceptable containment
            // outcome (e.g. the plan panics the fallback's own site).
            Err(e) => assert!(!e.to_string().is_empty()),
        }
    }

    if let Some(bytes) = plan.truncate_json {
        let text = json::to_string_pretty(&SampleAttentionConfig::paper_default());
        if bytes < text.len() {
            let err = json::from_str::<SampleAttentionConfig>(&plan.corrupt_json(&text));
            assert!(err.is_err(), "truncated JSON must not parse");
        }
    }
}
