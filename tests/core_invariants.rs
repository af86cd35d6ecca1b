//! Property-based invariants of the SampleAttention pipeline and the
//! paper's theory (CRA/SD definitions, Theorem 1, Lemma 1, stage-2
//! coverage guarantees). Driven by the in-repo harness
//! ([`sample_attention::tensor::check`]).

use sample_attention::core::cra::{cra_of_dense_mask, cra_of_structured_mask};
use sample_attention::core::filtering::{filter_kv_indices, KvRatioSchedule};
use sample_attention::core::sparsity::optimal_sparsity_degree;
use sample_attention::core::theory::{check_lemma1, check_theorem1};
use sample_attention::core::{
    merge_mask, sample_attention_scores, FallbackReason, SampleAttention, SampleAttentionConfig,
};
use sample_attention::kernels::{
    attention_probs, sparse_flash_attention_blocked, DenseMask, StructuredMask,
};
use sample_attention::tensor::check::run_cases;
use sample_attention::tensor::{DeterministicRng, Matrix};

fn probs(s: usize, d: usize, seed: u64) -> Matrix {
    let mut rng = DeterministicRng::new(seed);
    let q = rng.normal_matrix(s, d, 1.0);
    let k = rng.normal_matrix(s, d, 1.0);
    attention_probs(&q, &k, true).unwrap()
}

/// The optimal mask of Definition 1 always meets its CRA constraint,
/// and SD decreases monotonically in alpha.
#[test]
fn optimal_sd_meets_alpha() {
    run_cases("optimal_sd_meets_alpha", |g| {
        let s = g.usize_in(4, 48);
        let d = g.even_in(2, 10);
        let seed = g.u64_in(0, 500);
        let alpha = g.f32_in(0.5, 0.99);
        let p = probs(s, d, seed);
        let (sd, mask) = optimal_sparsity_degree(&p, alpha);
        assert!(cra_of_dense_mask(&p, &mask).unwrap() >= alpha - 1e-4);
        assert!((0.0..=1.0).contains(&sd));
        // Monotonicity in alpha.
        let (sd_hi, _) = optimal_sparsity_degree(&p, (alpha + 0.01).min(1.0));
        assert!(sd_hi <= sd + 1e-9);
    });
}

/// Theorem 1's bound holds for arbitrary random masks.
#[test]
fn theorem1_bound_holds() {
    run_cases("theorem1_bound_holds", |g| {
        let s = g.usize_in(2, 32);
        let d = g.even_in(2, 10);
        let seed = g.u64_in(0, 500);
        let keep_prob = g.f32_in(0.0, 1.0);
        let p = probs(s, d, seed);
        let mut rng = DeterministicRng::new(seed ^ 0xabcdef);
        let v = rng.normal_matrix(s, d, 1.0);
        let mut mask = DenseMask::zeros(s, s);
        for i in 0..s {
            for j in 0..=i {
                if rng.chance(keep_prob) {
                    mask.set(i, j, true);
                }
            }
        }
        let check = check_theorem1(&p, &mask, &v);
        assert!(check.holds(), "{check:?}");
    });
}

/// Lemma 1: CRA equals one minus the max dropped row mass for any
/// structured mask.
#[test]
fn lemma1_equality() {
    run_cases("lemma1_equality", |g| {
        let s = g.usize_in(2, 40);
        let window = g.usize_in(0, 16);
        let sinks = g.usize_in(0, 4);
        let seed = g.u64_in(0, 500);
        let p = probs(s, 8, seed);
        let mask = StructuredMask::builder(s, s)
            .window(window)
            .sinks(sinks)
            .build()
            .unwrap();
        let (cra, one_minus_err) = check_lemma1(&p, &mask).unwrap();
        assert!((cra - one_minus_err).abs() < 1e-4);
        // And the structured CRA matches the dense-oracle CRA.
        let dense_cra = cra_of_dense_mask(&p, &mask.to_dense()).unwrap();
        assert!((cra - dense_cra).abs() < 1e-5);
    });
}

/// Stage-2 filtering always covers at least alpha of the mass (when
/// uncapped) and returns sorted, unique, in-range indices.
#[test]
fn filtering_covers_alpha() {
    run_cases("filtering_covers_alpha", |g| {
        let len = g.usize_in(1, 200);
        let scores: Vec<f32> = (0..len).map(|_| g.f32_in(0.0, 10.0)).collect();
        let alpha = g.f32_in(0.1, 1.0);
        let r = filter_kv_indices(&scores, alpha, 1.0, &KvRatioSchedule::Exact).unwrap();
        let total: f32 = scores.iter().sum();
        if total > 0.0 {
            assert!(r.covered_mass >= alpha - 1e-4, "covered {}", r.covered_mass);
        }
        assert!(r.indices.windows(2).all(|w| w[0] < w[1]));
        assert!(r.indices.iter().all(|&i| i < scores.len()));
    });
}

/// The end-to-end operator: valid mask, near-exact at alpha = 1 with
/// full sampling, and CRA of the discovered mask is high on the true
/// probabilities when sampling is exact.
#[test]
fn pipeline_discovers_high_cra_masks() {
    run_cases("pipeline_discovers_high_cra_masks", |g| {
        let s = g.usize_in(24, 96);
        let seed = g.u64_in(0, 200);
        let mut rng = DeterministicRng::new(seed);
        let d = 16;
        let q = rng.normal_matrix(s, d, 1.0);
        let k = rng.normal_matrix(s, d, 1.0);
        let config = SampleAttentionConfig::builder()
            .cra_threshold(0.9)
            .sample_ratio(1.0) // exact sampling: the guarantee is exact
            .window_ratio(0.05)
            .build()
            .unwrap();
        let attn = SampleAttention::new(config);
        let discovered = attn.discover_mask(&q, &k).unwrap();
        let p = attention_probs(&q, &k, true).unwrap();
        let cra = cra_of_structured_mask(&p, &discovered.mask).unwrap();
        // Column accumulation guarantees *average* coverage >= alpha; the
        // row minimum can be lower, but the window + bottom area keep it
        // from collapsing.
        assert!(cra > 0.25, "cra {cra}");
        // Aggregate (mean) coverage honours the threshold.
        assert!(discovered.stats.covered_mass >= 0.9 - 1e-4);
    });
}

/// A call whose merged mask is the full causal mask whatever stage 2
/// picks skips stages 1 and 2. The config-only predicate holds exactly
/// when the stripe-free merge keeps every causal pair, over taller and
/// wider calls, with and without a bottom area, window or sinks; where
/// it holds, `forward` returns the bits of the engine under the mask the
/// stages would have built.
#[test]
fn a_mask_dense_by_construction_skips_discovery_with_the_same_bits() {
    let mut skipped = 0;
    for s_q in [1, 7, 31, 32, 33, 64, 100] {
        for s_k in [1, 5, 31, 32, 40, 64, 100, 130] {
            for bottom in [0, 32] {
                for window_ratio in [0.0, 0.08, 0.3, 0.6, 1.0] {
                    for sinks in [0, 4] {
                        let cfg = SampleAttentionConfig::builder()
                            .bottom_area_rows(bottom)
                            .window_ratio(window_ratio)
                            .forced_sinks(sinks)
                            .build()
                            .unwrap();
                        let plain = merge_mask(s_q, s_k, &[], &cfg).unwrap();
                        let dense = plain.nnz() == plain.causal_nnz();
                        let case = format!(
                            "{s_q}x{s_k}, bottom {bottom}, window {window_ratio}, sinks {sinks}"
                        );
                        assert_eq!(cfg.mask_is_dense(s_q, s_k), dense, "{case}");
                        if dense {
                            same_bits_as_the_stages(&cfg, s_q, s_k, &plain, &case);
                            skipped += 1;
                        }
                    }
                }
            }
        }
    }
    assert!(skipped > 100, "{skipped} dense cases: the grid proves little");
}

fn same_bits_as_the_stages(
    cfg: &SampleAttentionConfig,
    s_q: usize,
    s_k: usize,
    plain: &StructuredMask,
    case: &str,
) {
    let mut rng = DeterministicRng::new((s_q * 1000 + s_k) as u64);
    let q = rng.normal_matrix(s_q, 8, 1.0);
    let k = rng.normal_matrix(s_k, 8, 1.0);
    let v = rng.normal_matrix(s_k, 8, 1.0);
    let sampled = sample_attention_scores(&q, &k, cfg.effective_sample_ratio(s_q)).unwrap();
    let filtered = filter_kv_indices(
        &sampled.column_scores,
        cfg.cra_threshold,
        cfg.max_kv_ratio,
        &KvRatioSchedule::paper_coarse(),
    )
    .unwrap();
    let staged = merge_mask(s_q, s_k, &filtered.indices, cfg).unwrap();
    assert_eq!(staged.nnz(), staged.causal_nnz(), "{case}");
    let want = sparse_flash_attention_blocked(&q, &k, &v, &staged).unwrap();

    let out = SampleAttention::new(*cfg).forward(&q, &k, &v).unwrap();
    assert_eq!(&out.mask, plain, "{case}");
    assert!(out.kv_indices.is_empty(), "{case}");
    let bits = |m: &Matrix| m.as_slice().iter().map(|x| x.to_bits()).collect::<Vec<_>>();
    assert_eq!(bits(&out.output), bits(&want.output), "{case}");
    let stats = out.stats;
    assert_eq!(stats.fallback_reason, FallbackReason::None, "{case}");
    assert_eq!((stats.kv_ratio, stats.covered_mass), (1.0, 1.0), "{case}");
    assert!(stats.alpha_satisfied, "{case}");
    assert_eq!(stats.mask_density, 1.0, "{case}");
    assert_eq!(stats.sampling_cost.flops + stats.filtering_cost.flops, 0, "{case}");
    // The same pairs are scored; only the stripe gather's bytes go.
    assert_eq!(stats.sparse_cost.flops, want.cost.flops, "{case}");
    assert!(stats.sparse_cost.bytes_read <= want.cost.bytes_read, "{case}");
}
