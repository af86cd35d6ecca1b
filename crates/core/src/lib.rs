//! # sa-core
//!
//! The paper's primary contribution: **SampleAttention**, an adaptive
//! structured sparse attention that replaces full attention at the prefill
//! stage with near-lossless accuracy.
//!
//! The pipeline (Algorithm 1 of the paper):
//!
//! 1. **Stage 1 — query-guided attention sampling** ([`sampling`]):
//!    compute exact attention scores for a strided `r_row` sample of the
//!    query rows and accumulate them along columns (a fused
//!    bmm+softmax+reduction).
//! 2. **Stage 2 — score-based key-value filtering** ([`filtering`]):
//!    sort the accumulated column scores, prefix-sum, and `searchsorted`
//!    against the CRA threshold `α` to select the minimal per-head stripe
//!    set `I_KV` (attention sinks are discovered automatically).
//! 3. **Mask merging + sparse compute** ([`merge`], [`SampleAttention`]):
//!    merge `I_KV` with a local window of `⌈r_w% · S_k⌉` tokens into a
//!    [`sa_kernels::StructuredMask`] and run the block-sparse flash
//!    kernel. Windows, sinks and stripes are the whole mask;
//!    [`merge_mask_with_diagonals`] is [`merge_mask`] under a former
//!    name, kept because the repo's benchmark package calls it.
//!
//! The crate also implements the paper's analysis machinery: the
//! **cumulative residual attention** (CRA, Definition 2) and **sparsity
//! degree** (SD, Definition 1) metrics ([`cra`], [`sparsity`]), numeric
//! checkers for Theorem 1 / Lemma 1 ([`theory`]), and the offline
//! hyper-parameter tuner (Table 1) ([`tuner`]).
//!
//! ## Example
//!
//! ```
//! use sa_core::{SampleAttention, SampleAttentionConfig};
//! use sa_tensor::DeterministicRng;
//!
//! # fn main() -> Result<(), Box<dyn std::error::Error>> {
//! let mut rng = DeterministicRng::new(7);
//! let (s, d) = (256, 16);
//! let q = rng.normal_matrix(s, d, 1.0);
//! let k = rng.normal_matrix(s, d, 1.0);
//! let v = rng.normal_matrix(s, d, 1.0);
//!
//! let cfg = SampleAttentionConfig::builder()
//!     .cra_threshold(0.95)
//!     .sample_ratio(0.05)
//!     .window_ratio(0.08)
//!     .build()?;
//! let attn = SampleAttention::new(cfg);
//! let result = attn.forward(&q, &k, &v)?;
//! assert_eq!(result.output.shape(), (s, d));
//! assert!(result.mask.density() <= 1.0);
//! # Ok(())
//! # }
//! ```

mod attention;
pub mod autotune;
mod config;
pub mod cra;
mod error;
pub mod filtering;
pub mod ladder;
pub mod merge;
pub mod sampling;
pub mod sparsity;
pub mod theory;
pub mod tuner;

pub use attention::{
    DiscoveredMask, FallbackReason, SampleAttention, SampleAttentionOutput, SampleAttentionStats,
    SamplePlan,
};
pub use autotune::{select_tile_size, TileChoice, TilePolicy};
pub use config::{HealthPolicy, SampleAttentionConfig, SampleAttentionConfigBuilder};
pub use cra::{
    cra_of_dense_mask, cra_of_structured_mask, stripe_coverage_curve, structured_mask_coverage,
    MaskCoverage, StripeCoverage,
};
pub use error::SampleAttentionError;
pub use filtering::{filter_kv_indices, KvFilterResult, KvRatioSchedule};
pub use ladder::{DegradationReport, DegradationRung, RungAttempt};
pub use merge::{merge_mask, merge_mask_with_diagonals};
pub use sampling::{sample_attention_scores, sample_attention_scores_prepared, SampledScores};
pub use sparsity::{
    optimal_sparsity_degree, pattern_summary, structured_sparsity_degree, PatternSummary,
};
pub use theory::{check_lemma1, check_theorem1, TheoremCheck};
pub use tuner::{HyperParamTuner, ProfilingRequest, TunerGrid, TunerReport, TunerSelection};
