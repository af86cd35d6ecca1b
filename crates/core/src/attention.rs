//! The end-to-end SampleAttention operator.
//!
//! Ties the pipeline together per attention head: stage-1 sampling →
//! stage-2 filtering → mask merging → block-sparse flash attention
//! (Algorithm 1, Figure 3).
//!
//! Numerical-health sentinels guard the stage boundaries (inputs, sampled
//! scores, merged mask, attention output). When one trips, the configured
//! [`HealthPolicy`] decides between propagating the typed error,
//! transparently degrading the head to dense [`flash_attention`], or
//! aborting. See DESIGN.md, "Failure model & degradation policy".
//!
//! When `sa_trace` is enabled, each pipeline stage opens a span in the
//! `core` category (`stage1_sampling`, `stage2_filtering`, `mask_merge`,
//! `sparse_kernel`, `dense_fallback`) — the instrumented ground truth
//! behind the paper's Table 4 stage breakdown — and the health machinery
//! feeds counters: `core.sentinel_trips`, `core.alpha_miss`,
//! `core.fallback.<reason>`, plus the `core.mask_nnz` and
//! `core.kernel_scored_pairs` histograms. A call whose mask is dense by
//! construction ([`SampleAttentionConfig::mask_is_dense`]) opens no
//! discovery span and counts itself in `core.discovery_skipped`.

use sa_kernels::{
    flash_attention, sparse_flash_attention_prepared, BlockedAttentionOutput, CostReport,
    FlashParams, KeyPanels, PreparedKeys, StructuredMask, ENGINE_BLOCK,
};
use sa_tensor::{count_nonfinite, Matrix, SaError};

use crate::filtering::{filter_kv_indices, KvRatioSchedule};
use crate::merge::merge_mask;
use crate::sampling::sample_attention_scores_prepared;
use crate::sparsity::causal_width;
use crate::{HealthPolicy, SampleAttentionConfig, SampleAttentionError};

/// Why a head's forward pass degraded to dense attention
/// ([`FallbackReason::None`] = the sparse pipeline ran healthily).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub enum FallbackReason {
    /// No fallback: the sparse pipeline completed.
    #[default]
    None,
    /// Non-finite values in Q/K/V (sentinel A).
    NonFiniteInputs,
    /// Non-finite stage-1 column scores (sentinel B).
    NonFiniteScores,
    /// Stage-1 sampling accumulated no mass despite live causal rows
    /// (sentinel B).
    ZeroSampledMass,
    /// The merged mask kept nothing of a non-empty causal triangle
    /// (sentinel C).
    DegenerateMask,
    /// Stage-2 coverage fell below `α` by more than the configured
    /// tolerance (sentinel C).
    AlphaUnsatisfied,
    /// A worker panicked inside one of the pipeline's kernels.
    WorkerPanic,
    /// The sparse kernel produced non-finite output values (sentinel D).
    NonFiniteOutput,
    /// The serving layer's quality guard routed this head to dense:
    /// canary drift detection quarantined it until it clears probation.
    /// Unlike the sentinels above, this reason is decided upstream of
    /// the pipeline, before the sparse path runs.
    QualityQuarantine,
}

sa_json::impl_json_enum!(FallbackReason {
    None,
    NonFiniteInputs,
    NonFiniteScores,
    ZeroSampledMass,
    DegenerateMask,
    AlphaUnsatisfied,
    WorkerPanic,
    NonFiniteOutput,
    QualityQuarantine
});

impl FallbackReason {
    /// The variant name, matching its JSON encoding (used as the key in
    /// fallback tallies and trace summaries).
    pub fn as_str(self) -> &'static str {
        match self {
            FallbackReason::None => "None",
            FallbackReason::NonFiniteInputs => "NonFiniteInputs",
            FallbackReason::NonFiniteScores => "NonFiniteScores",
            FallbackReason::ZeroSampledMass => "ZeroSampledMass",
            FallbackReason::DegenerateMask => "DegenerateMask",
            FallbackReason::AlphaUnsatisfied => "AlphaUnsatisfied",
            FallbackReason::WorkerPanic => "WorkerPanic",
            FallbackReason::NonFiniteOutput => "NonFiniteOutput",
            FallbackReason::QualityQuarantine => "QualityQuarantine",
        }
    }

    /// All variants that name an actual degradation (everything but
    /// [`FallbackReason::None`]), in declaration order — the stable key
    /// set for fallback tallies.
    pub const DEGRADATIONS: [FallbackReason; 8] = [
        FallbackReason::NonFiniteInputs,
        FallbackReason::NonFiniteScores,
        FallbackReason::ZeroSampledMass,
        FallbackReason::DegenerateMask,
        FallbackReason::AlphaUnsatisfied,
        FallbackReason::WorkerPanic,
        FallbackReason::NonFiniteOutput,
        FallbackReason::QualityQuarantine,
    ];

    /// Registry counter name for this fallback reason (static so hot
    /// paths can record without formatting). Public so upstream routers
    /// (the serving layer's quality guard) record their dense fallbacks
    /// under the same tally.
    pub fn counter_name(self) -> &'static str {
        match self {
            FallbackReason::None => "core.fallback.None",
            FallbackReason::NonFiniteInputs => "core.fallback.NonFiniteInputs",
            FallbackReason::NonFiniteScores => "core.fallback.NonFiniteScores",
            FallbackReason::ZeroSampledMass => "core.fallback.ZeroSampledMass",
            FallbackReason::DegenerateMask => "core.fallback.DegenerateMask",
            FallbackReason::AlphaUnsatisfied => "core.fallback.AlphaUnsatisfied",
            FallbackReason::WorkerPanic => "core.fallback.WorkerPanic",
            FallbackReason::NonFiniteOutput => "core.fallback.NonFiniteOutput",
            FallbackReason::QualityQuarantine => "core.fallback.QualityQuarantine",
        }
    }

    /// Maps a tripped health sentinel to its reason. Only health errors
    /// ([`SaError::is_health_error`]) take the fallback path, so the
    /// non-health arms never materialise as a recorded reason.
    fn from_error(e: &SaError) -> Self {
        match e {
            SaError::NonFinite { stage, .. } => match *stage {
                "inputs" => FallbackReason::NonFiniteInputs,
                "attention_output" => FallbackReason::NonFiniteOutput,
                _ => FallbackReason::NonFiniteScores,
            },
            SaError::DegenerateMask { stage, .. } => {
                if *stage == "stage1_scores" {
                    FallbackReason::ZeroSampledMass
                } else {
                    FallbackReason::DegenerateMask
                }
            }
            SaError::AlphaUnsatisfied { .. } => FallbackReason::AlphaUnsatisfied,
            SaError::WorkerPanic { .. } => FallbackReason::WorkerPanic,
            _ => FallbackReason::None,
        }
    }
}

/// Per-invocation statistics of a SampleAttention forward pass.
///
/// A call whose mask is dense by construction
/// ([`SampleAttentionConfig::mask_is_dense`]) runs no stage 1 or 2 and
/// reports what the dense fallback does — `kv_ratio` and `covered_mass`
/// 1.0, `alpha_satisfied`, `mask_density` 1.0, zero sampling and filtering
/// cost — but with [`FallbackReason::None`] and the sparse engine's cost:
/// every key is covered, and nothing degraded.
#[derive(Debug, Clone, Copy)]
pub struct SampleAttentionStats {
    /// Fraction of key columns selected as stripes (`|I_KV| / S_k`); 1.0
    /// when the mask is dense by construction or the head fell back.
    pub kv_ratio: f32,
    /// Fraction of sampled attention mass covered by the stripe set; 1.0
    /// when the mask is dense by construction or the head fell back.
    pub covered_mass: f32,
    /// Whether stage-2 actually reached the configured α coverage (false
    /// when the `max_kv_ratio` cap truncated the stripe set short of it);
    /// `true` when the mask is dense by construction or the head fell
    /// back.
    pub alpha_satisfied: bool,
    /// Live fraction of the causal triangle in the merged mask.
    pub mask_density: f64,
    /// Why this head degraded to dense attention
    /// ([`FallbackReason::None`] when the sparse pipeline ran).
    pub fallback_reason: FallbackReason,
    /// Cost of stage 1 (fused sampling kernel); zero when stage 1 did not
    /// run.
    pub sampling_cost: CostReport,
    /// Cost of stage 2 (sort / filter / gather); zero when stage 2 did
    /// not run.
    pub filtering_cost: CostReport,
    /// Cost of the sparse attention kernel (the dense kernel's cost when
    /// the head fell back).
    pub sparse_cost: CostReport,
    /// Block edge of the sparse engine (query rows per block, key lanes
    /// per score panel): 64 whenever the sparse kernel ran, `0` when the
    /// dense fallback executed instead.
    pub tile_size: usize,
}

sa_json::impl_json_struct!(SampleAttentionStats {
    kv_ratio,
    covered_mass,
    alpha_satisfied,
    mask_density,
    fallback_reason: default,
    sampling_cost,
    filtering_cost,
    sparse_cost,
    tile_size: default
});

impl SampleAttentionStats {
    /// Whether the head degraded to dense attention.
    pub fn fell_back(&self) -> bool {
        self.fallback_reason != FallbackReason::None
    }

    /// Total cost across all three phases.
    pub fn total_cost(&self) -> CostReport {
        self.sampling_cost + self.filtering_cost + self.sparse_cost
    }

    /// Fraction of total FLOPs spent discovering the mask (stages 1+2) —
    /// the paper's Figure 5(b) "sampling overhead".
    pub fn sampling_overhead_fraction(&self) -> f64 {
        let overhead = self.sampling_cost.flops + self.filtering_cost.flops;
        let total = overhead + self.sparse_cost.flops;
        if total == 0 {
            0.0
        } else {
            overhead as f64 / total as f64
        }
    }
}

/// Result of a SampleAttention forward pass.
#[derive(Debug, Clone)]
pub struct SampleAttentionOutput {
    /// The `(S_q, d_v)` attention output.
    pub output: Matrix,
    /// The merged structured mask that was executed.
    pub mask: StructuredMask,
    /// The selected stripe indices `I_KV`: empty when the mask is dense
    /// by construction, every key when the head fell back.
    pub kv_indices: Vec<usize>,
    /// Pipeline statistics.
    pub stats: SampleAttentionStats,
}

/// Adaptive structured sparse attention (the paper's headline operator).
///
/// A `SampleAttention` value is a configured, reusable operator: call
/// [`forward`](Self::forward) per attention head. The discovered mask is
/// head- and content-specific because stages 1–2 run on the actual Q/K of
/// the call.
///
/// # Example
///
/// ```
/// use sa_core::{SampleAttention, SampleAttentionConfig};
/// use sa_tensor::DeterministicRng;
///
/// # fn main() -> Result<(), Box<dyn std::error::Error>> {
/// let mut rng = DeterministicRng::new(1);
/// let q = rng.normal_matrix(128, 8, 1.0);
/// let k = rng.normal_matrix(128, 8, 1.0);
/// let v = rng.normal_matrix(128, 8, 1.0);
/// let attn = SampleAttention::new(SampleAttentionConfig::paper_default());
/// let out = attn.forward(&q, &k, &v)?;
/// // Unstructured random heads are the worst case — the adaptive mask
/// // may legitimately stay dense; structured heads sparsify strongly.
/// assert!(out.stats.mask_density <= 1.0);
/// assert!(out.stats.covered_mass >= 0.95);
/// # Ok(())
/// # }
/// ```
#[derive(Debug, Clone)]
pub struct SampleAttention {
    config: SampleAttentionConfig,
    schedule: KvRatioSchedule,
}

impl SampleAttention {
    /// Creates the operator with the paper's Algorithm-1 stage-2 schedule
    /// (the coarse candidate-ratio list). The coarse schedule's
    /// overshoot — it keeps the smallest *candidate ratio* clearing `α`,
    /// not the literal minimum — is a deliberate robustness margin: the
    /// columns between the minimal set and the candidate ratio absorb
    /// weak-but-critical stripes (e.g. deep facts seen by few sampled
    /// rows). Use [`with_schedule`](Self::with_schedule) with
    /// [`KvRatioSchedule::Exact`] for the minimal-set variant.
    pub fn new(config: SampleAttentionConfig) -> Self {
        SampleAttention {
            config,
            schedule: KvRatioSchedule::paper_coarse(),
        }
    }

    /// Creates the operator with a custom stage-2 schedule (e.g.
    /// [`KvRatioSchedule::paper_coarse`]).
    pub fn with_schedule(config: SampleAttentionConfig, schedule: KvRatioSchedule) -> Self {
        SampleAttention { config, schedule }
    }

    /// The operator's configuration.
    pub fn config(&self) -> &SampleAttentionConfig {
        &self.config
    }

    /// Runs the full pipeline on one head's Q/K/V.
    ///
    /// Numerical-health sentinels run at every stage boundary; when one
    /// trips, the configured [`HealthPolicy`] applies. Under the default
    /// [`HealthPolicy::FallbackDense`], the head transparently re-runs
    /// dense [`flash_attention`] (non-finite inputs sanitised to zero) and
    /// `stats.fallback_reason` records why.
    ///
    /// # Errors
    ///
    /// Returns [`SampleAttentionError::Tensor`] on shape mismatches
    /// between `q`, `k` and `v` (under every policy), and on tripped
    /// health sentinels under [`HealthPolicy::Propagate`].
    pub fn forward(
        &self,
        q: &Matrix,
        k: &Matrix,
        v: &Matrix,
    ) -> Result<SampleAttentionOutput, SampleAttentionError> {
        let panels = KeyPanels::from_rows(k);
        let keys = PreparedKeys::new(k, &panels);
        match self.plan_prepared(q, keys, v)? {
            SamplePlan::Done(out) => Ok(out),
            SamplePlan::Engine(discovered) => {
                let span = sa_trace::span_in("core", "sparse_kernel");
                let run = sparse_flash_attention_prepared(q, keys, v, &discovered.mask);
                drop(span);
                self.finish_prepared(q, keys, v, discovered, run)
            }
        }
    }

    /// [`forward`](Self::forward) up to the sparse kernel, on keys whose
    /// panels the caller already holds: the input sentinel and mask
    /// discovery. A caller that runs several heads' kernels together
    /// ([`sa_kernels::run_engine`]) plans each head, runs the
    /// [`SamplePlan::Engine`] masks, and hands each result to
    /// [`finish_prepared`](Self::finish_prepared); the outputs are bit for
    /// bit `forward`'s. A tripped sentinel takes the health policy here,
    /// so the plan is then already [`SamplePlan::Done`].
    ///
    /// # Errors
    ///
    /// As [`forward`](Self::forward).
    ///
    /// # Panics
    ///
    /// As [`forward`](Self::forward).
    pub fn plan_prepared(
        &self,
        q: &Matrix,
        keys: PreparedKeys<'_>,
        v: &Matrix,
    ) -> Result<SamplePlan, SampleAttentionError> {
        let k = keys.rows();
        // Sentinel A: non-finite Q/K/V poison every later stage (NaN is
        // silently swallowed by `f32::max` inside the softmaxes, so it
        // must be caught here, before it folds into zeros downstream).
        let bad = count_nonfinite(q.as_slice())
            + count_nonfinite(k.as_slice())
            + count_nonfinite(v.as_slice());
        let discovered = if bad > 0 {
            sentinel_trip();
            Err(SaError::NonFinite {
                stage: "inputs",
                head: None,
                count: bad,
            }
            .into())
        } else {
            self.discover_mask_prepared(q, keys)
        };
        match discovered {
            Ok(discovered) => Ok(SamplePlan::Engine(discovered)),
            Err(e) => self.degrade(q, k, v, e).map(SamplePlan::Done),
        }
    }

    /// The rest of [`forward`](Self::forward) once the sparse kernel has
    /// run under `discovered.mask` with result `run`: the output sentinel,
    /// the kernel's statistics and, when the kernel or the sentinel fails
    /// a health check, the health policy.
    ///
    /// # Errors
    ///
    /// As [`forward`](Self::forward).
    ///
    /// # Panics
    ///
    /// As [`forward`](Self::forward).
    pub fn finish_prepared(
        &self,
        q: &Matrix,
        keys: PreparedKeys<'_>,
        v: &Matrix,
        discovered: DiscoveredMask,
        run: Result<BlockedAttentionOutput, SaError>,
    ) -> Result<SampleAttentionOutput, SampleAttentionError> {
        let DiscoveredMask {
            mask,
            kv_indices,
            mut stats,
        } = discovered;
        let checked = run.map_err(SampleAttentionError::from).and_then(|sparse| {
            stats.tile_size = ENGINE_BLOCK;
            sa_trace::histogram_record!("core.kernel_scored_pairs", sparse.scored_pairs);
            // Sentinel D: no non-finite value may escape the kernel.
            let bad = count_nonfinite(sparse.output.as_slice());
            if bad > 0 {
                sentinel_trip();
                return Err(SaError::NonFinite {
                    stage: "attention_output",
                    head: None,
                    count: bad,
                }
                .into());
            }
            stats.sparse_cost = sparse.cost;
            Ok(sparse.output)
        });
        match checked {
            Ok(output) => Ok(SampleAttentionOutput {
                output,
                mask,
                kv_indices,
                stats,
            }),
            Err(e) => self.degrade(q, keys.rows(), v, e),
        }
    }

    /// Applies the health policy to a pipeline error: health errors
    /// propagate or degrade to dense as configured; any other error
    /// propagates.
    fn degrade(
        &self,
        q: &Matrix,
        k: &Matrix,
        v: &Matrix,
        e: SampleAttentionError,
    ) -> Result<SampleAttentionOutput, SampleAttentionError> {
        match e {
            SampleAttentionError::Tensor(e) if e.is_health_error() => {
                match self.config.health_policy {
                    HealthPolicy::Propagate => Err(SampleAttentionError::Tensor(e)),
                    HealthPolicy::FallbackDense => self
                        .dense_fallback(q, k, v, FallbackReason::from_error(&e))
                        .map_err(SampleAttentionError::Tensor),
                }
            }
            e => Err(e),
        }
    }

    /// Dense degradation path: sanitise non-finite inputs to zero, run the
    /// dense flash kernel, and report full-coverage stats tagged with the
    /// triggering `reason`.
    fn dense_fallback(
        &self,
        q: &Matrix,
        k: &Matrix,
        v: &Matrix,
        reason: FallbackReason,
    ) -> Result<SampleAttentionOutput, SaError> {
        let _span = sa_trace::span_in("core", "dense_fallback");
        if sa_trace::enabled() {
            sa_trace::metrics::counter(reason.counter_name()).add(1);
        }
        let dense = flash_attention(
            &sanitized(q),
            &sanitized(k),
            &sanitized(v),
            true,
            FlashParams::default(),
        )?;
        let mut output = dense.output;
        // The dense kernel on sanitised inputs is finite by construction,
        // but a belt-and-braces scrub keeps the no-NaN-escape guarantee
        // unconditional.
        for x in output.as_mut_slice() {
            if !x.is_finite() {
                *x = 0.0;
            }
        }
        let mask = StructuredMask::dense_causal(q.rows(), k.rows());
        let stats = SampleAttentionStats {
            kv_ratio: 1.0,
            covered_mass: 1.0,
            alpha_satisfied: true,
            mask_density: 1.0,
            fallback_reason: reason,
            sampling_cost: CostReport::new(),
            filtering_cost: CostReport::new(),
            sparse_cost: dense.cost,
            tile_size: 0,
        };
        Ok(SampleAttentionOutput {
            output,
            mask,
            kv_indices: (0..k.rows()).collect(),
            stats,
        })
    }

    /// Runs only the mask-discovery stages (1 + 2 + merge) without the
    /// sparse kernel. Useful for sparsity analysis and for reusing one
    /// head's mask across a GQA group.
    ///
    /// When the merged mask is the full causal mask whatever stage 2
    /// picks ([`SampleAttentionConfig::mask_is_dense`]: a call no taller
    /// than the bottom area, or one whose window and sinks reach every key
    /// above it), stages 1 and 2 are skipped. The mask is then the merge of no
    /// stripes, which lives on the same pairs as any merge would, and
    /// the stats report full coverage (see [`SampleAttentionStats`]).
    ///
    /// # Errors
    ///
    /// Returns [`SampleAttentionError::Tensor`] on Q/K shape mismatch, and
    /// on tripped discovery-stage health sentinels: non-finite or
    /// zero-mass sampled scores, α coverage short of the configured
    /// tolerance, or a degenerate merged mask. (Policy dispatch happens in
    /// [`forward`](Self::forward); this method always propagates.)
    pub fn discover_mask(&self, q: &Matrix, k: &Matrix) -> Result<DiscoveredMask, SampleAttentionError> {
        let panels = KeyPanels::from_rows(k);
        self.discover_mask_prepared(q, PreparedKeys::new(k, &panels))
    }

    /// [`discover_mask`](Self::discover_mask) on keys whose panels the
    /// caller already holds.
    ///
    /// # Errors
    ///
    /// As [`discover_mask`](Self::discover_mask).
    pub fn discover_mask_prepared(
        &self,
        q: &Matrix,
        keys: PreparedKeys<'_>,
    ) -> Result<DiscoveredMask, SampleAttentionError> {
        let k = keys.rows();
        if self.config.mask_is_dense(q.rows(), k.rows()) {
            return self.dense_by_construction(q, k);
        }
        let stage1 = sa_trace::span_in("core", "stage1_sampling");
        let sampled = sample_attention_scores_prepared(
            q,
            keys,
            self.config.effective_sample_ratio(q.rows()),
        )?;
        // Sentinel B: the stage-1 reduction must produce finite scores
        // with mass whenever any sampled row has live causal keys.
        let bad = count_nonfinite(&sampled.column_scores);
        if bad > 0 {
            sentinel_trip();
            return Err(SaError::NonFinite {
                stage: "sampled_scores",
                head: None,
                count: bad,
            }
            .into());
        }
        let live_rows = sampled
            .sampled_rows
            .iter()
            .any(|&i| causal_width(i, q.rows(), k.rows()) > 0);
        if live_rows && sampled.total_mass() <= 0.0 {
            sentinel_trip();
            return Err(SaError::DegenerateMask {
                stage: "stage1_scores",
                what: format!(
                    "zero sampled mass over {} sampled rows",
                    sampled.sampled_rows.len()
                ),
            }
            .into());
        }
        drop(stage1);
        let stage2 = sa_trace::span_in("core", "stage2_filtering");
        let filtered = filter_kv_indices(
            &sampled.column_scores,
            self.config.cra_threshold,
            self.config.max_kv_ratio,
            &self.schedule,
        )?;
        if !filtered.alpha_satisfied {
            sa_trace::counter_add!("core.alpha_miss", 1);
        }
        // Sentinel C (α half): only under a positive tolerance — a
        // deliberate `max_kv_ratio` cap legitimately under-covers, so the
        // default (0.0) keeps capped configs working unchanged.
        let tolerance = self.config.alpha_fallback_tolerance;
        if tolerance > 0.0
            && !filtered.alpha_satisfied
            && self.config.cra_threshold - filtered.covered_mass > tolerance
        {
            sentinel_trip();
            return Err(SaError::AlphaUnsatisfied {
                covered: filtered.covered_mass,
                alpha: self.config.cra_threshold,
                head: None,
            }
            .into());
        }
        drop(stage2);
        let _merge = sa_trace::span_in("core", "mask_merge");
        let mask = merge_mask(q.rows(), k.rows(), &filtered.indices, &self.config)?;
        // Sentinel C (mask half): the merge always includes the local
        // window, so an empty mask over a non-empty causal triangle means
        // the discovery stages collapsed.
        if mask.nnz() == 0 && mask.causal_nnz() > 0 {
            sentinel_trip();
            return Err(SaError::DegenerateMask {
                stage: "mask_merge",
                what: "merged mask kept nothing of a non-empty causal triangle".to_string(),
            }
            .into());
        }
        sa_trace::histogram_record!("core.mask_nnz", mask.nnz() as u64);
        let stats = SampleAttentionStats {
            kv_ratio: filtered.kv_ratio,
            covered_mass: filtered.covered_mass,
            alpha_satisfied: filtered.alpha_satisfied,
            mask_density: mask.density(),
            fallback_reason: FallbackReason::None,
            sampling_cost: sampled.cost,
            filtering_cost: filtered.cost,
            sparse_cost: CostReport::new(),
            tile_size: 0,
        };
        Ok(DiscoveredMask {
            mask,
            kv_indices: filtered.indices,
            stats,
        })
    }

    /// Discovery of a call whose merged mask is dense by construction:
    /// the merge of no stripes, so the engine gathers none.
    fn dense_by_construction(
        &self,
        q: &Matrix,
        k: &Matrix,
    ) -> Result<DiscoveredMask, SampleAttentionError> {
        if q.cols() != k.cols() {
            return Err(SaError::ShapeMismatch {
                op: "sample_attention_scores",
                lhs: q.shape(),
                rhs: k.shape(),
            }
            .into());
        }
        sa_trace::counter_add!("core.discovery_skipped", 1);
        let mask = merge_mask(q.rows(), k.rows(), &[], &self.config)?;
        sa_trace::histogram_record!("core.mask_nnz", mask.nnz() as u64);
        let stats = SampleAttentionStats {
            kv_ratio: 1.0,
            covered_mass: 1.0,
            alpha_satisfied: true,
            mask_density: 1.0,
            fallback_reason: FallbackReason::None,
            sampling_cost: CostReport::new(),
            filtering_cost: CostReport::new(),
            sparse_cost: CostReport::new(),
            tile_size: 0,
        };
        Ok(DiscoveredMask {
            mask,
            kv_indices: Vec::new(),
            stats,
        })
    }
}

/// Records one tripped health sentinel in the trace registry.
fn sentinel_trip() {
    sa_trace::counter_add!("core.sentinel_trips", 1);
}

/// A copy with non-finite entries replaced by zero (the dense-fallback
/// input sanitiser).
fn sanitized(m: &Matrix) -> Matrix {
    let mut out = m.clone();
    for x in out.as_mut_slice() {
        if !x.is_finite() {
            *x = 0.0;
        }
    }
    out
}

/// What [`SampleAttention::plan_prepared`] leaves to do for one head.
#[derive(Debug, Clone)]
pub enum SamplePlan {
    /// A sentinel tripped and the health policy produced the head's
    /// output already (a dense fallback).
    Done(SampleAttentionOutput),
    /// The sparse kernel under the discovered mask, then
    /// [`SampleAttention::finish_prepared`].
    Engine(DiscoveredMask),
}

/// A discovered (but not yet executed) structured mask with its discovery
/// statistics.
#[derive(Debug, Clone)]
pub struct DiscoveredMask {
    /// The merged mask.
    pub mask: StructuredMask,
    /// Selected stripe indices.
    pub kv_indices: Vec<usize>,
    /// Stats with `sparse_cost` still zero.
    pub stats: SampleAttentionStats,
}

#[cfg(test)]
mod tests {
    use super::*;
    use sa_kernels::full_attention;
    use sa_tensor::{cosine_similarity, DeterministicRng};

    fn qkv(s: usize, d: usize, seed: u64) -> (Matrix, Matrix, Matrix) {
        let mut rng = DeterministicRng::new(seed);
        (
            rng.normal_matrix(s, d, 1.0),
            rng.normal_matrix(s, d, 1.0),
            rng.normal_matrix(s, d, 1.0),
        )
    }

    /// Q/K engineered so attention has strong sink + window + stripe
    /// structure (what real long-context heads look like).
    fn structured_qkv(s: usize, d: usize, seed: u64) -> (Matrix, Matrix, Matrix) {
        let mut rng = DeterministicRng::new(seed);
        let mut k = rng.normal_matrix(s, d, 0.3);
        // Sink: key 0 has a large norm along the queries' shared direction
        // (strong enough to dominate an S-way softmax).
        for j in 0..d {
            let v = k.get(0, j);
            k.set(0, j, v + 4.0);
        }
        // Stripe: key s/2 likewise.
        for j in 0..d {
            let v = k.get(s / 2, j);
            k.set(s / 2, j, v + 4.0);
        }
        let q = Matrix::from_fn(s, d, |_, _| 0.5 + 0.1 * rng.normal());
        let v = rng.normal_matrix(s, d, 1.0);
        (q, k, v)
    }

    #[test]
    fn output_shape_and_mask_validity() {
        let (q, k, v) = qkv(200, 16, 1);
        let attn = SampleAttention::new(SampleAttentionConfig::paper_default());
        let out = attn.forward(&q, &k, &v).unwrap();
        assert_eq!(out.output.shape(), (200, 16));
        assert_eq!(out.mask.s_q(), 200);
        assert!(out.stats.mask_density > 0.0 && out.stats.mask_density <= 1.0);
    }

    #[test]
    fn near_lossless_on_structured_heads() {
        let (q, k, v) = structured_qkv(256, 16, 2);
        let attn = SampleAttention::new(SampleAttentionConfig::paper_default());
        let sparse = attn.forward(&q, &k, &v).unwrap();
        let exact = full_attention(&q, &k, &v, true).unwrap();
        let sim = cosine_similarity(sparse.output.as_slice(), exact.output.as_slice());
        assert!(sim > 0.99, "cosine similarity {sim}");
        // And it actually sparsified.
        assert!(sparse.stats.mask_density < 0.6, "density {}", sparse.stats.mask_density);
    }

    #[test]
    fn discovers_engineered_stripes() {
        let (q, k, _) = structured_qkv(256, 16, 3);
        let attn = SampleAttention::new(SampleAttentionConfig::paper_default());
        let discovered = attn.discover_mask(&q, &k).unwrap();
        // The sink at 0 and stripe at 128 must be in I_KV.
        assert!(discovered.kv_indices.contains(&0), "{:?}", &discovered.kv_indices[..8.min(discovered.kv_indices.len())]);
        assert!(discovered.kv_indices.contains(&128));
    }

    #[test]
    fn higher_alpha_gives_denser_mask() {
        let (q, k, v) = qkv(128, 8, 4);
        let lo = SampleAttention::new(
            SampleAttentionConfig::builder().cra_threshold(0.5).build().unwrap(),
        );
        let hi = SampleAttention::new(
            SampleAttentionConfig::builder().cra_threshold(0.99).build().unwrap(),
        );
        let dl = lo.forward(&q, &k, &v).unwrap().stats.mask_density;
        let dh = hi.forward(&q, &k, &v).unwrap().stats.mask_density;
        assert!(dh >= dl, "{dh} vs {dl}");
    }

    #[test]
    fn alpha_one_recovers_exact_output() {
        let (q, k, v) = qkv(64, 8, 5);
        let cfg = SampleAttentionConfig::builder()
            .cra_threshold(1.0)
            .sample_ratio(1.0)
            .window_ratio(0.05)
            .build()
            .unwrap();
        let attn = SampleAttention::new(cfg);
        let sparse = attn.forward(&q, &k, &v).unwrap();
        let exact = full_attention(&q, &k, &v, true).unwrap();
        let diff = sa_tensor::max_abs_diff(sparse.output.as_slice(), exact.output.as_slice());
        assert!(diff < 1e-3, "max diff {diff}");
    }

    #[test]
    fn stats_costs_populated() {
        let (q, k, v) = qkv(128, 8, 6);
        let attn = SampleAttention::new(SampleAttentionConfig::paper_default());
        let out = attn.forward(&q, &k, &v).unwrap();
        assert!(out.stats.sampling_cost.flops > 0);
        assert!(out.stats.sparse_cost.flops > 0);
        let frac = out.stats.sampling_overhead_fraction();
        assert!(frac > 0.0 && frac < 1.0, "{frac}");
        let total = out.stats.total_cost();
        assert_eq!(
            total.flops,
            out.stats.sampling_cost.flops
                + out.stats.filtering_cost.flops
                + out.stats.sparse_cost.flops
        );
    }

    #[test]
    fn shape_mismatch_propagates() {
        let (q, k, _) = qkv(16, 8, 7);
        let bad_v = Matrix::zeros(8, 8);
        let attn = SampleAttention::new(SampleAttentionConfig::paper_default());
        assert!(attn.forward(&q, &k, &bad_v).is_err());
    }

    #[test]
    fn nan_inputs_fall_back_to_dense() {
        let (mut q, k, v) = qkv(96, 8, 20);
        q.set(10, 3, f32::NAN);
        q.set(40, 0, f32::INFINITY);
        let attn = SampleAttention::new(SampleAttentionConfig::paper_default());
        let out = attn.forward(&q, &k, &v).unwrap();
        assert_eq!(out.stats.fallback_reason, FallbackReason::NonFiniteInputs);
        assert!(out.stats.fell_back());
        assert!(out.output.as_slice().iter().all(|x| x.is_finite()));
        // The fallback equals dense attention on the sanitised inputs.
        let exact = full_attention(&sanitized(&q), &k, &v, true).unwrap();
        let diff = sa_tensor::max_abs_diff(out.output.as_slice(), exact.output.as_slice());
        assert!(diff < 1e-4, "max diff {diff}");
        // Fallback stats report full coverage.
        assert_eq!(out.stats.kv_ratio, 1.0);
        assert!(out.stats.alpha_satisfied);
        assert_eq!(out.kv_indices.len(), k.rows());
    }

    #[test]
    fn propagate_policy_surfaces_typed_error() {
        let (mut q, k, v) = qkv(64, 8, 21);
        q.set(0, 0, f32::NAN);
        let cfg = SampleAttentionConfig::builder()
            .health_policy(crate::HealthPolicy::Propagate)
            .build()
            .unwrap();
        let attn = SampleAttention::new(cfg);
        match attn.forward(&q, &k, &v) {
            Err(SampleAttentionError::Tensor(SaError::NonFinite { stage, count, .. })) => {
                assert_eq!(stage, "inputs");
                assert_eq!(count, 1);
            }
            other => panic!("expected NonFinite, got {other:?}"),
        }
    }

    #[test]
    fn healthy_heads_record_no_fallback() {
        let (q, k, v) = structured_qkv(128, 8, 22);
        let attn = SampleAttention::new(SampleAttentionConfig::paper_default());
        let out = attn.forward(&q, &k, &v).unwrap();
        assert_eq!(out.stats.fallback_reason, FallbackReason::None);
        assert!(!out.stats.fell_back());
    }

    #[test]
    fn alpha_tolerance_triggers_fallback_when_enabled() {
        // A hard cap under-covers on random heads; with the α sentinel
        // enabled the head degrades to dense instead.
        let (q, k, v) = qkv(256, 8, 23);
        let capped = SampleAttentionConfig::builder()
            .cra_threshold(0.95)
            .max_kv_ratio(0.05)
            .window_ratio(0.01)
            .build()
            .unwrap();
        let strict = SampleAttentionConfig::builder()
            .cra_threshold(0.95)
            .max_kv_ratio(0.05)
            .window_ratio(0.01)
            .alpha_fallback_tolerance(0.01)
            .build()
            .unwrap();
        let plain = SampleAttention::new(capped).forward(&q, &k, &v).unwrap();
        // Precondition: the cap really does truncate coverage below α.
        assert!(!plain.stats.alpha_satisfied);
        assert!(plain.stats.covered_mass < 0.94);
        let fell = SampleAttention::new(strict).forward(&q, &k, &v).unwrap();
        assert_eq!(fell.stats.fallback_reason, FallbackReason::AlphaUnsatisfied);
        let exact = full_attention(&q, &k, &v, true).unwrap();
        let diff = sa_tensor::max_abs_diff(fell.output.as_slice(), exact.output.as_slice());
        assert!(diff < 1e-4, "max diff {diff}");
    }

    #[test]
    fn injected_worker_panic_degrades_gracefully() {
        let (q, k, v) = structured_qkv(128, 8, 24);
        let attn = SampleAttention::new(SampleAttentionConfig::paper_default());
        let plan = sa_tensor::fault::FaultPlan::new(7).worker_panic("sparse_flash_attention");
        let guard = sa_tensor::fault::install(plan);
        let out = attn.forward(&q, &k, &v).unwrap();
        drop(guard);
        assert_eq!(out.stats.fallback_reason, FallbackReason::WorkerPanic);
        assert!(out.output.as_slice().iter().all(|x| x.is_finite()));
        let exact = full_attention(&q, &k, &v, true).unwrap();
        let diff = sa_tensor::max_abs_diff(out.output.as_slice(), exact.output.as_slice());
        assert!(diff < 1e-4, "max diff {diff}");
    }

    #[test]
    fn stats_json_round_trip_with_fallback_reason() {
        let (q, k, v) = qkv(64, 8, 25);
        let attn = SampleAttention::new(SampleAttentionConfig::paper_default());
        let stats = attn.forward(&q, &k, &v).unwrap().stats;
        let s = sa_json::to_string(&stats);
        let back: SampleAttentionStats = sa_json::from_str(&s).unwrap();
        assert_eq!(back.fallback_reason, stats.fallback_reason);
        // Legacy payloads without the field parse with `None`.
        let legacy = s.replace(",\"fallback_reason\":\"None\"", "");
        assert!(!legacy.contains("fallback_reason"));
        let old: SampleAttentionStats = sa_json::from_str(&legacy).unwrap();
        assert_eq!(old.fallback_reason, FallbackReason::None);
    }

    #[test]
    fn coarse_schedule_also_near_lossless() {
        let (q, k, v) = structured_qkv(256, 16, 8);
        let attn = SampleAttention::with_schedule(
            SampleAttentionConfig::paper_default(),
            KvRatioSchedule::paper_coarse(),
        );
        let sparse = attn.forward(&q, &k, &v).unwrap();
        let exact = full_attention(&q, &k, &v, true).unwrap();
        let sim = cosine_similarity(sparse.output.as_slice(), exact.output.as_slice());
        assert!(sim > 0.99, "cosine similarity {sim}");
    }

    #[test]
    fn traced_forward_emits_stage_spans() {
        let _session = sa_trace::scoped();
        let (q, k, v) = structured_qkv(128, 8, 30);
        let attn = SampleAttention::new(SampleAttentionConfig::paper_default());
        let out = attn.forward(&q, &k, &v).unwrap();
        assert_eq!(out.stats.tile_size, ENGINE_BLOCK);
        let events = sa_trace::drain();
        let has = |name: &str| events.iter().any(|e| e.cat == "core" && e.name == name);
        for stage in ["stage1_sampling", "stage2_filtering", "mask_merge", "sparse_kernel"] {
            assert!(has(stage), "missing {stage} span");
        }
        assert!(!has("dense_fallback"), "healthy head must not fall back");
        let snap = sa_trace::metrics::snapshot();
        let hist = |name: &str| {
            snap.histograms
                .iter()
                .find(|h| h.name == name)
                .unwrap_or_else(|| panic!("{name} histogram"))
        };
        let nnz = hist("core.mask_nnz");
        assert_eq!(nnz.count, 1);
        assert!(nnz.max > 0);
        // Attempted work sits beside useful work: the engine scores at
        // least every live pair.
        let scored = hist("core.kernel_scored_pairs");
        assert_eq!(scored.count, 1);
        assert!(scored.sum >= nnz.sum, "{} < {}", scored.sum, nnz.sum);
    }

    #[test]
    fn traced_call_dense_by_construction_skips_discovery() {
        // 32 rows against 96 keys: every row is in the bottom area, as in
        // a serving chunk.
        let mut rng = DeterministicRng::new(32);
        let q = rng.normal_matrix(32, 8, 1.0);
        let (_, k, v) = qkv(96, 8, 32);
        let attn = SampleAttention::new(SampleAttentionConfig::paper_default());
        assert!(attn.config().mask_is_dense(32, 96));
        let _session = sa_trace::scoped();
        let out = attn.forward(&q, &k, &v).unwrap();
        assert_eq!(out.stats.tile_size, ENGINE_BLOCK);
        assert!(!out.stats.fell_back());
        let causal = StructuredMask::builder(32, 96).window(8).dense_tail_rows(32);
        assert_eq!(out.mask, causal.build().unwrap());
        let events = sa_trace::drain();
        let has = |name: &str| events.iter().any(|e| e.cat == "core" && e.name == name);
        for stage in ["stage1_sampling", "stage2_filtering", "mask_merge", "dense_fallback"] {
            assert!(!has(stage), "{stage} span in a skipped call");
        }
        assert!(has("sparse_kernel"));
        assert_eq!(sa_trace::metrics::counter("core.discovery_skipped").get(), 1);
        assert_eq!(sa_trace::metrics::counter("core.alpha_miss").get(), 0);
        // One row more than the bottom area, and the window short of the
        // keys: discovery runs.
        let q = rng.normal_matrix(33, 8, 1.0);
        assert!(!attn.config().mask_is_dense(33, 96));
        attn.forward(&q, &k, &v).unwrap();
        assert!(sa_trace::drain().iter().any(|e| e.name == "stage1_sampling"));
        assert_eq!(sa_trace::metrics::counter("core.discovery_skipped").get(), 1);
    }

    #[test]
    fn skipped_discovery_still_rejects_mismatched_shapes() {
        let (q, _, _) = qkv(16, 8, 33);
        let (_, k, _) = qkv(16, 4, 34);
        let attn = SampleAttention::new(SampleAttentionConfig::paper_default());
        assert!(attn.config().mask_is_dense(16, 16));
        assert!(matches!(
            attn.discover_mask(&q, &k),
            Err(SampleAttentionError::Tensor(SaError::ShapeMismatch { .. }))
        ));
    }

    #[test]
    fn traced_fallback_counts_reason_and_sentinel() {
        let _session = sa_trace::scoped();
        let (mut q, k, v) = qkv(96, 8, 31);
        q.set(5, 5, f32::NAN);
        let attn = SampleAttention::new(SampleAttentionConfig::paper_default());
        let out = attn.forward(&q, &k, &v).unwrap();
        assert_eq!(out.stats.fallback_reason, FallbackReason::NonFiniteInputs);
        assert_eq!(
            sa_trace::metrics::counter("core.fallback.NonFiniteInputs").get(),
            1
        );
        assert_eq!(sa_trace::metrics::counter("core.sentinel_trips").get(), 1);
        let events = sa_trace::drain();
        assert!(events
            .iter()
            .any(|e| e.cat == "core" && e.name == "dense_fallback"));
    }

    #[test]
    fn fallback_reason_as_str_matches_json_encoding() {
        for reason in FallbackReason::DEGRADATIONS {
            let json = sa_json::to_string(&sa_json::ToJson::to_json(&reason));
            assert_eq!(json, format!("\"{}\"", reason.as_str()));
        }
        assert_eq!(FallbackReason::None.as_str(), "None");
    }

    #[test]
    fn sparse_cheaper_than_full_on_long_sequences() {
        let (q, k, v) = structured_qkv(512, 16, 9);
        let attn = SampleAttention::new(SampleAttentionConfig::paper_default());
        let sparse = attn.forward(&q, &k, &v).unwrap();
        let exact = full_attention(&q, &k, &v, true).unwrap();
        let total = sparse.stats.total_cost();
        assert!(
            total.flops < exact.cost.flops,
            "sparse {} vs full {}",
            total.flops,
            exact.cost.flops
        );
    }
}
