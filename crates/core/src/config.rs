use crate::SampleAttentionError;

/// What [`SampleAttention::forward`](crate::SampleAttention::forward) does
/// when a numerical-health sentinel trips (non-finite values, degenerate
/// masks, zero sampled mass, α shortfall beyond the configured tolerance,
/// or a worker panic inside a kernel).
///
/// See DESIGN.md, "Failure model & degradation policy".
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub enum HealthPolicy {
    /// Return the typed [`SaError`](sa_tensor::SaError) to the caller.
    Propagate,
    /// Transparently re-run the head with dense [`flash_attention`]
    /// (non-finite inputs sanitised to 0.0 first) and record the fallback
    /// in the stats. The default: a single sick head degrades to the
    /// dense baseline instead of poisoning the forward pass.
    ///
    /// [`flash_attention`]: sa_kernels::flash_attention
    #[default]
    FallbackDense,
}

sa_json::impl_json_enum!(HealthPolicy {
    Propagate,
    FallbackDense
});

/// Hyper-parameters of SampleAttention (the paper's Table 1).
///
/// | field | paper symbol | meaning |
/// |---|---|---|
/// | `cra_threshold` | `α` | desired cumulative residual attention |
/// | `sample_ratio` | `r_row` | fraction of query rows sampled in stage 1 |
/// | `window_ratio` | `r_w%` | local window size as a fraction of `S_k` |
///
/// Additional engineering knobs not in Table 1 but present in the
/// algorithm / kernel:
///
/// - `min_window`: a floor on the absolute window size so very short
///   sequences still keep a few local tokens;
/// - `forced_sinks`: key positions `0..forced_sinks` are always retained
///   (0 by default — the paper notes sinks are *discovered* by stage 2,
///   but the knob supports the StreamingLLM-style ablation);
/// - `max_kv_ratio`: a cap on `|I_KV| / S_k` guarding against degenerate
///   heads selecting everything (1.0 = no cap).
///
/// Construct via [`SampleAttentionConfig::builder`]; the defaults are the
/// paper's tuned operating point (`α = 0.95`, `r_row = 5 %`, `r_w = 8 %`).
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct SampleAttentionConfig {
    /// Desired CRA threshold `α` in `(0, 1]`.
    pub cra_threshold: f32,
    /// Stage-1 row sampling ratio `r_row` in `(0, 1]`.
    pub sample_ratio: f32,
    /// Local window ratio `r_w` in `[0, 1]`.
    pub window_ratio: f32,
    /// Minimum absolute window size in tokens.
    pub min_window: usize,
    /// Minimum number of sampled query rows in stage 1 (a real fused
    /// kernel samples at least a tile's worth of rows; this also keeps the
    /// column-score estimate stable on short prompts, where a bare
    /// `r_row` fraction would leave late columns covered by only one or
    /// two sampled rows).
    pub min_sample_rows: usize,
    /// Height of the dense "bottom area" (Figure 3): the last rows of the
    /// score matrix attend densely. They are the rows a decoder generates
    /// from, and the strided sample cannot judge the most recent keys.
    pub bottom_area_rows: usize,
    /// Key positions always kept (0 = rely on discovery).
    pub forced_sinks: usize,
    /// Cap on the selected stripe ratio, in `(0, 1]`.
    pub max_kv_ratio: f32,
    /// What to do when a numerical-health sentinel trips
    /// ([`HealthPolicy::FallbackDense`] by default).
    pub health_policy: HealthPolicy,
    /// How far `covered_mass` may fall below `α` before the head is
    /// treated as unhealthy (only under a positive tolerance; `0.0` — the
    /// default — disables the α sentinel entirely, since a deliberate
    /// `max_kv_ratio` cap legitimately leaves `alpha_satisfied == false`).
    pub alpha_fallback_tolerance: f32,
}

sa_json::impl_json_struct!(SampleAttentionConfig {
    cra_threshold,
    sample_ratio,
    window_ratio,
    min_window,
    min_sample_rows,
    bottom_area_rows,
    forced_sinks,
    max_kv_ratio,
    health_policy: default,
    alpha_fallback_tolerance: default
});

impl SampleAttentionConfig {
    /// Starts building a config from the paper's defaults.
    pub fn builder() -> SampleAttentionConfigBuilder {
        SampleAttentionConfigBuilder::default()
    }

    /// The paper's tuned operating point: `α=0.95`, `r_row=5 %`, `r_w=8 %`.
    pub fn paper_default() -> Self {
        SampleAttentionConfig {
            cra_threshold: 0.95,
            sample_ratio: 0.05,
            window_ratio: 0.08,
            min_window: 1,
            min_sample_rows: 32,
            bottom_area_rows: 32,
            forced_sinks: 0,
            max_kv_ratio: 1.0,
            health_policy: HealthPolicy::FallbackDense,
            alpha_fallback_tolerance: 0.0,
        }
    }

    /// Effective stage-1 sampling ratio for `s_q` query rows:
    /// `max(sample_ratio, min_sample_rows / s_q)`, capped at 1.
    pub fn effective_sample_ratio(&self, s_q: usize) -> f32 {
        if s_q == 0 {
            return self.sample_ratio;
        }
        self.sample_ratio
            .max(self.min_sample_rows as f32 / s_q as f32)
            .min(1.0)
    }

    /// Absolute window size for a sequence of `s_k` keys:
    /// `max(min_window, ⌈r_w · S_k⌉)`, clamped to `s_k`.
    pub fn window_size(&self, s_k: usize) -> usize {
        let w = (self.window_ratio * s_k as f32).ceil() as usize;
        w.max(self.min_window).min(s_k)
    }

    /// Whether the merged mask of an `s_q x s_k` call is the full causal
    /// mask whatever stage 2 selects: every row is in the bottom area, or
    /// the last row above it sees all its keys through the window and
    /// the sinks (`window + bottom_area_rows + forced_sinks >= s_k`). Then
    /// discovery cannot drop a pair, and
    /// [`SampleAttention`](crate::SampleAttention) skips stages 1 and 2.
    /// O(1), from the configuration alone.
    pub fn mask_is_dense(&self, s_q: usize, s_k: usize) -> bool {
        self.bottom_area_rows >= s_q
            || self
                .window_size(s_k)
                .saturating_add(self.bottom_area_rows)
                .saturating_add(self.forced_sinks.min(s_k))
                >= s_k
    }
}

impl Default for SampleAttentionConfig {
    fn default() -> Self {
        Self::paper_default()
    }
}

/// Builder for [`SampleAttentionConfig`], with range validation at
/// [`build`](SampleAttentionConfigBuilder::build).
#[derive(Debug, Clone)]
#[derive(Default)]
pub struct SampleAttentionConfigBuilder {
    config: SampleAttentionConfig,
}


impl SampleAttentionConfigBuilder {
    /// Sets the CRA threshold `α`.
    pub fn cra_threshold(mut self, alpha: f32) -> Self {
        self.config.cra_threshold = alpha;
        self
    }

    /// Sets the stage-1 sampling ratio `r_row`.
    pub fn sample_ratio(mut self, ratio: f32) -> Self {
        self.config.sample_ratio = ratio;
        self
    }

    /// Sets the local window ratio `r_w`.
    pub fn window_ratio(mut self, ratio: f32) -> Self {
        self.config.window_ratio = ratio;
        self
    }

    /// Sets the minimum absolute window size.
    pub fn min_window(mut self, tokens: usize) -> Self {
        self.config.min_window = tokens;
        self
    }

    /// Sets the minimum number of sampled rows in stage 1.
    pub fn min_sample_rows(mut self, rows: usize) -> Self {
        self.config.min_sample_rows = rows;
        self
    }

    /// Sets the dense bottom-area height in rows.
    pub fn bottom_area_rows(mut self, rows: usize) -> Self {
        self.config.bottom_area_rows = rows;
        self
    }

    /// Forces the first `n` key positions to be retained.
    pub fn forced_sinks(mut self, n: usize) -> Self {
        self.config.forced_sinks = n;
        self
    }

    /// Caps the stripe ratio selected by stage 2.
    pub fn max_kv_ratio(mut self, ratio: f32) -> Self {
        self.config.max_kv_ratio = ratio;
        self
    }

    /// Sets the response to a tripped numerical-health sentinel.
    pub fn health_policy(mut self, policy: HealthPolicy) -> Self {
        self.config.health_policy = policy;
        self
    }

    /// Sets how far `covered_mass` may fall below `α` before the head is
    /// treated as unhealthy (0.0 disables the α sentinel).
    pub fn alpha_fallback_tolerance(mut self, tolerance: f32) -> Self {
        self.config.alpha_fallback_tolerance = tolerance;
        self
    }

    /// Validates and builds the config.
    ///
    /// # Errors
    ///
    /// Returns [`SampleAttentionError::InvalidConfig`] if any field is out
    /// of range: `α ∈ (0, 1]`, `r_row ∈ (0, 1]`, `r_w ∈ [0, 1]`,
    /// `max_kv_ratio ∈ (0, 1]`, all finite.
    pub fn build(self) -> Result<SampleAttentionConfig, SampleAttentionError> {
        let c = self.config;
        let check_unit = |field: &'static str, v: f32, allow_zero: bool| {
            let lo_ok = if allow_zero { v >= 0.0 } else { v > 0.0 };
            if !v.is_finite() || !lo_ok || v > 1.0 {
                Err(SampleAttentionError::InvalidConfig {
                    field,
                    why: format!(
                        "must be in {}0, 1], got {v}",
                        if allow_zero { "[" } else { "(" }
                    ),
                })
            } else {
                Ok(())
            }
        };
        check_unit("cra_threshold", c.cra_threshold, false)?;
        check_unit("sample_ratio", c.sample_ratio, false)?;
        check_unit("window_ratio", c.window_ratio, true)?;
        check_unit("max_kv_ratio", c.max_kv_ratio, false)?;
        check_unit("alpha_fallback_tolerance", c.alpha_fallback_tolerance, true)?;
        Ok(c)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn defaults_match_paper() {
        let c = SampleAttentionConfig::default();
        assert_eq!(c.cra_threshold, 0.95);
        assert_eq!(c.sample_ratio, 0.05);
        assert_eq!(c.window_ratio, 0.08);
    }

    #[test]
    fn builder_round_trip() {
        let c = SampleAttentionConfig::builder()
            .cra_threshold(0.8)
            .sample_ratio(0.02)
            .window_ratio(0.04)
            .min_window(8)
            .min_sample_rows(16)
            .forced_sinks(4)
            .max_kv_ratio(0.5)
            .build()
            .unwrap();
        assert_eq!(c.cra_threshold, 0.8);
        assert_eq!(c.min_sample_rows, 16);
        assert_eq!(c.sample_ratio, 0.02);
        assert_eq!(c.window_ratio, 0.04);
        assert_eq!(c.min_window, 8);
        assert_eq!(c.forced_sinks, 4);
        assert_eq!(c.max_kv_ratio, 0.5);
    }

    #[test]
    fn rejects_out_of_range() {
        assert!(SampleAttentionConfig::builder().cra_threshold(0.0).build().is_err());
        assert!(SampleAttentionConfig::builder().cra_threshold(1.5).build().is_err());
        assert!(SampleAttentionConfig::builder().sample_ratio(0.0).build().is_err());
        assert!(SampleAttentionConfig::builder().window_ratio(-0.1).build().is_err());
        assert!(SampleAttentionConfig::builder().window_ratio(0.0).build().is_ok());
        assert!(SampleAttentionConfig::builder().max_kv_ratio(0.0).build().is_err());
        assert!(SampleAttentionConfig::builder().cra_threshold(f32::NAN).build().is_err());
    }

    #[test]
    fn window_size_rounds_up_and_clamps() {
        let c = SampleAttentionConfig::builder().window_ratio(0.08).build().unwrap();
        assert_eq!(c.window_size(100), 8);
        assert_eq!(c.window_size(99), 8); // ceil(7.92)
        assert_eq!(c.window_size(1), 1);
        let tiny = SampleAttentionConfig::builder()
            .window_ratio(0.01)
            .min_window(16)
            .build()
            .unwrap();
        assert_eq!(tiny.window_size(100), 16);
        assert_eq!(tiny.window_size(8), 8); // clamped to s_k
    }

    #[test]
    fn json_round_trip() {
        let c = SampleAttentionConfig::paper_default();
        let s = sa_json::to_string(&c);
        let back: SampleAttentionConfig = sa_json::from_str(&s).unwrap();
        assert_eq!(c, back);
    }

    #[test]
    fn health_fields_default_and_validate() {
        let c = SampleAttentionConfig::paper_default();
        assert_eq!(c.health_policy, HealthPolicy::FallbackDense);
        assert_eq!(c.alpha_fallback_tolerance, 0.0);
        let c = SampleAttentionConfig::builder()
            .health_policy(HealthPolicy::Propagate)
            .alpha_fallback_tolerance(0.1)
            .build()
            .unwrap();
        assert_eq!(c.health_policy, HealthPolicy::Propagate);
        assert_eq!(c.alpha_fallback_tolerance, 0.1);
        assert!(SampleAttentionConfig::builder()
            .alpha_fallback_tolerance(-0.5)
            .build()
            .is_err());
        assert!(SampleAttentionConfig::builder()
            .alpha_fallback_tolerance(f32::NAN)
            .build()
            .is_err());
    }

    #[test]
    fn old_json_without_health_fields_still_parses() {
        // Pre-health-policy payloads lack the two new keys: they must
        // parse with the defaults (FallbackDense, tolerance 0).
        let c = SampleAttentionConfig::paper_default();
        let s = sa_json::to_string(&c);
        let legacy = s
            .replace(",\"health_policy\":\"FallbackDense\"", "")
            .replace(",\"alpha_fallback_tolerance\":0.0", "");
        assert!(!legacy.contains("health_policy"), "{legacy}");
        let back: SampleAttentionConfig = sa_json::from_str(&legacy).unwrap();
        assert_eq!(back, c);
    }

    #[test]
    fn json_with_retired_kernel_fields_still_parses() {
        // Payloads written while the kernel was selectable carry two
        // keys that no longer exist; they are ignored.
        let c = SampleAttentionConfig::paper_default();
        let s = sa_json::to_string(&c);
        let old = s.replacen('}', ",\"sparse_kernel\":\"Tiled\",\"tile_size\":0}", 1);
        assert!(old.contains("sparse_kernel"), "{old}");
        let back: SampleAttentionConfig = sa_json::from_str(&old).unwrap();
        assert_eq!(back, c);
    }
}
