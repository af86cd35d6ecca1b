//! Mask merging: `M_Merged = merge_mask(I_KV_per_head, r_w)`.
//!
//! Combines the stage-2 stripe indices with the tuned local window (and
//! any forced sinks) into the [`StructuredMask`] the sparse kernel
//! consumes. The "bottom area" of the paper's Figure 3 — the causal
//! diagonal region every query must keep — is the window's job; the
//! merge guarantees a nonzero window so no query row is left empty.

use sa_kernels::StructuredMask;
use sa_tensor::TensorError;

use crate::SampleAttentionConfig;

/// Builds the merged structured mask for an `s_q x s_k` problem from the
/// selected stripe indices and the config's window/sink settings.
///
/// # Errors
///
/// Returns [`TensorError::InvalidDimension`] if any stripe index is out of
/// range (`>= s_k`).
///
/// # Example
///
/// ```
/// use sa_core::{merge_mask, SampleAttentionConfig};
///
/// # fn main() -> Result<(), sa_tensor::TensorError> {
/// let cfg = SampleAttentionConfig::paper_default();
/// let mask = merge_mask(128, 128, &[3, 40, 77], &cfg)?;
/// assert!(mask.is_allowed(100, 40));          // stripe
/// assert!(mask.is_allowed(100, 95));          // window (8% of 128 ≈ 11)
/// assert_eq!(mask.window(), 11);              // ceil(0.08 * 128)
/// # Ok(())
/// # }
/// ```
pub fn merge_mask(
    s_q: usize,
    s_k: usize,
    kv_indices: &[usize],
    config: &SampleAttentionConfig,
) -> Result<StructuredMask, TensorError> {
    merge_mask_with_diagonals(s_q, s_k, kv_indices, &[], config)
}

/// [`merge_mask`] plus explicit relative diagonal offsets (the Appendix
/// A.6 extension pattern).
///
/// # Errors
///
/// Returns [`TensorError::InvalidDimension`] if any stripe index is out
/// of range.
pub fn merge_mask_with_diagonals(
    s_q: usize,
    s_k: usize,
    kv_indices: &[usize],
    diagonals: &[usize],
    config: &SampleAttentionConfig,
) -> Result<StructuredMask, TensorError> {
    StructuredMask::builder(s_q, s_k)
        .window(config.window_size(s_k))
        .sinks(config.forced_sinks)
        .columns(kv_indices.to_vec())
        .diagonals(diagonals.to_vec())
        .dense_tail_rows(config.bottom_area_rows)
        .build()
}

#[cfg(test)]
mod tests {
    use super::*;

    fn cfg(window_ratio: f32) -> SampleAttentionConfig {
        SampleAttentionConfig::builder()
            .window_ratio(window_ratio)
            .build()
            .unwrap()
    }

    #[test]
    fn merges_window_and_stripes() {
        let mask = merge_mask(100, 100, &[10, 50], &cfg(0.08)).unwrap();
        assert_eq!(mask.window(), 8);
        // Row 50 is above the bottom area: window + stripes only.
        assert!(mask.is_allowed(50, 10));
        assert!(mask.is_allowed(50, 50));
        assert!(mask.is_allowed(50, 45));
        assert!(!mask.is_allowed(50, 30));
    }

    #[test]
    fn bottom_area_rows_are_dense() {
        // The last `bottom_area_rows` rows (Figure 3's bottom area)
        // attend to every causal key.
        let mask = merge_mask(100, 100, &[], &cfg(0.08)).unwrap();
        assert!(mask.is_allowed(99, 30));
        assert!(mask.is_allowed(99, 0));
        assert!(mask.is_allowed(69, 0)); // 100 - 32 = 68: row 69 is dense
        assert!(!mask.is_allowed(50, 0));
        assert_eq!(mask.dense_tail_rows(), 32);
    }

    #[test]
    fn min_window_guarantees_nonempty_rows() {
        let c = SampleAttentionConfig::builder()
            .window_ratio(0.0)
            .min_window(1)
            .build()
            .unwrap();
        let mask = merge_mask(16, 16, &[], &c).unwrap();
        for i in 0..16 {
            assert!(mask.row_nnz(i) >= 1, "row {i} empty");
        }
    }

    #[test]
    fn forced_sinks_present() {
        let c = SampleAttentionConfig::builder().forced_sinks(4).build().unwrap();
        let mask = merge_mask(64, 64, &[], &c).unwrap();
        for s in 0..4 {
            assert!(mask.is_allowed(63, s));
        }
    }

    #[test]
    fn out_of_range_stripe_rejected() {
        assert!(merge_mask(8, 8, &[8], &cfg(0.1)).is_err());
    }

    #[test]
    fn rectangular_merge() {
        let mask = merge_mask(4, 32, &[2], &cfg(0.25)).unwrap();
        assert_eq!(mask.window(), 8);
        assert!(mask.is_allowed(0, 2));
        assert!(!mask.is_allowed(0, 30)); // non-causal for row 0 (end = 28)
        assert!(mask.is_allowed(3, 31));
    }
}
