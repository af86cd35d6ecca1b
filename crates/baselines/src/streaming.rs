//! StreamingLLM: attention sinks + sliding window.
//!
//! Designed for infinite *decoding*; the paper shows (Table 2) that at the
//! prefill stage its fixed sink+window pattern drops the mid-context
//! information long-context tasks need.

use sa_kernels::StructuredMask;
use sa_tensor::{Matrix, TensorError};

use crate::method::forward_alone;
use crate::{AttentionMethod, MethodOutput};

/// StreamingLLM-style sparse attention (sinks + window).
#[derive(Debug, Clone)]
pub struct StreamingLlm {
    sink_tokens: usize,
    window_ratio: f32,
}

impl StreamingLlm {
    /// The paper's comparison settings: 4 sink tokens, 8 % window.
    pub fn paper_config() -> Self {
        StreamingLlm {
            sink_tokens: 4,
            window_ratio: 0.08,
        }
    }

    /// Creates with explicit settings.
    ///
    /// # Errors
    ///
    /// Returns [`TensorError::InvalidDimension`] if the window ratio is
    /// outside `[0, 1]`.
    pub fn new(sink_tokens: usize, window_ratio: f32) -> Result<Self, TensorError> {
        if !(0.0..=1.0).contains(&window_ratio) || !window_ratio.is_finite() {
            return Err(TensorError::InvalidDimension {
                op: "StreamingLlm::new",
                what: format!("window_ratio must be in [0, 1], got {window_ratio}"),
            });
        }
        Ok(StreamingLlm {
            sink_tokens,
            window_ratio,
        })
    }

    /// Builds the sink+window mask.
    pub fn build_mask(&self, s_q: usize, s_k: usize) -> StructuredMask {
        let window = ((self.window_ratio * s_k as f32).ceil() as usize).max(1);
        StructuredMask::builder(s_q, s_k)
            .window(window)
            .sinks(self.sink_tokens)
            .build()
            .expect("no explicit columns")
    }
}

impl AttentionMethod for StreamingLlm {
    fn name(&self) -> &str {
        "StreamingLLM"
    }

    fn forward(&self, q: &Matrix, k: &Matrix, v: &Matrix) -> Result<MethodOutput, TensorError> {
        forward_alone(self, q, k, v)
    }

    fn fixed_mask(&self, s_q: usize, s_k: usize) -> Option<StructuredMask> {
        Some(self.build_mask(s_q, s_k))
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use sa_tensor::DeterministicRng;

    #[test]
    fn mask_shape() {
        let m = StreamingLlm::paper_config().build_mask(100, 100);
        assert!(m.is_allowed(99, 0));
        assert!(m.is_allowed(99, 3));
        assert!(!m.is_allowed(99, 50));
        assert!(m.is_allowed(99, 93));
    }

    #[test]
    fn drops_mid_context() {
        // The defining failure mode: mid-sequence keys invisible to late queries.
        let m = StreamingLlm::paper_config().build_mask(1000, 1000);
        assert!(!m.is_allowed(999, 500));
        assert!(m.density() < 0.2);
    }

    #[test]
    fn forward_works() {
        let mut rng = DeterministicRng::new(2);
        let q = rng.normal_matrix(64, 8, 1.0);
        let k = rng.normal_matrix(64, 8, 1.0);
        let v = rng.normal_matrix(64, 8, 1.0);
        let out = StreamingLlm::paper_config().forward(&q, &k, &v).unwrap();
        assert_eq!(out.output.shape(), (64, 8));
        assert_eq!(out.cost.kernel_launches, 1);
    }

    #[test]
    fn invalid_ratio_rejected() {
        assert!(StreamingLlm::new(4, 2.0).is_err());
    }
}
