//! Pure sliding-window attention (ablation helper).

use sa_kernels::StructuredMask;
use sa_tensor::{Matrix, TensorError};

use crate::method::forward_alone;
use crate::{AttentionMethod, MethodOutput};

/// Window-only sparse attention: each query sees its last
/// `⌈window_ratio · S_k⌉` keys.
#[derive(Debug, Clone)]
pub struct WindowOnly {
    window_ratio: f32,
}

impl WindowOnly {
    /// Creates the method.
    ///
    /// # Errors
    ///
    /// Returns [`TensorError::InvalidDimension`] if the ratio is outside
    /// `(0, 1]`.
    pub fn new(window_ratio: f32) -> Result<Self, TensorError> {
        if !(window_ratio > 0.0 && window_ratio <= 1.0) {
            return Err(TensorError::InvalidDimension {
                op: "WindowOnly::new",
                what: format!("window_ratio must be in (0, 1], got {window_ratio}"),
            });
        }
        Ok(WindowOnly { window_ratio })
    }

    /// Builds the window mask.
    pub fn build_mask(&self, s_q: usize, s_k: usize) -> StructuredMask {
        let window = ((self.window_ratio * s_k as f32).ceil() as usize).max(1);
        StructuredMask::builder(s_q, s_k)
            .window(window)
            .build()
            .expect("no explicit columns")
    }
}

impl AttentionMethod for WindowOnly {
    fn name(&self) -> &str {
        "WindowOnly"
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
    fn window_only_mask() {
        let m = WindowOnly::new(0.1).unwrap().build_mask(50, 50);
        assert!(m.is_allowed(49, 45));
        assert!(!m.is_allowed(49, 0));
        assert_eq!(m.extra_columns().len(), 0);
    }

    #[test]
    fn forward_and_validation() {
        let mut rng = DeterministicRng::new(3);
        let q = rng.normal_matrix(32, 4, 1.0);
        let k = rng.normal_matrix(32, 4, 1.0);
        let v = rng.normal_matrix(32, 4, 1.0);
        let out = WindowOnly::new(0.25).unwrap().forward(&q, &k, &v).unwrap();
        assert_eq!(out.output.shape(), (32, 4));
        assert!(WindowOnly::new(0.0).is_err());
        assert!(WindowOnly::new(1.5).is_err());
    }
}
