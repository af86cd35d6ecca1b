//! BigBird: static window + global tokens + random columns.
//!
//! The paper's configuration (§5.2): window ratio 8 %, global ratio 8 %.
//! Global tokens are the first `⌈r_g·S⌉` positions (every query attends to
//! them and they attend to everything — in causal prefill only the former
//! matters); random columns are drawn once per forward from the
//! construction seed.

use sa_kernels::StructuredMask;
use sa_tensor::{DeterministicRng, Matrix, TensorError};

use crate::method::forward_alone;
use crate::{AttentionMethod, MethodOutput};

/// BigBird sparse attention (static structured pattern).
#[derive(Debug, Clone)]
pub struct BigBird {
    window_ratio: f32,
    global_ratio: f32,
    random_ratio: f32,
    seed: u64,
}

impl BigBird {
    /// Creates BigBird with the paper's comparison settings
    /// (window 8 %, global 8 %, no extra random columns).
    pub fn paper_config(seed: u64) -> Self {
        BigBird {
            window_ratio: 0.08,
            global_ratio: 0.08,
            random_ratio: 0.0,
            seed,
        }
    }

    /// Creates BigBird with explicit ratios.
    ///
    /// # Errors
    ///
    /// Returns [`TensorError::InvalidDimension`] if any ratio is outside
    /// `[0, 1]`.
    pub fn new(
        window_ratio: f32,
        global_ratio: f32,
        random_ratio: f32,
        seed: u64,
    ) -> Result<Self, TensorError> {
        for (name, r) in [
            ("window_ratio", window_ratio),
            ("global_ratio", global_ratio),
            ("random_ratio", random_ratio),
        ] {
            if !(0.0..=1.0).contains(&r) || !r.is_finite() {
                return Err(TensorError::InvalidDimension {
                    op: "BigBird::new",
                    what: format!("{name} must be in [0, 1], got {r}"),
                });
            }
        }
        Ok(BigBird {
            window_ratio,
            global_ratio,
            random_ratio,
            seed,
        })
    }

    /// Builds the static BigBird mask for an `s_q x s_k` problem.
    pub fn build_mask(&self, s_q: usize, s_k: usize) -> StructuredMask {
        let globals = (self.global_ratio * s_k as f32).ceil() as usize;
        let window = (self.window_ratio * s_k as f32).ceil() as usize;
        let n_random = (self.random_ratio * s_k as f32).ceil() as usize;
        let mut rng = DeterministicRng::new(self.seed);
        let random_cols = rng.distinct_indices(s_k, n_random);
        StructuredMask::builder(s_q, s_k)
            .window(window.max(1))
            .sinks(globals)
            .columns(random_cols)
            .build()
            .expect("random columns are in range")
    }
}

impl AttentionMethod for BigBird {
    fn name(&self) -> &str {
        "BigBird"
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
    fn mask_contains_globals_window_and_randoms() {
        let bb = BigBird::new(0.1, 0.05, 0.05, 7).unwrap();
        let mask = bb.build_mask(100, 100);
        // globals: first 5 columns
        for g in 0..5 {
            assert!(mask.is_allowed(99, g));
        }
        // window: 10 tokens
        assert!(mask.is_allowed(99, 95));
        assert!(mask.density() < 0.5);
    }

    #[test]
    fn deterministic_given_seed() {
        let a = BigBird::new(0.05, 0.02, 0.1, 42).unwrap().build_mask(64, 64);
        let b = BigBird::new(0.05, 0.02, 0.1, 42).unwrap().build_mask(64, 64);
        assert_eq!(a, b);
        let c = BigBird::new(0.05, 0.02, 0.1, 43).unwrap().build_mask(64, 64);
        assert_ne!(a.extra_columns(), c.extra_columns());
    }

    #[test]
    fn forward_shape_and_density() {
        let mut rng = DeterministicRng::new(1);
        let q = rng.normal_matrix(80, 8, 1.0);
        let k = rng.normal_matrix(80, 8, 1.0);
        let v = rng.normal_matrix(80, 8, 1.0);
        let out = BigBird::paper_config(0).forward(&q, &k, &v).unwrap();
        assert_eq!(out.output.shape(), (80, 8));
        assert!(out.density > 0.0 && out.density < 1.0);
    }

    #[test]
    fn invalid_ratios_rejected() {
        assert!(BigBird::new(1.5, 0.0, 0.0, 0).is_err());
        assert!(BigBird::new(0.1, -0.1, 0.0, 0).is_err());
        assert!(BigBird::new(0.1, 0.0, f32::NAN, 0).is_err());
    }
}
