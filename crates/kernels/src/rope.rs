//! Rotary position embeddings (RoPE).
//!
//! Both backbone models in the paper (ChatGLM2, InternLM2) use rotary
//! positional encoding; the synthetic transformer substrate applies the
//! same transform so positional structure (local windows, long-range
//! stripes) interacts with attention scores the way it does in the real
//! models. Supports the linear "rope scaling" used by InternLM2-style
//! length extrapolation.

use sa_tensor::{Matrix, TensorError};

/// RoPE configuration.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct RopeConfig {
    /// Base for the inverse-frequency geometric series (10000.0 in the
    /// original RoFormer and both backbones).
    pub base: f32,
    /// Linear position scaling factor (1.0 = none; >1 stretches positions,
    /// the "rope scaling" extrapolation trick).
    pub scaling: f32,
}

impl Default for RopeConfig {
    fn default() -> Self {
        RopeConfig {
            base: 10_000.0,
            scaling: 1.0,
        }
    }
}

/// Applies rotary embeddings in place to an `(S, d)` matrix whose row `i`
/// is the vector at absolute position `position_offset + i`.
///
/// Pairs dimensions `(2t, 2t+1)` and rotates each by
/// `theta_t = (pos / scaling) * base^(-2t/d)`.
///
/// # Errors
///
/// Returns [`TensorError::InvalidDimension`] if `d` is odd or the scaling
/// is not positive.
pub fn apply_rope(
    x: &mut Matrix,
    position_offset: usize,
    config: RopeConfig,
) -> Result<(), TensorError> {
    let d = x.cols();
    if !d.is_multiple_of(2) {
        return Err(TensorError::InvalidDimension {
            op: "apply_rope",
            what: format!("head dimension must be even, got {d}"),
        });
    }
    RopeTable::new(config, d, position_offset, x.rows())?.apply(x)
}

/// Applies rotary embeddings to only the first `rotary_dims` columns of
/// `x` (partial rotary, as in ChatGLM's 2D-RoPE): dimensions beyond
/// `rotary_dims` pass through untouched, so content carried there matches
/// position-independently.
///
/// # Errors
///
/// Returns [`TensorError::InvalidDimension`] if `rotary_dims` is odd,
/// exceeds `x.cols()`, or the config is invalid.
pub fn apply_rope_partial(
    x: &mut Matrix,
    rotary_dims: usize,
    position_offset: usize,
    config: RopeConfig,
) -> Result<(), TensorError> {
    RopeTable::new(config, rotary_dims, position_offset, x.rows())?.apply(x)
}

/// The rotations of a run of positions, computed once and applied to as
/// many matrices as share them: a layer call rotates every query head
/// and every key head of its rows with one table, where each
/// [`apply_rope_partial`] call evaluates a sine and a cosine per rotated
/// pair of every row.
///
/// Each angle is computed exactly as [`apply_rope_partial`] computes it
/// and each pair is rotated by the same expression, so applying a table
/// leaves the same bits as the per-call rotation.
#[derive(Debug, Clone, PartialEq)]
pub struct RopeTable {
    rotary_dims: usize,
    /// `(cos, sin)` of every rotated pair, row-major: `rotary_dims / 2`
    /// entries per position.
    rotations: Vec<(f32, f32)>,
}

impl RopeTable {
    /// The rotations of the first `rotary_dims` dimensions at positions
    /// `position_offset..position_offset + rows`.
    ///
    /// # Errors
    ///
    /// Returns [`TensorError::InvalidDimension`] if `rotary_dims` is odd
    /// or the config's base or scaling is not positive.
    pub fn new(
        config: RopeConfig,
        rotary_dims: usize,
        position_offset: usize,
        rows: usize,
    ) -> Result<Self, TensorError> {
        if !rotary_dims.is_multiple_of(2) {
            return Err(TensorError::InvalidDimension {
                op: "apply_rope_partial",
                what: format!("rotary_dims must be even, got {rotary_dims}"),
            });
        }
        // Negated on purpose: a NaN base or scaling is rejected too.
        #[allow(clippy::neg_cmp_op_on_partial_ord)]
        let invalid = !(config.scaling > 0.0) || !(config.base > 0.0);
        if rotary_dims > 0 && invalid {
            return Err(TensorError::InvalidDimension {
                op: "apply_rope_partial",
                what: format!(
                    "base and scaling must be positive (base={}, scaling={})",
                    config.base, config.scaling
                ),
            });
        }
        let half = rotary_dims / 2;
        let inv_freq: Vec<f32> = (0..half)
            .map(|t| config.base.powf(-2.0 * t as f32 / rotary_dims as f32))
            .collect();
        let mut rotations = Vec::with_capacity(rows * half);
        for i in 0..rows {
            let pos = (position_offset + i) as f32 / config.scaling;
            rotations.extend(inv_freq.iter().map(|&f| {
                let (sin, cos) = (pos * f).sin_cos();
                (cos, sin)
            }));
        }
        Ok(RopeTable {
            rotary_dims,
            rotations,
        })
    }

    /// Positions the table covers.
    pub fn rows(&self) -> usize {
        self.rotations
            .len()
            .checked_div(self.rotary_dims / 2)
            .unwrap_or(0)
    }

    /// Rotates the leading `rotary_dims` columns of every row of `x`,
    /// row `i` at the table's `i`-th position.
    ///
    /// # Errors
    ///
    /// Returns [`TensorError::InvalidDimension`] if `x` is narrower than
    /// the rotated dimensions or, when any are rotated, its row count is
    /// not the table's.
    pub fn apply(&self, x: &mut Matrix) -> Result<(), TensorError> {
        if self.rotary_dims > x.cols() {
            return Err(TensorError::InvalidDimension {
                op: "apply_rope_partial",
                what: format!(
                    "rotary_dims {} exceeds matrix width {}",
                    self.rotary_dims,
                    x.cols()
                ),
            });
        }
        let half = self.rotary_dims / 2;
        if half == 0 {
            return Ok(());
        }
        if x.rows() != self.rows() {
            return Err(TensorError::InvalidDimension {
                op: "RopeTable::apply",
                what: format!("{} rows against a table of {}", x.rows(), self.rows()),
            });
        }
        for (i, rotations) in self.rotations.chunks_exact(half).enumerate() {
            let row = x.row_mut(i);
            for (pair, &(cos, sin)) in row.chunks_exact_mut(2).zip(rotations) {
                let (a, b) = (pair[0], pair[1]);
                pair[0] = a * cos - b * sin;
                pair[1] = a * sin + b * cos;
            }
        }
        Ok(())
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use sa_tensor::{matmul_transb, DeterministicRng};

    #[test]
    fn position_zero_is_identity() {
        let mut rng = DeterministicRng::new(1);
        let orig = rng.normal_matrix(1, 8, 1.0);
        let mut x = orig.clone();
        apply_rope(&mut x, 0, RopeConfig::default()).unwrap();
        for (a, b) in x.as_slice().iter().zip(orig.as_slice()) {
            assert!((a - b).abs() < 1e-6);
        }
    }

    #[test]
    fn rotation_preserves_norm() {
        let mut rng = DeterministicRng::new(2);
        let orig = rng.normal_matrix(10, 16, 1.0);
        let mut x = orig.clone();
        apply_rope(&mut x, 100, RopeConfig::default()).unwrap();
        for i in 0..10 {
            let n0: f32 = orig.row(i).iter().map(|v| v * v).sum();
            let n1: f32 = x.row(i).iter().map(|v| v * v).sum();
            assert!((n0 - n1).abs() < 1e-3, "row {i}: {n0} vs {n1}");
        }
    }

    #[test]
    fn dot_products_depend_only_on_relative_position() {
        // The defining property of RoPE: <R_m q, R_n k> depends on (m - n).
        let mut rng = DeterministicRng::new(3);
        let q = rng.normal_matrix(1, 8, 1.0);
        let k = rng.normal_matrix(1, 8, 1.0);
        let cfg = RopeConfig::default();

        let score = |m: usize, n: usize| {
            let mut qr = q.clone();
            let mut kr = k.clone();
            apply_rope(&mut qr, m, cfg).unwrap();
            apply_rope(&mut kr, n, cfg).unwrap();
            matmul_transb(&qr, &kr).unwrap().get(0, 0)
        };
        let a = score(5, 2);
        let b = score(105, 102);
        assert!((a - b).abs() < 1e-2, "{a} vs {b}");
    }

    #[test]
    fn scaling_compresses_rotation() {
        // With scaling = 2, position 10 rotates like position 5 unscaled.
        let mut rng = DeterministicRng::new(4);
        let base = rng.normal_matrix(1, 8, 1.0);
        let mut scaled = base.clone();
        apply_rope(
            &mut scaled,
            10,
            RopeConfig {
                scaling: 2.0,
                ..RopeConfig::default()
            },
        )
        .unwrap();
        let mut unscaled = base.clone();
        apply_rope(&mut unscaled, 5, RopeConfig::default()).unwrap();
        for (a, b) in scaled.as_slice().iter().zip(unscaled.as_slice()) {
            assert!((a - b).abs() < 1e-4);
        }
    }

    #[test]
    fn position_offset_matches_absolute() {
        let mut rng = DeterministicRng::new(5);
        let block = rng.normal_matrix(4, 8, 1.0);
        // Apply as one block at offset 0 vs two blocks at offsets 0 and 2.
        let mut whole = block.clone();
        apply_rope(&mut whole, 0, RopeConfig::default()).unwrap();
        let mut first = block.slice_rows(0, 2).unwrap();
        let mut second = block.slice_rows(2, 4).unwrap();
        apply_rope(&mut first, 0, RopeConfig::default()).unwrap();
        apply_rope(&mut second, 2, RopeConfig::default()).unwrap();
        for j in 0..8 {
            assert!((whole.get(2, j) - second.get(0, j)).abs() < 1e-5);
            assert!((whole.get(0, j) - first.get(0, j)).abs() < 1e-5);
        }
    }

    #[test]
    fn partial_rope_leaves_tail_untouched() {
        let mut rng = DeterministicRng::new(6);
        let orig = rng.normal_matrix(5, 12, 1.0);
        let mut x = orig.clone();
        apply_rope_partial(&mut x, 6, 40, RopeConfig::default()).unwrap();
        for i in 0..5 {
            // rotated head changed (position 40+ is far from identity)
            assert!(x.row(i)[..6] != orig.row(i)[..6]);
            // tail identical
            assert_eq!(&x.row(i)[6..], &orig.row(i)[6..]);
        }
    }

    #[test]
    fn partial_rope_full_width_matches_apply_rope() {
        let mut rng = DeterministicRng::new(7);
        let orig = rng.normal_matrix(3, 8, 1.0);
        let mut a = orig.clone();
        let mut b = orig;
        apply_rope(&mut a, 11, RopeConfig::default()).unwrap();
        apply_rope_partial(&mut b, 8, 11, RopeConfig::default()).unwrap();
        assert_eq!(a, b);
    }

    #[test]
    fn partial_rope_validation() {
        let mut x = Matrix::zeros(2, 8);
        assert!(apply_rope_partial(&mut x, 10, 0, RopeConfig::default()).is_err());
        assert!(apply_rope_partial(&mut x, 3, 0, RopeConfig::default()).is_err());
        assert!(apply_rope_partial(&mut x, 0, 0, RopeConfig::default()).is_ok());
    }

    #[test]
    fn one_table_rotates_every_matrix_as_a_sine_per_pair_would() {
        let config = RopeConfig {
            base: 10_000.0,
            scaling: 1.5,
        };
        for (rows, offset, rotary_dims) in [(1, 0, 8), (7, 4093, 8), (33, 11, 4), (5, 2, 0)] {
            let table = RopeTable::new(config, rotary_dims, offset, rows).unwrap();
            assert_eq!(table.rows(), if rotary_dims == 0 { 0 } else { rows });
            // One table, several matrices (a layer's query and key heads).
            for seed in 0..3 {
                let orig = DeterministicRng::new(seed).normal_matrix(rows, 12, 1.0);
                let mut want = orig.clone();
                for i in 0..rows {
                    let pos = (offset + i) as f32 / config.scaling;
                    let row = want.row_mut(i);
                    for t in 0..rotary_dims / 2 {
                        let inv_freq = config.base.powf(-2.0 * t as f32 / rotary_dims as f32);
                        let (sin, cos) = (pos * inv_freq).sin_cos();
                        let (a, b) = (row[2 * t], row[2 * t + 1]);
                        row[2 * t] = a * cos - b * sin;
                        row[2 * t + 1] = a * sin + b * cos;
                    }
                }
                let mut got = orig.clone();
                table.apply(&mut got).unwrap();
                let bits =
                    |m: &Matrix| m.as_slice().iter().map(|x| x.to_bits()).collect::<Vec<_>>();
                assert_eq!(
                    bits(&got),
                    bits(&want),
                    "rows {rows} offset {offset} seed {seed}"
                );
                let mut per_call = orig;
                apply_rope_partial(&mut per_call, rotary_dims, offset, config).unwrap();
                assert_eq!(bits(&per_call), bits(&want));
            }
        }
        let table = RopeTable::new(config, 8, 0, 4).unwrap();
        assert!(table.apply(&mut Matrix::zeros(5, 8)).is_err(), "row count");
        assert!(table.apply(&mut Matrix::zeros(4, 6)).is_err(), "width");
        assert!(RopeTable::new(config, 3, 0, 4).is_err());
    }

    #[test]
    fn odd_dimension_rejected() {
        let mut x = Matrix::zeros(2, 7);
        assert!(apply_rope(&mut x, 0, RopeConfig::default()).is_err());
    }

    #[test]
    fn invalid_config_rejected() {
        let mut x = Matrix::zeros(2, 8);
        assert!(apply_rope(&mut x, 0, RopeConfig { base: 10_000.0, scaling: 0.0 }).is_err());
        assert!(apply_rope(&mut x, 0, RopeConfig { base: -1.0, scaling: 1.0 }).is_err());
    }
}
