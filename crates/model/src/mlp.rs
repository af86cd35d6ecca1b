//! SwiGLU feed-forward block (the MLP both backbones use).
//!
//! Present for architectural fidelity and — more importantly — for cost
//! accounting: TTFT is attention + MLP + norms, and the paper's Table 4
//! latency breakdown depends on the MLP's FLOP share. Weights are random
//! and small-scaled so the block perturbs rather than destroys the
//! residual stream.

use sa_kernels::CostReport;
use sa_tensor::{
    matmul_packed, pool, DeterministicRng, Matrix, PackedWeights, TensorError, GEMM_BLOCK,
};

/// SwiGLU MLP: `down( silu(gate(x)) * up(x) )`.
///
/// The weights are packed once, at build: gate and up side by side, so
/// one GEMM call over the input yields both.
#[derive(Debug, Clone)]
pub struct SwigluMlp {
    /// `[w_gate | w_up]`, `dim x 2 ffn_dim`.
    gate_up: PackedWeights,
    /// `w_down`, `ffn_dim x dim`.
    down: PackedWeights,
}

impl SwigluMlp {
    /// Builds a `(dim → ffn_dim → dim)` block with small random weights.
    ///
    /// # Panics
    ///
    /// Panics if either dimension is zero.
    ///
    /// # Errors
    ///
    /// Returns [`TensorError::NonFinite`] if a drawn weight is not
    /// finite: the packed GEMM takes finite weights only.
    pub fn generate(
        dim: usize,
        ffn_dim: usize,
        rng: &mut DeterministicRng,
    ) -> Result<Self, TensorError> {
        let [w_gate, w_up, w_down] = Self::draw_weights(dim, ffn_dim, rng);
        Ok(SwigluMlp {
            gate_up: PackedWeights::pack(&[&w_gate, &w_up])?,
            down: PackedWeights::pack(&[&w_down])?,
        })
    }

    /// Draws the gate, up and down weights of a `(dim → ffn_dim → dim)`
    /// block: what [`generate`](Self::generate) packs.
    pub(crate) fn draw_weights(
        dim: usize,
        ffn_dim: usize,
        rng: &mut DeterministicRng,
    ) -> [Matrix; 3] {
        assert!(dim > 0 && ffn_dim > 0, "MLP dims must be nonzero");
        let s_in = 1.0 / (dim as f32).sqrt();
        let s_out = 1.0 / (ffn_dim as f32).sqrt();
        [
            rng.normal_matrix(dim, ffn_dim, s_in),
            rng.normal_matrix(dim, ffn_dim, s_in),
            rng.normal_matrix(ffn_dim, dim, s_out),
        ]
    }

    /// Input/output width.
    pub fn dim(&self) -> usize {
        self.gate_up.rows()
    }

    /// Hidden (FFN) width.
    pub fn ffn_dim(&self) -> usize {
        self.down.rows()
    }

    /// Forward pass with exact cost accounting.
    ///
    /// # Errors
    ///
    /// Returns [`TensorError::ShapeMismatch`] if `x.cols() != dim()`.
    pub fn forward(&self, x: &Matrix) -> Result<(Matrix, CostReport), TensorError> {
        Ok((self.forward_rows(x)?, self.cost(x.rows())))
    }

    /// The block's output for the rows of `x`, each row on its own: a
    /// caller may split its rows into blocks and get every bit a
    /// whole-matrix call gives.
    ///
    /// # Errors
    ///
    /// Returns [`TensorError::ShapeMismatch`] if `x.cols() != dim()`.
    pub(crate) fn forward_rows(&self, x: &Matrix) -> Result<Matrix, TensorError> {
        // Each row of the fused product is the gate, then the up
        // projection. `silu(gate) * up` overwrites the gate half, row by
        // row on the GEMM's 64-row partition, in a loop over two disjoint
        // slices the compiler vectorises (`silu` is branch-free, and every
        // lane runs the scalar arithmetic). The rows are then compacted to
        // `ffn_dim` floats in place: row `i` moves to `i * ffn_dim`, below
        // every source not yet moved.
        let f = self.ffn_dim();
        let mut gate_up = matmul_packed(x, &self.gate_up)?;
        pool::try_parallel_for_rows(
            "mlp_activation",
            gate_up.as_mut_slice(),
            2 * f,
            GEMM_BLOCK,
            |_, rows| {
                for row in rows.chunks_exact_mut(2 * f) {
                    let (gate, up) = row.split_at_mut(f);
                    for (g, &u) in gate.iter_mut().zip(up.iter()) {
                        *g = silu(*g) * u;
                    }
                }
            },
        )?;
        let mut hidden = gate_up.into_vec();
        for i in 1..x.rows() {
            hidden.copy_within(2 * i * f..(2 * i + 1) * f, i * f);
        }
        hidden.truncate(x.rows() * f);
        let hidden = Matrix::from_vec(x.rows(), f, hidden)?;
        matmul_packed(&hidden, &self.down)
    }

    /// The modelled cost of the block over `rows` rows, its weights read
    /// once: a caller that runs the rows in blocks charges this once, for
    /// all of them.
    pub(crate) fn cost(&self, rows: usize) -> CostReport {
        let s = rows as u64;
        let d = self.dim() as u64;
        let f = self.ffn_dim() as u64;
        // 3 GEMMs + elementwise silu*mul (~5 flops/elem).
        let flops = s * (2 * d * f * 3 + 5 * f);
        let bytes_read = 4 * (s * d + (d * f * 3));
        let bytes_written = 4 * s * d;
        let mut cost = CostReport::launch(flops, bytes_read, bytes_written);
        cost.kernel_launches = 4;
        cost
    }
}

#[inline]
fn silu(x: f32) -> f32 {
    x / (1.0 + sa_tensor::exp(-x))
}

#[cfg(test)]
mod tests {
    use super::*;
    use sa_tensor::matmul;

    #[test]
    fn forward_shape_and_cost() {
        let mut rng = DeterministicRng::new(1);
        let mlp = SwigluMlp::generate(16, 48, &mut rng).unwrap();
        assert_eq!(mlp.dim(), 16);
        assert_eq!(mlp.ffn_dim(), 48);
        let x = rng.normal_matrix(10, 16, 1.0);
        let (out, cost) = mlp.forward(&x).unwrap();
        assert_eq!(out.shape(), (10, 16));
        assert!(cost.flops > 0);
        assert_eq!(cost.kernel_launches, 4);
    }

    #[test]
    fn forward_equals_the_scalar_matmul_oracle_bitwise() {
        // Same draws, unpacked, through the scalar GEMM and a separate
        // activation buffer; 70 rows cross a row block, 1 is decode.
        let mlp = SwigluMlp::generate(12, 40, &mut DeterministicRng::new(9)).unwrap();
        let [w_gate, w_up, w_down] = SwigluMlp::draw_weights(12, 40, &mut DeterministicRng::new(9));
        for rows in [1, 32, 70] {
            let x = DeterministicRng::new(rows as u64).normal_matrix(rows, 12, 1.0);
            let mut gate = matmul(&x, &w_gate).unwrap();
            let up = matmul(&x, &w_up).unwrap();
            for (g, &u) in gate.as_mut_slice().iter_mut().zip(up.as_slice()) {
                *g = silu(*g) * u;
            }
            let want = matmul(&gate, &w_down).unwrap();
            let (got, _) = mlp.forward(&x).unwrap();
            let bits = |m: &Matrix| m.as_slice().iter().map(|v| v.to_bits()).collect::<Vec<_>>();
            assert_eq!(bits(&got), bits(&want), "{rows} rows");
        }
    }

    #[test]
    fn output_bounded_relative_to_input() {
        // Small random weights → output norm comparable to input norm.
        let mut rng = DeterministicRng::new(2);
        let mlp = SwigluMlp::generate(32, 96, &mut rng).unwrap();
        let x = rng.normal_matrix(20, 32, 1.0);
        let (out, _) = mlp.forward(&x).unwrap();
        let rx = x.frobenius_norm();
        let ro = out.frobenius_norm();
        assert!(ro < 4.0 * rx, "output norm {ro} vs input {rx}");
        assert!(out.as_slice().iter().all(|v| v.is_finite()));
    }

    #[test]
    fn silu_properties() {
        assert_eq!(silu(0.0), 0.0);
        assert!(silu(10.0) > 9.9);
        assert!(silu(-10.0).abs() < 1e-3);
    }

    #[test]
    fn cost_scales_linearly_with_rows() {
        let mut rng = DeterministicRng::new(3);
        let mlp = SwigluMlp::generate(8, 16, &mut rng).unwrap();
        let x1 = rng.normal_matrix(5, 8, 1.0);
        let x2 = rng.normal_matrix(10, 8, 1.0);
        let (_, c1) = mlp.forward(&x1).unwrap();
        let (_, c2) = mlp.forward(&x2).unwrap();
        assert_eq!(c2.flops, 2 * c1.flops);
    }

    #[test]
    fn shape_mismatch_rejected() {
        let mut rng = DeterministicRng::new(4);
        let mlp = SwigluMlp::generate(8, 16, &mut rng).unwrap();
        let x = Matrix::zeros(3, 9);
        assert!(mlp.forward(&x).is_err());
    }
}
