//! Naive full attention: the exact reference kernel.
//!
//! Materialises the full score matrix, so memory is O(S_q · S_k). This is
//! the "SDPA" baseline of the paper's §5.4 micro-benchmarks and the gold
//! standard every sparse method is compared against.

use sa_tensor::{
    matmul, matmul_transb_on, matmul_transb_panels, softmax_rows_in_place, Isa, Matrix, TensorError,
};

use crate::cost::f32_bytes;
use crate::{score_scale, CostReport, DenseMask, KeyPanels};

/// Result of an attention kernel: the output matrix plus the exact
/// algorithmic cost of producing it.
#[derive(Debug, Clone)]
pub struct AttentionOutput {
    /// The `(S_q, d)` attention output `O`.
    pub output: Matrix,
    /// Exact FLOP/byte counts for the kernel invocation.
    pub cost: CostReport,
}

fn validate_qkv(q: &Matrix, k: &Matrix, v: &Matrix) -> Result<(), TensorError> {
    if q.cols() != k.cols() {
        return Err(TensorError::ShapeMismatch {
            op: "attention(q,k)",
            lhs: q.shape(),
            rhs: k.shape(),
        });
    }
    if k.rows() != v.rows() {
        return Err(TensorError::ShapeMismatch {
            op: "attention(k,v)",
            lhs: k.shape(),
            rhs: v.shape(),
        });
    }
    Ok(())
}

/// Raw (pre-softmax) scaled scores `Q K^T / sqrt(d)`, with non-causal
/// entries set to `-inf` when `causal` is true. Each score is
/// [`sa_tensor::matmul_transb`]'s dot product, scaled.
///
/// # Errors
///
/// Returns [`TensorError::ShapeMismatch`] if `q.cols() != k.cols()`.
pub fn attention_scores_raw(q: &Matrix, k: &Matrix, causal: bool) -> Result<Matrix, TensorError> {
    let scores = matmul_transb_on(Isa::detect(), q, k, causal)?;
    Ok(scaled_and_masked(scores, q.cols(), causal))
}

/// [`attention_scores_raw`] on keys whose panels the caller already
/// holds (a KV cache's), so no key is read back out as a row or
/// transposed: the same bits.
///
/// # Errors
///
/// Returns [`TensorError::ShapeMismatch`] if `q.cols() != keys.dim()`.
pub fn attention_scores_prepared(
    q: &Matrix,
    keys: &KeyPanels,
    causal: bool,
) -> Result<Matrix, TensorError> {
    attention_scores_prepared_on(Isa::detect(), q, keys, causal)
}

/// Differential-test hook: [`attention_scores_prepared`] on the build of
/// the panel dots `isa` names (see
/// [`sparse_flash_attention_prepared_on`](crate::sparse_flash_attention_prepared_on)).
///
/// # Errors
///
/// As [`attention_scores_prepared`].
#[doc(hidden)]
pub fn attention_scores_prepared_on(
    isa: Isa,
    q: &Matrix,
    keys: &KeyPanels,
    causal: bool,
) -> Result<Matrix, TensorError> {
    if q.cols() != keys.dim() {
        return Err(TensorError::ShapeMismatch {
            op: "matmul_transb",
            lhs: q.shape(),
            rhs: (keys.len(), keys.dim()),
        });
    }
    let scores = matmul_transb_panels(isa, q, keys.as_slice(), keys.len(), causal)?;
    Ok(scaled_and_masked(scores, q.cols(), causal))
}

/// `scores`, `(s_q, s_k)` dot products of `d`-wide rows, scaled, with the
/// entries past each row's diagonal set to `-inf` when `causal` (a
/// causal product leaves the panels wholly past it uncomputed).
fn scaled_and_masked(mut scores: Matrix, d: usize, causal: bool) -> Matrix {
    scores.scale_in_place(score_scale(d));
    if causal {
        let (s_q, s_k) = scores.shape();
        let off = s_k as isize - s_q as isize;
        for i in 0..s_q {
            let end = i as isize + off;
            let first_masked = if end < 0 { 0 } else { (end + 1) as usize };
            for x in &mut scores.row_mut(i)[first_masked.min(s_k)..] {
                *x = f32::NEG_INFINITY;
            }
        }
    }
    scores
}

/// The attention probability matrix `P = softmax(Q K^T / sqrt(d))`
/// (row-wise, causal when requested).
///
/// Fully masked rows (possible when `s_k < s_q`) come out as all zeros.
///
/// # Errors
///
/// Returns [`TensorError::ShapeMismatch`] if `q.cols() != k.cols()`.
pub fn attention_probs(q: &Matrix, k: &Matrix, causal: bool) -> Result<Matrix, TensorError> {
    let mut p = attention_scores_raw(q, k, causal)?;
    softmax_rows_in_place(&mut p);
    Ok(p)
}

/// Full (dense) attention: `O = softmax(Q K^T / sqrt(d)) V`.
///
/// # Errors
///
/// Returns [`TensorError::ShapeMismatch`] on inconsistent Q/K/V shapes.
///
/// # Example
///
/// ```
/// use sa_tensor::Matrix;
/// use sa_kernels::full_attention;
///
/// # fn main() -> Result<(), sa_kernels::KernelError> {
/// let q = Matrix::from_fn(4, 8, |i, j| ((i + j) % 3) as f32 * 0.2);
/// let k = q.clone();
/// let v = Matrix::from_fn(4, 8, |i, j| (i * 8 + j) as f32 * 0.01);
/// let out = full_attention(&q, &k, &v, true)?;
/// assert_eq!(out.output.shape(), (4, 8));
/// # Ok(())
/// # }
/// ```
pub fn full_attention(
    q: &Matrix,
    k: &Matrix,
    v: &Matrix,
    causal: bool,
) -> Result<AttentionOutput, TensorError> {
    validate_qkv(q, k, v)?;
    let p = attention_probs(q, k, causal)?;
    let output = matmul(&p, v)?;

    let (s_q, d) = q.shape();
    let s_k = k.rows();
    let dv = v.cols();
    let pairs = if causal {
        causal_pairs(s_q, s_k)
    } else {
        (s_q * s_k) as u64
    };
    // QK^T (2d per live pair) + softmax (~4 flops/entry) + PV (2dv per pair).
    let flops = pairs * (2 * d as u64 + 4 + 2 * dv as u64);
    // Naive kernel reads Q,K,V and writes + re-reads the full score matrix.
    let bytes_read = f32_bytes((s_q * d + s_k * d + s_k * dv) as u64) + 2 * f32_bytes(pairs);
    let bytes_written = f32_bytes(pairs) + f32_bytes((s_q * dv) as u64);
    let mut cost = CostReport::launch(flops, bytes_read, bytes_written);
    cost.kernel_launches = 3; // bmm, softmax, bmm — unfused

    Ok(AttentionOutput { output, cost })
}

/// Attention masked by an arbitrary dense `{0,1}` mask — the literal
/// `P̃ = M * P` of Eq. (2). Reference implementation for tests; O(S²).
///
/// Rows whose mask keeps no entry produce a zero output row.
///
/// # Errors
///
/// Returns [`TensorError::ShapeMismatch`] on inconsistent shapes, including
/// a mask that does not match `(s_q, s_k)`.
pub fn masked_attention_dense(
    q: &Matrix,
    k: &Matrix,
    v: &Matrix,
    mask: &DenseMask,
) -> Result<AttentionOutput, TensorError> {
    validate_qkv(q, k, v)?;
    if mask.s_q() != q.rows() || mask.s_k() != k.rows() {
        return Err(TensorError::ShapeMismatch {
            op: "masked_attention_dense(mask)",
            lhs: (mask.s_q(), mask.s_k()),
            rhs: (q.rows(), k.rows()),
        });
    }
    let mut scores = attention_scores_raw(q, k, false)?;
    for i in 0..q.rows() {
        let row = scores.row_mut(i);
        for (j, x) in row.iter_mut().enumerate() {
            if !mask.get(i, j) {
                *x = f32::NEG_INFINITY;
            }
        }
    }
    softmax_rows_in_place(&mut scores);
    let output = matmul(&scores, v)?;
    let pairs = mask.nnz() as u64;
    let d = q.cols() as u64;
    let dv = v.cols() as u64;
    let flops = pairs * (2 * d + 4 + 2 * dv);
    let bytes_read = f32_bytes((q.len() + k.len() + v.len()) as u64) + 2 * f32_bytes(pairs);
    let bytes_written = f32_bytes(pairs) + f32_bytes(output.len() as u64);
    let mut cost = CostReport::launch(flops, bytes_read, bytes_written);
    cost.kernel_launches = 3;
    Ok(AttentionOutput { output, cost })
}

/// Number of live (query, key) pairs in the causal region of an
/// `s_q x s_k` attention problem (the dense baseline's work).
pub fn causal_pairs(s_q: usize, s_k: usize) -> u64 {
    let off = s_k as isize - s_q as isize;
    (0..s_q)
        .map(|i| {
            let end = i as isize + off;
            if end < 0 {
                0
            } else {
                (end as u64 + 1).min(s_k as u64)
            }
        })
        .sum()
}

#[cfg(test)]
mod tests {
    use super::*;
    use sa_tensor::DeterministicRng;

    #[test]
    fn probs_rows_sum_to_one_causal() {
        let mut rng = DeterministicRng::new(1);
        let q = rng.normal_matrix(6, 8, 1.0);
        let k = rng.normal_matrix(6, 8, 1.0);
        let p = attention_probs(&q, &k, true).unwrap();
        for i in 0..6 {
            let s: f32 = p.row(i).iter().sum();
            assert!((s - 1.0).abs() < 1e-5, "row {i} sums to {s}");
            // strictly causal: no mass above the diagonal
            for j in (i + 1)..6 {
                assert_eq!(p.get(i, j), 0.0);
            }
        }
    }

    #[test]
    fn causal_first_row_attends_only_self() {
        let mut rng = DeterministicRng::new(2);
        let q = rng.normal_matrix(4, 4, 1.0);
        let k = rng.normal_matrix(4, 4, 1.0);
        let v = rng.normal_matrix(4, 4, 1.0);
        let out = full_attention(&q, &k, &v, true).unwrap();
        for j in 0..4 {
            assert!((out.output.get(0, j) - v.get(0, j)).abs() < 1e-5);
        }
    }

    #[test]
    fn non_causal_uniform_when_scores_equal() {
        let q = Matrix::zeros(3, 4);
        let k = Matrix::zeros(5, 4);
        let v = Matrix::from_fn(5, 2, |i, _| i as f32);
        let out = full_attention(&q, &k, &v, false).unwrap();
        // uniform over 5 values → mean = 2.0
        for i in 0..3 {
            assert!((out.output.get(i, 0) - 2.0).abs() < 1e-5);
        }
    }

    #[test]
    fn masked_with_causal_mask_equals_causal_attention() {
        let mut rng = DeterministicRng::new(3);
        let q = rng.normal_matrix(7, 8, 1.0);
        let k = rng.normal_matrix(7, 8, 1.0);
        let v = rng.normal_matrix(7, 8, 1.0);
        let a = full_attention(&q, &k, &v, true).unwrap();
        let b = masked_attention_dense(&q, &k, &v, &DenseMask::causal(7, 7)).unwrap();
        for (x, y) in a.output.as_slice().iter().zip(b.output.as_slice()) {
            assert!((x - y).abs() < 1e-5);
        }
    }

    #[test]
    fn masked_empty_row_is_zero() {
        let mut rng = DeterministicRng::new(4);
        let q = rng.normal_matrix(3, 4, 1.0);
        let k = rng.normal_matrix(3, 4, 1.0);
        let v = rng.normal_matrix(3, 4, 1.0);
        let mut mask = DenseMask::zeros(3, 3);
        mask.set(1, 0, true);
        let out = masked_attention_dense(&q, &k, &v, &mask).unwrap();
        assert!(out.output.row(0).iter().all(|&x| x == 0.0));
        assert!(out.output.row(2).iter().all(|&x| x == 0.0));
        for j in 0..4 {
            assert!((out.output.get(1, j) - v.get(0, j)).abs() < 1e-5);
        }
    }

    #[test]
    fn shape_validation() {
        let q = Matrix::zeros(2, 4);
        let k = Matrix::zeros(3, 5);
        let v = Matrix::zeros(3, 4);
        assert!(full_attention(&q, &k, &v, true).is_err());
        let k2 = Matrix::zeros(3, 4);
        let v2 = Matrix::zeros(2, 4);
        assert!(full_attention(&q, &k2, &v2, true).is_err());
        let mask = DenseMask::zeros(9, 9);
        assert!(masked_attention_dense(&q, &k2, &Matrix::zeros(3, 4), &mask).is_err());
    }

    #[test]
    fn rectangular_causal_probs() {
        // 2 queries (last 2 positions) over 4 keys.
        let mut rng = DeterministicRng::new(5);
        let q = rng.normal_matrix(2, 4, 1.0);
        let k = rng.normal_matrix(4, 4, 1.0);
        let p = attention_probs(&q, &k, true).unwrap();
        assert_eq!(p.get(0, 3), 0.0); // row 0 sees keys 0..=2
        assert!((p.row(1).iter().sum::<f32>() - 1.0).abs() < 1e-5);
    }

    #[test]
    fn causal_pairs_counts() {
        assert_eq!(causal_pairs(4, 4), 10);
        assert_eq!(causal_pairs(2, 4), 3 + 4);
        assert_eq!(causal_pairs(4, 2), 1 + 2);
        assert_eq!(causal_pairs(0, 5), 0);
    }

    #[test]
    fn cost_scales_quadratically() {
        let mut rng = DeterministicRng::new(6);
        let d = 8;
        let mk = |s: usize, rng: &mut DeterministicRng| {
            (
                rng.normal_matrix(s, d, 1.0),
                rng.normal_matrix(s, d, 1.0),
                rng.normal_matrix(s, d, 1.0),
            )
        };
        let (q1, k1, v1) = mk(16, &mut rng);
        let (q2, k2, v2) = mk(32, &mut rng);
        let c1 = full_attention(&q1, &k1, &v1, true).unwrap().cost;
        let c2 = full_attention(&q2, &k2, &v2, true).unwrap().cost;
        let ratio = c2.flops as f64 / c1.flops as f64;
        assert!(ratio > 3.5 && ratio < 4.5, "ratio {ratio}");
    }
}
