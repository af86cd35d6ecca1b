//! FlashAttention-style blocked kernel.
//!
//! Processes the score matrix in tiles with an online softmax, so the
//! full `S_q x S_k` matrix is never materialised. This is the paper's
//! dense baseline (FlashAttention2 in §5.4). It runs on the same blocked
//! engine as the sparse kernel ([`crate::sparse_flash_attention_blocked`]),
//! over a geometry whose window is every visible key, so sparse-vs-dense
//! ratios compare two equally tuned loops.
//!
//! Exactness: the online softmax recurrence is algebraically identical to
//! the two-pass softmax, so outputs match [`crate::full_attention`] to
//! floating-point round-off.

use sa_tensor::{Matrix, TensorError};

use crate::blocked::{run_engine, EngineJob, RowGeometry};
use crate::cost::f32_bytes;
use crate::panels::KeyPanels;
use crate::{AttentionOutput, CostReport};

/// Tile sizes of the modelled kernel: they set the K/V re-read traffic
/// in the [`CostReport`] (K/V is re-read once per `block_rows` query
/// rows). The host loop itself always runs the engine's 64 x 64 tiles.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct FlashParams {
    /// Query-block rows (`Br`).
    pub block_rows: usize,
    /// Key-block columns (`Bc`).
    pub block_cols: usize,
}

impl Default for FlashParams {
    fn default() -> Self {
        FlashParams {
            block_rows: 64,
            block_cols: 64,
        }
    }
}

/// FlashAttention-style causal attention.
///
/// Computes `softmax(Q K^T / sqrt(d)) V` tile by tile with online softmax;
/// O(S) auxiliary memory.
///
/// # Errors
///
/// Returns [`TensorError::ShapeMismatch`] on inconsistent Q/K/V shapes or
/// [`TensorError::InvalidDimension`] for zero tile sizes.
///
/// # Example
///
/// ```
/// use sa_tensor::DeterministicRng;
/// use sa_kernels::{flash_attention, full_attention, FlashParams};
///
/// # fn main() -> Result<(), sa_kernels::KernelError> {
/// let mut rng = DeterministicRng::new(0);
/// let (q, k, v) = (
///     rng.normal_matrix(100, 16, 1.0),
///     rng.normal_matrix(100, 16, 1.0),
///     rng.normal_matrix(100, 16, 1.0),
/// );
/// let flash = flash_attention(&q, &k, &v, true, FlashParams::default())?;
/// let exact = full_attention(&q, &k, &v, true)?;
/// let diff = flash
///     .output
///     .as_slice()
///     .iter()
///     .zip(exact.output.as_slice())
///     .map(|(a, b)| (a - b).abs())
///     .fold(0.0f32, f32::max);
/// assert!(diff < 1e-4);
/// # Ok(())
/// # }
/// ```
pub fn flash_attention(
    q: &Matrix,
    k: &Matrix,
    v: &Matrix,
    causal: bool,
    params: FlashParams,
) -> Result<AttentionOutput, TensorError> {
    let panels = KeyPanels::from_rows(k);
    flash_attention_prepared(q, &panels, v, causal, params)
}

/// [`flash_attention`] on keys whose panels the caller already holds
/// (a KV cache's, or one group's at prefill), so no key is transposed.
/// A decode step passes the query rows of a whole GQA group with
/// `causal = false`: the newest position sees every cached key.
///
/// # Errors
///
/// As [`flash_attention`].
pub fn flash_attention_prepared(
    q: &Matrix,
    keys: &KeyPanels,
    v: &Matrix,
    causal: bool,
    params: FlashParams,
) -> Result<AttentionOutput, TensorError> {
    let job = EngineJob::dense(q, keys, v, causal, params);
    let out = run_engine(&[job]).pop().expect("one result per job")?;
    Ok(AttentionOutput {
        output: out.output,
        cost: out.cost,
    })
}

/// The shape checks of [`flash_attention_prepared`]; `k` is the keys'
/// `(count, width)`.
pub(crate) fn validate(
    q: &Matrix,
    k: (usize, usize),
    v: &Matrix,
    params: FlashParams,
) -> Result<(), TensorError> {
    if q.cols() != k.1 {
        return Err(TensorError::ShapeMismatch {
            op: "flash_attention(q,k)",
            lhs: q.shape(),
            rhs: k,
        });
    }
    if k.0 != v.rows() {
        return Err(TensorError::ShapeMismatch {
            op: "flash_attention(k,v)",
            lhs: k,
            rhs: v.shape(),
        });
    }
    if params.block_rows == 0 || params.block_cols == 0 {
        return Err(TensorError::InvalidDimension {
            op: "flash_attention",
            what: "tile sizes must be nonzero".to_string(),
        });
    }
    Ok(())
}

/// The modelled dense kernel's cost over query rows `first..`: `flops`
/// over the live pairs, no score-matrix traffic, and every query block
/// of `params.block_rows` rows (on the grid from row 0, the first one cut
/// at `first`) re-reading the K/V rows its last row can see.
pub(crate) fn dense_cost(
    rows: &DenseRows,
    first: usize,
    params: FlashParams,
    d: usize,
    dv: usize,
    flops: u64,
) -> CostReport {
    let br = params.block_rows;
    let grid_start = if first < rows.s_q { first / br * br } else { rows.s_q };
    let kv_block_reads: u64 = (grid_start..rows.s_q)
        .step_by(br)
        .filter_map(|q0| rows.window((q0 + br).min(rows.s_q) - 1))
        .map(|(_, end)| (end * (d + dv)) as u64)
        .sum();
    let computed = rows.s_q - first;
    let bytes_read = f32_bytes((computed * d) as u64) + f32_bytes(kv_block_reads);
    let bytes_written = f32_bytes((computed * dv) as u64);
    CostReport::launch(flops, bytes_read, bytes_written)
}

/// Dense attention as engine geometry: every row's window is all the
/// keys it may see.
#[derive(Debug, Clone, Copy)]
pub(crate) struct DenseRows {
    pub s_q: usize,
    pub s_k: usize,
    pub causal: bool,
}

impl RowGeometry for DenseRows {
    fn window(&self, i: usize) -> Option<(usize, usize)> {
        if !self.causal {
            return Some((0, self.s_k));
        }
        // Row i sees the keys up to i + (s_k - s_q), as in `StructuredMask`.
        (i + self.s_k + 1)
            .checked_sub(self.s_q)
            .filter(|&end| end > 0)
            .map(|end| (0, end))
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::full_attention;
    use sa_tensor::{max_abs_diff, DeterministicRng};

    fn random_qkv(s: usize, d: usize, seed: u64) -> (Matrix, Matrix, Matrix) {
        let mut rng = DeterministicRng::new(seed);
        (
            rng.normal_matrix(s, d, 1.0),
            rng.normal_matrix(s, d, 1.0),
            rng.normal_matrix(s, d, 1.0),
        )
    }

    #[test]
    fn matches_full_attention_causal() {
        let (q, k, v) = random_qkv(97, 16, 7);
        let flash = flash_attention(&q, &k, &v, true, FlashParams { block_rows: 16, block_cols: 16 }).unwrap();
        let exact = full_attention(&q, &k, &v, true).unwrap();
        assert!(max_abs_diff(flash.output.as_slice(), exact.output.as_slice()) < 1e-4);
    }

    #[test]
    fn matches_full_attention_non_causal() {
        let (q, k, v) = random_qkv(50, 8, 8);
        let flash = flash_attention(&q, &k, &v, false, FlashParams { block_rows: 7, block_cols: 13 }).unwrap();
        let exact = full_attention(&q, &k, &v, false).unwrap();
        assert!(max_abs_diff(flash.output.as_slice(), exact.output.as_slice()) < 1e-4);
    }

    #[test]
    fn tile_size_invariance() {
        let (q, k, v) = random_qkv(65, 8, 9);
        let a = flash_attention(&q, &k, &v, true, FlashParams { block_rows: 64, block_cols: 64 }).unwrap();
        let b = flash_attention(&q, &k, &v, true, FlashParams { block_rows: 1, block_cols: 3 }).unwrap();
        assert!(max_abs_diff(a.output.as_slice(), b.output.as_slice()) < 1e-4);
    }

    #[test]
    fn rectangular_decode_shape() {
        // Decode-like: 1 query against a long KV.
        let mut rng = DeterministicRng::new(10);
        let q = rng.normal_matrix(1, 8, 1.0);
        let k = rng.normal_matrix(40, 8, 1.0);
        let v = rng.normal_matrix(40, 8, 1.0);
        let flash = flash_attention(&q, &k, &v, true, FlashParams::default()).unwrap();
        let exact = full_attention(&q, &k, &v, true).unwrap();
        assert!(max_abs_diff(flash.output.as_slice(), exact.output.as_slice()) < 1e-4);
    }

    #[test]
    fn fully_masked_rows_zero() {
        // q longer than k: early query rows see no keys.
        let mut rng = DeterministicRng::new(11);
        let q = rng.normal_matrix(5, 4, 1.0);
        let k = rng.normal_matrix(2, 4, 1.0);
        let v = rng.normal_matrix(2, 4, 1.0);
        let flash = flash_attention(&q, &k, &v, true, FlashParams { block_rows: 2, block_cols: 2 }).unwrap();
        for i in 0..3 {
            assert!(flash.output.row(i).iter().all(|&x| x == 0.0), "row {i}");
        }
        let exact = full_attention(&q, &k, &v, true).unwrap();
        assert!(max_abs_diff(flash.output.as_slice(), exact.output.as_slice()) < 1e-4);
    }

    #[test]
    fn invalid_params_rejected() {
        let (q, k, v) = random_qkv(4, 4, 12);
        assert!(flash_attention(&q, &k, &v, true, FlashParams { block_rows: 0, block_cols: 4 }).is_err());
        assert!(flash_attention(&q, &k, &v, true, FlashParams { block_rows: 4, block_cols: 0 }).is_err());
    }

    #[test]
    fn flash_cost_has_no_score_traffic() {
        let (q, k, v) = random_qkv(128, 16, 13);
        let flash = flash_attention(&q, &k, &v, true, FlashParams::default()).unwrap();
        let full = full_attention(&q, &k, &v, true).unwrap();
        assert_eq!(flash.cost.flops, full.cost.flops);
        assert!(flash.cost.bytes_total() < full.cost.bytes_total());
        assert_eq!(flash.cost.kernel_launches, 1);
    }

    #[test]
    fn empty_kv() {
        let q = Matrix::zeros(3, 4);
        let k = Matrix::zeros(0, 4);
        let v = Matrix::zeros(0, 4);
        let out = flash_attention(&q, &k, &v, true, FlashParams::default()).unwrap();
        assert!(out.output.as_slice().iter().all(|&x| x == 0.0));
    }
}
