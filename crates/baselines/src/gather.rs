//! Shared row-gathered attention kernel for the dynamic baselines
//! (HyperAttention, Hash-Sparse): each query row attends to an arbitrary
//! per-row set of key indices.

use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Mutex;

use sa_kernels::{score_scale, AttentionOutput, CostReport};
use sa_tensor::{online_softmax_update, pool, Matrix, OnlineSoftmaxState, TensorError};

/// Computes attention where query row `i` attends exactly to
/// `row_indices(i)` (caller guarantees causality). Rows with an empty
/// index set produce zeros.
///
/// Rows are independent, so row chunks run on the worker pool with
/// bit-identical per-row arithmetic; `row_indices` therefore has to be
/// `Fn + Sync` (every baseline's index rule is a pure function of
/// construction-time state).
///
/// # Errors
///
/// Returns [`TensorError::ShapeMismatch`] on inconsistent Q/K/V shapes,
/// or [`TensorError::IndexOutOfBounds`] if an index exceeds `s_k` (the
/// smallest offending row reports, independent of scheduling).
pub(crate) fn gathered_attention(
    q: &Matrix,
    k: &Matrix,
    v: &Matrix,
    row_indices: impl Fn(usize) -> Vec<usize> + Sync,
) -> Result<(AttentionOutput, u64), TensorError> {
    if q.cols() != k.cols() {
        return Err(TensorError::ShapeMismatch {
            op: "gathered_attention(q,k)",
            lhs: q.shape(),
            rhs: k.shape(),
        });
    }
    if k.rows() != v.rows() {
        return Err(TensorError::ShapeMismatch {
            op: "gathered_attention(k,v)",
            lhs: k.shape(),
            rhs: v.shape(),
        });
    }
    let (s_q, d) = q.shape();
    let s_k = k.rows();
    let dv = v.cols();
    let scale = score_scale(d);

    let mut output = Matrix::zeros(s_q, dv);
    let live_pairs = AtomicU64::new(0);
    // First out-of-bounds error by row index, so the reported error does
    // not depend on which thread hit its row first.
    let first_error: Mutex<Option<(usize, usize)>> = Mutex::new(None);

    if s_q > 0 && dv > 0 {
        let grain_rows = pool::row_grain(s_k.max(1) * (d + dv));
        pool::parallel_for_rows(output.as_mut_slice(), dv, grain_rows, |row0, chunk| {
            let mut scores = Vec::new();
            let mut chunk_pairs: u64 = 0;
            for (local_i, out_row) in chunk.chunks_mut(dv).enumerate() {
                let i = row0 + local_i;
                let indices = row_indices(i);
                if indices.is_empty() {
                    continue;
                }
                if let Some(&bad) = indices.iter().find(|&&j| j >= s_k) {
                    let mut slot = first_error.lock().expect("error slot poisoned");
                    if slot.is_none_or(|(row, _)| i < row) {
                        *slot = Some((i, bad));
                    }
                    continue;
                }
                let q_row = q.row(i);
                scores.clear();
                scores.extend(indices.iter().map(|&j| {
                    q_row.iter().zip(k.row(j)).map(|(a, b)| a * b).sum::<f32>() * scale
                }));
                let mut state = OnlineSoftmaxState::new(dv);
                online_softmax_update(&mut state, &scores, |t| v.row(indices[t]));
                out_row.copy_from_slice(&state.finish());
                chunk_pairs += indices.len() as u64;
            }
            live_pairs.fetch_add(chunk_pairs, Ordering::Relaxed);
        });
    }
    if let Some((_, bad)) = first_error.into_inner().expect("error slot poisoned") {
        return Err(TensorError::IndexOutOfBounds {
            op: "gathered_attention",
            index: bad,
            bound: s_k,
        });
    }
    let live_pairs = live_pairs.into_inner();

    let flops = live_pairs * (2 * d as u64 + 4 + 2 * dv as u64);
    let bytes_read = 4 * (s_q * d) as u64 + 4 * live_pairs * (d + dv) as u64;
    let bytes_written = 4 * (s_q * dv) as u64;
    let cost = CostReport::launch(flops, bytes_read, bytes_written);
    Ok((AttentionOutput { output, cost }, live_pairs))
}

#[cfg(test)]
mod tests {
    use super::*;
    use sa_kernels::full_attention;
    use sa_tensor::{max_abs_diff, DeterministicRng};

    #[test]
    fn all_causal_indices_matches_full() {
        let mut rng = DeterministicRng::new(1);
        let q = rng.normal_matrix(24, 8, 1.0);
        let k = rng.normal_matrix(24, 8, 1.0);
        let v = rng.normal_matrix(24, 8, 1.0);
        let (got, pairs) = gathered_attention(&q, &k, &v, |i| (0..=i).collect()).unwrap();
        let want = full_attention(&q, &k, &v, true).unwrap();
        assert!(max_abs_diff(got.output.as_slice(), want.output.as_slice()) < 1e-4);
        assert_eq!(pairs, 24 * 25 / 2);
    }

    #[test]
    fn empty_rows_are_zero() {
        let mut rng = DeterministicRng::new(2);
        let q = rng.normal_matrix(4, 4, 1.0);
        let k = rng.normal_matrix(4, 4, 1.0);
        let v = rng.normal_matrix(4, 4, 1.0);
        let (got, pairs) =
            gathered_attention(&q, &k, &v, |i| if i == 2 { vec![0, 1] } else { vec![] }).unwrap();
        assert!(got.output.row(0).iter().all(|&x| x == 0.0));
        assert!(got.output.row(2).iter().any(|&x| x != 0.0));
        assert_eq!(pairs, 2);
    }

    #[test]
    fn out_of_bounds_index_rejected() {
        let q = Matrix::zeros(2, 4);
        let k = Matrix::zeros(2, 4);
        let v = Matrix::zeros(2, 4);
        assert!(gathered_attention(&q, &k, &v, |_| vec![5]).is_err());
    }
}
