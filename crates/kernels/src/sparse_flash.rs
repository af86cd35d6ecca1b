//! Row-wise structured-sparse attention: the reference the blocked
//! engine is held against.
//!
//! For each query row it touches only (a) the extra columns (sinks +
//! stripes) below the local window and (b) the
//! contiguous local window itself, one scalar dot product per live key,
//! so work is proportional to `mask.nnz()` — the paper's
//! `sparse_flash_attn(Q, K, V, M_Merged)` in its simplest form.
//! Production code runs
//! [`sparse_flash_attention_blocked`](crate::sparse_flash_attention_blocked);
//! this loop stays because it is short enough to check by eye and folds
//! every row in the engine's partition (extras in 64-rank blocks, then
//! the window in 64-aligned key blocks) with the
//! engine's arithmetic (a score is a strict-order dot product of fused
//! products), which is what lets the differential tests demand bitwise
//! equality instead of a tolerance.

use std::sync::atomic::{AtomicU64, Ordering};

use sa_tensor::{
    mul_add, online_softmax_update, pool, Isa, IsaBuild, Matrix, OnlineSoftmaxState, TensorError,
};

use crate::blocked::{validate_sparse_shapes, RowGeometry};
use crate::cost::f32_bytes;
use crate::panels::BLOCK;
use crate::{score_scale, AttentionOutput, CostReport, StructuredMask};

/// Query rows per tile sharing one K/V load in the (simulated) fused
/// kernel.
const KV_TILE_REUSE: u64 = 128;

/// Structured-sparse causal attention, one query row at a time (the
/// reference implementation).
///
/// Computes exactly `softmax(masked scores) V` where masked scores keep
/// only entries live under `mask` (causal ∩ (window ∪ sinks ∪ stripes)).
/// Rows with no live entry produce zeros.
///
/// # Errors
///
/// Returns [`TensorError::ShapeMismatch`] if the Q/K/V shapes disagree
/// with each other or with the mask dimensions.
///
/// # Example
///
/// ```
/// use sa_tensor::DeterministicRng;
/// use sa_kernels::{sparse_flash_attention, StructuredMask};
///
/// # fn main() -> Result<(), sa_kernels::KernelError> {
/// let mut rng = DeterministicRng::new(0);
/// let (q, k, v) = (
///     rng.normal_matrix(64, 8, 1.0),
///     rng.normal_matrix(64, 8, 1.0),
///     rng.normal_matrix(64, 8, 1.0),
/// );
/// let mask = StructuredMask::builder(64, 64)
///     .window(8)
///     .sinks(2)
///     .columns(vec![20, 33])
///     .build()?;
/// let out = sparse_flash_attention(&q, &k, &v, &mask)?;
/// assert_eq!(out.output.shape(), (64, 8));
/// # Ok(())
/// # }
/// ```
pub fn sparse_flash_attention(
    q: &Matrix,
    k: &Matrix,
    v: &Matrix,
    mask: &StructuredMask,
) -> Result<AttentionOutput, TensorError> {
    validate_sparse_shapes(q, k, v, mask)?;
    let (s_q, d) = q.shape();
    let dv = v.cols();
    let avg_live = (mask.nnz() / s_q.max(1)).max(1);
    let (output, live_pairs) = run_rows("sparse_flash_attention", q, k, v, mask, avg_live)?;

    // Fused single kernel: reads Q once, gathers the live K/V rows, and
    // writes O. K/V reads are shared across the KV_TILE_REUSE query rows
    // of a tile (stripe columns are global, so a tile loads each selected
    // K/V row once) — this is the paper's "savings in KV
    // memory-transfers".
    let flops = live_pairs * (2 * d as u64 + 4 + 2 * dv as u64);
    let kv_bytes = f32_bytes(live_pairs * (d + dv) as u64).div_ceil(KV_TILE_REUSE);
    let bytes_read = f32_bytes((s_q * d) as u64) + kv_bytes;
    let bytes_written = f32_bytes((s_q * dv) as u64);
    let cost = CostReport::launch(flops, bytes_read, bytes_written);

    Ok(AttentionOutput { output, cost })
}

/// The row-wise loop over any row geometry, on the worker pool under
/// fault site `site`; returns the output and the live-pair count.
/// `avg_live` (keys per row, any estimate) only sizes the chunk grain.
/// Shapes must already agree.
fn run_rows<G: RowGeometry>(
    site: &'static str,
    q: &Matrix,
    k: &Matrix,
    v: &Matrix,
    geom: &G,
    avg_live: usize,
) -> Result<(Matrix, u64), TensorError> {
    let (s_q, d) = q.shape();
    let dv = v.cols();
    let scale = score_scale(d);
    let extras = geom.extras();
    let isa = Isa::detect();

    let mut output = Matrix::zeros(s_q, dv);
    let live_pairs = AtomicU64::new(0);

    // Rows are fully independent (each folds only its own live columns),
    // so row chunks run on the worker pool with bit-identical per-row
    // arithmetic. The score scratch buffer is a per-chunk local;
    // `live_pairs` is an integer tally, order-independent. A
    // panicking worker (or an injected fault) surfaces as
    // `SaError::WorkerPanic` instead of aborting the process.
    if s_q > 0 && dv > 0 {
        let grain_rows = pool::row_grain(avg_live * (d + dv));
        pool::try_parallel_for_rows(
            site,
            output.as_mut_slice(),
            dv,
            grain_rows,
            |row0, chunk| {
                let mut scores_buf: Vec<f32> = Vec::new();
                let mut chunk_pairs: u64 = 0;

                for (local_i, out_row) in chunk.chunks_mut(dv).enumerate() {
                    let i = row0 + local_i;
                    let Some((win_start, win_end)) = geom.window(i) else {
                        continue;
                    };
                    let q_row = q.row(i);
                    let mut state = OnlineSoftmaxState::new(dv);
                    // One fold block: the `n` keys `key_of(0..n)`.
                    let mut fold = |n: usize, key_of: &dyn Fn(usize) -> usize| {
                        scores_buf.clear();
                        scores_buf
                            .extend((0..n).map(|t| dot(isa, q_row, k.row(key_of(t))) * scale));
                        online_softmax_update(&mut state, &scores_buf, |t| v.row(key_of(t)));
                        chunk_pairs += n as u64;
                    };

                    // Extra columns strictly below the window (sinks +
                    // stripes), in blocks of BLOCK ranks.
                    let below = extras.partition_point(|&c| c < win_start);
                    for ranks in extras[..below].chunks(BLOCK) {
                        fold(ranks.len(), &|t| ranks[t]);
                    }
                    // Contiguous local window, cut at multiples of BLOCK.
                    let mut k0 = win_start;
                    while k0 < win_end {
                        let k1 = ((k0 / BLOCK + 1) * BLOCK).min(win_end);
                        fold(k1 - k0, &|t| k0 + t);
                        k0 = k1;
                    }

                    out_row.copy_from_slice(&state.finish());
                }
                live_pairs.fetch_add(chunk_pairs, Ordering::Relaxed);
            },
        )?;
    }
    Ok((output, live_pairs.into_inner()))
}

/// Strict index-order dot product starting from `0.0`, each product
/// fused into the running sum: the bits of one lane of the score panel,
/// on the FMA instruction or its exact emulation as `isa` allows.
#[inline]
fn dot(isa: Isa, a: &[f32], b: &[f32]) -> f32 {
    match isa.build() {
        #[cfg(target_arch = "x86_64")]
        // SAFETY: an `Isa` names AVX2 or AVX-512 only when `Isa::detect`
        // found `avx2` and `fma` on this CPU.
        IsaBuild::Avx2 | IsaBuild::Avx512 => unsafe { dot_fused(a, b) },
        _ => dot_body::<false>(a, b),
    }
}

/// [`dot_body`] compiled with FMA.
#[cfg(target_arch = "x86_64")]
#[target_feature(enable = "avx2,fma")]
fn dot_fused(a: &[f32], b: &[f32]) -> f32 {
    dot_body::<true>(a, b)
}

#[inline(always)]
fn dot_body<const FUSED: bool>(a: &[f32], b: &[f32]) -> f32 {
    let mut acc = 0.0f32;
    for (&x, &y) in a.iter().zip(b) {
        acc = mul_add::<FUSED>(x, y, acc);
    }
    acc
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::{flash_attention, full_attention, masked_attention_dense, FlashParams};
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
    fn dense_mask_reduces_to_flash() {
        let (q, k, v) = random_qkv(80, 8, 20);
        let mask = StructuredMask::dense_causal(80, 80);
        let sparse = sparse_flash_attention(&q, &k, &v, &mask).unwrap();
        let flash = flash_attention(&q, &k, &v, true, FlashParams::default()).unwrap();
        assert!(max_abs_diff(sparse.output.as_slice(), flash.output.as_slice()) < 1e-4);
    }

    #[test]
    fn matches_dense_reference_on_structured_mask() {
        let (q, k, v) = random_qkv(60, 8, 21);
        let mask = StructuredMask::builder(60, 60)
            .window(6)
            .sinks(3)
            .columns(vec![10, 25, 40])
            .build()
            .unwrap();
        let sparse = sparse_flash_attention(&q, &k, &v, &mask).unwrap();
        let reference = masked_attention_dense(&q, &k, &v, &mask.to_dense()).unwrap();
        assert!(max_abs_diff(sparse.output.as_slice(), reference.output.as_slice()) < 1e-4);
    }

    #[test]
    fn stripe_inside_window_not_double_counted() {
        let (q, k, v) = random_qkv(30, 4, 22);
        // Column 28 falls inside most rows' windows near the end.
        let mask = StructuredMask::builder(30, 30)
            .window(5)
            .columns(vec![28, 2])
            .build()
            .unwrap();
        let sparse = sparse_flash_attention(&q, &k, &v, &mask).unwrap();
        let reference = masked_attention_dense(&q, &k, &v, &mask.to_dense()).unwrap();
        assert!(max_abs_diff(sparse.output.as_slice(), reference.output.as_slice()) < 1e-4);
    }

    #[test]
    fn zero_window_pure_stripes() {
        let (q, k, v) = random_qkv(20, 4, 23);
        let mask = StructuredMask::builder(20, 20)
            .window(0)
            .sinks(1)
            .columns(vec![5])
            .build()
            .unwrap();
        let sparse = sparse_flash_attention(&q, &k, &v, &mask).unwrap();
        let reference = masked_attention_dense(&q, &k, &v, &mask.to_dense()).unwrap();
        assert!(max_abs_diff(sparse.output.as_slice(), reference.output.as_slice()) < 1e-4);
        // Row 0 sees nothing (window 0, no extras ≤ causal end except col 0 sink).
        // Actually sink column 0 is causally visible to row 0... window_start(0) = 1
        // with window 0, so col 0 is an extra below the window → live.
        assert!(sparse.output.row(0).iter().any(|&x| x != 0.0));
    }

    #[test]
    fn fully_empty_mask_rows_are_zero() {
        let (q, k, v) = random_qkv(6, 4, 24);
        let mask = StructuredMask::builder(6, 6).window(0).build().unwrap();
        let out = sparse_flash_attention(&q, &k, &v, &mask).unwrap();
        assert!(out.output.as_slice().iter().all(|&x| x == 0.0));
    }

    #[test]
    fn rectangular_kv_longer_than_q() {
        let mut rng = DeterministicRng::new(25);
        let q = rng.normal_matrix(8, 4, 1.0);
        let k = rng.normal_matrix(24, 4, 1.0);
        let v = rng.normal_matrix(24, 4, 1.0);
        let mask = StructuredMask::builder(8, 24)
            .window(4)
            .sinks(2)
            .columns(vec![10])
            .build()
            .unwrap();
        let sparse = sparse_flash_attention(&q, &k, &v, &mask).unwrap();
        let reference = masked_attention_dense(&q, &k, &v, &mask.to_dense()).unwrap();
        assert!(max_abs_diff(sparse.output.as_slice(), reference.output.as_slice()) < 1e-4);
    }

    #[test]
    fn cost_proportional_to_nnz() {
        let (q, k, v) = random_qkv(128, 8, 26);
        let sparse_mask = StructuredMask::builder(128, 128).window(8).build().unwrap();
        let dense_mask = StructuredMask::dense_causal(128, 128);
        let a = sparse_flash_attention(&q, &k, &v, &sparse_mask).unwrap();
        let b = sparse_flash_attention(&q, &k, &v, &dense_mask).unwrap();
        let flops_ratio = b.cost.flops as f64 / a.cost.flops as f64;
        let nnz_ratio = dense_mask.nnz() as f64 / sparse_mask.nnz() as f64;
        assert!((flops_ratio - nnz_ratio).abs() / nnz_ratio < 1e-9);
        assert!(a.cost.bytes_total() < b.cost.bytes_total());
    }

    #[test]
    fn near_lossless_with_high_density_mask() {
        // With a generous window the sparse output should be very close to
        // exact full attention even without stripes.
        let (q, k, v) = random_qkv(100, 8, 27);
        let mask = StructuredMask::builder(100, 100)
            .window(90)
            .sinks(4)
            .build()
            .unwrap();
        let sparse = sparse_flash_attention(&q, &k, &v, &mask).unwrap();
        let exact = full_attention(&q, &k, &v, true).unwrap();
        // Not exactly equal (some entries dropped) but close in L1.
        let diff = sa_tensor::l1_distance(sparse.output.as_slice(), exact.output.as_slice())
            / exact.output.len() as f32;
        assert!(diff < 0.05, "mean L1 diff {diff}");
    }

    #[test]
    fn shape_validation() {
        let (q, k, v) = random_qkv(8, 4, 28);
        let mask = StructuredMask::dense_causal(9, 9);
        assert!(sparse_flash_attention(&q, &k, &v, &mask).is_err());
        let k_bad = Matrix::zeros(8, 5);
        let mask8 = StructuredMask::dense_causal(8, 8);
        assert!(sparse_flash_attention(&q, &k_bad, &v, &mask8).is_err());
        let v_bad = Matrix::zeros(7, 4);
        assert!(sparse_flash_attention(&q, &k, &v_bad, &mask8).is_err());
    }
}
