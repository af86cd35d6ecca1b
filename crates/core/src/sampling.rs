//! Stage 1: **query-guided attention sampling**.
//!
//! Computes exact attention scores for a strided sample of the query rows
//! and accumulates them along columns — the paper's fused
//! `sample_bmm_softmax_reduction(Q, K, r_row)`. The column-stripe pattern
//! (high row-wise similarity of score distributions, Figure 2(e)) is what
//! makes a small sample representative of all rows.

use sa_kernels::{score_scale, CostReport, KeyPanels, PreparedKeys, ENGINE_BLOCK};
use sa_tensor::{fault, pool, softmax_row_on, Isa, Matrix, StrideSample, TensorError};

use crate::sparsity::causal_width;

/// Result of stage-1 sampling.
#[derive(Debug, Clone)]
pub struct SampledScores {
    /// Attention probability mass accumulated per key column over the
    /// sampled rows (the `SampleWeight` reduction of Algorithm 1).
    pub column_scores: Vec<f32>,
    /// Attention probability mass accumulated per *relative diagonal*
    /// offset (0 = the causal end itself). This is the reduction needed
    /// to detect Appendix A.6's diagonal structures; it reuses the same
    /// sampled scores, so the extra cost is one more accumulate per live
    /// pair.
    pub diagonal_scores: Vec<f32>,
    /// The sampled query row indices.
    pub sampled_rows: Vec<usize>,
    /// Exact cost of the fused sampling kernel.
    pub cost: CostReport,
}

impl SampledScores {
    /// Total accumulated mass (≈ number of sampled rows with nonzero
    /// causal width, since each sampled row contributes a probability
    /// distribution).
    pub fn total_mass(&self) -> f32 {
        self.column_scores.iter().sum()
    }

    /// Column scores normalised to sum to 1 (empty if there is no mass).
    pub fn normalized(&self) -> Vec<f32> {
        let total = self.total_mass();
        if total <= 0.0 {
            return vec![0.0; self.column_scores.len()];
        }
        self.column_scores.iter().map(|&v| v / total).collect()
    }
}

/// Runs stage-1 sampling: strided rows, exact causal softmax per sampled
/// row, column accumulation.
///
/// The kernel is *fused*: scores for one sampled row live only in a
/// register-sized buffer, so the memory traffic is the Q/K reads plus the
/// final `S_k` column-score write — this is exactly the IO the paper's
/// fused `bmm+softmax+reduction` performs and what makes stage 1 cheap.
///
/// # Errors
///
/// Returns [`TensorError::ShapeMismatch`] if `q.cols() != k.cols()`, or an
/// invalid-ratio error from the row sampler.
///
/// # Example
///
/// ```
/// use sa_core::sampling::sample_attention_scores;
/// use sa_tensor::DeterministicRng;
///
/// # fn main() -> Result<(), sa_tensor::TensorError> {
/// let mut rng = DeterministicRng::new(0);
/// let q = rng.normal_matrix(128, 8, 1.0);
/// let k = rng.normal_matrix(128, 8, 1.0);
/// let sampled = sample_attention_scores(&q, &k, 0.05)?;
/// assert_eq!(sampled.column_scores.len(), 128);
/// assert!(sampled.sampled_rows.len() < 20);
/// # Ok(())
/// # }
/// ```
pub fn sample_attention_scores(
    q: &Matrix,
    k: &Matrix,
    sample_ratio: f32,
) -> Result<SampledScores, TensorError> {
    let panels = KeyPanels::from_rows(k);
    sample_attention_scores_prepared(q, PreparedKeys::new(k, &panels), sample_ratio)
}

/// [`sample_attention_scores`] on keys whose panels the caller already
/// holds. Sampled rows are scored two at a time with the engine's panel
/// microkernel; each score is the same strict-order sum as a scalar dot
/// product, so the result does not depend on how rows are paired.
///
/// # Errors
///
/// As [`sample_attention_scores`].
pub fn sample_attention_scores_prepared(
    q: &Matrix,
    keys: PreparedKeys<'_>,
    sample_ratio: f32,
) -> Result<SampledScores, TensorError> {
    let k = keys.rows();
    if q.cols() != k.cols() {
        return Err(TensorError::ShapeMismatch {
            op: "sample_attention_scores",
            lhs: q.shape(),
            rhs: k.shape(),
        });
    }
    let (s_q, d) = q.shape();
    let s_k = k.rows();
    let sample = StrideSample::by_ratio(s_q, sample_ratio)?;
    let scale = score_scale(d);

    // Parallel schedule with a serial reduction: sampled rows are
    // processed in fixed batches of SAMPLE_BATCH rows. Within a batch the
    // per-row probability vectors are computed on the worker pool, a pair
    // of rows per task (per-row arithmetic identical to the serial loop,
    // rows are independent); the batch is then folded into the
    // accumulators strictly in sampled-row order. The batch size — and
    // hence every addition's position in the reduction — is independent
    // of the thread count, so the result is bit-identical under any
    // `SA_THREADS`. Memory stays bounded at SAMPLE_BATCH probability
    // vectors.
    //
    // The accumulators are f64 (output stays f32): thousands of sampled
    // rows each add ~`visible` tiny probabilities, the same long-sum
    // regime that moves stage-2's α-threshold under f32 drift.
    const SAMPLE_BATCH: usize = 64;
    let mut column_acc = vec![0.0f64; s_k];
    let mut diagonal_acc = vec![0.0f64; s_k];
    let mut live_pairs: u64 = 0;

    let panels = keys.panels();
    let isa = Isa::detect();
    // Softmax rows of up to two sampled rows: raw scores a whole panel at
    // a time, both rows while both still see the panel, then cut to each
    // row's causal width.
    let pair_probs = |rows: &[usize]| -> Vec<(usize, Vec<f32>)> {
        let visible: Vec<usize> = rows.iter().map(|&i| causal_width(i, s_q, s_k)).collect();
        let mut probs: Vec<Vec<f32>> = visible
            .iter()
            .map(|&v| vec![0.0f32; v.div_ceil(ENGINE_BLOCK) * ENGINE_BLOCK])
            .collect();
        let mut shared = 0;
        if let [first, second] = probs.as_mut_slice() {
            shared = first.len().min(second.len()) / ENGINE_BLOCK;
            for p in 0..shared {
                let lanes = p * ENGINE_BLOCK..(p + 1) * ENGINE_BLOCK;
                panels.score_panel(
                    isa,
                    p,
                    [q.row(rows[0]), q.row(rows[1])],
                    scale,
                    [&mut first[lanes.clone()], &mut second[lanes]],
                );
            }
        }
        for ((&i, &width), row_probs) in rows.iter().zip(&visible).zip(&mut probs) {
            for (p, lanes) in row_probs.chunks_mut(ENGINE_BLOCK).enumerate().skip(shared) {
                panels.score_panel(isa, p, [q.row(i)], scale, [lanes]);
            }
            row_probs.truncate(width);
            softmax_row_on(isa, row_probs);
        }
        visible
            .into_iter()
            .zip(probs)
            .filter(|&(width, _)| width > 0)
            .collect()
    };
    let grain = pool::row_grain(2 * s_k.max(1) * d.max(1));
    for batch in sample.indices().chunks(SAMPLE_BATCH) {
        let pairs: Vec<&[usize]> = batch.chunks(2).collect();
        let computed =
            pool::try_parallel_map("stage1_sampling", pairs.len(), grain, |b| pair_probs(pairs[b]))?;
        for (visible, probs) in computed.into_iter().flatten() {
            for (j, (acc, &p)) in column_acc.iter_mut().zip(probs.iter()).enumerate() {
                *acc += f64::from(p);
                diagonal_acc[visible - 1 - j] += f64::from(p);
            }
            live_pairs += visible as u64;
        }
    }
    let mut column_scores: Vec<f32> = column_acc.into_iter().map(|v| v as f32).collect();
    let diagonal_scores: Vec<f32> = diagonal_acc.into_iter().map(|v| v as f32).collect();
    // Fault-injection hook: an installed plan with `zero_mass` wipes the
    // accumulated column scores here, exercising the zero-mass sentinel
    // downstream. Inert (one thread-local read) unless a plan is installed.
    fault::tamper_scores("stage1_scores", &mut column_scores);

    // Fused kernel cost: Q sample rows + visible K rows read, column
    // scores written once. (2d for the dot product, ~4 for softmax, 1 for
    // the accumulate per live pair.) K reads are shared across the
    // sampled rows of a tile (128-row tiles, as in the sparse kernel).
    let flops = live_pairs * (2 * d as u64 + 5);
    let bytes_read =
        4 * (sample.len() * d) as u64 + (4 * live_pairs * d as u64).div_ceil(128);
    let bytes_written = 4 * s_k as u64;
    let cost = CostReport::launch(flops, bytes_read, bytes_written);

    Ok(SampledScores {
        column_scores,
        diagonal_scores,
        sampled_rows: sample.indices().to_vec(),
        cost,
    })
}

#[cfg(test)]
mod tests {
    use super::*;
    use sa_kernels::attention_probs;
    use sa_tensor::{col_sum, cosine_similarity, DeterministicRng};

    fn qk(s: usize, d: usize, seed: u64) -> (Matrix, Matrix) {
        let mut rng = DeterministicRng::new(seed);
        (rng.normal_matrix(s, d, 1.0), rng.normal_matrix(s, d, 1.0))
    }

    #[test]
    fn full_ratio_matches_exact_column_sums() {
        let (q, k) = qk(40, 8, 1);
        let sampled = sample_attention_scores(&q, &k, 1.0).unwrap();
        let p = attention_probs(&q, &k, true).unwrap();
        let exact = col_sum(&p);
        for (a, b) in sampled.column_scores.iter().zip(&exact) {
            assert!((a - b).abs() < 1e-4, "{a} vs {b}");
        }
    }

    #[test]
    fn each_sampled_row_contributes_unit_mass() {
        let (q, k) = qk(64, 8, 2);
        let sampled = sample_attention_scores(&q, &k, 0.1).unwrap();
        let expected = sampled.sampled_rows.len() as f32;
        assert!((sampled.total_mass() - expected).abs() < 1e-3);
    }

    #[test]
    fn sampled_scores_correlate_with_exact_on_striped_heads() {
        // The core empirical claim (Appendix A.5): a 5 % sample ranks
        // columns almost like the full matrix does, because column stripes
        // are shared across rows.
        let mut rng = DeterministicRng::new(3);
        let s = 400;
        let d = 16;
        let mut k = rng.normal_matrix(s, d, 0.3);
        for &hot in &[0usize, 133, 250] {
            for j in 0..d {
                let v = k.get(hot, j);
                k.set(hot, j, v + 3.0);
            }
        }
        let q = Matrix::from_fn(s, d, |_, _| 0.5 + 0.1 * rng.normal());
        let sampled = sample_attention_scores(&q, &k, 0.05).unwrap();
        let p = attention_probs(&q, &k, true).unwrap();
        let exact = col_sum(&p);
        let total: f32 = exact.iter().sum();
        let exact_norm: Vec<f32> = exact.iter().map(|v| v / total).collect();
        let sim = cosine_similarity(&sampled.normalized(), &exact_norm);
        assert!(sim > 0.95, "cosine similarity {sim}");
    }

    #[test]
    fn sampled_scores_roughly_track_exact_even_on_random_heads() {
        // Random (worst-case, unstructured) heads: the sample still
        // captures the causal column-mass ramp, just less sharply.
        let (q, k) = qk(400, 16, 3);
        let sampled = sample_attention_scores(&q, &k, 0.05).unwrap();
        let p = attention_probs(&q, &k, true).unwrap();
        let exact = col_sum(&p);
        let total: f32 = exact.iter().sum();
        let exact_norm: Vec<f32> = exact.iter().map(|v| v / total).collect();
        let sim = cosine_similarity(&sampled.normalized(), &exact_norm);
        assert!(sim > 0.7, "cosine similarity {sim}");
    }

    #[test]
    fn sampling_cost_much_cheaper_than_full() {
        let (q, k) = qk(256, 16, 4);
        let sampled = sample_attention_scores(&q, &k, 0.05).unwrap();
        let full = sample_attention_scores(&q, &k, 1.0).unwrap();
        assert!(sampled.cost.flops * 10 < full.cost.flops);
        assert_eq!(sampled.cost.kernel_launches, 1); // fused
    }

    #[test]
    fn shape_mismatch_rejected() {
        let (q, _) = qk(8, 4, 5);
        let k = Matrix::zeros(8, 6);
        assert!(sample_attention_scores(&q, &k, 0.5).is_err());
    }

    #[test]
    fn invalid_ratio_rejected() {
        let (q, k) = qk(8, 4, 6);
        assert!(sample_attention_scores(&q, &k, 0.0).is_err());
    }

    #[test]
    fn rectangular_kv_longer() {
        let mut rng = DeterministicRng::new(7);
        let q = rng.normal_matrix(8, 4, 1.0);
        let k = rng.normal_matrix(32, 4, 1.0);
        let sampled = sample_attention_scores(&q, &k, 1.0).unwrap();
        assert_eq!(sampled.column_scores.len(), 32);
        let p = attention_probs(&q, &k, true).unwrap();
        let exact = col_sum(&p);
        for (a, b) in sampled.column_scores.iter().zip(&exact) {
            assert!((a - b).abs() < 1e-4);
        }
    }

    #[test]
    fn normalized_sums_to_one() {
        let (q, k) = qk(32, 8, 8);
        let s = sample_attention_scores(&q, &k, 0.2).unwrap();
        let n = s.normalized();
        assert!((n.iter().sum::<f32>() - 1.0).abs() < 1e-4);
    }

    #[test]
    fn zero_rows_yield_empty_scores() {
        let q = Matrix::zeros(0, 4);
        let k = Matrix::zeros(16, 4);
        let s = sample_attention_scores(&q, &k, 0.5).unwrap();
        assert!(s.sampled_rows.is_empty());
        assert_eq!(s.total_mass(), 0.0);
        assert!(s.normalized().iter().all(|&v| v == 0.0));
    }
}
