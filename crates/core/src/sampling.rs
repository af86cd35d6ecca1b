//! Stage 1: **query-guided attention sampling**.
//!
//! Computes exact attention scores for a strided sample of the query rows
//! and accumulates them along columns — the paper's fused
//! `sample_bmm_softmax_reduction(Q, K, r_row)`. The column-stripe pattern
//! (high row-wise similarity of score distributions, Figure 2(e)) is what
//! makes a small sample representative of all rows.

use sa_kernels::{score_scale, CostReport, KeyPanels, PreparedKeys, ENGINE_BLOCK};
use sa_tensor::{fault, pool, softmax_rows_on, AlignedBuf, Isa, Matrix, StrideSample, TensorError};

use crate::sparsity::causal_width;

/// Result of stage-1 sampling.
#[derive(Debug, Clone)]
pub struct SampledScores {
    /// Attention probability mass accumulated per key column over the
    /// sampled rows (the `SampleWeight` reduction of Algorithm 1).
    pub column_scores: Vec<f32>,
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

/// Sampled rows per batch: the probability rows held at once. The
/// batches, and so every addition's place in the column sums, depend
/// on the sample alone, never on the thread count.
const SAMPLE_BATCH: usize = 64;

/// Sampled rows one scoring task takes: the rows whose softmax
/// normalisers [`softmax_rows_on`] advances together. A multiple of four,
/// so that no four rows scored together are split.
const ROW_GROUP: usize = 8;
const _: () = assert!(ROW_GROUP % 4 == 0);

/// [`sample_attention_scores`] on keys whose panels the caller already
/// holds. Sampled rows are scored four at a time with the engine's panel
/// microkernel; each score is the same strict-order sum of fused
/// products as a scalar dot product, so the result does not depend on how
/// rows are grouped.
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
    let panels = keys.panels();
    let isa = Isa::detect();

    // Sampled rows go through in fixed batches of SAMPLE_BATCH, in two
    // fan-outs each, with no allocation per row:
    // 1. the batch's probability rows, into one reused buffer (a row per
    //    sampled row, `stride` lanes apart, from a cache line): groups of
    //    ROW_GROUP rows per task, scored in fours, then their causal
    //    softmax;
    // 2. the batch into the accumulators, over ranges of columns: every
    //    column still adds the batch's rows in sampled order, whoever
    //    takes its range.
    // Rows are independent and every sum keeps its order, so the result is
    // bit-identical under any `SA_THREADS`.
    //
    // The accumulators are f64 (output stays f32): thousands of sampled
    // rows each add ~`visible` tiny probabilities, the same long-sum
    // regime that moves stage-2's α-threshold under f32 drift.
    let stride = s_k.div_ceil(ENGINE_BLOCK) * ENGINE_BLOCK;
    let mut probs = AlignedBuf::zeros(SAMPLE_BATCH.min(sample.len()) * stride);
    let mut acc = vec![0.0f64; s_k];
    let mut widths = Vec::with_capacity(SAMPLE_BATCH);
    let mut live_pairs: u64 = 0;
    let score_grain = pool::row_grain(stride * d.max(1)).div_ceil(ROW_GROUP) * ROW_GROUP;
    for batch in sample.indices().chunks(SAMPLE_BATCH) {
        widths.clear();
        widths.extend(batch.iter().map(|&i| causal_width(i, s_q, s_k)));
        let rows = Rows {
            queries: batch,
            widths: &widths,
            stride,
        };
        let held = &mut probs.as_mut_slice()[..batch.len() * stride];
        pool::try_parallel_for_rows("stage1_sampling", held, stride, score_grain, |row0, out| {
            rows.score(isa, q, panels, scale, row0, out);
        })?;
        let probs = probs.as_slice();
        let fold_grain = pool::row_grain(batch.len());
        pool::try_parallel_for_rows("stage1_sampling", &mut acc, 1, fold_grain, |j0, part| {
            rows.fold(probs, j0, part);
        })?;
        live_pairs += widths.iter().sum::<usize>() as u64;
    }
    let mut column_scores: Vec<f32> = acc.iter().map(|&v| v as f32).collect();
    // Fault-injection hook: an installed plan with `zero_mass` wipes the
    // accumulated column scores here, exercising the zero-mass sentinel
    // downstream. Inert (one thread-local read) unless a plan is installed.
    fault::tamper_scores("stage1_scores", &mut column_scores);

    // Fused kernel cost: Q sample rows + visible K rows read, column
    // scores written once. (2d for the dot product, ~4 for softmax, 1 for
    // the accumulate per live pair.) K reads are charged once per 128
    // sampled rows: the modelled fused kernel's row tile, a constant of
    // this cost model, not the engine's 64-row block.
    let flops = live_pairs * (2 * d as u64 + 5);
    let bytes_read =
        4 * (sample.len() * d) as u64 + (4 * live_pairs * d as u64).div_ceil(128);
    let bytes_written = 4 * s_k as u64;
    let cost = CostReport::launch(flops, bytes_read, bytes_written);

    Ok(SampledScores {
        column_scores,
        sampled_rows: sample.indices().to_vec(),
        cost,
    })
}

/// Sampled rows of a batch: query row `queries[r]` sees the first
/// `widths[r]` keys, and its probability row sits `r * stride` floats
/// into the batch buffer.
struct Rows<'a> {
    queries: &'a [usize],
    widths: &'a [usize],
    stride: usize,
}

impl Rows<'_> {
    /// Fills `out`, the buffer rows of rows `row0..`, with their causal
    /// softmax rows: raw scores a whole panel at a time, four rows at once
    /// while all four still see the panel, then two while both do, then
    /// each row alone; then the softmax of each row's visible lanes,
    /// ROW_GROUP rows together.
    fn score(
        &self,
        isa: Isa,
        q: &Matrix,
        panels: &KeyPanels,
        scale: f32,
        row0: usize,
        out: &mut [f32],
    ) {
        let stride = self.stride;
        let panels_seen = |width: usize| width.div_ceil(ENGINE_BLOCK);
        let lanes = |p: usize| p * ENGINE_BLOCK..(p + 1) * ENGINE_BLOCK;
        for ((queries, widths), out) in self.queries[row0..]
            .chunks(ROW_GROUP)
            .zip(self.widths[row0..].chunks(ROW_GROUP))
            .zip(out.chunks_mut(ROW_GROUP * stride))
        {
            for ((quad, seen), out) in queries
                .chunks(4)
                .zip(widths.chunks(4))
                .zip(out.chunks_mut(4 * stride))
            {
                // Panels every row of the quad has been scored against.
                let mut done = 0;
                if let [a, b, c, e] = quad {
                    let shared = seen.iter().map(|&w| panels_seen(w)).min().unwrap_or(0);
                    let (first, rest) = out.split_at_mut(stride);
                    let (second, rest) = rest.split_at_mut(stride);
                    let (third, fourth) = rest.split_at_mut(stride);
                    for p in 0..shared {
                        panels.score_panel(
                            isa,
                            p,
                            [q.row(*a), q.row(*b), q.row(*c), q.row(*e)],
                            scale,
                            [
                                &mut first[lanes(p)],
                                &mut second[lanes(p)],
                                &mut third[lanes(p)],
                                &mut fourth[lanes(p)],
                            ],
                        );
                    }
                    done = shared;
                }
                for ((pair, seen), out) in quad
                    .chunks(2)
                    .zip(seen.chunks(2))
                    .zip(out.chunks_mut(2 * stride))
                {
                    let mut shared = done;
                    if let ([a, b], [seen_a, seen_b]) = (pair, seen) {
                        let (first, second) = out.split_at_mut(stride);
                        shared = panels_seen(*seen_a).min(panels_seen(*seen_b));
                        for p in done..shared {
                            panels.score_panel(
                                isa,
                                p,
                                [q.row(*a), q.row(*b)],
                                scale,
                                [&mut first[lanes(p)], &mut second[lanes(p)]],
                            );
                        }
                    }
                    for ((&i, &width), row) in pair.iter().zip(seen).zip(out.chunks_mut(stride)) {
                        for p in shared..panels_seen(width) {
                            panels.score_panel(isa, p, [q.row(i)], scale, [&mut row[lanes(p)]]);
                        }
                    }
                }
            }
            let mut group: [&mut [f32]; ROW_GROUP] = Default::default();
            for ((slot, row), &width) in group.iter_mut().zip(out.chunks_mut(stride)).zip(widths) {
                *slot = &mut row[..width];
            }
            softmax_rows_on(isa, &mut group[..queries.len()]);
        }
    }

    /// Adds the batch's probability rows `probs` into `part`, the column
    /// accumulators `j0..j0 + part.len()`: column `j` gains `p[r][j]`,
    /// rows in sampled order.
    fn fold(&self, probs: &[f32], j0: usize, part: &mut [f64]) {
        for (row, &width) in probs.chunks(self.stride).zip(self.widths) {
            for (a, &p) in part.iter_mut().zip(row[..width].get(j0..).unwrap_or(&[])) {
                *a += f64::from(p);
            }
        }
    }
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
