//! Cumulative residual attention (**CRA**, Definition 2).
//!
//! ```text
//! CRA(M) = min_i Σ_j (M * P)_{ij}
//! ```
//!
//! the minimum over query rows of the attention probability mass retained
//! after sparsification. The paper uses the minimum (not the mean) so that
//! even the worst-recovered row stays near-lossless.

use sa_kernels::{DenseMask, StructuredMask};
use sa_tensor::{Matrix, SaError};

/// CRA of a dense `{0,1}` mask against a probability matrix `p`.
///
/// `p` must already be row-stochastic over the causal region (rows of a
/// causal softmax). Rows of `p` that carry no mass (fully masked rows in
/// rectangular problems) are skipped — they constrain nothing.
///
/// Row totals and kept sums accumulate in f64 so the result stays exact
/// at paper-scale contexts (64K+ keys per row), mirroring the long-context
/// accumulator fixes elsewhere in the pipeline.
///
/// Returns 1.0 for an empty problem (no constraining rows).
///
/// # Errors
///
/// Returns [`SaError::ShapeMismatch`] if the mask shape differs from
/// `p`'s shape.
pub fn cra_of_dense_mask(p: &Matrix, mask: &DenseMask) -> Result<f32, SaError> {
    if (mask.s_q(), mask.s_k()) != p.shape() {
        return Err(SaError::ShapeMismatch {
            op: "cra_of_dense_mask",
            lhs: (mask.s_q(), mask.s_k()),
            rhs: p.shape(),
        });
    }
    let mut min = f64::INFINITY;
    for i in 0..p.rows() {
        let row = p.row(i);
        let total: f64 = row.iter().map(|&v| v as f64).sum();
        if total <= 0.0 {
            continue;
        }
        let kept: f64 = row
            .iter()
            .enumerate()
            .filter(|&(j, _)| mask.get(i, j))
            .map(|(_, &v)| v as f64)
            .sum();
        min = min.min(kept / total);
    }
    if min == f64::INFINITY {
        Ok(1.0)
    } else {
        Ok(min as f32)
    }
}

/// CRA of a [`StructuredMask`] against a probability matrix.
///
/// Semantics match [`cra_of_dense_mask`] on the materialised mask, but the
/// structured form is evaluated directly (window + extras per row) without
/// allocating the dense mask. Accumulation is f64, as above. This is the
/// `min_row` half of [`structured_mask_coverage`].
///
/// # Errors
///
/// Returns [`SaError::ShapeMismatch`] if the mask shape differs from
/// `p`'s shape.
pub fn cra_of_structured_mask(p: &Matrix, mask: &StructuredMask) -> Result<f32, SaError> {
    Ok(coverage_pass(p, mask, "cra_of_structured_mask")?.min_row)
}

/// Two views of how much attention mass a mask keeps, from one row pass.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct MaskCoverage {
    /// The paper's CRA (Definition 2): the minimum over constraining
    /// rows of kept / total mass.
    pub min_row: f32,
    /// The exact aggregate coverage: Σ kept / Σ total over every
    /// constraining row — the quantity stage 2's sampled `covered_mass`
    /// estimates. A mass-weighted mean of the per-row ratios, so it is
    /// never below `min_row`.
    pub aggregate: f32,
}

/// The row-minimum CRA and the aggregate coverage of a [`StructuredMask`]
/// against a probability matrix, in one pass over the rows. Rows that
/// carry no mass constrain neither number; an empty problem reads 1.0
/// for both.
///
/// # Errors
///
/// Returns [`SaError::ShapeMismatch`] if the mask shape differs from
/// `p`'s shape.
pub fn structured_mask_coverage(p: &Matrix, mask: &StructuredMask) -> Result<MaskCoverage, SaError> {
    coverage_pass(p, mask, "structured_mask_coverage")
}

fn coverage_pass(
    p: &Matrix,
    mask: &StructuredMask,
    op: &'static str,
) -> Result<MaskCoverage, SaError> {
    if (mask.s_q(), mask.s_k()) != p.shape() {
        return Err(SaError::ShapeMismatch {
            op,
            lhs: (mask.s_q(), mask.s_k()),
            rhs: p.shape(),
        });
    }
    let extras = mask.extra_columns();
    let mut min = f64::INFINITY;
    let (mut kept_sum, mut total_sum) = (0.0f64, 0.0f64);
    for i in 0..p.rows() {
        let row = p.row(i);
        let total: f64 = row.iter().map(|&v| v as f64).sum();
        if total <= 0.0 {
            continue;
        }
        let Some(end) = mask.causal_end(i) else {
            continue;
        };
        let win_start = mask.window_start(i);
        let mut kept: f64 = row[win_start..=end].iter().map(|&v| v as f64).sum();
        for &c in extras.iter().take_while(|&&c| c < win_start) {
            kept += row[c] as f64;
        }
        min = min.min(kept / total);
        kept_sum += kept;
        total_sum += total;
    }
    if min == f64::INFINITY {
        return Ok(MaskCoverage {
            min_row: 1.0,
            aggregate: 1.0,
        });
    }
    Ok(MaskCoverage {
        min_row: min as f32,
        aggregate: (kept_sum / total_sum) as f32,
    })
}

/// One point of the stripe-coverage curve: keeping the top `ratio` of
/// stripe columns (plus the window) achieves `cra`.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct StripeCoverage {
    /// Fraction of key columns kept as stripes.
    pub stripe_ratio: f32,
    /// Achieved CRA.
    pub cra: f32,
}

/// The paper's Figure 2(e) / Table 6 curve: CRA achieved when selecting
/// the top-`ratio` stripe columns ranked by `column_scores`, merged with a
/// local window of `window` tokens.
///
/// `p` is the exact probability matrix; `column_scores` is the ranking
/// signal — pass exact column sums for the "100 % sampling" curve and
/// stage-1 sampled sums for the "5 % sampling" curve.
///
/// # Errors
///
/// Returns [`SaError::ShapeMismatch`] if
/// `column_scores.len() != p.cols()`, and propagates mask-construction
/// errors.
pub fn stripe_coverage_curve(
    p: &Matrix,
    column_scores: &[f32],
    window: usize,
    ratios: &[f32],
) -> Result<Vec<StripeCoverage>, SaError> {
    if column_scores.len() != p.cols() {
        return Err(SaError::ShapeMismatch {
            op: "stripe_coverage_curve",
            lhs: (1, column_scores.len()),
            rhs: p.shape(),
        });
    }
    let s_k = p.cols();
    let order = sa_tensor::argsort_desc(column_scores);
    ratios
        .iter()
        .map(|&ratio| {
            let k = ((ratio.clamp(0.0, 1.0) * s_k as f32).round() as usize).min(s_k);
            let cols: Vec<usize> = order[..k].to_vec();
            let mask = StructuredMask::builder(p.rows(), s_k)
                .window(window)
                .columns(cols)
                .build()?;
            Ok(StripeCoverage {
                stripe_ratio: ratio,
                cra: cra_of_structured_mask(p, &mask)?,
            })
        })
        .collect()
}

#[cfg(test)]
mod tests {
    use super::*;
    use sa_kernels::attention_probs;
    use sa_tensor::{col_sum, DeterministicRng};

    fn probs(s: usize, d: usize, seed: u64) -> Matrix {
        let mut rng = DeterministicRng::new(seed);
        let q = rng.normal_matrix(s, d, 1.0);
        let k = rng.normal_matrix(s, d, 1.0);
        attention_probs(&q, &k, true).unwrap()
    }

    #[test]
    fn full_mask_has_cra_one() {
        let p = probs(20, 8, 1);
        let dense = DenseMask::causal(20, 20);
        assert!((cra_of_dense_mask(&p, &dense).unwrap() - 1.0).abs() < 1e-5);
        let structured = StructuredMask::dense_causal(20, 20);
        assert!((cra_of_structured_mask(&p, &structured).unwrap() - 1.0).abs() < 1e-5);
        let cov = structured_mask_coverage(&p, &structured).unwrap();
        assert_eq!((cov.min_row, cov.aggregate), (1.0, 1.0), "causal-full keeps every row whole");
    }

    #[test]
    fn empty_mask_has_cra_zero() {
        let p = probs(10, 4, 2);
        let dense = DenseMask::zeros(10, 10);
        assert_eq!(cra_of_dense_mask(&p, &dense).unwrap(), 0.0);
        let structured = StructuredMask::builder(10, 10).window(0).build().unwrap();
        assert_eq!(cra_of_structured_mask(&p, &structured).unwrap(), 0.0);
    }

    #[test]
    fn structured_matches_dense_oracle() {
        let p = probs(32, 8, 3);
        for (w, sinks, cols) in [
            (4usize, 0usize, vec![10usize, 20]),
            (0, 2, vec![]),
            (8, 1, vec![5, 15, 25]),
        ] {
            let m = StructuredMask::builder(32, 32)
                .window(w)
                .sinks(sinks)
                .columns(cols)
                .build()
                .unwrap();
            let a = cra_of_structured_mask(&p, &m).unwrap();
            let dense = m.to_dense();
            let b = cra_of_dense_mask(&p, &dense).unwrap();
            assert!((a - b).abs() < 1e-6, "w={w}: {a} vs {b}");
            // The aggregate coverage from the same pass: Σ kept / Σ total
            // on the materialised mask, never below the row minimum.
            let cov = structured_mask_coverage(&p, &m).unwrap();
            assert_eq!(cov.min_row, a);
            assert!(cov.aggregate >= cov.min_row, "w={w}: {cov:?}");
            let (mut kept, mut total) = (0.0f64, 0.0f64);
            for i in 0..p.rows() {
                for (j, &v) in p.row(i).iter().enumerate() {
                    total += v as f64;
                    kept += if dense.get(i, j) { v as f64 } else { 0.0 };
                }
            }
            let oracle = (kept / total) as f32;
            assert!((cov.aggregate - oracle).abs() < 1e-6, "w={w}: {cov:?} vs {oracle}");
        }
    }

    #[test]
    fn cra_is_monotone_in_mask() {
        let p = probs(24, 8, 4);
        let small = StructuredMask::builder(24, 24).window(2).build().unwrap();
        let big = StructuredMask::builder(24, 24).window(12).build().unwrap();
        assert!(cra_of_structured_mask(&p, &big).unwrap() >= cra_of_structured_mask(&p, &small).unwrap());
    }

    #[test]
    fn cra_uses_minimum_row() {
        // Construct P manually: row 0 keeps 100 %, row 1 keeps 10 %.
        let p = Matrix::from_rows(&[vec![1.0, 0.0], vec![0.1, 0.9]]).unwrap();
        let mut mask = DenseMask::zeros(2, 2);
        mask.set(0, 0, true);
        mask.set(1, 0, true); // keeps only the 0.1 entry of row 1
        let cra = cra_of_dense_mask(&p, &mask).unwrap();
        assert!((cra - 0.1).abs() < 1e-6);
    }

    #[test]
    fn zero_mass_rows_skipped() {
        // Row 1 has no probability mass at all (fully masked rectangular row).
        let p = Matrix::from_rows(&[vec![1.0, 0.0], vec![0.0, 0.0]]).unwrap();
        let mut mask = DenseMask::zeros(2, 2);
        mask.set(0, 0, true);
        assert!((cra_of_dense_mask(&p, &mask).unwrap() - 1.0).abs() < 1e-6);
    }

    #[test]
    fn coverage_curve_monotone_and_saturating() {
        let p = probs(64, 8, 5);
        let scores = col_sum(&p);
        let curve = stripe_coverage_curve(&p, &scores, 4, &[0.0, 0.1, 0.25, 0.5, 1.0]).unwrap();
        assert_eq!(curve.len(), 5);
        for w in curve.windows(2) {
            assert!(w[1].cra >= w[0].cra - 1e-6, "{curve:?}");
        }
        assert!((curve.last().unwrap().cra - 1.0).abs() < 1e-5);
    }

    #[test]
    fn shape_mismatch_is_a_typed_error() {
        let p = probs(8, 4, 7);
        let dense = DenseMask::zeros(9, 8);
        assert!(matches!(
            cra_of_dense_mask(&p, &dense),
            Err(SaError::ShapeMismatch {
                op: "cra_of_dense_mask",
                ..
            })
        ));
        let structured = StructuredMask::builder(8, 9).window(2).build().unwrap();
        assert!(matches!(
            cra_of_structured_mask(&p, &structured),
            Err(SaError::ShapeMismatch {
                op: "cra_of_structured_mask",
                ..
            })
        ));
        assert!(matches!(
            structured_mask_coverage(&p, &structured),
            Err(SaError::ShapeMismatch {
                op: "structured_mask_coverage",
                ..
            })
        ));
        let scores = vec![1.0f32; 7];
        assert!(matches!(
            stripe_coverage_curve(&p, &scores, 2, &[0.5]),
            Err(SaError::ShapeMismatch {
                op: "stripe_coverage_curve",
                ..
            })
        ));
    }

    #[test]
    fn long_context_row_sums_use_f64_accumulators() {
        // 64K keys per row with magnitudes chosen so a running f32
        // accumulator drifts by ~1e-3 while f64 stays exact: the kept/total
        // ratio must agree with an f64 reference to well below that drift.
        let s_k = 64 * 1024;
        let p = Matrix::from_fn(2, s_k, |i, j| 1e-4 * (1 + (i + j) % 7) as f32);
        let mut mask = DenseMask::zeros(2, s_k);
        for i in 0..2 {
            for j in (0..s_k).step_by(2) {
                mask.set(i, j, true);
            }
        }
        let mut expected = f64::INFINITY;
        for i in 0..2 {
            let mut total = 0.0f64;
            let mut kept = 0.0f64;
            for (j, &v) in p.row(i).iter().enumerate() {
                total += v as f64;
                if mask.get(i, j) {
                    kept += v as f64;
                }
            }
            expected = expected.min(kept / total);
        }
        let cra = cra_of_dense_mask(&p, &mask).unwrap();
        assert!(
            (cra as f64 - expected).abs() < 1e-6,
            "dense: {cra} vs f64 reference {expected}"
        );

        // Structured path over the same context length: window + sinks,
        // checked against the same f64 reference on the materialised mask.
        let m = StructuredMask::builder(2, s_k)
            .window(s_k / 2)
            .sinks(3)
            .build()
            .unwrap();
        let dense_m = m.to_dense();
        let mut expected_s = f64::INFINITY;
        for i in 0..2 {
            let mut total = 0.0f64;
            let mut kept = 0.0f64;
            for (j, &v) in p.row(i).iter().enumerate() {
                total += v as f64;
                if dense_m.get(i, j) {
                    kept += v as f64;
                }
            }
            expected_s = expected_s.min(kept / total);
        }
        let cra_s = cra_of_structured_mask(&p, &m).unwrap();
        assert!(
            (cra_s as f64 - expected_s).abs() < 1e-6,
            "structured: {cra_s} vs f64 reference {expected_s}"
        );
    }

    #[test]
    fn coverage_curve_window_only_floor() {
        let p = probs(32, 8, 6);
        let scores = col_sum(&p);
        let curve = stripe_coverage_curve(&p, &scores, 8, &[0.0]).unwrap();
        // Window alone retains some mass on every row.
        assert!(curve[0].cra > 0.0);
        assert!(curve[0].cra < 1.0);
    }
}
