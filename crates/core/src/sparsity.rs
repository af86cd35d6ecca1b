//! Sparsity degree (**SD**, Definition 1) and pattern analysis.
//!
//! ```text
//! SD(α) = max_M { 1 - ΣM / (S_q·S_k/2) }  s.t.  CRA(M) ≥ α
//! ```
//!
//! The unconstrained optimum admits a closed form: independently per query
//! row, keep the fewest highest-probability entries whose sum reaches `α`
//! (any other row-feasible mask keeps at least as many entries). This
//! module computes that optimum, the *structured* (column-stripe) variant,
//! and a per-head pattern decomposition used by the Figure 2(d) analysis.

use sa_kernels::DenseMask;
use sa_tensor::{argsort_desc, Matrix};

/// The optimal (unstructured) sparsity degree `SD(α)` of a probability
/// matrix, together with the witnessing mask.
///
/// `p` must be row-stochastic over its live region (rows of a causal
/// softmax). The denominator is the number of causally visible entries
/// (the paper's `S_q · S_k / 2`).
///
/// Returns `(sd, mask)`; `sd` is 0 for an empty matrix.
///
/// # Panics
///
/// Panics if `alpha` is not in `(0, 1]`.
pub fn optimal_sparsity_degree(p: &Matrix, alpha: f32) -> (f64, DenseMask) {
    assert!(
        alpha > 0.0 && alpha <= 1.0,
        "alpha must be in (0, 1], got {alpha}"
    );
    let (s_q, s_k) = p.shape();
    let mut mask = DenseMask::zeros(s_q, s_k);
    let mut kept: u64 = 0;
    let mut causal: u64 = 0;
    for i in 0..s_q {
        let row = p.row(i);
        let total: f32 = row.iter().sum();
        // Count causally visible entries: for a causal-softmax P these are
        // the positions up to the diagonal. We infer the causal width from
        // the row structure of a square/rectangular problem.
        let visible = causal_width(i, s_q, s_k);
        causal += visible as u64;
        if total <= 0.0 {
            continue;
        }
        let target = alpha * total;
        let order = argsort_desc(row);
        let mut acc = 0.0;
        for &j in &order {
            mask.set(i, j, true);
            kept += 1;
            acc += row[j];
            if acc >= target {
                break;
            }
        }
    }
    let sd = if causal == 0 {
        0.0
    } else {
        1.0 - kept as f64 / causal as f64
    };
    (sd, mask)
}

/// The *structured* sparsity degree: the best achievable with a window of
/// `window` tokens plus whole-column stripes, selected greedily by
/// column mass outside the window.
///
/// This is the quantity SampleAttention can actually realise; the gap to
/// [`optimal_sparsity_degree`] measures the price of structure.
///
/// Returns `(sd, stripe_columns)`.
///
/// # Panics
///
/// Panics if `alpha` is not in `(0, 1]`.
pub fn structured_sparsity_degree(p: &Matrix, alpha: f32, window: usize) -> (f64, Vec<usize>) {
    assert!(
        alpha > 0.0 && alpha <= 1.0,
        "alpha must be in (0, 1], got {alpha}"
    );
    let (s_q, s_k) = p.shape();
    if s_q == 0 || s_k == 0 {
        return (0.0, Vec::new());
    }

    // Column mass restricted to the region below each row's window.
    let mut col_mass = vec![0.0f64; s_k];
    // Per-row window mass (already-covered fraction).
    let mut row_window_mass = vec![0.0f32; s_q];
    for (i, window_mass) in row_window_mass.iter_mut().enumerate() {
        let row = p.row(i);
        let visible = causal_width(i, s_q, s_k);
        if visible == 0 {
            continue;
        }
        let win_start = visible.saturating_sub(window);
        *window_mass = row[win_start..visible].iter().sum();
        for (j, &v) in row[..win_start].iter().enumerate() {
            col_mass[j] += v as f64;
        }
    }

    // Greedily add columns by global mass until every row reaches alpha.
    let scores: Vec<f32> = col_mass.iter().map(|&v| v as f32).collect();
    let order = argsort_desc(&scores);
    let mut row_mass = row_window_mass;
    let mut chosen: Vec<usize> = Vec::new();
    let worst = |rm: &[f32], p: &Matrix| -> f32 {
        let mut min = f32::INFINITY;
        for (i, &m) in rm.iter().enumerate() {
            let total: f32 = p.row(i).iter().sum();
            if total > 0.0 {
                min = min.min(m / total);
            }
        }
        if min == f32::INFINITY {
            1.0
        } else {
            min
        }
    };
    let mut current = worst(&row_mass, p);
    for &j in &order {
        if current >= alpha {
            break;
        }
        if scores[j] <= 0.0 {
            // No more mass to gain: adding columns cannot help.
            break;
        }
        chosen.push(j);
        for (i, mass) in row_mass.iter_mut().enumerate() {
            let visible = causal_width(i, s_q, s_k);
            let win_start = visible.saturating_sub(window);
            if j < win_start {
                *mass += p.get(i, j);
            }
        }
        current = worst(&row_mass, p);
    }
    chosen.sort_unstable();

    // Count kept entries: window per row + chosen columns below windows.
    let mut kept: u64 = 0;
    let mut causal: u64 = 0;
    for i in 0..s_q {
        let visible = causal_width(i, s_q, s_k);
        causal += visible as u64;
        if visible == 0 {
            continue;
        }
        let win_start = visible.saturating_sub(window);
        kept += (visible - win_start) as u64;
        kept += chosen.iter().take_while(|&&c| c < win_start).count() as u64;
    }
    let sd = if causal == 0 {
        0.0
    } else {
        1.0 - kept as f64 / causal as f64
    };
    (sd, chosen)
}

/// Decomposition of a head's attention mass into the paper's two
/// significant patterns (Figure 2(d)): local window vs. column stripes,
/// plus the unexplained remainder.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct PatternSummary {
    /// Mean fraction of row mass inside the local window.
    pub window_mass: f32,
    /// Mean fraction of row mass on the top stripe columns (outside the
    /// window).
    pub stripe_mass: f32,
    /// Mean fraction on the first few (sink) columns, counted within
    /// `stripe_mass` as well.
    pub sink_mass: f32,
    /// Remaining dispersed mass (`1 - window - stripe`).
    pub residual_mass: f32,
}

sa_json::impl_json_struct!(PatternSummary {
    window_mass,
    stripe_mass,
    sink_mass,
    residual_mass
});

/// Computes a [`PatternSummary`] for a probability matrix using a window
/// of `window` tokens, the top `num_stripes` columns, and `sinks` sink
/// positions.
pub fn pattern_summary(
    p: &Matrix,
    window: usize,
    num_stripes: usize,
    sinks: usize,
) -> PatternSummary {
    let (s_q, s_k) = p.shape();
    if s_q == 0 || s_k == 0 {
        return PatternSummary {
            window_mass: 0.0,
            stripe_mass: 0.0,
            sink_mass: 0.0,
            residual_mass: 0.0,
        };
    }
    let mut col_mass = vec![0.0f32; s_k];
    let mut window_mass = 0.0f64;
    let mut sink_mass = 0.0f64;
    let mut rows_counted = 0usize;
    for i in 0..s_q {
        let row = p.row(i);
        let total: f32 = row.iter().sum();
        if total <= 0.0 {
            continue;
        }
        rows_counted += 1;
        let visible = causal_width(i, s_q, s_k);
        let win_start = visible.saturating_sub(window);
        window_mass += (row[win_start..visible].iter().sum::<f32>() / total) as f64;
        sink_mass += (row[..sinks.min(win_start)].iter().sum::<f32>() / total) as f64;
        for (j, &v) in row[..win_start].iter().enumerate() {
            col_mass[j] += v / total;
        }
    }
    if rows_counted == 0 {
        return PatternSummary {
            window_mass: 0.0,
            stripe_mass: 0.0,
            sink_mass: 0.0,
            residual_mass: 0.0,
        };
    }
    let order = argsort_desc(&col_mass);
    let stripe_mass: f32 = order
        .iter()
        .take(num_stripes)
        .map(|&j| col_mass[j])
        .sum::<f32>()
        / rows_counted as f32;
    let window_mass = (window_mass / rows_counted as f64) as f32;
    let sink_mass = (sink_mass / rows_counted as f64) as f32;
    PatternSummary {
        window_mass,
        stripe_mass,
        sink_mass,
        residual_mass: (1.0 - window_mass - stripe_mass).max(0.0),
    }
}

/// Number of causally visible keys for query row `i` of an
/// `s_q x s_k` problem (same diagonal convention as `StructuredMask`).
pub(crate) fn causal_width(i: usize, s_q: usize, s_k: usize) -> usize {
    let end = i as isize + s_k as isize - s_q as isize;
    if end < 0 {
        0
    } else {
        (end as usize + 1).min(s_k)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::cra::cra_of_dense_mask;
    use sa_kernels::attention_probs;
    use sa_tensor::DeterministicRng;

    fn probs(s: usize, d: usize, seed: u64) -> Matrix {
        let mut rng = DeterministicRng::new(seed);
        let q = rng.normal_matrix(s, d, 1.0);
        let k = rng.normal_matrix(s, d, 1.0);
        attention_probs(&q, &k, true).unwrap()
    }

    #[test]
    fn optimal_mask_meets_alpha() {
        let p = probs(40, 8, 1);
        for alpha in [0.5, 0.9, 0.95, 0.99] {
            let (sd, mask) = optimal_sparsity_degree(&p, alpha);
            assert!(cra_of_dense_mask(&p, &mask).unwrap() >= alpha - 1e-5, "alpha={alpha}");
            assert!((0.0..=1.0).contains(&sd));
        }
    }

    #[test]
    fn sd_decreases_with_alpha() {
        let p = probs(40, 8, 2);
        let (sd_low, _) = optimal_sparsity_degree(&p, 0.8);
        let (sd_high, _) = optimal_sparsity_degree(&p, 0.99);
        assert!(sd_low >= sd_high, "{sd_low} vs {sd_high}");
    }

    #[test]
    fn alpha_one_keeps_everything_with_mass() {
        // With alpha = 1 every positive-probability entry must be kept.
        let p = Matrix::from_rows(&[vec![0.5, 0.5, 0.0], vec![0.2, 0.3, 0.5]]).unwrap();
        let (_, mask) = optimal_sparsity_degree(&p, 1.0);
        assert!(mask.get(0, 0) && mask.get(0, 1));
        assert!(mask.get(1, 0) && mask.get(1, 1) && mask.get(1, 2));
    }

    #[test]
    fn peaked_distribution_is_very_sparse() {
        // Rows put almost all mass on column 0.
        let s = 50;
        let p = Matrix::from_fn(s, s, |i, j| {
            if j > i {
                0.0
            } else if j == 0 {
                0.97
            } else {
                0.03 / i.max(1) as f32
            }
        });
        let (sd, _) = optimal_sparsity_degree(&p, 0.95);
        assert!(sd > 0.9, "sd = {sd}");
    }

    #[test]
    fn uniform_distribution_is_dense() {
        let s = 30;
        let p = Matrix::from_fn(s, s, |i, j| {
            if j <= i {
                1.0 / (i + 1) as f32
            } else {
                0.0
            }
        });
        let (sd, _) = optimal_sparsity_degree(&p, 0.95);
        assert!(sd < 0.10, "sd = {sd}");
    }

    #[test]
    #[should_panic(expected = "alpha")]
    fn invalid_alpha_panics() {
        let p = probs(4, 4, 3);
        let _ = optimal_sparsity_degree(&p, 0.0);
    }

    #[test]
    fn structured_sd_at_most_optimal() {
        let p = probs(48, 8, 4);
        let (opt, _) = optimal_sparsity_degree(&p, 0.95);
        let (structured, cols) = structured_sparsity_degree(&p, 0.95, 4);
        assert!(structured <= opt + 1e-9, "structured {structured} > optimal {opt}");
        assert!(cols.windows(2).all(|w| w[0] < w[1]));
    }

    #[test]
    fn structured_mask_achieves_alpha() {
        let p = probs(48, 8, 5);
        let window = 5;
        let alpha = 0.9;
        let (_, cols) = structured_sparsity_degree(&p, alpha, window);
        let mask = sa_kernels::StructuredMask::builder(48, 48)
            .window(window)
            .columns(cols)
            .build()
            .unwrap();
        let cra = crate::cra::cra_of_structured_mask(&p, &mask).unwrap();
        assert!(cra >= alpha - 1e-4, "cra {cra}");
    }

    #[test]
    fn pattern_summary_fractions_bounded() {
        let p = probs(32, 8, 6);
        let s = pattern_summary(&p, 4, 4, 2);
        for v in [s.window_mass, s.stripe_mass, s.sink_mass, s.residual_mass] {
            assert!((0.0..=1.0 + 1e-5).contains(&v), "{s:?}");
        }
        let total = s.window_mass + s.stripe_mass + s.residual_mass;
        assert!((total - 1.0).abs() < 1e-3, "{s:?}");
        assert!(s.sink_mass <= s.stripe_mass + 1e-5);
    }

    #[test]
    fn pattern_summary_local_head_is_windowed() {
        // A strictly diagonal P: all mass at j == i.
        let s = 20;
        let p = Matrix::from_fn(s, s, |i, j| if i == j { 1.0 } else { 0.0 });
        let sum = pattern_summary(&p, 2, 4, 1);
        assert!(sum.window_mass > 0.99);
        assert!(sum.stripe_mass < 0.01);
    }

    #[test]
    fn pattern_summary_sink_head_is_striped() {
        // All mass on column 0 except the diagonal's forced self-attention.
        let s = 20;
        let p = Matrix::from_fn(s, s, |i, j| {
            if i == 0 {
                if j == 0 { 1.0 } else { 0.0 }
            } else if j == 0 {
                0.95
            } else if j == i {
                0.05
            } else {
                0.0
            }
        });
        let sum = pattern_summary(&p, 1, 2, 1);
        assert!(sum.stripe_mass > 0.8, "{sum:?}");
        assert!(sum.sink_mass > 0.8, "{sum:?}");
    }

    #[test]
    fn causal_width_conventions() {
        assert_eq!(causal_width(0, 4, 4), 1);
        assert_eq!(causal_width(3, 4, 4), 4);
        assert_eq!(causal_width(0, 2, 5), 4);
        assert_eq!(causal_width(1, 5, 2), 0);
        assert_eq!(causal_width(4, 5, 2), 2);
    }

    #[test]
    fn empty_matrix_sd_zero() {
        let p = Matrix::zeros(0, 0);
        let (sd, _) = optimal_sparsity_degree(&p, 0.9);
        assert_eq!(sd, 0.0);
        let (ssd, cols) = structured_sparsity_degree(&p, 0.9, 2);
        assert_eq!(ssd, 0.0);
        assert!(cols.is_empty());
    }
}
