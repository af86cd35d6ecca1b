//! Deterministic random generation helpers.
//!
//! Every experiment in this workspace is seeded; all randomness flows
//! through [`DeterministicRng`] so that tables and figures are exactly
//! reproducible run-to-run. The generator is the in-repo
//! [`Xoshiro256PlusPlus`] (seeded via `splitmix64`, see
//! [`crate::xoshiro`]), and the exact stream is pinned by golden tests —
//! platform- and dependency-independent by construction.

use crate::xoshiro::Xoshiro256PlusPlus;
use crate::Matrix;

/// A seeded random generator with the handful of distributions the
/// workspace needs (uniform, standard normal via Box–Muller, choices).
#[derive(Debug, Clone)]
pub struct DeterministicRng {
    rng: Xoshiro256PlusPlus,
    /// Cached second Box–Muller variate.
    spare_normal: Option<f32>,
}

impl DeterministicRng {
    /// Creates a generator from a 64-bit seed.
    pub fn new(seed: u64) -> Self {
        DeterministicRng {
            rng: Xoshiro256PlusPlus::from_seed(seed),
            spare_normal: None,
        }
    }

    /// Uniform sample in `[0, 1)`.
    pub fn uniform(&mut self) -> f32 {
        self.rng.next_f32()
    }

    /// The next 64 uniformly random bits (escape hatch for callers that
    /// need raw integers rather than a distribution).
    pub fn next_u64(&mut self) -> u64 {
        self.rng.next_u64()
    }

    /// Uniform sample in `[lo, hi)`.
    ///
    /// # Panics
    ///
    /// Panics if `lo >= hi`.
    pub fn uniform_range(&mut self, lo: f32, hi: f32) -> f32 {
        assert!(lo < hi, "uniform_range requires lo < hi");
        lo + (hi - lo) * self.uniform()
    }

    /// Uniform integer in `[0, n)`.
    ///
    /// # Panics
    ///
    /// Panics if `n == 0`.
    pub fn index(&mut self, n: usize) -> usize {
        assert!(n > 0, "index requires a non-empty range");
        self.rng.next_below(n as u64) as usize
    }

    /// Standard normal sample (Box–Muller).
    pub fn normal(&mut self) -> f32 {
        if let Some(z) = self.spare_normal.take() {
            return z;
        }
        // Draw u1 in (0, 1] to avoid ln(0).
        let u1 = 1.0 - self.uniform();
        let u2 = self.uniform();
        let r = (-2.0 * u1.ln()).sqrt();
        let theta = 2.0 * std::f32::consts::PI * u2;
        self.spare_normal = Some(r * theta.sin());
        r * theta.cos()
    }

    /// Bernoulli trial with probability `p` of `true`.
    pub fn chance(&mut self, p: f32) -> bool {
        self.uniform() < p
    }

    /// A `rows x cols` matrix of i.i.d. `N(0, std_dev^2)` entries.
    pub fn normal_matrix(&mut self, rows: usize, cols: usize, std_dev: f32) -> Matrix {
        Matrix::from_fn(rows, cols, |_, _| self.normal() * std_dev)
    }

    /// `k` distinct indices sampled uniformly from `[0, n)`, sorted
    /// ascending. `k` is clamped to `n`.
    pub fn distinct_indices(&mut self, n: usize, k: usize) -> Vec<usize> {
        let k = k.min(n);
        if k == 0 {
            return Vec::new();
        }
        // Floyd's algorithm: O(k) expected insertions.
        let mut chosen = std::collections::BTreeSet::new();
        for j in (n - k)..n {
            let t = self.index(j + 1);
            if !chosen.insert(t) {
                chosen.insert(j);
            }
        }
        chosen.into_iter().collect()
    }

    /// Fisher–Yates shuffle of a slice.
    pub fn shuffle<T>(&mut self, xs: &mut [T]) {
        for i in (1..xs.len()).rev() {
            let j = self.index(i + 1);
            xs.swap(i, j);
        }
    }
}

/// Convenience constructor for a raw seeded [`Xoshiro256PlusPlus`], for
/// callers that want the bit stream without the distribution helpers.
pub fn seeded_rng(seed: u64) -> Xoshiro256PlusPlus {
    Xoshiro256PlusPlus::from_seed(seed)
}

/// A random matrix with orthonormal rows (`rows <= cols` required):
/// Gaussian rows orthonormalised by modified Gram–Schmidt, so
/// `(x M)·(y M) = x·y` exactly for any `x, y` — a distortion-free
/// embedding of a `rows`-dimensional subspace into `cols` dimensions.
///
/// # Panics
///
/// Panics if `rows > cols` or either is zero.
pub fn random_orthonormal_rows(rng: &mut DeterministicRng, rows: usize, cols: usize) -> Matrix {
    assert!(
        rows > 0 && cols >= rows,
        "need 0 < rows <= cols, got {rows}x{cols}"
    );
    let mut m = rng.normal_matrix(rows, cols, 1.0);
    for i in 0..rows {
        // Subtract projections onto previous rows, twice for stability.
        for _pass in 0..2 {
            for p in 0..i {
                let dot: f32 = m.row(i).iter().zip(m.row(p)).map(|(a, b)| a * b).sum();
                let prev: Vec<f32> = m.row(p).to_vec();
                for (x, &pv) in m.row_mut(i).iter_mut().zip(&prev) {
                    *x -= dot * pv;
                }
            }
        }
        let norm: f32 = m.row(i).iter().map(|x| x * x).sum::<f32>().sqrt();
        if norm > 1e-6 {
            for x in m.row_mut(i) {
                *x /= norm;
            }
        } else {
            // Degenerate draw (measure zero): fall back to a basis vector.
            let row = m.row_mut(i);
            row.fill(0.0);
            row[i % cols] = 1.0;
        }
    }
    m
}

/// A random unit vector of dimension `d`.
///
/// Falls back to the first basis vector in the (measure-zero) case of an
/// all-zero draw.
pub fn unit_vector(rng: &mut DeterministicRng, d: usize) -> Vec<f32> {
    let mut v: Vec<f32> = (0..d).map(|_| rng.normal()).collect();
    let norm = v.iter().map(|x| x * x).sum::<f32>().sqrt();
    if norm > 0.0 {
        for x in &mut v {
            *x /= norm;
        }
    } else if d > 0 {
        v[0] = 1.0;
    }
    v
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn deterministic_across_instances() {
        let mut a = DeterministicRng::new(42);
        let mut b = DeterministicRng::new(42);
        for _ in 0..100 {
            assert_eq!(a.uniform(), b.uniform());
            assert_eq!(a.normal(), b.normal());
        }
    }

    #[test]
    fn different_seeds_differ() {
        let mut a = DeterministicRng::new(1);
        let mut b = DeterministicRng::new(2);
        let va: Vec<f32> = (0..10).map(|_| a.uniform()).collect();
        let vb: Vec<f32> = (0..10).map(|_| b.uniform()).collect();
        assert_ne!(va, vb);
    }

    #[test]
    fn uniform_in_unit_interval() {
        let mut r = DeterministicRng::new(7);
        for _ in 0..1000 {
            let u = r.uniform();
            assert!((0.0..1.0).contains(&u));
        }
    }

    #[test]
    fn normal_moments_roughly_standard() {
        let mut r = DeterministicRng::new(3);
        let xs: Vec<f32> = (0..20_000).map(|_| r.normal()).collect();
        let m = crate::mean(&xs);
        let v = crate::variance(&xs);
        assert!(m.abs() < 0.03, "mean {m}");
        assert!((v - 1.0).abs() < 0.05, "variance {v}");
    }

    #[test]
    fn distinct_indices_are_distinct_and_sorted() {
        let mut r = DeterministicRng::new(11);
        for _ in 0..50 {
            let idx = r.distinct_indices(100, 20);
            assert_eq!(idx.len(), 20);
            assert!(idx.windows(2).all(|w| w[0] < w[1]));
            assert!(idx.iter().all(|&i| i < 100));
        }
        assert_eq!(r.distinct_indices(5, 9).len(), 5);
        assert!(r.distinct_indices(0, 3).is_empty());
    }

    #[test]
    fn shuffle_is_permutation() {
        let mut r = DeterministicRng::new(5);
        let mut xs: Vec<u32> = (0..50).collect();
        r.shuffle(&mut xs);
        let mut sorted = xs.clone();
        sorted.sort();
        assert_eq!(sorted, (0..50).collect::<Vec<_>>());
    }

    #[test]
    fn orthonormal_rows_preserve_dot_products() {
        let mut r = DeterministicRng::new(21);
        let m = random_orthonormal_rows(&mut r, 8, 16);
        // rows orthonormal
        for i in 0..8 {
            for j in 0..8 {
                let dot: f32 = m.row(i).iter().zip(m.row(j)).map(|(a, b)| a * b).sum();
                let want = if i == j { 1.0 } else { 0.0 };
                assert!((dot - want).abs() < 1e-4, "({i},{j}): {dot}");
            }
        }
        // arbitrary vectors' dot products preserved
        let x: Vec<f32> = (0..8).map(|_| r.normal()).collect();
        let y: Vec<f32> = (0..8).map(|_| r.normal()).collect();
        let proj = |v: &[f32]| -> Vec<f32> {
            (0..16)
                .map(|c| (0..8).map(|r_| v[r_] * m.get(r_, c)).sum())
                .collect()
        };
        let px = proj(&x);
        let py = proj(&y);
        let d0: f32 = x.iter().zip(&y).map(|(a, b)| a * b).sum();
        let d1: f32 = px.iter().zip(&py).map(|(a, b)| a * b).sum();
        assert!((d0 - d1).abs() < 1e-3, "{d0} vs {d1}");
    }

    #[test]
    #[should_panic(expected = "rows <= cols")]
    fn orthonormal_rows_rejects_wide() {
        let mut r = DeterministicRng::new(22);
        let _ = random_orthonormal_rows(&mut r, 9, 8);
    }

    #[test]
    fn unit_vector_has_unit_norm() {
        let mut r = DeterministicRng::new(9);
        let v = unit_vector(&mut r, 16);
        let n: f32 = v.iter().map(|x| x * x).sum::<f32>().sqrt();
        assert!((n - 1.0).abs() < 1e-5);
    }

    #[test]
    fn normal_matrix_shape_and_scale() {
        let mut r = DeterministicRng::new(13);
        let m = r.normal_matrix(40, 50, 0.5);
        assert_eq!(m.shape(), (40, 50));
        let v = crate::variance(m.as_slice());
        assert!((v - 0.25).abs() < 0.02, "variance {v}");
    }

    #[test]
    fn chance_extremes() {
        let mut r = DeterministicRng::new(17);
        assert!(!(0..100).any(|_| r.chance(0.0)));
        assert!((0..100).all(|_| r.chance(1.1)));
    }
}
