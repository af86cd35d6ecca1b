//! Structured sparse attention masks.
//!
//! The paper's key reformulation (Eq. 5) restricts the attention mask to a
//! hardware-efficient union of a **local window**, **attention sinks**, and
//! a set of **column stripes** `I_KV`, all intersected with the causal
//! triangle:
//!
//! ```text
//! M̂ = M_window(w) ∪ M_stripe(I_KV)
//! ```
//!
//! [`StructuredMask`] stores this in O(w + |I_KV|) space; the block-sparse
//! kernel consumes it directly. [`DenseMask`] is the O(S²) reference
//! oracle used only in tests and small-scale analysis.

use sa_tensor::TensorError;

/// A structured sparse attention mask: causal ∩ (window ∪ sinks ∪ columns).
///
/// Semantics for query row `i` (0-based) and key column `j`:
///
/// - **causal**: `j <= i + diag_offset` where
///   `diag_offset = s_k - s_q` (so with `s_q == s_k` each query attends to
///   keys up to and including itself);
/// - **window**: the last `window` causally visible keys
///   (`j > causal_end(i) - window`);
/// - **extras**: any `j` in the merged sink/stripe column set.
///
/// An entry is live iff it is causal **and** (in the window **or** an
/// extra column).
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct StructuredMask {
    s_q: usize,
    s_k: usize,
    window: usize,
    /// Sorted, deduplicated union of sink columns and stripe columns.
    extras: Vec<usize>,
    /// The last `dense_tail_rows` query rows attend to every causal key
    /// (the paper's Figure 3 "bottom area": the final rows cannot be
    /// judged from strided samples and are generation-critical, so they
    /// are computed densely).
    dense_tail_rows: usize,
}

// `dense_tail_rows` defaults to 0 when absent, so mask payloads written
// before the bottom area existed keep parsing.
sa_json::impl_json_struct!(StructuredMask {
    s_q,
    s_k,
    window,
    extras,
    dense_tail_rows: default
});

impl StructuredMask {
    /// Starts building a mask for an `s_q x s_k` attention problem.
    pub fn builder(s_q: usize, s_k: usize) -> StructuredMaskBuilder {
        StructuredMaskBuilder {
            s_q,
            s_k,
            window: 0,
            sinks: 0,
            columns: Vec::new(),
            dense_tail_rows: 0,
        }
    }

    /// A causal mask with a local window covering every visible key
    /// (i.e. dense causal attention).
    pub fn dense_causal(s_q: usize, s_k: usize) -> Self {
        StructuredMask {
            s_q,
            s_k,
            window: s_k,
            extras: Vec::new(),
            dense_tail_rows: 0,
        }
    }

    /// Number of query rows.
    pub fn s_q(&self) -> usize {
        self.s_q
    }

    /// Number of key columns.
    pub fn s_k(&self) -> usize {
        self.s_k
    }

    /// The local window size in tokens.
    pub fn window(&self) -> usize {
        self.window
    }

    /// The merged, sorted sink + stripe column indices.
    pub fn extra_columns(&self) -> &[usize] {
        &self.extras
    }

    /// Index of the last causally visible key for query row `i`, or `None`
    /// if the row sees nothing (possible only when `s_k < s_q`).
    #[inline]
    pub fn causal_end(&self, i: usize) -> Option<usize> {
        debug_assert!(i < self.s_q);
        let end = i as isize + self.s_k as isize - self.s_q as isize;
        if end < 0 {
            None
        } else {
            Some((end as usize).min(self.s_k - 1))
        }
    }

    /// Whether row `i` lies in the dense bottom area.
    #[inline]
    pub fn is_dense_row(&self, i: usize) -> bool {
        i + self.dense_tail_rows >= self.s_q
    }

    /// Number of dense bottom-area rows.
    pub fn dense_tail_rows(&self) -> usize {
        self.dense_tail_rows
    }

    /// First key index covered by the local window on row `i` (the window
    /// spans `window_start(i) ..= causal_end(i)`; 0 for bottom-area rows,
    /// which attend to everything causal).
    #[inline]
    pub fn window_start(&self, i: usize) -> usize {
        if self.is_dense_row(i) {
            return 0;
        }
        match self.causal_end(i) {
            Some(end) => (end + 1).saturating_sub(self.window),
            None => 0,
        }
    }

    /// Whether `(i, j)` is live under this mask.
    #[inline]
    pub fn is_allowed(&self, i: usize, j: usize) -> bool {
        if i >= self.s_q || j >= self.s_k {
            return false;
        }
        let Some(end) = self.causal_end(i) else {
            return false;
        };
        if j > end {
            return false;
        }
        j >= self.window_start(i) || self.extras.binary_search(&j).is_ok()
    }

    /// Number of live entries on query row `i`.
    pub fn row_nnz(&self, i: usize) -> usize {
        let Some(end) = self.causal_end(i) else {
            return 0;
        };
        let win_start = self.window_start(i);
        end + 1 - win_start + self.extras.partition_point(|&c| c < win_start)
    }

    /// Total number of live entries.
    pub fn nnz(&self) -> usize {
        (0..self.s_q).map(|i| self.row_nnz(i)).sum()
    }

    /// Number of causally visible entries (the dense baseline's work).
    pub fn causal_nnz(&self) -> usize {
        (0..self.s_q)
            .map(|i| self.causal_end(i).map_or(0, |e| e + 1))
            .sum()
    }

    /// Fraction of the causal triangle that is live, in `[0, 1]`.
    pub fn density(&self) -> f64 {
        let causal = self.causal_nnz();
        if causal == 0 {
            0.0
        } else {
            self.nnz() as f64 / causal as f64
        }
    }

    /// Sparsity relative to the causal triangle: `1 - density()`.
    ///
    /// This matches the paper's `SD` convention of measuring dropped
    /// key-value elements against `S_q * S_k / 2`.
    pub fn sparsity(&self) -> f64 {
        1.0 - self.density()
    }

    /// Materialises the mask as a [`DenseMask`] (test oracle; O(S²)).
    pub fn to_dense(&self) -> DenseMask {
        let mut bits = vec![false; self.s_q * self.s_k];
        for i in 0..self.s_q {
            if let Some(end) = self.causal_end(i) {
                let win_start = self.window_start(i);
                for j in win_start..=end {
                    bits[i * self.s_k + j] = true;
                }
                for &c in &self.extras {
                    if c >= win_start {
                        break;
                    }
                    bits[i * self.s_k + c] = true;
                }
            }
        }
        DenseMask {
            s_q: self.s_q,
            s_k: self.s_k,
            bits,
        }
    }

    /// Returns a copy of this mask with additional stripe columns merged
    /// in.
    pub fn with_extra_columns(&self, columns: &[usize]) -> Self {
        let mut extras = self.extras.clone();
        extras.extend(columns.iter().copied().filter(|&c| c < self.s_k));
        extras.sort_unstable();
        extras.dedup();
        StructuredMask {
            extras,
            ..self.clone()
        }
    }
}

/// Builder for [`StructuredMask`] (window size, sinks, stripe columns).
///
/// # Example
///
/// ```
/// use sa_kernels::StructuredMask;
///
/// # fn main() -> Result<(), sa_kernels::KernelError> {
/// let mask = StructuredMask::builder(128, 128)
///     .window(16)
///     .sinks(4)
///     .columns(vec![40, 77])
///     .build()?;
/// assert!(mask.is_allowed(100, 40));   // stripe column
/// assert!(mask.is_allowed(100, 0));    // sink
/// assert!(mask.is_allowed(100, 95));   // inside window
/// assert!(!mask.is_allowed(100, 50));  // dropped
/// assert!(!mask.is_allowed(50, 100));  // non-causal
/// # Ok(())
/// # }
/// ```
#[derive(Debug, Clone)]
pub struct StructuredMaskBuilder {
    s_q: usize,
    s_k: usize,
    window: usize,
    sinks: usize,
    columns: Vec<usize>,
    dense_tail_rows: usize,
}

impl StructuredMaskBuilder {
    /// Sets the local window size in tokens (clamped to `s_k`).
    pub fn window(mut self, window: usize) -> Self {
        self.window = window;
        self
    }

    /// Sets the window as a ratio of `s_k`, rounded up (the paper's
    /// `⌈r_w% · S_k⌉`).
    pub fn window_ratio(mut self, ratio: f32) -> Self {
        let r = ratio.clamp(0.0, 1.0);
        self.window = (r * self.s_k as f32).ceil() as usize;
        self
    }

    /// Keeps the first `sinks` key positions always visible (attention
    /// sinks, as in StreamingLLM).
    pub fn sinks(mut self, sinks: usize) -> Self {
        self.sinks = sinks;
        self
    }

    /// Adds stripe column indices (`I_KV`); duplicates and out-of-range
    /// values are ignored at build time.
    pub fn columns(mut self, columns: Vec<usize>) -> Self {
        self.columns = columns;
        self
    }

    /// Makes the last `rows` query rows attend densely (the "bottom
    /// area" of the paper's Figure 3).
    pub fn dense_tail_rows(mut self, rows: usize) -> Self {
        self.dense_tail_rows = rows;
        self
    }

    /// Builds the mask.
    ///
    /// # Errors
    ///
    /// Returns [`TensorError::InvalidDimension`] if any provided column is
    /// `>= s_k` (silent dropping would hide caller bugs; clamping of the
    /// window and sink counts, by contrast, is well-defined).
    pub fn build(self) -> Result<StructuredMask, TensorError> {
        if let Some(&bad) = self.columns.iter().find(|&&c| c >= self.s_k) {
            return Err(TensorError::InvalidDimension {
                op: "StructuredMaskBuilder::build",
                what: format!("stripe column {bad} out of range (s_k = {})", self.s_k),
            });
        }
        let mut extras: Vec<usize> = (0..self.sinks.min(self.s_k)).collect();
        extras.extend(self.columns.iter().copied());
        extras.sort_unstable();
        extras.dedup();
        Ok(StructuredMask {
            s_q: self.s_q,
            s_k: self.s_k,
            window: self.window.min(self.s_k),
            extras,
            dense_tail_rows: self.dense_tail_rows.min(self.s_q),
        })
    }
}

/// A dense boolean attention mask — the `{0,1}^{S_q x S_k}` object of the
/// paper's theory section. Reference oracle for tests and small-scale
/// sparsity analysis only.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct DenseMask {
    s_q: usize,
    s_k: usize,
    bits: Vec<bool>,
}

impl DenseMask {
    /// All-false mask.
    pub fn zeros(s_q: usize, s_k: usize) -> Self {
        DenseMask {
            s_q,
            s_k,
            bits: vec![false; s_q * s_k],
        }
    }

    /// Causal lower-triangular mask (with the same diagonal-offset
    /// convention as [`StructuredMask`]).
    pub fn causal(s_q: usize, s_k: usize) -> Self {
        let mut m = DenseMask::zeros(s_q, s_k);
        let off = s_k as isize - s_q as isize;
        for i in 0..s_q {
            let end = i as isize + off;
            if end >= 0 {
                for j in 0..=(end as usize).min(s_k - 1) {
                    m.set(i, j, true);
                }
            }
        }
        m
    }

    /// Number of query rows.
    pub fn s_q(&self) -> usize {
        self.s_q
    }

    /// Number of key columns.
    pub fn s_k(&self) -> usize {
        self.s_k
    }

    /// Whether `(i, j)` is live.
    #[inline]
    pub fn get(&self, i: usize, j: usize) -> bool {
        self.bits[i * self.s_k + j]
    }

    /// Sets entry `(i, j)`.
    #[inline]
    pub fn set(&mut self, i: usize, j: usize, v: bool) {
        self.bits[i * self.s_k + j] = v;
    }

    /// Number of live entries.
    pub fn nnz(&self) -> usize {
        self.bits.iter().filter(|&&b| b).count()
    }

    /// Element-wise AND with another mask.
    ///
    /// # Errors
    ///
    /// Returns [`TensorError::ShapeMismatch`] if shapes differ.
    pub fn and(&self, other: &DenseMask) -> Result<DenseMask, TensorError> {
        if (self.s_q, self.s_k) != (other.s_q, other.s_k) {
            return Err(TensorError::ShapeMismatch {
                op: "DenseMask::and",
                lhs: (self.s_q, self.s_k),
                rhs: (other.s_q, other.s_k),
            });
        }
        Ok(DenseMask {
            s_q: self.s_q,
            s_k: self.s_k,
            bits: self
                .bits
                .iter()
                .zip(&other.bits)
                .map(|(&a, &b)| a && b)
                .collect(),
        })
    }

    /// Element-wise OR with another mask.
    ///
    /// # Errors
    ///
    /// Returns [`TensorError::ShapeMismatch`] if shapes differ.
    pub fn or(&self, other: &DenseMask) -> Result<DenseMask, TensorError> {
        if (self.s_q, self.s_k) != (other.s_q, other.s_k) {
            return Err(TensorError::ShapeMismatch {
                op: "DenseMask::or",
                lhs: (self.s_q, self.s_k),
                rhs: (other.s_q, other.s_k),
            });
        }
        Ok(DenseMask {
            s_q: self.s_q,
            s_k: self.s_k,
            bits: self
                .bits
                .iter()
                .zip(&other.bits)
                .map(|(&a, &b)| a || b)
                .collect(),
        })
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn small_mask() -> StructuredMask {
        StructuredMask::builder(8, 8)
            .window(2)
            .sinks(1)
            .columns(vec![4])
            .build()
            .unwrap()
    }

    #[test]
    fn causal_end_square() {
        let m = StructuredMask::dense_causal(4, 4);
        assert_eq!(m.causal_end(0), Some(0));
        assert_eq!(m.causal_end(3), Some(3));
    }

    #[test]
    fn causal_end_rectangular_kv_longer() {
        // 2 queries against 5 keys: queries are the *last* 2 positions.
        let m = StructuredMask::dense_causal(2, 5);
        assert_eq!(m.causal_end(0), Some(3));
        assert_eq!(m.causal_end(1), Some(4));
    }

    #[test]
    fn causal_end_rectangular_q_longer() {
        let m = StructuredMask::dense_causal(5, 2);
        assert_eq!(m.causal_end(0), None);
        assert_eq!(m.causal_end(2), None);
        assert_eq!(m.causal_end(3), Some(0));
        assert_eq!(m.causal_end(4), Some(1));
    }

    #[test]
    fn is_allowed_combines_window_sinks_columns() {
        let m = small_mask();
        // row 6: causal end 6, window covers {5, 6}; extras {0, 4}.
        assert!(m.is_allowed(6, 6));
        assert!(m.is_allowed(6, 5));
        assert!(!m.is_allowed(6, 3));
        assert!(m.is_allowed(6, 4));
        assert!(m.is_allowed(6, 0));
        assert!(!m.is_allowed(6, 7)); // non-causal
        // row 0: only key 0 is visible (in window).
        assert!(m.is_allowed(0, 0));
        assert!(!m.is_allowed(0, 1));
    }

    #[test]
    fn out_of_bounds_not_allowed() {
        let m = small_mask();
        assert!(!m.is_allowed(8, 0));
        assert!(!m.is_allowed(0, 8));
    }

    #[test]
    fn row_nnz_matches_dense() {
        let m = small_mask();
        let dense = m.to_dense();
        for i in 0..8 {
            let want = (0..8).filter(|&j| dense.get(i, j)).count();
            assert_eq!(m.row_nnz(i), want, "row {i}");
        }
        assert_eq!(m.nnz(), dense.nnz());
    }

    #[test]
    fn to_dense_agrees_with_is_allowed() {
        let m = StructuredMask::builder(10, 10)
            .window(3)
            .sinks(2)
            .columns(vec![5, 7])
            .build()
            .unwrap();
        let dense = m.to_dense();
        for i in 0..10 {
            for j in 0..10 {
                assert_eq!(dense.get(i, j), m.is_allowed(i, j), "({i},{j})");
            }
        }
    }

    #[test]
    fn dense_causal_mask_is_full_triangle() {
        let m = StructuredMask::dense_causal(6, 6);
        assert_eq!(m.nnz(), 6 * 7 / 2);
        assert_eq!(m.density(), 1.0);
        assert_eq!(m.sparsity(), 0.0);
    }

    #[test]
    fn density_and_sparsity() {
        let m = StructuredMask::builder(100, 100).window(1).build().unwrap();
        // only the diagonal is live: 100 of 5050 causal entries.
        assert_eq!(m.nnz(), 100);
        assert!((m.density() - 100.0 / 5050.0).abs() < 1e-12);
        assert!((m.sparsity() + m.density() - 1.0).abs() < 1e-12);
    }

    #[test]
    fn window_ratio_ceil() {
        let m = StructuredMask::builder(100, 100)
            .window_ratio(0.08)
            .build()
            .unwrap();
        assert_eq!(m.window(), 8);
        let m2 = StructuredMask::builder(99, 99).window_ratio(0.08).build().unwrap();
        assert_eq!(m2.window(), 8); // ceil(7.92)
    }

    #[test]
    fn builder_rejects_out_of_range_columns() {
        let err = StructuredMask::builder(4, 4).columns(vec![4]).build();
        assert!(err.is_err());
    }

    #[test]
    fn builder_clamps_window_and_sinks() {
        let m = StructuredMask::builder(4, 4).window(100).sinks(100).build().unwrap();
        assert_eq!(m.window(), 4);
        assert_eq!(m.extra_columns().len(), 4);
        assert_eq!(m.density(), 1.0);
    }

    #[test]
    fn extras_merged_sorted_dedup() {
        let m = StructuredMask::builder(10, 10)
            .sinks(2)
            .columns(vec![7, 1, 7, 3])
            .build()
            .unwrap();
        assert_eq!(m.extra_columns(), &[0, 1, 3, 7]);
    }

    #[test]
    fn with_extra_columns_merges() {
        let m = small_mask();
        let m2 = m.with_extra_columns(&[2, 4, 99]); // 99 out of range → dropped
        assert!(m2.is_allowed(6, 2));
        assert_eq!(m2.extra_columns(), &[0, 2, 4]);
    }

    #[test]
    fn zero_window_only_extras() {
        let m = StructuredMask::builder(5, 5).window(0).sinks(1).build().unwrap();
        assert!(m.is_allowed(4, 0));
        assert!(!m.is_allowed(4, 4));
        assert_eq!(m.row_nnz(0), 1);
    }

    #[test]
    fn dense_mask_ops() {
        let a = DenseMask::causal(3, 3);
        let mut b = DenseMask::zeros(3, 3);
        b.set(0, 0, true);
        b.set(2, 1, true);
        b.set(0, 2, true); // non-causal
        let and = a.and(&b).unwrap();
        assert_eq!(and.nnz(), 2);
        let or = a.or(&b).unwrap();
        assert_eq!(or.nnz(), 7);
        assert_eq!(a.s_q(), 3);
        assert_eq!(a.s_k(), 3);
        // Shape mismatches are recoverable errors, not panics.
        let wide = DenseMask::zeros(3, 4);
        assert!(a.and(&wide).is_err());
        assert!(a.or(&wide).is_err());
    }

    #[test]
    fn dense_causal_rectangular() {
        let m = DenseMask::causal(2, 4);
        assert!(m.get(0, 2));
        assert!(!m.get(0, 3));
        assert!(m.get(1, 3));
        let n = DenseMask::causal(4, 2);
        assert_eq!(n.nnz(), 1 + 2); // rows 2 and 3 only
    }

    #[test]
    fn json_round_trip() {
        let m = small_mask();
        let s = sa_json::to_string(&m);
        let back: StructuredMask = sa_json::from_str(&s).unwrap();
        assert_eq!(m, back);
        // Older payloads without the defaulted fields keep parsing.
        let legacy: StructuredMask =
            sa_json::from_str(r#"{"s_q":4,"s_k":4,"window":2,"extras":[0]}"#).unwrap();
        assert_eq!(legacy.dense_tail_rows(), 0);
    }
}
