use crate::TensorError;

/// A dense, row-major matrix of `f32`.
///
/// `Matrix` is the single tensor type in this workspace. It is deliberately
/// minimal: two dimensions, contiguous storage, and cheap row views. The
/// attention kernels treat a `(S, d)` matrix as a stack of `S` token
/// embeddings of head dimension `d`.
///
/// # Example
///
/// ```
/// use sa_tensor::Matrix;
///
/// let m = Matrix::from_fn(2, 3, |i, j| (i * 3 + j) as f32);
/// assert_eq!(m.get(1, 2), 5.0);
/// assert_eq!(m.row(0), &[0.0, 1.0, 2.0]);
/// ```
#[derive(Debug, Clone, PartialEq)]
pub struct Matrix {
    rows: usize,
    cols: usize,
    data: Vec<f32>,
}

impl Matrix {
    /// Creates a `rows x cols` matrix filled with zeros.
    ///
    /// Zero-sized dimensions are allowed and produce an empty matrix.
    pub fn zeros(rows: usize, cols: usize) -> Self {
        Matrix {
            rows,
            cols,
            data: vec![0.0; rows * cols],
        }
    }

    /// Creates a `rows x cols` matrix filled with `value`.
    pub fn full(rows: usize, cols: usize, value: f32) -> Self {
        Matrix {
            rows,
            cols,
            data: vec![value; rows * cols],
        }
    }

    /// Creates a matrix by evaluating `f(row, col)` at every position.
    pub fn from_fn(rows: usize, cols: usize, mut f: impl FnMut(usize, usize) -> f32) -> Self {
        let mut data = Vec::with_capacity(rows * cols);
        for i in 0..rows {
            for j in 0..cols {
                data.push(f(i, j));
            }
        }
        Matrix { rows, cols, data }
    }

    /// Creates a matrix from a row-major data vector.
    ///
    /// # Errors
    ///
    /// Returns [`TensorError::InvalidDimension`] if `data.len() != rows * cols`.
    pub fn from_vec(rows: usize, cols: usize, data: Vec<f32>) -> Result<Self, TensorError> {
        if data.len() != rows * cols {
            return Err(TensorError::InvalidDimension {
                op: "Matrix::from_vec",
                what: format!(
                    "data length {} does not match {rows}x{cols} = {}",
                    data.len(),
                    rows * cols
                ),
            });
        }
        Ok(Matrix { rows, cols, data })
    }

    /// Creates a matrix from a slice of rows.
    ///
    /// # Errors
    ///
    /// Returns [`TensorError::InvalidDimension`] if the rows have unequal
    /// lengths.
    pub fn from_rows(rows: &[Vec<f32>]) -> Result<Self, TensorError> {
        if rows.is_empty() {
            return Ok(Matrix::zeros(0, 0));
        }
        let cols = rows[0].len();
        let mut data = Vec::with_capacity(rows.len() * cols);
        for (i, r) in rows.iter().enumerate() {
            if r.len() != cols {
                return Err(TensorError::InvalidDimension {
                    op: "Matrix::from_rows",
                    what: format!("row {i} has length {}, expected {cols}", r.len()),
                });
            }
            data.extend_from_slice(r);
        }
        Ok(Matrix {
            rows: rows.len(),
            cols,
            data,
        })
    }

    /// The identity matrix of size `n x n`.
    pub fn identity(n: usize) -> Self {
        Matrix::from_fn(n, n, |i, j| if i == j { 1.0 } else { 0.0 })
    }

    /// Number of rows.
    #[inline]
    pub fn rows(&self) -> usize {
        self.rows
    }

    /// Number of columns.
    #[inline]
    pub fn cols(&self) -> usize {
        self.cols
    }

    /// Shape as a `(rows, cols)` pair.
    #[inline]
    pub fn shape(&self) -> (usize, usize) {
        (self.rows, self.cols)
    }

    /// Total number of elements.
    #[inline]
    pub fn len(&self) -> usize {
        self.data.len()
    }

    /// `true` if the matrix holds no elements.
    #[inline]
    pub fn is_empty(&self) -> bool {
        self.data.is_empty()
    }

    /// Element at `(i, j)`.
    ///
    /// # Panics
    ///
    /// Panics if `i >= rows` or `j >= cols`.
    #[inline]
    pub fn get(&self, i: usize, j: usize) -> f32 {
        debug_assert!(i < self.rows && j < self.cols);
        self.data[i * self.cols + j]
    }

    /// Sets the element at `(i, j)`.
    ///
    /// # Panics
    ///
    /// Panics if `i >= rows` or `j >= cols`.
    #[inline]
    pub fn set(&mut self, i: usize, j: usize, v: f32) {
        debug_assert!(i < self.rows && j < self.cols);
        self.data[i * self.cols + j] = v;
    }

    /// Borrowed view of row `i`.
    ///
    /// # Panics
    ///
    /// Panics if `i >= rows`.
    #[inline]
    pub fn row(&self, i: usize) -> &[f32] {
        assert!(i < self.rows, "row index {i} out of bounds (< {})", self.rows);
        &self.data[i * self.cols..(i + 1) * self.cols]
    }

    /// Mutable view of row `i`.
    ///
    /// # Panics
    ///
    /// Panics if `i >= rows`.
    #[inline]
    pub fn row_mut(&mut self, i: usize) -> &mut [f32] {
        assert!(i < self.rows, "row index {i} out of bounds (< {})", self.rows);
        &mut self.data[i * self.cols..(i + 1) * self.cols]
    }

    /// The underlying row-major data slice.
    #[inline]
    pub fn as_slice(&self) -> &[f32] {
        &self.data
    }

    /// The underlying row-major data slice, mutably.
    #[inline]
    pub fn as_mut_slice(&mut self) -> &mut [f32] {
        &mut self.data
    }

    /// Consumes the matrix, returning the row-major data vector.
    pub fn into_vec(self) -> Vec<f32> {
        self.data
    }

    /// Returns a new matrix that is the transpose of `self`.
    pub fn transpose(&self) -> Matrix {
        let mut out = Matrix::zeros(self.cols, self.rows);
        for i in 0..self.rows {
            for j in 0..self.cols {
                out.set(j, i, self.get(i, j));
            }
        }
        out
    }

    /// Returns a new matrix containing the selected rows, in order.
    ///
    /// Used by the stage-1 query sampler to extract the strided query rows.
    ///
    /// # Errors
    ///
    /// Returns [`TensorError::IndexOutOfBounds`] if any index is `>= rows`.
    pub fn gather_rows(&self, indices: &[usize]) -> Result<Matrix, TensorError> {
        let mut out = Matrix::zeros(indices.len(), self.cols);
        for (dst, &src) in indices.iter().enumerate() {
            if src >= self.rows {
                return Err(TensorError::IndexOutOfBounds {
                    op: "Matrix::gather_rows",
                    index: src,
                    bound: self.rows,
                });
            }
            out.row_mut(dst).copy_from_slice(self.row(src));
        }
        Ok(out)
    }

    /// Returns a new matrix containing rows `[start, end)`.
    ///
    /// # Errors
    ///
    /// Returns [`TensorError::InvalidDimension`] if `start > end` or
    /// `end > rows`.
    pub fn slice_rows(&self, start: usize, end: usize) -> Result<Matrix, TensorError> {
        if start > end || end > self.rows {
            return Err(TensorError::InvalidDimension {
                op: "Matrix::slice_rows",
                what: format!("range {start}..{end} invalid for {} rows", self.rows),
            });
        }
        let data = self.data[start * self.cols..end * self.cols].to_vec();
        Ok(Matrix {
            rows: end - start,
            cols: self.cols,
            data,
        })
    }

    /// Element-wise in-place addition of `other`.
    ///
    /// # Errors
    ///
    /// Returns [`TensorError::ShapeMismatch`] if shapes differ.
    pub fn add_assign(&mut self, other: &Matrix) -> Result<(), TensorError> {
        if self.shape() != other.shape() {
            return Err(TensorError::ShapeMismatch {
                op: "Matrix::add_assign",
                lhs: self.shape(),
                rhs: other.shape(),
            });
        }
        for (a, b) in self.data.iter_mut().zip(other.data.iter()) {
            *a += b;
        }
        Ok(())
    }

    /// Multiplies every element by `s` in place.
    pub fn scale_in_place(&mut self, s: f32) {
        for v in &mut self.data {
            *v *= s;
        }
    }

    /// Frobenius norm (`sqrt` of the sum of squared elements).
    pub fn frobenius_norm(&self) -> f32 {
        self.data.iter().map(|v| v * v).sum::<f32>().sqrt()
    }
}

impl Default for Matrix {
    fn default() -> Self {
        Matrix::zeros(0, 0)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn zeros_and_shape() {
        let m = Matrix::zeros(3, 4);
        assert_eq!(m.shape(), (3, 4));
        assert_eq!(m.len(), 12);
        assert!(!m.is_empty());
        assert!(m.as_slice().iter().all(|&v| v == 0.0));
    }

    #[test]
    fn empty_matrix() {
        let m = Matrix::zeros(0, 5);
        assert!(m.is_empty());
        assert_eq!(m.rows(), 0);
        let d = Matrix::default();
        assert!(d.is_empty());
    }

    #[test]
    fn from_fn_layout_is_row_major() {
        let m = Matrix::from_fn(2, 3, |i, j| (i * 3 + j) as f32);
        assert_eq!(m.as_slice(), &[0.0, 1.0, 2.0, 3.0, 4.0, 5.0]);
        assert_eq!(m.get(1, 0), 3.0);
    }

    #[test]
    fn from_vec_validates_length() {
        assert!(Matrix::from_vec(2, 2, vec![1.0; 4]).is_ok());
        let err = Matrix::from_vec(2, 2, vec![1.0; 5]).unwrap_err();
        assert!(matches!(err, TensorError::InvalidDimension { .. }));
    }

    #[test]
    fn from_rows_requires_equal_lengths() {
        let ok = Matrix::from_rows(&[vec![1.0, 2.0], vec![3.0, 4.0]]).unwrap();
        assert_eq!(ok.get(1, 1), 4.0);
        let err = Matrix::from_rows(&[vec![1.0], vec![2.0, 3.0]]).unwrap_err();
        assert!(matches!(err, TensorError::InvalidDimension { .. }));
        let empty = Matrix::from_rows(&[]).unwrap();
        assert!(empty.is_empty());
    }

    #[test]
    fn identity_diagonal() {
        let m = Matrix::identity(3);
        for i in 0..3 {
            for j in 0..3 {
                assert_eq!(m.get(i, j), if i == j { 1.0 } else { 0.0 });
            }
        }
    }

    #[test]
    fn row_views() {
        let mut m = Matrix::from_fn(2, 2, |i, j| (i + j) as f32);
        assert_eq!(m.row(1), &[1.0, 2.0]);
        m.row_mut(0)[1] = 9.0;
        assert_eq!(m.get(0, 1), 9.0);
    }

    #[test]
    #[should_panic(expected = "out of bounds")]
    fn row_out_of_bounds_panics() {
        let m = Matrix::zeros(2, 2);
        let _ = m.row(2);
    }

    #[test]
    fn transpose_round_trip() {
        let m = Matrix::from_fn(2, 3, |i, j| (i * 3 + j) as f32);
        let t = m.transpose();
        assert_eq!(t.shape(), (3, 2));
        assert_eq!(t.get(2, 1), m.get(1, 2));
        assert_eq!(t.transpose(), m);
    }

    #[test]
    fn gather_rows_selects_in_order() {
        let m = Matrix::from_fn(4, 2, |i, _| i as f32);
        let g = m.gather_rows(&[3, 0, 3]).unwrap();
        assert_eq!(g.rows(), 3);
        assert_eq!(g.row(0), &[3.0, 3.0]);
        assert_eq!(g.row(1), &[0.0, 0.0]);
        assert_eq!(g.row(2), &[3.0, 3.0]);
        assert!(m.gather_rows(&[4]).is_err());
    }

    #[test]
    fn slice_rows_bounds() {
        let m = Matrix::from_fn(4, 2, |i, _| i as f32);
        let s = m.slice_rows(1, 3).unwrap();
        assert_eq!(s.rows(), 2);
        assert_eq!(s.row(0), &[1.0, 1.0]);
        assert!(m.slice_rows(3, 2).is_err());
        assert!(m.slice_rows(0, 5).is_err());
        assert_eq!(m.slice_rows(2, 2).unwrap().rows(), 0);
    }

    #[test]
    fn add_assign_and_scale() {
        let mut a = Matrix::full(2, 2, 1.0);
        let b = Matrix::full(2, 2, 2.0);
        a.add_assign(&b).unwrap();
        assert_eq!(a.get(0, 0), 3.0);
        a.scale_in_place(0.5);
        assert_eq!(a.get(1, 1), 1.5);
        let c = Matrix::zeros(1, 2);
        assert!(a.add_assign(&c).is_err());
    }

    #[test]
    fn frobenius_norm_matches_manual() {
        let m = Matrix::from_vec(1, 2, vec![3.0, 4.0]).unwrap();
        assert!((m.frobenius_norm() - 5.0).abs() < 1e-6);
    }

    #[test]
    fn into_vec_returns_data() {
        let m = Matrix::from_fn(1, 3, |_, j| j as f32);
        assert_eq!(m.into_vec(), vec![0.0, 1.0, 2.0]);
    }
}
