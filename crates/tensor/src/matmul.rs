use crate::{mul_add, pool, Isa, IsaBuild, Matrix, TensorError};

/// Cache-blocking tile size used by [`matmul`] and [`matmul_transb`].
///
/// 64x64 f32 tiles (16 KiB per operand tile) fit comfortably in L1/L2 on
/// commodity CPUs; the exact value only affects speed, not results.
pub const GEMM_BLOCK: usize = 64;

/// Computes `A * B` with cache blocking.
///
/// Every output element is `acc = fma(A[i][kk], B[kk][j], acc)` over `kk`
/// in index order from `0.0`, skipping `A[i][kk] == 0.0`: one rounding per
/// product ([`fma`](crate::fma())), the arithmetic of the packed GEMM and
/// the attention engine. The CPU's FMA instruction computes it where
/// there is one, the exact emulation where there is not; the bits are the
/// same.
///
/// # Errors
///
/// Returns [`TensorError::ShapeMismatch`] if `A.cols() != B.rows()`.
///
/// # Example
///
/// ```
/// use sa_tensor::{Matrix, matmul};
/// # fn main() -> Result<(), sa_tensor::TensorError> {
/// let a = Matrix::identity(3);
/// let b = Matrix::from_fn(3, 2, |i, j| (i + j) as f32);
/// assert_eq!(matmul(&a, &b)?, b);
/// # Ok(())
/// # }
/// ```
pub fn matmul(a: &Matrix, b: &Matrix) -> Result<Matrix, TensorError> {
    if a.cols() != b.rows() {
        return Err(TensorError::ShapeMismatch {
            op: "matmul",
            lhs: a.shape(),
            rhs: b.shape(),
        });
    }
    let (m, k) = a.shape();
    let n = b.cols();
    let mut out = Matrix::zeros(m, n);
    if n == 0 {
        return Ok(out);
    }
    let bd = b.as_slice();
    let isa = Isa::detect();
    // Each output row is an independent accumulation over k, so
    // partitioning across row chunks leaves per-row arithmetic (and hence
    // the result bits) identical to the serial path.
    pool::parallel_for_rows(
        out.as_mut_slice(),
        n,
        pool::row_grain(k * n),
        |row0, chunk| match isa.build() {
            #[cfg(target_arch = "x86_64")]
            // SAFETY: an `Isa` names AVX2 or AVX-512 only when
            // `Isa::detect` found `avx2` and `fma` on this CPU.
            IsaBuild::Avx2 | IsaBuild::Avx512 => unsafe {
                matmul_rows_fused(a, bd, k, n, row0, chunk)
            },
            _ => matmul_rows::<false>(a, bd, k, n, row0, chunk),
        },
    );
    Ok(out)
}

/// [`matmul_rows`] compiled with FMA, so each product is one `vfmadd`.
#[cfg(target_arch = "x86_64")]
#[target_feature(enable = "avx2,fma")]
fn matmul_rows_fused(a: &Matrix, bd: &[f32], k: usize, n: usize, row0: usize, chunk: &mut [f32]) {
    matmul_rows::<true>(a, bd, k, n, row0, chunk);
}

/// Cache-blocked `A * B` restricted to output rows
/// `row0 .. row0 + chunk.len() / n`; `chunk` is that row range of the
/// output buffer. Arithmetic per row matches the full serial loop;
/// `FUSED` as in [`mul_add`].
#[inline(always)]
fn matmul_rows<const FUSED: bool>(
    a: &Matrix,
    bd: &[f32],
    k: usize,
    n: usize,
    row0: usize,
    chunk: &mut [f32],
) {
    let rows = chunk.len() / n;
    for c0 in (0..rows).step_by(GEMM_BLOCK) {
        let c1 = (c0 + GEMM_BLOCK).min(rows);
        for k0 in (0..k).step_by(GEMM_BLOCK) {
            let k1 = (k0 + GEMM_BLOCK).min(k);
            for c in c0..c1 {
                let arow = a.row(row0 + c);
                let orow = &mut chunk[c * n..(c + 1) * n];
                for kk in k0..k1 {
                    let av = arow[kk];
                    if av == 0.0 {
                        continue;
                    }
                    let brow = &bd[kk * n..(kk + 1) * n];
                    for (o, &bv) in orow.iter_mut().zip(brow.iter()) {
                        *o = mul_add::<FUSED>(av, bv, *o);
                    }
                }
            }
        }
    }
}

/// Computes `A * B^T` without materialising the transpose.
///
/// This is the score kernel shape used everywhere in attention:
/// `scores = Q K^T` with `Q: (S_q, d)` and `K: (S_k, d)` both row-major,
/// so each output element is a dot product of two contiguous rows.
///
/// # Errors
///
/// Returns [`TensorError::ShapeMismatch`] if `A.cols() != B.cols()`.
pub fn matmul_transb(a: &Matrix, b: &Matrix) -> Result<Matrix, TensorError> {
    if a.cols() != b.cols() {
        return Err(TensorError::ShapeMismatch {
            op: "matmul_transb",
            lhs: a.shape(),
            rhs: b.shape(),
        });
    }
    let m = a.rows();
    let n = b.rows();
    let d = a.cols();
    let mut out = Matrix::zeros(m, n);
    if n == 0 {
        return Ok(out);
    }
    // Every output element is an isolated dot product, so row-chunk
    // partitioning is trivially bit-deterministic.
    pool::parallel_for_rows(
        out.as_mut_slice(),
        n,
        pool::row_grain(d * n),
        |row0, chunk| {
            let rows = chunk.len() / n;
            for c0 in (0..rows).step_by(GEMM_BLOCK) {
                let c1 = (c0 + GEMM_BLOCK).min(rows);
                for j0 in (0..n).step_by(GEMM_BLOCK) {
                    let j1 = (j0 + GEMM_BLOCK).min(n);
                    for c in c0..c1 {
                        let arow = a.row(row0 + c);
                        let orow = &mut chunk[c * n..(c + 1) * n];
                        for (o, j) in orow[j0..j1].iter_mut().zip(j0..) {
                            *o = dot(arow, b.row(j));
                        }
                    }
                }
            }
        },
    );
    Ok(out)
}

/// Dot product of two equal-length slices (4-way unrolled).
#[inline]
pub(crate) fn dot(a: &[f32], b: &[f32]) -> f32 {
    debug_assert_eq!(a.len(), b.len());
    let mut acc = [0.0f32; 4];
    let chunks = a.len() / 4;
    for c in 0..chunks {
        let i = c * 4;
        acc[0] += a[i] * b[i];
        acc[1] += a[i + 1] * b[i + 1];
        acc[2] += a[i + 2] * b[i + 2];
        acc[3] += a[i + 3] * b[i + 3];
    }
    let mut sum = acc[0] + acc[1] + acc[2] + acc[3];
    for i in chunks * 4..a.len() {
        sum += a[i] * b[i];
    }
    sum
}

#[cfg(test)]
mod tests {
    use super::*;

    fn naive_matmul(a: &Matrix, b: &Matrix) -> Matrix {
        let mut out = Matrix::zeros(a.rows(), b.cols());
        for i in 0..a.rows() {
            for j in 0..b.cols() {
                let mut s = 0.0;
                for k in 0..a.cols() {
                    s += a.get(i, k) * b.get(k, j);
                }
                out.set(i, j, s);
            }
        }
        out
    }

    #[test]
    fn matmul_matches_naive_small() {
        let a = Matrix::from_fn(3, 4, |i, j| (i as f32 - j as f32) * 0.5);
        let b = Matrix::from_fn(4, 2, |i, j| (i * 2 + j) as f32 * 0.25);
        let got = matmul(&a, &b).unwrap();
        let want = naive_matmul(&a, &b);
        for (g, w) in got.as_slice().iter().zip(want.as_slice()) {
            assert!((g - w).abs() < 1e-5);
        }
    }

    #[test]
    fn matmul_matches_naive_across_block_boundary() {
        // Sizes straddle GEMM_BLOCK to exercise partial tiles.
        let m = GEMM_BLOCK + 7;
        let k = GEMM_BLOCK + 1;
        let n = 5;
        let a = Matrix::from_fn(m, k, |i, j| ((i * 31 + j * 17) % 13) as f32 * 0.1 - 0.6);
        let b = Matrix::from_fn(k, n, |i, j| ((i * 7 + j * 3) % 11) as f32 * 0.2 - 1.0);
        let got = matmul(&a, &b).unwrap();
        let want = naive_matmul(&a, &b);
        let mut max = 0.0f32;
        for (g, w) in got.as_slice().iter().zip(want.as_slice()) {
            max = max.max((g - w).abs());
        }
        assert!(max < 1e-3, "max abs diff {max}");
    }

    #[test]
    fn matmul_shape_mismatch() {
        let a = Matrix::zeros(2, 3);
        let b = Matrix::zeros(4, 2);
        assert!(matches!(
            matmul(&a, &b),
            Err(TensorError::ShapeMismatch { op: "matmul", .. })
        ));
    }

    #[test]
    fn matmul_transb_equals_matmul_with_transpose() {
        let a = Matrix::from_fn(5, 8, |i, j| ((i + 2 * j) % 7) as f32 * 0.3 - 1.0);
        let b = Matrix::from_fn(9, 8, |i, j| ((3 * i + j) % 5) as f32 * 0.4 - 0.8);
        let got = matmul_transb(&a, &b).unwrap();
        let want = matmul(&a, &b.transpose()).unwrap();
        for (g, w) in got.as_slice().iter().zip(want.as_slice()) {
            assert!((g - w).abs() < 1e-4);
        }
    }

    #[test]
    fn matmul_transb_shape_mismatch() {
        let a = Matrix::zeros(2, 3);
        let b = Matrix::zeros(2, 4);
        assert!(matmul_transb(&a, &b).is_err());
    }

    #[test]
    fn dot_handles_non_multiple_of_four() {
        let a = [1.0, 2.0, 3.0, 4.0, 5.0];
        let b = [2.0, 2.0, 2.0, 2.0, 2.0];
        assert_eq!(dot(&a, &b), 30.0);
    }

    #[test]
    fn zero_sized_operands() {
        let a = Matrix::zeros(0, 3);
        let b = Matrix::zeros(3, 2);
        let out = matmul(&a, &b).unwrap();
        assert_eq!(out.shape(), (0, 2));
        let c = Matrix::zeros(0, 3);
        let out2 = matmul_transb(&a, &c).unwrap();
        assert_eq!(out2.shape(), (0, 0));
    }

    #[test]
    fn identity_is_neutral_for_transb() {
        let a = Matrix::from_fn(4, 4, |i, j| (i * 4 + j) as f32);
        let id = Matrix::identity(4);
        // A * I^T = A
        assert_eq!(matmul_transb(&a, &id).unwrap(), a);
    }
}
