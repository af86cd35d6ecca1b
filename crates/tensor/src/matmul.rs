use crate::{mul_add, pool, AlignedBuf, Isa, IsaBuild, Matrix, TensorError};

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

/// Key lanes of one panel of a transposed `B`: panel `p` holds element
/// `k` of row `p * PANEL_LANES + t` at `kt[p][k][t]`, zero where a lane
/// has no row — the layout of `sa-kernels`' key panels, which
/// [`matmul_transb_panels`] reads.
pub const PANEL_LANES: usize = GEMM_BLOCK;

/// Computes `A * B^T`.
///
/// This is the score kernel shape used everywhere in attention:
/// `scores = Q K^T` with `Q: (S_q, d)` and `K: (S_k, d)` both row-major,
/// so each output element is the dot product of two rows: four
/// interleaved accumulators over the first `4 * (d / 4)` elements, each
/// product rounded and then added, summed `((a0 + a1) + a2) + a3`, then
/// the one to three remaining products added in order. The products run
/// across keys, a panel of [`PANEL_LANES`] rows of `B` transposed at a
/// time: each lane keeps exactly that order, so the bits are those of
/// the scalar loop.
///
/// # Errors
///
/// Returns [`TensorError::ShapeMismatch`] if `A.cols() != B.cols()`.
pub fn matmul_transb(a: &Matrix, b: &Matrix) -> Result<Matrix, TensorError> {
    matmul_transb_on(Isa::detect(), a, b, false)
}

/// [`matmul_transb`] on the build `isa` names. With `causal`, row `i` of
/// the output needs only the keys `j <= i + B.rows() - A.rows()` (a
/// causal mask aligns the last query with the last key), and a panel
/// whose keys all lie past that is not computed: its entries stay `0.0`
/// for the caller to mask. The entries past the diagonal inside a
/// computed panel are computed.
///
/// # Errors
///
/// Returns [`TensorError::ShapeMismatch`] if `A.cols() != B.cols()`.
pub fn matmul_transb_on(isa: Isa, a: &Matrix, b: &Matrix, causal: bool) -> Result<Matrix, TensorError> {
    if a.cols() != b.cols() {
        return Err(TensorError::ShapeMismatch {
            op: "matmul_transb",
            lhs: a.shape(),
            rhs: b.shape(),
        });
    }
    Ok(transb(isa, a, Keys::Rows(b), b.rows(), causal))
}

/// [`matmul_transb_on`] for the `n` rows of `B` held transposed in `kt`
/// (whole panels of [`PANEL_LANES`] lanes), every entry with
/// [`matmul_transb`]'s bits.
///
/// # Errors
///
/// Returns [`TensorError::ShapeMismatch`] unless `kt` holds
/// `n.div_ceil(PANEL_LANES)` panels of `A.cols()` rows.
pub fn matmul_transb_panels(
    isa: Isa,
    a: &Matrix,
    kt: &[f32],
    n: usize,
    causal: bool,
) -> Result<Matrix, TensorError> {
    let panels = n.div_ceil(PANEL_LANES);
    if kt.len() != panels * a.cols() * PANEL_LANES {
        return Err(TensorError::ShapeMismatch {
            op: "matmul_transb_panels",
            lhs: a.shape(),
            rhs: (n, kt.len() / (panels * PANEL_LANES).max(1)),
        });
    }
    Ok(transb(isa, a, Keys::Panels(kt), n, causal))
}

/// Where the panels of `B` come from.
#[derive(Clone, Copy)]
enum Keys<'a> {
    /// `B` as rows: each panel is transposed where it is read, so no
    /// transposed copy of `B` is held.
    Rows(&'a Matrix),
    /// `B` already transposed, whole panels.
    Panels(&'a [f32]),
}

/// The one loop behind [`matmul_transb_on`] and [`matmul_transb_panels`].
fn transb(isa: Isa, a: &Matrix, keys: Keys<'_>, n: usize, causal: bool) -> Matrix {
    let (m, d) = a.shape();
    let mut out = Matrix::zeros(m, n);
    if n == 0 {
        return out;
    }
    let stride = d * PANEL_LANES;
    let panels = n.div_ceil(PANEL_LANES);
    // Panels row `i` needs: all of them, or those holding a key at or
    // before its diagonal.
    let needed = |i: usize| {
        if causal {
            (i + 1 + n).saturating_sub(m).div_ceil(PANEL_LANES).min(panels)
        } else {
            panels
        }
    };
    // Every output element is an isolated dot product, so row-chunk
    // partitioning is trivially bit-deterministic.
    pool::parallel_for_rows(out.as_mut_slice(), n, pool::row_grain(d * n), |row0, chunk| {
        let mut scratch = match keys {
            Keys::Rows(_) => AlignedBuf::zeros(stride),
            Keys::Panels(_) => AlignedBuf::new(),
        };
        let rows = chunk.len() / n;
        for c0 in (0..rows).step_by(GEMM_BLOCK) {
            let c1 = (c0 + GEMM_BLOCK).min(rows);
            // A panel stays in cache across the block's rows.
            for p in 0..needed(row0 + c1 - 1) {
                let lanes = p * PANEL_LANES..((p + 1) * PANEL_LANES).min(n);
                let panel = match keys {
                    Keys::Panels(kt) => &kt[p * stride..][..stride],
                    Keys::Rows(b) => {
                        let panel = scratch.as_mut_slice();
                        panel.fill(0.0);
                        for (t, j) in lanes.clone().enumerate() {
                            for (column, &x) in panel.chunks_exact_mut(PANEL_LANES).zip(b.row(j)) {
                                column[t] = x;
                            }
                        }
                        scratch.as_slice()
                    }
                };
                for c in c0..c1 {
                    if p < needed(row0 + c) {
                        let orow = &mut chunk[c * n..(c + 1) * n];
                        dot_panel(isa, a.row(row0 + c), panel, &mut orow[lanes.clone()]);
                    }
                }
            }
        }
    });
    out
}

/// Lanes one accumulator group of [`dot_lanes`] covers, per build: four
/// accumulators of `L` lanes are eight of the 16 vector registers under
/// the baseline build (4 × 8 lanes) and AVX2 (4 × 16), and sixteen of
/// the 32 under AVX-512 (4 × a whole panel). Lanes are independent, so
/// the grouping never shows in the bits.
const DOT_LANES_BASELINE: usize = 8;
const DOT_LANES_AVX2: usize = 16;
const DOT_LANES_AVX512: usize = PANEL_LANES;

/// `out[t]` = the dot product of `a` with key `t` of the panel `kt`
/// (`a.len()` rows of [`PANEL_LANES`] lanes), for each `t < out.len()`,
/// with the bits of the scalar loop [`matmul_transb`] specifies, on the
/// build `isa` names.
///
/// # Panics
///
/// Panics if `kt` is shorter than `a.len()` panel rows or `out` is
/// longer than a panel.
#[inline]
fn dot_panel(isa: Isa, a: &[f32], kt: &[f32], out: &mut [f32]) {
    match isa.build() {
        #[cfg(target_arch = "x86_64")]
        // SAFETY: an `Isa` names AVX-512 only when `Isa::detect` found
        // `avx2`, `fma` and `avx512f` on this CPU.
        IsaBuild::Avx512 => unsafe { dot_panel_avx512(a, kt, out) },
        #[cfg(target_arch = "x86_64")]
        // SAFETY: an `Isa` names AVX2 only when `Isa::detect` found `avx2`
        // and `fma` on this CPU.
        IsaBuild::Avx2 => unsafe { dot_panel_avx2(a, kt, out) },
        _ => dot_lanes::<DOT_LANES_BASELINE>(a, kt, out),
    }
}

/// The panel dots compiled with AVX2: eight lanes to a register, each
/// product rounded before it is added (nothing fuses: Rust does not
/// contract `a * b + c`).
#[cfg(target_arch = "x86_64")]
#[target_feature(enable = "avx2,fma")]
fn dot_panel_avx2(a: &[f32], kt: &[f32], out: &mut [f32]) {
    dot_lanes::<DOT_LANES_AVX2>(a, kt, out);
}

/// The panel dots compiled with AVX-512F: sixteen lanes to a register.
#[cfg(target_arch = "x86_64")]
#[target_feature(enable = "avx2,fma,avx512f")]
fn dot_panel_avx512(a: &[f32], kt: &[f32], out: &mut [f32]) {
    dot_lanes::<DOT_LANES_AVX512>(a, kt, out);
}

/// The one body of the panel dots, `L` lanes at a time: per lane, the
/// four accumulators, their sum and the tail of [`dot`], in its order.
#[inline(always)]
fn dot_lanes<const L: usize>(a: &[f32], kt: &[f32], out: &mut [f32]) {
    let whole = a.len() / 4 * 4;
    for c in 0..out.len().div_ceil(L) {
        let lane0 = c * L;
        let mut acc = [[0.0f32; L]; 4];
        for k0 in (0..whole).step_by(4) {
            for (r, acc_r) in acc.iter_mut().enumerate() {
                let x = a[k0 + r];
                let keys = &kt[(k0 + r) * PANEL_LANES + lane0..][..L];
                for (s, &kv) in acc_r.iter_mut().zip(keys) {
                    *s += x * kv;
                }
            }
        }
        let mut sum = [0.0f32; L];
        for (t, s) in sum.iter_mut().enumerate() {
            *s = acc[0][t] + acc[1][t] + acc[2][t] + acc[3][t];
        }
        for (k, &x) in a.iter().enumerate().skip(whole) {
            let keys = &kt[k * PANEL_LANES + lane0..][..L];
            for (s, &kv) in sum.iter_mut().zip(keys) {
                *s += x * kv;
            }
        }
        let lanes = (out.len() - lane0).min(L);
        out[lane0..lane0 + lanes].copy_from_slice(&sum[..lanes]);
    }
}

/// Dot product of two equal-length slices (4-way unrolled): the scalar
/// statement of every entry [`matmul_transb`] computes.
#[cfg(test)]
fn dot(a: &[f32], b: &[f32]) -> f32 {
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

    /// `b`'s rows transposed into whole panels of `PANEL_LANES` lanes.
    fn transposed(b: &Matrix) -> Vec<f32> {
        let (n, d) = b.shape();
        let mut kt = vec![0.0; n.div_ceil(PANEL_LANES) * d * PANEL_LANES];
        for j in 0..n {
            for (k, &x) in b.row(j).iter().enumerate() {
                kt[(j / PANEL_LANES * d + k) * PANEL_LANES + j % PANEL_LANES] = x;
            }
        }
        kt
    }

    /// Every entry of the panel product is the scalar `dot` of its two
    /// rows, bit for bit, on every build the CPU has, from rows and from
    /// panels: widths around the four accumulators and the panel rows,
    /// key counts off the panel grid, causal calls with more keys than
    /// queries (and fewer), whose skipped panels stay zero.
    #[test]
    fn panel_dots_equal_the_scalar_dot_on_every_isa() {
        let mut rng = crate::DeterministicRng::new(0x7a2b);
        let widths = [1, 2, 3, 4, 5, 6, 7, 13, 63, 64, 65];
        let shapes = [(1, 1), (3, 63), (5, 64), (9, 65), (70, 130), (2, 200), (40, 10)];
        for d in widths {
            for (m, n) in shapes {
                // Magnitudes spread over six decades, so a reordered sum
                // rounds differently.
                let mut draw = |rows| {
                    Matrix::from_fn(rows, d, |_, _| rng.normal() * 10f32.powi(rng.index(6) as i32 - 3))
                };
                let (a, b) = (draw(m), draw(n));
                let kt = transposed(&b);
                let want = |i: usize, j: usize| dot(a.row(i), b.row(j)).to_bits();
                for isa in Isa::every() {
                    for causal in [false, true] {
                        let label = format!("d {d}, {m} x {n}, {isa:?}, causal {causal}");
                        let from_rows = matmul_transb_on(isa, &a, &b, causal).unwrap();
                        let from_panels = matmul_transb_panels(isa, &a, &kt, n, causal).unwrap();
                        for i in 0..m {
                            // Keys `j < visible` lie at or before row i's diagonal.
                            let visible = (i + 1 + n).saturating_sub(m);
                            for j in 0..n {
                                let computed = !causal || j < visible.div_ceil(PANEL_LANES) * PANEL_LANES;
                                let want = if computed { want(i, j) } else { 0 };
                                assert_eq!(from_rows.get(i, j).to_bits(), want, "{label}: ({i}, {j})");
                                assert_eq!(from_panels.get(i, j).to_bits(), want, "{label}: ({i}, {j})");
                            }
                        }
                    }
                }
            }
        }
        let a = Matrix::zeros(2, 4);
        assert!(matmul_transb_panels(Isa::detect(), &a, &[0.0; 8], 3, false).is_err());
        assert!(matmul_transb_panels(Isa::detect(), &a, &transposed(&Matrix::zeros(3, 4)), 3, false).is_ok());
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
