//! Packed weights: the one layout the projection GEMM reads.
//!
//! A weight matrix `B (k x n)` is stored once, at model build, as column
//! panels of [`LANES`] lanes: panel `p` holds `bt[kk][t] = B[kk][p *
//! LANES + t]`, zero where a lane has no column. An output element is
//! then `acc[t] = fma(a[kk], bt[kk][t], acc[t])` over `kk` in index order
//! from `0.0` — the fused products [`matmul`](crate::matmul) sums, in its
//! order — while neighbouring lanes and rows are independent, so a few
//! rows by one panel sit in vector registers for the whole `kk` loop and
//! plain Rust autovectorises across `t`.
//!
//! As for the engine's inner loops (see [`Isa`]), the arithmetic keeps
//! the bits, not the instruction set: one fused multiply-add per product,
//! no reassociation, no intrinsics, one body compiled for the baseline ISA
//! (with the exact emulation [`fma`](crate::fma())), for AVX2 + FMA and
//! for AVX-512. The one thing the scalar oracle does that this kernel does
//! not is skip `a[kk] == 0.0`. With `B[kk][j]` finite the skipped product
//! is `±0.0`, and `fma(±0.0, b, s)` is `s` for every sum `s` but `-0.0`.
//! A sum that starts at `+0.0` is `-0.0` only after a product smaller
//! than half the least subnormal (about `7e-46`) rounded to zero from
//! below, so the results are the same bits for finite weights and any
//! products that do not underflow that far; [`PackedWeights::pack`]
//! refuses non-finite weights.
//!
//! Output rows are partitioned across the pool in whole
//! [`GEMM_BLOCK`]-row blocks, a function of the shape alone: a call of at
//! most one block runs on the caller's thread.

use std::ops::Range;

use crate::{mul_add, pool, Isa, IsaBuild, Matrix, TensorError, GEMM_BLOCK};

/// Columns per weight panel: one row of a panel is one AVX-512 register,
/// two AVX2 ones, four at baseline x86-64.
const LANES: usize = 16;

/// A `k x n` weight matrix — or several with the same `k`, side by side —
/// in the panel layout [`matmul_packed`] reads. All entries are finite.
#[derive(Debug, Clone)]
pub struct PackedWeights {
    /// `cols.div_ceil(LANES)` panels of `rows * LANES` floats.
    data: Vec<f32>,
    rows: usize,
    cols: usize,
}

impl PackedWeights {
    /// Packs `parts` side by side: the result is the weight matrix whose
    /// columns are those of `parts[0]`, then `parts[1]`, and so on, so
    /// one GEMM call can serve projections that share an input.
    ///
    /// # Errors
    ///
    /// Returns [`TensorError::ShapeMismatch`] if the parts differ in row
    /// count and [`TensorError::NonFinite`] if any entry is NaN or
    /// infinite (the kernel's bit-equality with [`matmul`](crate::matmul)
    /// rests on finite weights).
    pub fn pack(parts: &[&Matrix]) -> Result<Self, TensorError> {
        let rows = parts.first().map_or(0, |b| b.rows());
        let mut cols = 0;
        let mut non_finite = 0;
        for b in parts {
            if b.rows() != rows {
                return Err(TensorError::ShapeMismatch {
                    op: "PackedWeights::pack",
                    lhs: (rows, cols),
                    rhs: b.shape(),
                });
            }
            cols += b.cols();
            non_finite += crate::count_nonfinite(b.as_slice());
        }
        if non_finite > 0 {
            return Err(TensorError::NonFinite {
                stage: "packed_weights",
                head: None,
                count: non_finite,
            });
        }
        let stride = rows * LANES;
        let mut data = vec![0.0f32; cols.div_ceil(LANES) * stride];
        let mut col0 = 0;
        for b in parts {
            for kk in 0..rows {
                for (j, &x) in (col0..).zip(b.row(kk)) {
                    data[j / LANES * stride + kk * LANES + j % LANES] = x;
                }
            }
            col0 += b.cols();
        }
        Ok(PackedWeights { data, rows, cols })
    }

    /// Rows of the weight matrix: the input width `k`.
    pub fn rows(&self) -> usize {
        self.rows
    }

    /// Columns of the weight matrix: the output width `n`, all parts.
    pub fn cols(&self) -> usize {
        self.cols
    }
}

/// Computes `A * B` for packed `B`: bit for bit what
/// [`matmul`](crate::matmul) returns for the unpacked weights.
///
/// # Errors
///
/// Returns [`TensorError::ShapeMismatch`] if `a.cols() != w.rows()`.
pub fn matmul_packed(a: &Matrix, w: &PackedWeights) -> Result<Matrix, TensorError> {
    matmul_packed_cols(a, w, 0..w.cols())
}

/// Computes the columns `cols` of `A * B` for packed `B`, as an
/// `(a.rows(), cols.len())` matrix: one projection out of several packed
/// side by side, or a run of them.
///
/// # Errors
///
/// Returns [`TensorError::ShapeMismatch`] if `a.cols() != w.rows()`,
/// [`TensorError::IndexOutOfBounds`] if `cols` does not lie within
/// `0..w.cols()`, and [`TensorError::WorkerPanic`] if a block's worker
/// panics.
pub fn matmul_packed_cols(
    a: &Matrix,
    w: &PackedWeights,
    cols: Range<usize>,
) -> Result<Matrix, TensorError> {
    check(a, w, &cols)?;
    let [out] = packed_products(Isa::detect(), a, w, [cols])?;
    Ok(out)
}

/// The columns `left` and `right` of `A * B` for packed `B`, as two
/// matrices, from one pass over `a`: each block of rows meets both column
/// ranges while it is in cache. The same bits as two
/// [`matmul_packed_cols`] calls, at about the cost of one over the two
/// ranges side by side, and no product needs splitting afterwards.
///
/// # Errors
///
/// As [`matmul_packed_cols`] for either range.
pub fn matmul_packed_pair(
    a: &Matrix,
    w: &PackedWeights,
    left: Range<usize>,
    right: Range<usize>,
) -> Result<(Matrix, Matrix), TensorError> {
    check(a, w, &left)?;
    check(a, w, &right)?;
    let [left, right] = packed_products(Isa::detect(), a, w, [left, right])?;
    Ok((left, right))
}

/// The shape checks of the packed products.
fn check(a: &Matrix, w: &PackedWeights, cols: &Range<usize>) -> Result<(), TensorError> {
    if a.cols() != w.rows {
        return Err(TensorError::ShapeMismatch {
            op: "matmul_packed",
            lhs: a.shape(),
            rhs: (w.rows, w.cols),
        });
    }
    if cols.end > w.cols || cols.start > cols.end {
        return Err(TensorError::IndexOutOfBounds {
            op: "matmul_packed",
            index: cols.end.max(cols.start),
            bound: w.cols + 1,
        });
    }
    Ok(())
}

/// The checked products of `a` with each column range of `cols`, one
/// matrix each, on the build `isa` names. Rows are independent and each
/// is written by one worker, so the result does not depend on the thread
/// count; a worker takes whole [`GEMM_BLOCK`]-row blocks and runs each
/// against every range while the block's A rows are resident in cache.
fn packed_products<const N: usize>(
    isa: Isa,
    a: &Matrix,
    w: &PackedWeights,
    cols: [Range<usize>; N],
) -> Result<[Matrix; N], TensorError> {
    let mut outs = cols.clone().map(|c| Matrix::zeros(a.rows(), c.len()));
    if w.rows == 0 {
        return Ok(outs);
    }
    let mut rest = outs.each_mut().map(|m| m.as_mut_slice());
    let mut blocks = Vec::new();
    for row0 in (0..a.rows()).step_by(GEMM_BLOCK) {
        let n = GEMM_BLOCK.min(a.rows() - row0);
        let block: [&mut [f32]; N] = std::array::from_fn(|i| {
            let (head, tail) = std::mem::take(&mut rest[i]).split_at_mut(n * cols[i].len());
            rest[i] = tail;
            head
        });
        blocks.push((row0, n, block));
    }
    pool::try_parallel_for_parts("matmul_packed", blocks, |(row0, n, block)| {
        let a_rows = &a.as_slice()[row0 * w.rows..][..n * w.rows];
        for (out, c) in block.into_iter().zip(&cols) {
            if !out.is_empty() {
                gemm_rows(isa, a_rows, w, c.clone(), out);
            }
        }
    })?;
    Ok(outs)
}

/// Fills `out`, the output rows matching the input rows `a`, on the
/// build `isa` names.
fn gemm_rows(isa: Isa, a: &[f32], w: &PackedWeights, cols: Range<usize>, out: &mut [f32]) {
    match isa.build() {
        #[cfg(target_arch = "x86_64")]
        // SAFETY: an `Isa` names AVX-512 only when `Isa::detect` found
        // `avx2`, `fma` and `avx512f` on this CPU.
        IsaBuild::Avx512 => unsafe { gemm_rows_avx512(a, w, cols, out) },
        #[cfg(target_arch = "x86_64")]
        // SAFETY: an `Isa` names AVX2 only when `Isa::detect` found `avx2`
        // and `fma` on this CPU.
        IsaBuild::Avx2 => unsafe { gemm_rows_avx2(a, w, cols, out) },
        _ => gemm_rows_baseline(a, w, cols, out),
    }
}

/// The GEMM compiled for the target's baseline instruction set: two rows
/// of a panel are eight of baseline x86-64's 16 vector registers, each
/// product through the exact emulation of a fused multiply-add.
fn gemm_rows_baseline(a: &[f32], w: &PackedWeights, cols: Range<usize>, out: &mut [f32]) {
    gemm_rows_body::<2, false>(a, w, cols, out);
}

/// The GEMM compiled with AVX2 and FMA: the same fused products per lane,
/// eight lanes to a register, four rows of a panel in eight registers.
#[cfg(target_arch = "x86_64")]
#[target_feature(enable = "avx2,fma")]
fn gemm_rows_avx2(a: &[f32], w: &PackedWeights, cols: Range<usize>, out: &mut [f32]) {
    gemm_rows_body::<4, true>(a, w, cols, out);
}

/// The GEMM compiled with AVX-512F: the same fused products per lane,
/// sixteen lanes to a register, eight rows of a panel in eight of the 32
/// registers.
#[cfg(target_arch = "x86_64")]
#[target_feature(enable = "avx2,fma,avx512f")]
fn gemm_rows_avx512(a: &[f32], w: &PackedWeights, cols: Range<usize>, out: &mut [f32]) {
    gemm_rows_body::<8, true>(a, w, cols, out);
}

/// The one body of the GEMM: per [`GEMM_BLOCK`]-row block and panel,
/// `R x LANES` register tiles (single rows for what `R` does not
/// divide). `R` only groups independent rows; it cannot change a bit.
/// `FUSED` as in [`mul_add`].
#[inline(always)]
fn gemm_rows_body<const R: usize, const FUSED: bool>(
    a: &[f32],
    w: &PackedWeights,
    cols: Range<usize>,
    out: &mut [f32],
) {
    let k = w.rows;
    let width = cols.len();
    for (a_block, out_block) in a
        .chunks(GEMM_BLOCK * k)
        .zip(out.chunks_mut(GEMM_BLOCK * width))
    {
        for p in cols.start / LANES..cols.end.div_ceil(LANES) {
            let bt = &w.data[p * k * LANES..][..k * LANES];
            // The panel's lanes inside `cols`, and where they land in an
            // output row.
            let lane0 = cols.start.max(p * LANES) - p * LANES;
            let lane1 = cols.end.min((p + 1) * LANES) - p * LANES;
            let at = p * LANES + lane0 - cols.start;
            let store = |out_row: &mut [f32], acc_row: &[f32; LANES]| {
                out_row[at..][..lane1 - lane0].copy_from_slice(&acc_row[lane0..lane1]);
            };
            let mut a_tiles = a_block.chunks_exact(R * k);
            let mut out_tiles = out_block.chunks_exact_mut(R * width);
            for (a_tile, out_tile) in (&mut a_tiles).zip(&mut out_tiles) {
                let acc = tile::<R, FUSED>(std::array::from_fn(|r| &a_tile[r * k..][..k]), bt);
                for (out_row, acc_row) in out_tile.chunks_exact_mut(width).zip(&acc) {
                    store(out_row, acc_row);
                }
            }
            for (a_row, out_row) in a_tiles
                .remainder()
                .chunks_exact(k)
                .zip(out_tiles.into_remainder().chunks_exact_mut(width))
            {
                let [acc] = tile::<1, FUSED>([a_row], bt);
                store(out_row, &acc);
            }
        }
    }
}

/// `R` rows against one panel: `acc[r][t] = fma(a[r][kk], bt[kk][t],
/// acc[r][t])` in `kk` order from `0.0`. Constant-bound index loops over rows cut to `k`
/// up front are the form that keeps `acc` in registers: the iterator
/// spelling of the same loops compiles to scalar code at `R = 4`.
#[inline(always)]
#[allow(clippy::needless_range_loop)]
fn tile<const R: usize, const FUSED: bool>(a: [&[f32]; R], bt: &[f32]) -> [[f32; LANES]; R] {
    let k = bt.len() / LANES;
    let a: [&[f32]; R] = std::array::from_fn(|r| &a[r][..k]);
    let mut acc = [[0.0f32; LANES]; R];
    for kk in 0..k {
        let b = &bt[kk * LANES..][..LANES];
        for r in 0..R {
            let x = a[r][kk];
            for t in 0..LANES {
                acc[r][t] = mul_add::<FUSED>(x, b[t], acc[r][t]);
            }
        }
    }
    acc
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::pool::with_threads;
    use crate::{matmul, DeterministicRng};

    fn bits(m: &Matrix) -> Vec<u32> {
        m.as_slice().iter().map(|x| x.to_bits()).collect()
    }

    fn packed_product(isa: Isa, a: &Matrix, w: &PackedWeights, cols: Range<usize>) -> Matrix {
        let [out] = packed_products(isa, a, w, [cols]).unwrap();
        out
    }

    /// A random `m x k` input whose rows also carry the values the scalar
    /// oracle treats specially: both zeros (its skip), `inf` and `NaN`.
    fn input(rng: &mut DeterministicRng, m: usize, k: usize) -> Matrix {
        let mut a = rng.normal_matrix(m, k, 1.0);
        let specials = [0.0, -0.0, f32::INFINITY, f32::NAN, f32::NEG_INFINITY];
        for i in 0..m {
            // Row i gets special (i % 7) at column (3 i) % k; rows 5 and 6
            // of every seven stay all-finite, every third row gets a
            // second zero.
            if let Some(&x) = specials.get(i % 7) {
                a.set(i, (3 * i) % k, x);
            }
            if i % 3 == 0 {
                a.set(i, (5 * i + 1) % k, 0.0);
            }
        }
        a
    }

    /// Holds every build, at one thread and at three, to the scalar oracle
    /// bit for bit.
    fn assert_matches_oracle(a: &Matrix, b: &Matrix) {
        let want = bits(&matmul(a, b).unwrap());
        let w = PackedWeights::pack(&[b]).unwrap();
        for isa in Isa::every() {
            for threads in [1, 3] {
                let got = with_threads(threads, || packed_product(isa, a, &w, 0..w.cols()));
                assert_eq!(got.shape(), (a.rows(), b.cols()));
                assert_eq!(
                    bits(&got),
                    want,
                    "{:?} x {:?} on {} at {threads} threads",
                    a.shape(),
                    b.shape(),
                    isa.name()
                );
            }
        }
    }

    #[test]
    fn packed_gemm_equals_scalar_matmul_bitwise() {
        let mut rng = DeterministicRng::new(0x9ac4);
        // 8, 9, 17: one and two whole AVX-512 row tiles, and a tail.
        for m in [1, 3, 4, 5, 8, 9, 17, 63, 64, 65] {
            for k in [1, 108, 216] {
                for n in [1, 15, 16, 17, 64, 108, 216] {
                    let a = input(&mut rng, m, k);
                    let b = rng.normal_matrix(k, n, 1.0);
                    assert_matches_oracle(&a, &b);
                }
            }
        }
        // The prefill shapes: 64 whole blocks of rows.
        for (k, n) in [(108, 216), (216, 108), (1, 17)] {
            let a = input(&mut rng, 4096, k);
            let b = rng.normal_matrix(k, n, 1.0);
            assert_matches_oracle(&a, &b);
        }
    }

    #[test]
    fn zero_weights_and_zero_inputs_keep_the_oracle_bits() {
        // Exact zeros on both sides: the oracle skips zero inputs, the
        // kernel adds their signed-zero products.
        let mut rng = DeterministicRng::new(7);
        let mut a = rng.normal_matrix(9, 20, 1.0);
        let mut b = rng.normal_matrix(20, 33, 1.0);
        for i in 0..9 {
            for kk in 0..20 {
                if (i + kk) % 3 != 0 {
                    a.set(i, kk, if kk % 2 == 0 { 0.0 } else { -0.0 });
                }
            }
        }
        for kk in 0..20 {
            for j in 0..33 {
                if (kk * j) % 4 == 0 {
                    b.set(kk, j, if j % 2 == 0 { -0.0 } else { 0.0 });
                }
            }
        }
        assert_matches_oracle(&a, &b);
        assert_matches_oracle(&Matrix::zeros(5, 20), &b);
    }

    #[test]
    fn fused_parts_equal_each_part_alone() {
        let mut rng = DeterministicRng::new(11);
        let k = 37;
        let parts: Vec<Matrix> = [15, 17, 64, 1, 16]
            .iter()
            .map(|&n| rng.normal_matrix(k, n, 1.0))
            .collect();
        let refs: Vec<&Matrix> = parts.iter().collect();
        let fused = PackedWeights::pack(&refs).unwrap();
        assert_eq!((fused.rows(), fused.cols()), (k, 113));
        for m in [1, 5, 70] {
            let a = input(&mut rng, m, k);
            for isa in Isa::every() {
                let whole = packed_product(isa, &a, &fused, 0..fused.cols());
                let mut col0 = 0;
                for b in &parts {
                    let cols = col0..col0 + b.cols();
                    let want = matmul(&a, b).unwrap();
                    let alone = packed_product(isa, &a, &fused, cols.clone());
                    assert_eq!(
                        bits(&alone),
                        bits(&want),
                        "part at {cols:?} on {}",
                        isa.name()
                    );
                    for i in 0..m {
                        let fused_row: Vec<u32> = whole.row(i)[cols.clone()]
                            .iter()
                            .map(|x| x.to_bits())
                            .collect();
                        let want_row: Vec<u32> = want.row(i).iter().map(|x| x.to_bits()).collect();
                        assert_eq!(
                            fused_row, want_row,
                            "row {i} of the fused product at {cols:?}"
                        );
                    }
                    col0 = cols.end;
                }
                // Two parts from one pass, and an empty one.
                for (l, r) in [(15..32, 32..96), (96..113, 0..15), (0..0, 32..96)] {
                    let [got_l, got_r] = with_threads(3, || {
                        packed_products(isa, &a, &fused, [l.clone(), r.clone()]).unwrap()
                    });
                    assert_eq!(bits(&got_l), bits(&packed_product(isa, &a, &fused, l)));
                    assert_eq!(bits(&got_r), bits(&packed_product(isa, &a, &fused, r)));
                }
                // A run of parts that starts and ends off a panel edge.
                let run = packed_product(isa, &a, &fused, 15..97);
                for i in 0..m {
                    assert_eq!(
                        run.row(i).iter().map(|x| x.to_bits()).collect::<Vec<_>>(),
                        whole.row(i)[15..97]
                            .iter()
                            .map(|x| x.to_bits())
                            .collect::<Vec<_>>()
                    );
                }
            }
        }
    }

    #[test]
    fn packing_rejects_non_finite_weights_and_ragged_parts() {
        let mut b = Matrix::from_fn(4, 20, |i, j| (i + j) as f32);
        assert!(PackedWeights::pack(&[&b]).is_ok());
        b.set(1, 3, f32::NAN);
        b.set(2, 19, f32::INFINITY);
        b.set(3, 0, f32::NEG_INFINITY);
        assert_eq!(
            PackedWeights::pack(&[&Matrix::zeros(4, 2), &b]).unwrap_err(),
            TensorError::NonFinite {
                stage: "packed_weights",
                head: None,
                count: 3
            }
        );
        assert!(matches!(
            PackedWeights::pack(&[&Matrix::zeros(4, 2), &Matrix::zeros(5, 2)]),
            Err(TensorError::ShapeMismatch {
                op: "PackedWeights::pack",
                ..
            })
        ));
    }

    #[test]
    fn product_validates_shapes_and_column_ranges() {
        let w = PackedWeights::pack(&[&Matrix::zeros(4, 20)]).unwrap();
        assert!(matches!(
            matmul_packed(&Matrix::zeros(3, 5), &w),
            Err(TensorError::ShapeMismatch {
                op: "matmul_packed",
                ..
            })
        ));
        let a = Matrix::zeros(3, 4);
        assert!(matches!(
            matmul_packed_cols(&a, &w, 4..21),
            Err(TensorError::IndexOutOfBounds { .. })
        ));
        #[allow(clippy::reversed_empty_ranges)]
        let reversed = 8..4;
        assert!(matmul_packed_cols(&a, &w, reversed).is_err());
        assert_eq!(matmul_packed_cols(&a, &w, 20..20).unwrap().shape(), (3, 0));
        assert_eq!(
            matmul_packed(&Matrix::zeros(0, 4), &w).unwrap().shape(),
            (0, 20)
        );
        // No input width: every sum is the empty sum.
        let empty = PackedWeights::pack(&[&Matrix::zeros(0, 6)]).unwrap();
        assert_eq!(
            matmul_packed(&Matrix::zeros(2, 0), &empty).unwrap(),
            Matrix::zeros(2, 6)
        );
    }
}
