//! Packed weights: the one layout the projection GEMM reads.
//!
//! A weight matrix `B (k x n)` is stored once, at model build, as column
//! panels of [`LANES`] lanes, the engine's key-panel width: panel `p`
//! holds `bt[kk][t] = B[kk][p * LANES + t]`, zero where a lane has no
//! column, and starts on a cache line. An output element is then
//! `acc[t] = fma(a[kk], bt[kk][t], acc[t])` over `kk` in index order from
//! `0.0` — the fused products [`matmul`](crate::matmul) sums, in its
//! order — while neighbouring lanes and rows are independent, so a few
//! rows by a slice of a panel sit in vector registers for the whole `kk`
//! loop and plain Rust autovectorises across `t`. It is the score panel's
//! shape: under AVX-512, four rows by a whole panel are 16 accumulator
//! registers, and every FMA of a `kk` step is independent of the others.
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

use crate::{mul_add, pool, AlignedBuf, Isa, IsaBuild, Matrix, TensorError, GEMM_BLOCK};

/// Columns per weight panel, as many as a key panel has lanes: one row of
/// a panel is four AVX-512 registers (a cache line each), eight AVX2 ones,
/// sixteen at baseline x86-64, and a 64-wide projection is one panel.
const LANES: usize = 64;

/// A `k x n` weight matrix — or several with the same `k`, side by side —
/// in the panel layout [`matmul_packed`] reads. All entries are finite.
#[derive(Debug, Clone)]
pub struct PackedWeights {
    /// `cols.div_ceil(LANES)` panels of `rows * LANES` floats, from a
    /// cache line.
    data: AlignedBuf,
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
        let mut data = AlignedBuf::zeros(cols.div_ceil(LANES) * stride);
        let panels = data.as_mut_slice();
        let mut col0 = 0;
        for b in parts {
            for kk in 0..rows {
                for (j, &x) in (col0..).zip(b.row(kk)) {
                    panels[j / LANES * stride + kk * LANES + j % LANES] = x;
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
    // One product per range.
    let all = 0..w.cols();
    Ok(matmul_packed_parts(a, w, std::slice::from_ref(&all))?.swap_remove(0))
}

/// The column ranges `parts` of `A * B` for packed `B`, one
/// `(a.rows(), range.len())` matrix each, from one pass over `a`: each
/// block of rows meets every range while it is in cache. A range is one
/// projection out of several packed side by side, or a run of them; the
/// ranges are independent lanes of one kernel, so each product has the
/// bits it has alone, and none needs splitting afterwards.
///
/// # Errors
///
/// Returns [`TensorError::ShapeMismatch`] if `a.cols() != w.rows()`,
/// [`TensorError::IndexOutOfBounds`] if a range does not lie within
/// `0..w.cols()`, and [`TensorError::WorkerPanic`] if a block's worker
/// panics.
pub fn matmul_packed_parts(
    a: &Matrix,
    w: &PackedWeights,
    parts: &[Range<usize>],
) -> Result<Vec<Matrix>, TensorError> {
    if a.cols() != w.rows {
        return Err(TensorError::ShapeMismatch {
            op: "matmul_packed",
            lhs: a.shape(),
            rhs: (w.rows, w.cols),
        });
    }
    if let Some(cols) = parts.iter().find(|c| c.end > w.cols || c.start > c.end) {
        return Err(TensorError::IndexOutOfBounds {
            op: "matmul_packed",
            index: cols.end.max(cols.start),
            bound: w.cols + 1,
        });
    }
    packed_products(Isa::detect(), a, w, parts)
}

/// The checked products of `a` with each column range of `parts`, one
/// matrix each, on the build `isa` names. Rows are independent and each
/// is written by one worker, so the result does not depend on the thread
/// count; a worker takes whole [`GEMM_BLOCK`]-row blocks and runs each
/// against every range while the block's A rows are resident in cache.
fn packed_products(
    isa: Isa,
    a: &Matrix,
    w: &PackedWeights,
    parts: &[Range<usize>],
) -> Result<Vec<Matrix>, TensorError> {
    let mut outs: Vec<Matrix> = parts.iter().map(|c| Matrix::zeros(a.rows(), c.len())).collect();
    if w.rows == 0 || parts.is_empty() {
        return Ok(outs);
    }
    // Each block's rows of every output, block after block: a part
    // borrows its block's run, and a worker frees nothing.
    let mut rest: Vec<&mut [f32]> = outs.iter_mut().map(Matrix::as_mut_slice).collect();
    let mut slices = Vec::with_capacity(a.rows().div_ceil(GEMM_BLOCK) * parts.len());
    for row0 in (0..a.rows()).step_by(GEMM_BLOCK) {
        let n = GEMM_BLOCK.min(a.rows() - row0);
        for (rest, c) in rest.iter_mut().zip(parts) {
            let (head, tail) = std::mem::take(rest).split_at_mut(n * c.len());
            *rest = tail;
            slices.push(head);
        }
    }
    let blocks: Vec<_> = slices.chunks_mut(parts.len()).enumerate().collect();
    pool::try_parallel_for_parts("matmul_packed", blocks, |(b, block)| {
        let row0 = b * GEMM_BLOCK;
        let a_rows = &a.as_slice()[row0 * w.rows..][..GEMM_BLOCK.min(a.rows() - row0) * w.rows];
        for (out, c) in block.iter_mut().zip(parts) {
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
/// of 16 lanes are eight of baseline x86-64's 16 vector registers, each
/// product through the exact emulation of a fused multiply-add.
fn gemm_rows_baseline(a: &[f32], w: &PackedWeights, cols: Range<usize>, out: &mut [f32]) {
    gemm_rows_body::<2, 16, false>(a, w, cols, out);
}

/// The GEMM compiled with AVX2 and FMA: the same fused products per lane,
/// eight lanes to a register, four rows of 16 lanes in eight of the 16
/// registers.
#[cfg(target_arch = "x86_64")]
#[target_feature(enable = "avx2,fma")]
fn gemm_rows_avx2(a: &[f32], w: &PackedWeights, cols: Range<usize>, out: &mut [f32]) {
    gemm_rows_body::<4, 16, true>(a, w, cols, out);
}

/// The GEMM compiled with AVX-512F: the same fused products per lane,
/// sixteen lanes to a register, four rows of a whole panel in sixteen of
/// the 32 registers.
#[cfg(target_arch = "x86_64")]
#[target_feature(enable = "avx2,fma,avx512f")]
fn gemm_rows_avx512(a: &[f32], w: &PackedWeights, cols: Range<usize>, out: &mut [f32]) {
    gemm_rows_body::<4, LANES, true>(a, w, cols, out);
}

/// The one body of the GEMM: per [`GEMM_BLOCK`]-row block and `L`-lane
/// slice of a panel, `R x L` register tiles (single rows for what `R` does
/// not divide). `R` and `L` only group independent rows and lanes; they
/// cannot change a bit. `FUSED` as in [`mul_add`].
#[inline(always)]
fn gemm_rows_body<const R: usize, const L: usize, const FUSED: bool>(
    a: &[f32],
    w: &PackedWeights,
    cols: Range<usize>,
    out: &mut [f32],
) {
    const { assert!(LANES.is_multiple_of(L)) };
    let k = w.rows;
    let width = cols.len();
    let data = w.data.as_slice();
    for (a_block, out_block) in a
        .chunks(GEMM_BLOCK * k)
        .zip(out.chunks_mut(GEMM_BLOCK * width))
    {
        // Slice `s` holds the packed columns `s * L..(s + 1) * L`.
        for s in cols.start / L..cols.end.div_ceil(L) {
            let p = s * L / LANES;
            let bt = &data[p * k * LANES..][..k * LANES];
            let offset = s * L - p * LANES;
            // The slice's lanes inside `cols`, and where they land in an
            // output row.
            let lanes = cols.start.max(s * L) - s * L..cols.end.min((s + 1) * L) - s * L;
            let at = s * L + lanes.start - cols.start;
            let mut a_tiles = a_block.chunks_exact(R * k);
            let mut out_tiles = out_block.chunks_exact_mut(R * width);
            for (a_tile, out_tile) in (&mut a_tiles).zip(&mut out_tiles) {
                let acc =
                    tile::<R, L, FUSED>(std::array::from_fn(|r| &a_tile[r * k..][..k]), bt, offset);
                for (out_row, acc_row) in out_tile.chunks_exact_mut(width).zip(&acc) {
                    store(out_row, at, acc_row, lanes.clone());
                }
            }
            for (a_row, out_row) in a_tiles
                .remainder()
                .chunks_exact(k)
                .zip(out_tiles.into_remainder().chunks_exact_mut(width))
            {
                let [acc] = tile::<1, L, FUSED>([a_row], bt, offset);
                store(out_row, at, &acc, lanes.clone());
            }
        }
    }
}

/// Writes the accumulators `lanes` of a tile row to `out_row` from `at`.
#[inline(always)]
fn store<const L: usize>(out_row: &mut [f32], at: usize, acc_row: &[f32; L], lanes: Range<usize>) {
    out_row[at..][..lanes.len()].copy_from_slice(&acc_row[lanes]);
}

/// `R` rows against the lanes `offset..offset + L` of one panel:
/// `acc[r][t] = fma(a[r][kk], bt[kk][t], acc[r][t])` in `kk` order from
/// `0.0`. The panel row's lanes are copied once per `kk` for all `R` rows
/// (read through the slice, each row's FMA took a load of its own), and
/// `kk` walks the panel with `chunks_exact`, so every accumulator stays in
/// a register and the panel side holds no bounds check. One compare per
/// step is left, the `a` rows' (LLVM does not tie `kk` to the chunk
/// count): a fused compare-and-branch that is never taken.
#[inline(always)]
fn tile<const R: usize, const L: usize, const FUSED: bool>(
    a: [&[f32]; R],
    bt: &[f32],
    offset: usize,
) -> [[f32; L]; R] {
    let k = bt.len() / LANES;
    let a = a.map(|row| &row[..k]);
    let mut acc = [[0.0f32; L]; R];
    for (kk, b) in bt.chunks_exact(LANES).enumerate() {
        let mut lanes = [0.0f32; L];
        lanes.copy_from_slice(&b[offset..][..L]);
        for (acc_row, a_row) in acc.iter_mut().zip(&a) {
            let x = a_row[kk];
            for (s, &y) in acc_row.iter_mut().zip(&lanes) {
                *s = mul_add::<FUSED>(x, y, *s);
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
        packed_products(isa, a, w, &[cols]).unwrap().swap_remove(0)
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
        // 4, 5, 8, 9: one and two whole four-row tiles, and a tail; 31,
        // 32, 33: a serving chunk, and one row either side of it.
        for m in [1, 2, 3, 4, 5, 8, 9, 17, 31, 32, 33, 63, 64, 65] {
            for k in [1, 108, 216] {
                // Panel edges at 16 lanes (an AVX2 or baseline slice) and
                // at 64 (a panel), and the gate|up width, seven panels.
                for n in [1, 15, 16, 17, 63, 64, 65, 108, 127, 128, 129, 216, 432] {
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
        let parts: Vec<Matrix> = [15, 17, 64, 1, 16, 100]
            .iter()
            .map(|&n| rng.normal_matrix(k, n, 1.0))
            .collect();
        let refs: Vec<&Matrix> = parts.iter().collect();
        let fused = PackedWeights::pack(&refs).unwrap();
        assert_eq!((fused.rows(), fused.cols()), (k, 213));
        // The parts side by side, unpacked: the oracle for any range.
        let col_part: Vec<(usize, usize)> = parts
            .iter()
            .enumerate()
            .flat_map(|(i, b)| (0..b.cols()).map(move |j| (i, j)))
            .collect();
        let side_by_side = Matrix::from_fn(k, fused.cols(), |kk, c| {
            let (i, j) = col_part[c];
            parts[i].get(kk, j)
        });
        for m in [1, 5, 70] {
            let a = input(&mut rng, m, k);
            let oracle = matmul(&a, &side_by_side).unwrap();
            let want = |cols: &Range<usize>| -> Vec<u32> {
                (0..m)
                    .flat_map(|i| oracle.row(i)[cols.clone()].to_vec())
                    .map(|x| x.to_bits())
                    .collect()
            };
            for isa in Isa::every() {
                for threads in [1, 3] {
                    let at = |cols: Range<usize>| {
                        with_threads(threads, || packed_product(isa, &a, &fused, cols))
                    };
                    let whole = at(0..fused.cols());
                    assert_eq!(bits(&whole), want(&(0..fused.cols())));
                    let mut col0 = 0;
                    for b in &parts {
                        let cols = col0..col0 + b.cols();
                        let alone = at(cols.clone());
                        assert_eq!(
                            bits(&alone),
                            bits(&matmul(&a, b).unwrap()),
                            "part at {cols:?} on {} at {threads} threads",
                            isa.name()
                        );
                        col0 = cols.end;
                    }
                    // Runs that start and end off a 16-lane slice edge, or
                    // inside a 64-lane panel and cross into the next one.
                    for cols in [15..97, 60..70, 100..200, 127..129, 200..213] {
                        assert_eq!(
                            bits(&at(cols.clone())),
                            want(&cols),
                            "run {cols:?} on {} at {threads} threads",
                            isa.name()
                        );
                    }
                    // Several ranges from one pass, an empty one among them,
                    // and every part at once.
                    let every: Vec<Range<usize>> = parts
                        .iter()
                        .scan(0, |col0, b| {
                            *col0 += b.cols();
                            Some(*col0 - b.cols()..*col0)
                        })
                        .collect();
                    for ranges in [
                        vec![15..32, 32..96],
                        vec![96..113, 0..15],
                        vec![0..0, 32..96],
                        vec![60..70, 100..200, 127..129],
                        vec![128..213, 0..64],
                        every,
                    ] {
                        let got = with_threads(threads, || {
                            packed_products(isa, &a, &fused, &ranges).unwrap()
                        });
                        assert_eq!(got.len(), ranges.len());
                        for (got, cols) in got.iter().zip(&ranges) {
                            assert_eq!(bits(got), want(cols), "{cols:?} of {ranges:?} on {}", isa.name());
                        }
                    }
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
            matmul_packed_parts(&a, &w, &[0..4, 4..21]),
            Err(TensorError::IndexOutOfBounds { .. })
        ));
        #[allow(clippy::reversed_empty_ranges)]
        let reversed = 8..4;
        assert!(matmul_packed_parts(&a, &w, &[reversed]).is_err());
        let empty = matmul_packed_parts(&a, &w, &[20..20, 0..0]).unwrap();
        assert_eq!(empty.iter().map(Matrix::shape).collect::<Vec<_>>(), [(3, 0), (3, 0)]);
        assert!(matmul_packed_parts(&a, &w, &[]).unwrap().is_empty());
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
