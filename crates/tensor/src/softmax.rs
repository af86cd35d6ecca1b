use crate::{pool, Isa, Matrix};

/// Numerically stable softmax of a single row, written in place.
///
/// Subtracts the row maximum before exponentiating. An empty slice is a
/// no-op. A row of all `-inf` (fully masked) becomes all zeros rather than
/// NaN, which is the convention the masked attention kernels rely on.
///
/// The normaliser accumulates in f64: for rows of paper-scale length
/// (S ≥ 128k) an f32 running sum loses enough low-order mass to shift the
/// stage-2 coverage threshold. Each weight is still computed and stored
/// as f32.
pub fn softmax_row(row: &mut [f32]) {
    if row.is_empty() {
        return;
    }
    let max = row.iter().copied().fold(f32::NEG_INFINITY, f32::max);
    if max == f32::NEG_INFINITY {
        row.fill(0.0);
        return;
    }
    let mut sum = 0.0f64;
    for v in row.iter_mut() {
        *v = (*v - max).exp();
        sum += f64::from(*v);
    }
    if sum > 0.0 {
        let inv = (1.0 / sum) as f32;
        for v in row.iter_mut() {
            *v *= inv;
        }
    }
}

/// Applies [`softmax_row`] to every row of `m` in place.
///
/// Rows are independent, so they run as chunks on the worker pool with
/// bit-identical results to the serial loop.
pub fn softmax_rows_in_place(m: &mut Matrix) {
    let cols = m.cols();
    if cols == 0 || m.rows() == 0 {
        return;
    }
    pool::parallel_for_rows(
        m.as_mut_slice(),
        cols,
        pool::row_grain(cols),
        |_row0, chunk| {
            for row in chunk.chunks_mut(cols) {
                softmax_row(row);
            }
        },
    );
}

/// Returns a new matrix with row-wise softmax applied.
pub fn softmax_rows(m: &Matrix) -> Matrix {
    let mut out = m.clone();
    softmax_rows_in_place(&mut out);
    out
}

/// Stable `log(sum(exp(x)))` of a slice.
///
/// Returns `-inf` for an empty slice or a slice of all `-inf`. The sum
/// accumulates in f64 so long slices (S ≥ 128k) don't lose low-order
/// mass; the result is still f32.
pub fn log_sum_exp(xs: &[f32]) -> f32 {
    let max = xs.iter().copied().fold(f32::NEG_INFINITY, f32::max);
    if max == f32::NEG_INFINITY {
        return f32::NEG_INFINITY;
    }
    let sum: f64 = xs.iter().map(|&x| f64::from((x - max).exp())).sum();
    (f64::from(max) + sum.ln()) as f32
}

/// Running state for the *online softmax* used by the FlashAttention-style
/// blocked kernels.
///
/// The kernel visits key blocks left to right; for each block it calls
/// [`online_softmax_update`], which rescales the partial output accumulator
/// so that after the final block the accumulator equals the exact softmax-
/// weighted sum.
#[derive(Debug, Clone)]
pub struct OnlineSoftmaxState {
    /// Running row maximum of the raw scores seen so far.
    pub row_max: f32,
    /// Running sum of `exp(score - row_max)` under the current `row_max`.
    pub row_sum: f32,
    /// Partial output accumulator, one value per head dimension.
    pub acc: Vec<f32>,
}

impl OnlineSoftmaxState {
    /// Creates a fresh state for a head dimension of `d`.
    pub fn new(d: usize) -> Self {
        OnlineSoftmaxState {
            row_max: f32::NEG_INFINITY,
            row_sum: 0.0,
            acc: vec![0.0; d],
        }
    }

    /// Finalises the state into the attention output row.
    ///
    /// A row that never saw an unmasked key yields all zeros.
    pub fn finish(mut self) -> Vec<f32> {
        if self.row_sum > 0.0 {
            let inv = 1.0 / self.row_sum;
            for v in &mut self.acc {
                *v *= inv;
            }
        } else {
            self.acc.fill(0.0);
        }
        self.acc
    }
}

/// Folds one block of raw scores and their value rows into the online
/// softmax state.
///
/// `scores[t]` is the raw (pre-softmax) logit for the `t`-th key of the
/// block and `values(t)` returns that key's value row (length `d`); it is
/// called once per key whose score is not `-inf`, in `t` order.
///
/// Runs the widest build of the fold this CPU supports; callers that
/// fold many blocks pick the [`Isa`] once and use
/// [`online_softmax_update_on`].
///
/// # Panics
///
/// Panics if a value row length differs from the state's accumulator
/// length.
pub fn online_softmax_update<'a>(
    state: &mut OnlineSoftmaxState,
    scores: &[f32],
    values: impl FnMut(usize) -> &'a [f32],
) {
    online_softmax_update_on(Isa::detect(), state, scores, values);
}

/// [`online_softmax_update`] on the build `isa` names. Every build
/// leaves the same bits in `state`.
///
/// # Panics
///
/// As [`online_softmax_update`].
#[inline]
pub fn online_softmax_update_on<'a>(
    isa: Isa,
    state: &mut OnlineSoftmaxState,
    scores: &[f32],
    values: impl FnMut(usize) -> &'a [f32],
) {
    match isa.avx2() {
        #[cfg(target_arch = "x86_64")]
        // SAFETY: `Isa::avx2` is true only on a value `Isa::detect` made
        // after `is_x86_feature_detected!("avx2")` said so on this CPU.
        true => unsafe { fold_avx2(state, scores, values) },
        _ => fold_baseline(state, scores, values),
    }
}

/// Keys whose weights and value rows one pass of the fold keeps on the
/// stack (1.25 KB); a longer score block takes several passes.
const FOLD_KEYS: usize = 64;

/// Accumulator columns held in registers across the keys of a pass:
/// eight 4-lane registers on baseline x86-64, four 8-lane ones under
/// AVX2 — either file of sixteen keeps room for the weight and the
/// products beside them.
const FOLD_COLUMNS: usize = 32;

/// The fold compiled for the target's baseline instruction set.
fn fold_baseline<'a>(
    state: &mut OnlineSoftmaxState,
    scores: &[f32],
    values: impl FnMut(usize) -> &'a [f32],
) {
    fold(state, scores, values);
}

/// The fold compiled with AVX2 (and nothing else: no `fma`): the same
/// multiplies and adds per lane, eight lanes to a register.
#[cfg(target_arch = "x86_64")]
#[target_feature(enable = "avx2")]
fn fold_avx2<'a>(
    state: &mut OnlineSoftmaxState,
    scores: &[f32],
    values: impl FnMut(usize) -> &'a [f32],
) {
    fold(state, scores, values);
}

/// The one body of the fold. Weights first: `exp` is a call, and no
/// vector register survives a call, so an accumulator could not stay in
/// registers across keys while the weight was computed between them.
/// With the block's weights on the stack, [`accumulate`] runs call-free.
///
/// Per accumulator lane the arithmetic is: rescale by `correction`, then
/// `+= w[t] * v[t][c]` for `t` ascending over the keys that are not
/// `-inf`; `row_sum` takes the weights in the same `t` order. A `-inf`
/// key is skipped, not given weight zero: `0.0 * inf` is NaN and
/// `-0.0 + 0.0` loses a sign.
#[inline(always)]
fn fold<'a>(
    state: &mut OnlineSoftmaxState,
    scores: &[f32],
    mut values: impl FnMut(usize) -> &'a [f32],
) {
    if scores.is_empty() {
        return;
    }
    let block_max = scores.iter().copied().fold(f32::NEG_INFINITY, f32::max);
    if block_max == f32::NEG_INFINITY {
        return; // fully masked block
    }
    let new_max = state.row_max.max(block_max);
    let correction = if state.row_max == f32::NEG_INFINITY {
        0.0
    } else {
        (state.row_max - new_max).exp()
    };
    state.row_sum *= correction;
    for v in &mut state.acc {
        *v *= correction;
    }
    let mut weights = [0.0f32; FOLD_KEYS];
    let mut rows: [&[f32]; FOLD_KEYS] = [&[]; FOLD_KEYS];
    for (pass, block) in scores.chunks(FOLD_KEYS).enumerate() {
        let mut live = 0;
        for (t, &s) in block.iter().enumerate() {
            if s == f32::NEG_INFINITY {
                continue;
            }
            let w = (s - new_max).exp();
            state.row_sum += w;
            let row = values(pass * FOLD_KEYS + t);
            assert_eq!(row.len(), state.acc.len(), "value row width");
            weights[live] = w;
            rows[live] = row;
            live += 1;
        }
        accumulate(&mut state.acc, &weights[..live], &rows[..live]);
    }
    state.row_max = new_max;
}

/// `acc[c] += weights[j] * rows[j][c]` for `j` ascending, on every
/// column `c`: [`FOLD_COLUMNS`] columns at a time in a local array the
/// compiler keeps in registers over all `j`, then the columns past the
/// last whole chunk key by key in memory. Every row is `acc.len()` wide.
#[inline(always)]
fn accumulate(acc: &mut [f32], weights: &[f32], rows: &[&[f32]]) {
    let mut chunks = acc.chunks_exact_mut(FOLD_COLUMNS);
    let mut c0 = 0;
    for chunk in chunks.by_ref() {
        let mut lanes = [0.0f32; FOLD_COLUMNS];
        lanes.copy_from_slice(chunk);
        for (&w, row) in weights.iter().zip(rows) {
            for (a, &x) in lanes.iter_mut().zip(&row[c0..c0 + FOLD_COLUMNS]) {
                *a += w * x;
            }
        }
        chunk.copy_from_slice(&lanes);
        c0 += FOLD_COLUMNS;
    }
    let tail = chunks.into_remainder();
    if tail.is_empty() {
        return;
    }
    for (&w, row) in weights.iter().zip(rows) {
        for (a, &x) in tail.iter_mut().zip(&row[c0..]) {
            *a += w * x;
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn softmax_row_sums_to_one() {
        let mut r = vec![1.0, 2.0, 3.0];
        softmax_row(&mut r);
        assert!((r.iter().sum::<f32>() - 1.0).abs() < 1e-6);
        assert!(r[2] > r[1] && r[1] > r[0]);
    }

    #[test]
    fn softmax_row_is_shift_invariant() {
        let mut a = vec![1.0, 2.0, 3.0];
        let mut b = vec![1001.0, 1002.0, 1003.0];
        softmax_row(&mut a);
        softmax_row(&mut b);
        for (x, y) in a.iter().zip(&b) {
            assert!((x - y).abs() < 1e-6);
        }
    }

    #[test]
    fn softmax_handles_large_magnitudes() {
        let mut r = vec![1e4, -1e4, 0.0];
        softmax_row(&mut r);
        assert!(r.iter().all(|v| v.is_finite()));
        assert!((r[0] - 1.0).abs() < 1e-6);
    }

    #[test]
    fn softmax_fully_masked_row_is_zero() {
        let mut r = vec![f32::NEG_INFINITY; 4];
        softmax_row(&mut r);
        assert_eq!(r, vec![0.0; 4]);
    }

    #[test]
    fn softmax_empty_row_noop() {
        let mut r: Vec<f32> = vec![];
        softmax_row(&mut r);
        assert!(r.is_empty());
    }

    #[test]
    fn softmax_partially_masked_row() {
        let mut r = vec![0.0, f32::NEG_INFINITY, 0.0];
        softmax_row(&mut r);
        assert!((r[0] - 0.5).abs() < 1e-6);
        assert_eq!(r[1], 0.0);
    }

    #[test]
    fn softmax_rows_matches_per_row() {
        let m = Matrix::from_fn(3, 4, |i, j| (i * j) as f32 * 0.3);
        let out = softmax_rows(&m);
        for i in 0..3 {
            let mut want: Vec<f32> = m.row(i).to_vec();
            softmax_row(&mut want);
            for (g, w) in out.row(i).iter().zip(&want) {
                assert!((g - w).abs() < 1e-7);
            }
        }
    }

    #[test]
    fn softmax_fully_masked_rows_zero_serial_and_parallel() {
        // A tall matrix (many pool chunks) where every third row is fully
        // masked. The masked rows must come back exactly zero — not NaN —
        // on the serial path and on every parallel thread count, with
        // bit-identical results.
        let rows = 64;
        let cols = 16;
        let build = || {
            Matrix::from_fn(rows, cols, |i, j| {
                if i % 3 == 0 {
                    f32::NEG_INFINITY
                } else {
                    ((i * cols + j) as f32 * 0.37).sin()
                }
            })
        };
        let serial = crate::pool::with_threads(1, || {
            let mut m = build();
            // Grain of 1 row forces the chunked path even at small sizes.
            pool::parallel_for_rows(m.as_mut_slice(), cols, 1, |_row0, chunk| {
                for row in chunk.chunks_mut(cols) {
                    softmax_row(row);
                }
            });
            m
        });
        for threads in [2usize, 4] {
            let parallel = crate::pool::with_threads(threads, || {
                let mut m = build();
                pool::parallel_for_rows(m.as_mut_slice(), cols, 1, |_row0, chunk| {
                    for row in chunk.chunks_mut(cols) {
                        softmax_row(row);
                    }
                });
                m
            });
            for (a, b) in serial.as_slice().iter().zip(parallel.as_slice()) {
                assert_eq!(a.to_bits(), b.to_bits(), "threads {threads}");
            }
        }
        for i in 0..rows {
            if i % 3 == 0 {
                assert!(
                    serial.row(i).iter().all(|&x| x == 0.0),
                    "masked row {i} must be all-zero, got {:?}",
                    serial.row(i)
                );
            } else {
                let sum: f32 = serial.row(i).iter().sum();
                assert!((sum - 1.0).abs() < 1e-5, "live row {i} sums to {sum}");
                assert!(serial.row(i).iter().all(|x| x.is_finite()));
            }
        }
        // The public entry point agrees with the forced-chunk runs.
        let mut via_api = build();
        softmax_rows_in_place(&mut via_api);
        for (a, b) in serial.as_slice().iter().zip(via_api.as_slice()) {
            assert_eq!(a.to_bits(), b.to_bits());
        }
    }

    #[test]
    fn log_sum_exp_matches_naive() {
        let xs = [0.1f32, -0.5, 2.0, 1.3];
        let naive = xs.iter().map(|x| x.exp()).sum::<f32>().ln();
        assert!((log_sum_exp(&xs) - naive).abs() < 1e-6);
        assert_eq!(log_sum_exp(&[]), f32::NEG_INFINITY);
    }

    #[test]
    fn online_softmax_matches_exact_single_pass() {
        // One row of attention: scores over 6 keys, values in R^3.
        let scores = [0.5, -1.0, 2.0, 0.0, 1.5, -0.5];
        let values: Vec<Vec<f32>> = (0..6)
            .map(|t| vec![t as f32, (t * t) as f32 * 0.1, 1.0 - t as f32 * 0.2])
            .collect();

        // exact
        let mut p = scores.to_vec();
        softmax_row(&mut p);
        let mut want = vec![0.0; 3];
        for (t, v) in values.iter().enumerate() {
            for (w, x) in want.iter_mut().zip(v) {
                *w += p[t] * x;
            }
        }

        // online, in two blocks of 3
        let mut st = OnlineSoftmaxState::new(3);
        online_softmax_update(&mut st, &scores[0..3], |t| &values[t]);
        online_softmax_update(&mut st, &scores[3..6], |t| &values[3 + t]);
        let got = st.finish();
        for (g, w) in got.iter().zip(&want) {
            assert!((g - w).abs() < 1e-5, "{g} vs {w}");
        }
    }

    #[test]
    fn online_softmax_block_order_invariant() {
        let scores = [3.0, -2.0, 0.7, 1.1];
        let values: Vec<Vec<f32>> = (0..4).map(|t| vec![(t as f32).sin(), 1.0]).collect();
        let run = |order: &[(usize, usize)]| {
            let mut st = OnlineSoftmaxState::new(2);
            for &(a, b) in order {
                online_softmax_update(&mut st, &scores[a..b], |t| &values[a + t]);
            }
            st.finish()
        };
        let x = run(&[(0, 2), (2, 4)]);
        let y = run(&[(0, 1), (1, 4)]);
        for (a, b) in x.iter().zip(&y) {
            assert!((a - b).abs() < 1e-5);
        }
    }

    #[test]
    fn online_softmax_masked_entries_skipped() {
        let scores = [1.0, f32::NEG_INFINITY, 1.0];
        let values = [vec![1.0], vec![100.0], vec![3.0]];
        let mut st = OnlineSoftmaxState::new(1);
        online_softmax_update(&mut st, &scores, |t| &values[t]);
        let out = st.finish();
        assert!((out[0] - 2.0).abs() < 1e-5);
    }

    /// The fold as it stood before the weights-first rewrite, verbatim:
    /// the oracle the dispatched builds are held to bit for bit.
    fn fold_oracle<'a>(
        state: &mut OnlineSoftmaxState,
        scores: &[f32],
        mut values: impl FnMut(usize) -> &'a [f32],
    ) {
        if scores.is_empty() {
            return;
        }
        let block_max = scores.iter().copied().fold(f32::NEG_INFINITY, f32::max);
        if block_max == f32::NEG_INFINITY {
            return; // fully masked block
        }
        let new_max = state.row_max.max(block_max);
        let correction = if state.row_max == f32::NEG_INFINITY {
            0.0
        } else {
            (state.row_max - new_max).exp()
        };
        state.row_sum *= correction;
        for v in &mut state.acc {
            *v *= correction;
        }
        for (t, &s) in scores.iter().enumerate() {
            if s == f32::NEG_INFINITY {
                continue;
            }
            let w = (s - new_max).exp();
            state.row_sum += w;
            let val = values(t);
            debug_assert_eq!(val.len(), state.acc.len());
            for (a, &x) in state.acc.iter_mut().zip(val.iter()) {
                *a += w * x;
            }
        }
        state.row_max = new_max;
    }

    /// Baseline always; the AVX2 build too where the CPU has it.
    fn builds() -> Vec<Isa> {
        let builds = Isa::every();
        if builds.len() == 1 {
            println!("this CPU lacks AVX2: the AVX2 build of the fold is not exercised");
        }
        builds
    }

    fn state_bits(state: &OnlineSoftmaxState) -> (u32, u32, Vec<u32>) {
        (
            state.row_max.to_bits(),
            state.row_sum.to_bits(),
            state.acc.iter().map(|x| x.to_bits()).collect(),
        )
    }

    /// Folds `blocks` (scores, one value row per score) in order on every
    /// build and on the oracle, comparing the whole state after each.
    fn assert_fold_matches_oracle(label: &str, dv: usize, blocks: &[(Vec<f32>, Vec<Vec<f32>>)]) {
        for isa in builds() {
            let mut got = OnlineSoftmaxState::new(dv);
            let mut want = OnlineSoftmaxState::new(dv);
            for (b, (scores, values)) in blocks.iter().enumerate() {
                online_softmax_update_on(isa, &mut got, scores, |t| &values[t]);
                fold_oracle(&mut want, scores, |t| &values[t]);
                assert_eq!(
                    state_bits(&got),
                    state_bits(&want),
                    "{label}: dv={dv} block {b} on {}",
                    isa.name()
                );
            }
        }
    }

    fn random_block(
        rng: &mut crate::DeterministicRng,
        len: usize,
        dv: usize,
    ) -> (Vec<f32>, Vec<Vec<f32>>) {
        let scores = rng.normal_matrix(1, len, 2.0).row(0).to_vec();
        let values = rng.normal_matrix(len, dv, 1.0);
        (scores, (0..len).map(|t| values.row(t).to_vec()).collect())
    }

    #[test]
    fn fold_is_bitwise_the_old_loop_at_every_width_and_block_length() {
        let mut rng = crate::DeterministicRng::new(0xF01D);
        for dv in [1usize, 8, 31, 32, 33, 64, 65, 128] {
            // One state through blocks of every length: the first block
            // starts from `row_max = -inf`, the later ones rescale, and
            // 200 is longer than the weight buffer.
            let blocks: Vec<_> = [1usize, 63, 64, 65, 200, 1]
                .iter()
                .map(|&len| random_block(&mut rng, len, dv))
                .collect();
            assert_fold_matches_oracle("lengths", dv, &blocks);
            // Each length as a first block of its own.
            for block in blocks {
                assert_fold_matches_oracle("first block", dv, &[block]);
            }
        }
    }

    #[test]
    fn fold_skips_masked_lanes_and_masked_blocks() {
        let mut rng = crate::DeterministicRng::new(0xF02D);
        for dv in [1usize, 31, 64, 65] {
            let mut blocks = Vec::new();
            for len in [1usize, 63, 65, 200] {
                let (mut scores, values) = random_block(&mut rng, len, dv);
                for s in scores.iter_mut().step_by(3) {
                    *s = f32::NEG_INFINITY;
                }
                blocks.push((scores, values));
                // A fully masked block between live ones changes nothing.
                let (scores, values) = random_block(&mut rng, 64, dv);
                blocks.push((vec![f32::NEG_INFINITY; scores.len()], values));
            }
            assert_fold_matches_oracle("masked lanes", dv, &blocks);
            // A state whose first block is fully masked stays fresh.
            blocks.rotate_left(1);
            assert_fold_matches_oracle("masked first block", dv, &blocks);
        }
    }

    #[test]
    fn fold_skips_rather_than_zero_weights_masked_keys() {
        // Folding a masked key with weight zero instead of skipping it
        // would poison the row through `0.0 * inf` where its value row
        // holds an infinity, and turn a `-0.0` column into `+0.0`
        // (`-0.0 + 0.0 * x`). The state starts on `-0.0` columns and
        // must stay there.
        for dv in [1usize, 33, 64] {
            let values = [
                vec![-0.0f32; dv],
                vec![f32::INFINITY; dv],
                vec![-0.0f32; dv],
                vec![1.0f32; dv],
            ];
            let scores = [0.25, f32::NEG_INFINITY, -1.5, f32::NEG_INFINITY];
            let start = OnlineSoftmaxState {
                row_max: 0.0,
                row_sum: 1.0,
                acc: vec![-0.0; dv],
            };
            let mut want = start.clone();
            fold_oracle(&mut want, &scores, |t| &values[t]);
            fold_oracle(&mut want, &scores, |t| &values[t]);
            assert!(want.acc.iter().all(|a| a.to_bits() == (-0.0f32).to_bits()));
            for isa in builds() {
                let mut got = start.clone();
                online_softmax_update_on(isa, &mut got, &scores, |t| &values[t]);
                online_softmax_update_on(isa, &mut got, &scores, |t| &values[t]);
                assert_eq!(
                    state_bits(&got),
                    state_bits(&want),
                    "dv={dv} on {}",
                    isa.name()
                );
            }
            // Live keys with infinite values go through as they always did.
            let live_inf = [
                (
                    vec![0.5, 0.75],
                    vec![vec![f32::INFINITY; dv], vec![1.0; dv]],
                ),
                (vec![2.0], vec![vec![f32::NEG_INFINITY; dv]]),
            ];
            assert_fold_matches_oracle("live infinities", dv, &live_inf);
        }
    }

    #[test]
    #[should_panic(expected = "value row width")]
    fn fold_rejects_a_value_row_of_the_wrong_width() {
        let mut state = OnlineSoftmaxState::new(4);
        online_softmax_update(&mut state, &[0.0], |_| &[1.0, 2.0]);
    }

    #[test]
    fn online_softmax_all_masked_yields_zero() {
        let mut st = OnlineSoftmaxState::new(2);
        online_softmax_update(&mut st, &[f32::NEG_INFINITY; 3], |_| &[0.0, 0.0]);
        assert_eq!(st.finish(), vec![0.0, 0.0]);
    }
}
