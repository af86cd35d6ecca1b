use crate::exp::exp;
use crate::fma::mul_add;
use crate::{pool, Isa, IsaBuild, Matrix};

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
///
/// Runs the widest build this CPU supports; callers that normalise many rows
/// pick the [`Isa`] once and use [`softmax_rows_on`].
pub fn softmax_row(row: &mut [f32]) {
    softmax_rows_on(Isa::detect(), &mut [row]);
}

/// Rows whose f64 normalisers [`softmax_rows_on`] advances together.
const SOFTMAX_GROUP: usize = 8;

/// [`softmax_row`] on each of `rows`, on the build `isa` names. Every row
/// ends in the bits `softmax_row` leaves, on every build: the maximum,
/// exponent and scale passes are element-wise, and each row's normaliser
/// adds its weights in index order from `0.0`. What taking rows together
/// buys is the normaliser's latency: the sums of eight rows advance side
/// by side over the indices they share, so an add no longer waits on the
/// one before it (rows past the last whole eight go one at a time).
#[inline]
pub fn softmax_rows_on(isa: Isa, rows: &mut [&mut [f32]]) {
    match isa.build() {
        #[cfg(target_arch = "x86_64")]
        // SAFETY: an `Isa` names AVX-512 only when `Isa::detect` found
        // `avx2`, `fma` and `avx512f` on this CPU.
        IsaBuild::Avx512 => unsafe { softmax_rows_avx512(rows) },
        #[cfg(target_arch = "x86_64")]
        // SAFETY: an `Isa` names AVX2 only when `Isa::detect` found `avx2`
        // and `fma` on this CPU.
        IsaBuild::Avx2 => unsafe { softmax_rows_avx2(rows) },
        _ => softmax_lanes(rows),
    }
}

/// The row softmax compiled with AVX2 and FMA (it has no product to
/// fuse, and Rust contracts none).
#[cfg(target_arch = "x86_64")]
#[target_feature(enable = "avx2,fma")]
fn softmax_rows_avx2(rows: &mut [&mut [f32]]) {
    softmax_lanes(rows);
}

/// The row softmax compiled with AVX-512F.
#[cfg(target_arch = "x86_64")]
#[target_feature(enable = "avx2,fma,avx512f")]
fn softmax_rows_avx512(rows: &mut [&mut [f32]]) {
    softmax_lanes(rows);
}

/// The one body of the row softmax: whole groups of [`SOFTMAX_GROUP`]
/// rows, then the rest one at a time.
#[inline(always)]
fn softmax_lanes(rows: &mut [&mut [f32]]) {
    let mut groups = rows.chunks_exact_mut(SOFTMAX_GROUP);
    for group in &mut groups {
        softmax_group::<SOFTMAX_GROUP>(group);
    }
    for row in groups.into_remainder() {
        softmax_group::<1>(std::slice::from_mut(row));
    }
}

/// The softmax of `N` rows (`group.len() == N`), their normalisers side
/// by side: a constant number of sums stays in registers.
#[inline(always)]
fn softmax_group<const N: usize>(group: &mut [&mut [f32]]) {
    // The exponent pass on its own, so that it vectorises; a row that is
    // empty or fully masked is done here.
    let mut live = [false; N];
    for (row, live) in group.iter_mut().zip(&mut live) {
        let max = lane_max(row);
        if max == f32::NEG_INFINITY {
            row.fill(0.0);
            continue;
        }
        for v in row.iter_mut() {
            *v = exp(*v - max);
        }
        *live = true;
    }
    // The normalisers, each in index order: interleaved over the prefix
    // every row of the group has (a finished row's zeros go to a sum
    // nobody reads), then each row's tail alone.
    let mut sums = [0.0f64; N];
    let common = group.iter().map(|row| row.len()).min().unwrap_or(0);
    let mut heads: [&[f32]; N] = [&[]; N];
    for (head, row) in heads.iter_mut().zip(group.iter()) {
        *head = &row[..common];
    }
    for j in 0..common {
        for (sum, head) in sums.iter_mut().zip(&heads) {
            *sum += f64::from(head[j]);
        }
    }
    for (sum, row) in sums.iter_mut().zip(group.iter()) {
        for &v in &row[common..] {
            *sum += f64::from(v);
        }
    }
    for ((row, &sum), &live) in group.iter_mut().zip(&sums).zip(&live) {
        if live && sum > 0.0 {
            let inv = (1.0 / sum) as f32;
            for v in row.iter_mut() {
                *v *= inv;
            }
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
    let isa = Isa::detect();
    // Whole groups of rows per chunk, so that the normalisers interleave.
    let grain = pool::row_grain(cols).div_ceil(SOFTMAX_GROUP) * SOFTMAX_GROUP;
    pool::parallel_for_rows(m.as_mut_slice(), cols, grain, |_row0, chunk| {
        let mut rows: Vec<&mut [f32]> = chunk.chunks_mut(cols).collect();
        softmax_rows_on(isa, &mut rows);
    });
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
    let max = lane_max(xs);
    if max == f32::NEG_INFINITY {
        return f32::NEG_INFINITY;
    }
    let sum: f64 = xs.iter().map(|&x| f64::from(exp(x - max))).sum();
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

/// Keys per fold block, and lanes per row of a score tile: the longest
/// run of keys that shares one running maximum. The weights of one block
/// are a 64-float row on the stack.
pub const FOLD_KEYS: usize = 64;

/// Lane partials of a block's maximum and of its weight sum: position
/// `t` of the block goes to lane `t % FOLD_LANES`. A constant of the
/// fold's definition, not of the instruction set — eight lanes are half
/// an AVX-512 register, one AVX2 register or two baseline ones, and every
/// build adds the same floats in the same order.
const FOLD_LANES: usize = 8;

/// Accumulator columns one row holds in registers across the keys of a
/// block, per build: eight 4-lane registers on baseline x86-64, four
/// 8-lane ones under AVX2, four 16-lane ones under AVX-512. Columns are
/// independent, so the chunking never shows in the bits.
const FOLD_COLUMNS_BASELINE: usize = 32;
const FOLD_COLUMNS_AVX2: usize = 32;
const FOLD_COLUMNS_AVX512: usize = 64;

/// Columns each row of a pair holds when two rows accumulate together,
/// per build: eight accumulator registers every time, which leaves room
/// for the value loads both rows share and the two weights.
const PAIR_COLUMNS_BASELINE: usize = 16;
const PAIR_COLUMNS_AVX2: usize = 32;
const PAIR_COLUMNS_AVX512: usize = 64;

/// Columns each row of a quad holds when four rows accumulate together,
/// per build: eight accumulator registers on baseline x86-64 and under
/// AVX2, sixteen of AVX-512's 32 — each value load feeds four rows, and
/// no accumulator waits on the one before it.
const QUAD_COLUMNS_BASELINE: usize = 8;
const QUAD_COLUMNS_AVX2: usize = 16;
const QUAD_COLUMNS_AVX512: usize = 64;

/// Folds one block of raw scores and their value rows into the online
/// softmax state.
///
/// `scores[t]` is the raw (pre-softmax) logit for the `t`-th key of the
/// block and `values(t)` returns that key's value row (length `d`); it is
/// called once per key whose score is not `-inf`, in `t` order. A block
/// longer than [`FOLD_KEYS`] is folded as consecutive blocks of
/// `FOLD_KEYS` keys.
///
/// # The fold
///
/// For a block of at most `FOLD_KEYS` scores `s` — this is the
/// definition every build, the tile fold
/// ([`online_softmax_update_tile_on`]) and the differential tests'
/// scalar statement share:
///
/// 1. `block_max`: lane `l` takes the maximum of `s[t]`, `t % 8 == l`,
///    by `x > m` selects starting from `-inf` (a NaN never wins); the
///    lanes combine as `((0,1),(2,3)),((4,5),(6,7))` with the same
///    select. A block whose maximum is `-inf` (empty, or fully masked)
///    leaves the state untouched.
/// 2. `new_max = block_max > row_max ? block_max : row_max`;
///    `correction = exp(row_max − new_max)`, or `0.0` while `row_max` is
///    still `-inf`; `acc[c] *= correction`.
/// 3. `w[t] = exp(s[t] − new_max)` for every `t` ([`exp`](crate::exp()), so
///    a `-inf` key weighs exactly `+0.0`).
/// 4. `block_sum`: lane `l` adds `w[t]`, `t % 8 == l`, in `t` order from
///    `0.0`; the lanes combine in the same pairwise tree;
///    `row_sum = row_sum · correction + block_sum`.
/// 5. `acc[c] = fma(w[t], v[t][c], acc[c])` — one fused multiply-add,
///    rounded once ([`fma`](crate::fma())) — for `t` ascending over the
///    keys that are not `-inf`. Such a key is skipped, not given its zero
///    weight: `0.0 · inf` is NaN and `-0.0 + 0.0` loses a sign.
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
    match isa.build() {
        #[cfg(target_arch = "x86_64")]
        // SAFETY: an `Isa` names AVX-512 only when `Isa::detect` found
        // `avx2`, `fma` and `avx512f` on this CPU.
        IsaBuild::Avx512 => unsafe { fold_avx512(state, scores, values) },
        #[cfg(target_arch = "x86_64")]
        // SAFETY: an `Isa` names AVX2 only when `Isa::detect` found `avx2`
        // and `fma` on this CPU.
        IsaBuild::Avx2 => unsafe { fold_avx2(state, scores, values) },
        _ => fold_baseline(state, scores, values),
    }
}

/// Folds a whole score tile: row `r` of `score_tile` ([`FOLD_KEYS`]
/// lanes a row) holds the scores of `states[r]` against the tile's keys,
/// of which the lanes `live[r] = [lo, hi)` are one fold block (an empty
/// range folds nothing); `v_slab` is the tile's value rows, key `t` at
/// `v_slab[t * d..(t + 1) * d]`.
///
/// Each row ends in exactly the bits
/// `online_softmax_update_on(isa, &mut states[r], &row[lo..hi], |t| value row lo + t)`
/// leaves: both run steps 1–4 of [the fold](online_softmax_update)
/// through the same code, and step 5 adds the same products in the same
/// `t` order per column. What the tile buys is how step 5 runs: value
/// rows come from one contiguous slice instead of a call per key, and
/// neighbouring rows with no `-inf` key accumulate together, each value
/// load feeding all of them — four rows over the keys their ranges
/// share, two rows that share a whole range.
///
/// # Panics
///
/// Panics if the shapes disagree: `score_tile` and `live` must hold one
/// row per state, the states must share one accumulator width `d`,
/// `v_slab` must be a whole number of at most `FOLD_KEYS` rows of `d`,
/// and every range must end inside them.
pub fn online_softmax_update_tile_on(
    isa: Isa,
    states: &mut [OnlineSoftmaxState],
    score_tile: &[f32],
    live: &[(usize, usize)],
    v_slab: &[f32],
) {
    let Some(first) = states.first() else {
        return;
    };
    let d = first.acc.len();
    let slab_keys = v_slab.len().checked_div(d).unwrap_or(0);
    assert!(
        score_tile.len() == states.len() * FOLD_KEYS
            && live.len() == states.len()
            && states.iter().all(|state| state.acc.len() == d)
            && slab_keys <= FOLD_KEYS
            && slab_keys * d == v_slab.len()
            && live.iter().all(|&(lo, hi)| lo <= hi && hi <= slab_keys),
        "fold tile shape: {} states of width {d}, {} scores, {} ranges, {} value floats",
        states.len(),
        score_tile.len(),
        live.len(),
        v_slab.len()
    );
    match isa.build() {
        #[cfg(target_arch = "x86_64")]
        // SAFETY: an `Isa` names AVX-512 only when `Isa::detect` found
        // `avx2`, `fma` and `avx512f` on this CPU.
        IsaBuild::Avx512 => unsafe { fold_tile_avx512(states, score_tile, live, v_slab) },
        #[cfg(target_arch = "x86_64")]
        // SAFETY: an `Isa` names AVX2 only when `Isa::detect` found `avx2`
        // and `fma` on this CPU.
        IsaBuild::Avx2 => unsafe { fold_tile_avx2(states, score_tile, live, v_slab) },
        _ => fold_tile_baseline(states, score_tile, live, v_slab),
    }
}

/// The row fold compiled for the target's baseline instruction set, step
/// 5 through the exact emulation of a fused multiply-add.
fn fold_baseline<'a>(
    state: &mut OnlineSoftmaxState,
    scores: &[f32],
    values: impl FnMut(usize) -> &'a [f32],
) {
    fold::<FOLD_COLUMNS_BASELINE, false>(state, scores, values);
}

/// The row fold compiled with AVX2 and FMA: the same fused products per
/// lane, eight lanes to a register.
#[cfg(target_arch = "x86_64")]
#[target_feature(enable = "avx2,fma")]
fn fold_avx2<'a>(
    state: &mut OnlineSoftmaxState,
    scores: &[f32],
    values: impl FnMut(usize) -> &'a [f32],
) {
    fold::<FOLD_COLUMNS_AVX2, true>(state, scores, values);
}

/// The row fold compiled with AVX-512F: the same fused products per lane,
/// sixteen lanes to a register.
#[cfg(target_arch = "x86_64")]
#[target_feature(enable = "avx2,fma,avx512f")]
fn fold_avx512<'a>(
    state: &mut OnlineSoftmaxState,
    scores: &[f32],
    values: impl FnMut(usize) -> &'a [f32],
) {
    fold::<FOLD_COLUMNS_AVX512, true>(state, scores, values);
}

/// The tile fold compiled for the target's baseline instruction set.
fn fold_tile_baseline(
    states: &mut [OnlineSoftmaxState],
    score_tile: &[f32],
    live: &[(usize, usize)],
    v_slab: &[f32],
) {
    fold_tile::<QUAD_COLUMNS_BASELINE, PAIR_COLUMNS_BASELINE, FOLD_COLUMNS_BASELINE, false>(
        states, score_tile, live, v_slab,
    );
}

/// The tile fold compiled with AVX2 and FMA.
#[cfg(target_arch = "x86_64")]
#[target_feature(enable = "avx2,fma")]
fn fold_tile_avx2(
    states: &mut [OnlineSoftmaxState],
    score_tile: &[f32],
    live: &[(usize, usize)],
    v_slab: &[f32],
) {
    fold_tile::<QUAD_COLUMNS_AVX2, PAIR_COLUMNS_AVX2, FOLD_COLUMNS_AVX2, true>(
        states, score_tile, live, v_slab,
    );
}

/// The tile fold compiled with AVX-512F.
#[cfg(target_arch = "x86_64")]
#[target_feature(enable = "avx2,fma,avx512f")]
fn fold_tile_avx512(
    states: &mut [OnlineSoftmaxState],
    score_tile: &[f32],
    live: &[(usize, usize)],
    v_slab: &[f32],
) {
    fold_tile::<QUAD_COLUMNS_AVX512, PAIR_COLUMNS_AVX512, FOLD_COLUMNS_AVX512, true>(
        states, score_tile, live, v_slab,
    );
}

/// `b` if it is greater, else `a`: the select every step of the block
/// maximum uses, so the winner between `+0.0` and `-0.0` is defined too.
#[inline(always)]
fn greater(a: f32, b: f32) -> f32 {
    if b > a {
        b
    } else {
        a
    }
}

/// `op` folded over `xs` in lane partials from `init`: position `t`
/// updates lane `t % FOLD_LANES`, positions ascending, and the lanes
/// combine in the fold's one pairwise tree.
#[inline(always)]
fn lane_fold(xs: &[f32], init: f32, op: impl Fn(f32, f32) -> f32) -> f32 {
    let mut lanes = [init; FOLD_LANES];
    let mut chunks = xs.chunks_exact(FOLD_LANES);
    for chunk in chunks.by_ref() {
        for (lane, &x) in lanes.iter_mut().zip(chunk) {
            *lane = op(*lane, x);
        }
    }
    for (lane, &x) in lanes.iter_mut().zip(chunks.remainder()) {
        *lane = op(*lane, x);
    }
    let [a, b, c, d, e, f, g, h] = lanes;
    op(op(op(a, b), op(c, d)), op(op(e, f), op(g, h)))
}

/// The maximum of `xs`, ignoring NaN; `-inf` for an empty slice. A
/// maximum is exact in any order, so the lanes only make it vectorise
/// (and fix which zero wins).
#[inline(always)]
fn lane_max(xs: &[f32]) -> f32 {
    lane_fold(xs, f32::NEG_INFINITY, greater)
}

/// Steps 1–4 of [the fold](online_softmax_update) for `N` rows, each one
/// block of at most [`FOLD_KEYS`] scores (`blocks[r]` for `states[r]`),
/// shared by the row fold and the tile fold: rescales each state to its
/// new maximum, adds its block's weight sum and leaves `w[t]` in
/// `weights[r][t]`. Returns per row `None`, with the state untouched,
/// for an empty or fully masked block; otherwise whether any key is
/// `-inf` and has to be skipped by step 5.
///
/// The rows go phase by phase — every maximum, every correction, every
/// row's weights, then every rescale and sum — so the serial chains of
/// neighbouring rows overlap; each row's arithmetic is its own, in its
/// own order. (Four rows one after another through every step folded a
/// diagonal or window-start tile 20–30 % slower.)
#[inline(always)]
fn prepare<const N: usize>(
    states: &mut [OnlineSoftmaxState],
    blocks: [&[f32]; N],
    weights: &mut [[f32; FOLD_KEYS]],
) -> [Option<bool>; N] {
    let mut block_max = [f32::NEG_INFINITY; N];
    for (max, block) in block_max.iter_mut().zip(blocks) {
        *max = lane_max(block);
    }
    let mut new_max = [0.0f32; N];
    let mut correction = [0.0f32; N];
    for (r, state) in states.iter().enumerate() {
        new_max[r] = greater(state.row_max, block_max[r]);
        correction[r] = if state.row_max == f32::NEG_INFINITY {
            0.0
        } else {
            exp(state.row_max - new_max[r])
        };
    }
    let mut holes = [false; N];
    for (r, (weights, scores)) in weights.iter_mut().zip(blocks).enumerate() {
        if block_max[r] == f32::NEG_INFINITY {
            continue;
        }
        for (w, &s) in weights.iter_mut().zip(scores) {
            *w = exp(s - new_max[r]);
            holes[r] |= s == f32::NEG_INFINITY;
        }
    }
    let mut prepared = [None; N];
    for (r, (state, weights)) in states.iter_mut().zip(weights.iter()).enumerate() {
        if block_max[r] == f32::NEG_INFINITY {
            continue;
        }
        for v in &mut state.acc {
            *v *= correction[r];
        }
        let block_sum = lane_fold(&weights[..blocks[r].len()], 0.0, |a, b| a + b);
        state.row_sum = state.row_sum * correction[r] + block_sum;
        state.row_max = new_max[r];
        prepared[r] = Some(holes[r]);
    }
    prepared
}

/// The one body of the row fold: [`prepare`] each block, then step 5
/// over the value rows the caller's closure hands out, `COLUMNS` columns
/// at a time; `FUSED` as in [`mul_add`].
#[inline(always)]
fn fold<'a, const COLUMNS: usize, const FUSED: bool>(
    state: &mut OnlineSoftmaxState,
    scores: &[f32],
    mut values: impl FnMut(usize) -> &'a [f32],
) {
    let mut weights = [[0.0f32; FOLD_KEYS]];
    for (pass, block) in scores.chunks(FOLD_KEYS).enumerate() {
        if let [Some(_)] = prepare(std::slice::from_mut(state), [block], &mut weights) {
            let mut rows: [&[f32]; FOLD_KEYS] = [&[]; FOLD_KEYS];
            for (t, (row, &s)) in rows.iter_mut().zip(block).enumerate() {
                if s != f32::NEG_INFINITY {
                    *row = values(pass * FOLD_KEYS + t);
                }
            }
            accumulate_live::<COLUMNS, FUSED>(state, block, &mut weights[0], rows);
        }
    }
}

/// Step 5 for one row of a block [`prepare`] has weighed: collects the
/// value row (`values.row(t)` for key `t`) and weight of every key that
/// is not `-inf`, in order, and accumulates them.
#[inline(always)]
fn accumulate_live<'v, const COLUMNS: usize, const FUSED: bool>(
    state: &mut OnlineSoftmaxState,
    scores: &[f32],
    weights: &mut [f32; FOLD_KEYS],
    values: impl ValueRows<'v>,
) {
    let mut rows: [&[f32]; FOLD_KEYS] = [&[]; FOLD_KEYS];
    let mut live = 0;
    for (t, &s) in scores.iter().enumerate() {
        if s == f32::NEG_INFINITY {
            continue;
        }
        let row = values.row(t);
        assert_eq!(row.len(), state.acc.len(), "value row width");
        weights[live] = weights[t];
        rows[live] = row;
        live += 1;
    }
    accumulate::<1, COLUMNS, FUSED>([&mut state.acc], [weights], live, rows);
}

/// The one body of the tile fold: rows four at a time, each through
/// [`prepare`]. Four rows with no `-inf` key whose ranges overlap run
/// step 5 together over the keys all four see ([`fold_quad`]); any other
/// four go as two pairs, as do the 1–3 rows past the last whole four
/// ([`fold_pair`]).
#[inline(always)]
fn fold_tile<
    const QUAD_COLUMNS: usize,
    const PAIR_COLUMNS: usize,
    const COLUMNS: usize,
    const FUSED: bool,
>(
    states: &mut [OnlineSoftmaxState],
    score_tile: &[f32],
    live: &[(usize, usize)],
    v_slab: &[f32],
) {
    let quads = states.len() - states.len() % 4;
    let (quad_states, rest_states) = states.split_at_mut(quads);
    let (quad_scores, rest_scores) = score_tile.split_at(quads * FOLD_KEYS);
    let (quad_ranges, rest_ranges) = live.split_at(quads);
    let mut weights = [[0.0f32; FOLD_KEYS]; 4];
    for ((quad, scores), ranges) in quad_states
        .chunks_exact_mut(4)
        .zip(quad_scores.chunks_exact(4 * FOLD_KEYS))
        .zip(quad_ranges.chunks_exact(4))
    {
        let mut blocks: [&[f32]; 4] = [&[]; 4];
        for (r, (block, &(lo, hi))) in blocks.iter_mut().zip(ranges).enumerate() {
            *block = &scores[r * FOLD_KEYS..][lo..hi];
        }
        let holes = prepare::<4>(quad, blocks, &mut weights);
        let shared_lo = ranges.iter().map(|&(lo, _)| lo).max().unwrap_or(0);
        let shared_hi = ranges.iter().map(|&(_, hi)| hi).min().unwrap_or(0);
        if holes == [Some(false); 4] && shared_lo < shared_hi {
            fold_quad::<QUAD_COLUMNS, COLUMNS, FUSED>(
                quad,
                &weights,
                ranges,
                (shared_lo, shared_hi),
                v_slab,
            );
            continue;
        }
        for (((pair, scores), ranges), (weights, holes)) in quad
            .chunks_mut(2)
            .zip(scores.chunks(2 * FOLD_KEYS))
            .zip(ranges.chunks(2))
            .zip(weights.chunks_mut(2).zip(holes.chunks(2)))
        {
            fold_pair::<PAIR_COLUMNS, COLUMNS, FUSED>(pair, scores, ranges, weights, holes, v_slab);
        }
    }
    for ((pair, scores), ranges) in rest_states
        .chunks_mut(2)
        .zip(rest_scores.chunks(2 * FOLD_KEYS))
        .zip(rest_ranges.chunks(2))
    {
        let mut holes = [None; 2];
        for (r, (state, &(lo, hi))) in pair.iter_mut().zip(ranges).enumerate() {
            let block = &scores[r * FOLD_KEYS..][lo..hi];
            [holes[r]] = prepare(std::slice::from_mut(state), [block], &mut weights[r..]);
        }
        fold_pair::<PAIR_COLUMNS, COLUMNS, FUSED>(
            pair,
            scores,
            ranges,
            &mut weights[..2],
            &holes,
            v_slab,
        );
    }
}

/// Step 5 for four rows without a `-inf` key whose ranges all hold the
/// keys `[lo, hi)`: each row first folds the keys of its range below
/// `lo` on its own, over `COLUMNS`-column chunks; then the four fold
/// `[lo, hi)` together over `QUAD_COLUMNS`-column ones, each value load
/// feeding all four; then each row its keys from `hi` on alone. Every row
/// still adds its keys in ascending `t`. `weights[r][t - lo_r]` weighs
/// key `t` of row `r`, whose range is `ranges[r] = [lo_r, hi_r)`.
#[inline(always)]
fn fold_quad<const QUAD_COLUMNS: usize, const COLUMNS: usize, const FUSED: bool>(
    quad: &mut [OnlineSoftmaxState],
    weights: &[[f32; FOLD_KEYS]; 4],
    ranges: &[(usize, usize)],
    (lo, hi): (usize, usize),
    v_slab: &[f32],
) {
    let d = quad[0].acc.len();
    for ((state, w), &(row_lo, _)) in quad.iter_mut().zip(weights).zip(ranges) {
        if row_lo < lo {
            let values = &v_slab[row_lo * d..lo * d];
            let rows = Slab { values, width: d };
            accumulate::<1, COLUMNS, FUSED>([&mut state.acc], [w], lo - row_lo, rows);
        }
    }
    if let [a, b, c, e] = quad {
        let values = &v_slab[lo * d..hi * d];
        let mut shared: [&[f32]; 4] = [&[]; 4];
        for ((shared, w), &(row_lo, _)) in shared.iter_mut().zip(weights).zip(ranges) {
            *shared = &w[lo - row_lo..];
        }
        accumulate::<4, QUAD_COLUMNS, FUSED>(
            [&mut a.acc, &mut b.acc, &mut c.acc, &mut e.acc],
            shared,
            hi - lo,
            Slab { values, width: d },
        );
    }
    for ((state, w), &(row_lo, row_hi)) in quad.iter_mut().zip(weights).zip(ranges) {
        if hi < row_hi {
            let values = &v_slab[hi * d..row_hi * d];
            accumulate::<1, COLUMNS, FUSED>(
                [&mut state.acc],
                [&w[hi - row_lo..]],
                row_hi - hi,
                Slab { values, width: d },
            );
        }
    }
}

/// Step 5 for one or two rows [`prepare`] has weighed (`holes` as it
/// returned for each): a pair that shares its range and has no `-inf` key
/// runs together over `PAIR_COLUMNS`-column chunks, any other row on its
/// own over `COLUMNS`-column ones, as the row fold would.
#[inline(always)]
fn fold_pair<const PAIR_COLUMNS: usize, const COLUMNS: usize, const FUSED: bool>(
    pair: &mut [OnlineSoftmaxState],
    scores: &[f32],
    ranges: &[(usize, usize)],
    weights: &mut [[f32; FOLD_KEYS]],
    holes: &[Option<bool>],
    v_slab: &[f32],
) {
    let d = pair[0].acc.len();
    if let ([a, b], [Some(false), Some(false)]) = (&mut *pair, holes) {
        if ranges[0] == ranges[1] {
            let (lo, hi) = ranges[0];
            let values = &v_slab[lo * d..hi * d];
            accumulate::<2, PAIR_COLUMNS, FUSED>(
                [&mut a.acc, &mut b.acc],
                [&weights[0], &weights[1]],
                hi - lo,
                Slab { values, width: d },
            );
            return;
        }
    }
    for (r, (state, &(lo, hi))) in pair.iter_mut().zip(ranges).enumerate() {
        let rows = Slab { values: &v_slab[lo * d..hi * d], width: d };
        match holes[r] {
            None => {}
            Some(false) => {
                accumulate::<1, COLUMNS, FUSED>([&mut state.acc], [&weights[r]], hi - lo, rows)
            }
            Some(true) => {
                let row = &scores[r * FOLD_KEYS..][lo..hi];
                accumulate_live::<COLUMNS, FUSED>(state, row, &mut weights[r], rows);
            }
        }
    }
}

/// Where step 5 reads key `j`'s value row. The method is
/// `#[inline(always)]`: a closure in its place can be compiled out of
/// line, for the baseline ISA, and called once per key from a wide build
/// (`fold_pair`'s was, in both).
trait ValueRows<'v> {
    fn row(&self, j: usize) -> &'v [f32];
}

/// Value rows of `width` values one after another.
#[derive(Clone, Copy)]
struct Slab<'v> {
    values: &'v [f32],
    width: usize,
}

impl<'v> ValueRows<'v> for Slab<'v> {
    #[inline(always)]
    fn row(&self, j: usize) -> &'v [f32] {
        &self.values[j * self.width..(j + 1) * self.width]
    }
}

/// Rows gathered one by one (the row fold's, from its caller): key `j`'s
/// is `self[j]`.
impl<'v> ValueRows<'v> for [&'v [f32]; FOLD_KEYS] {
    #[inline(always)]
    fn row(&self, j: usize) -> &'v [f32] {
        self[j]
    }
}

/// Step 5 for `R` rows that fold the same keys:
/// `acc[r][c] = fma(weights[r][j], rows.row(j)[c], acc[r][c])` for `j` ascending below
/// `keys`, on every column `c` — `COLUMNS` columns at a time in
/// local arrays the compiler keeps in registers over all `j` (each load
/// of a value row feeds all `R` rows). What is left past the last whole
/// chunk goes the same way in one chunk each of 32, 16 and 8 columns
/// that fits and is narrower than `COLUMNS` — a 32-column value row keeps
/// its accumulators in registers under a 64-column build too — and the
/// last 1–7 columns key by key in memory. Every row is `acc[r].len()`
/// wide, and every `weights[r]` holds at least `keys` weights.
#[inline(always)]
fn accumulate<'v, const R: usize, const COLUMNS: usize, const FUSED: bool>(
    mut acc: [&mut Vec<f32>; R],
    mut weights: [&[f32]; R],
    keys: usize,
    rows: impl ValueRows<'v>,
) {
    for w in &mut weights {
        *w = &w[..keys];
    }
    let d = acc[0].len();
    let mut c0 = 0;
    while c0 + COLUMNS <= d {
        accumulate_chunk::<R, COLUMNS, FUSED>(&mut acc, &weights, keys, &rows, c0);
        c0 += COLUMNS;
    }
    if COLUMNS > 32 && c0 + 32 <= d {
        accumulate_chunk::<R, 32, FUSED>(&mut acc, &weights, keys, &rows, c0);
        c0 += 32;
    }
    if COLUMNS > 16 && c0 + 16 <= d {
        accumulate_chunk::<R, 16, FUSED>(&mut acc, &weights, keys, &rows, c0);
        c0 += 16;
    }
    if COLUMNS > 8 && c0 + 8 <= d {
        accumulate_chunk::<R, 8, FUSED>(&mut acc, &weights, keys, &rows, c0);
        c0 += 8;
    }
    if c0 == d {
        return;
    }
    for j in 0..keys {
        let values = &rows.row(j)[c0..d];
        for (acc, weights) in acc.iter_mut().zip(&weights) {
            let w = weights[j];
            for (a, &x) in acc[c0..].iter_mut().zip(values) {
                *a = mul_add::<FUSED>(w, x, *a);
            }
        }
    }
}

/// [`accumulate`] on the `WIDTH` columns from `c0`, held in local arrays
/// over every key.
#[inline(always)]
fn accumulate_chunk<'v, const R: usize, const WIDTH: usize, const FUSED: bool>(
    acc: &mut [&mut Vec<f32>; R],
    weights: &[&[f32]; R],
    keys: usize,
    rows: &impl ValueRows<'v>,
    c0: usize,
) {
    let mut lanes = [[0.0f32; WIDTH]; R];
    for (held, acc) in lanes.iter_mut().zip(acc.iter()) {
        held.copy_from_slice(&acc[c0..c0 + WIDTH]);
    }
    for j in 0..keys {
        let values = &rows.row(j)[c0..c0 + WIDTH];
        for (held, weights) in lanes.iter_mut().zip(weights) {
            let w = weights[j];
            for (a, &x) in held.iter_mut().zip(values) {
                *a = mul_add::<FUSED>(w, x, *a);
            }
        }
    }
    for (held, acc) in lanes.iter().zip(acc.iter_mut()) {
        acc[c0..c0 + WIDTH].copy_from_slice(held);
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
    fn row_softmax_on_every_build_is_the_scalar_statement() {
        // Plain loops sharing nothing with the builds but `exp`: the
        // maximum ignoring NaN, the exponent pass, the f64 normaliser in
        // index order, the f32 scale.
        fn statement(row: &mut [f32]) {
            let max = row
                .iter()
                .fold(f32::NEG_INFINITY, |m, &x| if x > m { x } else { m });
            if max == f32::NEG_INFINITY {
                row.fill(0.0);
                return;
            }
            let mut sum = 0.0f64;
            for v in row.iter_mut() {
                *v = exp(*v - max);
                sum += f64::from(*v);
            }
            let inv = (1.0 / sum) as f32;
            for v in row.iter_mut() {
                *v *= inv;
            }
        }
        let mut rng = crate::DeterministicRng::new(0x50F7);
        let mut rows = vec![Vec::new()];
        for len in [1usize, 7, 16, 63, 64, 65, 200, 4097] {
            let row = rng.normal_matrix(1, len, 4.0).into_vec();
            let mut holes = row.clone();
            for x in holes.iter_mut().step_by(3) {
                *x = f32::NEG_INFINITY;
            }
            rows.extend([row, holes, vec![f32::NEG_INFINITY; len]]);
        }
        let want: Vec<Vec<f32>> = rows
            .iter()
            .map(|row| {
                let mut want = row.clone();
                statement(&mut want);
                want
            })
            .collect();
        let bits = |r: &[f32]| r.iter().map(|x| x.to_bits()).collect::<Vec<_>>();
        for isa in builds() {
            // Each row alone, then all of them in groups of rows of mixed
            // lengths, some empty or fully masked.
            for (row, want) in rows.iter().zip(&want) {
                let mut got = row.clone();
                softmax_rows_on(isa, &mut [&mut got]);
                assert_eq!(
                    bits(&got),
                    bits(want),
                    "len {} on {}",
                    row.len(),
                    isa.name()
                );
            }
            let mut got = rows.clone();
            let mut refs: Vec<&mut [f32]> = got.iter_mut().map(|r| r.as_mut_slice()).collect();
            softmax_rows_on(isa, &mut refs);
            for (r, (got, want)) in got.iter().zip(&want).enumerate() {
                assert_eq!(
                    bits(got),
                    bits(want),
                    "row {r} of a group on {}",
                    isa.name()
                );
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

    /// The fold's definition (steps 1–5 in the docs of
    /// [`online_softmax_update`]) as plain scalar loops, sharing no code
    /// with the builds it holds to account except [`exp`] and
    /// [`fma`](crate::fma()): lanes are
    /// spelled `t % 8`, the tree is written out, step 5 walks one key
    /// and one column at a time in memory.
    #[allow(clippy::needless_range_loop)] // the indices are the statement
    fn fold_definition<'a>(
        state: &mut OnlineSoftmaxState,
        scores: &[f32],
        value: impl Fn(usize) -> &'a [f32],
    ) {
        fn tree(x: [f32; 8], op: impl Fn(f32, f32) -> f32) -> f32 {
            op(
                op(op(x[0], x[1]), op(x[2], x[3])),
                op(op(x[4], x[5]), op(x[6], x[7])),
            )
        }
        let pick = |a: f32, b: f32| if b > a { b } else { a };
        for (pass, s) in scores.chunks(64).enumerate() {
            let mut max_lanes = [f32::NEG_INFINITY; 8];
            for (t, &x) in s.iter().enumerate() {
                max_lanes[t % 8] = pick(max_lanes[t % 8], x);
            }
            let block_max = tree(max_lanes, pick);
            if block_max == f32::NEG_INFINITY {
                continue;
            }
            let new_max = pick(state.row_max, block_max);
            let correction = if state.row_max == f32::NEG_INFINITY {
                0.0
            } else {
                exp(state.row_max - new_max)
            };
            for a in &mut state.acc {
                *a *= correction;
            }
            let w: Vec<f32> = s.iter().map(|&x| exp(x - new_max)).collect();
            let mut sum_lanes = [0.0f32; 8];
            for (t, &x) in w.iter().enumerate() {
                sum_lanes[t % 8] += x;
            }
            state.row_sum = state.row_sum * correction + tree(sum_lanes, |a, b| a + b);
            state.row_max = new_max;
            for t in 0..s.len() {
                if s[t] == f32::NEG_INFINITY {
                    continue;
                }
                let v = value(pass * 64 + t);
                for c in 0..state.acc.len() {
                    state.acc[c] = crate::fma(w[t], v[c], state.acc[c]);
                }
            }
        }
    }

    /// Baseline always; the AVX2 and AVX-512 builds where the CPU has
    /// them.
    fn builds() -> Vec<Isa> {
        let builds = Isa::every();
        #[cfg(target_arch = "x86_64")]
        if std::arch::is_x86_feature_detected!("avx512f") {
            assert_eq!(builds.len(), 3, "an AVX-512 CPU must hold all three builds");
        }
        if builds.len() == 1 {
            println!("this CPU lacks AVX2: the wide builds of the fold are not exercised");
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

    /// Folds `blocks` (scores, one value row per score) in order with the
    /// row fold on every build and with the definition, comparing the
    /// whole state after each.
    fn assert_row_fold_is_the_definition(label: &str, dv: usize, blocks: &[(Vec<f32>, Matrix)]) {
        for isa in builds() {
            let mut got = OnlineSoftmaxState::new(dv);
            let mut want = OnlineSoftmaxState::new(dv);
            for (b, (scores, values)) in blocks.iter().enumerate() {
                online_softmax_update_on(isa, &mut got, scores, |t| values.row(t));
                fold_definition(&mut want, scores, |t| values.row(t));
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
    ) -> (Vec<f32>, Matrix) {
        let scores = rng.normal_matrix(1, len, 2.0).row(0).to_vec();
        (scores, rng.normal_matrix(len, dv, 1.0))
    }

    /// Around the column chunks of every build — 8 and 16 (a quad under
    /// the baseline build and AVX2), 32 (a row or a pair), 64 (AVX-512)
    /// — a whole chunk, one plus a tail, and two; and past the widest
    /// whole chunk, each narrower register chunk a row can end in (40 is
    /// 32 + 8, 56 is 32 + 16 + 8, 63 adds a 7-column tail).
    const WIDTHS: [usize; 15] = [1, 8, 9, 16, 17, 31, 32, 33, 40, 56, 63, 64, 65, 72, 128];

    #[test]
    fn row_fold_is_the_definition_at_every_width_and_block_length() {
        let mut rng = crate::DeterministicRng::new(0xF01D);
        for dv in WIDTHS {
            // One state through blocks of every length: the first block
            // starts from `row_max = -inf`, the later ones rescale, 65
            // and 200 are cut into blocks of 64.
            let blocks: Vec<_> = [1usize, 7, 8, 9, 63, 64, 65, 200, 1]
                .iter()
                .map(|&len| random_block(&mut rng, len, dv))
                .collect();
            assert_row_fold_is_the_definition("lengths", dv, &blocks);
            // Each length as a first block of its own.
            for block in blocks {
                assert_row_fold_is_the_definition("first block", dv, &[block]);
            }
        }
    }

    #[test]
    fn row_fold_skips_masked_lanes_and_masked_blocks() {
        let mut rng = crate::DeterministicRng::new(0xF02D);
        for dv in [1usize, 31, 64, 65, 72] {
            let mut blocks = Vec::new();
            for len in [1usize, 9, 63, 65, 200] {
                let (mut scores, values) = random_block(&mut rng, len, dv);
                for s in scores.iter_mut().step_by(3) {
                    *s = f32::NEG_INFINITY;
                }
                blocks.push((scores, values));
                // A fully masked block between live ones changes nothing.
                let (scores, values) = random_block(&mut rng, 64, dv);
                blocks.push((vec![f32::NEG_INFINITY; scores.len()], values));
            }
            // 200 keys whose middle 64-key block is fully masked.
            let (mut scores, values) = random_block(&mut rng, 200, dv);
            scores[64..128].fill(f32::NEG_INFINITY);
            blocks.push((scores, values));
            assert_row_fold_is_the_definition("masked lanes", dv, &blocks);
            // A state whose first block is fully masked stays fresh.
            blocks.rotate_left(1);
            assert_row_fold_is_the_definition("masked first block", dv, &blocks);
        }
    }

    /// One tile for the tile fold: scores (`rows × FOLD_KEYS`), ranges,
    /// and the value rows of its `keys` keys.
    struct Tile {
        scores: Vec<f32>,
        live: Vec<(usize, usize)>,
        values: Matrix,
    }

    /// Folds `tiles` in order into `rows` states with the tile fold on
    /// every build, and row by row with the definition and with the row
    /// fold on the same build, comparing every state after each tile.
    fn assert_tile_fold_is_the_definition(
        label: &str,
        start: &OnlineSoftmaxState,
        rows: usize,
        tiles: &[Tile],
    ) {
        let dv = start.acc.len();
        for isa in builds() {
            let mut got = vec![start.clone(); rows];
            let mut want = vec![start.clone(); rows];
            let mut by_row = vec![start.clone(); rows];
            for (n, tile) in tiles.iter().enumerate() {
                online_softmax_update_tile_on(
                    isa,
                    &mut got,
                    &tile.scores,
                    &tile.live,
                    tile.values.as_slice(),
                );
                for (r, &(lo, hi)) in tile.live.iter().enumerate() {
                    let scores = &tile.scores[r * FOLD_KEYS..][lo..hi];
                    let value = |t: usize| tile.values.row(lo + t);
                    fold_definition(&mut want[r], scores, value);
                    online_softmax_update_on(isa, &mut by_row[r], scores, value);
                    let context = format!(
                        "{label}: dv={dv} rows={rows} tile {n} row {r} [{lo}, {hi}) on {}",
                        isa.name()
                    );
                    assert_eq!(state_bits(&got[r]), state_bits(&want[r]), "{context}");
                    assert_eq!(state_bits(&by_row[r]), state_bits(&want[r]), "{context}");
                }
            }
        }
    }

    /// How a test tile's ranges are laid out.
    #[derive(Clone, Copy, Debug)]
    enum Ranges {
        /// Every row folds all keys: every quad accumulates together.
        Full,
        /// Row `r` ends at key `r + 1`, as on the causal diagonal: no
        /// pair shares a range, a quad shares its shortest row's keys.
        Causal,
        /// Random `[lo, hi)` per row pair, so pairs accumulate together
        /// over ragged ranges; every fifth row breaks its pair with a
        /// range of its own and every seventh is empty.
        Ragged,
        /// Random `[lo, hi)` per row quad, so quads accumulate together
        /// over ragged ranges; every ninth row breaks its quad with a
        /// range of its own.
        Quads,
        /// Row `r` sees `[r − w, r + 1)` clipped to the tile, `w` half
        /// the tile: the window start moves one key a row, as at a
        /// window start, and so does the end, as on the diagonal. A quad
        /// shares the middle of its ranges and folds a staggered head
        /// and tail row by row.
        Staggered,
    }

    fn random_tile(
        rng: &mut crate::DeterministicRng,
        rows: usize,
        keys: usize,
        dv: usize,
        ranges: Ranges,
    ) -> Tile {
        let scores = rng.normal_matrix(rows, FOLD_KEYS, 2.0).into_vec();
        let mut edge = |bound: usize| rng.index(bound + 1);
        let mut live = Vec::with_capacity(rows);
        for r in 0..rows {
            live.push(match ranges {
                Ranges::Full => (0, keys),
                Ranges::Causal => (0, (r + 1).min(keys)),
                Ranges::Ragged if r % 7 == 6 => (keys / 2, keys / 2),
                Ranges::Ragged if r % 2 == 1 && r % 5 != 4 => live[r - 1],
                Ranges::Quads if r % 4 != 0 && r % 9 != 8 => live[r - r % 4],
                Ranges::Ragged | Ranges::Quads => {
                    let (a, b) = (edge(keys), edge(keys));
                    (a.min(b), a.max(b))
                }
                Ranges::Staggered => (r.saturating_sub(keys / 2).min(keys), (r + 1).min(keys)),
            });
        }
        Tile {
            scores,
            live,
            values: rng.normal_matrix(keys, dv, 1.0),
        }
    }

    /// Whole quads, and one to three rows past the last one.
    const ROW_COUNTS: [usize; 9] = [1, 2, 3, 4, 5, 6, 7, 63, 64];
    const LAYOUTS: [Ranges; 5] = [
        Ranges::Full,
        Ranges::Ragged,
        Ranges::Causal,
        Ranges::Quads,
        Ranges::Staggered,
    ];
    const KEY_COUNTS: [usize; 6] = [1, 7, 8, 9, 63, 64];

    #[test]
    fn tile_fold_is_the_definition_at_every_shape() {
        let mut rng = crate::DeterministicRng::new(0xF03D);
        for dv in WIDTHS {
            for rows in ROW_COUNTS {
                // One set of states through tiles of every key count and
                // every range layout: the first tile starts fresh states,
                // the later ones rescale them.
                let mut tiles = Vec::new();
                for (n, &keys) in KEY_COUNTS.iter().enumerate() {
                    for ranges in [LAYOUTS[n % 5], LAYOUTS[(n + 3) % 5]] {
                        tiles.push(random_tile(&mut rng, rows, keys, dv, ranges));
                    }
                }
                tiles.push(random_tile(&mut rng, rows, 64, dv, Ranges::Ragged));
                let fresh = OnlineSoftmaxState::new(dv);
                assert_tile_fold_is_the_definition("shapes", &fresh, rows, &tiles);
            }
        }
    }

    #[test]
    fn tile_fold_skips_masked_lanes_masked_rows_and_masked_tiles() {
        let mut rng = crate::DeterministicRng::new(0xF04D);
        for dv in [1usize, 33, 64, 72] {
            for rows in [1usize, 2, 5, 7, 64] {
                let mut tiles = Vec::new();
                for (n, ranges) in [
                    Ranges::Full,
                    Ranges::Ragged,
                    Ranges::Quads,
                    Ranges::Staggered,
                ]
                .into_iter()
                .enumerate()
                {
                    // Holes in every third lane of every third row: in a
                    // pair, one row with holes and one without.
                    let mut holes = random_tile(&mut rng, rows, 64 - n, dv, ranges);
                    for row in holes.scores.chunks_mut(FOLD_KEYS).step_by(3) {
                        for s in row.iter_mut().skip(n).step_by(3) {
                            *s = f32::NEG_INFINITY;
                        }
                    }
                    tiles.push(holes);
                    // Every other row fully masked inside its range.
                    let mut rows_out = random_tile(&mut rng, rows, 64, dv, ranges);
                    for row in rows_out.scores.chunks_mut(FOLD_KEYS).skip(n % 2).step_by(2) {
                        row.fill(f32::NEG_INFINITY);
                    }
                    tiles.push(rows_out);
                    // A fully masked tile changes nothing.
                    let mut nothing = random_tile(&mut rng, rows, 64, dv, ranges);
                    nothing.scores.fill(f32::NEG_INFINITY);
                    tiles.push(nothing);
                }
                let fresh = OnlineSoftmaxState::new(dv);
                assert_tile_fold_is_the_definition("masked, mid-stream", &fresh, rows, &tiles);
                // States whose first tile is fully masked stay fresh.
                tiles.rotate_left(2);
                assert_tile_fold_is_the_definition("masked first", &fresh, rows, &tiles);
            }
        }
    }

    #[test]
    fn tile_fold_quads_fall_back_around_a_hole_in_one_row() {
        // One `-inf` key in one row of every quad, a different row each
        // quad: that quad goes as two pairs, one of them with a hole,
        // while the quads beside it accumulate together.
        let mut rng = crate::DeterministicRng::new(0xF05D);
        for dv in [1usize, 8, 9, 16, 17, 64, 72] {
            for rows in [4usize, 5, 6, 7, 16, 63, 64] {
                let mut tiles = Vec::new();
                for (n, ranges) in [
                    Ranges::Full,
                    Ranges::Quads,
                    Ranges::Staggered,
                    Ranges::Causal,
                ]
                .into_iter()
                .enumerate()
                {
                    let mut tile = random_tile(&mut rng, rows, 64 - n, dv, ranges);
                    for (quad, scores) in tile.scores.chunks_mut(4 * FOLD_KEYS).enumerate() {
                        let r = (quad + n) % 4;
                        if let Some(&(lo, hi)) = tile.live.get(quad * 4 + r) {
                            if lo < hi {
                                scores[r * FOLD_KEYS + (lo + hi) / 2] = f32::NEG_INFINITY;
                            }
                        }
                    }
                    tiles.push(tile);
                    tiles.push(random_tile(&mut rng, rows, 64 - n, dv, ranges));
                }
                let fresh = OnlineSoftmaxState::new(dv);
                assert_tile_fold_is_the_definition("a hole in a quad", &fresh, rows, &tiles);
            }
        }
    }

    #[test]
    fn folds_skip_rather_than_zero_weight_masked_keys() {
        // Folding a masked key with its weight of zero instead of
        // skipping it would poison the row through `0.0 * inf` where its
        // value row holds an infinity, and turn a `-0.0` column into
        // `+0.0` (`-0.0 + 0.0 * x`). The state starts on `-0.0` columns
        // and must stay there.
        for dv in [1usize, 33, 64] {
            let values = Matrix::from_fn(4, dv, |t, _| [-0.0, f32::INFINITY, -0.0, 1.0][t]);
            let scores = [0.25, f32::NEG_INFINITY, -1.5, f32::NEG_INFINITY];
            let start = OnlineSoftmaxState {
                row_max: 0.0,
                row_sum: 1.0,
                acc: vec![-0.0; dv],
            };
            let mut want = start.clone();
            fold_definition(&mut want, &scores, |t| values.row(t));
            fold_definition(&mut want, &scores, |t| values.row(t));
            assert!(want.acc.iter().all(|a| a.to_bits() == (-0.0f32).to_bits()));
            for isa in builds() {
                let mut got = start.clone();
                online_softmax_update_on(isa, &mut got, &scores, |t| values.row(t));
                online_softmax_update_on(isa, &mut got, &scores, |t| values.row(t));
                assert_eq!(
                    state_bits(&got),
                    state_bits(&want),
                    "dv={dv} on {}",
                    isa.name()
                );
            }
            // The same keys as a tile, on three rows (a pair and a single)
            // and on seven (a quad, a pair and a single).
            for rows in [3, 7] {
                let mut tile_scores = vec![0.0f32; rows * FOLD_KEYS];
                for row in tile_scores.chunks_mut(FOLD_KEYS) {
                    row[..4].copy_from_slice(&scores);
                }
                let tile = || Tile {
                    scores: tile_scores.clone(),
                    live: vec![(0, 4); rows],
                    values: values.clone(),
                };
                assert_tile_fold_is_the_definition("signed zeros", &start, rows, &[tile(), tile()]);
            }
            // Live keys with infinite values go through as they always
            // did, paired or not.
            let live_inf = [
                (
                    vec![0.5, 0.75],
                    Matrix::from_fn(2, dv, |t, _| [f32::INFINITY, 1.0][t]),
                ),
                (vec![2.0], Matrix::from_fn(1, dv, |_, _| f32::NEG_INFINITY)),
            ];
            assert_row_fold_is_the_definition("live infinities", dv, &live_inf);
            for rows in [2, 4] {
                let tiles: Vec<Tile> = live_inf
                    .iter()
                    .map(|(scores, values)| {
                        let mut tile_scores = vec![0.0f32; rows * FOLD_KEYS];
                        for row in tile_scores.chunks_mut(FOLD_KEYS) {
                            row[..scores.len()].copy_from_slice(scores);
                        }
                        Tile {
                            scores: tile_scores,
                            live: vec![(0, scores.len()); rows],
                            values: values.clone(),
                        }
                    })
                    .collect();
                assert_tile_fold_is_the_definition("live infinities", &start, rows, &tiles);
            }
        }
    }

    #[test]
    #[should_panic(expected = "value row width")]
    fn row_fold_rejects_a_value_row_of_the_wrong_width() {
        let mut state = OnlineSoftmaxState::new(4);
        online_softmax_update(&mut state, &[0.0], |_| &[1.0, 2.0]);
    }

    #[test]
    #[should_panic(expected = "fold tile shape")]
    fn tile_fold_rejects_a_slab_of_the_wrong_width() {
        // 64 keys of width 5 handed to states of width 4: 80 rows of 4.
        let mut states = vec![OnlineSoftmaxState::new(4); 2];
        let slab = vec![0.0f32; FOLD_KEYS * 5];
        online_softmax_update_tile_on(
            Isa::detect(),
            &mut states,
            &[0.0; 2 * FOLD_KEYS],
            &[(0, FOLD_KEYS); 2],
            &slab,
        );
    }

    #[test]
    fn tile_fold_rejects_every_other_shape_mismatch() {
        let run = |states: usize, scores: usize, live: &[(usize, usize)], slab: usize| {
            std::panic::catch_unwind(|| {
                let mut states = vec![OnlineSoftmaxState::new(4); states];
                online_softmax_update_tile_on(
                    Isa::detect(),
                    &mut states,
                    &vec![0.0; scores],
                    live,
                    &vec![0.0; slab],
                );
            })
            .is_err()
        };
        assert!(!run(2, 128, &[(0, 3), (1, 2)], 12), "a well-formed tile");
        assert!(!run(0, 0, &[], 0), "no rows");
        assert!(run(2, 127, &[(0, 3), (1, 2)], 12), "short score tile");
        assert!(run(2, 128, &[(0, 3)], 12), "a range missing");
        assert!(run(2, 128, &[(0, 4), (1, 2)], 12), "range past the slab");
        assert!(run(2, 128, &[(3, 2), (1, 2)], 12), "inverted range");
        assert!(run(2, 128, &[(0, 3), (1, 2)], 13), "ragged slab");
        assert!(run(1, 64, &[(0, 3)], 65 * 4), "slab longer than a tile");
        let mut mixed = vec![OnlineSoftmaxState::new(4), OnlineSoftmaxState::new(5)];
        let mixed = std::panic::catch_unwind(std::panic::AssertUnwindSafe(|| {
            online_softmax_update_tile_on(
                Isa::detect(),
                &mut mixed,
                &[0.0; 128],
                &[(0, 1); 2],
                &[0.0; 4],
            )
        }));
        assert!(mixed.is_err(), "states of two widths");
    }

    #[test]
    fn online_softmax_all_masked_yields_zero() {
        let mut st = OnlineSoftmaxState::new(2);
        online_softmax_update(&mut st, &[f32::NEG_INFINITY; 3], |_| &[0.0, 0.0]);
        assert_eq!(st.finish(), vec![0.0, 0.0]);
    }
}
