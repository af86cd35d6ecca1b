//! Key panels: the one key layout the score microkernel reads.
//!
//! Keys are stored transposed in panels of [`BLOCK`] lanes: panel `p`
//! holds `kt[dd][t]` for the keys `p * BLOCK + t`, zero where a lane has
//! no key. A score is then `acc[t] += q[dd] * kt[dd][t]` over `dd` in
//! index order: each lane is the same strict-order sum a scalar dot
//! product computes, but neighbouring lanes are independent, so plain
//! Rust autovectorises across `t`.
//!
//! What keeps the bits the same on every host is the arithmetic, not the
//! instruction set: one fused multiply-add per product
//! (`acc = fma(q, k, acc)`, a single rounding IEEE 754 defines exactly),
//! no reassociation (no fast-math, no intrinsics), and a fixed order per
//! lane. Vector width is free under those three, so the microkernel is
//! one generic body compiled three times — for the target's baseline
//! instruction set (with the exact emulation [`sa_tensor::fma()`]) and, on
//! x86-64, with AVX2 + FMA and with AVX-512 (`vfmadd`) — and
//! [`KeyPanels::score_panel`] runs the build its [`Isa`] argument names.
//! Callers take that from `Isa::detect()` once per call; nothing but the
//! CPU chooses it.
//!
//! The panels start on a 64-byte cache line ([`AlignedBuf`]), and a panel
//! row is 64 floats, so every vector load of the score loop reads one line
//! rather than straddling two.
//!
//! The layout is built once per KV head and appended to as keys arrive
//! (`sa-model`'s `LayerKvCache` owns one per head); stage-1 sampling, the
//! blocked engine and decode all read it. A transposed key costs about
//! what two scalar dot products do, so whoever holds keys across calls
//! keeps their panels.
//!
//! The panels are the only copy of those keys such a holder needs: a
//! key reads back out as a row ([`KeyPanels::copy_key`],
//! [`KeyPanels::to_rows`]) and a subset gathers panel to panel
//! ([`KeyPanels::gathered`]), each with the bits of the rows the panels
//! were built from. Padding lanes hold `0.0`, so a scan of
//! [`KeyPanels::as_slice`] counts what a scan of the rows counts for any
//! property zero lacks (a non-finite value).

use sa_tensor::{mul_add, AlignedBuf, Isa, IsaBuild, Matrix, TensorError};

/// Key lanes per panel, and query rows per engine block.
pub const BLOCK: usize = 64;

/// Lanes one accumulator group of the score panel covers, per build, for
/// one or two query rows: two rows of 16 f32 are eight of the 16 vector
/// registers of baseline x86-64 and four under AVX2; under AVX-512 two
/// rows of a whole panel are eight of its 32. Lanes are independent, so
/// the grouping never shows in the bits.
const LANES_BASELINE: usize = 16;
const LANES_AVX2: usize = 16;
const LANES_AVX512: usize = BLOCK;

/// The same for four query rows: eight accumulator registers under the
/// baseline build (4 × 8 lanes) and AVX2 (4 × 16), sixteen of the 32
/// under AVX-512 (4 × a whole panel). Each K load then feeds four FMAs,
/// and no accumulator waits on the one before it.
const QUAD_LANES_BASELINE: usize = 8;
const QUAD_LANES_AVX2: usize = 16;
const QUAD_LANES_AVX512: usize = BLOCK;

/// Key rows transposed into panels of [`BLOCK`] lanes, from a cache line.
#[derive(Debug, Clone)]
pub struct KeyPanels {
    data: AlignedBuf,
    /// Key width; a panel is `d * BLOCK` floats.
    d: usize,
    /// Lanes that hold a key (lane `l` holds key `l`).
    keys: usize,
}

impl KeyPanels {
    /// No keys yet, of width `d`.
    pub fn new(d: usize) -> Self {
        KeyPanels {
            data: AlignedBuf::new(),
            d,
            keys: 0,
        }
    }

    /// The panels of all rows of `k`.
    pub fn from_rows(k: &Matrix) -> Self {
        let mut panels = KeyPanels::new(k.cols());
        panels.push((0..k.rows()).map(|j| k.row(j)));
        panels
    }

    /// The keys `indices` of these panels, in that order, copied lane by
    /// lane: the panels [`from_rows`](Self::from_rows) builds from those
    /// rows, bit for bit.
    ///
    /// # Panics
    ///
    /// Panics if an index is not a held key.
    pub fn gathered(&self, indices: &[usize]) -> Self {
        let stride = self.d * BLOCK;
        let mut out = KeyPanels::new(self.d);
        out.data.resize(indices.len().div_ceil(BLOCK) * stride, 0.0);
        let src = self.as_slice();
        for (part, dst) in indices
            .chunks(BLOCK)
            .zip(out.data.as_mut_slice().chunks_exact_mut(stride))
        {
            // Where each lane of this output panel starts in the source:
            // then every `dd` is one pass over contiguous output lanes.
            let mut from = [0usize; BLOCK];
            for (f, &j) in from.iter_mut().zip(part) {
                assert!(j < self.keys, "key {j} of {}", self.keys);
                *f = j / BLOCK * stride + j % BLOCK;
            }
            for (dd, column) in dst.chunks_exact_mut(BLOCK).enumerate() {
                for (x, &f) in column.iter_mut().zip(&from[..part.len()]) {
                    *x = src[f + dd * BLOCK];
                }
            }
        }
        out.keys = indices.len();
        sa_tensor::trace::counter_add!("kernels.keys_transposed", indices.len() as u64);
        out
    }

    /// Copies key `j` into `out`: the row the panels were built from.
    ///
    /// # Panics
    ///
    /// Panics if `j` is not a held key or `out` is not [`dim`](Self::dim)
    /// long.
    pub fn copy_key(&self, j: usize, out: &mut [f32]) {
        assert!(j < self.keys, "key {j} of {}", self.keys);
        assert_eq!(out.len(), self.d, "a key is {} floats", self.d);
        let panel = self.panel(j / BLOCK);
        for (x, column) in out.iter_mut().zip(panel.chunks_exact(BLOCK)) {
            *x = column[j % BLOCK];
        }
    }

    /// Every key as a row, `(len(), dim())`: the rows the panels were
    /// built from, bit for bit.
    pub fn to_rows(&self) -> Matrix {
        let mut rows = Matrix::zeros(self.keys, self.d);
        for j in 0..self.keys {
            self.copy_key(j, rows.row_mut(j));
        }
        rows
    }

    /// Appends the rows of `k_new` as the next keys.
    ///
    /// # Errors
    ///
    /// Returns [`TensorError::ShapeMismatch`] if the row width differs
    /// from the panels' key width.
    pub fn append(&mut self, k_new: &Matrix) -> Result<(), TensorError> {
        if k_new.cols() != self.d {
            return Err(TensorError::ShapeMismatch {
                op: "KeyPanels::append",
                lhs: k_new.shape(),
                rhs: (self.keys, self.d),
            });
        }
        self.push((0..k_new.rows()).map(|j| k_new.row(j)));
        Ok(())
    }

    fn push<'a>(&mut self, rows: impl ExactSizeIterator<Item = &'a [f32]>) {
        let stride = self.d * BLOCK;
        let added = rows.len();
        self.data
            .resize((self.keys + added).div_ceil(BLOCK) * stride, 0.0);
        let data = self.data.as_mut_slice();
        for (lane, row) in (self.keys..).zip(rows) {
            let panel = &mut data[lane / BLOCK * stride..][..stride];
            for (column, &x) in panel.chunks_exact_mut(BLOCK).zip(row) {
                column[lane % BLOCK] = x;
            }
        }
        self.keys += added;
        sa_tensor::trace::counter_add!("kernels.keys_transposed", added as u64);
    }

    /// Keys held.
    pub fn len(&self) -> usize {
        self.keys
    }

    /// `true` when no key is held.
    pub fn is_empty(&self) -> bool {
        self.keys == 0
    }

    /// Key width.
    pub fn dim(&self) -> usize {
        self.d
    }

    /// The transposed storage, whole panels: `len().div_ceil(BLOCK)`
    /// panels of `dim() * BLOCK` floats, `kt[dd][t]` within each. Starts
    /// on a 64-byte line.
    pub fn as_slice(&self) -> &[f32] {
        self.data.as_slice()
    }

    fn panel(&self, p: usize) -> &[f32] {
        let stride = self.d * BLOCK;
        &self.as_slice()[p * stride..][..stride]
    }

    /// Keys held by panel `p`.
    pub(crate) fn keys_in(&self, p: usize) -> usize {
        self.keys.saturating_sub(p * BLOCK).min(BLOCK)
    }

    /// Scores `R` query rows against panel `p`:
    /// `out[r][t] = scale * Σ_dd q[r][dd] · k[p * BLOCK + t][dd]`, every
    /// lane summed in `dd` order from `0.0`, each product fused into the
    /// running sum (`acc = fma(q, k, acc)`) — the bits a strict-order
    /// scalar dot product of fused products gives, on whichever build `isa`
    /// names. Lanes past the last key score `0.0`.
    ///
    /// # Panics
    ///
    /// Panics if `p` is not a held panel, a query row is shorter than
    /// [`dim`](Self::dim), or an `out` row is shorter than [`BLOCK`].
    #[inline]
    pub fn score_panel<const R: usize>(
        &self,
        isa: Isa,
        p: usize,
        q: [&[f32]; R],
        scale: f32,
        out: [&mut [f32]; R],
    ) {
        let kt = self.panel(p);
        match isa.build() {
            #[cfg(target_arch = "x86_64")]
            // SAFETY: an `Isa` names AVX-512 only when `Isa::detect` found
            // `avx2`, `fma` and `avx512f` on this CPU.
            IsaBuild::Avx512 => unsafe { score_panel_avx512(kt, q, scale, out) },
            #[cfg(target_arch = "x86_64")]
            // SAFETY: an `Isa` names AVX2 only when `Isa::detect` found
            // `avx2` and `fma` on this CPU.
            IsaBuild::Avx2 => unsafe { score_panel_avx2(kt, q, scale, out) },
            _ => score_panel_baseline(kt, q, scale, out),
        }
    }
}

/// The score panel compiled for the target's baseline instruction set,
/// each product through the exact emulation of a fused multiply-add. `R`
/// is a constant, so each instantiation keeps one of the two bodies.
fn score_panel_baseline<const R: usize>(
    kt: &[f32],
    q: [&[f32]; R],
    scale: f32,
    out: [&mut [f32]; R],
) {
    if R >= 4 {
        score_lanes::<R, QUAD_LANES_BASELINE, false>(kt, q, scale, out);
    } else {
        score_lanes::<R, LANES_BASELINE, false>(kt, q, scale, out);
    }
}

/// The score panel compiled with AVX2 and FMA: the same fused products
/// per lane, eight lanes to a register.
#[cfg(target_arch = "x86_64")]
#[target_feature(enable = "avx2,fma")]
fn score_panel_avx2<const R: usize>(kt: &[f32], q: [&[f32]; R], scale: f32, out: [&mut [f32]; R]) {
    if R >= 4 {
        score_lanes::<R, QUAD_LANES_AVX2, true>(kt, q, scale, out);
    } else {
        score_lanes::<R, LANES_AVX2, true>(kt, q, scale, out);
    }
}

/// The score panel compiled with AVX-512F: the same fused products per
/// lane, sixteen lanes to a register.
#[cfg(target_arch = "x86_64")]
#[target_feature(enable = "avx2,fma,avx512f")]
fn score_panel_avx512<const R: usize>(
    kt: &[f32],
    q: [&[f32]; R],
    scale: f32,
    out: [&mut [f32]; R],
) {
    if R >= 4 {
        score_lanes::<R, QUAD_LANES_AVX512, true>(kt, q, scale, out);
    } else {
        score_lanes::<R, LANES_AVX512, true>(kt, q, scale, out);
    }
}

/// The one body of the score panel, over the transposed panel `kt`, `L`
/// lanes of `R` rows at a time; `FUSED` as in [`mul_add`].
#[inline(always)]
fn score_lanes<const R: usize, const L: usize, const FUSED: bool>(
    kt: &[f32],
    q: [&[f32]; R],
    scale: f32,
    mut out: [&mut [f32]; R],
) {
    for c in 0..BLOCK / L {
        let mut acc = [[0.0f32; L]; R];
        for (dd, k_row) in kt.chunks_exact(BLOCK).enumerate() {
            // A copy, so that the lanes are loaded once for all `R` rows:
            // read through the slice, each row's FMA took its own load,
            // and four rows stayed as load-bound as two.
            let mut lanes = [0.0f32; L];
            lanes.copy_from_slice(&k_row[c * L..(c + 1) * L]);
            for (acc_row, q_row) in acc.iter_mut().zip(&q) {
                let x = q_row[dd];
                for (a, &kv) in acc_row.iter_mut().zip(&lanes) {
                    *a = mul_add::<FUSED>(x, kv, *a);
                }
            }
        }
        for (out_row, acc_row) in out.iter_mut().zip(&acc) {
            let dst = &mut out_row[c * L..(c + 1) * L];
            for (o, &a) in dst.iter_mut().zip(acc_row) {
                *o = a * scale;
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use sa_tensor::DeterministicRng;

    fn bits(xs: &[f32]) -> Vec<u32> {
        xs.iter().map(|x| x.to_bits()).collect()
    }

    #[test]
    fn appended_panels_equal_panels_built_at_once() {
        let mut rng = DeterministicRng::new(3);
        let k = rng.normal_matrix(200, 8, 1.0);
        let whole = KeyPanels::from_rows(&k);
        assert_eq!((whole.len(), whole.dim()), (200, 8));
        assert_eq!(whole.as_slice().len(), 4 * 8 * BLOCK);
        for step in [1, 32, 37, 64, 200] {
            let mut grown = KeyPanels::new(8);
            let mut at = 0;
            while at < 200 {
                let end = (at + step).min(200);
                grown.append(&k.slice_rows(at, end).unwrap()).unwrap();
                at = end;
            }
            assert_eq!(grown.len(), 200);
            assert_eq!(
                bits(grown.as_slice()),
                bits(whole.as_slice()),
                "step {step}"
            );
        }
        assert!(KeyPanels::new(8).append(&Matrix::zeros(2, 7)).is_err());
    }

    /// `len` rows of width `d` whose bits a copy could lose: signed
    /// zeros, a subnormal, infinities and a NaN beside normal values.
    fn awkward_rows(rng: &mut DeterministicRng, len: usize, d: usize) -> Matrix {
        let mut k = rng.normal_matrix(len, d, 1.0);
        let specials = [-0.0, 1e-40, f32::INFINITY, f32::NEG_INFINITY, f32::NAN];
        for (i, &x) in specials.iter().enumerate() {
            let j = (i * 37) % len;
            k.set(j, (i * 5) % d, x);
        }
        k
    }

    /// A key read back out of its panels — one key at a time or all as
    /// rows — has the bits of the row it was built from, for panels
    /// built at once and grown, at lengths around the panel edge.
    #[test]
    fn row_view_equals_the_source_rows() {
        let mut rng = DeterministicRng::new(6);
        for len in [1, 63, 64, 65, 4097] {
            let k = awkward_rows(&mut rng, len, 12);
            let whole = KeyPanels::from_rows(&k);
            let mut grown = KeyPanels::new(12);
            let cut = len / 3;
            grown.append(&k.slice_rows(0, cut).unwrap()).unwrap();
            grown.append(&k.slice_rows(cut, len).unwrap()).unwrap();
            for (how, panels) in [("built", &whole), ("grown", &grown)] {
                assert_eq!(bits(panels.to_rows().as_slice()), bits(k.as_slice()), "{how} {len}");
                let mut key = vec![f32::NAN; 12];
                for j in [0, len / 2, len - 1] {
                    panels.copy_key(j, &mut key);
                    assert_eq!(bits(&key), bits(k.row(j)), "{how} {len}, key {j}");
                }
            }
        }
        assert_eq!(KeyPanels::new(12).to_rows().shape(), (0, 12));
    }

    /// Extras gathered panel to panel equal the panels of the gathered
    /// rows, padding lanes included: one key, keys on both sides of a
    /// panel edge, more than a panel of them, in any order and repeated.
    #[test]
    fn panel_gathered_extras_equal_row_gathered_extras() {
        let mut rng = DeterministicRng::new(7);
        let stripes: Vec<usize> = (0..4097).step_by(31).collect();
        let cases: [(usize, Vec<usize>); 5] = [
            (1, vec![0]),
            (65, vec![0, 63, 64]),
            (300, vec![299, 3, 64, 64, 128]),
            (4097, stripes),
            (70, Vec::new()),
        ];
        for (len, indices) in cases {
            let k = awkward_rows(&mut rng, len, 12);
            let mut rows = Matrix::zeros(indices.len(), 12);
            for (r, &j) in indices.iter().enumerate() {
                rows.row_mut(r).copy_from_slice(k.row(j));
            }
            let got = KeyPanels::from_rows(&k).gathered(&indices);
            let want = KeyPanels::from_rows(&rows);
            assert_eq!((got.len(), got.dim()), (indices.len(), 12), "{len}");
            assert_eq!(bits(got.as_slice()), bits(want.as_slice()), "{len}");
            assert!(indices.is_empty() || sa_tensor::starts_on_line(got.as_slice()));
        }
    }

    /// Sentinel A counts non-finite keys over the panel buffer: its
    /// padding lanes are zero, so the count is the rows' count, with a
    /// NaN in a live lane of a partial panel.
    #[test]
    fn nonfinite_count_over_panels_equals_the_count_over_rows() {
        let mut rng = DeterministicRng::new(8);
        let mut k = rng.normal_matrix(70, 12, 1.0);
        let before = KeyPanels::from_rows(&k);
        assert_eq!(sa_tensor::count_nonfinite(before.as_slice()), 0);
        // Panel 1 holds keys 64..70: lane 5 is its last live one.
        k.set(69, 3, f32::NAN);
        k.set(66, 0, f32::INFINITY);
        k.set(2, 11, f32::NEG_INFINITY);
        let panels = KeyPanels::from_rows(&k);
        assert_eq!(panels.as_slice().len(), 2 * 12 * BLOCK);
        let rows = sa_tensor::count_nonfinite(k.as_slice());
        assert_eq!(rows, 3);
        assert_eq!(sa_tensor::count_nonfinite(panels.as_slice()), rows);
    }

    #[test]
    fn panels_start_on_a_cache_line_however_they_were_built() {
        let mut rng = DeterministicRng::new(5);
        let k = rng.normal_matrix(300, 12, 1.0);
        let aligned = |p: &KeyPanels| sa_tensor::starts_on_line(p.as_slice());
        assert!(aligned(&KeyPanels::from_rows(&k)));
        assert!(aligned(&KeyPanels::from_rows(&k).gathered(&[3, 200, 7])));
        // A prompt, then one key per decode step: a key that opens a
        // panel outgrows the allocation, and the storage moves.
        let mut grown = KeyPanels::from_rows(&k.slice_rows(0, 50).unwrap());
        let mut moves = 0;
        for j in 50..300 {
            let before = grown.as_slice().as_ptr();
            grown.append(&k.slice_rows(j, j + 1).unwrap()).unwrap();
            moves += usize::from(grown.as_slice().as_ptr() != before);
            assert!(aligned(&grown), "after key {j}");
            assert!(aligned(&grown.clone()), "a clone after key {j}");
        }
        assert!(moves >= 3, "the appends crossed {moves} reallocations");
        assert_eq!(
            bits(grown.as_slice()),
            bits(KeyPanels::from_rows(&k).as_slice())
        );
    }

    #[test]
    fn panel_scores_are_strict_order_dot_products() {
        let mut rng = DeterministicRng::new(4);
        let k = rng.normal_matrix(70, 12, 1.0);
        let q = rng.normal_matrix(4, 12, 1.0);
        let panels = KeyPanels::from_rows(&k);
        let scale = 0.37;
        // Baseline always; the AVX2 and AVX-512 builds where the CPU has them.
        for (isa, p) in Isa::every()
            .into_iter()
            .flat_map(|isa| [(isa, 0), (isa, 1)])
        {
            let mut quad = [[0.0f32; BLOCK]; 4];
            let [a, b, c, e] = &mut quad;
            let rows = [q.row(0), q.row(1), q.row(2), q.row(3)];
            panels.score_panel(isa, p, rows, scale, [a, b, c, e]);
            let mut pair = [[0.0f32; BLOCK]; 2];
            let [a, b] = &mut pair;
            panels.score_panel(isa, p, [q.row(2), q.row(3)], scale, [a, b]);
            let mut alone = [0.0f32; BLOCK];
            panels.score_panel(isa, p, [q.row(3)], scale, [&mut alone]);
            assert_eq!(
                bits(&pair[0]),
                bits(&quad[2]),
                "grouping must not change a row"
            );
            assert_eq!(
                bits(&pair[1]),
                bits(&quad[3]),
                "grouping must not change a row"
            );
            assert_eq!(
                bits(&alone),
                bits(&quad[3]),
                "grouping must not change a row"
            );
            for (r, got) in quad.iter().enumerate() {
                for (t, &s) in got.iter().enumerate() {
                    let want = if p * BLOCK + t < 70 {
                        let mut acc = 0.0f32;
                        for (&x, &y) in q.row(r).iter().zip(k.row(p * BLOCK + t)) {
                            acc = sa_tensor::fma(x, y, acc);
                        }
                        acc * scale
                    } else {
                        0.0
                    };
                    assert_eq!(
                        s.to_bits(),
                        want.to_bits(),
                        "{} panel {p} row {r} lane {t}",
                        isa.name()
                    );
                }
            }
        }
    }

}
