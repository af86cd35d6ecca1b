//! The contract of `sa_tensor::exp`, the one exponential on the pipeline
//! path, checked from outside the crate: its error against the correctly
//! rounded value, its exact cases, that the vectorised instances inside
//! the dispatched fold are the scalar function bit for bit on every
//! build, and that the softmax built on it still normalises.

use sample_attention::tensor::{
    exp, online_softmax_update_tile_on, softmax_row, DeterministicRng, Isa, Matrix,
    OnlineSoftmaxState, FOLD_KEYS,
};

/// The documented domain (DESIGN.md §6): below the cutoff the result is
/// `+0.0`, above the last finite result it is `inf`.
const EXP_CUTOFF: f32 = -87.33;
const EXP_MAX: f32 = 88.722_83;

fn reference(x: f32) -> f32 {
    f64::from(x).exp() as f32
}

fn ulps(a: f32, b: f32) -> u32 {
    a.to_bits().abs_diff(b.to_bits())
}

#[test]
fn exp_is_within_two_ulp_of_the_rounded_f64_value_and_exact_at_the_edges() {
    // Every 1009th (negative) and 1511th (positive) float of the domain:
    // about 1.5 million samples across every binade.
    let negatives = ((-1e-30f32).to_bits()..=EXP_CUTOFF.to_bits()).step_by(1009);
    let positives = (1e-30f32.to_bits()..=EXP_MAX.to_bits()).step_by(1511);
    for x in negatives.chain(positives).map(f32::from_bits) {
        let off = ulps(exp(x), reference(x));
        assert!(off <= 2, "exp({x:e}) is {off} ulp off");
    }
    // Around every step of the range reduction, n = round(x / ln 2).
    for half_steps in -252i32..=256 {
        let centre = (f64::from(half_steps) * std::f64::consts::LN_2 / 2.0) as f32;
        for offset in -16i32..=16 {
            let x = f32::from_bits(centre.to_bits().wrapping_add_signed(offset));
            if (EXP_CUTOFF..=EXP_MAX).contains(&x) && x != 0.0 {
                let off = ulps(exp(x), reference(x));
                assert!(off <= 2, "exp({x:e}) is {off} ulp off");
            }
        }
    }
    assert_eq!(exp(0.0).to_bits(), 1.0f32.to_bits());
    assert_eq!(exp(-0.0).to_bits(), 1.0f32.to_bits());
    let below = f32::from_bits(EXP_CUTOFF.to_bits() + 1);
    for x in [below, -104.0, -1.0e4, f32::MIN, f32::NEG_INFINITY] {
        assert_eq!(exp(x).to_bits(), 0.0f32.to_bits(), "exp({x:e})");
    }
    assert!(exp(EXP_CUTOFF) >= f32::MIN_POSITIVE);
    assert!(exp(f32::NAN).is_nan());
    assert!(exp(EXP_MAX).is_finite());
    let above = f32::from_bits(EXP_MAX.to_bits() + 1);
    for x in [above, 89.0, 1.0e4, f32::MAX, f32::INFINITY] {
        assert_eq!(exp(x), f32::INFINITY, "exp({x:e})");
    }
}

#[test]
fn fold_weights_on_every_build_are_the_scalar_exp() {
    // Folding a fresh state over identity value rows leaves the block's
    // weights in `acc` untouched (`0.0 + w · 1.0`, then `+ w' · 0.0`), so
    // the exponentials the dispatched tile fold computes eight or four to
    // a register can be read back and held to the scalar call.
    let identity = Matrix::from_fn(FOLD_KEYS, FOLD_KEYS, |t, c| f32::from(t == c));
    let mut rng = DeterministicRng::new(0xE4B);
    // Scores spread far enough that some weights fall below the cutoff.
    let mut tile = rng.normal_matrix(FOLD_KEYS, FOLD_KEYS, 30.0).into_vec();
    tile[5 * FOLD_KEYS + 9] = f32::NEG_INFINITY;
    let live: Vec<(usize, usize)> = (0..FOLD_KEYS)
        .map(|r| {
            if r % 4 == 3 {
                (r / 2, FOLD_KEYS)
            } else {
                (0, FOLD_KEYS)
            }
        })
        .collect();
    for isa in Isa::every() {
        let mut states = vec![OnlineSoftmaxState::new(FOLD_KEYS); FOLD_KEYS];
        online_softmax_update_tile_on(isa, &mut states, &tile, &live, identity.as_slice());
        let mut flushed = 0;
        for (r, (state, &(lo, hi))) in states.iter().zip(&live).enumerate() {
            let scores = &tile[r * FOLD_KEYS..][..FOLD_KEYS];
            let max = scores[lo..hi].iter().copied().fold(f32::MIN, f32::max);
            assert_eq!(state.row_max.to_bits(), max.to_bits());
            for (t, (&got, &s)) in state.acc.iter().zip(scores).enumerate() {
                let live = (lo..hi).contains(&t);
                let want = if live { exp(s - max) } else { 0.0 };
                flushed += usize::from(live && want == 0.0);
                assert_eq!(
                    got.to_bits(),
                    want.to_bits(),
                    "row {r} key {t} on {}",
                    isa.name()
                );
            }
        }
        assert!(flushed > 1, "the tile should reach below the cutoff");
    }
}

#[test]
fn softmax_rows_still_sum_to_one_and_masked_rows_stay_zero() {
    let mut rng = DeterministicRng::new(0xE4C);
    for len in [1usize, 7, 64, 1000, 4097] {
        let mut row = rng.normal_matrix(1, len, 4.0).into_vec();
        if len > 2 {
            row[len / 2] = f32::NEG_INFINITY;
        }
        softmax_row(&mut row);
        let sum: f64 = row.iter().map(|&p| f64::from(p)).sum();
        assert!((sum - 1.0).abs() < 1e-6, "len {len}: sums to {sum}");
        assert!(row.iter().all(|&p| (0.0..=1.0).contains(&p)));
        if len > 2 {
            assert_eq!(row[len / 2].to_bits(), 0.0f32.to_bits());
        }
    }
    let mut masked = vec![f32::NEG_INFINITY; 33];
    softmax_row(&mut masked);
    assert!(masked.iter().all(|&p| p.to_bits() == 0.0f32.to_bits()));
}
