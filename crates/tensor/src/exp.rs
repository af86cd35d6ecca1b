//! The workspace's one `f32` exponential.
//!
//! Every `exp` on the pipeline path — the online-softmax fold, the
//! softmax rows of stage 1 and the reference kernels, `log_sum_exp`,
//! `silu` in `sa-model` — is this function, so no output bit depends on
//! the platform's libm. It is plain Rust: IEEE multiplies, adds and
//! subtracts in one fixed order (Rust never contracts `a * b + c`), two
//! integer operations on the bit patterns and two selects; no intrinsic,
//! no table, no call. The body is `#[inline(always)]` and branch-free, so
//! a loop over a slice autovectorises at whatever instruction set the
//! enclosing function is compiled for, and every lane of every width
//! runs the same scalar arithmetic: the result is the same bits on every
//! [`Isa`](crate::Isa) build and on every host.

/// `1.5 · 2²³`: adding it to `|y| < 2²²` rounds `y` to the nearest
/// integer (ties to even, the default IEEE mode — no `floor`, no
/// `roundps`) and leaves that integer in the low bits of the sum's
/// mantissa; subtracting it again gives the integer back as a float.
const ROUND_MAGIC: f32 = 12_582_912.0;

/// `log2(e)`.
const LOG2_E: f32 = std::f32::consts::LOG2_E;

/// Cody–Waite split of `ln 2`: the high part (0.693359375) has nine
/// significant bits, so `n · LN2_HI` is exact for every `|n| ≤ 2¹⁵` and
/// `x − n · LN2_HI` cancels exactly; the low part carries the rest.
const LN2_HI: f32 = 355.0 / 512.0;
const LN2_LO: f32 = -2.121_944_4e-4;

/// `exp(r) ≈ 1 + r + r² · P(r)` on `|r| ≤ ln 2 / 2`, `P` of degree 5
/// evaluated by Horner from `POLY[0]` down (the Cephes `expf`
/// coefficients).
const POLY: [f32; 6] = [
    1.987_569_1e-4,
    1.398_199_9e-3,
    8.333_452e-3,
    4.166_579_6e-2,
    1.666_666_5e-1,
    0.5,
];

/// Inputs below this give `+0.0`: just above `ln` of the smallest normal
/// f32 (−87.3365), so every result the scaling step builds has a normal
/// exponent field. `exp(EXP_CUTOFF) ≈ 1.18e-38`.
const EXP_CUTOFF: f32 = -87.33;

/// The largest input with a finite result; above it the result is `inf`.
const EXP_MAX: f32 = 88.722_83;

/// `e^x`, within 1 ulp of the correctly rounded value on
/// `[-87.33, 88.72283]`.
///
/// Exact cases: `exp(±0.0) == 1.0`; `x < -87.33` (including `-inf`)
/// gives `+0.0` — results that libm would return as subnormals flush to
/// zero; `x > 88.72283` (including `+inf`) gives `inf`; NaN gives NaN.
///
/// ```
/// assert_eq!(sa_tensor::exp(0.0), 1.0);
/// assert_eq!(sa_tensor::exp(f32::NEG_INFINITY).to_bits(), 0.0f32.to_bits());
/// assert!((sa_tensor::exp(1.0) - std::f32::consts::E).abs() < 3e-7);
/// ```
#[inline(always)]
pub fn exp(x: f32) -> f32 {
    // n = round(x / ln 2), as a float and in the low mantissa bits of
    // `shifted`.
    let shifted = x * LOG2_E + ROUND_MAGIC;
    let n = shifted - ROUND_MAGIC;
    // r = x − n · ln 2, |r| ≤ ln 2 / 2 (+ a rounding of `x · LOG2_E`).
    let r = (x - n * LN2_HI) - n * LN2_LO;
    let mut p = POLY[0];
    for &c in &POLY[1..] {
        p = p * r + c;
    }
    let y = (p * (r * r) + r) + 1.0;
    // y · 2ⁿ: y is in [0.70, 1.42], so adding n to its exponent field is
    // the multiplication, and stays inside the field for every x the
    // selects below let through (n = −126 only with y ≥ 1, n = 128 only
    // with y < 1). `ROUND_MAGIC`'s low nine bits are zero, so the shift
    // leaves `n << 23` (mod 2³²). Outside that range the lanes compute
    // garbage that the selects discard; nothing traps.
    let scaled = f32::from_bits(y.to_bits().wrapping_add(shifted.to_bits() << 23));
    // `x <= EXP_MAX` is false for NaN too, and `NaN + inf` is NaN.
    let finite = if x <= EXP_MAX {
        scaled
    } else {
        x + f32::INFINITY
    };
    if x < EXP_CUTOFF {
        0.0
    } else {
        finite
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::{Isa, IsaBuild};

    /// The correctly rounded result: `f64::exp` rounded to f32.
    fn reference(x: f32) -> f32 {
        f64::from(x).exp() as f32
    }

    /// Distance in units in the last place between two finite floats of
    /// one sign.
    fn ulps(a: f32, b: f32) -> u32 {
        a.to_bits().abs_diff(b.to_bits())
    }

    /// The floats between `a` and `b` (one sign), `step` bit patterns
    /// apart, in order of growing magnitude.
    fn sweep(a: f32, b: f32, step: usize) -> impl Iterator<Item = f32> {
        assert_eq!(a.is_sign_negative(), b.is_sign_negative());
        let (a, b) = (a.to_bits(), b.to_bits());
        (a.min(b)..=a.max(b)).step_by(step).map(f32::from_bits)
    }

    #[test]
    fn within_two_ulp_of_the_rounded_f64_exp_on_a_dense_sweep() {
        // Negative floats from -1e-30 down to the cutoff, positive ones
        // from 1e-30 up to the last finite result: 5 and 3 million
        // samples, every binade covered.
        let negatives = sweep(-1e-30, EXP_CUTOFF, 211);
        let positives = sweep(1e-30, EXP_MAX, 337);
        let mut worst = 0;
        for x in negatives.chain(positives) {
            let (got, want) = (exp(x), reference(x));
            let off = ulps(got, want);
            assert!(off <= 2, "exp({x:e}) = {got:e}, want {want:e}: {off} ulp");
            worst = worst.max(off);
        }
        assert!(worst <= 1, "measured bound is 1 ulp, saw {worst}");
    }

    #[test]
    fn within_two_ulp_around_every_boundary_of_the_reduction() {
        // n = round(x / ln 2) steps at odd multiples of ln 2 / 2, where
        // |r| is largest; multiples of ln 2 are where r changes sign.
        for half_steps in -252i32..=256 {
            let centre = (f64::from(half_steps) * std::f64::consts::LN_2 / 2.0) as f32;
            if !(EXP_CUTOFF..=EXP_MAX).contains(&centre) {
                continue;
            }
            for offset in -64i32..=64 {
                let x = f32::from_bits(centre.to_bits().wrapping_add_signed(offset));
                if (EXP_CUTOFF..=EXP_MAX).contains(&x) && x != 0.0 {
                    let off = ulps(exp(x), reference(x));
                    assert!(off <= 2, "exp({x:e}) is {off} ulp off");
                }
            }
        }
    }

    #[test]
    fn exact_cases() {
        assert_eq!(exp(0.0).to_bits(), 1.0f32.to_bits());
        assert_eq!(exp(-0.0).to_bits(), 1.0f32.to_bits());
        let zero = 0.0f32.to_bits();
        assert_eq!(exp(f32::NEG_INFINITY).to_bits(), zero);
        assert_eq!(exp(f32::MIN).to_bits(), zero);
        assert_eq!(exp(-1.0e4).to_bits(), zero);
        assert_eq!(exp(-104.0).to_bits(), zero);
        let below = f32::from_bits(EXP_CUTOFF.to_bits() + 1);
        assert!(below < EXP_CUTOFF);
        assert_eq!(exp(below).to_bits(), zero);
        // The cutoff itself still has a normal result.
        assert!(exp(EXP_CUTOFF) >= f32::MIN_POSITIVE);
        assert!(ulps(exp(EXP_CUTOFF), reference(EXP_CUTOFF)) <= 1);
        assert!(exp(f32::NAN).is_nan());
        assert!(exp(-f32::NAN).is_nan());
        assert!(exp(f32::from_bits(0x7FC0_0001)).is_nan());
        assert!(exp(f32::from_bits(0x7F80_0001)).is_nan());
        // Overflow: the last finite result, then `inf`.
        assert!(exp(EXP_MAX).is_finite());
        assert!(ulps(exp(EXP_MAX), reference(EXP_MAX)) <= 1);
        let above = f32::from_bits(EXP_MAX.to_bits() + 1);
        assert_eq!(reference(above), f32::INFINITY);
        for x in [above, 89.0, 128.0, 1.0e4, f32::MAX, f32::INFINITY] {
            assert_eq!(exp(x), f32::INFINITY, "exp({x:e})");
        }
    }

    #[test]
    fn monotone_across_the_reduction_boundaries() {
        // Softmax weights must not reorder scores: a step of n may not
        // make the result rise as x falls.
        let mut last = 1.0f32;
        for x in sweep(-1e-3, -30.0, 97) {
            let y = exp(x);
            assert!(y <= last, "exp({x:e}) = {y:e} after {last:e}");
            last = y;
        }
    }

    fn exp_slice(xs: &mut [f32]) {
        for x in xs {
            *x = exp(*x);
        }
    }

    #[cfg(target_arch = "x86_64")]
    #[target_feature(enable = "avx2,fma")]
    fn exp_slice_avx2(xs: &mut [f32]) {
        exp_slice(xs);
    }

    #[cfg(target_arch = "x86_64")]
    #[target_feature(enable = "avx2,fma,avx512f")]
    fn exp_slice_avx512(xs: &mut [f32]) {
        exp_slice(xs);
    }

    #[test]
    fn a_slice_on_every_build_equals_the_scalar_call_bitwise() {
        // Inlined into a loop the body vectorises, at the width of the
        // enclosing function's instruction set; run at --release by
        // scripts/verify.sh, since only optimised code differs.
        let mut inputs: Vec<f32> = sweep(-1e-20, -120.0, 40_009)
            .chain(sweep(1e-20, 100.0, 50_021))
            .collect();
        inputs.extend([
            0.0,
            -0.0,
            f32::NAN,
            f32::INFINITY,
            f32::NEG_INFINITY,
            EXP_CUTOFF,
            EXP_MAX,
            f32::MAX,
            f32::MIN,
        ]);
        let want: Vec<u32> = inputs
            .iter()
            .map(|&x| std::hint::black_box(exp(std::hint::black_box(x))).to_bits())
            .collect();
        for isa in Isa::every() {
            let mut got = inputs.clone();
            match isa.build() {
                #[cfg(target_arch = "x86_64")]
                // SAFETY: an `Isa` names AVX-512 only when `avx2`, `fma`
                // and `avx512f` were detected on this CPU.
                IsaBuild::Avx512 => unsafe { exp_slice_avx512(&mut got) },
                #[cfg(target_arch = "x86_64")]
                // SAFETY: an `Isa` names AVX2 only when `avx2` and `fma`
                // were detected on this CPU.
                IsaBuild::Avx2 => unsafe { exp_slice_avx2(&mut got) },
                _ => exp_slice(&mut got),
            }
            for ((&x, got), &want) in inputs.iter().zip(&got).zip(&want) {
                // NaN payloads are not part of the contract.
                if x.is_nan() {
                    assert!(got.is_nan());
                } else {
                    assert_eq!(got.to_bits(), want, "exp({x:e}) on {}", isa.name());
                }
            }
        }
    }
}
