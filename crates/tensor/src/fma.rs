//! The workspace's one fused multiply-add.
//!
//! Every product the engine accumulates — a lane of the score panel, step
//! 5 of the online-softmax fold, a lane of the packed GEMM, and the scalar
//! references each is held to — is `acc = a · b + acc` rounded once. IEEE
//! 754 defines that result exactly, so it is the same bits whichever
//! instruction computes it: the dispatched bodies compiled with `fma`
//! issue `vfmadd`, and a build without hardware FMA uses [`fma`], an exact
//! emulation in plain Rust. Neither calls the platform's libm (`fmaf`),
//! which `scripts/verify.sh` checks on the release objects.

/// `a · b + c` with a single rounding to nearest-even: bit for bit what
/// `f32::mul_add` (and the `vfmadd` instructions) return, computed
/// without an FMA instruction and without libm.
///
/// The f32 × f32 product has at most 48 significant bits, so it is exact
/// in f64, and so is every sum of it with an f32 (no overflow, and both
/// are multiples of 2⁻²⁹⁸, far above f64's subnormals). The f64 addition
/// is then rounded *to odd* — the nearest-even sum, moved one ulp towards
/// the exact value when it was inexact and landed on an even significand
/// — which keeps 53 ≥ 24 + 2 bits and the sticky information, so the
/// final rounding to f32 is the one correct rounding of the exact value.
/// NaN in, or `inf · 0`, gives NaN; NaN payloads are not part of the
/// contract.
///
/// ```
/// let (a, b, c) = (1.0 + f32::EPSILON, 1.0 - f32::EPSILON, -1.0);
/// // The exact product is 1 - 2⁻⁴⁶; a rounded product would be 1.0.
/// assert_eq!(sa_tensor::fma(a, b, c), -(2.0f32.powi(-46)));
/// assert_eq!(a * b + c, 0.0);
/// ```
#[inline(always)]
pub fn fma(a: f32, b: f32, c: f32) -> f32 {
    let p = f64::from(a) * f64::from(b);
    let c = f64::from(c);
    let s = p + c;
    // Knuth's two-sum: `s + err` is `p + c` exactly (both finite).
    let pv = s - p;
    let err = (p - (s - pv)) + (c - pv);
    let bits = s.to_bits();
    let odd = if s.is_finite() && err != 0.0 && bits & 1 == 0 {
        // The exact sum lies between `s` and its neighbour towards `err`;
        // that neighbour is the odd one.
        let away = (err > 0.0) == (s > 0.0);
        f64::from_bits(if away { bits + 1 } else { bits - 1 })
    } else {
        s
    };
    odd as f32
}

/// `a · b + c` rounded once, as a dispatched loop body spells it: `FUSED`
/// is `true` in the builds compiled with `fma`, where `f32::mul_add` is
/// one instruction, and `false` in the baseline build, which gets
/// [`fma`]. Both are the same bits.
#[inline(always)]
pub fn mul_add<const FUSED: bool>(a: f32, b: f32, c: f32) -> f32 {
    if FUSED {
        a.mul_add(b, c)
    } else {
        fma(a, b, c)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn single_rounding_where_two_roundings_differ() {
        let e = f32::EPSILON;
        // (1 + e)(1 - e) - 1 = -e² exactly.
        assert_eq!(fma(1.0 + e, 1.0 - e, -1.0), -e * e);
        // The case double rounding through f64 gets wrong: the exact value
        // is 1 + 2⁻²³ + 2⁻²⁴ − 2⁻⁶⁰, just below the tie between 1 + e and
        // 1 + 2e, so it rounds down; a nearest-even f64 sum lands on the
        // tie, which rounds up to the even 1 + 2e.
        let (a, b, c) = (
            1.0 + 2.0f32.powi(-18),
            (1.0 - 2.0f32.powi(-18)) * e / 2.0,
            1.0 + e,
        );
        assert_eq!(fma(a, b, c), 1.0 + e);
        assert_eq!(
            (f64::from(a) * f64::from(b) + f64::from(c)) as f32,
            1.0 + 2.0 * e
        );
        assert_eq!(fma(2.0, 3.0, 4.0), 10.0);
        assert_eq!(fma(-0.0, 1.0, -0.0).to_bits(), (-0.0f32).to_bits());
        assert_eq!(fma(-0.0, 1.0, 0.0).to_bits(), 0.0f32.to_bits());
        assert!(fma(f32::INFINITY, 0.0, 1.0).is_nan());
        assert!(fma(f32::NAN, 1.0, 1.0).is_nan());
        assert_eq!(fma(f32::MAX, 2.0, 0.0), f32::INFINITY);
        assert_eq!(fma(f32::MAX, 2.0, f32::NEG_INFINITY), f32::NEG_INFINITY);
    }

    #[test]
    fn both_spellings_agree() {
        let inputs = [0.1f32, -3.5, 1e-20, 7.0e30, -0.0, 1.0 + f32::EPSILON];
        for &a in &inputs {
            for &b in &inputs {
                for &c in &inputs {
                    assert_eq!(mul_add::<false>(a, b, c).to_bits(), fma(a, b, c).to_bits());
                }
            }
        }
    }
}
