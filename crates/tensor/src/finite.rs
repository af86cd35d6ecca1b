//! Counting non-finite values: the scan behind the attention pipeline's
//! health sentinels.
//!
//! A value is non-finite (NaN or ±infinity) exactly when its eight
//! exponent bits are all ones, whatever its sign and payload. Testing
//! those bits is an integer AND and compare per lane, with no float
//! comparison that a NaN could make unordered, so the count is one
//! exact integer on every build. The scan reads every element of Q, K
//! and V once per head call, so like the engine's other inner loops it
//! is one body compiled for each [`Isa`] build.

use crate::{Isa, IsaBuild};

/// The exponent field of an `f32`: all ones means NaN or infinity.
const EXPONENT: u32 = 0x7f80_0000;

/// Values a `u32` count adds before it is folded into the total, so it
/// can never overflow.
const BLOCK: usize = 1 << 16;

/// How many of `xs` are NaN or ±infinity, on the build this CPU runs.
#[inline]
pub fn count_nonfinite(xs: &[f32]) -> usize {
    count_nonfinite_on(Isa::detect(), xs)
}

/// [`count_nonfinite`] on the build `isa` names. Every build returns the
/// same integer: the count does not depend on the order of its tests.
#[inline]
fn count_nonfinite_on(isa: Isa, xs: &[f32]) -> usize {
    match isa.build() {
        #[cfg(target_arch = "x86_64")]
        // SAFETY: an `Isa` names AVX-512 only when `Isa::detect` found
        // `avx2`, `fma` and `avx512f` on this CPU.
        IsaBuild::Avx512 => unsafe { count_nonfinite_avx512(xs) },
        #[cfg(target_arch = "x86_64")]
        // SAFETY: an `Isa` names AVX2 only when `Isa::detect` found `avx2`
        // and `fma` on this CPU.
        IsaBuild::Avx2 => unsafe { count_nonfinite_avx2(xs) },
        _ => count_lanes(xs),
    }
}

/// The count compiled with AVX2 (it has no product to fuse).
#[cfg(target_arch = "x86_64")]
#[target_feature(enable = "avx2,fma")]
fn count_nonfinite_avx2(xs: &[f32]) -> usize {
    count_lanes(xs)
}

/// The count compiled with AVX-512F.
#[cfg(target_arch = "x86_64")]
#[target_feature(enable = "avx2,fma,avx512f")]
fn count_nonfinite_avx512(xs: &[f32]) -> usize {
    count_lanes(xs)
}

/// The one body of the count: a block's tests are independent and
/// integer addition associates, so the optimiser keeps one counter per
/// vector lane.
#[inline(always)]
fn count_lanes(xs: &[f32]) -> usize {
    xs.chunks(BLOCK)
        .map(|block| {
            block
                .iter()
                .map(|x| u32::from(x.to_bits() & EXPONENT == EXPONENT))
                .sum::<u32>() as usize
        })
        .sum()
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::DeterministicRng;

    fn oracle(xs: &[f32]) -> usize {
        xs.iter().filter(|x| !x.is_finite()).count()
    }

    /// Every value class the exponent test must sort: NaNs with quiet,
    /// signalling and sign-flipped payloads, both infinities, both
    /// zeros, subnormals, the extremes of the normal range.
    fn specials() -> Vec<f32> {
        vec![
            f32::NAN,
            -f32::NAN,
            f32::from_bits(0x7f80_0001),
            f32::from_bits(0xff80_0001),
            f32::from_bits(0x7fbf_ffff),
            f32::from_bits(0x7fff_ffff),
            f32::from_bits(0xffc0_1234),
            f32::INFINITY,
            f32::NEG_INFINITY,
            0.0,
            -0.0,
            f32::from_bits(1),
            f32::from_bits(0x8000_0001),
            f32::from_bits(0x007f_ffff),
            f32::MIN_POSITIVE,
            f32::MAX,
            f32::MIN,
            1.0,
            -3.5,
        ]
    }

    #[test]
    fn the_count_equals_the_scalar_oracle_on_every_build() {
        let specials = specials();
        let mut rng = DeterministicRng::new(0xf1);
        // Ragged lengths around the vector widths, and past a few hundred.
        let lengths = [0, 1, 3, 15, 16, 17, 63, 64, 65, 127, 128, 129, 1000, 4099];
        for &len in &lengths {
            for density in [0.0, 0.01, 0.3, 1.0] {
                let xs: Vec<f32> = (0..len)
                    .map(|_| {
                        if rng.chance(density) {
                            specials[rng.index(specials.len())]
                        } else {
                            rng.normal()
                        }
                    })
                    .collect();
                let want = oracle(&xs);
                for isa in Isa::every() {
                    assert_eq!(
                        count_nonfinite_on(isa, &xs),
                        want,
                        "{} build, {len} values at density {density}",
                        isa.name()
                    );
                }
                assert_eq!(count_nonfinite(&xs), want);
            }
        }
    }

    #[test]
    fn each_value_class_counts_as_the_oracle_says() {
        for x in specials() {
            for isa in Isa::every() {
                // Alone, and in the last lane of a vector and the tail.
                let mut chunk = vec![0.0f32; 69];
                chunk[63] = x;
                chunk[66] = x;
                assert_eq!(count_nonfinite_on(isa, &[x]), oracle(&[x]), "{x:?}");
                assert_eq!(count_nonfinite_on(isa, &chunk), oracle(&chunk), "{x:?}");
            }
        }
    }

    #[test]
    fn the_count_spans_blocks() {
        // Past one block, every value non-finite.
        let xs = vec![f32::INFINITY; 2 * BLOCK + 7];
        for isa in Isa::every() {
            assert_eq!(count_nonfinite_on(isa, &xs), xs.len(), "{}", isa.name());
        }
    }
}
