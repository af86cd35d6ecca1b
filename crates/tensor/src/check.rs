//! A property-testing mini-harness: the hermetic replacement for
//! `proptest` (see DESIGN.md, "Hermetic build policy").
//!
//! A property is a closure over a [`Gen`] that draws whatever random
//! inputs it needs and asserts with the ordinary `assert!` family.
//! [`run_cases`] runs it over `CASES` (32) deterministically derived
//! seeds; when a case fails, the harness prints the case's seed and a
//! one-line reproduction recipe before propagating the panic:
//!
//! ```text
//! property 'softmax_rows_sum_to_one' failed at case 17/32
//!   rerun just this case with: SA_PROP_SEED=0x8c5f... cargo test ...
//! ```
//!
//! Environment knobs:
//!
//! - `SA_PROP_SEED=<u64, 0x-hex ok>` — run each property once, on exactly
//!   that seed (the failure-reproduction path);
//! - `SA_PROP_CASES=<n>` — scale every property's case count by
//!   `n / CASES`: [`run_cases`] runs exactly `n` cases, and a
//!   [`run_cases_n`] property with its own count keeps its share of them
//!   (e.g. a nightly soak at 10_000 cases runs an 8-case property 2_500
//!   times).
//!
//! There is no shrinking: cases are independent and seeds reproduce a
//! failure exactly, which has proven enough at this input scale — sizes
//! are small by construction, not by shrinkage.
//!
//! ```
//! use sa_tensor::check::run_cases;
//!
//! run_cases("addition_commutes", |g| {
//!     let a = g.f32_in(-100.0, 100.0);
//!     let b = g.f32_in(-100.0, 100.0);
//!     assert_eq!(a + b, b + a);
//! });
//! ```

use crate::xoshiro::splitmix64;
use crate::DeterministicRng;

/// Default number of seeded cases per property.
pub const CASES: usize = 32;

/// The per-case random input source handed to a property.
///
/// Wraps a [`DeterministicRng`] with the small vocabulary of draws the
/// test suites need. Ranges follow the `lo..hi` half-open convention.
#[derive(Debug)]
pub struct Gen {
    rng: DeterministicRng,
    seed: u64,
}

impl Gen {
    /// A generator for the given case seed.
    pub fn new(seed: u64) -> Self {
        Gen {
            rng: DeterministicRng::new(seed),
            seed,
        }
    }

    /// The seed this case was derived from (printed on failure).
    pub fn seed(&self) -> u64 {
        self.seed
    }

    /// Direct access to the underlying distribution helpers.
    pub fn rng(&mut self) -> &mut DeterministicRng {
        &mut self.rng
    }

    /// Uniform `usize` in `[lo, hi)`.
    ///
    /// # Panics
    ///
    /// Panics if `lo >= hi`.
    pub fn usize_in(&mut self, lo: usize, hi: usize) -> usize {
        assert!(lo < hi, "usize_in requires lo < hi, got {lo}..{hi}");
        lo + self.rng.index(hi - lo)
    }

    /// Uniform even `usize` in `[lo, hi)` (for head dimensions, which
    /// RoPE requires to be even).
    pub fn even_in(&mut self, lo: usize, hi: usize) -> usize {
        let v = self.usize_in(lo, hi);
        if v.is_multiple_of(2) {
            v
        } else if v + 1 < hi {
            v + 1
        } else {
            v - 1
        }
    }

    /// Uniform `u64` in `[lo, hi)`.
    pub fn u64_in(&mut self, lo: u64, hi: u64) -> u64 {
        assert!(lo < hi, "u64_in requires lo < hi, got {lo}..{hi}");
        lo + self.rng.next_u64() % (hi - lo)
    }

    /// Uniform `f32` in `[lo, hi)`.
    pub fn f32_in(&mut self, lo: f32, hi: f32) -> f32 {
        self.rng.uniform_range(lo, hi)
    }

    /// Bernoulli draw with probability `p`.
    pub fn chance(&mut self, p: f32) -> bool {
        self.rng.chance(p)
    }

    /// A vector of uniform `f32` draws with a length drawn from
    /// `[min_len, max_len)`.
    pub fn vec_f32(&mut self, lo: f32, hi: f32, min_len: usize, max_len: usize) -> Vec<f32> {
        let len = self.usize_in(min_len, max_len);
        (0..len).map(|_| self.f32_in(lo, hi)).collect()
    }

    /// A vector of uniform `usize` draws with a length drawn from
    /// `[min_len, max_len)`.
    pub fn vec_usize(&mut self, lo: usize, hi: usize, min_len: usize, max_len: usize) -> Vec<usize> {
        let len = self.usize_in(min_len, max_len);
        (0..len).map(|_| self.usize_in(lo, hi)).collect()
    }
}

/// Derives the seed of case `i` of the named property: an FNV-1a hash of
/// the name, mixed with the case index through `splitmix64` so cases are
/// decorrelated across both properties and indices.
pub fn case_seed(name: &str, case: usize) -> u64 {
    let mut h: u64 = 0xCBF2_9CE4_8422_2325;
    for b in name.bytes() {
        h ^= u64::from(b);
        h = h.wrapping_mul(0x0000_0100_0000_01B3);
    }
    let mut state = h ^ (case as u64).wrapping_mul(0x9E37_79B9_7F4A_7C15);
    splitmix64(&mut state)
}

fn env_u64(name: &str) -> Option<u64> {
    let raw = std::env::var(name).ok()?;
    let parsed = match raw.strip_prefix("0x") {
        Some(hex) => u64::from_str_radix(hex, 16),
        None => raw.parse(),
    };
    match parsed {
        Ok(v) => Some(v),
        // Failing the test run loudly is the point: a malformed repro
        // seed must never silently fall back to the full case sweep.
        Err(_) => std::panic::panic_any(format!(
            "{name} must be a u64 (decimal or 0x-hex), got {raw:?}"
        )),
    }
}

/// Runs `property` over [`CASES`] deterministically seeded cases (or
/// `SA_PROP_CASES`; or exactly once on `SA_PROP_SEED`). On failure,
/// prints the case seed and reproduction recipe, then re-panics.
pub fn run_cases<F: Fn(&mut Gen)>(name: &str, property: F) {
    run_cases_n(name, CASES, property)
}

/// [`run_cases`] with its own case count, `cases` when `SA_PROP_CASES`
/// is unset and `cases * SA_PROP_CASES / CASES` (rounded up) otherwise;
/// exactly once on `SA_PROP_SEED`.
pub fn run_cases_n<F: Fn(&mut Gen)>(name: &str, cases: usize, property: F) {
    if let Some(seed) = env_u64("SA_PROP_SEED") {
        let mut g = Gen::new(seed);
        property(&mut g);
        return;
    }
    run_seeded(name, scaled_cases(cases, env_u64("SA_PROP_CASES")), property)
}

/// The case count of a property whose own count is `cases`, under an
/// `SA_PROP_CASES` of `requested`: `cases` when unset, otherwise `cases *
/// requested / CASES` rounded up — `requested` itself for a property of
/// [`CASES`] cases, and the same share of it for every other.
fn scaled_cases(cases: usize, requested: Option<u64>) -> usize {
    match requested {
        None => cases,
        Some(n) => (cases as u64).saturating_mul(n).div_ceil(CASES as u64) as usize,
    }
}

/// Runs `property` over the first `cases` seeds of `name`.
fn run_seeded<F: Fn(&mut Gen)>(name: &str, cases: usize, property: F) {
    for case in 0..cases {
        let seed = case_seed(name, case);
        let mut g = Gen::new(seed);
        let outcome = std::panic::catch_unwind(std::panic::AssertUnwindSafe(|| {
            property(&mut g);
        }));
        if let Err(payload) = outcome {
            eprintln!(
                "property '{name}' failed at case {}/{cases} (seed {seed:#018x})\n  \
                 rerun just this case with: SA_PROP_SEED={seed:#x} cargo test {name}",
                case + 1
            );
            std::panic::resume_unwind(payload);
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn seeds_are_stable_and_distinct() {
        assert_eq!(case_seed("p", 0), case_seed("p", 0));
        assert_ne!(case_seed("p", 0), case_seed("p", 1));
        assert_ne!(case_seed("p", 0), case_seed("q", 0));
    }

    #[test]
    fn gen_ranges_respected() {
        let mut g = Gen::new(1);
        for _ in 0..1000 {
            let u = g.usize_in(3, 9);
            assert!((3..9).contains(&u));
            let f = g.f32_in(-2.0, 5.0);
            assert!((-2.0..5.0).contains(&f));
            let e = g.even_in(1, 10);
            assert!(e.is_multiple_of(2) && (1..10).contains(&e), "{e}");
        }
        let v = g.vec_f32(0.0, 1.0, 2, 5);
        assert!((2..5).contains(&v.len()));
    }

    #[test]
    fn passing_property_runs_all_cases() {
        let count = std::cell::Cell::new(0usize);
        run_seeded("count_cases", 7, |_| count.set(count.get() + 1));
        assert_eq!(count.get(), 7);
    }

    #[test]
    fn failing_property_reports_and_panics() {
        let result = std::panic::catch_unwind(|| {
            run_seeded("always_fails", 3, |g| {
                // Make the failure depend on the drawn input so the
                // harness exercises a real draw.
                let x = g.f32_in(0.0, 1.0);
                assert!(x < 0.0, "drew {x}");
            });
        });
        assert!(result.is_err());
    }

    #[test]
    fn case_counts_scale_with_the_requested_count() {
        // Unset: every property keeps its own count.
        for cases in [1, 8, CASES, 200] {
            assert_eq!(scaled_cases(cases, None), cases);
        }
        // Set: a property of the default count runs exactly the request,
        // every other keeps its share of it, rounded up.
        assert_eq!(scaled_cases(CASES, Some(10_000)), 10_000);
        assert_eq!(scaled_cases(8, Some(10_000)), 2_500);
        assert_eq!(scaled_cases(200, Some(64)), 400);
        assert_eq!(scaled_cases(8, Some(1)), 1);
        assert_eq!(scaled_cases(8, Some(0)), 0);
    }

    #[test]
    fn default_case_count_meets_floor() {
        const { assert!(CASES >= 32) };
    }
}
