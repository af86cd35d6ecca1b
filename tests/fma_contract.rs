//! The contract of `sa_tensor::fma`, the fused multiply-add of every
//! build without the instruction, checked from outside the crate: it is
//! bit for bit the CPU's `vfmadd` (one rounding of the exact `a · b + c`)
//! on random operands and on every edge IEEE 754 has — signed zeros,
//! subnormals, infinities, NaN, overflow, cancellation and the halfway
//! cases a double rounding gets wrong — both called one at a time and
//! inlined into a loop the optimiser vectorises.

use sample_attention::tensor::{fma, DeterministicRng};

/// `a[i] · b[i] + c[i]` with the CPU's FMA instruction where it has one;
/// elsewhere libm's correctly rounded `fmaf`, which only this test calls.
fn reference(a: &[f32], b: &[f32], c: &[f32]) -> Vec<f32> {
    #[cfg(target_arch = "x86_64")]
    if std::arch::is_x86_feature_detected!("fma") {
        // SAFETY: the CPU reported `fma`.
        return unsafe { hardware(a, b, c) };
    }
    println!("this CPU lacks FMA: holding sa_tensor::fma to libm's fmaf instead");
    zip3(a, b, c, f32::mul_add)
}

#[cfg(target_arch = "x86_64")]
#[target_feature(enable = "fma")]
fn hardware(a: &[f32], b: &[f32], c: &[f32]) -> Vec<f32> {
    zip3(a, b, c, f32::mul_add)
}

#[inline(always)]
fn zip3(a: &[f32], b: &[f32], c: &[f32], f: impl Fn(f32, f32, f32) -> f32) -> Vec<f32> {
    a.iter()
        .zip(b)
        .zip(c)
        .map(|((&a, &b), &c)| f(a, b, c))
        .collect()
}

/// Holds `fma` to the reference on every triple, inlined into a loop and
/// called through an opaque boundary one triple at a time.
fn assert_matches(label: &str, a: &[f32], b: &[f32], c: &[f32]) {
    let want = reference(a, b, c);
    let looped = zip3(a, b, c, fma);
    for (i, &want) in want.iter().enumerate() {
        let (x, y, z) = (a[i], b[i], c[i]);
        let called = std::hint::black_box(fma)(x, y, z);
        for (how, got) in [("in a loop", looped[i]), ("called", called)] {
            // NaN payloads are not part of the contract.
            if want.is_nan() {
                assert!(
                    got.is_nan(),
                    "{label}: fma({x:e}, {y:e}, {z:e}) {how} is {got:e}"
                );
            } else {
                assert_eq!(
                    got.to_bits(),
                    want.to_bits(),
                    "{label}: fma({x:e}, {y:e}, {z:e}) {how} is {got:e}, want {want:e}"
                );
            }
        }
    }
}

fn triples(n: usize, mut draw: impl FnMut() -> (f32, f32, f32)) -> (Vec<f32>, Vec<f32>, Vec<f32>) {
    let mut t = (
        Vec::with_capacity(n),
        Vec::with_capacity(n),
        Vec::with_capacity(n),
    );
    for _ in 0..n {
        let (a, b, c) = draw();
        t.0.push(a);
        t.1.push(b);
        t.2.push(c);
    }
    t
}

fn sign(rng: &mut DeterministicRng) -> f32 {
    if rng.chance(0.5) {
        -1.0
    } else {
        1.0
    }
}

/// `2^e` for any `e` an f32 holds, subnormal included.
fn pow2(e: i32) -> f32 {
    (2.0f64).powi(e) as f32
}

#[test]
fn every_combination_of_edge_values() {
    let min_sub = f32::from_bits(1);
    let max_sub = f32::from_bits(0x007F_FFFF);
    let values = [
        0.0,
        -0.0,
        1.0,
        -1.0,
        1.0 + f32::EPSILON,
        1.0 - f32::EPSILON / 2.0,
        0.1,
        -3.0e-20,
        min_sub,
        -min_sub,
        max_sub,
        f32::MIN_POSITIVE,
        -f32::MIN_POSITIVE,
        f32::MAX,
        f32::MIN,
        f32::INFINITY,
        f32::NEG_INFINITY,
        f32::NAN,
        pow2(64),
        pow2(-64),
    ];
    let mut t = (Vec::new(), Vec::new(), Vec::new());
    for &a in &values {
        for &b in &values {
            for &c in &values {
                t.0.push(a);
                t.1.push(b);
                t.2.push(c);
            }
        }
    }
    assert_matches("edge values", &t.0, &t.1, &t.2);
}

#[test]
fn random_operands_of_every_kind() {
    let mut rng = DeterministicRng::new(0xF3A);
    // Any bit pattern: every binade, NaN and infinity included.
    let (a, b, c) = triples(200_000, || {
        let mut bits = || f32::from_bits(rng.next_u64() as u32);
        (bits(), bits(), bits())
    });
    assert_matches("random bits", &a, &b, &c);
    // Attention-scale values, and sums that cancel the product almost
    // entirely, where the low bits of the exact product decide.
    let (a, b, c) = triples(200_000, || {
        let (a, b) = (rng.normal() * 4.0, rng.normal() * 4.0);
        let c = if rng.chance(0.5) {
            -(a * b) * (1.0 + (rng.normal() * 1e-6))
        } else {
            rng.normal() * 10.0
        };
        (a, b, c)
    });
    assert_matches("normal values and cancellation", &a, &b, &c);
    // Products and sums in and around the subnormal range.
    let (a, b, c) = triples(200_000, || {
        let e = rng.index(60) as i32 - 90;
        let a = sign(&mut rng) * (1.0 + rng.uniform()) * pow2(e);
        let b = sign(&mut rng) * (1.0 + rng.uniform()) * pow2(-60 - rng.index(20) as i32);
        let c = if rng.chance(0.5) {
            f32::from_bits(rng.next_u64() as u32 & 0x807F_FFFF)
        } else {
            -(a * b)
        };
        (a, b, c)
    });
    assert_matches("subnormal range", &a, &b, &c);
    // Products and sums that overflow, or just fail to.
    let (a, b, c) = triples(100_000, || {
        let a = sign(&mut rng) * (1.0 + rng.uniform()) * pow2(64 + rng.index(4) as i32);
        let b = sign(&mut rng) * (1.0 + rng.uniform()) * pow2(60 + rng.index(4) as i32);
        let c = sign(&mut rng) * f32::MAX * rng.uniform();
        (a, b, c)
    });
    assert_matches("overflow", &a, &b, &c);
}

#[test]
fn halfway_cases_round_once() {
    // `c + a · b` where `a · b` is half an ulp of `c` give or take far
    // less than f64 resolves: `(1 + n·2⁻²³)(1 − n·2⁻²³) · ulp/2` is just
    // below the tie, and a nearest-even f64 sum lands on it exactly, so a
    // double rounding picks the even neighbour whatever the exact value
    // says. Signs and `c` random, so either neighbour is the even one.
    let mut rng = DeterministicRng::new(0xF3B);
    let (a, b, c) = triples(100_000, || {
        let exponent = rng.index(200) as i32 - 100;
        let c = sign(&mut rng) * (1.0 + rng.uniform()) * pow2(exponent);
        let half_ulp = pow2(exponent - 24);
        // n² · ulp/2 stays under half an f64 ulp of c for n ≤ 2⁸ · 2⁻²³.
        let n = (1 + rng.index(1 << 8)) as f32 * f32::EPSILON;
        let (up, down) = (1.0 + n, 1.0 - n);
        let (a, b) = match rng.index(3) {
            0 => (up, down * half_ulp),
            1 => (down, up * half_ulp),
            // Exactly half an ulp: a true tie, which goes to even.
            _ => (1.0, half_ulp),
        };
        (sign(&mut rng) * a, sign(&mut rng) * b, c)
    });
    assert_matches("halfway", &a, &b, &c);
    // The tie-minus-a-hair cases do tell the roundings apart.
    let double: usize = (0..a.len())
        .filter(|&i| {
            let twice = (f64::from(a[i]) * f64::from(b[i]) + f64::from(c[i])) as f32;
            twice.to_bits() != fma(a[i], b[i], c[i]).to_bits()
        })
        .count();
    assert!(
        double > 10_000,
        "only {double} cases separate one rounding from two"
    );
}
