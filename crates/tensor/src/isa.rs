//! Which build of the dispatched inner loops runs.
//!
//! The hot loops of the blocked attention engine — the score panel in
//! `sa-kernels`, the online-softmax folds, the per-row softmax, the
//! packed-weight GEMM and the health sentinels' non-finite count in this
//! crate — are each one generic body compiled three times: for the
//! target's baseline instruction set and, on x86-64, with AVX2 + FMA and
//! with AVX2 + FMA + AVX-512F. The builds differ in
//! vector width and in the constants that only group independent lanes.
//! Each lane runs the same IEEE operations in the same order: every
//! product it accumulates is one fused multiply-add, a single rounding
//! IEEE 754 defines exactly (a `vfmadd` in the wide builds, the exact
//! emulation [`fma`](crate::fma()) in the baseline one), and nothing else
//! fuses (Rust does not contract `a * b + c`). None calls the platform's
//! math library ([`exp`](crate::exp()) and [`fma`](crate::fma()) are
//! inlined plain Rust), so all three produce the same bits.
//!
//! An [`Isa`] is picked once where an engine or stage-1 call enters and
//! handed down to the leaves. Nothing outside the CPU selects it: there
//! is no environment variable, Cargo feature or configuration field.

/// The build of the dispatched loops a call runs: the CPU's widest
/// supported one, from [`Isa::detect`].
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Isa {
    /// Only [`Isa::detect`] and [`Isa::every`] make one, each from what
    /// the CPU reported: the dispatch sites' `unsafe` calls rest on that,
    /// so no other code sets it.
    build: IsaBuild,
}

/// The three builds of a dispatched loop: what a dispatch site matches
/// on. Holding an [`Isa`] whose [`build`](Isa::build) is `Avx2` or
/// `Avx512` means the CPU has those features. Ordered narrowest first.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord)]
pub enum IsaBuild {
    /// The target's baseline instruction set (SSE2 on x86-64).
    Baseline,
    /// `#[target_feature(enable = "avx2,fma")]`: 8 f32 lanes a register.
    Avx2,
    /// `#[target_feature(enable = "avx2,fma,avx512f")]`: 16 f32 lanes.
    Avx512,
}

impl Isa {
    /// The widest build this CPU supports. The wide builds fuse their
    /// products, so a CPU with AVX2 but without FMA runs the baseline one.
    pub fn detect() -> Isa {
        #[cfg(target_arch = "x86_64")]
        let build = if !(std::arch::is_x86_feature_detected!("avx2")
            && std::arch::is_x86_feature_detected!("fma"))
        {
            IsaBuild::Baseline
        } else if std::arch::is_x86_feature_detected!("avx512f") {
            IsaBuild::Avx512
        } else {
            IsaBuild::Avx2
        };
        #[cfg(not(target_arch = "x86_64"))]
        let build = IsaBuild::Baseline;
        Isa { build }
    }

    /// Every build this CPU runs, the baseline first and the widest last:
    /// what differential tests iterate to hold the builds to each other
    /// bit for bit. Production code takes [`detect`](Self::detect)'s.
    #[doc(hidden)]
    pub fn every() -> Vec<Isa> {
        let widest = Isa::detect().build;
        [IsaBuild::Baseline, IsaBuild::Avx2, IsaBuild::Avx512]
            .into_iter()
            .filter(|&build| build <= widest)
            .map(|build| Isa { build })
            .collect()
    }

    /// Which build this is: what a dispatch site matches on.
    pub fn build(self) -> IsaBuild {
        self.build
    }

    /// f32 lanes per vector register of this build: 4, 8 or 16.
    pub fn lanes(self) -> usize {
        match self.build {
            IsaBuild::Baseline => 4,
            IsaBuild::Avx2 => 8,
            IsaBuild::Avx512 => 16,
        }
    }

    /// `"baseline"`, `"avx2"` or `"avx512"`.
    pub fn name(self) -> &'static str {
        match self.build {
            IsaBuild::Baseline => "baseline",
            IsaBuild::Avx2 => "avx2",
            IsaBuild::Avx512 => "avx512",
        }
    }
}

/// The build of the dispatched loops this process runs: `"baseline"`,
/// `"avx2"` or `"avx512"`. Read-only; nothing selects it but the CPU.
pub fn isa_name() -> &'static str {
    Isa::detect().name()
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn detection_is_stable_and_named() {
        let isa = Isa::detect();
        assert_eq!(isa, Isa::detect());
        assert_eq!(isa_name(), isa.name());
        let builds = Isa::every();
        assert_eq!(builds[0].build(), IsaBuild::Baseline);
        assert_eq!(builds.last(), Some(&isa));
        let names: Vec<&str> = builds.iter().map(|b| b.name()).collect();
        let lanes: Vec<usize> = builds.iter().map(|b| b.lanes()).collect();
        let all = ["baseline", "avx2", "avx512"];
        assert_eq!(names, all[..builds.len()]);
        assert_eq!(lanes, [4, 8, 16][..builds.len()]);
        #[cfg(target_arch = "x86_64")]
        {
            let avx2 = std::arch::is_x86_feature_detected!("avx2")
                && std::arch::is_x86_feature_detected!("fma");
            let avx512 = avx2 && std::arch::is_x86_feature_detected!("avx512f");
            assert_eq!(builds.len(), 1 + usize::from(avx2) + usize::from(avx512));
            if std::arch::is_x86_feature_detected!("avx512f") {
                assert_eq!(builds.len(), 3, "an AVX-512 CPU runs all three builds");
            }
        }
        #[cfg(not(target_arch = "x86_64"))]
        assert_eq!(builds.len(), 1);
    }
}
