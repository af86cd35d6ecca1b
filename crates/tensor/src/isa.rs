//! Which build of the dispatched inner loops runs.
//!
//! The hot loops of the blocked attention engine — the score panel in
//! `sa-kernels` and the online-softmax folds in this crate — are each
//! one generic body compiled twice: for the target's baseline
//! instruction set and, on x86-64, with AVX2 enabled. The builds differ
//! in vector width only. Each lane runs the same IEEE multiplies and
//! adds in the same order, neither build may fuse them (the `fma`
//! feature is never enabled and Rust does not contract `a * b + c`), and
//! neither calls the platform's math library ([`exp`](crate::exp()) is
//! inlined plain Rust), so both produce the same bits.
//!
//! An [`Isa`] is picked once where an engine or stage-1 call enters and
//! handed down to the leaves. Nothing outside the CPU selects it: there
//! is no environment variable, Cargo feature or configuration field.

/// The build of the dispatched loops a call runs: the CPU's widest
/// supported one, from [`Isa::detect`].
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Isa {
    /// `true` only when AVX2 was detected on this CPU: the dispatch
    /// sites' `unsafe` calls rest on that, so no other code sets it.
    avx2: bool,
}

impl Isa {
    /// The widest build this CPU supports.
    pub fn detect() -> Isa {
        #[cfg(target_arch = "x86_64")]
        let avx2 = std::arch::is_x86_feature_detected!("avx2");
        #[cfg(not(target_arch = "x86_64"))]
        let avx2 = false;
        Isa { avx2 }
    }

    /// Every build this CPU runs, the baseline first: what differential
    /// tests iterate to hold the builds to each other bit for bit.
    /// Production code takes [`detect`](Self::detect)'s.
    #[doc(hidden)]
    pub fn every() -> Vec<Isa> {
        let mut builds = vec![Isa { avx2: false }];
        let detected = Isa::detect();
        if detected.avx2 {
            builds.push(detected);
        }
        builds
    }

    /// Whether this is the AVX2 build; `true` implies the CPU has AVX2.
    pub fn avx2(self) -> bool {
        self.avx2
    }

    /// `"avx2"` or `"baseline"`.
    pub fn name(self) -> &'static str {
        if self.avx2 {
            "avx2"
        } else {
            "baseline"
        }
    }
}

/// The build of the dispatched loops this process runs: `"avx2"` or
/// `"baseline"`. Read-only; nothing selects it but the CPU.
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
        assert_eq!(isa.avx2(), isa.name() == "avx2");
        let builds = Isa::every();
        assert_eq!(builds[0].name(), "baseline");
        assert!(!builds[0].avx2());
        assert_eq!(builds.last(), Some(&isa));
        assert_eq!(builds.len(), 1 + usize::from(isa.avx2()));
        #[cfg(not(target_arch = "x86_64"))]
        assert!(!isa.avx2());
    }
}
