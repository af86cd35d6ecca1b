//! Byte-accurate memory ledger with pressure watermarks.
//!
//! Admission control in [`crate::sim`] and [`crate::continuous`] works
//! from *projected* footprints (`sa_perf` scaling of the synthetic
//! model). This module adds the runtime side: a [`MemoryLedger`] tracks
//! bytes actually reserved — KV caches of in-flight sessions, staged
//! checkpoint restores — against the configured budget, and classifies
//! occupancy into [`PressureLevel`]s that drive the continuous
//! scheduler's governor ladder (defer admissions → evict low-mass KV →
//! force lower degradation rungs → shed).
//!
//! Reservations consult the fault harness
//! ([`sa_tensor::fault::should_fail_alloc`]) so a fault plan can fail
//! individual allocations deterministically; the serving layer falls
//! back instead of crashing and records each such failure in the
//! request's `alloc_faults` ledger column.
//!
//! The ledger is thread-safe (a single atomic) but deliberately carries
//! no ordering semantics beyond the counter itself: all *decisions*
//! that depend on occupancy are made on the serial virtual-time planner
//! thread, so ledgers stay byte-identical at every `SA_THREADS`.

use std::sync::atomic::{AtomicU64, Ordering};

use sa_tensor::{fault, SaError};

use crate::ServeConfig;

/// Occupancy classification against the watermarks.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord)]
pub enum PressureLevel {
    /// Below the low watermark: admit freely.
    Normal,
    /// Between the watermarks: defer non-urgent admissions and start
    /// evicting low-mass KV from in-flight sessions.
    Elevated,
    /// At or above the high watermark: force lower degradation rungs;
    /// shed what still cannot fit.
    Critical,
}

impl PressureLevel {
    /// Stable lowercase name for event reasons and reports.
    pub fn as_str(self) -> &'static str {
        match self {
            PressureLevel::Normal => "normal",
            PressureLevel::Elevated => "elevated",
            PressureLevel::Critical => "critical",
        }
    }
}

/// Byte-accurate reservation ledger against a fixed budget.
#[derive(Debug)]
pub struct MemoryLedger {
    budget: u64,
    /// Bytes at which pressure becomes [`PressureLevel::Elevated`].
    low_mark: u64,
    /// Bytes at which pressure becomes [`PressureLevel::Critical`].
    high_mark: u64,
    in_use: AtomicU64,
}

impl MemoryLedger {
    /// A ledger over `budget` bytes with watermarks at `low_permille` /
    /// `high_permille` of the budget (clamped so low ≤ high ≤ 1000).
    pub fn new(budget: u64, low_permille: u64, high_permille: u64) -> Self {
        let high = high_permille.min(1000);
        let low = low_permille.min(high);
        MemoryLedger {
            budget,
            low_mark: budget / 1000 * low + budget % 1000 * low / 1000,
            high_mark: budget / 1000 * high + budget % 1000 * high / 1000,
            in_use: AtomicU64::new(0),
        }
    }

    /// A ledger from the scheduler's configured budget and watermarks.
    pub fn from_config(cfg: &ServeConfig) -> Self {
        MemoryLedger::new(cfg.mem_budget_bytes, cfg.mem_low_permille, cfg.mem_high_permille)
    }

    /// The fixed budget in bytes.
    pub fn budget(&self) -> u64 {
        self.budget
    }

    /// Bytes currently reserved.
    pub fn in_use(&self) -> u64 {
        self.in_use.load(Ordering::Relaxed)
    }

    /// Bytes still available.
    pub fn free(&self) -> u64 {
        self.budget.saturating_sub(self.in_use())
    }

    /// Classifies an arbitrary occupancy against the watermarks — the
    /// serial planner calls this with its own virtual-time projection.
    pub fn level_of(&self, in_use: u64) -> PressureLevel {
        if in_use >= self.high_mark {
            PressureLevel::Critical
        } else if in_use >= self.low_mark {
            PressureLevel::Elevated
        } else {
            PressureLevel::Normal
        }
    }

    /// Current pressure from the ledger's own counter.
    pub fn level(&self) -> PressureLevel {
        self.level_of(self.in_use())
    }

    /// Reserves `bytes`, failing when the budget would be exceeded or
    /// when the installed fault plan fails this allocation (`salt` keys
    /// the deterministic draw; the serving layer passes a
    /// request/attempt-derived value).
    ///
    /// # Errors
    ///
    /// [`SaError::BudgetExceeded`] — the caller distinguishes a real
    /// over-budget from an injected allocation failure by consulting
    /// [`fault::should_fail_alloc`] with the same salt, if it needs to.
    pub fn reserve(&self, bytes: u64, salt: u64) -> Result<(), SaError> {
        if fault::should_fail_alloc(salt) {
            return Err(SaError::BudgetExceeded {
                required_bytes: bytes,
                budget_bytes: self.budget,
            });
        }
        // CAS loop: concurrent reservations must not overshoot the
        // budget between load and store.
        let mut current = self.in_use.load(Ordering::Relaxed);
        loop {
            let next = current.saturating_add(bytes);
            if next > self.budget {
                return Err(SaError::BudgetExceeded {
                    required_bytes: bytes,
                    budget_bytes: self.budget,
                });
            }
            match self.in_use.compare_exchange_weak(
                current,
                next,
                Ordering::Relaxed,
                Ordering::Relaxed,
            ) {
                Ok(_) => return Ok(()),
                Err(observed) => current = observed,
            }
        }
    }

    /// Releases a prior reservation. Saturating: releasing more than is
    /// reserved clamps to zero rather than wrapping (double releases are
    /// a caller bug, but must not corrupt the ledger).
    pub fn release(&self, bytes: u64) {
        let mut current = self.in_use.load(Ordering::Relaxed);
        loop {
            let next = current.saturating_sub(bytes);
            match self.in_use.compare_exchange_weak(
                current,
                next,
                Ordering::Relaxed,
                Ordering::Relaxed,
            ) {
                Ok(_) => return,
                Err(observed) => current = observed,
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use sa_tensor::fault::{install, FaultPlan};

    #[test]
    fn reserve_release_roundtrip() {
        let ledger = MemoryLedger::new(1000, 600, 850);
        assert_eq!(ledger.level(), PressureLevel::Normal);
        ledger.reserve(500, 0).expect("fits");
        assert_eq!(ledger.in_use(), 500);
        assert_eq!(ledger.free(), 500);
        ledger.reserve(200, 1).expect("fits");
        assert_eq!(ledger.level(), PressureLevel::Elevated);
        ledger.reserve(200, 2).expect("fits");
        assert_eq!(ledger.level(), PressureLevel::Critical);
        let err = ledger.reserve(200, 3).expect_err("over budget");
        assert!(matches!(
            err,
            SaError::BudgetExceeded { required_bytes: 200, budget_bytes: 1000 }
        ));
        ledger.release(900);
        assert_eq!(ledger.in_use(), 0);
        assert_eq!(ledger.level(), PressureLevel::Normal);
        // Saturating release never wraps.
        ledger.release(10_000);
        assert_eq!(ledger.in_use(), 0);
    }

    #[test]
    fn watermarks_clamp_and_order() {
        // high > 1000‰ clamps to the budget; low > high clamps to high.
        let ledger = MemoryLedger::new(100, 2000, 1500);
        assert_eq!(ledger.level_of(99), PressureLevel::Normal);
        assert_eq!(ledger.level_of(100), PressureLevel::Critical);
        let zero = MemoryLedger::new(0, 600, 850);
        assert_eq!(zero.level(), PressureLevel::Critical);
    }

    #[test]
    fn injected_alloc_failure_is_typed_and_reserves_nothing() {
        let ledger = MemoryLedger::new(1000, 600, 850);
        let _g = install(FaultPlan::new(5).alloc_failures(1));
        let err = ledger.reserve(10, 7).expect_err("fault plan fails every alloc");
        assert!(matches!(err, SaError::BudgetExceeded { .. }));
        assert_eq!(ledger.in_use(), 0, "failed reservation must not leak");
    }

    #[test]
    fn pressure_levels_order_and_name() {
        assert!(PressureLevel::Normal < PressureLevel::Elevated);
        assert!(PressureLevel::Elevated < PressureLevel::Critical);
        assert_eq!(PressureLevel::Critical.as_str(), "critical");
    }
}
