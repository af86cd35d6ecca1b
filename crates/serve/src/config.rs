//! Scheduler configuration.
//!
//! Every knob is a field of [`ServeConfig`], set in code: no environment
//! variable changes what the scheduler decides, so a results file is a
//! function of its generator's code and flags alone.

use sa_core::DegradationRung;
use sa_perf::memory::A100_BYTES;

/// A per-tenant quality floor: the lowest degradation rung the serving
/// stack may assign to the tenant's requests, plus a cap on how much of
/// the tenant's traffic may land on uncertified rungs at all.
///
/// A request that cannot be served at or above the floor is shed with a
/// typed [`QualityFloor`](sa_tensor::SaError::QualityFloor) error — the
/// ladder and the memory governor never trade a floored tenant's quality
/// below its contract.
#[derive(Debug, Clone, PartialEq)]
pub struct TenantFloor {
    /// The tenant this floor applies to.
    pub tenant: u64,
    /// Deepest permitted ladder rung (inclusive), as an index into
    /// [`DegradationRung::ALL`] — e.g. `Tight.index()` forbids
    /// `WindowOnly`.
    pub max_rung_index: usize,
    /// Cap on the tenant's uncertified-rung tokens
    /// (rungs where [`DegradationRung::can_certify_alpha`] is false), as
    /// a permille of the tenant's total dispatched tokens over a
    /// planning run. `0` forbids uncertified rungs outright; `1000`
    /// disables the cap.
    pub max_uncertified_permille: u64,
}

impl TenantFloor {
    /// True when `rung` is at or above this floor.
    pub fn permits(&self, rung: DegradationRung) -> bool {
        rung.index() <= self.max_rung_index
    }

    /// The deepest rung this floor permits.
    pub fn min_rung(&self) -> DegradationRung {
        DegradationRung::ALL[self.max_rung_index.min(DegradationRung::ALL.len() - 1)]
    }
}

/// All tunables of the [`Scheduler`](crate::Scheduler).
#[derive(Debug, Clone, PartialEq)]
pub struct ServeConfig {
    /// Seed for every scheduler-internal random draw (backoff jitter)
    /// and for the synthetic model weights.
    pub seed: u64,
    /// Concurrent-request slots. Clamped to ≥ 1.
    pub max_inflight: usize,
    /// Device memory budget in bytes for admission control. Defaults to
    /// one A100-80GB.
    pub mem_budget_bytes: u64,
    /// Sequence chunk size for chunked prefill — also the cancellation
    /// granularity: a tripped token stops a prefill within one chunk.
    pub chunk_size: usize,
    /// Maximum retry attempts after a transient worker fault.
    pub max_retries: usize,
    /// First-retry backoff, virtual milliseconds.
    pub backoff_base_ms: u64,
    /// Cap on the exponential backoff, virtual milliseconds.
    pub backoff_cap_ms: u64,
    /// The near-lossless CRA target recorded in every
    /// [`DegradationReport`](sa_core::DegradationReport).
    pub alpha_target: f32,
    /// How many real-model tokens one synthetic token stands for in the
    /// memory model (the synthetic transformer runs tiny sequences; the
    /// admission footprint scales them up to paper-sized contexts).
    pub tokens_per_synthetic: u64,
    /// Bound on the pending (admission) queue. Arrivals beyond it are
    /// rejected with [`Overloaded`](sa_tensor::SaError::Overloaded).
    pub max_pending: usize,
    /// Continuous batching: per-tenant token-bucket sustained refill
    /// rate, synthetic tokens per virtual second (clamped ≥ 1 token/s).
    /// Prefill chunks debit `chunk_size` tokens, decode steps 1 token,
    /// each at most [`tenant_burst_tokens`](Self::tenant_burst_tokens).
    pub tenant_rate_tokens_per_sec: u64,
    /// Continuous batching: per-tenant token-bucket capacity (burst
    /// allowance), synthetic tokens.
    pub tenant_burst_tokens: u64,
    /// Crash recovery: when `true`, a faulted attempt
    /// resumes from its last chunk-boundary checkpoint (bounded
    /// recompute of at most one chunk); when `false`, it retries from
    /// scratch — PR-7 behavior, kept as the `recovery_bench` baseline.
    pub recovery_enabled: bool,
    /// Memory-pressure low watermark, permille of
    /// `mem_budget_bytes`. Occupancy at or above it is `Elevated`:
    /// non-urgent admissions defer and in-flight sessions start
    /// shedding low-mass KV.
    pub mem_low_permille: u64,
    /// Memory-pressure high watermark, permille of
    /// `mem_budget_bytes`. Occupancy at or above it is `Critical`:
    /// new admissions are forced onto lower degradation rungs.
    pub mem_high_permille: u64,
    /// Shadow-canary denominator: one in this many served
    /// requests additionally runs a dense reference prefill and compares
    /// true CRA / output error against the sparse path. Selection is a
    /// pure function of `(seed, request id)`, so canaries never change
    /// scheduling decisions and the set is identical at any `SA_THREADS`.
    /// `0` disables canaries.
    pub canary_denominator: u64,
    /// Per-tenant quality floors. Tenants not listed have no floor:
    /// the ladder may degrade them all the way to `WindowOnly`.
    pub quality_floors: Vec<TenantFloor>,
}

impl Default for ServeConfig {
    fn default() -> Self {
        ServeConfig {
            seed: 0x5EED_5EED,
            max_inflight: 4,
            mem_budget_bytes: A100_BYTES,
            chunk_size: 32,
            max_retries: 2,
            backoff_base_ms: 8,
            backoff_cap_ms: 64,
            alpha_target: 0.95,
            tokens_per_synthetic: 2048,
            max_pending: 64,
            tenant_rate_tokens_per_sec: 2048,
            tenant_burst_tokens: 8192,
            recovery_enabled: true,
            mem_low_permille: 600,
            mem_high_permille: 850,
            canary_denominator: 32,
            quality_floors: Vec::new(),
        }
    }
}

impl ServeConfig {
    /// `max_inflight` with the ≥ 1 clamp applied.
    pub fn slots(&self) -> usize {
        self.max_inflight.max(1)
    }

    /// The quality floor configured for `tenant`, if any.
    pub fn floor_for(&self, tenant: u64) -> Option<&TenantFloor> {
        self.quality_floors.iter().find(|f| f.tenant == tenant)
    }

    /// The deepest ladder-rung index `tenant` may be degraded to
    /// (`DegradationRung::ALL.len() - 1`, i.e. no floor, for tenants
    /// without one).
    pub fn max_rung_index_for(&self, tenant: u64) -> usize {
        self.floor_for(tenant)
            .map(|f| f.max_rung_index.min(DegradationRung::ALL.len() - 1))
            .unwrap_or(DegradationRung::ALL.len() - 1)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn defaults_are_sane() {
        let c = ServeConfig::default();
        assert!(c.slots() >= 1);
        assert_eq!(c.mem_budget_bytes, A100_BYTES);
        assert!(c.backoff_base_ms <= c.backoff_cap_ms);
        assert!(c.alpha_target > 0.0 && c.alpha_target <= 1.0);
        assert!(c.recovery_enabled, "recovery is on by default");
        assert!(c.mem_low_permille < c.mem_high_permille);
        assert_eq!(c.canary_denominator, 32);
        assert_eq!(ServeConfig { max_inflight: 0, ..c }.slots(), 1, "slots clamp to >= 1");
    }

    #[test]
    fn quality_floors_look_up_by_tenant() {
        let mut c = ServeConfig::default();
        assert!(c.floor_for(0).is_none(), "no floors by default");
        assert_eq!(c.max_rung_index_for(0), DegradationRung::ALL.len() - 1);
        c.quality_floors.push(TenantFloor {
            tenant: 1,
            max_rung_index: DegradationRung::Tight.index(),
            max_uncertified_permille: 0,
        });
        assert!(c.floor_for(1).is_some());
        assert!(c.floor_for(2).is_none());
        assert_eq!(c.max_rung_index_for(1), DegradationRung::Tight.index());

        let floor = c.floor_for(1).unwrap();
        assert!(floor.permits(DegradationRung::Full));
        assert!(floor.permits(DegradationRung::Tight));
        assert!(!floor.permits(DegradationRung::WindowOnly));
        assert_eq!(floor.min_rung(), DegradationRung::Tight);
    }

    #[test]
    fn out_of_range_floor_index_clamps() {
        let f = TenantFloor {
            tenant: 0,
            max_rung_index: 99,
            max_uncertified_permille: 1000,
        };
        assert_eq!(f.min_rung(), DegradationRung::WindowOnly);
        assert!(f.permits(DegradationRung::WindowOnly));
    }
}
