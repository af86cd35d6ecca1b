//! Request descriptions and the seeded mixed-workload generator.
//!
//! A [`Request`] is everything the scheduler knows at admission time:
//! what to run (prefill or decode, at what sequence length), when it
//! arrives on the virtual clock, its deadline, and two adversarial
//! annotations used by the chaos harness — a caller-cancellation time
//! and a transient-fault script (the first `fault_fails` attempts hit
//! an injected worker panic at `fault_site`, later attempts run clean).
//!
//! [`mixed_workload`] draws a reproducible batch from a seed: a blend
//! of sizes, deadline tightness tiers (from generous, which full
//! attention meets, down to brutal, which forces the bottom of the
//! degradation ladder *and* a mid-run deadline), cancellations, and
//! transient/permanent faults.

use sa_tensor::DeterministicRng;

/// What kind of work a request runs.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum RequestKind {
    /// Chunked prefill of `seq_len` tokens.
    Prefill,
    /// Prefill of `seq_len` tokens, then `new_tokens` decode steps.
    Decode,
}

sa_json::impl_json_enum!(RequestKind { Prefill, Decode });

/// One serving request on the virtual clock.
#[derive(Debug, Clone, PartialEq)]
pub struct Request {
    /// Unique id; the outcome ledger is keyed and sorted by it.
    pub id: u64,
    /// Prefill-only or prefill-then-decode.
    pub kind: RequestKind,
    /// Prompt length in synthetic tokens (each stands for
    /// [`tokens_per_synthetic`](crate::ServeConfig::tokens_per_synthetic)
    /// real tokens in the admission memory model).
    pub seq_len: usize,
    /// Decode steps after prefill (0 for pure prefill).
    pub new_tokens: usize,
    /// Arrival time on the virtual clock, milliseconds.
    pub arrival_ms: u64,
    /// Deadline, virtual milliseconds after arrival.
    pub deadline_ms: u64,
    /// Caller cancels this many virtual ms after arrival (0 = never).
    pub cancel_after_ms: u64,
    /// First `fault_fails` execution attempts hit an injected worker
    /// panic (0 = healthy request).
    pub fault_fails: u64,
    /// Pool site of the injected fault (empty when `fault_fails == 0`).
    pub fault_site: String,
    /// Tenant the request bills against: the continuous scheduler's
    /// fairness quota (token bucket) is per-tenant. Single-tenant
    /// batches use 0.
    pub tenant: u64,
}

impl Request {
    /// A healthy prefill request with the given shape.
    pub fn prefill(id: u64, seq_len: usize, arrival_ms: u64, deadline_ms: u64) -> Self {
        Request {
            id,
            kind: RequestKind::Prefill,
            seq_len,
            new_tokens: 0,
            arrival_ms,
            deadline_ms,
            cancel_after_ms: 0,
            fault_fails: 0,
            fault_site: String::new(),
            tenant: 0,
        }
    }

    /// The virtual cost of this request at full attention, in
    /// milliseconds: quadratic in the prompt (attention-dominated
    /// prefill) plus a linear decode tail. The degradation ladder
    /// scales the prefill part by each rung's cost factor.
    pub fn base_service_ms(&self) -> u64 {
        self.prefill_service_ms() + self.new_tokens as u64 * self.decode_step_ms()
    }

    /// The virtual cost of one decode step, in milliseconds: linear in
    /// the prompt the step attends over. No rung scales it — decode
    /// always runs full attention over the caches.
    pub fn decode_step_ms(&self) -> u64 {
        (self.seq_len as u64 / 16).max(1)
    }

    /// The prefill-only part of [`base_service_ms`](Self::base_service_ms)
    /// (the part a cheaper attention method shrinks).
    pub fn prefill_service_ms(&self) -> u64 {
        let s = self.seq_len as u64;
        (s * s / 64).max(1)
    }
}

/// The pool site the workload generator targets with transient faults:
/// the per-head fan-out inside every layer forward.
pub const FAULT_SITE: &str = "layer_heads";

/// Draws `n` requests reproducibly from `seed`.
///
/// The blend (all seeded, no wall-clock anywhere):
/// - ~1/4 decode requests (small prompts, 3–8 new tokens), the rest
///   chunked prefills from 48 to 512 synthetic tokens;
/// - deadline tiers: generous (full attention fits), medium (forces
///   SampleAttention), tight (forces the tight rung or the window),
///   brutal (nothing fits — mid-run deadline cancellation);
/// - ~12 % caller-cancelled mid-flight;
/// - ~20 % transient faults (1–2 failing attempts, then clean), a few
///   permanent ones (more failing attempts than the retry budget).
pub fn mixed_workload(seed: u64, n: usize) -> Vec<Request> {
    let mut rng = DeterministicRng::new(seed ^ 0x6d69_7865_645f_776c);
    let mut arrival = 0u64;
    let mut out = Vec::with_capacity(n);
    for id in 0..n as u64 {
        arrival += rng.index(40) as u64;
        let decode = rng.chance(0.25);
        let (kind, seq_len, new_tokens) = if decode {
            let s = [32usize, 48, 64][rng.index(3)];
            (RequestKind::Decode, s, 3 + rng.index(6))
        } else {
            let s = [48usize, 64, 96, 128, 160, 224, 512][rng.index(7)];
            (RequestKind::Prefill, s, 0)
        };
        let mut req = Request {
            id,
            kind,
            seq_len,
            new_tokens,
            arrival_ms: arrival,
            deadline_ms: 0,
            cancel_after_ms: 0,
            fault_fails: 0,
            fault_site: String::new(),
            // Derived from the id, not the rng, so the rest of the draw
            // stream (and every seeded test pinned to it) is unchanged.
            tenant: id % 3,
        };
        let base = req.base_service_ms();
        let tier = rng.uniform();
        req.deadline_ms = if tier < 0.40 {
            2 * base + 50
        } else if tier < 0.65 {
            base / 3 + 20
        } else if tier < 0.85 {
            base / 8 + 10
        } else {
            base / 40 + 5
        };
        if rng.chance(0.12) {
            req.cancel_after_ms = (req.deadline_ms / 2).max(1);
        }
        if rng.chance(0.20) {
            req.fault_fails = if rng.chance(0.15) {
                8 // permanent: exceeds any sane retry budget
            } else {
                1 + rng.index(2) as u64
            };
            req.fault_site = FAULT_SITE.to_string();
        }
        out.push(req);
    }
    out
}

/// Draws an **open-loop** workload: arrival timestamps come from a
/// seeded [`ArrivalProcess`](sa_workloads::ArrivalProcess) (Poisson
/// with optional diurnal / flash-crowd rate shapes) instead of the
/// closed-loop trickle of [`mixed_workload`], and every request is
/// billed to one of `tenants` tenants for the continuous scheduler's
/// fairness quotas.
///
/// The per-request mix mirrors `mixed_workload` (prefills 48–512
/// synthetic tokens, ~1/4 decodes, deadline tiers from generous to
/// brutal) with slightly milder adversity (~8 % caller cancels, ~10 %
/// transient faults) so the SLO sweep measures mostly-healthy traffic
/// under load rather than fault handling.
pub fn open_loop_workload(
    seed: u64,
    process: &sa_workloads::ArrivalProcess,
    duration_ms: u64,
    tenants: u64,
) -> Vec<Request> {
    let arrivals = process.generate(duration_ms);
    let mut rng = DeterministicRng::new(seed ^ 0x6f70_656e_5f6c_6f6f);
    let tenants = tenants.max(1);
    let mut out = Vec::with_capacity(arrivals.len());
    for (id, &arrival_ms) in arrivals.iter().enumerate() {
        let decode = rng.chance(0.25);
        let (kind, seq_len, new_tokens) = if decode {
            let s = [32usize, 48, 64][rng.index(3)];
            (RequestKind::Decode, s, 3 + rng.index(6))
        } else {
            let s = [48usize, 64, 96, 128, 160, 224, 512][rng.index(7)];
            (RequestKind::Prefill, s, 0)
        };
        let mut req = Request {
            id: id as u64,
            kind,
            seq_len,
            new_tokens,
            arrival_ms,
            deadline_ms: 0,
            cancel_after_ms: 0,
            fault_fails: 0,
            fault_site: String::new(),
            tenant: rng.index(tenants as usize) as u64,
        };
        let base = req.base_service_ms();
        let tier = rng.uniform();
        req.deadline_ms = if tier < 0.45 {
            2 * base + 50
        } else if tier < 0.75 {
            base / 3 + 20
        } else if tier < 0.92 {
            base / 8 + 10
        } else {
            base / 40 + 5
        };
        if rng.chance(0.08) {
            req.cancel_after_ms = (req.deadline_ms / 2).max(1);
        }
        if rng.chance(0.10) {
            req.fault_fails = if rng.chance(0.10) {
                8 // permanent: exceeds any sane retry budget
            } else {
                1 + rng.index(2) as u64
            };
            req.fault_site = FAULT_SITE.to_string();
        }
        out.push(req);
    }
    out
}

/// Draws a **fault-storm** workload: the recovery harness's stress mix.
/// Compared to [`mixed_workload`], deadlines are uniformly generous (a
/// crashed request must still be *feasible* after recovery — a storm
/// over brutal deadlines only measures shedding) and faults are dense:
/// ~60 % of requests crash 1–3 attempts before succeeding. Prompts skew
/// long so each crash has real prefill progress worth preserving.
pub fn fault_storm_workload(seed: u64, n: usize) -> Vec<Request> {
    let mut rng = DeterministicRng::new(seed ^ 0x5f73_746f_726d_5f77);
    let mut arrival = 0u64;
    let mut out = Vec::with_capacity(n);
    for id in 0..n as u64 {
        arrival += rng.index(60) as u64;
        let decode = rng.chance(0.3);
        let (kind, seq_len, new_tokens) = if decode {
            let s = [48usize, 64, 96][rng.index(3)];
            (RequestKind::Decode, s, 4 + rng.index(8))
        } else {
            let s = [96usize, 128, 160, 224, 320, 512][rng.index(6)];
            (RequestKind::Prefill, s, 0)
        };
        let mut req = Request {
            id,
            kind,
            seq_len,
            new_tokens,
            arrival_ms: arrival,
            deadline_ms: 0,
            cancel_after_ms: 0,
            fault_fails: 0,
            fault_site: String::new(),
            tenant: id % 3,
        };
        // Generous with headroom for backoff gaps between crashed
        // attempts: the storm's contract is zero *lost* requests.
        req.deadline_ms = 4 * req.base_service_ms() + 500;
        if rng.chance(0.60) {
            req.fault_fails = 1 + rng.index(3) as u64;
            req.fault_site = FAULT_SITE.to_string();
        }
        out.push(req);
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn workload_is_reproducible_and_mixed() {
        let a = mixed_workload(7, 64);
        let b = mixed_workload(7, 64);
        assert_eq!(a, b);
        let c = mixed_workload(8, 64);
        assert_ne!(a, c, "different seeds draw different workloads");

        assert!(a.iter().any(|r| r.kind == RequestKind::Decode));
        assert!(a.iter().any(|r| r.kind == RequestKind::Prefill));
        assert!(a.iter().any(|r| r.cancel_after_ms > 0));
        assert!(a.iter().any(|r| r.fault_fails > 0));
        assert!(a.iter().any(|r| r.fault_fails == 0));
        // Arrivals are sorted and ids unique.
        assert!(a.windows(2).all(|w| w[0].arrival_ms <= w[1].arrival_ms));
        assert!(a.windows(2).all(|w| w[0].id < w[1].id));
    }

    #[test]
    fn service_model_is_monotone_in_size() {
        let small = Request::prefill(0, 48, 0, 100);
        let big = Request::prefill(1, 512, 0, 100);
        assert!(big.base_service_ms() > small.base_service_ms());
        assert_eq!(small.prefill_service_ms(), small.base_service_ms());
        let mut d = small.clone();
        d.kind = RequestKind::Decode;
        d.new_tokens = 5;
        assert!(d.base_service_ms() > d.prefill_service_ms());
    }

    #[test]
    fn fault_storm_is_dense_and_feasible() {
        let a = fault_storm_workload(7, 32);
        assert_eq!(a, fault_storm_workload(7, 32));
        let faulted = a.iter().filter(|r| r.fault_fails > 0).count();
        assert!(faulted > a.len() / 3, "storm must be fault-dense: {faulted}/32");
        assert!(a.iter().any(|r| r.fault_fails == 0), "some healthy traffic");
        assert!(
            a.iter().all(|r| r.fault_fails <= 3),
            "storm faults are transient (retry budget must cover them)"
        );
        assert!(
            a.iter().all(|r| r.deadline_ms >= 4 * r.base_service_ms()),
            "storm deadlines leave room for recovery"
        );
        assert!(a.iter().all(|r| r.cancel_after_ms == 0));
    }

    #[test]
    fn open_loop_workload_spreads_tenants_and_follows_arrivals() {
        let process = sa_workloads::ArrivalProcess::constant(9, 4.0);
        let a = open_loop_workload(9, &process, 30_000, 3);
        let b = open_loop_workload(9, &process, 30_000, 3);
        assert_eq!(a, b, "open-loop workload must be reproducible");
        assert!(!a.is_empty());
        // Arrivals sorted, ids sequential, all tenants present.
        assert!(a.windows(2).all(|w| w[0].arrival_ms <= w[1].arrival_ms));
        assert!(a.windows(2).all(|w| w[0].id + 1 == w[1].id));
        for t in 0..3 {
            assert!(
                a.iter().any(|r| r.tenant == t),
                "tenant {t} drew no requests"
            );
        }
        assert!(a.iter().all(|r| r.tenant < 3));
        assert!(a.iter().any(|r| r.kind == RequestKind::Decode));
        // Arrival times match the process draw exactly.
        let direct = process.generate(30_000);
        let times: Vec<u64> = a.iter().map(|r| r.arrival_ms).collect();
        assert_eq!(times, direct);
        // Zero tenants is clamped to one, not a modulo-by-zero.
        let single = open_loop_workload(9, &process, 5_000, 0);
        assert!(single.iter().all(|r| r.tenant == 0));
    }
}
