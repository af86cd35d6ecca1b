//! The virtual-time models the planner runs on.
//!
//! Every *scheduling* decision — admission, queueing, the degradation
//! rung, retries, backoff, and which cancellation (if any) wins — is
//! made by the serial continuous planner ([`crate::continuous`]) on a
//! deterministic virtual clock, **before** any model work runs. The
//! real execution phase then runs the admitted requests in parallel on
//! the worker pool and only fills in bit-deterministic measurements
//! (the CRA α flags). Real wall-clock time never influences an outcome,
//! so the ledger is bit-identical at every `SA_THREADS` setting — the
//! property the chaos soak asserts.
//!
//! This module holds what the planner decides *with*:
//!
//! - the outcome vocabulary, [`Planned`];
//! - the per-rung cost model ([`service_ms`], [`cost_permille`]);
//! - the degradation-ladder walk ([`choose_rung`],
//!   [`choose_rung_floored`]), which respects a tenant's quality floor;
//! - the admission memory model: scaled ChatGLM2-6B footprints
//!   ([`request_bytes`], [`weight_bytes`]) against the memory budget;
//! - seeded-jitter exponential retry backoff ([`backoff_ms`]).

use crate::{Request, ServeConfig};
use sa_core::DegradationRung;
use sa_perf::memory::{prefill_footprint, PrefillStyle};
use sa_perf::ttft::ModelGeometry;
use sa_tensor::splitmix64;

/// What the simulation decided should happen to one request.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum Planned {
    /// Runs to completion after `fails` failed attempts (0 = first try).
    Serve { fails: u64 },
    /// Every attempt up to the retry budget fails; the request errors out.
    FailPermanent { fails: u64 },
    /// The caller cancels before completion.
    CancelCaller,
    /// The deadline expires mid-run.
    CancelDeadline,
    /// The deadline expires while still queued — no work ever ran.
    ExpireInQueue,
    /// Rejected at arrival: the pending queue is full.
    RejectOverloaded { inflight: usize },
    /// Rejected: the request could never fit the memory budget, or the
    /// governor shed it under critical pressure.
    RejectBudget { required_bytes: u64 },
    /// Shed at start: the deadline demands a rung below the tenant's
    /// quality floor, and the floor wins — the request is refused
    /// rather than served with uncertifiable quality.
    ShedQualityFloor,
}

impl Planned {
    /// Whether the resolution involves running the model at all: a
    /// rung, a start time and a first token mean something exactly then.
    pub fn runs_model(&self) -> bool {
        !matches!(
            self,
            Planned::RejectOverloaded { .. }
                | Planned::RejectBudget { .. }
                | Planned::ExpireInQueue
                | Planned::ShedQualityFloor
        )
    }

}

/// A rung's cost factor as an integer per-mille, rounded to nearest.
/// Truncation here would under-project every rung whose factor is not
/// exactly representable in thousandths (e.g. a 0.2999… factor flooring
/// to 299‰), so the ladder's projected costs would silently disagree
/// with the documented factors.
pub fn cost_permille(factor: f64) -> u64 {
    (factor.max(0.0) * 1000.0).round() as u64
}

/// Per-rung projected service time: the prefill part scales with the
/// rung's cost factor, the decode tail does not (decode always runs
/// full attention over the caches). The tail is computed with
/// `saturating_sub`: a request whose prefill estimate meets or exceeds
/// its base estimate must yield a zero tail, not a wrapped ~`u64::MAX`
/// service time that poisons every downstream admission decision.
pub fn service_ms(req: &Request, rung: DegradationRung) -> u64 {
    let permille = cost_permille(rung.cost_factor());
    let prefill = (req.prefill_service_ms() * permille / 1000).max(1);
    prefill + req.base_service_ms().saturating_sub(req.prefill_service_ms())
}

/// Exponential backoff with deterministic jitter for attempt `attempt`
/// of request `id` (virtual milliseconds; nothing sleeps).
pub fn backoff_ms(cfg: &ServeConfig, id: u64, attempt: u64) -> u64 {
    let shift = attempt.min(16) as u32;
    let exp = cfg
        .backoff_base_ms
        .saturating_mul(1u64 << shift)
        .min(cfg.backoff_cap_ms);
    let jitter = if cfg.backoff_base_ms == 0 {
        0
    } else {
        let mut state = cfg.seed ^ id.wrapping_mul(0x9E37_79B9_7F4A_7C15) ^ attempt;
        splitmix64(&mut state) % cfg.backoff_base_ms
    };
    // A cap near u64::MAX plus jitter must saturate, not wrap to a tiny
    // (or zero) backoff that would defeat the exponential schedule.
    exp.saturating_add(jitter)
}

/// The per-request device bytes of the admission memory model: KV cache
/// plus peak activations for a chunked prefill of the scaled-up request
/// on ChatGLM2-6B. Weights are shared and counted once, by the caller.
pub fn request_bytes(cfg: &ServeConfig, req: &Request) -> u64 {
    let scale = cfg.tokens_per_synthetic.max(1) as usize;
    let fp = prefill_footprint(
        &ModelGeometry::chatglm2_6b(),
        req.seq_len.saturating_mul(scale),
        1,
        1,
        PrefillStyle::Chunked(cfg.chunk_size.max(1) * scale),
    );
    fp.kv_cache_bytes + fp.activation_bytes + fp.score_matrix_bytes
}

/// The shared weight bytes of the admission memory model.
pub fn weight_bytes() -> u64 {
    prefill_footprint(
        &ModelGeometry::chatglm2_6b(),
        1024,
        1,
        1,
        PrefillStyle::Chunked(1024),
    )
    .weights_bytes
}

/// Walks the ladder top-down and returns the highest rung whose
/// projected cost fits `remaining_ms`, plus the skipped rungs. When
/// even the bottom rung does not fit, the bottom rung is chosen anyway
/// (the deadline will then expire mid-run — explicitly, in the plan).
pub fn choose_rung(
    req: &Request,
    remaining_ms: u64,
) -> (DegradationRung, Vec<(DegradationRung, String)>) {
    match choose_rung_floored(req, remaining_ms, DegradationRung::ALL.len() - 1) {
        Some(choice) => choice,
        // Unreachable: with the full ladder available the floored walk
        // always resolves (the bottom rung runs anyway). Resolve
        // defensively rather than panicking.
        None => (DegradationRung::WindowOnly, Vec::new()),
    }
}

/// [`choose_rung`] restricted to rungs `0..=max_rung_index` — the
/// tenant's quality floor. Returns `None` when no permitted rung fits
/// `remaining_ms` and the floor forbids the run-anyway bottom rung:
/// the floor wins and the request must be shed
/// ([`Planned::ShedQualityFloor`]). A floor admitting the whole ladder
/// (`max_rung_index == ALL.len() - 1`) reproduces [`choose_rung`]'s
/// behavior exactly, including running the bottom rung over-deadline.
pub fn choose_rung_floored(
    req: &Request,
    remaining_ms: u64,
    max_rung_index: usize,
) -> Option<(DegradationRung, Vec<(DegradationRung, String)>)> {
    let max_rung_index = max_rung_index.min(DegradationRung::ALL.len() - 1);
    let mut skipped = Vec::new();
    for rung in &DegradationRung::ALL[..=max_rung_index] {
        let cost = service_ms(req, *rung);
        if cost <= remaining_ms {
            return Some((*rung, skipped));
        }
        skipped.push((
            *rung,
            format!("projected {cost} ms exceeds remaining {remaining_ms} ms"),
        ));
    }
    if max_rung_index == DegradationRung::ALL.len() - 1 {
        // Unfloored bottom rung still runs; drop its "skipped" entry.
        skipped.pop();
        return Some((DegradationRung::WindowOnly, skipped));
    }
    None
}

/// The typed reason string of the terminal event for `planned`, where
/// the planner has no more to say than the resolution itself.
pub(crate) fn terminal_reason(planned: &Planned, budget: u64) -> String {
    match planned {
        Planned::Serve { fails: 0 } => String::new(),
        Planned::Serve { fails } => format!("served after {fails} failed attempts"),
        Planned::FailPermanent { fails } => {
            format!("attempt budget exhausted after {fails} failed attempts")
        }
        Planned::CancelCaller => "caller cancelled".to_string(),
        Planned::CancelDeadline => "deadline expired mid-run".to_string(),
        Planned::ExpireInQueue => "deadline expired in queue".to_string(),
        Planned::RejectOverloaded { inflight } => {
            format!("overloaded: {inflight} in flight or queued")
        }
        Planned::RejectBudget { required_bytes } => {
            format!("required {required_bytes} bytes exceeds budget {budget}")
        }
        Planned::ShedQualityFloor => {
            "quality floor: no permitted rung fits the remaining deadline".to_string()
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::{lifecycles, plan_continuous, plan_continuous_with_events, Lifecycle};

    fn cfg() -> ServeConfig {
        ServeConfig::default()
    }

    /// Each request's lifecycle in the log of planning `reqs` under `c`.
    fn lifecycles_of(c: &ServeConfig, reqs: &[Request]) -> Vec<Lifecycle> {
        lifecycles(&plan_continuous_with_events(c, reqs).1, reqs)
    }

    #[test]
    fn cost_permille_rounds_to_nearest() {
        // 0.3 is not exactly representable: 0.3 * 1000.0 lands a hair
        // below 300 and truncation used to floor it to 299‰.
        assert_eq!(cost_permille(0.3), 300);
        assert_eq!(cost_permille(0.2999999999), 300);
        assert_eq!(cost_permille(0.0004), 0);
        assert_eq!(cost_permille(0.0006), 1);
        assert_eq!(cost_permille(-1.0), 0, "negative factors clamp to zero");
        for rung in DegradationRung::ALL {
            let exact = (rung.cost_factor() * 1000.0).round() as u64;
            assert_eq!(cost_permille(rung.cost_factor()), exact, "{rung}");
        }
    }

    #[test]
    fn service_ms_never_underflows_when_prefill_meets_base() {
        // Prefill-only requests have prefill_service_ms == base_service_ms;
        // the decode tail must be exactly zero, never a wrapped u64.
        let req = Request::prefill(0, 128, 0, 100);
        assert_eq!(req.prefill_service_ms(), req.base_service_ms());
        for rung in DegradationRung::ALL {
            let s = service_ms(&req, rung);
            assert!(
                s <= req.base_service_ms(),
                "{rung}: service {s} exceeds base {} — tail underflowed",
                req.base_service_ms()
            );
            assert!(s >= 1);
        }
    }

    #[test]
    fn backoff_saturates_instead_of_wrapping() {
        let c = ServeConfig {
            backoff_base_ms: u64::MAX / 2,
            backoff_cap_ms: u64::MAX,
            ..cfg()
        };
        // cap + jitter would wrap without saturating_add.
        for attempt in 0..4 {
            let b = backoff_ms(&c, 1, attempt);
            assert!(b >= c.backoff_base_ms, "attempt {attempt} wrapped to {b}");
        }
    }

    #[test]
    fn ladder_degrades_with_deadline_pressure() {
        let req = Request::prefill(0, 128, 0, 0);
        let base = req.base_service_ms();
        let (r, skipped) = choose_rung(&req, 2 * base);
        assert_eq!(r, DegradationRung::Full);
        assert!(skipped.is_empty());
        let (r, skipped) = choose_rung(&req, base / 3);
        assert_eq!(r, DegradationRung::PaperDefault);
        assert_eq!(skipped.len(), 1);
        let (r, _) = choose_rung(&req, base / 8);
        assert_eq!(r, DegradationRung::Tight);
        let (r, skipped) = choose_rung(&req, 1);
        assert_eq!(r, DegradationRung::WindowOnly, "bottom rung always runs");
        assert_eq!(skipped.len(), 3);
    }

    #[test]
    fn floored_ladder_sheds_instead_of_dropping_below_the_floor() {
        let req = Request::prefill(0, 128, 0, 0);
        let base = req.base_service_ms();
        let tight = DegradationRung::Tight.index();
        // Plenty of budget: the floor is invisible.
        let (r, _) = choose_rung_floored(&req, 2 * base, tight).unwrap();
        assert_eq!(r, DegradationRung::Full);
        // Moderate pressure lands on a permitted rung.
        let (r, _) = choose_rung_floored(&req, base / 8, tight).unwrap();
        assert_eq!(r, DegradationRung::Tight);
        // Brutal pressure: only WindowOnly would fit, the floor forbids
        // it, and the walk refuses instead of running anyway.
        assert!(choose_rung_floored(&req, 1, tight).is_none());
        // The unfloored walk keeps the run-anyway bottom behavior.
        let (r, skipped) = choose_rung_floored(&req, 1, DegradationRung::ALL.len() - 1).unwrap();
        assert_eq!(r, DegradationRung::WindowOnly);
        assert_eq!(skipped.len(), 3);
        // Out-of-range indices clamp to the full ladder.
        assert!(choose_rung_floored(&req, 1, 99).is_some());
    }

    #[test]
    fn floored_tenants_shed_under_deadline_pressure() {
        let mut c = cfg();
        c.quality_floors.push(crate::TenantFloor {
            tenant: 0,
            max_rung_index: DegradationRung::Tight.index(),
            max_uncertified_permille: 1000,
        });
        // tenant = id % 3: ids 0 and 3 are floored, 1/2/4 are not. A
        // 70 ms deadline fits only the window rung of a 224-token prompt.
        let reqs: Vec<Request> = (0..5)
            .map(|id| {
                let mut r = Request::prefill(id, 224, id * 10_000, 70);
                r.tenant = id % 3;
                r
            })
            .collect();
        let plans = plan_continuous(&c, &reqs);
        for (id, p) in plans.iter().enumerate() {
            if id % 3 == 0 {
                assert!(
                    matches!(p.planned, Planned::ShedQualityFloor),
                    "floored tenant must shed, got {:?}",
                    p.planned
                );
                assert!(!p.planned.runs_model());
            } else {
                assert!(matches!(p.planned, Planned::Serve { .. }), "{p:?}");
                assert_eq!(p.rung, DegradationRung::WindowOnly, "unfloored tenants bottom the ladder");
            }
        }
    }

    #[test]
    fn overload_rejects_when_slots_and_queue_full() {
        let c = ServeConfig {
            max_inflight: 1,
            max_pending: 1,
            ..cfg()
        };
        // Three simultaneous paper-scale arrivals: the first is admitted,
        // the second holds the one pending seat (half the free memory is
        // too much to admit early), the third bounces.
        let reqs: Vec<Request> = (0..3)
            .map(|id| Request::prefill(id, 512, 0, 100_000))
            .collect();
        let plans = plan_continuous(&c, &reqs);
        assert!(matches!(plans[0].planned, Planned::Serve { .. }));
        assert!(matches!(plans[1].planned, Planned::Serve { .. }));
        assert!(lifecycles_of(&c, &reqs)[1].queue_wait_ms > 0, "second request waited");
        assert!(matches!(
            plans[2].planned,
            Planned::RejectOverloaded { inflight: 2 }
        ));
        assert!(!plans[2].planned.runs_model());
    }

    #[test]
    fn deadline_expires_in_queue() {
        let c = ServeConfig {
            max_inflight: 1,
            ..cfg()
        };
        let long = Request::prefill(0, 512, 0, 1_000_000);
        // Arrives immediately behind, deadline far shorter than one of
        // the first request's chunks.
        let short = Request::prefill(1, 48, 1, 3);
        let plans = plan_continuous(&c, &[long, short]);
        assert!(matches!(plans[1].planned, Planned::ExpireInQueue), "{plans:?}");
        assert!(matches!(plans[0].planned, Planned::Serve { fails: 0 }));
    }

    #[test]
    fn transient_fault_retries_then_serves_with_backoff() {
        let c = cfg();
        let mut req = Request::prefill(3, 64, 0, 1_000_000);
        req.fault_fails = 2;
        let reqs = [req];
        let plans = plan_continuous(&c, &reqs);
        assert!(matches!(plans[0].planned, Planned::Serve { fails: 2 }));
        let lc = &lifecycles_of(&c, &reqs)[0];
        assert_eq!(lc.retries, 2);
        let expected = backoff_ms(&c, 3, 0) + backoff_ms(&c, 3, 1);
        assert_eq!(lc.backoff_ms, expected, "the plan sleeps the seeded schedule");
        assert!(expected >= 2 * c.backoff_base_ms);
        // Jitter is deterministic in (seed, id, attempt).
        assert_eq!(backoff_ms(&c, 3, 0), backoff_ms(&c, 3, 0));
        assert_ne!(backoff_ms(&c, 3, 0), backoff_ms(&c, 4, 0));
    }

    #[test]
    fn permanent_fault_exhausts_retry_budget() {
        for max_retries in [0, 2, 4] {
            let c = ServeConfig {
                max_retries,
                ..cfg()
            };
            let mut req = Request::prefill(0, 64, 0, 1_000_000);
            req.fault_fails = 99;
            let reqs = [req];
            let plans = plan_continuous(&c, &reqs);
            assert!(
                matches!(plans[0].planned, Planned::FailPermanent { fails }
                    if fails == max_retries as u64 + 1),
                "max_retries {max_retries}: {:?}",
                plans[0]
            );
            assert_eq!(lifecycles_of(&c, &reqs)[0].retries, max_retries as u64);
        }
    }

    #[test]
    fn caller_cancel_beats_completion() {
        let c = cfg();
        // The first attempt fails after an eighth of the 64 ms service;
        // the caller walks away during the backoff before the retry.
        let mut req = Request::prefill(0, 64, 0, 1_000_000);
        req.fault_fails = 1;
        req.cancel_after_ms = 10;
        let reqs = [req];
        let plans = plan_continuous(&c, &reqs);
        assert!(matches!(plans[0].planned, Planned::CancelCaller), "{plans:?}");
        let finish_ms = lifecycles_of(&c, &reqs)[0].finish_ms;
        assert!(finish_ms >= 10);
        assert!(finish_ms < 64, "cancelled before the retry completed");
    }
}
