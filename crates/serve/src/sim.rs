//! Virtual-time admission simulation.
//!
//! All *scheduling* decisions — admission, queueing, the degradation
//! rung, retries, backoff, and which cancellation (if any) wins — are
//! made here on a deterministic virtual clock, **before** any model
//! work runs. The real execution phase then runs the admitted requests
//! in parallel on the worker pool and only fills in bit-deterministic
//! measurements (the CRA α flags). Real wall-clock time never
//! influences an outcome, so the ledger is bit-identical at every
//! `SA_THREADS` setting — the property the chaos soak asserts.
//!
//! The simulated server has [`slots`](crate::ServeConfig::slots)
//! concurrent-execution slots and a bounded FIFO queue. Per arrival:
//!
//! 1. free every slot whose occupant finished by now, handing freed
//!    slots to queued requests (FIFO, at the freeing instant);
//! 2. a free slot starts the request, a full queue rejects it with
//!    [`Overloaded`](sa_tensor::SaError::Overloaded);
//! 3. at start, the degradation ladder picks the highest rung whose
//!    projected cost fits the remaining deadline budget, and the
//!    admission memory model (scaled ChatGLM2-6B footprints against
//!    `SA_MEM_BUDGET`) either admits or rejects with
//!    [`BudgetExceeded`](sa_tensor::SaError::BudgetExceeded);
//! 4. transient faults cost failed attempts plus seeded-jitter
//!    exponential backoff; the earliest of caller-cancel, deadline,
//!    and completion decides the planned outcome.

use crate::events::{EventKind, EventLog};
use crate::ledger::Outcome;
use crate::{Request, ServeConfig};
use sa_core::DegradationRung;
use sa_perf::memory::{prefill_footprint, PrefillStyle};
use sa_perf::ttft::ModelGeometry;
use sa_tensor::splitmix64;
use std::collections::VecDeque;

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
    /// The deadline expires while still queued — no slot ever ran it.
    ExpireInQueue,
    /// Rejected at arrival: slots and queue both full.
    RejectOverloaded { inflight: usize },
    /// Rejected at start: projected memory exceeds the budget.
    RejectBudget { required_bytes: u64 },
    /// Shed at start: the deadline demands a rung below the tenant's
    /// quality floor, and the floor wins — the request is refused
    /// rather than served with uncertifiable quality.
    ShedQualityFloor,
}

/// One request's simulated schedule.
#[derive(Debug, Clone, PartialEq)]
pub struct Plan {
    /// The planned outcome category.
    pub planned: Planned,
    /// Chosen degradation rung (meaningful only when model work runs).
    pub rung: DegradationRung,
    /// Rungs the ladder walked past, with the reason each was skipped.
    pub skipped: Vec<(DegradationRung, String)>,
    /// Virtual start time (== finish for never-started requests).
    pub start_ms: u64,
    /// Virtual completion / cancellation / rejection time.
    pub finish_ms: u64,
    /// Time spent waiting for a slot.
    pub queue_wait_ms: u64,
    /// Retries performed (failed attempts that were followed by another).
    pub retries: u64,
    /// Total virtual backoff slept between attempts.
    pub backoff_ms: u64,
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

    /// The ledger outcome this resolution executes to when execution
    /// follows the plan.
    pub fn outcome(&self) -> Outcome {
        match self {
            Planned::Serve { .. } => Outcome::Served,
            Planned::FailPermanent { .. } => Outcome::Failed,
            Planned::CancelCaller => Outcome::Cancelled,
            Planned::CancelDeadline => Outcome::DeadlineExceeded,
            Planned::ExpireInQueue => Outcome::ExpiredInQueue,
            Planned::RejectOverloaded { .. } => Outcome::RejectedOverloaded,
            Planned::RejectBudget { .. } => Outcome::RejectedBudget,
            Planned::ShedQualityFloor => Outcome::ShedQualityFloor,
        }
    }
}

impl Plan {
    /// Whether the plan involves running the model at all.
    pub fn runs_model(&self) -> bool {
        self.planned.runs_model()
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

struct Active {
    finish_ms: u64,
    bytes: u64,
    /// Index into the request slice.
    idx: usize,
}

enum StartResult {
    /// Slot consumed until `finish_ms`.
    Started(Plan, u64 /* bytes */),
    /// Plan resolved without consuming the slot.
    Resolved(Plan),
}

/// The typed reason string of the terminal event for `planned`, where
/// neither planner has more to say than the resolution itself.
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

/// Simulates the whole batch and returns one [`Plan`] per request,
/// aligned with the input order.
pub fn plan_batch(cfg: &ServeConfig, requests: &[Request]) -> Vec<Plan> {
    plan_batch_with_events(cfg, requests).0
}

/// [`plan_batch`] plus the `sa.events.v1` lifecycle event log the
/// simulation emitted (see [`crate::events`]). The log is produced by
/// this serial planner, so its serialized bytes are identical at every
/// `SA_THREADS` setting.
pub fn plan_batch_with_events(cfg: &ServeConfig, requests: &[Request]) -> (Vec<Plan>, EventLog) {
    let mut order: Vec<usize> = (0..requests.len()).collect();
    order.sort_by_key(|&i| (requests[i].arrival_ms, requests[i].id));
    let mut sim = OneShot {
        cfg,
        requests,
        active: Vec::new(),
        queue: VecDeque::new(),
        plans: vec![None; requests.len()],
        mem_in_use: weight_bytes(),
        log: EventLog::new(cfg.seed),
    };
    for i in order {
        let now = requests[i].arrival_ms;
        sim.drain_to(now);
        if sim.active.len() < cfg.slots() {
            sim.start(i, now);
        } else if sim.queue.len() < cfg.max_queue {
            sim.queue.push_back(i);
            let depth = sim.queue.len();
            sim.emit(now, i, EventKind::Enqueued, "", 0, format!("queue depth {depth}"));
        } else {
            let inflight = sim.active.len() + sim.queue.len();
            sim.resolve(i, unstarted(Planned::RejectOverloaded { inflight }, now, now));
        }
    }
    sim.drain_to(u64::MAX);

    let plans = sim
        .plans
        .into_iter()
        .zip(requests)
        // Every request starts, queues (drained above) or is rejected;
        // one that somehow did none of them expires where it arrived.
        .map(|(p, req)| {
            p.unwrap_or_else(|| unstarted(Planned::ExpireInQueue, req.arrival_ms, req.arrival_ms))
        })
        .collect();
    (plans, sim.log)
}

/// The plan of a request that never ran: resolved at `finish_ms`
/// after being handed a slot (or refused one) at `start_ms`.
fn unstarted(planned: Planned, start_ms: u64, finish_ms: u64) -> Plan {
    Plan {
        planned,
        rung: DegradationRung::Full,
        skipped: Vec::new(),
        start_ms,
        finish_ms,
        queue_wait_ms: 0,
        retries: 0,
        backoff_ms: 0,
    }
}

/// The one-shot planner's state: the slots, the FIFO queue behind
/// them, and the memory they hold (weights plus every active request).
struct OneShot<'a> {
    cfg: &'a ServeConfig,
    requests: &'a [Request],
    active: Vec<Active>,
    queue: VecDeque<usize>,
    plans: Vec<Option<Plan>>,
    mem_in_use: u64,
    log: EventLog,
}

impl OneShot<'_> {
    /// The planner's one event-log call: stamps the current balance.
    fn emit(&mut self, t: u64, i: usize, kind: EventKind, rung: &str, bytes: u64, reason: String) {
        let req = &self.requests[i];
        self.log.push(t, req, kind, rung, bytes, self.mem_in_use, reason);
    }

    /// Records the plan of a request that resolved without running.
    fn resolve(&mut self, i: usize, plan: Plan) {
        let reason = terminal_reason(&plan.planned, self.cfg.mem_budget_bytes);
        self.emit(plan.finish_ms, i, EventKind::terminal_for(&plan.planned), "", 0, reason);
        self.plans[i] = Some(plan);
    }

    /// Hands request `i` a free slot at `at`. Returns whether it took
    /// it: a request that resolves on the spot (cancelled, expired,
    /// floor-shed, over budget) leaves the slot to the next in line.
    fn start(&mut self, i: usize, at: u64) -> bool {
        let (plan, bytes) = match try_start(self.cfg, &self.requests[i], at, self.mem_in_use) {
            StartResult::Started(plan, bytes) => (plan, bytes),
            StartResult::Resolved(plan) => {
                self.resolve(i, plan);
                return false;
            }
        };
        self.mem_in_use += bytes;
        let rung = plan.rung.to_string();
        self.emit(at, i, EventKind::Admitted, "", bytes, String::new());
        let wait = format!("queue wait {} ms", plan.queue_wait_ms);
        self.emit(at, i, EventKind::Dispatched, &rung, 0, wait);
        if !plan.skipped.is_empty() {
            let skipped = format!("{} rungs skipped under deadline budget", plan.skipped.len());
            self.emit(at, i, EventKind::RungDegraded, &rung, 0, skipped);
        }
        if plan.retries > 0 {
            let retries = format!(
                "{} retries planned, {} ms backoff",
                plan.retries, plan.backoff_ms
            );
            self.emit(at, i, EventKind::Retried, &rung, 0, retries);
        }
        self.active.push(Active {
            finish_ms: plan.finish_ms,
            bytes,
            idx: i,
        });
        self.plans[i] = Some(plan);
        true
    }

    /// Frees every slot whose occupant finished by `upto`, earliest
    /// first, handing each freed slot down the queue at the freeing
    /// instant.
    fn drain_to(&mut self, upto: u64) {
        while let Some(pos) = (0..self.active.len())
            .filter(|&p| self.active[p].finish_ms <= upto)
            .min_by_key(|&p| (self.active[p].finish_ms, self.requests[self.active[p].idx].id))
        {
            let freed = self.active.swap_remove(pos);
            let at = freed.finish_ms;
            // Whatever held a slot ran the model, so its rung means something.
            if let Some(plan) = &self.plans[freed.idx] {
                let kind = EventKind::terminal_for(&plan.planned);
                let rung = plan.rung.to_string();
                let reason = terminal_reason(&plan.planned, self.cfg.mem_budget_bytes);
                self.emit(at, freed.idx, kind, &rung, 0, reason);
            }
            self.mem_in_use -= freed.bytes;
            self.emit(at, freed.idx, EventKind::Released, "", freed.bytes, String::new());
            while let Some(next) = self.queue.pop_front() {
                if self.start(next, at) {
                    break;
                }
            }
        }
    }
}

fn try_start(cfg: &ServeConfig, req: &Request, start_ms: u64, in_use_bytes: u64) -> StartResult {
    let deadline_t = req.arrival_ms + req.deadline_ms;
    let cancel_t = if req.cancel_after_ms > 0 {
        req.arrival_ms + req.cancel_after_ms
    } else {
        u64::MAX
    };
    let queue_wait_ms = start_ms - req.arrival_ms;
    let resolved = |planned: Planned, finish: u64| {
        StartResult::Resolved(Plan {
            queue_wait_ms,
            ..unstarted(planned, start_ms, finish)
        })
    };

    if cancel_t <= start_ms {
        // Cancelled while still queued.
        return resolved(Planned::CancelCaller, start_ms);
    }
    if start_ms >= deadline_t {
        return resolved(Planned::ExpireInQueue, start_ms);
    }

    let remaining = deadline_t - start_ms;
    let Some((rung, skipped)) =
        choose_rung_floored(req, remaining, cfg.max_rung_index_for(req.tenant))
    else {
        return resolved(Planned::ShedQualityFloor, start_ms);
    };

    let bytes = request_bytes(cfg, req);
    if in_use_bytes + bytes > cfg.mem_budget_bytes {
        return resolved(
            Planned::RejectBudget {
                required_bytes: in_use_bytes + bytes,
            },
            start_ms,
        );
    }

    let service = service_ms(req, rung);
    let fail_ms = (service / 8).max(1);
    let attempts_budget = cfg.max_retries as u64 + 1;
    let (planned, retries, backoff_total, duration) = if req.fault_fails >= attempts_budget {
        // Permanent: every attempt in the budget fails; backoff between
        // attempts, none after the last.
        let fails = attempts_budget;
        let backoff: u64 = (0..fails - 1).map(|a| backoff_ms(cfg, req.id, a)).sum();
        (
            Planned::FailPermanent { fails },
            fails - 1,
            backoff,
            fails * fail_ms + backoff,
        )
    } else if req.fault_fails > 0 {
        let fails = req.fault_fails;
        let backoff: u64 = (0..fails).map(|a| backoff_ms(cfg, req.id, a)).sum();
        (
            Planned::Serve { fails },
            fails,
            backoff,
            fails * fail_ms + backoff + service,
        )
    } else {
        (Planned::Serve { fails: 0 }, 0, 0, service)
    };

    let projected = start_ms + duration;
    let (planned, finish, retries, backoff_total) =
        if cancel_t < projected && cancel_t < deadline_t {
            (Planned::CancelCaller, cancel_t, 0, 0)
        } else if projected > deadline_t {
            (Planned::CancelDeadline, deadline_t, 0, 0)
        } else {
            (planned, projected, retries, backoff_total)
        };

    StartResult::Started(
        Plan {
            planned,
            rung,
            skipped,
            start_ms,
            finish_ms: finish,
            queue_wait_ms,
            retries,
            backoff_ms: backoff_total,
        },
        bytes,
    )
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::mixed_workload;

    fn cfg() -> ServeConfig {
        ServeConfig::default()
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
    fn plan_batch_sheds_floored_tenants_under_deadline_pressure() {
        let mut c = cfg();
        c.quality_floors.push(crate::TenantFloor {
            tenant: 0,
            max_rung_index: DegradationRung::Tight.index(),
            max_uncertified_permille: 0,
        });
        // tenant = id % 3: ids 0 and 3 are floored, 1/2/4 are not.
        // Deadline of 2 ms forces the unfloored ladder to WindowOnly.
        let reqs: Vec<Request> = (0..5)
            .map(|id| {
                let mut r = Request::prefill(id, 224, id * 10_000, 2);
                r.tenant = id % 3;
                r
            })
            .collect();
        let plans = plan_batch(&c, &reqs);
        for p in plans.iter().step_by(3) {
            assert!(
                matches!(p.planned, Planned::ShedQualityFloor),
                "floored tenant must shed, got {:?}",
                p.planned
            );
            assert!(!p.runs_model());
        }
        assert!(
            plans
                .iter()
                .enumerate()
                .filter(|(i, _)| i % 3 != 0)
                .all(|(_, p)| p.rung == DegradationRung::WindowOnly),
            "unfloored tenants still bottom the ladder"
        );
    }

    #[test]
    fn overload_rejects_when_slots_and_queue_full() {
        let c = ServeConfig {
            max_inflight: 1,
            max_queue: 1,
            ..cfg()
        };
        // Three simultaneous arrivals: one runs, one queues, one bounces.
        let reqs: Vec<Request> = (0..3)
            .map(|id| Request::prefill(id, 128, 0, 100_000))
            .collect();
        let plans = plan_batch(&c, &reqs);
        assert!(matches!(plans[0].planned, Planned::Serve { .. }));
        assert!(matches!(plans[1].planned, Planned::Serve { .. }));
        assert!(plans[1].queue_wait_ms > 0, "second request waited");
        assert!(matches!(
            plans[2].planned,
            Planned::RejectOverloaded { inflight: 2 }
        ));
    }

    #[test]
    fn budget_rejects_oversized_concurrency() {
        // Two scaled 1M-token prefills fit next to the weights on one
        // A100-80GB; a third concurrent one does not.
        let c = cfg();
        let one = request_bytes(&c, &Request::prefill(0, 512, 0, 0));
        assert!(weight_bytes() + 3 * one > c.mem_budget_bytes);
        assert!(weight_bytes() + 2 * one <= c.mem_budget_bytes);
        let reqs: Vec<Request> = (0..3)
            .map(|id| Request::prefill(id, 512, 0, 100_000))
            .collect();
        let plans = plan_batch(&c, &reqs);
        assert!(matches!(plans[0].planned, Planned::Serve { .. }));
        assert!(matches!(plans[1].planned, Planned::Serve { .. }));
        assert!(
            matches!(plans[2].planned, Planned::RejectBudget { required_bytes }
                if required_bytes > c.mem_budget_bytes)
        );
    }

    #[test]
    fn deadline_expires_in_queue() {
        let c = ServeConfig {
            max_inflight: 1,
            ..cfg()
        };
        let mut long = Request::prefill(0, 512, 0, 1_000_000);
        long.fault_fails = 0;
        // Arrives immediately behind, deadline far shorter than the
        // first request's service time.
        let short = Request::prefill(1, 48, 1, 3);
        let plans = plan_batch(&c, &[long, short]);
        assert!(matches!(plans[1].planned, Planned::ExpireInQueue));
    }

    #[test]
    fn transient_fault_retries_then_serves_with_backoff() {
        let c = cfg();
        let mut req = Request::prefill(3, 64, 0, 1_000_000);
        req.fault_fails = 2;
        let plans = plan_batch(&c, &[req]);
        assert!(matches!(plans[0].planned, Planned::Serve { fails: 2 }));
        assert_eq!(plans[0].retries, 2);
        assert!(plans[0].backoff_ms >= 2 * c.backoff_base_ms);
        // Jitter is deterministic in (seed, id, attempt).
        assert_eq!(backoff_ms(&c, 3, 0), backoff_ms(&c, 3, 0));
        assert_ne!(backoff_ms(&c, 3, 0), backoff_ms(&c, 4, 0));
    }

    #[test]
    fn permanent_fault_exhausts_retry_budget() {
        let c = cfg();
        let mut req = Request::prefill(0, 64, 0, 1_000_000);
        req.fault_fails = 99;
        let plans = plan_batch(&c, &[req]);
        assert!(
            matches!(plans[0].planned, Planned::FailPermanent { fails }
                if fails == c.max_retries as u64 + 1)
        );
    }

    #[test]
    fn caller_cancel_beats_completion() {
        let c = cfg();
        let mut req = Request::prefill(0, 512, 0, 1_000_000);
        req.cancel_after_ms = 10;
        let plans = plan_batch(&c, &[req]);
        assert!(matches!(plans[0].planned, Planned::CancelCaller));
        assert_eq!(plans[0].finish_ms, 10);
    }

    #[test]
    fn plan_batch_is_deterministic_and_total() {
        let c = cfg();
        let reqs = mixed_workload(11, 48);
        let a = plan_batch(&c, &reqs);
        let b = plan_batch(&c, &reqs);
        assert_eq!(a, b);
        assert_eq!(a.len(), reqs.len());
        // Every planned category that the chaos soak exercises shows up.
        assert!(a.iter().any(|p| matches!(p.planned, Planned::Serve { fails: 0 })));
        assert!(a.iter().any(|p| matches!(p.planned, Planned::Serve { fails } if fails > 0)));
        assert!(a.iter().any(|p| matches!(p.planned, Planned::CancelDeadline)));
    }
}
