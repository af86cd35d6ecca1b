//! Robustness contract of the `sa-serve` scheduler, exercised through
//! the public crate facade.
//!
//! These tests pin the four guarantees the serving layer makes:
//!
//! 1. **Deterministic ledger** — the serialized outcome ledger is
//!    byte-identical at every `SA_THREADS` setting;
//! 2. **Cooperative cancellation** — a deadline that cannot be met
//!    stops the request within one chunk and records partial progress;
//! 3. **Typed admission control** — overload and memory-budget
//!    rejections surface as typed [`SaError`] displays in the ledger,
//!    never panics or silent drops;
//! 4. **Honest degradation** — the ladder never certifies the CRA α
//!    target from the window-only rung, and the `degraded` flag always
//!    agrees with the rung-by-rung report;
//! 5. **Crash recovery without new failure modes** — checkpoint resume
//!    keeps the ledger bit-identical across thread counts, and a
//!    cancellation racing a restore neither resurrects the request nor
//!    leaks staged memory;
//! 6. **Planner invariants under every policy combination** — a seeded
//!    sweep over slots × queue bound × memory budget × watermarks ×
//!    quality floor × recovery × arrival shape holds the continuous
//!    planner's event log to its lifecycle, memory and floor contracts.

use sample_attention::baselines::FullAttention;
use sample_attention::core::DegradationRung;
use sample_attention::json::ToJson;
use sample_attention::model::SessionCheckpoint;
use sample_attention::serve::{
    fault_storm_workload, lifecycles, mixed_workload, open_loop_workload,
    plan_continuous_with_events, sim, EventKind, Outcome, Planned, Request, RequestKind, Scheduler,
    ServeConfig, SloSummary, TenantFloor,
};
use std::cell::Cell;
use sample_attention::tensor::check::{run_cases_n, Gen};
use sample_attention::tensor::fault::{self, FaultPlan};
use sample_attention::tensor::{pool, CancelToken, DeterministicRng, SaError};
use sample_attention::workloads::{ArrivalProcess, ArrivalShape};

fn run_under_threads(cfg: &ServeConfig, requests: &[Request], threads: usize) -> String {
    let scheduler = Scheduler::new(cfg.clone()).unwrap();
    let (ledger, _) = pool::with_threads(threads, || scheduler.run_continuous_with_events(requests)).unwrap();
    ledger.validate(requests).unwrap();
    sample_attention::json::to_string(&ledger.to_json())
}

#[test]
fn ledger_is_byte_identical_across_thread_counts() {
    let cfg = ServeConfig {
        seed: 0xC0DE,
        max_pending: 3,
        ..ServeConfig::default()
    };
    let requests = mixed_workload(cfg.seed, 16);
    let canonical = run_under_threads(&cfg, &requests, 1);
    for threads in [2, 4] {
        let other = run_under_threads(&cfg, &requests, threads);
        assert_eq!(
            canonical, other,
            "serialized ledger differs between 1 and {threads} worker threads"
        );
    }
}

#[test]
fn impossible_deadline_cancels_cooperatively_with_partial_progress() {
    let cfg = ServeConfig::default();
    // Window-only costs 224²/64 × 8 % ≈ 62 virtual ms: only the bottom
    // rung fits the 64 ms deadline, and a failed first attempt burns the
    // slack, so the planner cancels mid-run and execution runs the bottom
    // rung under a deadline token that trips before the first chunk
    // completes.
    let mut req = Request::prefill(0, 224, 0, 64);
    req.fault_fails = 1;
    let requests = vec![req];
    let scheduler = Scheduler::new(cfg).unwrap();
    let (ledger, _) = scheduler.run_continuous_with_events(&requests).unwrap();
    ledger.validate(&requests).unwrap();

    let rec = &ledger.records[0];
    assert_eq!(rec.outcome, Outcome::DeadlineExceeded);
    assert_eq!(rec.rung, "window_only", "nothing above the floor fits");
    assert!(!rec.alpha_satisfied);
    assert!(
        rec.chunks_completed < rec.chunks_total.max(1),
        "cancellation must stop before the run completes: {}/{}",
        rec.chunks_completed,
        rec.chunks_total
    );
    assert!(
        rec.error.contains("deadline exceeded"),
        "typed error display expected, got {:?}",
        rec.error
    );
}

#[test]
fn caller_cancellation_is_a_typed_outcome() {
    let cfg = ServeConfig::default();
    let mut req = Request::prefill(0, 128, 0, 10_000);
    // Caller walks away long before the 128²/64 = 256 ms service ends.
    req.cancel_after_ms = 5;
    let scheduler = Scheduler::new(cfg).unwrap();
    let (ledger, _) = scheduler.run_continuous_with_events(&[req.clone()]).unwrap();
    ledger.validate(std::slice::from_ref(&req)).unwrap();

    let rec = &ledger.records[0];
    assert_eq!(rec.outcome, Outcome::Cancelled);
    assert!(!rec.alpha_satisfied);
    assert!(
        rec.error.contains("cancelled at"),
        "typed error display expected, got {:?}",
        rec.error
    );
}

#[test]
fn overload_rejections_are_typed_and_total() {
    let cfg = ServeConfig {
        max_inflight: 1,
        max_pending: 1,
        ..ServeConfig::default()
    };
    // Three simultaneous paper-scale arrivals against one pending seat:
    // one is admitted, one waits in the seat, the third must bounce with
    // the typed overload error.
    let requests: Vec<Request> = (0..3)
        .map(|id| Request::prefill(id, 512, 0, 100_000))
        .collect();
    let scheduler = Scheduler::new(cfg).unwrap();
    let (ledger, _) = scheduler.run_continuous_with_events(&requests).unwrap();
    ledger.validate(&requests).unwrap();

    assert_eq!(ledger.count(Outcome::Served), 2);
    assert_eq!(ledger.count(Outcome::RejectedOverloaded), 1);
    let rejected = ledger
        .records
        .iter()
        .find(|r| r.outcome == Outcome::RejectedOverloaded)
        .unwrap();
    assert!(
        rejected.error.contains("overloaded"),
        "typed error display expected, got {:?}",
        rejected.error
    );
    assert!(rejected.rung.is_empty(), "rejected requests never run");
}

#[test]
fn memory_budget_rejections_are_typed() {
    // A budget one byte short of a paper-scale prompt (512 synthetic ≈
    // 1M real tokens) next to the weights: the two medium prompts are
    // served, the giant can never fit and is rejected, typed.
    let base = ServeConfig::default();
    let giant = Request::prefill(2, 512, 0, 100_000);
    let cfg = ServeConfig {
        mem_budget_bytes: sim::weight_bytes() + sim::request_bytes(&base, &giant) - 1,
        ..base
    };
    let requests = vec![
        Request::prefill(0, 224, 0, 100_000),
        Request::prefill(1, 224, 0, 100_000),
        giant,
    ];
    let scheduler = Scheduler::new(cfg).unwrap();
    let (ledger, _) = scheduler.run_continuous_with_events(&requests).unwrap();
    ledger.validate(&requests).unwrap();

    assert_eq!(ledger.count(Outcome::RejectedBudget), 1);
    assert_eq!(ledger.count(Outcome::Served), 2);
    let rejected = ledger
        .records
        .iter()
        .find(|r| r.outcome == Outcome::RejectedBudget)
        .unwrap();
    assert!(
        rejected.error.contains("memory budget exceeded"),
        "typed error display expected, got {:?}",
        rejected.error
    );
}

#[test]
fn ladder_never_certifies_alpha_from_the_window_rung() {
    let cfg = ServeConfig {
        seed: 0xA1FA,
        max_pending: 3,
        ..ServeConfig::default()
    };
    let requests = mixed_workload(cfg.seed, 24);
    let scheduler = Scheduler::new(cfg).unwrap();
    let (ledger, _) = scheduler.run_continuous_with_events(&requests).unwrap();
    ledger.validate(&requests).unwrap();

    assert!(ledger.count(Outcome::Served) > 0, "workload too adversarial");
    let mut saw_degraded = false;
    for rec in &ledger.records {
        assert!(
            !(rec.rung == "window_only" && rec.alpha_satisfied),
            "request {} certified alpha from the window-only rung",
            rec.id
        );
        if rec.alpha_satisfied {
            assert_eq!(rec.outcome, Outcome::Served);
        }
        assert_eq!(rec.degraded, rec.report.degraded());
        saw_degraded |= rec.degraded;
    }
    assert!(saw_degraded, "deadline tiers must force some degradation");
}

/// Draws a seeded request shape for the virtual-time arithmetic
/// property tests, deliberately over-weighting the edge shapes the
/// arithmetic bugfixes target: pure prefills (prefill == base, so the
/// decode tail must be exactly zero), decode requests with a
/// zero-length tail, and single-token prompts.
fn arbitrary_shape(rng: &mut DeterministicRng, id: u64) -> Request {
    let mut req = Request::prefill(
        id,
        [1usize, 2, 16, 48, 64, 224, 512, 1024][rng.index(8)],
        rng.index(10_000) as u64,
        1 + rng.index(20_000) as u64,
    );
    if rng.chance(0.4) {
        req.kind = RequestKind::Decode;
        // Includes 0: a decode request whose tail has already drained.
        req.new_tokens = rng.index(9);
    }
    req
}

#[test]
fn service_ms_never_wraps_and_is_bounded_by_full_attention() {
    let mut rng = DeterministicRng::new(0x5EED_5157);
    for id in 0..500 {
        let req = arbitrary_shape(&mut rng, id);
        let full = sim::service_ms(&req, DegradationRung::Full);
        assert_eq!(
            full,
            req.base_service_ms(),
            "full attention must cost exactly the base estimate ({req:?})"
        );
        for rung in DegradationRung::ALL {
            let s = sim::service_ms(&req, rung);
            assert!(s >= 1, "service must be at least one virtual ms ({req:?})");
            assert!(
                s <= full,
                "a cheaper rung must never cost more than full attention: \
                 {s} > {full} at {rung:?} ({req:?})"
            );
            // The wrap this pins: a prefill-dominated request whose
            // scaled prefill meets its base estimate must yield a zero
            // decode tail, not a ~u64::MAX underflow.
            assert!(s < 1 << 40, "service time wrapped ({req:?})");
        }
    }
}

#[test]
fn backoff_is_monotone_in_attempt_up_to_the_cap() {
    let cfg = ServeConfig::default();
    let mut rng = DeterministicRng::new(0xBACC_0FF5);
    for _ in 0..200 {
        let id = rng.index(1 << 20) as u64;
        let mut prev = 0u64;
        for attempt in 0..20 {
            let b = sim::backoff_ms(&cfg, id, attempt);
            assert!(
                b < cfg.backoff_cap_ms + cfg.backoff_base_ms,
                "backoff {b} exceeds cap {} plus jitter bound {}",
                cfg.backoff_cap_ms,
                cfg.backoff_base_ms
            );
            // Strictly below the cap each doubling outgrows the jitter,
            // so the schedule is non-decreasing attempt over attempt.
            if b < cfg.backoff_cap_ms {
                assert!(
                    b >= prev,
                    "backoff shrank below the cap: attempt {attempt} gave {b} after {prev}"
                );
            }
            prev = b;
        }
    }
}

#[test]
fn backoff_saturates_at_extreme_bases_instead_of_wrapping() {
    // A pathological operator config: base and cap near the top of u64.
    // Every attempt must saturate near the cap, never wrap to a tiny
    // backoff that would defeat the exponential schedule.
    let cfg = ServeConfig {
        backoff_base_ms: u64::MAX / 2,
        backoff_cap_ms: u64::MAX,
        ..ServeConfig::default()
    };
    for attempt in 0..20 {
        let b = sim::backoff_ms(&cfg, 3, attempt);
        assert!(
            b >= u64::MAX / 2,
            "extreme backoff wrapped to {b} at attempt {attempt}"
        );
    }
}

#[test]
fn request_bytes_is_monotone_in_prompt_length_at_scale_extremes() {
    for tokens_per_synthetic in [1u64, 2048, 1 << 20] {
        let cfg = ServeConfig {
            tokens_per_synthetic,
            ..ServeConfig::default()
        };
        let mut prev = 0u64;
        for seq_len in [1usize, 16, 64, 224, 512, 1024] {
            let req = Request::prefill(0, seq_len, 0, 1_000);
            let bytes = sim::request_bytes(&cfg, &req);
            assert!(bytes > 0, "a request always occupies memory");
            assert!(
                bytes >= prev,
                "memory model not monotone at scale {tokens_per_synthetic}: \
                 seq {seq_len} needs {bytes} < {prev}"
            );
            prev = bytes;
        }
    }
}

#[test]
fn continuous_ledger_is_byte_identical_across_thread_counts() {
    let cfg = ServeConfig {
        seed: 0xC0DE,
        ..ServeConfig::default()
    };
    let process = ArrivalProcess {
        seed: 0xC0DE ^ 0x51,
        rate_per_sec: 3.0,
        shape: ArrivalShape::FlashCrowd {
            quiet_ms: 3_000,
            burst_ms: 1_000,
            multiplier: 5.0,
        },
    };
    let requests = open_loop_workload(cfg.seed, &process, 8_000, 3);
    assert!(!requests.is_empty(), "stream drew no arrivals");

    let run = |threads: usize| {
        let scheduler = Scheduler::new(cfg.clone()).unwrap();
        let (ledger, _) =
            pool::with_threads(threads, || scheduler.run_continuous_with_events(&requests)).unwrap();
        ledger.validate(&requests).unwrap();
        sample_attention::json::to_string(&ledger.to_json())
    };
    let canonical = run(1);
    for threads in [2, 4] {
        let other = run(threads);
        assert_eq!(
            canonical, other,
            "serialized continuous ledger differs between 1 and {threads} worker threads"
        );
    }
}

#[test]
fn recovered_storm_ledger_is_byte_identical_across_thread_counts() {
    // Dense planned crashes with recovery on: resumed attempts restore
    // real checkpoints during execution, and the ledger must not notice
    // the pool size — recovery buys back work, never determinism.
    let cfg = ServeConfig {
        seed: 0x57F0,
        recovery_enabled: true,
        ..ServeConfig::default()
    };
    let requests = fault_storm_workload(cfg.seed, 16);
    let run = |threads: usize| {
        let scheduler = Scheduler::new(cfg.clone()).unwrap();
        let (ledger, _) =
            pool::with_threads(threads, || scheduler.run_continuous_with_events(&requests)).unwrap();
        ledger.validate(&requests).unwrap();
        ledger
    };
    let canonical = run(1);
    let recovered: u64 = canonical.records.iter().map(|r| r.recovered_attempts).sum();
    assert!(recovered > 0, "storm must exercise checkpoint resume");
    let canonical_json = sample_attention::json::to_string(&canonical.to_json());
    for threads in [2, 4] {
        let other = sample_attention::json::to_string(&run(threads).to_json());
        assert_eq!(
            canonical_json, other,
            "recovered ledger differs between 1 and {threads} worker threads"
        );
    }
}

#[test]
fn storm_event_log_is_byte_identical_across_thread_counts() {
    // The full chaos-soak fault storm installed around every run: planned
    // crashes, allocation failures, and KV bit flips during execution.
    // The `sa.events.v3` log is emitted by the serial virtual-time
    // planner and then reconciled against the executed ledger, so its
    // serialized bytes must not depend on the worker-pool size — run
    // pinned at 1 and 2 threads and at the session default.
    let cfg = ServeConfig {
        seed: 0x57F0,
        recovery_enabled: true,
        ..ServeConfig::default()
    };
    let requests = fault_storm_workload(cfg.seed, 16);
    let scheduler = Scheduler::new(cfg.clone()).unwrap();
    let _storm = fault::install(
        FaultPlan::new(cfg.seed)
            .serve_crash("serve_attempt", 4)
            .alloc_failures(3)
            .kv_bit_flips(1),
    );
    let run = |threads: Option<usize>| {
        let exec = || scheduler.run_continuous_with_events(&requests);
        let (ledger, log) = match threads {
            Some(n) => pool::with_threads(n, exec),
            None => exec(),
        }
        .unwrap();
        ledger.validate(&requests).unwrap();
        // Conservation + terminal agreement against the executed
        // ledger: this also exercises `EventLog::reconcile`, since the
        // storm's attempt-budget exhaustion flips planned serves to
        // `Failed` during execution.
        log.validate(&ledger).unwrap();
        sample_attention::json::to_string(&log.to_json())
    };
    let canonical = run(Some(1));
    for threads in [Some(2), None] {
        assert_eq!(
            canonical,
            run(threads),
            "storm event log differs between 1 and {threads:?} worker threads"
        );
    }
}

#[test]
fn batch_event_log_conserves_memory_and_is_terminal_total() {
    // A closed batch's event log must balance the memory ledger
    // event-by-event and give every request exactly one terminal
    // lifecycle event that agrees with its ledger record.
    let cfg = ServeConfig {
        seed: 0xC0DE,
        max_pending: 3,
        ..ServeConfig::default()
    };
    let requests = mixed_workload(cfg.seed, 16);
    let scheduler = Scheduler::new(cfg).unwrap();
    let (ledger, log) = scheduler.run_continuous_with_events(&requests).unwrap();
    ledger.validate(&requests).unwrap();
    log.validate(&ledger).unwrap();
    let terminals = log.terminals();
    assert_eq!(
        terminals.len(),
        requests.len(),
        "every request must reach exactly one terminal event"
    );
}

#[test]
fn cancel_racing_a_restore_resurrects_nothing_and_leaks_nothing() {
    // The adversarial interleaving crash recovery must survive: the
    // caller cancels while a checkpoint restore is staging. The restore
    // must observe the cancel before any KV is rebuilt — a typed
    // `Cancelled` at the restore site, no resurrected session, and the
    // memory ledger back at its pre-restore occupancy.
    let scheduler = Scheduler::new(ServeConfig::default()).unwrap();
    let model = scheduler.model();
    let tokens = model.tokenize_filler(48);
    let session = model
        .begin_decode(&tokens, &FullAttention::new())
        .expect("prefill");
    let snap = SessionCheckpoint::capture(&session);
    drop(session);

    let baseline = scheduler.memory().in_use();
    let token = CancelToken::new();
    token.cancel();
    let err = scheduler
        .restore_session(&snap, 0x5A17, &token)
        .expect_err("a tripped cancel must abort the restore");
    assert!(
        matches!(err, SaError::Cancelled { site: "checkpoint_restore", .. }),
        "expected a typed cancel at the restore site, got {err:?}"
    );
    assert_eq!(
        scheduler.memory().in_use(),
        baseline,
        "aborted restore leaked staged bytes"
    );
}

/// One seeded (config, stream) draw for the continuous-planner sweep:
/// every governor × floor × recovery combination the planner can meet.
fn planner_draw(g: &mut Gen) -> (ServeConfig, Vec<Request>) {
    let seed = g.seed();
    let base = ServeConfig {
        seed,
        ..ServeConfig::default()
    };
    let giant = sim::request_bytes(&base, &Request::prefill(0, 512, 0, 0));
    let medium = sim::request_bytes(&base, &Request::prefill(0, 224, 0, 0));
    let weights = sim::weight_bytes();
    let mem_budget_bytes = [
        // Giants can never fit; mediums squeeze in one or two at a time.
        weights + medium + medium / 2,
        weights + giant,
        weights + giant + giant / 2,
        weights + 2 * giant,
        base.mem_budget_bytes,
    ][g.usize_in(0, 5)];
    let mem_low_permille = g.u64_in(300, 900);
    let mut cfg = ServeConfig {
        max_inflight: g.usize_in(1, 5),
        max_pending: g.usize_in(2, 65),
        mem_budget_bytes,
        mem_low_permille,
        mem_high_permille: g.u64_in(mem_low_permille, 951),
        recovery_enabled: g.chance(0.5),
        ..base
    };
    if g.chance(0.5) {
        // Either a rung floor that forbids the uncertifiable bottom rung,
        // or the whole ladder under a cap on uncertified tokens.
        let (max_rung_index, max_uncertified_permille) = match g.usize_in(0, 4) {
            0 => (DegradationRung::PaperDefault.index(), 0),
            1 => (DegradationRung::Tight.index(), 0),
            _ => (DegradationRung::WindowOnly.index(), g.u64_in(0, 400)),
        };
        cfg.quality_floors.push(TenantFloor {
            tenant: 0,
            max_rung_index,
            max_uncertified_permille,
        });
    }
    let requests = if g.chance(0.25) {
        fault_storm_workload(seed, g.usize_in(8, 40))
    } else {
        let shape = match g.usize_in(0, 3) {
            0 => ArrivalShape::Constant,
            1 => ArrivalShape::Diurnal {
                period_ms: 2_000,
                depth: 0.7,
            },
            _ => ArrivalShape::FlashCrowd {
                quiet_ms: 1_500,
                burst_ms: 500,
                multiplier: 5.0,
            },
        };
        let process = ArrivalProcess {
            seed: seed ^ 0x51,
            rate_per_sec: f64::from(g.f32_in(1.0, 20.0)),
            shape,
        };
        open_loop_workload(seed, &process, g.u64_in(2_000, 6_000), 3)
    };
    (cfg, requests)
}

/// The continuous planner's contracts on one seeded draw; returns the
/// number of requests it shed on a quality floor.
fn check_planner_invariants(g: &mut Gen) -> u64 {
    let (cfg, requests) = planner_draw(g);
    let (plans, log) = plan_continuous_with_events(&cfg, &requests);
    assert_eq!(plans.len(), requests.len());
    log.check_conservation().unwrap();
    let lifecycles = lifecycles(&log, &requests);

    let floor = cfg.quality_floors.first();
    let (mut floor_tokens, mut floor_uncertified, mut floor_unseen) = (0u64, 0u64, 0u64);
    let mut floor_sheds = 0u64;
    for ((req, cp), lc) in requests.iter().zip(&plans).zip(&lifecycles) {
        let events: Vec<_> = log.events.iter().filter(|e| e.request_id == req.id).collect();
        // Exactly one terminal event, of the planned kind and
        // outcome, at the planned finish. A budget rejection is the
        // one resolution with two kinds: the governor's load shed of
        // a request the budget could hold alone, or one that never
        // fits.
        let terminals: Vec<_> = events.iter().filter(|e| e.kind.outcome().is_some()).collect();
        assert_eq!(terminals.len(), 1, "request {}: {terminals:?}", req.id);
        let term = terminals[0];
        let governor_shed = matches!(cp.planned, Planned::RejectBudget { .. })
            && term.kind == EventKind::ShedGovernor;
        assert!(
            term.kind == EventKind::terminal_for(&cp.planned) || governor_shed,
            "request {}: {:?} logged for {:?}",
            req.id,
            term.kind,
            cp.planned
        );
        let planned_outcome = EventKind::terminal_for(&cp.planned).outcome();
        assert_eq!(term.kind.outcome(), planned_outcome, "request {}", req.id);
        assert_eq!(term.t_ms, lc.finish_ms, "request {}", req.id);
        assert_eq!(term.tenant, req.tenant);
        // Every floor refusal is the typed floor-shed kind.
        if cp.planned == Planned::ShedQualityFloor {
            assert_eq!(term.kind, EventKind::ShedQualityFloor, "request {}", req.id);
            floor_sheds += 1;
        }

        // The first token is stamped once, at the planned instant.
        let first_tokens: Vec<u64> = events
            .iter()
            .filter(|e| e.kind == EventKind::FirstToken)
            .map(|e| e.t_ms)
            .collect();
        let planned_first_token: Vec<u64> =
            lc.ttft_ms.map(|t| req.arrival_ms + t).into_iter().collect();
        assert_eq!(first_tokens, planned_first_token, "request {}", req.id);

        // Lifecycle stamps never run backwards. Memory events carry
        // the instant the planner moved the bytes — before the
        // terminal stamp of a request shed ahead of its due time,
        // before the end of the decode step an evicted session is in
        // the middle of — so conservation holds them instead.
        let mut last = 0u64;
        for ev in events.iter().filter(|e| {
            !matches!(e.kind, EventKind::Released | EventKind::PressureEvicted)
        }) {
            assert!(ev.t_ms >= last, "request {}: {ev:?} after t={last}", req.id);
            last = ev.t_ms;
        }

        // What was admitted is released exactly once, net of what
        // the governor already evicted.
        let bytes_of = |kind: EventKind| -> u64 {
            events.iter().filter(|e| e.kind == kind).map(|e| e.bytes).sum()
        };
        assert_eq!(
            bytes_of(EventKind::Released),
            bytes_of(EventKind::Admitted) - bytes_of(EventKind::PressureEvicted),
            "request {}",
            req.id
        );

        // A floored tenant is never dispatched below its rung; its
        // tokens are tallied for the cap below.
        if let Some(floor) = floor.filter(|f| f.tenant == req.tenant) {
            let tokens = (req.seq_len + req.new_tokens) as u64;
            let dispatched: Vec<_> =
                events.iter().filter(|e| e.kind == EventKind::Dispatched).collect();
            for ev in &dispatched {
                let rung = DegradationRung::ALL
                    .into_iter()
                    .find(|r| r.as_str() == ev.rung)
                    .unwrap_or_else(|| panic!("unknown rung {:?}", ev.rung));
                assert!(floor.permits(rung), "request {}: {rung} under {floor:?}", req.id);
                floor_tokens += tokens;
                if !rung.can_certify_alpha() {
                    floor_uncertified += tokens;
                }
            }
            // Dispatched, then resolved before its first micro-task
            // ran (held back by the tenant's bucket): no `Dispatched`
            // event, but maybe in the planner's tally.
            if dispatched.is_empty() && cp.planned.runs_model() {
                floor_unseen += tokens;
            }
        }
    }

    // The uncertified-token cap holds over the planning run
    // (`TenantFloor::max_uncertified_permille`). The planner checks
    // it at each dispatch decision, in decision order, which neither
    // request order nor the log's first-micro-task stamps reproduce;
    // so the check is on the run's totals, with the tokens of
    // requests that may have been dispatched unseen counted as
    // certified (the planner's denominator is at most that large).
    if let Some(floor) = floor {
        assert!(
            floor_uncertified * 1000
                <= floor.max_uncertified_permille * (floor_tokens + floor_unseen),
            "{floor_uncertified} of {floor_tokens} (+{floor_unseen} unseen) tokens \
             uncertified under {floor:?}"
        );
    }

    // The event-level SLO fold counts every outcome the plans
    // resolve to, floor refusals included.
    let slo = SloSummary::from_events("continuous", &log, &requests);
    let count = |pred: &dyn Fn(&Planned) -> bool| -> u64 {
        plans.iter().filter(|p| pred(&p.planned)).count() as u64
    };
    assert_eq!(slo.requests, requests.len() as u64);
    assert_eq!(slo.served, count(&|p| matches!(p, Planned::Serve { .. })));
    assert_eq!(
        slo.rejected,
        count(&|p| matches!(p, Planned::RejectOverloaded { .. } | Planned::RejectBudget { .. }))
    );
    assert_eq!(
        slo.deadline_missed,
        count(&|p| matches!(p, Planned::ExpireInQueue | Planned::CancelDeadline))
    );
    assert_eq!(slo.cancelled, count(&|p| *p == Planned::CancelCaller));
    assert_eq!(slo.failed, count(&|p| matches!(p, Planned::FailPermanent { .. })));
    assert_eq!(slo.shed_quality_floor, floor_sheds);
    floor_sheds
}

#[test]
fn continuous_planner_invariants_hold_across_policy_combinations() {
    // Draws run, and draws whose plan sheds a request on a quality floor:
    // the floor-refusal checks must not hold vacuously.
    let (draws, floor_draws) = (Cell::new(0usize), Cell::new(0usize));
    run_cases_n("continuous_planner_invariants", 64, |g| {
        let floor_sheds = check_planner_invariants(g);
        draws.set(draws.get() + 1);
        if floor_sheds > 0 {
            floor_draws.set(floor_draws.get() + 1);
        }
    });
    // A single-case rerun (`SA_PROP_SEED`) need not meet a floor.
    assert!(
        draws.get() < 64 || floor_draws.get() > 0,
        "no draw shed a request on a quality floor"
    );
}

#[test]
fn planner_invariants_hold_where_dispatch_order_is_not_request_order() {
    // A floored tenant (cap 285‰) whose uncertified request 3 is
    // dispatched after certified work of later requests: summed in
    // request order it reads 224 of 296 tokens uncertified, though the
    // planner never let the run's share pass the cap.
    check_planner_invariants(&mut Gen::new(0x6477_551c_e7eb_108b));
}
