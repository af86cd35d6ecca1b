//! The deadline-aware request scheduler.
//!
//! Every entry point ([`Scheduler::run_with_events`], its guarded form
//! and [`Scheduler::run_continuous_with_events`]) processes its requests
//! in two phases:
//!
//! 1. **Plan** ([`sim::plan_batch_with_events`] for a one-shot batch,
//!    [`continuous::plan_continuous_with_events`] for an open-loop
//!    stream): a serial virtual-time simulation decides every
//!    scheduling outcome — admission, queueing, the degradation rung,
//!    retry counts, backoff, and which cancellation (caller or
//!    deadline) wins. Deterministic by construction.
//! 2. **Execute**: the admitted requests run their *real* model work in
//!    parallel on the worker pool. Each request's execution is
//!    panic-free end to end: injected worker faults surface as typed
//!    [`WorkerPanic`](sa_tensor::SaError::WorkerPanic) errors (retried
//!    with the planned backoff), and cancellations surface as typed
//!    [`Cancelled`](sa_tensor::SaError::Cancelled) /
//!    [`DeadlineExceeded`](sa_tensor::SaError::DeadlineExceeded) within
//!    one chunk of work. Execution contributes only bit-deterministic
//!    data (the measured CRA α flags) to the ledger.
//!
//! Fault plans are installed per attempt on the executor's thread
//! ([`sa_tensor::fault::install`]), so concurrent requests never see
//! each other's injected faults, and an attempt's plan shadows a storm
//! plan its executor inherited from the thread that issued the run; the
//! plan is dropped when the attempt ends.
//!
//! ## Crash recovery
//!
//! With [`ServeConfig::recovery_enabled`] (the default), a crashed
//! attempt leaves behind a chunk-boundary checkpoint
//! ([`PrefillCheckpoint`] for chunked prefills, [`SessionCheckpoint`]
//! for decode sessions) and the next attempt *resumes* from it instead
//! of re-running prefill from scratch, recomputing at most the one
//! chunk that was in flight. Every restore runs the integrity
//! protocol: the cancel token is checked first (a cancel racing a
//! restore must not resurrect the session), the KV staging bytes are
//! reserved in the scheduler's [`MemoryLedger`] (an injected
//! allocation failure falls the attempt back to scratch), and the
//! checksum is recomputed over the staged bytes so KV corruption
//! surfaces as a typed
//! [`CorruptCheckpoint`](sa_tensor::SaError::CorruptCheckpoint) —
//! counted, then contained by retrying from scratch. The
//! `serve.checkpoint.*` counters audit every snapshot, restore, and
//! corruption; `serve.pressure.alloc_faults` counts staging
//! allocations the fault harness failed.

use crate::continuous::{self, ContinuousPlan};
use crate::events::EventLog;
use crate::ledger::{Ledger, Outcome, RequestRecord, LEDGER_SCHEMA};
use crate::memory::MemoryLedger;
use crate::quality::{canary_probe, is_canary, CanaryObservation, GuardedMethod, QualityGuard};
use crate::sim::{self, Plan, Planned};
use crate::{Request, RequestKind, ServeConfig};
use sa_baselines::{AttentionMethod, FullAttention, SampleAttentionMethod, WindowOnly};
use sa_core::{DegradationReport, DegradationRung};
use sa_model::{
    ChunkedPrefill, DecodeSession, ModelConfig, PrefillCheckpoint, SessionCheckpoint,
    SyntheticTransformer,
};
use sa_tensor::fault::FaultPlan;
use sa_tensor::{fault, pool, CancelToken, SaError, TensorError};
use sa_trace::metrics;

/// The scheduler: a synthetic-transformer serving stack with admission
/// control, cooperative cancellation, retry, checkpoint-based crash
/// recovery, and the degradation ladder.
pub struct Scheduler {
    cfg: ServeConfig,
    model: SyntheticTransformer,
    /// Byte-accurate ledger for checkpoint staging reservations. The
    /// *planner* does its own serial occupancy projection; this ledger
    /// accounts the execution side's transient restore buffers so leak
    /// tests can assert it returns to baseline.
    mem: MemoryLedger,
}

/// The checkpoint a crashed attempt leaves for its successor.
enum Snapshot {
    Prefill(PrefillCheckpoint),
    Session(SessionCheckpoint),
}

impl Scheduler {
    /// Builds a scheduler (and its synthetic model) from `cfg`.
    ///
    /// # Errors
    ///
    /// Propagates model-construction errors.
    pub fn new(cfg: ServeConfig) -> Result<Self, TensorError> {
        let model = SyntheticTransformer::new(ModelConfig::tiny(cfg.seed))?;
        let mem = MemoryLedger::from_config(&cfg);
        Ok(Scheduler { cfg, model, mem })
    }

    /// The active configuration.
    pub fn config(&self) -> &ServeConfig {
        &self.cfg
    }

    /// The synthetic model this scheduler serves.
    pub fn model(&self) -> &SyntheticTransformer {
        &self.model
    }

    /// The execution-side memory ledger (checkpoint staging bytes).
    pub fn memory(&self) -> &MemoryLedger {
        &self.mem
    }

    /// Runs a batch: plans every request on the virtual clock
    /// ([`sim::plan_batch_with_events`]), executes the admitted ones in
    /// parallel, and returns the ledger sorted by request id together
    /// with the planner's [`EventLog`], reconciled against the executed
    /// outcomes (see [`EventLog::reconcile`]) so [`EventLog::validate`]
    /// holds on the pair.
    ///
    /// # Errors
    ///
    /// Only scheduler-level pool failures propagate; per-request faults,
    /// cancellations, and rejections are *outcomes* in the ledger, never
    /// errors of the run itself.
    pub fn run_with_events(
        &self,
        requests: &[Request],
    ) -> Result<(Ledger, EventLog), TensorError> {
        let (ledger, log, _) = self.run_batch_masked(requests, &[])?;
        Ok((ledger, log))
    }

    /// [`Scheduler::run_with_events`] under a [`QualityGuard`]: the
    /// guard's current quarantine mask is frozen for the whole batch
    /// (quarantined heads execute dense, flagged
    /// [`QualityQuarantine`](sa_core::FallbackReason::QualityQuarantine)),
    /// the batch runs, and afterwards the guard absorbs this batch's
    /// canary observations **serially in request-id order** — so
    /// quarantine and probation transitions are bit-identical at every
    /// `SA_THREADS` setting, exactly like the ledger itself.
    ///
    /// # Errors
    ///
    /// Same as [`Scheduler::run_with_events`].
    pub fn run_guarded_with_events(
        &self,
        requests: &[Request],
        guard: &mut QualityGuard,
    ) -> Result<(Ledger, EventLog), TensorError> {
        let mask = guard.quarantine_mask();
        let (ledger, log, observations) = self.run_batch_masked(requests, &mask)?;
        guard.absorb(&observations);
        Ok((ledger, log))
    }

    /// The one-shot run under the frozen quarantine `mask`, returning
    /// the batch's canary observations alongside the ledger and log.
    fn run_batch_masked(
        &self,
        requests: &[Request],
        mask: &[bool],
    ) -> Result<(Ledger, EventLog, Vec<CanaryObservation>), TensorError> {
        let _span = sa_trace::span_in("serve", "batch");
        let (plans, log) = sim::plan_batch_with_events(&self.cfg, requests);
        self.execute_all("serve_batch", requests.len(), log, |i| {
            let (mut rec, obs) = self.execute(&requests[i], &plans[i], mask);
            // The one-shot planner holds a slot for the whole request,
            // so first-token timing is analytic.
            if rec.outcome == Outcome::Served {
                rec.ttft_ms = requests[i].oneshot_ttft_ms(rec.finish_ms);
            }
            (rec, obs)
        })
    }

    /// Plans an open-loop stream on the continuous-batching timeline
    /// (prefill chunks of new requests interleaved with decode steps of
    /// in-flight sessions, under per-tenant token-bucket quotas) without
    /// running any model work. Useful for SLO sweeps.
    pub fn plan_continuous(&self, requests: &[Request]) -> Vec<ContinuousPlan> {
        continuous::plan_continuous(&self.cfg, requests)
    }

    /// Runs an open-loop stream under continuous batching: plans the
    /// interleaved timeline on the virtual clock, executes the admitted
    /// requests' model work in parallel, and returns the sorted ledger
    /// — first-token (TTFT) timing and recovery tallies filled in from
    /// the plan — together with the continuous planner's [`EventLog`]
    /// (including the flight-recorder [`Postmortem`](crate::Postmortem)s),
    /// reconciled against the executed outcomes.
    ///
    /// # Errors
    ///
    /// Only scheduler-level pool failures propagate; per-request faults,
    /// cancellations, and rejections are ledger outcomes.
    pub fn run_continuous_with_events(
        &self,
        requests: &[Request],
    ) -> Result<(Ledger, EventLog), TensorError> {
        let _span = sa_trace::span_in("serve", "continuous");
        let (plans, log) = continuous::plan_continuous_with_events(&self.cfg, requests);
        let (ledger, log, _) = self.execute_all("serve_continuous", requests.len(), log, |i| {
            let (mut rec, obs) = self.execute(&requests[i], &plans[i].plan, &[]);
            rec.ttft_ms = plans[i].first_token_ms.saturating_sub(rec.arrival_ms);
            rec.recovered_attempts = plans[i].recovered_attempts;
            rec.recomputed_tokens = plans[i].recomputed_tokens;
            (rec, obs)
        })?;
        Ok((ledger, log))
    }

    /// The execution phase both planners share: run `one(i)` — request
    /// `i`'s planned work plus the planner-specific timing on its
    /// record — for all `n` requests in parallel at pool site `site`,
    /// sort the records (and the canary observations beside them, so a
    /// caller's serial absorb is deterministic) by request id, publish
    /// the metrics, and reconcile the planner's log against what
    /// execution did.
    fn execute_all(
        &self,
        site: &'static str,
        n: usize,
        mut log: EventLog,
        one: impl Fn(usize) -> (RequestRecord, Option<CanaryObservation>) + Sync,
    ) -> Result<(Ledger, EventLog, Vec<CanaryObservation>), TensorError> {
        let mut pairs = pool::try_parallel_map(site, n, 1, one)?;
        pairs.sort_by_key(|(rec, _)| rec.id);
        let (records, observations): (Vec<_>, Vec<_>) = pairs.into_iter().unzip();
        record_metrics(&records);
        log.reconcile(&records);
        let ledger = Ledger {
            schema: LEDGER_SCHEMA.to_string(),
            seed: self.cfg.seed,
            records,
        };
        Ok((ledger, log, observations.into_iter().flatten().collect()))
    }

    /// Executes one planned request under the frozen quarantine `mask`
    /// (empty = no quarantine). Never panics and never fails: every
    /// error becomes a ledger outcome. Returns the record plus the
    /// shadow-canary observation when this request drew canary duty.
    fn execute(
        &self,
        req: &Request,
        plan: &Plan,
        mask: &[bool],
    ) -> (RequestRecord, Option<CanaryObservation>) {
        let mut report = DegradationReport::new(self.cfg.alpha_target);
        for (rung, why) in &plan.skipped {
            report.record(*rung, false, why);
        }
        let mut rec = RequestRecord {
            id: req.id,
            kind: req.kind,
            seq_len: req.seq_len as u64,
            arrival_ms: req.arrival_ms,
            start_ms: plan.start_ms,
            finish_ms: plan.finish_ms,
            queue_wait_ms: plan.queue_wait_ms,
            tenant: req.tenant,
            new_tokens: req.new_tokens as u64,
            ttft_ms: 0,
            outcome: Outcome::Served,
            rung: String::new(),
            alpha_satisfied: false,
            degraded: false,
            retries: plan.retries,
            backoff_ms: plan.backoff_ms,
            recovered_attempts: 0,
            recomputed_tokens: 0,
            chunks_completed: 0,
            chunks_total: 0,
            error: String::new(),
            canary: false,
            canary_true_cra: 0.0,
            canary_max_abs_err: 0.0,
            canary_gap_permille: 0,
            quarantined_heads: 0,
            report: DegradationReport::new(self.cfg.alpha_target),
        };

        match plan.planned {
            Planned::RejectOverloaded { inflight } => {
                rec.outcome = Outcome::RejectedOverloaded;
                rec.error = SaError::Overloaded {
                    inflight,
                    max_inflight: self.cfg.slots(),
                }
                .to_string();
            }
            Planned::RejectBudget { required_bytes } => {
                rec.outcome = Outcome::RejectedBudget;
                rec.error = SaError::BudgetExceeded {
                    required_bytes,
                    budget_bytes: self.cfg.mem_budget_bytes,
                }
                .to_string();
            }
            Planned::ExpireInQueue => {
                rec.outcome = Outcome::ExpiredInQueue;
                rec.error = SaError::DeadlineExceeded {
                    site: "serve_queue",
                    completed: 0,
                    total: 0,
                }
                .to_string();
            }
            Planned::ShedQualityFloor => {
                rec.outcome = Outcome::ShedQualityFloor;
                rec.error = SaError::QualityFloor {
                    tenant: req.tenant,
                    what: "no permitted rung fits the remaining deadline".to_string(),
                }
                .to_string();
            }
            Planned::CancelCaller | Planned::CancelDeadline => {
                let token = CancelToken::new();
                let expect_deadline = matches!(plan.planned, Planned::CancelDeadline);
                let token = if expect_deadline {
                    // Already-expired deadline on the trace clock: trips
                    // deterministically before the first chunk.
                    CancelToken::with_deadline_ns(0)
                } else {
                    token.cancel();
                    token
                };
                match self.run_model(req, plan.rung, &token, mask) {
                    Err(e) if e.is_cancellation() => {
                        rec.outcome = if matches!(e, SaError::DeadlineExceeded { .. }) {
                            Outcome::DeadlineExceeded
                        } else {
                            Outcome::Cancelled
                        };
                        if let SaError::Cancelled { completed, total, .. }
                        | SaError::DeadlineExceeded { completed, total, .. } = &e
                        {
                            rec.chunks_completed = *completed as u64;
                            rec.chunks_total = *total as u64;
                        }
                        rec.error = e.to_string();
                        report.record(plan.rung, false, "cancelled before completion");
                    }
                    Err(e) => {
                        rec.outcome = Outcome::Failed;
                        rec.error = e.to_string();
                        report.record(plan.rung, false, "error before cancellation");
                    }
                    Ok(_) => {
                        // A pre-tripped token cannot complete; record the
                        // inconsistency loudly rather than panicking.
                        rec.outcome = Outcome::Failed;
                        rec.error = "planned cancellation but run completed".to_string();
                        report.record(plan.rung, false, "planned cancellation not observed");
                    }
                }
                rec.rung = plan.rung.as_str().to_string();
            }
            Planned::Serve { fails } | Planned::FailPermanent { fails } => {
                let clean_final = matches!(plan.planned, Planned::Serve { .. });
                match self.run_attempts(req, plan.rung, fails, clean_final, mask) {
                    Ok(alpha_ok) => {
                        rec.outcome = Outcome::Served;
                        report.record(plan.rung, alpha_ok, "served");
                    }
                    Err(e) => {
                        rec.outcome = Outcome::Failed;
                        rec.error = e.to_string();
                        report.record(plan.rung, false, "retry_exhausted");
                    }
                }
                rec.rung = plan.rung.as_str().to_string();
            }
        }

        rec.alpha_satisfied = rec.outcome == Outcome::Served && report.final_alpha_satisfied();
        rec.degraded = report.degraded();
        rec.report = report;
        if !rec.rung.is_empty() {
            rec.quarantined_heads = mask.iter().filter(|&&q| q).count() as u64;
        }

        // Shadow canary: a seeded deterministic fraction of served
        // requests additionally runs a dense reference prefill and
        // per-head exact-softmax CRA, measuring the true quality the
        // sparse path delivered. The probe is pure measurement — it
        // never changes the outcome; a probe error is contained and
        // counted, not escalated.
        let mut observation = None;
        if rec.outcome == Outcome::Served
            && is_canary(self.cfg.seed, req.id, self.cfg.canary_denominator)
        {
            let production = self.guarded_method(plan.rung, mask);
            match production {
                Ok(method) => match canary_probe(
                    &self.model,
                    plan.rung,
                    method.as_ref(),
                    req.seq_len,
                    req.id,
                ) {
                    Ok(obs) => {
                        rec.canary = true;
                        rec.canary_true_cra = obs.true_cra;
                        rec.canary_max_abs_err = obs.max_abs_err;
                        rec.canary_gap_permille = obs.gap_permille;
                        observation = Some(obs);
                    }
                    Err(_) => metrics::counter("quality.canary.probe_errors").add(1),
                },
                Err(_) => metrics::counter("quality.canary.probe_errors").add(1),
            }
        }
        (rec, observation)
    }

    /// Runs the planned attempt script for one request: `fails` crashing
    /// attempts, then (for [`Planned::Serve`]) one clean attempt. With
    /// recovery enabled each crash snapshots its chunk-boundary progress
    /// and the successor resumes from it; without, every attempt starts
    /// from scratch (the pre-recovery behavior). A `serve_crash` storm
    /// plan installed around the run (the chaos storm, inherited by this
    /// executor) injects *unplanned* crashes on top, bounded by one extra
    /// retry budget so the loop always terminates.
    fn run_attempts(
        &self,
        req: &Request,
        rung: DegradationRung,
        fails: u64,
        clean_final: bool,
        mask: &[bool],
    ) -> Result<bool, SaError> {
        let mut snap: Option<Snapshot> = None;
        let mut planned_done = 0u64;
        let mut storm_budget = self.cfg.max_retries as u64 + 1;
        let mut attempt = 0u64;
        let mut last_err: Option<SaError> = None;
        loop {
            if planned_done >= fails && !clean_final {
                return Err(last_err.unwrap_or(SaError::WorkerPanic {
                    site: "serve_attempt",
                    message: "planned permanent failure".to_string(),
                }));
            }
            let salt = self.cfg.seed ^ req.id.wrapping_mul(0x9E37_79B9_7F4A_7C15) ^ attempt;
            let storm = storm_budget > 0 && fault::should_crash("serve_attempt", salt);
            let crashing = storm || planned_done < fails;
            let token = CancelToken::new();
            let (mut result, new_snap) = if self.cfg.recovery_enabled {
                match req.kind {
                    RequestKind::Prefill => {
                        let resume = match &snap {
                            Some(Snapshot::Prefill(p)) => Some(p),
                            _ => None,
                        };
                        self.prefill_attempt(
                            req, rung, &token, resume, crashing, attempt, salt, mask,
                        )
                    }
                    RequestKind::Decode => {
                        let resume = match &snap {
                            Some(Snapshot::Session(s)) => Some(s),
                            _ => None,
                        };
                        self.decode_attempt(req, rung, &token, resume, crashing, salt, mask)
                    }
                }
            } else {
                // Scratch mode: the injected fault aborts the attempt
                // wherever it strikes; nothing is checkpointed and the
                // retry replays the request from the beginning.
                let _guard = crashing.then(|| {
                    fault::install(
                        FaultPlan::new(self.cfg.seed ^ req.id).worker_panic(&req.fault_site),
                    )
                });
                (self.run_model(req, rung, &token, mask), None)
            };
            if crashing && result.is_ok() {
                // The fault site never fired (e.g. a storm crash on a
                // request without a scripted site): honor the crash
                // script with a synthesized contained panic.
                result = Err(SaError::WorkerPanic {
                    site: "serve_attempt",
                    message: "injected serving-loop crash".to_string(),
                });
            }
            if let Some(s) = new_snap {
                snap = Some(s);
            }
            attempt += 1;
            match result {
                Ok(alpha_ok) => return Ok(alpha_ok),
                Err(e) if matches!(e, SaError::WorkerPanic { .. }) => {
                    if storm {
                        storm_budget -= 1;
                    } else if planned_done < fails {
                        planned_done += 1;
                    } else {
                        // A clean attempt crashed outside the script
                        // (an inherited storm plan at a model site): charge
                        // the storm budget so the loop stays bounded.
                        if storm_budget == 0 {
                            return Err(e);
                        }
                        storm_budget -= 1;
                    }
                    last_err = Some(e);
                }
                Err(e) => return Err(e),
            }
        }
    }

    /// One chunked-prefill attempt under the recovery protocol: restore
    /// the checkpoint (or start fresh), and either crash after the
    /// planner's drawn number of chunks — leaving a new snapshot — or
    /// drive the prefill to completion.
    #[allow(clippy::too_many_arguments)]
    fn prefill_attempt(
        &self,
        req: &Request,
        rung: DegradationRung,
        token: &CancelToken,
        resume: Option<&PrefillCheckpoint>,
        crashing: bool,
        attempt: u64,
        salt: u64,
        mask: &[bool],
    ) -> (Result<bool, SaError>, Option<Snapshot>) {
        let method = match self.guarded_method(rung, mask) {
            Ok(m) => m,
            Err(what) => {
                return (
                    Err(SaError::InvalidDimension {
                        op: "Scheduler::prefill_attempt",
                        what,
                    }),
                    None,
                )
            }
        };
        let mut run: Option<ChunkedPrefill<'_>> = None;
        if let Some(snapshot) = resume {
            match self.restore_prefill(snapshot, salt, token) {
                Ok(restored) => run = restored,
                Err(e) => return (Err(e), None),
            }
        }
        let mut run = match run {
            Some(r) => r,
            None => {
                let tokens = self.model.tokenize_filler(req.seq_len);
                match self.model.start_prefill(&tokens, self.cfg.chunk_size.max(1)) {
                    Ok(r) => r,
                    Err(e) => return (Err(e), None),
                }
            }
        };
        if crashing {
            // Mirror the planner's draw: complete the same number of
            // chunks it assumed this attempt reached, snapshot at the
            // quiescent boundary, then crash the in-flight chunk under
            // the installed fault plan.
            let adv = continuous::checkpoint_advance(
                &self.cfg,
                req.id,
                attempt,
                run.total_chunks() as u64,
            ) as usize;
            let target = (run.chunks_done() + adv).min(run.total_chunks().saturating_sub(1));
            while run.chunks_done() < target {
                if let Err(e) = run.advance_chunk(method.as_ref()) {
                    return (Err(e), None);
                }
            }
            let snapshot = Snapshot::Prefill(PrefillCheckpoint::capture(&run));
            metrics::counter("serve.checkpoint.snapshots").add(1);
            let _guard = (!req.fault_site.is_empty()).then(|| {
                fault::install(
                    FaultPlan::new(self.cfg.seed ^ req.id).worker_panic(&req.fault_site),
                )
            });
            return match run.advance_chunk(method.as_ref()) {
                Err(e) => (Err(e), Some(snapshot)),
                // Caller synthesizes the crash when the site never fired.
                Ok(()) => (Ok(false), Some(snapshot)),
            };
        }
        // Clean attempt: the remaining chunks under cooperative
        // cancellation.
        match run.run_to_end(method.as_ref(), token) {
            Ok((result, _caches)) => (Ok(result.heads_alpha_unsatisfied() == 0), None),
            Err(e) => (Err(e), None),
        }
    }

    /// One decode attempt under the recovery protocol: restore the
    /// session checkpoint (or prefill fresh), and either snapshot and
    /// crash the next decode step, or generate the remaining tokens.
    #[allow(clippy::too_many_arguments)]
    fn decode_attempt(
        &self,
        req: &Request,
        rung: DegradationRung,
        token: &CancelToken,
        resume: Option<&SessionCheckpoint>,
        crashing: bool,
        salt: u64,
        mask: &[bool],
    ) -> (Result<bool, SaError>, Option<Snapshot>) {
        let method = match self.guarded_method(rung, mask) {
            Ok(m) => m,
            Err(what) => {
                return (
                    Err(SaError::InvalidDimension {
                        op: "Scheduler::decode_attempt",
                        what,
                    }),
                    None,
                )
            }
        };
        let tokens = self.model.tokenize_filler(req.seq_len);
        let mut session: Option<DecodeSession<'_>> = None;
        if let Some(snapshot) = resume {
            match self.restore_session(snapshot, salt, token) {
                Ok(restored) => session = restored,
                Err(e) => return (Err(e), None),
            }
        }
        let mut session = match session {
            Some(s) => s,
            None => match self.model.begin_decode(&tokens, method.as_ref()) {
                Ok(s) => s,
                Err(e) => return (Err(e), None),
            },
        };
        session.install_cancel(token);
        let vocab = self.model.config().vocab_size as u32;
        if crashing {
            // The prefill's KV state is the valuable thing: snapshot it,
            // then crash the in-flight decode step under the fault plan.
            let snapshot = Snapshot::Session(SessionCheckpoint::capture(&session));
            metrics::counter("serve.checkpoint.snapshots").add(1);
            let _guard = (!req.fault_site.is_empty()).then(|| {
                fault::install(
                    FaultPlan::new(self.cfg.seed ^ req.id).worker_panic(&req.fault_site),
                )
            });
            return match session.step_in(0..vocab) {
                Err(e) => (Err(e), Some(snapshot)),
                // Caller synthesizes the crash when the site never fired.
                Ok(_) => (Ok(false), Some(snapshot)),
            };
        }
        let produced = session.tokens().len().saturating_sub(tokens.len());
        let remaining = req.new_tokens.saturating_sub(produced);
        match session.generate_in(remaining, 0..vocab) {
            Ok(_) => (
                Ok(session.prefill_result().heads_alpha_unsatisfied() == 0),
                None,
            ),
            Err(e) => (Err(e), None),
        }
    }

    /// Restores a prefill checkpoint under the serving-layer protocol
    /// (see [`restore_session`](Self::restore_session)).
    ///
    /// # Errors
    ///
    /// Cancellation (and other non-containable errors) propagate;
    /// containable restore failures return `Ok(None)`.
    pub fn restore_prefill(
        &self,
        snapshot: &PrefillCheckpoint,
        salt: u64,
        token: &CancelToken,
    ) -> Result<Option<ChunkedPrefill<'_>>, SaError> {
        self.restore_guarded(snapshot.kv_bytes(), salt, token, |c| {
            snapshot.restore(&self.model, salt, c)
        })
    }

    /// Restores a decode-session checkpoint under the serving-layer
    /// protocol: reserve the KV staging bytes in the memory ledger
    /// (consulting the fault harness), run the checksum-validated
    /// restore with the cancel token checked *first*, release the
    /// staging reservation, and count the outcome in
    /// `serve.checkpoint.*`. Returns `Ok(None)` when the restore is
    /// unusable — injected allocation failure or detected KV
    /// corruption — and the attempt must fall back to scratch.
    ///
    /// # Errors
    ///
    /// Cancellation (and other non-containable errors) propagate; the
    /// reservation is released on every path, so a cancel racing a
    /// restore never resurrects the session and never leaks bytes.
    pub fn restore_session(
        &self,
        snapshot: &SessionCheckpoint,
        salt: u64,
        token: &CancelToken,
    ) -> Result<Option<DecodeSession<'_>>, SaError> {
        self.restore_guarded(snapshot.kv_bytes(), salt, token, |c| {
            snapshot.restore(&self.model, salt, c)
        })
    }

    /// The shared restore protocol (reserve → restore → release →
    /// count), generic over the checkpoint kind.
    fn restore_guarded<T>(
        &self,
        kv_bytes: u64,
        salt: u64,
        token: &CancelToken,
        restore: impl FnOnce(Option<&CancelToken>) -> Result<T, SaError>,
    ) -> Result<Option<T>, SaError> {
        if self.mem.reserve(kv_bytes, salt).is_err() {
            // Staging allocation failed (injected or genuine budget
            // exhaustion): contained — the attempt restarts from
            // scratch instead of dying.
            metrics::counter("serve.pressure.alloc_faults").add(1);
            return Ok(None);
        }
        let result = restore(Some(token));
        self.mem.release(kv_bytes);
        match result {
            Ok(v) => {
                metrics::counter("serve.checkpoint.restores").add(1);
                Ok(Some(v))
            }
            Err(SaError::CorruptCheckpoint { .. }) => {
                metrics::counter("serve.checkpoint.corruptions").add(1);
                Ok(None)
            }
            Err(e) => Err(e),
        }
    }

    /// Runs the real model work for one attempt. Returns whether every
    /// head's measured stage-2 coverage met the α target.
    fn run_model(
        &self,
        req: &Request,
        rung: DegradationRung,
        token: &CancelToken,
        mask: &[bool],
    ) -> Result<bool, TensorError> {
        let method = self
            .guarded_method(rung, mask)
            .map_err(|what| TensorError::InvalidDimension {
                op: "Scheduler::run_model",
                what,
            })?;
        let tokens = self.model.tokenize_filler(req.seq_len);
        match req.kind {
            RequestKind::Prefill => {
                let run = self.model.start_prefill(&tokens, self.cfg.chunk_size.max(1))?;
                let (result, _caches) = run.run_to_end(method.as_ref(), token)?;
                Ok(result.heads_alpha_unsatisfied() == 0)
            }
            RequestKind::Decode => {
                let mut session = self.model.begin_decode(&tokens, method.as_ref())?;
                session.install_cancel(token);
                let vocab = self.model.config().vocab_size as u32;
                session.generate_in(req.new_tokens, 0..vocab)?;
                Ok(session.prefill_result().heads_alpha_unsatisfied() == 0)
            }
        }
    }

    /// The rung's attention method, wrapped in a [`GuardedMethod`] when
    /// any head is quarantined (an empty or all-clear mask adds no
    /// wrapper, so the unguarded paths are byte-for-byte unchanged).
    fn guarded_method(
        &self,
        rung: DegradationRung,
        mask: &[bool],
    ) -> Result<Box<dyn AttentionMethod>, String> {
        let inner = method_for(rung)?;
        if mask.iter().any(|&q| q) {
            let heads_per_layer = self
                .model
                .layers()
                .first()
                .map(|l| l.num_heads())
                .unwrap_or(1);
            Ok(Box::new(GuardedMethod::new(inner, mask.to_vec(), heads_per_layer)))
        } else {
            Ok(inner)
        }
    }
}

/// The attention method each rung runs.
fn method_for(rung: DegradationRung) -> Result<Box<dyn AttentionMethod>, String> {
    match rung {
        DegradationRung::Full => Ok(Box::new(FullAttention::new())),
        DegradationRung::WindowOnly => WindowOnly::new(DegradationRung::TIGHT_WINDOW_RATIO)
            .map(|w| Box::new(w) as Box<dyn AttentionMethod>)
            .map_err(|e| e.to_string()),
        DegradationRung::PaperDefault | DegradationRung::Tight => rung
            .sample_config()
            .map_err(|e| e.to_string())?
            .map(|c| Box::new(SampleAttentionMethod::new(c)) as Box<dyn AttentionMethod>)
            .ok_or_else(|| format!("rung {rung} has no SampleAttention config")),
    }
}

/// Publishes batch outcomes to the global `serve.*` metrics.
fn record_metrics(records: &[RequestRecord]) {
    metrics::counter("serve.requests").add(records.len() as u64);
    for rec in records {
        let c = match rec.outcome {
            Outcome::Served => "serve.served",
            Outcome::RejectedOverloaded => "serve.rejected_overloaded",
            Outcome::RejectedBudget => "serve.rejected_budget",
            Outcome::ExpiredInQueue => "serve.expired_in_queue",
            Outcome::DeadlineExceeded => "serve.deadline_exceeded",
            Outcome::Cancelled => "serve.cancelled",
            Outcome::Failed => "serve.failed",
            Outcome::ShedQualityFloor => "quality.floor.sheds",
        };
        metrics::counter(c).add(1);
        if rec.canary {
            metrics::counter("quality.canary.requests").add(1);
            metrics::histogram("quality.canary.gap_permille")
                .record(rec.canary_gap_permille.max(0) as u64);
        }
        if !rec.rung.is_empty() {
            metrics::histogram("serve.queue_wait_ms").record(rec.queue_wait_ms);
            if let Some(rung) = rec.report.final_rung() {
                metrics::histogram("serve.final_rung").record(rung.index() as u64);
            }
        }
        if rec.retries > 0 {
            metrics::counter("serve.retried").add(rec.retries);
            metrics::histogram("serve.backoff_ms").record(rec.backoff_ms);
        }
        if rec.recovered_attempts > 0 {
            metrics::counter("serve.recovered").add(rec.recovered_attempts);
            metrics::histogram("serve.recomputed_tokens").record(rec.recomputed_tokens);
        }
        if rec.ttft_ms > 0 {
            metrics::histogram("serve.ttft_ms").record(rec.ttft_ms);
        }
        if let Some(tpot_ms) = rec.tpot_ms() {
            metrics::histogram("serve.tpot_ms").record(tpot_ms);
        }
        if rec.degraded {
            metrics::counter("serve.degraded").add(1);
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::mixed_workload;

    fn scheduler() -> Scheduler {
        Scheduler::new(ServeConfig::default()).unwrap()
    }

    #[test]
    fn healthy_batch_serves_everything() {
        let s = scheduler();
        let reqs: Vec<Request> = (0..3)
            .map(|id| Request::prefill(id, 64, id * 500, 1_000_000))
            .collect();
        let ledger = s.run_with_events(&reqs).unwrap().0;
        ledger.validate(&reqs).unwrap();
        assert_eq!(ledger.count(Outcome::Served), 3);
        assert!(ledger.records.iter().all(|r| r.rung == "full"));
        assert!(ledger.records.iter().all(|r| r.alpha_satisfied));
    }

    #[test]
    fn transient_fault_is_retried_to_success() {
        let s = scheduler();
        let mut req = Request::prefill(0, 64, 0, 1_000_000);
        req.fault_fails = 2;
        req.fault_site = crate::request::FAULT_SITE.to_string();
        let ledger = s.run_with_events(std::slice::from_ref(&req)).unwrap().0;
        ledger.validate(std::slice::from_ref(&req)).unwrap();
        let rec = &ledger.records[0];
        assert_eq!(rec.outcome, Outcome::Served);
        assert_eq!(rec.retries, 2);
        assert!(rec.backoff_ms > 0);
    }

    #[test]
    fn permanent_fault_fails_with_typed_error() {
        let s = scheduler();
        let mut req = Request::prefill(0, 64, 0, 1_000_000);
        req.fault_fails = 99;
        req.fault_site = crate::request::FAULT_SITE.to_string();
        let ledger = s.run_with_events(std::slice::from_ref(&req)).unwrap().0;
        let rec = &ledger.records[0];
        assert_eq!(rec.outcome, Outcome::Failed);
        assert!(rec.error.contains("worker panic"), "{}", rec.error);
        assert!(!rec.alpha_satisfied);
    }

    #[test]
    fn deadline_cancellation_reports_chunk_progress() {
        let s = scheduler();
        // Brutal deadline: nothing fits, mid-run expiry planned.
        let req = Request::prefill(0, 224, 0, 2);
        let ledger = s.run_with_events(std::slice::from_ref(&req)).unwrap().0;
        let rec = &ledger.records[0];
        assert_eq!(rec.outcome, Outcome::DeadlineExceeded);
        assert_eq!(rec.rung, "window_only", "brutal deadline bottoms the ladder");
        assert_eq!(rec.chunks_completed, 0, "pre-expired token stops chunk 0");
        assert!(rec.chunks_total > 0);
        assert!(!rec.alpha_satisfied, "window-only can never certify alpha");
        assert!(rec.degraded);
    }

    #[test]
    fn decode_requests_serve_and_cancel() {
        let s = scheduler();
        let mut served = Request::prefill(0, 48, 0, 1_000_000);
        served.kind = RequestKind::Decode;
        served.new_tokens = 4;
        let mut cancelled = served.clone();
        cancelled.id = 1;
        cancelled.arrival_ms = 10_000;
        cancelled.cancel_after_ms = 1;
        let reqs = vec![served, cancelled];
        let ledger = s.run_with_events(&reqs).unwrap().0;
        ledger.validate(&reqs).unwrap();
        assert_eq!(ledger.records[0].outcome, Outcome::Served);
        assert_eq!(ledger.records[1].outcome, Outcome::Cancelled);
        assert!(ledger.records[1].error.contains("cancelled"));
    }

    #[test]
    fn crashed_attempts_snapshot_and_resume_from_checkpoints() {
        // The counters read below move only while this thread traces.
        let _session = sa_trace::scoped();
        let snapshots = metrics::counter("serve.checkpoint.snapshots").get();
        let restores = metrics::counter("serve.checkpoint.restores").get();
        let s = scheduler();
        let mut req = Request::prefill(11, 96, 0, 1_000_000);
        req.fault_fails = 2;
        req.fault_site = crate::request::FAULT_SITE.to_string();
        let ledger = s.run_with_events(std::slice::from_ref(&req)).unwrap().0;
        let rec = &ledger.records[0];
        assert_eq!(rec.outcome, Outcome::Served);
        assert_eq!(rec.retries, 2);
        assert!(
            metrics::counter("serve.checkpoint.snapshots").get() >= snapshots + 2,
            "each crashed attempt snapshots its progress"
        );
        assert!(
            metrics::counter("serve.checkpoint.restores").get() >= restores + 1,
            "the successor resumes from the checkpoint"
        );
    }

    #[test]
    fn faulted_decode_served_identically_with_and_without_recovery() {
        // The recovery path must change *work*, not *answers*: a decode
        // request that crashes twice produces the same ledger record
        // whether retries resume from checkpoints or start from scratch.
        let mut req = Request::prefill(3, 48, 0, 1_000_000);
        req.kind = RequestKind::Decode;
        req.new_tokens = 4;
        req.fault_fails = 2;
        req.fault_site = crate::request::FAULT_SITE.to_string();
        let with = scheduler()
            .run_with_events(std::slice::from_ref(&req))
            .unwrap()
            .0;
        let mut cfg = ServeConfig::default();
        cfg.recovery_enabled = false;
        let without = Scheduler::new(cfg)
            .unwrap()
            .run_with_events(std::slice::from_ref(&req))
            .unwrap()
            .0;
        assert_eq!(with.records[0].outcome, Outcome::Served);
        assert_eq!(with, without, "recovery must be invisible in the ledger");
    }

    #[test]
    fn cancel_racing_a_restore_leaks_nothing_and_resurrects_nothing() {
        let s = scheduler();
        let tokens = s.model().tokenize_filler(48);
        let session = s
            .model()
            .begin_decode(&tokens, &FullAttention::new())
            .unwrap();
        let snap = sa_model::SessionCheckpoint::capture(&session);
        drop(session);
        let baseline = s.memory().in_use();
        let token = CancelToken::new();
        token.cancel();
        let err = s.restore_session(&snap, 0x51, &token).unwrap_err();
        assert!(
            matches!(err, SaError::Cancelled { site: "checkpoint_restore", .. }),
            "{err:?}"
        );
        assert_eq!(
            s.memory().in_use(),
            baseline,
            "the staging reservation must be released on the cancel path"
        );
    }

    #[test]
    fn corrupt_and_alloc_faulted_restores_fall_back_to_scratch() {
        // The counters read below move only while this thread traces.
        let _session = sa_trace::scoped();
        let s = scheduler();
        let tokens = s.model().tokenize_filler(48);
        let session = s
            .model()
            .begin_decode(&tokens, &FullAttention::new())
            .unwrap();
        let snap = sa_model::SessionCheckpoint::capture(&session);
        drop(session);
        let token = CancelToken::new();

        let corruptions = metrics::counter("serve.checkpoint.corruptions").get();
        {
            let _g = fault::install(FaultPlan::new(9).kv_bit_flips(1));
            let restored = s.restore_session(&snap, 0x52, &token).unwrap();
            assert!(restored.is_none(), "corrupt restore is contained");
        }
        assert!(metrics::counter("serve.checkpoint.corruptions").get() > corruptions);

        let alloc_faults = metrics::counter("serve.pressure.alloc_faults").get();
        {
            let _g = fault::install(FaultPlan::new(9).alloc_failures(1));
            let restored = s.restore_session(&snap, 0x53, &token).unwrap();
            assert!(restored.is_none(), "failed staging alloc is contained");
        }
        assert!(metrics::counter("serve.pressure.alloc_faults").get() > alloc_faults);
        assert_eq!(s.memory().in_use(), 0, "no path leaks staging bytes");
    }

    #[test]
    fn serve_crash_storm_is_contained_and_deterministic() {
        let s = scheduler();
        let reqs: Vec<Request> = (0..4)
            .map(|id| Request::prefill(id, 64, id * 300, 1_000_000))
            .collect();
        let run_under_storm = || {
            let _g = fault::install(FaultPlan::new(0xBAD).serve_crash("serve_attempt", 3));
            s.run_with_events(&reqs).unwrap().0
        };
        let a = run_under_storm();
        a.validate(&reqs).unwrap();
        let b = pool::with_threads(2, run_under_storm);
        assert_eq!(a, b, "storm crashes key off (site, salt), not threads");
    }

    #[test]
    fn mixed_ledger_is_identical_across_thread_counts() {
        let s = scheduler();
        let reqs = mixed_workload(5, 16);
        let baseline = pool::with_threads(1, || s.run_with_events(&reqs)).unwrap().0;
        baseline.validate(&reqs).unwrap();
        for threads in [2, 4] {
            let ledger = pool::with_threads(threads, || s.run_with_events(&reqs)).unwrap().0;
            assert_eq!(
                ledger, baseline,
                "ledger must be bit-identical at {threads} threads"
            );
        }
    }
}
