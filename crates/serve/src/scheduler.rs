//! The deadline-aware request scheduler.
//!
//! Both entry points ([`Scheduler::run_continuous_with_events`] and its
//! guarded form [`Scheduler::run_guarded_with_events`]) process their
//! requests in two phases:
//!
//! 1. **Plan** ([`continuous::plan_continuous_with_events`]): a serial
//!    virtual-time simulation of the continuous-batching timeline
//!    decides every scheduling outcome — admission, queueing, the
//!    degradation rung, retry counts, backoff, and which cancellation
//!    (caller or deadline) wins. Deterministic by construction.
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
//! contained by retrying from scratch. What execution did is each
//! request's own record: its `checkpoint_snapshots`,
//! `checkpoint_restores`, `checkpoint_corruptions` and `alloc_faults`
//! ledger columns count every snapshot, restore, corrupt restore and
//! failed staging allocation ([`Restore`] is what a restore came to).

use crate::continuous::{self, ContinuousPlan};
use crate::events::EventLog;
use crate::ledger::{Ledger, Outcome, RequestRecord, LEDGER_SCHEMA};
use crate::lifecycle::{lifecycles, Lifecycle};
use crate::memory::MemoryLedger;
use crate::quality::{canary_probe, is_canary, CanaryObservation, GuardedMethod, QualityGuard};
use crate::sim::Planned;
use crate::{Request, RequestKind, ServeConfig};
use sa_baselines::{AttentionMethod, FullAttention, SampleAttentionMethod, WindowOnly};
use sa_core::{DegradationReport, DegradationRung};
use sa_model::{
    ChunkedPrefill, DecodeSession, ModelConfig, PrefillCheckpoint, SessionCheckpoint,
    SyntheticTransformer,
};
use sa_tensor::fault::FaultPlan;
use sa_tensor::{fault, pool, CancelToken, SaError, TensorError};

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

/// What a checkpoint restore under the serving protocol came to when it
/// did not fail outright.
#[derive(Debug)]
pub enum Restore<T> {
    /// The checkpoint restored: the attempt resumes from it.
    Resumed(T),
    /// The staged KV failed its checksum
    /// ([`CorruptCheckpoint`](sa_tensor::SaError::CorruptCheckpoint)):
    /// contained, the attempt starts from scratch.
    Corrupt,
    /// The KV staging reservation failed (an injected allocation fault
    /// or an exhausted budget): contained, the attempt starts from
    /// scratch.
    AllocFault,
}

impl<T> Restore<T> {
    /// Counts this case in `rec`'s execution columns and hands back the
    /// resumed state, if any.
    fn tally(self, rec: &mut RequestRecord) -> Option<T> {
        match self {
            Restore::Resumed(v) => {
                rec.checkpoint_restores += 1;
                Some(v)
            }
            Restore::Corrupt => {
                rec.checkpoint_corruptions += 1;
                None
            }
            Restore::AllocFault => {
                rec.alloc_faults += 1;
                None
            }
        }
    }
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

    /// Plans an open-loop stream on the continuous-batching timeline
    /// (prefill chunks of new requests interleaved with decode steps of
    /// in-flight sessions, under per-tenant token-bucket quotas) without
    /// running any model work. Useful for SLO sweeps.
    pub fn plan_continuous(&self, requests: &[Request]) -> Vec<ContinuousPlan> {
        continuous::plan_continuous(&self.cfg, requests)
    }

    /// Runs an open-loop stream under continuous batching: plans the
    /// interleaved timeline on the virtual clock, executes the admitted
    /// requests' model work in parallel, and returns the ledger sorted
    /// by request id — its timing, TTFT and retry columns folded from
    /// the planner's event log ([`lifecycles`]) — together with the planner's
    /// [`EventLog`] (including the flight-recorder
    /// [`Postmortem`](crate::Postmortem)s), reconciled against the
    /// executed outcomes (see [`EventLog::reconcile`]) so
    /// [`EventLog::validate`] holds on the pair.
    ///
    /// # Errors
    ///
    /// Only scheduler-level pool failures propagate; per-request faults,
    /// cancellations, and rejections are *outcomes* in the ledger, never
    /// errors of the run itself.
    pub fn run_continuous_with_events(
        &self,
        requests: &[Request],
    ) -> Result<(Ledger, EventLog), TensorError> {
        let (ledger, log, _) = self.run_masked(requests, &[])?;
        Ok((ledger, log))
    }

    /// [`Scheduler::run_continuous_with_events`] under a
    /// [`QualityGuard`]: the guard's current quarantine mask is frozen
    /// for the whole run (quarantined heads execute dense, flagged
    /// [`QualityQuarantine`](sa_core::FallbackReason::QualityQuarantine)),
    /// the run executes, and afterwards the guard absorbs this run's
    /// canary observations **serially in request-id order** — so
    /// quarantine and probation transitions are bit-identical at every
    /// `SA_THREADS` setting, exactly like the ledger itself.
    ///
    /// # Errors
    ///
    /// Same as [`Scheduler::run_continuous_with_events`].
    pub fn run_guarded_with_events(
        &self,
        requests: &[Request],
        guard: &mut QualityGuard,
    ) -> Result<(Ledger, EventLog), TensorError> {
        let mask = guard.quarantine_mask();
        let (ledger, log, observations) = self.run_masked(requests, &mask)?;
        guard.absorb(&observations);
        Ok((ledger, log))
    }

    /// The run both entry points share, under the frozen quarantine
    /// `mask` (empty = no quarantine): plan the stream, fold the
    /// planner's log into each request's lifecycle, run every request's
    /// planned work in parallel, sort the records (and the canary
    /// observations beside them, so a caller's serial absorb is
    /// deterministic) by request id, and reconcile the planner's log
    /// against what execution did. The fold reads the
    /// log before reconciling it: the retry tallies follow the planned
    /// outcome.
    fn run_masked(
        &self,
        requests: &[Request],
        mask: &[bool],
    ) -> Result<(Ledger, EventLog, Vec<CanaryObservation>), TensorError> {
        let _span = sa_trace::span_in("serve", "continuous");
        let (plans, mut log) = continuous::plan_continuous_with_events(&self.cfg, requests);
        let lifecycles = lifecycles(&log, requests);
        let mut pairs = pool::try_parallel_map("serve_continuous", requests.len(), 1, |i| {
            self.execute(&requests[i], &plans[i], &lifecycles[i], mask)
        })?;
        pairs.sort_by_key(|(rec, _)| rec.id);
        let (records, observations): (Vec<_>, Vec<_>) = pairs.into_iter().unzip();
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
    /// error becomes a ledger outcome. The record's planner columns come
    /// from the request's [`Lifecycle`]; execution fills what it
    /// measures, and overrides the outcome where it diverged from the
    /// plan. Returns the record plus the shadow-canary observation when
    /// this request drew canary duty.
    fn execute(
        &self,
        req: &Request,
        plan: &ContinuousPlan,
        lc: &Lifecycle,
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
            start_ms: lc.start_ms,
            finish_ms: lc.finish_ms,
            queue_wait_ms: lc.queue_wait_ms,
            tenant: req.tenant,
            new_tokens: req.new_tokens as u64,
            ttft_ms: lc.ttft_ms.unwrap_or(0),
            // A request the log never resolved fails the ledger's
            // rung-consistency check instead of passing as served.
            outcome: lc.outcome.unwrap_or(Outcome::Failed),
            rung: lc.rung.clone(),
            alpha_satisfied: false,
            degraded: false,
            retries: lc.retries,
            backoff_ms: lc.backoff_ms,
            recovered_attempts: lc.recovered_attempts,
            recomputed_tokens: lc.recomputed_tokens,
            checkpoint_snapshots: 0,
            checkpoint_restores: 0,
            checkpoint_corruptions: 0,
            alloc_faults: 0,
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
                rec.error = SaError::Overloaded {
                    inflight,
                    max_inflight: self.cfg.slots(),
                }
                .to_string();
            }
            Planned::RejectBudget { required_bytes } => {
                rec.error = SaError::BudgetExceeded {
                    required_bytes,
                    budget_bytes: self.cfg.mem_budget_bytes,
                }
                .to_string();
            }
            Planned::ExpireInQueue => {
                rec.error = SaError::DeadlineExceeded {
                    site: "serve_queue",
                    completed: 0,
                    total: 0,
                }
                .to_string();
            }
            Planned::ShedQualityFloor => {
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
            }
            Planned::Serve { fails } | Planned::FailPermanent { fails } => {
                let clean_final = matches!(plan.planned, Planned::Serve { .. });
                match self.run_attempts(req, plan.rung, fails, clean_final, mask, &mut rec) {
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
        // never changes the outcome; a probe error is contained, and the
        // served canary-duty record keeps `canary == false`.
        let mut observation = None;
        if rec.outcome == Outcome::Served
            && is_canary(self.cfg.seed, req.id, self.cfg.canary_denominator)
        {
            let probe = self.guarded_method(plan.rung, mask).ok().and_then(|method| {
                canary_probe(&self.model, plan.rung, method.as_ref(), req.seq_len, req.id).ok()
            });
            if let Some(obs) = probe {
                rec.canary = true;
                rec.canary_true_cra = obs.true_cra;
                rec.canary_max_abs_err = obs.max_abs_err;
                rec.canary_gap_permille = obs.gap_permille;
                observation = Some(obs);
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
    /// retry budget so the loop always terminates. Every snapshot and
    /// every restore's outcome is counted in `rec`'s execution columns.
    fn run_attempts(
        &self,
        req: &Request,
        rung: DegradationRung,
        fails: u64,
        clean_final: bool,
        mask: &[bool],
        rec: &mut RequestRecord,
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
                        let restored = match &snap {
                            Some(Snapshot::Prefill(p)) => self
                                .restore_prefill(p, salt, &token)
                                .map(|r| r.tally(rec)),
                            _ => Ok(None),
                        };
                        match restored {
                            Ok(run) => self.prefill_attempt(req, rung, run, crashing, attempt, mask),
                            Err(e) => (Err(e), None),
                        }
                    }
                    RequestKind::Decode => {
                        let restored = match &snap {
                            Some(Snapshot::Session(s)) => self
                                .restore_session(s, salt, &token)
                                .map(|r| r.tally(rec)),
                            _ => Ok(None),
                        };
                        match restored {
                            Ok(session) => {
                                self.decode_attempt(req, rung, &token, session, crashing, mask)
                            }
                            Err(e) => (Err(e), None),
                        }
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
                rec.checkpoint_snapshots += 1;
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

    /// One chunked-prefill attempt under the recovery protocol: resume
    /// the restored run (or start fresh), and either crash after the
    /// planner's drawn number of chunks — leaving a new snapshot — or
    /// drive the prefill to completion under a fresh cancel token.
    fn prefill_attempt<'m>(
        &'m self,
        req: &Request,
        rung: DegradationRung,
        resumed: Option<ChunkedPrefill<'m>>,
        crashing: bool,
        attempt: u64,
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
        let mut run = match resumed {
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
        match run.run_to_end(method.as_ref(), &CancelToken::new()) {
            Ok((result, _caches)) => (Ok(result.heads_alpha_unsatisfied() == 0), None),
            Err(e) => (Err(e), None),
        }
    }

    /// One decode attempt under the recovery protocol: resume the
    /// restored session (or prefill fresh), and either snapshot and
    /// crash the next decode step, or generate the remaining tokens.
    fn decode_attempt<'m>(
        &'m self,
        req: &Request,
        rung: DegradationRung,
        token: &CancelToken,
        resumed: Option<DecodeSession<'m>>,
        crashing: bool,
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
        let mut session = match resumed {
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
    /// Cancellation (and other non-containable errors) propagate.
    pub fn restore_prefill(
        &self,
        snapshot: &PrefillCheckpoint,
        salt: u64,
        token: &CancelToken,
    ) -> Result<Restore<ChunkedPrefill<'_>>, SaError> {
        self.restore_guarded(snapshot.kv_bytes(), salt, token, |c| {
            snapshot.restore(&self.model, salt, c)
        })
    }

    /// Restores a decode-session checkpoint under the serving-layer
    /// protocol: reserve the KV staging bytes in the memory ledger
    /// (consulting the fault harness), run the checksum-validated
    /// restore with the cancel token checked *first*, and release the
    /// staging reservation. Returns which case it came to: the resumed
    /// session, or the contained failure — a failed staging allocation
    /// or detected KV corruption — after which the attempt falls back to
    /// scratch.
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
    ) -> Result<Restore<DecodeSession<'_>>, SaError> {
        self.restore_guarded(snapshot.kv_bytes(), salt, token, |c| {
            snapshot.restore(&self.model, salt, c)
        })
    }

    /// The shared restore protocol (reserve → restore → release),
    /// generic over the checkpoint kind.
    fn restore_guarded<T>(
        &self,
        kv_bytes: u64,
        salt: u64,
        token: &CancelToken,
        restore: impl FnOnce(Option<&CancelToken>) -> Result<T, SaError>,
    ) -> Result<Restore<T>, SaError> {
        if self.mem.reserve(kv_bytes, salt).is_err() {
            return Ok(Restore::AllocFault);
        }
        let result = restore(Some(token));
        self.mem.release(kv_bytes);
        match result {
            Ok(v) => Ok(Restore::Resumed(v)),
            Err(SaError::CorruptCheckpoint { .. }) => Ok(Restore::Corrupt),
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
        let ledger = s.run_continuous_with_events(&reqs).unwrap().0;
        ledger.validate(&reqs).unwrap();
        assert_eq!(ledger.count(Outcome::Served), 3);
        assert!(ledger.records.iter().all(|r| r.rung == "full"));
        assert!(ledger.records.iter().all(|r| r.alpha_satisfied));
    }

    #[test]
    fn a_clear_guard_runs_the_plain_run_and_absorbs_its_canaries() {
        let cfg = ServeConfig {
            canary_denominator: 1,
            ..ServeConfig::default()
        };
        let s = Scheduler::new(cfg).unwrap();
        let reqs = mixed_workload(5, 12);
        let plain = s.run_continuous_with_events(&reqs).unwrap();
        let mut guard = QualityGuard::for_model(s.model());
        let guarded = s.run_guarded_with_events(&reqs, &mut guard).unwrap();
        assert_eq!(plain.0, guarded.0, "an all-clear mask changes no record");
        assert_eq!(plain.1, guarded.1, "nor any event");
        let sparse_canaries = plain
            .0
            .records
            .iter()
            .filter(|r| r.canary && (r.rung == "paper_default" || r.rung == "tight"))
            .count() as u64;
        assert!(sparse_canaries > 0, "the stream must probe a sampling rung");
        let heads = (s.model().layers().len() * s.model().layers()[0].num_heads()) as u64;
        assert_eq!(guard.probed_heads(), sparse_canaries * heads);
    }

    #[test]
    fn transient_fault_is_retried_to_success() {
        let s = scheduler();
        let mut req = Request::prefill(0, 64, 0, 1_000_000);
        req.fault_fails = 2;
        req.fault_site = crate::request::FAULT_SITE.to_string();
        let ledger = s.run_continuous_with_events(std::slice::from_ref(&req)).unwrap().0;
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
        let ledger = s.run_continuous_with_events(std::slice::from_ref(&req)).unwrap().0;
        let rec = &ledger.records[0];
        assert_eq!(rec.outcome, Outcome::Failed);
        assert!(rec.error.contains("worker panic"), "{}", rec.error);
        assert!(!rec.alpha_satisfied);
    }

    #[test]
    fn deadline_cancellation_reports_chunk_progress() {
        let s = scheduler();
        // Only the window rung (62 ms) fits the 64 ms deadline, and a
        // failed first attempt burns the slack: mid-run expiry planned.
        let mut req = Request::prefill(0, 224, 0, 64);
        req.fault_fails = 1;
        req.fault_site = crate::request::FAULT_SITE.to_string();
        let ledger = s.run_continuous_with_events(std::slice::from_ref(&req)).unwrap().0;
        let rec = &ledger.records[0];
        assert_eq!(rec.outcome, Outcome::DeadlineExceeded);
        assert_eq!(rec.rung, "window_only", "a tight deadline bottoms the ladder");
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
        let ledger = s.run_continuous_with_events(&reqs).unwrap().0;
        ledger.validate(&reqs).unwrap();
        assert_eq!(ledger.records[0].outcome, Outcome::Served);
        assert_eq!(ledger.records[1].outcome, Outcome::Cancelled);
        assert!(ledger.records[1].error.contains("cancelled"));
    }

    #[test]
    fn crashed_attempts_snapshot_and_resume_from_checkpoints() {
        let s = scheduler();
        let mut req = Request::prefill(11, 96, 0, 1_000_000);
        req.fault_fails = 2;
        req.fault_site = crate::request::FAULT_SITE.to_string();
        let ledger = s.run_continuous_with_events(std::slice::from_ref(&req)).unwrap().0;
        let rec = &ledger.records[0];
        assert_eq!(rec.outcome, Outcome::Served);
        assert_eq!(rec.retries, 2);
        assert_eq!(rec.checkpoint_snapshots, 2, "each crashed attempt snapshots its progress");
        assert_eq!(rec.checkpoint_restores, 2, "each successor resumes from the checkpoint");
        assert_eq!((rec.checkpoint_corruptions, rec.alloc_faults), (0, 0));

        // Retry-from-scratch captures and restores nothing.
        let scratch = Scheduler::new(ServeConfig {
            recovery_enabled: false,
            ..ServeConfig::default()
        })
        .unwrap();
        let ledger = scratch.run_continuous_with_events(std::slice::from_ref(&req)).unwrap().0;
        let rec = &ledger.records[0];
        assert_eq!(rec.retries, 2);
        assert_eq!((rec.checkpoint_snapshots, rec.checkpoint_restores), (0, 0));
    }

    #[test]
    fn faulted_decode_served_identically_with_and_without_recovery() {
        // The recovery path must change *work*, not *answers*: a decode
        // request that crashes twice gets the same outcome, rung, retry
        // script and quality verdict whether retries resume from
        // checkpoints or start from scratch. Only the timeline and the
        // recompute tallies move, and they move in recovery's favour.
        let mut req = Request::prefill(3, 48, 0, 1_000_000);
        req.kind = RequestKind::Decode;
        req.new_tokens = 4;
        req.fault_fails = 2;
        req.fault_site = crate::request::FAULT_SITE.to_string();
        let with = scheduler()
            .run_continuous_with_events(std::slice::from_ref(&req))
            .unwrap()
            .0;
        let cfg = ServeConfig {
            recovery_enabled: false,
            ..ServeConfig::default()
        };
        let without = Scheduler::new(cfg)
            .unwrap()
            .run_continuous_with_events(std::slice::from_ref(&req))
            .unwrap()
            .0;
        let (a, b) = (&with.records[0], &without.records[0]);
        assert_eq!(a.outcome, Outcome::Served);
        let answer = |r: &RequestRecord| RequestRecord {
            finish_ms: 0,
            ttft_ms: 0,
            recovered_attempts: 0,
            recomputed_tokens: 0,
            checkpoint_snapshots: 0,
            checkpoint_restores: 0,
            ..r.clone()
        };
        assert_eq!(answer(a), answer(b), "recovery must be invisible in the answer");
        assert!(a.recovered_attempts > 0 && b.recovered_attempts == 0);
        assert!(a.checkpoint_restores > 0 && b.checkpoint_restores == 0);
        assert!(a.recomputed_tokens < b.recomputed_tokens);
        assert!(a.finish_ms <= b.finish_ms);
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
        let s = scheduler();
        let tokens = s.model().tokenize_filler(48);
        let session = s
            .model()
            .begin_decode(&tokens, &FullAttention::new())
            .unwrap();
        let snap = sa_model::SessionCheckpoint::capture(&session);
        drop(session);
        let token = CancelToken::new();

        {
            let _g = fault::install(FaultPlan::new(9).kv_bit_flips(1));
            let restored = s.restore_session(&snap, 0x52, &token).unwrap();
            assert!(matches!(restored, Restore::Corrupt), "corrupt restore is contained");
        }
        {
            let _g = fault::install(FaultPlan::new(9).alloc_failures(1));
            let restored = s.restore_session(&snap, 0x53, &token).unwrap();
            assert!(matches!(restored, Restore::AllocFault), "failed staging alloc is contained");
        }
        let restored = s.restore_session(&snap, 0x54, &token).unwrap();
        assert!(matches!(restored, Restore::Resumed(_)), "a clean restore resumes");
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
            s.run_continuous_with_events(&reqs).unwrap().0
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
        let baseline = pool::with_threads(1, || s.run_continuous_with_events(&reqs)).unwrap().0;
        baseline.validate(&reqs).unwrap();
        for threads in [2, 4] {
            let ledger = pool::with_threads(threads, || s.run_continuous_with_events(&reqs)).unwrap().0;
            assert_eq!(
                ledger, baseline,
                "ledger must be bit-identical at {threads} threads"
            );
        }
    }
}
