//! Continuous batching over an open-loop arrival stream.
//!
//! The one-shot planner ([`sim::plan_batch`]) holds an execution slot
//! for a request's **whole** service time — a 512-token prefill
//! monopolizes a slot for thousands of virtual milliseconds while
//! short requests queue behind it, and decode steps of in-flight
//! sessions cannot overlap newly arriving prefills at all. This module
//! replaces that with the TensorRT-LLM-style continuous-batching rule:
//! the engine schedules **micro-tasks** — one prefill chunk or one
//! decode step at a time — so every iteration interleaves prefill
//! chunks of newly admitted requests with decode steps of in-flight
//! sessions on the same worker pool.
//!
//! Like the one-shot planner, everything here runs on a deterministic
//! virtual clock **before** any model work: the continuous timeline is
//! a serial discrete-event simulation, so the resulting ledger stays
//! bit-identical at every `SA_THREADS` setting (the chaos soak asserts
//! this on the continuous timeline too). The parallel execution phase
//! afterwards only realizes the planned work and fills in measured CRA
//! α flags.
//!
//! ## Scheduling rules
//!
//! - **Admission**: arrivals join a bounded pending queue
//!   ([`max_pending`](crate::ServeConfig::max_pending); overflow is
//!   [`Overloaded`](sa_tensor::SaError::Overloaded)); the queue head is
//!   admitted as soon as its projected memory fits the budget —
//!   memory is *backpressure* here, not a hard rejection, except for a
//!   request that could never fit alone
//!   ([`BudgetExceeded`](sa_tensor::SaError::BudgetExceeded)).
//! - **Interleaving**: a free worker serves, in priority order, (1) a
//!   ready decode step — decode-first keeps time-per-output-token flat
//!   while prefills stream in — then (2) a prefill chunk, rotating over
//!   tenants and picking shortest-remaining-work-first within a tenant
//!   (short requests preempt long prefills at chunk boundaries;
//!   homogeneous streams run to completion, so overload does not
//!   round-robin-thrash every deadline at once).
//! - **Fairness**: each tenant holds a token bucket
//!   ([`tenant_rate_tokens_per_sec`](crate::ServeConfig::tenant_rate_tokens_per_sec),
//!   [`tenant_burst_tokens`](crate::ServeConfig::tenant_burst_tokens));
//!   a prefill chunk debits `chunk_size` synthetic tokens (at most the
//!   burst) and a decode step debits one, so a flooding tenant throttles
//!   to its quota while others keep their share of the pool.
//! - **Deadlines & cancels** are honoured at micro-task boundaries —
//!   the same one-chunk cooperative-cancellation granularity the real
//!   execution phase provides via `CancelToken`.
//! - **Faults** follow the one-shot model: the first `fault_fails`
//!   attempts burn an eighth of the service time each, separated by
//!   seeded-jitter exponential backoff ([`sim::backoff_ms`]).
//! - **Crash recovery** ([`recovery_enabled`](crate::ServeConfig::recovery_enabled)):
//!   each crashed attempt leaves a chunk-boundary checkpoint behind
//!   (`planned_checkpoint_chunks`), so the attempt after it resumes
//!   with a prefill head start instead of re-running from scratch —
//!   bounded recompute of at most the one in-flight chunk per crash.
//!   The plan tallies `recovered_attempts` and `recomputed_tokens`;
//!   with recovery off the timeline is exactly the retry-from-scratch
//!   model above (the `recovery_bench` baseline).
//! - **Memory-pressure governor**: watermark-classified occupancy
//!   ([`MemoryLedger::level_of`]) drives a ladder of actions — defer
//!   non-urgent admissions (`serve.pressure.deferrals`), evict the
//!   low-mass KV share of in-flight decode sessions
//!   (`serve.pressure.evictions`), force newly dispatched work onto
//!   lower degradation rungs (`serve.pressure.forced_rungs`), and shed
//!   urgent requests that still cannot be placed with a typed
//!   [`BudgetExceeded`](sa_tensor::SaError::BudgetExceeded)
//!   (`serve.pressure.sheds`). Every decision reads the serial
//!   planner's own virtual occupancy, never the runtime ledger, so
//!   plans stay bit-identical at every `SA_THREADS`.
//! - **Quality floors** ([`ServeConfig::quality_floors`]): a tenant's
//!   floor caps how far the ladder walk (including the governor's
//!   pressure-halved budgets) may degrade its requests and bounds its
//!   uncertified-rung token share. Work that cannot be placed on a
//!   permitted rung sheds with [`Planned::ShedQualityFloor`] — the
//!   planner refuses loudly instead of quietly serving below contract.
//!
//! The degradation-ladder walk ([`sim::choose_rung`]), the memory model
//! ([`sim::request_bytes`]), and the per-rung cost model
//! ([`sim::service_ms`]) are shared with the one-shot planner, so the
//! two schedulers are comparable at the same trace and budget — the
//! `slo_sweep` bench sweeps arrival rate and reports both.

use crate::events::{
    EventKind, EventLog, FlightRecorder, PlannerDecision, FLIGHT_RECORDER_CAPACITY,
};
use crate::memory::{MemoryLedger, PressureLevel};
use crate::sim::{self, Plan, Planned};
use crate::{Request, ServeConfig};
use sa_core::DegradationRung;
use sa_tensor::splitmix64;
use sa_trace::metrics;
use std::collections::VecDeque;

/// One request's schedule on the continuous timeline: the familiar
/// [`Plan`] plus first-token timing and micro-task tallies.
#[derive(Debug, Clone, PartialEq)]
pub struct ContinuousPlan {
    /// Outcome, rung, start/finish, queue wait, retries, backoff.
    pub plan: Plan,
    /// Tenant the request billed against.
    pub tenant: u64,
    /// Virtual time the first output token completed (prefill-only:
    /// the final prefill chunk; decode: the first decode step). Zero
    /// when no token was produced.
    pub first_token_ms: u64,
    /// Prefill chunks completed on the virtual timeline.
    pub prefill_chunks: u64,
    /// Decode steps completed on the virtual timeline.
    pub decode_steps: u64,
    /// Attempts that resumed from a non-empty chunk-boundary checkpoint
    /// instead of re-running prefill from scratch. Zero when recovery
    /// is disabled or the request never crashed.
    pub recovered_attempts: u64,
    /// Prefill tokens recomputed because of crashes: with recovery on,
    /// at most the one in-flight chunk per crash (the part no
    /// chunk-boundary checkpoint can cover); with recovery off,
    /// everything the crashed attempt had already completed.
    pub recomputed_tokens: u64,
}

/// Chunks of prefill progress the `attempt`-th crashed attempt of
/// request `id` completed (and checkpointed) before crashing —
/// deterministic in `(cfg.seed, id, attempt)`, between one chunk and an
/// eighth of the prefill: crashes land early in an attempt far more
/// often than late, and a single attempt that survived most of its
/// prefill would usually have survived all of it.
pub(crate) fn checkpoint_advance(cfg: &ServeConfig, id: u64, attempt: u64, n_chunks: u64) -> u64 {
    let cap = (n_chunks / 8).max(1);
    let mut state = cfg.seed
        ^ id.wrapping_mul(0x9E37_79B9_7F4A_7C15)
        ^ attempt.wrapping_mul(0xC4CE_B9FE_1A85_EC53);
    1 + splitmix64(&mut state) % cap
}

/// Cumulative chunk-boundary checkpoint position after the first
/// `fails` crashed attempts of request `id`: each crash extends the
/// checkpoint by its [`checkpoint_advance`], clamped so a checkpoint
/// never covers the whole prefill (the final chunk always runs on the
/// attempt that completes). The execution phase replays the same draws,
/// so restored sessions resume from exactly the chunk the planner
/// credited.
pub(crate) fn planned_checkpoint_chunks(
    cfg: &ServeConfig,
    id: u64,
    fails: u64,
    n_chunks: u64,
) -> u64 {
    let mut h = 0u64;
    for attempt in 0..fails {
        h = (h + checkpoint_advance(cfg, id, attempt, n_chunks)).min(n_chunks.saturating_sub(1));
    }
    h
}

/// Per-tenant fairness quota: a token bucket in milli-tokens so the
/// refill arithmetic stays exact on the integer virtual clock.
#[derive(Debug, Clone)]
struct TokenBucket {
    level_milli: u64,
    capacity_milli: u64,
    rate_milli_per_ms: u64,
    last_refill_ms: u64,
}

impl TokenBucket {
    fn new(cfg: &ServeConfig) -> Self {
        let capacity_milli = cfg.tenant_burst_tokens.saturating_mul(1000).max(1);
        TokenBucket {
            level_milli: capacity_milli,
            capacity_milli,
            // tokens/second == milli-tokens/millisecond, conveniently.
            // Clamped ≥ 1 so a bucket always refills eventually (a zero
            // rate would starve its tenant forever).
            rate_milli_per_ms: cfg.tenant_rate_tokens_per_sec.max(1),
            last_refill_ms: 0,
        }
    }

    fn refill_to(&mut self, now_ms: u64) {
        if now_ms > self.last_refill_ms {
            let gained = (now_ms - self.last_refill_ms).saturating_mul(self.rate_milli_per_ms);
            self.level_milli = self.level_milli.saturating_add(gained).min(self.capacity_milli);
            self.last_refill_ms = now_ms;
        }
    }

    /// What a task of `cost_milli` debits: at most a full bucket, so a
    /// prefill chunk larger than the burst still runs once the bucket
    /// is full instead of waiting out its deadline.
    fn debit(&self, cost_milli: u64) -> u64 {
        cost_milli.min(self.capacity_milli)
    }

    fn try_take(&mut self, now_ms: u64, cost_milli: u64) -> bool {
        self.refill_to(now_ms);
        let cost_milli = self.debit(cost_milli);
        if self.level_milli >= cost_milli {
            self.level_milli -= cost_milli;
            true
        } else {
            false
        }
    }

    /// Earliest virtual time the bucket could cover `cost_milli`,
    /// assuming nobody else drains it first (an optimistic bound — the
    /// event loop re-checks on wake-up).
    fn ready_time(&self, now_ms: u64, cost_milli: u64) -> u64 {
        let cost_milli = self.debit(cost_milli);
        let level = self
            .level_milli
            .saturating_add(now_ms.saturating_sub(self.last_refill_ms) * self.rate_milli_per_ms)
            .min(self.capacity_milli);
        if level >= cost_milli {
            return now_ms;
        }
        let deficit = cost_milli - level;
        now_ms.saturating_add(deficit.div_ceil(self.rate_milli_per_ms)).max(now_ms + 1)
    }
}

/// Where one request stands on the continuous timeline.
#[derive(Debug, Clone, PartialEq)]
enum Phase {
    /// Waiting in the bounded pending queue for memory admission.
    Pending,
    /// Admitted (memory reserved) but no worker has picked it up yet;
    /// the degradation-ladder walk is deferred to first dispatch so the
    /// rung reflects the deadline budget actually left after queueing —
    /// exactly when the one-shot planner walks it.
    Admitted,
    /// Burning injected failed attempts (each costs an eighth of the
    /// service time, separated by backoff).
    FailAttempts { remaining: u64 },
    /// Streaming prefill chunks.
    Prefill,
    /// Streaming decode steps.
    Decode,
    /// Resolved; `terminal` recorded.
    Done,
}

/// Mutable per-request simulation state.
struct RState {
    phase: Phase,
    /// Dense index of the request's tenant (bucket and floor tallies).
    tenant: usize,
    /// Earliest time the next micro-task may start (task-serial per
    /// request: one worker at a time; also carries backoff gaps).
    next_ready: u64,
    /// Completion time of the last finished micro-task (admission time
    /// before any task ran).
    last_event: u64,
    /// First micro-task dispatch time.
    start: Option<u64>,
    rung: DegradationRung,
    skipped: Vec<(DegradationRung, String)>,
    /// Planned failing attempts (capped at the attempt budget).
    fails: u64,
    /// Fail attempts already burned (indexes the backoff schedule).
    fails_done: u64,
    backoff_total: u64,
    /// Per-chunk virtual cost, exact-sum distribution of the scaled
    /// prefill time: the first `chunk_rem` chunks cost `chunk_cost+1`.
    chunk_cost: u64,
    chunk_rem: u64,
    n_chunks: u64,
    chunks_done: u64,
    steps_done: u64,
    first_token: Option<u64>,
    fail_ms: u64,
    permanent: bool,
    bytes: u64,
    /// Attempts that resumed from a non-empty checkpoint.
    recovered_attempts: u64,
    /// Prefill tokens recomputed across all crashes (see
    /// [`ContinuousPlan::recomputed_tokens`]).
    recomputed_tokens: u64,
    /// The governor already evicted this session's low-mass KV share;
    /// a session is evicted at most once.
    evicted: bool,
    terminal: Option<(Planned, u64)>,
}

impl RState {
    fn new(bytes: u64, tenant: usize) -> Self {
        RState {
            phase: Phase::Pending,
            tenant,
            next_ready: 0,
            last_event: 0,
            start: None,
            rung: DegradationRung::Full,
            skipped: Vec::new(),
            fails: 0,
            fails_done: 0,
            backoff_total: 0,
            chunk_cost: 0,
            chunk_rem: 0,
            n_chunks: 0,
            chunks_done: 0,
            steps_done: 0,
            first_token: None,
            fail_ms: 0,
            permanent: false,
            bytes,
            recovered_attempts: 0,
            recomputed_tokens: 0,
            evicted: false,
            terminal: None,
        }
    }

    /// Cost of this request's next micro-task, and whether it debits
    /// the tenant bucket (milli-tokens).
    fn next_task(&self, cfg: &ServeConfig, req: &Request) -> (u64, u64) {
        match self.phase {
            Phase::FailAttempts { .. } => (self.fail_ms, 0),
            Phase::Prefill => {
                let cost = if self.chunks_done < self.chunk_rem {
                    self.chunk_cost + 1
                } else {
                    self.chunk_cost
                };
                (cost.max(1), (cfg.chunk_size.max(1) as u64) * 1000)
            }
            Phase::Decode => (req.decode_step_ms(), 1000),
            Phase::Pending | Phase::Admitted | Phase::Done => (0, 0),
        }
    }
}

/// The deadline budget a request gets for its deferred ladder walk: its
/// remaining wall time scaled by the worker share it can expect under
/// the current backlog (`slots / contenders`). With free capacity the
/// request keeps its whole remaining deadline (full rung when it fits);
/// under backlog the budget shrinks and the walk lands on cheaper
/// rungs — the continuous analogue of the one-shot planner's late
/// starts, which eat the deadline in queue and force the same
/// degradation at `choose_rung` time. Degrading under load is what lets
/// the scheduler trade per-request fidelity for deadline goodput
/// instead of serving a few full-rung requests while the rest expire.
fn dispatch_budget_ms(remaining_ms: u64, slots: usize, contenders: usize) -> u64 {
    let share = contenders.max(slots).max(1) as u128;
    ((remaining_ms as u128 * slots.max(1) as u128) / share) as u64
}

/// How a rung's `service` time spreads over `n_chunks` prefill chunks:
/// the prefill part (the service minus the unscaled decode tail) splits
/// exactly, as `(cost, rem)` — the first `rem` chunks cost `cost + 1`,
/// the rest `cost`.
fn chunk_schedule(req: &Request, service: u64, n_chunks: u64) -> (u64, u64) {
    let scaled_prefill = service
        .saturating_sub(req.base_service_ms().saturating_sub(req.prefill_service_ms()))
        .max(1);
    (scaled_prefill / n_chunks, scaled_prefill % n_chunks)
}

/// Minimal virtual compute left on a request's schedule, excluding
/// backoff gaps. Excluding them makes this a strict under-estimate, so
/// feasibility shedding on it only ever abandons requests that provably
/// cannot finish by their deadline — never one that still had a chance.
/// Also the shortest-remaining-first dispatch key. For a request whose
/// ladder walk has not run yet, `budget_ms` picks the rung to project:
/// the shed check passes 0 (bottom rung — the true minimum), dispatch
/// ordering passes the load-scaled budget the walk would actually get.
fn est_remaining_ms(cfg: &ServeConfig, req: &Request, s: &RState, budget_ms: u64) -> u64 {
    // Work left once `done` chunks of a `(cost, rem)` chunk schedule are
    // behind the request: the remaining chunks, then every decode step.
    let left_after = |done: u64, (cost, rem): (u64, u64)| {
        (s.n_chunks - done) * cost
            + rem.saturating_sub(done)
            + req.new_tokens as u64 * req.decode_step_ms()
    };
    // The clean attempt resumes from the cumulative checkpoint, so the
    // estimate must subtract the planned head start to stay a strict
    // under-estimate (the shed check must never abandon a recoverable
    // request).
    let head_start = || {
        if cfg.recovery_enabled {
            planned_checkpoint_chunks(cfg, req.id, s.fails, s.n_chunks)
        } else {
            0
        }
    };
    match s.phase {
        Phase::Pending | Phase::Admitted => {
            // The ladder walk the request would get if dispatched now.
            let (rung, _) = sim::choose_rung(req, budget_ms);
            let service = sim::service_ms(req, rung);
            let fail_part = s.fails * (service / 8).max(1);
            if s.permanent {
                fail_part
            } else if cfg.recovery_enabled && s.fails > 0 && s.n_chunks > 0 {
                fail_part + left_after(head_start(), chunk_schedule(req, service, s.n_chunks))
            } else {
                fail_part + service
            }
        }
        Phase::FailAttempts { remaining } if s.permanent => remaining * s.fail_ms,
        Phase::FailAttempts { remaining } => {
            remaining * s.fail_ms + left_after(head_start(), (s.chunk_cost, s.chunk_rem))
        }
        Phase::Prefill => left_after(s.chunks_done, (s.chunk_cost, s.chunk_rem)),
        Phase::Decode => {
            (req.new_tokens as u64).saturating_sub(s.steps_done) * req.decode_step_ms()
        }
        Phase::Done => 0,
    }
}

/// The deferred ladder walk: runs when a worker first picks the request
/// up, fixing the rung against the load-scaled deadline budget
/// ([`dispatch_budget_ms`]) and deriving every rung-dependent cost
/// (failed-attempt time and the [`chunk_schedule`] of the scaled
/// prefill). The walk honours the tenant's quality floor
/// (`max_rung_index`): when no permitted rung fits the budget it
/// returns `false` and the caller sheds the request with
/// [`Planned::ShedQualityFloor`] instead of forcing a forbidden rung.
fn init_schedule(req: &Request, s: &mut RState, budget_ms: u64, max_rung_index: usize) -> bool {
    let Some((rung, skipped)) = sim::choose_rung_floored(req, budget_ms, max_rung_index) else {
        return false;
    };
    let service = sim::service_ms(req, rung);
    s.rung = rung;
    s.skipped = skipped;
    s.fail_ms = (service / 8).max(1);
    (s.chunk_cost, s.chunk_rem) = chunk_schedule(req, service, s.n_chunks);
    s.phase = if s.fails > 0 {
        Phase::FailAttempts { remaining: s.fails }
    } else {
        Phase::Prefill
    };
    true
}

/// Simulates the continuous open-loop timeline and returns one
/// [`ContinuousPlan`] per request, aligned with the input order.
pub fn plan_continuous(cfg: &ServeConfig, requests: &[Request]) -> Vec<ContinuousPlan> {
    plan_continuous_with_events(cfg, requests).0
}

/// [`plan_continuous`] plus the `sa.events.v1` lifecycle event log and
/// any flight-recorder postmortems the governor tripped (see
/// [`crate::events`]). Everything is emitted by this serial
/// discrete-event simulation, so the serialized log is byte-identical
/// at every `SA_THREADS` setting.
pub fn plan_continuous_with_events(
    cfg: &ServeConfig,
    requests: &[Request],
) -> (Vec<ContinuousPlan>, EventLog) {
    Planner::new(cfg, requests).run()
}

/// What the governor ruled on the head of the admission queue.
#[derive(Debug, PartialEq)]
enum Governed {
    /// It fits (possibly after evictions): reserve its memory.
    Admit,
    /// It stays at the head; nothing behind it is considered.
    Wait,
    /// It was shed and resolved; the next head is up.
    Shed,
}

/// The continuous planner: the whole state of the discrete-event
/// simulation. [`run`](Self::run) reads `ingest → admit → sweep → pick →
/// run_task` per iteration; every repeated act has exactly one home —
/// [`emit`](Self::emit) writes the event log, [`decide`](Self::decide)
/// feeds the flight recorder, [`finish`](Self::finish) resolves a
/// request, [`overdue`](Self::overdue) rules on cancels, deadlines and
/// doomed work.
struct Planner<'a> {
    cfg: &'a ServeConfig,
    requests: &'a [Request],
    st: Vec<RState>,
    /// Request indices in arrival order (stable by id for simultaneous
    /// arrivals), and how many of them have been ingested.
    order: Vec<usize>,
    next_arrival: usize,
    /// The admission queue, kept in earliest-deadline-first order
    /// (ties by arrival then id, so the order is total and
    /// deterministic). EDF decides *who is the head* that memory
    /// backpressure defers on: the most urgent request — never bypassed,
    /// so it cannot be starved — rather than the oldest, so a
    /// long-deadline giant waiting for memory does not pin down a string
    /// of short-deadline requests behind it until they all expire.
    pending: Vec<usize>,
    /// Admitted requests in admission order. A resolved one stays
    /// listed until the next [`sweep`](Self::sweep) prunes it, and the
    /// flight recorder's `inflight` column counts this list.
    inflight: Vec<usize>,
    /// `(release_time, bytes, request index)` of resolved requests in
    /// ascending order, applied once the clock passes the release point.
    releases: VecDeque<(u64, u64, usize)>,
    worker_free: Vec<u64>,
    /// Per-tenant fairness quotas, round-robin cursor, and
    /// quality-floor accounting: synthetic tokens the planner has
    /// committed to dispatch, split by whether the assigned rung can
    /// certify the CRA α contract. A tenant floor's
    /// `max_uncertified_permille` bounds the uncertified share; a
    /// dispatch that would breach it sheds instead (the count is over
    /// *dispatched* work, a conservative superset of what gets served).
    buckets: Vec<TokenBucket>,
    rr_cursor: usize,
    dispatched_tokens: Vec<u64>,
    uncertified_tokens: Vec<u64>,
    /// The planner's own serial occupancy projection, and the watermark
    /// classifier for the governor ladder. Only `level_of` is used — a
    /// pure function of the configured watermarks — so the governor is
    /// deterministic by construction.
    weights: u64,
    mem_in_use: u64,
    pressure: MemoryLedger,
    /// The last pressure level seen, for the Critical-transition
    /// trigger.
    prev_level: PressureLevel,
    done: usize,
    log: EventLog,
    recorder: FlightRecorder,
}

impl<'a> Planner<'a> {
    fn new(cfg: &'a ServeConfig, requests: &'a [Request]) -> Self {
        // Dense tenant index, deterministic order.
        let mut tenant_ids: Vec<u64> = requests.iter().map(|r| r.tenant).collect();
        tenant_ids.sort_unstable();
        tenant_ids.dedup();
        let st = requests
            .iter()
            .map(|req| {
                let tenant = tenant_ids.binary_search(&req.tenant).unwrap_or(0);
                RState::new(sim::request_bytes(cfg, req), tenant)
            })
            .collect();
        let mut order: Vec<usize> = (0..requests.len()).collect();
        order.sort_by_key(|&i| (requests[i].arrival_ms, requests[i].id));
        let weights = sim::weight_bytes();
        Planner {
            cfg,
            requests,
            st,
            order,
            next_arrival: 0,
            pending: Vec::new(),
            inflight: Vec::new(),
            releases: VecDeque::new(),
            worker_free: vec![0; cfg.slots()],
            buckets: tenant_ids.iter().map(|_| TokenBucket::new(cfg)).collect(),
            rr_cursor: 0,
            dispatched_tokens: vec![0; tenant_ids.len()],
            uncertified_tokens: vec![0; tenant_ids.len()],
            weights,
            mem_in_use: weights,
            pressure: MemoryLedger::from_config(cfg),
            prev_level: PressureLevel::Normal,
            done: 0,
            log: EventLog::new(cfg.seed),
            recorder: FlightRecorder::new(FLIGHT_RECORDER_CAPACITY),
        }
    }

    fn run(mut self) -> (Vec<ContinuousPlan>, EventLog) {
        while self.done < self.requests.len() {
            // The worker that frees earliest decides the next dispatch
            // instant (lowest index wins ties, deterministically).
            let w = (0..self.worker_free.len())
                .min_by_key(|&w| (self.worker_free[w], w))
                .unwrap_or(0);
            let now = self.worker_free[w];
            self.ingest(now);
            self.admit(now);
            self.sweep(now);
            self.worker_free[w] = match self.pick(now) {
                (Some(i), _) => self.run_task(i, now),
                (None, bucket_ready) => self.next_wake(now, bucket_ready),
            };
        }
        // Apply the releases the loop never reached (the clock stops at
        // the last micro-task, which can precede queued release points),
        // so the event log's memory balance returns to the weights
        // baseline — the conservation invariant
        // [`EventLog::check_conservation`] asserts.
        self.apply_releases(u64::MAX);
        let plans = self.plans();
        self.log.postmortems = self.recorder.into_postmortems();
        (plans, self.log)
    }

    fn deadline_t(&self, i: usize) -> u64 {
        self.requests[i].arrival_ms + self.requests[i].deadline_ms
    }

    fn cancel_t(&self, i: usize) -> u64 {
        match self.requests[i].cancel_after_ms {
            0 => u64::MAX,
            after => self.requests[i].arrival_ms + after,
        }
    }

    /// The instant a request stops being worth any compute: whichever of
    /// its deadline and its caller's cancellation comes first. Urgency
    /// ordering, dispatch budgets, and feasibility shedding all use this
    /// — a request that provably cannot finish before its caller hangs
    /// up is exactly as worthless to schedule as one that cannot make
    /// its deadline.
    fn due_t(&self, i: usize) -> u64 {
        self.deadline_t(i).min(self.cancel_t(i))
    }

    /// The last instant request `i` can start and still afford the full
    /// rung; from here on it is *urgent*.
    fn must_start_by(&self, i: usize) -> u64 {
        self.due_t(i)
            .saturating_sub(sim::service_ms(&self.requests[i], DegradationRung::Full))
    }

    fn level(&self) -> PressureLevel {
        self.pressure.level_of(self.mem_in_use)
    }

    fn free_bytes(&self) -> u64 {
        self.cfg.mem_budget_bytes.saturating_sub(self.mem_in_use)
    }

    /// The only writer of the event log: every event carries the
    /// balance the planner holds at the moment it is emitted.
    fn emit(&mut self, t: u64, i: usize, kind: EventKind, rung: &str, bytes: u64, reason: String) {
        let req = &self.requests[i];
        self.log.push(t, req, kind, rung, bytes, self.mem_in_use, reason);
    }

    /// The only writer of the flight recorder. `dispatch` is the
    /// `(contenders, budget_ms)` pair of a dispatch-time decision,
    /// zeros otherwise.
    fn decide(
        &mut self,
        now: u64,
        i: usize,
        action: &str,
        rung: String,
        level: PressureLevel,
        dispatch: (usize, u64),
    ) {
        self.recorder.record(PlannerDecision {
            t_ms: now,
            request_id: self.requests[i].id,
            action: action.to_string(),
            queue_depth: self.pending.len() as u64,
            inflight: self.inflight.len() as u64,
            free_bytes: self.free_bytes(),
            contenders: dispatch.0 as u64,
            budget_ms: dispatch.1,
            rung,
            pressure: level.as_str().to_string(),
        });
    }

    /// The only place a request resolves: records the terminal state,
    /// emits the terminal event at `at`, and — for a request that holds
    /// memory — queues the release for `release_at`.
    /// [`finish_plainly`](Self::finish_plainly) supplies the reason for
    /// resolutions that speak for themselves.
    fn finish(
        &mut self,
        i: usize,
        planned: Planned,
        at: u64,
        reason: String,
        release_at: Option<u64>,
    ) {
        // A budget rejection of a request the budget could hold alone is
        // the governor's load shed, logged as `Shed`; `Rejected` is for
        // what could never fit.
        let kind = match planned {
            Planned::RejectBudget { .. }
                if self.weights + self.st[i].bytes <= self.cfg.mem_budget_bytes =>
            {
                EventKind::Shed
            }
            _ => EventKind::terminal_for(&planned),
        };
        // The ledger convention: a rung means something exactly when
        // model work started.
        let rung = match planned.runs_model() {
            true => self.st[i].rung.to_string(),
            false => String::new(),
        };
        self.st[i].phase = Phase::Done;
        self.st[i].terminal = Some((planned, at));
        self.emit(at, i, kind, &rung, 0, reason);
        if let Some(t) = release_at {
            let release = (t, self.st[i].bytes, i);
            let pos = self.releases.partition_point(|r| *r < release);
            self.releases.insert(pos, release);
        }
        self.done += 1;
    }

    /// [`finish`](Self::finish) with the reason both planners give a
    /// resolution that needs no context ([`sim::terminal_reason`]).
    fn finish_plainly(&mut self, i: usize, planned: Planned, at: u64, release_at: Option<u64>) {
        let reason = sim::terminal_reason(&planned, self.cfg.mem_budget_bytes);
        self.finish(i, planned, at, reason, release_at);
    }

    /// A request that ran its whole schedule resolves as served.
    fn complete(&mut self, i: usize, end: u64) {
        let fails = self.st[i].fails;
        self.finish_plainly(i, Planned::Serve { fails }, end, Some(end));
    }

    /// The one verdict on a request whose time is up, or will be before
    /// its remaining work can finish. Evaluated at micro-task
    /// boundaries (cooperative semantics), in this order: the caller
    /// already hung up; the deadline already passed; neither yet, but
    /// even the backoff-free minimum of the remaining compute
    /// ([`est_remaining_ms`] on the bottom rung) overshoots the due
    /// point — finishing is impossible, and abandoning the request
    /// *now* frees capacity for requests that can still make their
    /// deadlines. A doomed request still resolves at its due instant
    /// (whichever signal comes first), only its memory frees early. A
    /// permanent failure is never doomed: it costs nothing past its
    /// crashes and resolves as `Failed` on its own.
    ///
    /// Returns `(resolution, terminal instant, reason)`. A `queued`
    /// request resolves at the signal itself (neither can precede its
    /// arrival); an in-flight one stops at the later of the signal and
    /// its last completed micro-task.
    fn overdue(&self, i: usize, now: u64, queued: bool) -> Option<(Planned, u64, &'static str)> {
        let (req, s) = (&self.requests[i], &self.st[i]);
        let (cancel, deadline) = (self.cancel_t(i), self.deadline_t(i));
        // Never dispatched counts as a queue expiry (matching the
        // one-shot convention); once any micro-task ran it is a mid-run
        // deadline cancel.
        let expiry = if s.start.is_none() {
            Planned::ExpireInQueue
        } else {
            Planned::CancelDeadline
        };
        let (planned, at, reason) = if cancel <= now {
            let reason = if queued {
                "caller cancelled while queued"
            } else {
                "caller cancelled"
            };
            (Planned::CancelCaller, cancel, reason)
        } else if deadline <= now {
            let reason = if queued {
                "deadline expired in queue"
            } else {
                "due time passed mid-flight"
            };
            (expiry, deadline, reason)
        } else if !s.permanent
            && now.saturating_add(est_remaining_ms(self.cfg, req, s, 0)) > cancel.min(deadline)
        {
            match (cancel < deadline, queued) {
                (true, true) => (
                    Planned::CancelCaller,
                    cancel,
                    "doomed in queue: cannot finish before the caller hangs up",
                ),
                (true, false) => (
                    Planned::CancelCaller,
                    cancel,
                    "doomed: remaining work cannot finish before the caller hangs up",
                ),
                (false, true) => (
                    expiry,
                    deadline,
                    "doomed in queue: cannot meet the deadline",
                ),
                (false, false) => (
                    expiry,
                    deadline,
                    "doomed: remaining work cannot meet the deadline",
                ),
            }
        } else {
            return None;
        };
        Some((planned, if queued { at } else { at.max(s.last_event) }, reason))
    }

    /// Returns memory whose release point the clock has passed.
    fn apply_releases(&mut self, now: u64) {
        while let Some(&(t, bytes, i)) = self.releases.front() {
            if t > now {
                break;
            }
            self.releases.pop_front();
            self.mem_in_use -= bytes;
            self.emit(t, i, EventKind::Released, "", bytes, String::new());
        }
    }

    /// Ingests arrivals up to `now`, each at its own arrival instant,
    /// bounding the pending queue.
    fn ingest(&mut self, now: u64) {
        while let Some(&i) = self.order.get(self.next_arrival) {
            let at = self.requests[i].arrival_ms;
            if at > now {
                break;
            }
            self.next_arrival += 1;
            self.admit(at);
            if self.pending.len() >= self.cfg.max_pending.max(1) {
                let running = self.inflight.iter().filter(|&&j| self.st[j].terminal.is_none());
                let inflight = running.count() + self.pending.len();
                self.finish_plainly(i, Planned::RejectOverloaded { inflight }, at, None);
            } else {
                let requests = self.requests;
                let key = |j: usize| (self.due_t(j), requests[j].arrival_ms, requests[j].id);
                let pos = self.pending.partition_point(|&j| key(j) <= key(i));
                self.pending.insert(pos, i);
                let reason = format!("edf position {} of {}", pos + 1, self.pending.len());
                self.emit(at, i, EventKind::Enqueued, "", 0, reason);
            }
        }
    }

    /// Admits from the head of the pending queue while the governor
    /// allows, resolving heads whose cancel or deadline already passed
    /// (doomed heads are left to the sweep). `now` is the virtual
    /// instant the admission opportunity exists.
    fn admit(&mut self, now: u64) {
        self.apply_releases(now);
        // Released memory can drop the pressure level; track the drop so
        // a later climb back to Critical re-triggers the flight recorder.
        self.prev_level = self.prev_level.min(self.level());
        while let Some(&i) = self.pending.first() {
            let passed = (self.due_t(i) <= now).then(|| self.overdue(i, now, true));
            if let Some((planned, at, reason)) = passed.flatten() {
                self.pending.remove(0);
                self.finish(i, planned, at, reason.to_string(), None);
                continue;
            }
            let required_bytes = self.weights + self.st[i].bytes;
            if required_bytes > self.cfg.mem_budget_bytes {
                // Could never fit, even alone next to the weights.
                self.pending.remove(0);
                self.finish_plainly(i, Planned::RejectBudget { required_bytes }, now, None);
                continue;
            }
            match self.govern(i, now) {
                Governed::Admit => {
                    self.pending.remove(0);
                    self.reserve(i, now);
                }
                Governed::Shed => {
                    self.pending.remove(0);
                }
                Governed::Wait => break,
            }
        }
    }

    /// The memory-pressure governor's ruling on the queue head `i`.
    /// Watermark-classified occupancy drives the ladder: defer
    /// non-urgent admissions → evict low-mass KV from in-flight decode
    /// sessions → (at dispatch) force lower rungs → shed what still
    /// cannot be placed.
    ///
    /// Lazy admission for slack-rich requests: admission commits this
    /// request's memory until it finishes, so a long-deadline giant
    /// admitted during a lull can pin half the pool across a later
    /// crest and starve the crest's short-deadline arrivals out of
    /// admission entirely. While the head could still wait and keep its
    /// full-rung service, admitting it early is a luxury allowed to
    /// consume at most half of the free memory — successive early
    /// admissions leave geometrically shrinking headroom, so small
    /// requests always slip in while a second giant must wait. Once
    /// waiting longer would force a degraded rung the request is urgent
    /// and may fill the pool to the brim. Under Critical pressure the
    /// luxury disappears entirely: every non-urgent head defers until
    /// occupancy drains.
    fn govern(&mut self, i: usize, now: u64) -> Governed {
        let level = self.level();
        let bytes = self.st[i].bytes;
        let budget = self.cfg.mem_budget_bytes;
        let urgent = now >= self.must_start_by(i);
        if !urgent && (bytes > self.free_bytes() / 2 || level == PressureLevel::Critical) {
            self.defer(i, now, level);
            return Governed::Wait;
        }
        if self.mem_in_use + bytes > budget && level >= PressureLevel::Elevated {
            self.evict_for(i, now, level);
        }
        if self.mem_in_use + bytes <= budget {
            Governed::Admit
        } else if urgent && level == PressureLevel::Critical {
            self.shed(i, now, level);
            Governed::Shed
        } else {
            Governed::Wait // head-of-line memory backpressure
        }
    }

    /// Governor step: the head waits. Below Elevated pressure that is
    /// plain lazy admission and leaves no trace.
    fn defer(&mut self, i: usize, now: u64, level: PressureLevel) {
        if level >= PressureLevel::Elevated {
            metrics::counter("serve.pressure.deferrals").add(1);
            let reason = format!("pressure {}", level.as_str());
            self.emit(now, i, EventKind::Deferred, "", 0, reason);
            self.decide(now, i, "defer", String::new(), level, (0, 0));
        }
    }

    /// Governor step: evict the low-mass KV share (a quarter — the I_KV
    /// tail outside the attention-mass head set, recomputable from the
    /// prompt) of in-flight decode sessions, oldest admission first,
    /// until the head `i` fits. Each session is evicted at most once:
    /// the abstraction is dropping resident low-mass rows, not
    /// repeatedly shrinking KV.
    fn evict_for(&mut self, i: usize, now: u64, level: PressureLevel) {
        let head_id = self.requests[i].id;
        for idx in 0..self.inflight.len() {
            if self.mem_in_use + self.st[i].bytes <= self.cfg.mem_budget_bytes {
                break;
            }
            let j = self.inflight[idx];
            if self.st[j].phase != Phase::Decode || self.st[j].evicted {
                continue;
            }
            let freed = self.st[j].bytes / 4;
            self.st[j].bytes -= freed;
            self.st[j].evicted = true;
            self.mem_in_use -= freed;
            metrics::counter("serve.pressure.evictions").add(1);
            let rung = self.st[j].rung.to_string();
            let reason = format!(
                "pressure {}: low-mass KV freed for request {head_id}",
                level.as_str()
            );
            self.emit(now, j, EventKind::PressureEvicted, &rung, freed, reason);
            self.decide(now, j, "evict", rung, level, (0, 0));
        }
    }

    /// Governor step, the ladder's last rung: an urgent head that still
    /// cannot be placed under Critical pressure is shed with a typed
    /// budget rejection instead of blocking the EDF head while its
    /// deadline bleeds out.
    fn shed(&mut self, i: usize, now: u64, level: PressureLevel) {
        let required_bytes = self.mem_in_use + self.st[i].bytes;
        let budget = self.cfg.mem_budget_bytes;
        metrics::counter("serve.pressure.sheds").add(1);
        let reason = format!(
            "unplaceable under critical pressure: required {required_bytes} bytes of budget \
             {budget}"
        );
        self.finish(i, Planned::RejectBudget { required_bytes }, now, reason, None);
        self.decide(now, i, "shed", String::new(), level, (0, 0));
        self.recorder.trigger(
            "shed",
            now,
            self.requests[i].id,
            format!(
                "urgent head shed: required {required_bytes} bytes against budget {budget} at \
                 critical pressure"
            ),
        );
    }

    /// Governor step: the head fits. Reserves its memory and fixes the
    /// rung-independent shape of its schedule; the ladder walk waits
    /// for first dispatch ([`init_schedule`]).
    fn reserve(&mut self, i: usize, now: u64) {
        let (cfg, req) = (self.cfg, &self.requests[i]);
        self.mem_in_use += self.st[i].bytes;
        self.emit(now, i, EventKind::Admitted, "", self.st[i].bytes, String::new());
        let level = self.level();
        self.decide(now, i, "admit", String::new(), level, (0, 0));
        if level == PressureLevel::Critical && self.prev_level != PressureLevel::Critical {
            self.recorder.trigger(
                "critical_transition",
                now,
                req.id,
                format!(
                    "occupancy {} of budget {} crossed the high watermark on admission",
                    self.mem_in_use, cfg.mem_budget_bytes
                ),
            );
        }
        self.prev_level = level;
        let attempts_budget = cfg.max_retries as u64 + 1;
        let s = &mut self.st[i];
        s.fails = req.fault_fails.min(attempts_budget);
        s.permanent = req.fault_fails >= attempts_budget;
        s.n_chunks = (req.seq_len as u64)
            .div_ceil(cfg.chunk_size.max(1) as u64)
            .max(1);
        s.phase = Phase::Admitted;
        s.next_ready = now;
        s.last_event = now;
        self.inflight.push(i);
    }

    /// Resolves every request [`overdue`](Self::overdue) at `now`: first
    /// the in-flight ones at a micro-task boundary (whose memory frees
    /// now, so admission gets another turn), then the whole EDF queue —
    /// expired, cancelled, and provably-doomed entries leave
    /// immediately instead of lingering until they reach the head (they
    /// hold no memory, but they inflate the contention estimate and
    /// hide the backlog's true shape from the dispatch budget).
    fn sweep(&mut self, now: u64) {
        self.inflight.retain(|&i| self.st[i].terminal.is_none());
        let mut freed = false;
        for idx in 0..self.inflight.len() {
            let i = self.inflight[idx];
            if self.st[i].next_ready > now {
                continue; // mid-task or in backoff; checked on wake-up
            }
            if let Some((planned, at, reason)) = self.overdue(i, now, false) {
                self.finish(i, planned, at, reason.to_string(), Some(now));
                freed = true;
            }
        }
        if freed {
            self.inflight.retain(|&i| self.st[i].terminal.is_none());
            self.admit(now);
        }
        let mut kept = 0;
        for idx in 0..self.pending.len() {
            let i = self.pending[idx];
            match self.overdue(i, now, true) {
                Some((planned, at, reason)) => {
                    self.finish(i, planned, at, reason.to_string(), None);
                }
                None => {
                    self.pending[kept] = i;
                    kept += 1;
                }
            }
        }
        self.pending.truncate(kept);
    }

    /// Picks the micro-task to run at `now`: decode-first, then
    /// prefill/fail-attempt by tenant round-robin under the token
    /// buckets. Returns the chosen request, or — when nothing is
    /// dispatchable — the earliest optimistic refill instant of a
    /// bucket that held a tenant back (`u64::MAX` when none did).
    fn pick(&mut self, now: u64) -> (Option<usize>, u64) {
        let (cfg, requests) = (self.cfg, self.requests);
        let decode = self
            .inflight
            .iter()
            .copied()
            .filter(|&i| self.st[i].phase == Phase::Decode && self.st[i].next_ready <= now)
            .min_by_key(|&i| (self.st[i].next_ready, requests[i].id));
        if decode.is_some() {
            return (decode, u64::MAX);
        }
        let mut bucket_ready = u64::MAX;
        let n_tenants = self.buckets.len();
        // Everyone contending for worker time right now: admitted
        // requests plus the memory-deferred pending queue.
        let contenders = self.inflight.len() + self.pending.len();
        for step in 0..n_tenants {
            let t_idx = (self.rr_cursor + step) % n_tenants;
            // Within a tenant, shortest-remaining-work-first at chunk
            // granularity: a short request preempts a long prefill at
            // its next chunk boundary, while homogeneous streams degrade
            // gracefully to run-to-completion (the in-progress head
            // always has the least remaining), so overload never
            // thrashes every request past its deadline the way
            // round-robin time-slicing does.
            let shortest = self
                .inflight
                .iter()
                .copied()
                .filter(|&i| {
                    let s = &self.st[i];
                    matches!(
                        s.phase,
                        Phase::Admitted | Phase::FailAttempts { .. } | Phase::Prefill
                    ) && s.next_ready <= now
                        && s.tenant == t_idx
                })
                .min_by_key(|&i| {
                    let budget = self.dispatch_budget(i, now, contenders);
                    (est_remaining_ms(cfg, &requests[i], &self.st[i], budget), requests[i].id)
                });
            let Some(i) = shortest else { continue };
            if self.st[i].phase == Phase::Admitted && !self.dispatch(i, now, contenders) {
                continue;
            }
            let (_, bucket_cost) = self.st[i].next_task(cfg, &requests[i]);
            if bucket_cost == 0 || self.buckets[t_idx].try_take(now, bucket_cost) {
                self.rr_cursor = (t_idx + 1) % n_tenants;
                return (Some(i), bucket_ready);
            }
            // Bucket-limited: note the optimistic refill time and make
            // the whole tenant wait (no cheap-task bypass, so quota
            // starvation cannot reorder a tenant's stream).
            bucket_ready = bucket_ready.min(self.buckets[t_idx].ready_time(now, bucket_cost));
        }
        (None, bucket_ready)
    }

    fn dispatch_budget(&self, i: usize, now: u64, contenders: usize) -> u64 {
        dispatch_budget_ms(self.due_t(i).saturating_sub(now), self.cfg.slots(), contenders)
    }

    /// First time a worker reaches request `i`: walk the ladder against
    /// the load-scaled deadline budget — halved under Critical memory
    /// pressure, so freshly dispatched work lands on cheaper rungs while
    /// occupancy drains (the governor's forced-rung action). The walk
    /// never drops below the tenant's quality floor: when no permitted
    /// rung fits (even pressure-halved), or an uncertifiable rung would
    /// breach the tenant's uncertified-token cap, the request sheds with
    /// a typed quality-floor refusal and `false` is returned.
    fn dispatch(&mut self, i: usize, now: u64, contenders: usize) -> bool {
        let (cfg, req) = (self.cfg, &self.requests[i]);
        let level = self.level();
        let mut budget = self.dispatch_budget(i, now, contenders);
        let mut forced = false;
        let max_idx = cfg.max_rung_index_for(req.tenant);
        if level == PressureLevel::Critical {
            let uncapped = sim::choose_rung_floored(req, budget, max_idx).map(|c| c.0);
            budget /= 2;
            let capped = sim::choose_rung_floored(req, budget, max_idx).map(|c| c.0);
            if capped != uncapped {
                metrics::counter("serve.pressure.forced_rungs").add(1);
                forced = true;
            }
        }
        let tokens = req.seq_len as u64 + req.new_tokens as u64;
        let t_idx = self.st[i].tenant;
        let mut floor_refusal: Option<String> = None;
        if !init_schedule(req, &mut self.st[i], budget, max_idx) {
            floor_refusal = Some(format!(
                "quality floor: no permitted rung fits the {budget} ms dispatch budget"
            ));
        } else if let Some(floor) = cfg.floor_for(req.tenant) {
            if !self.st[i].rung.can_certify_alpha() {
                let unc = self.uncertified_tokens[t_idx] + tokens;
                let total = self.dispatched_tokens[t_idx] + tokens;
                if unc * 1000 > floor.max_uncertified_permille * total {
                    floor_refusal = Some(format!(
                        "quality floor: uncertified rung would put tenant {} at {unc} of \
                         {total} tokens (cap {}‰)",
                        req.tenant, floor.max_uncertified_permille
                    ));
                }
            }
        }
        if let Some(reason) = floor_refusal {
            self.finish(i, Planned::ShedQualityFloor, now, reason.clone(), Some(now));
            self.decide(now, i, "shed_quality_floor", String::new(), level, (contenders, budget));
            self.recorder.trigger("shed", now, req.id, reason);
            return false;
        }
        self.dispatched_tokens[t_idx] += tokens;
        if !self.st[i].rung.can_certify_alpha() {
            self.uncertified_tokens[t_idx] += tokens;
        }
        let rung = self.st[i].rung.to_string();
        let reason = format!("budget {budget} ms, {contenders} contenders");
        self.emit(now, i, EventKind::Dispatched, &rung, 0, reason);
        if self.st[i].rung != DegradationRung::Full {
            let reason = if forced {
                format!("pressure-forced under {} occupancy", level.as_str())
            } else {
                format!("deadline budget {budget} ms too tight for higher rungs")
            };
            self.emit(now, i, EventKind::RungDegraded, &rung, 0, reason);
        }
        self.decide(now, i, "dispatch", rung, level, (contenders, budget));
        true
    }

    /// Nothing is dispatchable at `now`: the earliest later instant
    /// anything can change — the next arrival, a request waking from a
    /// task or backoff, a release, a bucket refill, or the queue head
    /// turning urgent (a lazily-deferred head may fill the reserve from
    /// its last full-rung start instant). Every unresolved request is
    /// yet to arrive, pending or in flight, so one of them always
    /// bounds the wait.
    fn next_wake(&self, now: u64, bucket_ready: u64) -> u64 {
        let soon = now + 1;
        let mut wake = bucket_ready;
        if let Some(&i) = self.order.get(self.next_arrival) {
            wake = wake.min(self.requests[i].arrival_ms);
        }
        for &j in &self.inflight {
            wake = wake.min(self.st[j].next_ready.max(soon));
        }
        if let Some(&(t, _, _)) = self.releases.front() {
            wake = wake.min(t.max(soon));
        }
        if let Some(&h) = self.pending.first() {
            wake = wake.min(self.must_start_by(h).max(soon));
        }
        wake.max(soon)
    }

    /// Runs request `i`'s next micro-task from `now` and returns when
    /// it ends (when the worker frees).
    fn run_task(&mut self, i: usize, now: u64) -> u64 {
        let req = &self.requests[i];
        let (cost, _) = self.st[i].next_task(self.cfg, req);
        let end = now + cost.max(1);
        let s = &mut self.st[i];
        s.start.get_or_insert(now);
        s.last_event = end;
        s.next_ready = end;
        match s.phase {
            Phase::FailAttempts { remaining } => self.crash(i, end, remaining),
            Phase::Prefill => {
                s.chunks_done += 1;
                if s.chunks_done == s.n_chunks && req.new_tokens > 0 {
                    s.phase = Phase::Decode;
                } else if s.chunks_done == s.n_chunks {
                    s.first_token = Some(end);
                    let rung = s.rung.to_string();
                    let reason = "final prefill chunk".to_string();
                    self.emit(end, i, EventKind::FirstToken, &rung, 0, reason);
                    self.complete(i, end);
                }
            }
            Phase::Decode => {
                s.steps_done += 1;
                let steps_done = s.steps_done;
                if steps_done == 1 {
                    s.first_token = Some(end);
                    let rung = s.rung.to_string();
                    let reason = "first decode step".to_string();
                    self.emit(end, i, EventKind::FirstToken, &rung, 0, reason);
                }
                if steps_done == req.new_tokens as u64 {
                    self.complete(i, end);
                }
            }
            // Only compute phases are ever picked.
            Phase::Pending | Phase::Admitted | Phase::Done => {}
        }
        end
    }

    /// An injected crash ended attempt `fails_done` of request `i` at
    /// `end`, with `remaining` scripted failures left counting this one.
    fn crash(&mut self, i: usize, end: u64, remaining: u64) {
        let (cfg, req) = (self.cfg, &self.requests[i]);
        let attempt = self.st[i].fails_done;
        self.st[i].fails_done += 1;
        let (n_chunks, permanent) = (self.st[i].n_chunks, self.st[i].permanent);
        let rung = self.st[i].rung.to_string();
        // Crash-recovery accounting for the attempt that follows this
        // crash (the last crash of a permanent failure has no
        // successor). With recovery on, the successor restores the
        // chunk-boundary checkpoint and recomputes only the one
        // in-flight chunk the crash destroyed; with recovery off it
        // re-runs everything this attempt had already completed.
        if remaining > 1 || !permanent {
            let seq = req.seq_len as u64;
            let chunk = cfg.chunk_size.max(1) as u64;
            let reason = format!("attempt {} crashed", attempt + 1);
            self.emit(end, i, EventKind::Retried, &rung, 0, reason);
            if cfg.recovery_enabled {
                let h = planned_checkpoint_chunks(cfg, req.id, attempt + 1, n_chunks);
                if h > 0 {
                    self.st[i].recovered_attempts += 1;
                }
                self.st[i].recomputed_tokens += chunk.min(seq);
                let reason = format!("chunk-boundary checkpoint at chunk {h} of {n_chunks}");
                self.emit(end, i, EventKind::CheckpointCaptured, &rung, 0, reason);
                if h > 0 {
                    let reason = format!("next attempt resumes from chunk {h}");
                    self.emit(end, i, EventKind::Recovered, &rung, 0, reason);
                }
            } else {
                let progressed = checkpoint_advance(cfg, req.id, attempt, n_chunks)
                    .min(n_chunks.saturating_sub(1));
                self.st[i].recomputed_tokens += ((progressed + 1) * chunk).min(seq);
            }
        }
        if remaining == 1 && permanent {
            let fails = self.st[i].fails;
            self.finish_plainly(i, Planned::FailPermanent { fails }, end, Some(end));
            self.recorder.trigger(
                "storm_budget_exhausted",
                end,
                req.id,
                format!("request {} burned all {fails} attempts", req.id),
            );
            return;
        }
        let gap = sim::backoff_ms(cfg, req.id, attempt);
        let s = &mut self.st[i];
        s.backoff_total = s.backoff_total.saturating_add(gap);
        s.next_ready = end.saturating_add(gap);
        if remaining > 1 {
            s.phase = Phase::FailAttempts {
                remaining: remaining - 1,
            };
            return;
        }
        // Last injected failure: back off, then run clean — resuming
        // from the cumulative chunk-boundary checkpoint when recovery is
        // on (the prefill head start that makes resume cheaper than
        // re-running), from scratch when it is off.
        s.phase = Phase::Prefill;
        if cfg.recovery_enabled {
            s.chunks_done = planned_checkpoint_chunks(cfg, req.id, s.fails, n_chunks);
            if s.chunks_done > 0 {
                let reason = format!(
                    "clean attempt resumes prefill from chunk {} of {n_chunks}",
                    s.chunks_done
                );
                self.emit(end, i, EventKind::CheckpointRestored, &rung, 0, reason);
            }
        }
    }

    /// Assembles the plans in input order.
    fn plans(&self) -> Vec<ContinuousPlan> {
        let plan_of = |(req, s): (&Request, &RState)| {
            // Every request resolved before the loop exited.
            let (planned, finish) = s
                .terminal
                .clone()
                .unwrap_or((Planned::ExpireInQueue, req.arrival_ms + req.deadline_ms));
            let started_model = planned.runs_model();
            let start = s.start.unwrap_or(finish).min(finish);
            // Recovery tallies follow the retries convention: only
            // outcomes that ran their full fault schedule report them
            // (a cancelled request's partial tallies describe attempts
            // whose retries are likewise not reported).
            let (retries, ran_schedule) = match planned {
                Planned::Serve { fails } => (fails, true),
                Planned::FailPermanent { fails } => (fails.saturating_sub(1), true),
                _ => (0, false),
            };
            let tally = |n: u64| if ran_schedule { n } else { 0 };
            ContinuousPlan {
                plan: Plan {
                    planned,
                    rung: if started_model { s.rung } else { DegradationRung::Full },
                    skipped: if started_model { s.skipped.clone() } else { Vec::new() },
                    start_ms: start,
                    finish_ms: finish,
                    queue_wait_ms: start.saturating_sub(req.arrival_ms),
                    retries,
                    backoff_ms: tally(s.backoff_total),
                },
                tenant: req.tenant,
                first_token_ms: s.first_token.unwrap_or(0),
                prefill_chunks: s.chunks_done,
                decode_steps: s.steps_done,
                recovered_attempts: tally(s.recovered_attempts),
                recomputed_tokens: tally(s.recomputed_tokens),
            }
        };
        self.requests.iter().zip(&self.st).map(plan_of).collect()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::{mixed_workload, open_loop_workload};
    use sa_workloads::{ArrivalProcess, ArrivalShape};

    fn cfg() -> ServeConfig {
        ServeConfig::default()
    }

    #[test]
    fn healthy_stream_serves_everything_in_arrival_order_capacity() {
        let c = cfg();
        let reqs: Vec<Request> = (0..4)
            .map(|id| Request::prefill(id, 64, id * 10, 1_000_000))
            .collect();
        let plans = plan_continuous(&c, &reqs);
        for p in &plans {
            assert!(matches!(p.plan.planned, Planned::Serve { fails: 0 }), "{p:?}");
            assert_eq!(p.plan.rung, DegradationRung::Full);
            assert!(p.first_token_ms > 0);
            assert_eq!(p.first_token_ms, p.plan.finish_ms, "prefill-only TTFT = finish");
            assert_eq!(p.prefill_chunks, 2, "64 tokens / 32-chunk = 2 chunks");
        }
    }

    #[test]
    fn long_prefill_no_longer_blocks_short_requests() {
        // One huge prefill arrives first; a short one right behind it.
        // Under one-shot planning with one slot the short request waits
        // the whole 512² service; under continuous batching it
        // interleaves at chunk granularity and finishes far earlier.
        let c = ServeConfig {
            max_inflight: 1,
            ..cfg()
        };
        let long = Request::prefill(0, 512, 0, 1_000_000);
        let short = Request::prefill(1, 48, 1, 1_000_000);
        let oneshot = sim::plan_batch(&c, &[long.clone(), short.clone()]);
        let cont = plan_continuous(&c, &[long, short]);
        assert!(matches!(cont[1].plan.planned, Planned::Serve { .. }));
        assert!(
            cont[1].plan.finish_ms < oneshot[1].finish_ms / 4,
            "continuous {} ms vs one-shot {} ms",
            cont[1].plan.finish_ms,
            oneshot[1].finish_ms
        );
    }

    #[test]
    fn decode_steps_interleave_with_prefill_chunks() {
        // A decode session in flight and a prefill arriving later: the
        // decode's tokens must not all wait for the prefill to finish.
        let c = ServeConfig {
            max_inflight: 1,
            ..cfg()
        };
        let mut decode = Request::prefill(0, 64, 0, 1_000_000);
        decode.kind = crate::RequestKind::Decode;
        decode.new_tokens = 8;
        let prefill = Request::prefill(1, 512, 1, 1_000_000);
        let plans = plan_continuous(&c, &[decode, prefill]);
        assert!(matches!(plans[0].plan.planned, Planned::Serve { .. }));
        assert!(matches!(plans[1].plan.planned, Planned::Serve { .. }));
        // Decode-first priority: the decode session finishes its 8
        // tokens long before the 4096 ms prefill completes.
        assert!(
            plans[0].plan.finish_ms < plans[1].plan.finish_ms,
            "decode {} vs prefill {}",
            plans[0].plan.finish_ms,
            plans[1].plan.finish_ms
        );
        assert_eq!(plans[0].decode_steps, 8);
        assert!(plans[0].first_token_ms < plans[0].plan.finish_ms);
    }

    #[test]
    fn pending_overflow_rejects_with_inflight_count() {
        let c = ServeConfig {
            max_inflight: 1,
            max_pending: 2,
            ..cfg()
        };
        // Slow head + queue bound 2: the fourth simultaneous arrival
        // bounces.
        let reqs: Vec<Request> = (0..5)
            .map(|id| Request::prefill(id, 512, 0, 1_000_000))
            .collect();
        let plans = plan_continuous(&c, &reqs);
        let rejected = plans
            .iter()
            .filter(|p| matches!(p.plan.planned, Planned::RejectOverloaded { .. }))
            .count();
        assert!(rejected >= 1, "bounded pending queue must reject overflow");
        for p in &plans {
            if let Planned::RejectOverloaded { inflight } = p.plan.planned {
                assert!(inflight >= 2, "rejection carries the load snapshot");
                assert_eq!(p.plan.start_ms, p.plan.finish_ms);
            }
        }
    }

    #[test]
    fn oversized_request_is_budget_rejected_not_stuck() {
        let c = ServeConfig {
            mem_budget_bytes: sim::weight_bytes() + 1,
            ..cfg()
        };
        let reqs = vec![Request::prefill(0, 512, 0, 1_000_000)];
        let plans = plan_continuous(&c, &reqs);
        assert!(
            matches!(plans[0].plan.planned, Planned::RejectBudget { required_bytes }
                if required_bytes > c.mem_budget_bytes)
        );
    }

    #[test]
    fn memory_backpressure_defers_instead_of_rejecting() {
        // Two 512-prefills fit concurrently, a third waits for a
        // release instead of bouncing (unlike the one-shot planner).
        let c = cfg();
        let reqs: Vec<Request> = (0..3)
            .map(|id| Request::prefill(id, 512, 0, 10_000_000))
            .collect();
        let plans = plan_continuous(&c, &reqs);
        for p in &plans {
            assert!(matches!(p.plan.planned, Planned::Serve { .. }), "{p:?}");
        }
        // The third request waited for memory: it starts only after an
        // earlier one finished.
        let first_finish = plans.iter().map(|p| p.plan.finish_ms).min().unwrap();
        let last_start = plans.iter().map(|p| p.plan.start_ms).max().unwrap();
        assert!(
            last_start >= first_finish,
            "start {last_start} should wait for release at {first_finish}"
        );
    }

    #[test]
    fn deadline_expires_in_queue_and_mid_run() {
        let c = ServeConfig {
            max_inflight: 1,
            ..cfg()
        };
        // Feasible-but-tight: the full rung (4096 ms) fits the 4500 ms
        // deadline, so the long prefill starts at t=0 undegraded.
        let long = Request::prefill(0, 512, 0, 4500);
        // Deadline shorter than one chunk of anything: expires queued.
        let hopeless = Request::prefill(1, 512, 1, 2);
        // Less remaining work: preempts the long prefill at every chunk
        // boundary until the long one can no longer make its deadline.
        let short = Request::prefill(2, 256, 1, 1_000_000);
        let plans = plan_continuous(&c, &[long, hopeless, short]);
        assert!(matches!(plans[1].plan.planned, Planned::ExpireInQueue));
        assert!(matches!(plans[2].plan.planned, Planned::Serve { fails: 0 }));
        // The long request ran at least one chunk, then was shed the
        // moment its backoff-free remaining work provably could not fit
        // the deadline — charged as a mid-run deadline cancellation at
        // the deadline itself, exactly like the one-shot planner.
        assert!(matches!(plans[0].plan.planned, Planned::CancelDeadline));
        assert_eq!(plans[0].plan.finish_ms, 4500);
        assert_eq!(plans[0].plan.start_ms, 0, "it started before the shed");
        assert!(plans[0].prefill_chunks >= 1, "it ran before the shed");
    }

    #[test]
    fn caller_cancellation_wins_over_completion() {
        let c = cfg();
        let mut req = Request::prefill(0, 512, 0, 1_000_000);
        req.cancel_after_ms = 10;
        let plans = plan_continuous(&c, &[req]);
        assert!(matches!(plans[0].plan.planned, Planned::CancelCaller));
        assert!(plans[0].plan.finish_ms >= 10);
        assert!(plans[0].plan.finish_ms < 4096, "stopped within ~a chunk");
    }

    #[test]
    fn transient_and_permanent_faults_follow_the_oneshot_model() {
        let c = cfg();
        let mut transient = Request::prefill(0, 64, 0, 1_000_000);
        transient.fault_fails = 2;
        let mut permanent = Request::prefill(1, 64, 50_000, 1_000_000);
        permanent.fault_fails = 99;
        let plans = plan_continuous(&c, &[transient, permanent]);
        assert!(matches!(plans[0].plan.planned, Planned::Serve { fails: 2 }));
        assert_eq!(plans[0].plan.retries, 2);
        assert!(plans[0].plan.backoff_ms >= 2 * c.backoff_base_ms);
        assert!(
            matches!(plans[1].plan.planned, Planned::FailPermanent { fails }
                if fails == c.max_retries as u64 + 1)
        );
        assert_eq!(plans[1].plan.retries, c.max_retries as u64);
    }

    #[test]
    fn token_bucket_throttles_a_flooding_tenant() {
        // Tenant 0 floods with big prefills; tenant 1 sends one small
        // request slightly later. With a tight bucket, tenant 1 must
        // not wait for the entire flood.
        let c = ServeConfig {
            max_inflight: 2,
            tenant_rate_tokens_per_sec: 64,
            tenant_burst_tokens: 64,
            ..cfg()
        };
        let mut reqs: Vec<Request> = (0..4)
            .map(|id| Request::prefill(id, 224, 0, 10_000_000))
            .collect();
        let mut small = Request::prefill(4, 48, 10, 10_000_000);
        small.tenant = 1;
        reqs.push(small);
        let plans = plan_continuous(&c, &reqs);
        assert!(matches!(plans[4].plan.planned, Planned::Serve { .. }));
        let flood_last = plans[..4].iter().map(|p| p.plan.finish_ms).max().unwrap();
        assert!(
            plans[4].plan.finish_ms < flood_last,
            "tenant 1 ({} ms) should not trail the whole flood ({} ms)",
            plans[4].plan.finish_ms,
            flood_last
        );
    }

    #[test]
    fn a_chunk_larger_than_the_burst_still_runs() {
        // 64-token chunks against a 32-token bucket: each chunk debits a
        // full bucket and waits for the refill, instead of never fitting.
        let c = ServeConfig {
            chunk_size: 64,
            tenant_rate_tokens_per_sec: 32,
            tenant_burst_tokens: 32,
            ..cfg()
        };
        let plans = plan_continuous(&c, &[Request::prefill(0, 128, 0, 1_000_000)]);
        assert!(matches!(plans[0].plan.planned, Planned::Serve { fails: 0 }), "{plans:?}");
        assert_eq!(plans[0].prefill_chunks, 2);
        // The second chunk waits a full refill: 32 tokens at 32 tokens/s.
        assert!(plans[0].plan.finish_ms >= 1000, "{plans:?}");
    }

    #[test]
    fn plans_are_deterministic_and_total_on_adversarial_mixes() {
        let c = ServeConfig {
            max_pending: 8,
            ..cfg()
        };
        let reqs = mixed_workload(11, 48);
        let a = plan_continuous(&c, &reqs);
        let b = plan_continuous(&c, &reqs);
        assert_eq!(a, b);
        assert_eq!(a.len(), reqs.len());
        assert!(a.iter().any(|p| matches!(p.plan.planned, Planned::Serve { fails: 0 })));
        for (p, r) in a.iter().zip(&reqs) {
            assert!(p.plan.finish_ms >= p.plan.start_ms, "{p:?}");
            assert!(p.plan.start_ms >= r.arrival_ms, "{p:?}");
            if p.first_token_ms > 0 {
                assert!(p.first_token_ms >= p.plan.start_ms);
                assert!(p.first_token_ms <= p.plan.finish_ms);
            }
        }
    }

    #[test]
    fn open_loop_flash_crowd_is_planned_totally() {
        let c = cfg();
        let process = ArrivalProcess {
            seed: 13,
            rate_per_sec: 6.0,
            shape: ArrivalShape::FlashCrowd {
                quiet_ms: 6_000,
                burst_ms: 1_500,
                multiplier: 6.0,
            },
        };
        let reqs = open_loop_workload(13, &process, 25_000, 3);
        assert!(reqs.len() > 50, "flash crowd should draw a real stream");
        let plans = plan_continuous(&c, &reqs);
        assert_eq!(plans.len(), reqs.len());
        let served = plans
            .iter()
            .filter(|p| matches!(p.plan.planned, Planned::Serve { .. }))
            .count();
        assert!(served > 0);
    }

    #[test]
    fn recovery_resumes_from_checkpoints_instead_of_rerunning_prefill() {
        // The same crashing request planned twice: resume-from-
        // checkpoint must finish no later than retry-from-scratch and
        // recompute strictly fewer prefill tokens.
        let recovery = cfg();
        let scratch = ServeConfig {
            recovery_enabled: false,
            ..cfg()
        };
        let mut req = Request::prefill(0, 512, 0, 1_000_000);
        req.fault_fails = 2;
        let with = plan_continuous(&recovery, &[req.clone()]);
        let without = plan_continuous(&scratch, &[req]);
        assert!(matches!(with[0].plan.planned, Planned::Serve { fails: 2 }));
        assert!(matches!(without[0].plan.planned, Planned::Serve { fails: 2 }));
        // Every crash left a non-empty checkpoint behind (512 tokens =
        // 16 chunks; the first crash already advances at least one).
        assert_eq!(with[0].recovered_attempts, 2);
        assert_eq!(without[0].recovered_attempts, 0);
        // Bounded recompute: one in-flight chunk per crash vs the whole
        // completed progress of each crashed attempt.
        assert_eq!(with[0].recomputed_tokens, 2 * 32);
        assert!(
            without[0].recomputed_tokens > with[0].recomputed_tokens,
            "scratch recomputed {} must exceed recovery {}",
            without[0].recomputed_tokens,
            with[0].recomputed_tokens
        );
        // The head start makes the clean attempt strictly shorter.
        assert!(
            with[0].plan.finish_ms < without[0].plan.finish_ms,
            "recovery {} ms vs scratch {} ms",
            with[0].plan.finish_ms,
            without[0].plan.finish_ms
        );
        // Both still complete the full prefill on the virtual timeline.
        assert_eq!(with[0].prefill_chunks, 16);
        assert_eq!(without[0].prefill_chunks, 16);
    }

    #[test]
    fn recovery_accounting_skips_fault_free_and_permanent_edges() {
        let c = cfg();
        let clean = Request::prefill(0, 64, 0, 1_000_000);
        let mut permanent = Request::prefill(1, 64, 50_000, 1_000_000);
        permanent.fault_fails = 99;
        let plans = plan_continuous(&c, &[clean, permanent]);
        assert_eq!(plans[0].recovered_attempts, 0);
        assert_eq!(plans[0].recomputed_tokens, 0);
        // A permanent failure's last crash has no successor: resumes
        // happen only between the `fails` attempts.
        let fails = c.max_retries as u64 + 1;
        assert!(matches!(plans[1].plan.planned, Planned::FailPermanent { fails: f } if f == fails));
        assert!(plans[1].recovered_attempts <= fails - 1);
        assert!(plans[1].recomputed_tokens > 0);
    }

    #[test]
    fn governor_evicts_low_mass_kv_to_admit_an_urgent_giant() {
        // A decode session holds ~5.7 GiB of KV; the budget leaves one
        // byte less than an urgent 512-giant needs beside it. With the
        // watermarks armed, the governor evicts the session's low-mass
        // quarter and the giant starts while the decode is still in
        // flight; with the watermarks parked at the budget (pressure
        // never classifies above Normal) the giant must wait for the
        // decode to finish and release.
        let decode_bytes = sim::request_bytes(&cfg(), &Request::prefill(0, 64, 0, 0));
        let giant_bytes = sim::request_bytes(&cfg(), &Request::prefill(0, 512, 0, 0));
        let base = ServeConfig {
            mem_budget_bytes: sim::weight_bytes() + decode_bytes + giant_bytes - 1,
            mem_low_permille: 300,
            mem_high_permille: 990,
            ..cfg()
        };
        let mut decode = Request::prefill(0, 64, 0, 1_000_000);
        decode.kind = crate::RequestKind::Decode;
        decode.new_tokens = 64;
        // Urgent on arrival: the deadline is shorter than the full-rung
        // service, so the giant may fill the pool to the brim at once.
        let giant = Request::prefill(1, 512, 100, 2_000);
        let governed = plan_continuous(&base, &[decode.clone(), giant.clone()]);
        assert!(matches!(governed[0].plan.planned, Planned::Serve { .. }));
        assert!(matches!(governed[1].plan.planned, Planned::Serve { .. }), "{:?}", governed[1]);
        assert!(
            governed[1].plan.start_ms < governed[0].plan.finish_ms,
            "eviction admitted the giant (start {}) while the decode ran (finish {})",
            governed[1].plan.start_ms,
            governed[0].plan.finish_ms
        );
        let parked = ServeConfig {
            mem_low_permille: 1000,
            mem_high_permille: 1000,
            ..base
        };
        let ungoverned = plan_continuous(&parked, &[decode, giant]);
        assert!(
            ungoverned[1].plan.start_ms >= ungoverned[0].plan.finish_ms,
            "without the governor the giant (start {}) waits for the release ({})",
            ungoverned[1].plan.start_ms,
            ungoverned[0].plan.finish_ms
        );
    }

    #[test]
    fn governor_sheds_urgent_unplaceable_head_at_critical_pressure() {
        // One giant prefill occupies ~71% of a shrunken budget; with
        // the high watermark at 700‰ that is Critical. A second urgent
        // giant fits the budget alone (so it is not a could-never-fit
        // rejection) but cannot be placed beside the first, and there
        // is no decode KV to evict: the governor sheds it with a typed
        // budget rejection instead of letting it rot at the EDF head.
        let giant_bytes = sim::request_bytes(&cfg(), &Request::prefill(0, 512, 0, 0));
        let c = ServeConfig {
            mem_budget_bytes: sim::weight_bytes() + giant_bytes + giant_bytes / 2,
            mem_high_permille: 700,
            ..cfg()
        };
        // Urgent on arrival (deadline == full-rung service), so the
        // lazy-admission reserve rule does not defer it: it is admitted
        // at t=0 and pins occupancy at Critical while it runs.
        let g1 = Request::prefill(0, 512, 0, 4_096);
        let g2 = Request::prefill(1, 512, 50, 4_146);
        let plans = plan_continuous(&c, &[g1, g2]);
        assert!(matches!(plans[0].plan.planned, Planned::Serve { .. }), "{:?}", plans[0]);
        assert!(
            matches!(plans[1].plan.planned, Planned::RejectBudget { required_bytes }
                if required_bytes > c.mem_budget_bytes),
            "{:?}",
            plans[1]
        );
    }

    #[test]
    fn governor_forces_lower_rungs_at_critical_pressure() {
        // Two urgent giants (deadline == full-rung service, so the
        // lazy-admission reserve cannot defer them) push occupancy past
        // the default 850‰ mark. An urgent small request dispatched
        // under that pressure gets its ladder budget halved:
        // PaperDefault instead of the Full rung its deadline would
        // normally buy.
        let c = cfg();
        let g1 = Request::prefill(0, 512, 0, 4_096);
        let g2 = Request::prefill(1, 512, 0, 4_096);
        let small = Request::prefill(2, 64, 5, 100);
        let governed = plan_continuous(&c, &[g1.clone(), g2.clone(), small.clone()]);
        assert!(matches!(governed[2].plan.planned, Planned::Serve { .. }), "{:?}", governed[2]);
        assert_eq!(
            governed[2].plan.rung,
            DegradationRung::PaperDefault,
            "critical pressure halves the dispatch budget"
        );
        let parked = ServeConfig {
            mem_low_permille: 1000,
            mem_high_permille: 1000,
            ..cfg()
        };
        let ungoverned = plan_continuous(&parked, &[g1, g2, small]);
        assert!(matches!(ungoverned[2].plan.planned, Planned::Serve { .. }));
        assert_eq!(ungoverned[2].plan.rung, DegradationRung::Full);
    }

    #[test]
    fn lazy_admission_keeps_memory_reserve_for_urgent_arrivals() {
        // A slack-rich giant (deadline far beyond its full-rung
        // service) may be admitted early only while it takes at most
        // half the free memory; a second giant must wait even though it
        // would fit, keeping headroom for urgent arrivals. An urgent
        // small request then slips straight in past the deferred giant.
        let c = cfg();
        let g1 = Request::prefill(0, 512, 0, 1_000_000);
        let g2 = Request::prefill(1, 512, 1, 1_000_000);
        let urgent = Request::prefill(2, 96, 2, 338);
        let plans = plan_continuous(&c, &[g1, g2, urgent]);
        for p in &plans {
            assert!(matches!(p.plan.planned, Planned::Serve { .. }), "{p:?}");
        }
        assert!(
            plans[2].plan.finish_ms <= 2 + 338,
            "urgent request served within its deadline, not behind the giants"
        );
        assert!(
            plans[1].plan.start_ms >= plans[0].plan.finish_ms.min(plans[2].plan.finish_ms),
            "second giant was deferred, not admitted alongside the first"
        );
    }

    // ── Policy tests on hand-built planner state ────────────────────
    // No workload generator: each test puts the planner in one state
    // and holds a single policy method to its verdict, its strings and
    // its counters.

    /// The flight-recorder ring, oldest first.
    fn decisions(mut p: Planner<'_>) -> Vec<PlannerDecision> {
        p.recorder.trigger("probe", 0, 0, String::new());
        p.recorder.into_postmortems().pop().unwrap().decisions
    }

    #[test]
    fn overdue_verdict_table() {
        struct Case {
            name: &'static str,
            queued: bool,
            cancel_after_ms: u64,
            deadline_ms: u64,
            now: u64,
            permanent: bool,
            want: Option<(Planned, u64, &'static str)>,
        }
        let case = |name, queued, cancel_after_ms, deadline_ms, now, want| Case {
            name,
            queued,
            cancel_after_ms,
            deadline_ms,
            now,
            permanent: false,
            want,
        };
        // One 64-token prefill arriving at t=100. Queued, its minimum
        // remaining work is the bottom rung's 5 ms; in flight it has run
        // one of two 32 ms chunks, the last ending at t=132.
        let table = [
            case("queued, cancel passed", true, 10, 1_000, 200,
                Some((Planned::CancelCaller, 110, "caller cancelled while queued"))),
            case("queued, cancel passed after the deadline: cancel still wins", true, 10, 5, 200,
                Some((Planned::CancelCaller, 110, "caller cancelled while queued"))),
            case("queued, deadline passed", true, 0, 50, 200,
                Some((Planned::ExpireInQueue, 150, "deadline expired in queue"))),
            case("queued, doomed, caller hangs up first", true, 3, 1_000, 100,
                Some((Planned::CancelCaller, 103,
                    "doomed in queue: cannot finish before the caller hangs up"))),
            case("queued, doomed, deadline first", true, 0, 4, 100,
                Some((Planned::ExpireInQueue, 104, "doomed in queue: cannot meet the deadline"))),
            case("queued, doomed, cancel and deadline tie: the deadline wins", true, 4, 4, 100,
                Some((Planned::ExpireInQueue, 104, "doomed in queue: cannot meet the deadline"))),
            case("queued, exactly enough time left", true, 0, 5, 100, None),
            case("in flight, cancel passed mid-task: stops at the task boundary", false, 10, 1_000,
                140, Some((Planned::CancelCaller, 132, "caller cancelled"))),
            case("in flight, cancel passed after the boundary", false, 35, 1_000, 140,
                Some((Planned::CancelCaller, 135, "caller cancelled"))),
            case("in flight, deadline passed", false, 0, 20, 140,
                Some((Planned::CancelDeadline, 132, "due time passed mid-flight"))),
            case("in flight, doomed, caller hangs up first", false, 50, 1_000, 132,
                Some((Planned::CancelCaller, 150,
                    "doomed: remaining work cannot finish before the caller hangs up"))),
            case("in flight, doomed, deadline first", false, 0, 60, 132,
                Some((Planned::CancelDeadline, 160,
                    "doomed: remaining work cannot meet the deadline"))),
            case("in flight, exactly enough time left", false, 0, 64, 132, None),
            Case {
                permanent: true,
                ..case("in flight, permanent failure is never doomed", false, 0, 60, 132, None)
            },
        ];
        let c = cfg();
        for t in table {
            let mut req = Request::prefill(0, 64, 100, t.deadline_ms);
            req.cancel_after_ms = t.cancel_after_ms;
            let reqs = [req];
            let mut p = Planner::new(&c, &reqs);
            if !t.queued {
                let s = &mut p.st[0];
                s.phase = Phase::Prefill;
                s.start = Some(100);
                (s.n_chunks, s.chunk_cost, s.chunks_done) = (2, 32, 1);
                s.last_event = 132;
                s.permanent = t.permanent;
            }
            assert_eq!(p.overdue(0, t.now, t.queued), t.want, "{}", t.name);
        }

        // Admitted but never dispatched: a passed deadline is still a
        // queue expiry, stamped no earlier than the admission.
        let reqs = [Request::prefill(0, 64, 100, 20)];
        let mut p = Planner::new(&c, &reqs);
        p.st[0].phase = Phase::Admitted;
        p.st[0].last_event = 125;
        assert_eq!(
            p.overdue(0, 140, false),
            Some((Planned::ExpireInQueue, 125, "due time passed mid-flight"))
        );
    }

    /// A planner over an urgent-or-not 512-token head (request 0) and a
    /// decode session (request 1) already in flight, with occupancy set
    /// to `in_use_permille` of the default budget and the head needing
    /// `head_bytes`.
    fn governed<'a>(
        c: &'a ServeConfig,
        reqs: &'a [Request],
        in_use_permille: u64,
        head_bytes: u64,
    ) -> Planner<'a> {
        let mut p = Planner::new(c, reqs);
        p.pending = vec![0];
        p.inflight = vec![1];
        p.st[0].bytes = head_bytes;
        p.st[1].phase = Phase::Decode;
        p.st[1].rung = DegradationRung::Tight;
        p.st[1].bytes = 4_000;
        p.mem_in_use = c.mem_budget_bytes / 1000 * in_use_permille;
        p
    }

    fn governor_requests(urgent: bool) -> [Request; 2] {
        // Full-rung service of the head is 4096 ms: with that deadline it
        // is urgent on arrival, with a long one it can wait.
        let head = Request::prefill(0, 512, 0, if urgent { 4_096 } else { 1_000_000 });
        let mut session = Request::prefill(1, 64, 0, 1_000_000);
        session.kind = crate::RequestKind::Decode;
        session.new_tokens = 8;
        [head, session]
    }

    #[test]
    fn governor_admits_what_fits_and_defers_in_silence_below_elevated() {
        let c = cfg();
        let reqs = governor_requests(false);
        let free = c.mem_budget_bytes - c.mem_budget_bytes / 1000 * 500;

        // Normal pressure, slack-rich head within half the free pool.
        let mut p = governed(&c, &reqs, 500, free / 2);
        assert_eq!(p.govern(0, 0), Governed::Admit);
        assert!(p.log.events.is_empty(), "the verdict itself leaves no trace");
        assert!(decisions(p).is_empty());

        // One byte over half: lazy admission makes it wait, silently.
        let mut p = governed(&c, &reqs, 500, free / 2 + 1);
        assert_eq!(p.govern(0, 0), Governed::Wait);
        assert!(p.log.events.is_empty());
        assert!(decisions(p).is_empty());

        // The same head, once urgent, may fill the pool to the brim.
        let urgent = governor_requests(true);
        let mut p = governed(&c, &urgent, 500, free);
        assert_eq!(p.govern(0, 0), Governed::Admit);
        let mut p = governed(&c, &urgent, 500, free + 1);
        assert_eq!(p.govern(0, 0), Governed::Wait, "head-of-line backpressure");
        assert!(p.log.events.is_empty());
        assert_eq!(p.st[1].bytes, 4_000, "no eviction below Elevated");
    }

    #[test]
    fn governor_logs_deferrals_from_elevated_up() {
        // The counters read below move only while this thread traces.
        let _session = sa_trace::scoped();
        let c = cfg();
        let reqs = governor_requests(false);
        for (permille, level) in [(700, "elevated"), (900, "critical")] {
            let deferrals = metrics::counter("serve.pressure.deferrals").get();
            // Critical defers every non-urgent head, however small.
            let head_bytes = if level == "critical" { 1 } else { c.mem_budget_bytes };
            let mut p = governed(&c, &reqs, permille, head_bytes);
            let in_use = p.mem_in_use;
            assert_eq!(p.govern(0, 7), Governed::Wait);
            assert!(metrics::counter("serve.pressure.deferrals").get() > deferrals);
            assert_eq!(p.log.events.len(), 1);
            let ev = &p.log.events[0];
            assert_eq!((ev.kind, ev.t_ms, ev.request_id), (EventKind::Deferred, 7, 0));
            assert_eq!((ev.rung.as_str(), ev.bytes, ev.mem_in_use), ("", 0, in_use));
            assert_eq!(ev.reason, format!("pressure {level}"));
            let ring = decisions(p);
            assert_eq!(ring.len(), 1);
            assert_eq!((ring[0].action.as_str(), ring[0].request_id), ("defer", 0));
            assert_eq!((ring[0].queue_depth, ring[0].inflight), (1, 1));
            assert_eq!(ring[0].free_bytes, c.mem_budget_bytes - in_use);
            assert_eq!(ring[0].pressure, level);
        }
    }

    #[test]
    fn governor_evicts_each_session_once_then_waits() {
        // The counters read below move only while this thread traces.
        let _session = sa_trace::scoped();
        let c = cfg();
        let reqs = governor_requests(true);
        let free = c.mem_budget_bytes - c.mem_budget_bytes / 1000 * 700;
        let evictions = metrics::counter("serve.pressure.evictions").get();

        // The head is 1000 bytes short; the session's low-mass quarter
        // is exactly that.
        let mut p = governed(&c, &reqs, 700, free + 1_000);
        let in_use = p.mem_in_use;
        assert_eq!(p.govern(0, 9), Governed::Admit);
        assert!(metrics::counter("serve.pressure.evictions").get() > evictions);
        assert!(p.st[1].evicted);
        assert_eq!(p.st[1].bytes, 3_000);
        assert_eq!(p.mem_in_use, in_use - 1_000);
        assert_eq!(p.log.events.len(), 1);
        let ev = &p.log.events[0];
        assert_eq!((ev.kind, ev.t_ms, ev.request_id), (EventKind::PressureEvicted, 9, 1));
        assert_eq!((ev.rung.as_str(), ev.bytes, ev.mem_in_use), ("tight", 1_000, in_use - 1_000));
        assert_eq!(ev.reason, "pressure elevated: low-mass KV freed for request 0");

        // A second shortfall finds nothing left to evict: the urgent
        // head waits at the head of the line (Elevated never sheds).
        p.st[0].bytes += 1;
        assert_eq!(p.govern(0, 10), Governed::Wait);
        assert_eq!(p.st[1].bytes, 3_000, "a session is evicted at most once");
        assert_eq!(p.log.events.len(), 1);
        let ring = decisions(p);
        assert_eq!(ring.len(), 1);
        assert_eq!((ring[0].action.as_str(), ring[0].request_id), ("evict", 1));
        assert_eq!((ring[0].rung.as_str(), ring[0].pressure.as_str()), ("tight", "elevated"));
    }

    #[test]
    fn governor_sheds_only_an_urgent_head_at_critical_pressure() {
        // The counters read below move only while this thread traces.
        let _session = sa_trace::scoped();
        let c = cfg();
        let free = c.mem_budget_bytes - c.mem_budget_bytes / 1000 * 900;
        let sheds = metrics::counter("serve.pressure.sheds").get();

        // The session's quarter is evicted first and is not enough.
        let reqs = governor_requests(true);
        let mut p = governed(&c, &reqs, 900, free + 1_001);
        let required = p.mem_in_use - 1_000 + p.st[0].bytes;
        assert_eq!(p.govern(0, 11), Governed::Shed);
        assert!(metrics::counter("serve.pressure.sheds").get() > sheds);
        assert_eq!(p.done, 1);
        assert_eq!(
            p.st[0].terminal,
            Some((Planned::RejectBudget { required_bytes: required }, 11))
        );
        assert!(p.releases.is_empty(), "a queued request holds no memory to release");
        let ev = p.log.events.last().unwrap();
        assert_eq!((ev.kind, ev.t_ms, ev.request_id), (EventKind::Shed, 11, 0));
        assert_eq!(
            ev.reason,
            format!(
                "unplaceable under critical pressure: required {required} bytes of budget {}",
                c.mem_budget_bytes
            )
        );
        p.recorder.trigger("probe", 0, 0, String::new());
        let dumps = p.recorder.into_postmortems();
        let dump = &dumps[0];
        assert_eq!((dump.trigger.as_str(), dump.t_ms, dump.request_id), ("shed", 11, 0));
        assert_eq!(
            dump.reason,
            format!(
                "urgent head shed: required {required} bytes against budget {} at critical \
                 pressure",
                c.mem_budget_bytes
            )
        );
        let actions: Vec<&str> = dumps[1].decisions.iter().map(|d| d.action.as_str()).collect();
        assert_eq!(actions, ["evict", "shed"]);
        assert_eq!(dumps[1].decisions[1].queue_depth, 1, "recorded with the head still queued");

        // A head that can still wait is deferred, never shed.
        let patient = governor_requests(false);
        let mut p = governed(&c, &patient, 900, free + 1_001);
        assert_eq!(p.govern(0, 11), Governed::Wait);
        assert_eq!(p.done, 0);
    }

    /// A planner whose only request has been admitted at t=0 and waits
    /// for its first dispatch, with tenant 0 under `floor`.
    fn admitted<'a>(c: &'a ServeConfig, reqs: &'a [Request]) -> Planner<'a> {
        let mut p = Planner::new(c, reqs);
        p.reserve(0, 0);
        p.log.events.clear();
        p
    }

    fn floored(max_rung: DegradationRung, max_uncertified_permille: u64) -> ServeConfig {
        ServeConfig {
            quality_floors: vec![crate::TenantFloor {
                tenant: 0,
                max_rung_index: max_rung.index(),
                max_uncertified_permille,
            }],
            ..cfg()
        }
    }

    #[test]
    fn floor_refuses_when_pressure_halves_the_budget_below_every_permitted_rung() {
        // The counters read below move only while this thread traces.
        let _session = sa_trace::scoped();
        // 512 tokens: full 4096 ms, paper_default 1024 ms. A 1500 ms
        // budget buys paper_default; halved, nothing the floor permits.
        let c = floored(DegradationRung::PaperDefault, 0);
        let reqs = [Request::prefill(0, 512, 0, 1_500)];

        let mut p = admitted(&c, &reqs);
        assert!(p.dispatch(0, 0, 1));
        assert_eq!(p.st[0].rung, DegradationRung::PaperDefault);
        let reasons: Vec<&str> = p.log.events.iter().map(|e| e.reason.as_str()).collect();
        assert_eq!(
            reasons,
            [
                "budget 1500 ms, 1 contenders",
                "deadline budget 1500 ms too tight for higher rungs"
            ]
        );

        let forced = metrics::counter("serve.pressure.forced_rungs").get();
        let mut p = admitted(&c, &reqs);
        p.mem_in_use = c.mem_budget_bytes / 1000 * 900;
        assert!(!p.dispatch(0, 0, 1));
        assert!(metrics::counter("serve.pressure.forced_rungs").get() > forced);
        assert_eq!(p.st[0].terminal, Some((Planned::ShedQualityFloor, 0)));
        assert_eq!(p.done, 1);
        assert_eq!(p.releases, [(0, p.st[0].bytes, 0)], "its reservation is released");
        let refusal = "quality floor: no permitted rung fits the 750 ms dispatch budget";
        let ev = p.log.events.last().unwrap();
        assert_eq!((ev.kind, ev.rung.as_str(), ev.reason.as_str()), (EventKind::Shed, "", refusal));
        p.recorder.trigger("probe", 0, 0, String::new());
        let dumps = p.recorder.into_postmortems();
        assert_eq!((dumps[0].trigger.as_str(), dumps[0].reason.as_str()), ("shed", refusal));
        let actions: Vec<&str> = dumps[1].decisions.iter().map(|d| d.action.as_str()).collect();
        assert_eq!(actions, ["admit", "shed_quality_floor"]);
        let last = &dumps[1].decisions[1];
        assert_eq!((last.contenders, last.budget_ms, last.pressure.as_str()), (1, 750, "critical"));
    }

    #[test]
    fn floor_refuses_an_uncertified_rung_past_the_tenant_cap() {
        // A 400 ms budget only buys window_only (327 ms), which the
        // floor permits — up to 100‰ of the tenant's dispatched tokens.
        let c = floored(DegradationRung::WindowOnly, 100);
        let reqs = [Request::prefill(0, 512, 0, 400)];

        let mut p = admitted(&c, &reqs);
        p.dispatched_tokens[0] = 1_000;
        assert!(!p.dispatch(0, 0, 1));
        assert_eq!(p.st[0].terminal, Some((Planned::ShedQualityFloor, 0)));
        assert_eq!(
            p.log.events.last().unwrap().reason,
            "quality floor: uncertified rung would put tenant 0 at 512 of 1512 tokens (cap 100‰)"
        );
        assert_eq!((p.dispatched_tokens[0], p.uncertified_tokens[0]), (1_000, 0));

        // Exactly at the cap it runs, and the tallies move.
        let mut p = admitted(&c, &reqs);
        p.dispatched_tokens[0] = 4_608;
        assert!(p.dispatch(0, 0, 1));
        assert_eq!(p.st[0].rung, DegradationRung::WindowOnly);
        assert_eq!((p.dispatched_tokens[0], p.uncertified_tokens[0]), (5_120, 512));
    }
}
