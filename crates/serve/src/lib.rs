//! # sa-serve
//!
//! Deadline-aware request scheduling for the SampleAttention serving
//! stack: admission control, cooperative cancellation, retry with
//! deterministic backoff, and an adaptive degradation ladder — all on a
//! virtual clock, so every scheduling decision is reproducible and the
//! outcome ledger is bit-identical at every `SA_THREADS` setting.
//!
//! ## Architecture
//!
//! - [`ServeConfig`] ([`config`]) — the tunables, set in code.
//! - [`Request`] / [`mixed_workload`] ([`request`]) — what arrives:
//!   prefills and decodes with deadlines, caller cancellations, and
//!   transient-fault scripts.
//! - [`sim`] — the models the planner decides with: the outcome
//!   vocabulary ([`Planned`]), the scaled ChatGLM2-6B memory
//!   model, the per-rung cost model, the degradation ladder walk, and
//!   seeded retry backoff.
//! - [`Scheduler`] ([`scheduler`]) — three entry points:
//!   [`run_continuous_with_events`](Scheduler::run_continuous_with_events)
//!   and its guarded form
//!   [`run_guarded_with_events`](Scheduler::run_guarded_with_events)
//!   plan on the continuous timeline, then execute the admitted
//!   requests in parallel on the worker pool (chunked prefills and
//!   decode sessions under per-request
//!   [`CancelToken`](sa_tensor::CancelToken)s, with thread-local fault
//!   injection per retry attempt) and return the ledger with the
//!   planner's event log;
//!   [`plan_continuous`](Scheduler::plan_continuous) plans only.
//! - [`Ledger`] ([`ledger`]) — one audit record per request; validated
//!   for totality (no request ever lost) and honesty (no silent drop
//!   below the CRA α target).
//! - [`continuous`] — the planner: continuous batching over open-loop
//!   arrival streams, where prefill chunks of new requests interleave with
//!   decode steps of in-flight sessions at micro-task granularity,
//!   under per-tenant token-bucket fairness quotas. One state struct
//!   whose loop reads ingest → admit → sweep → pick → run-task, with a
//!   single method each for emitting an event, recording a decision,
//!   resolving a request, and ruling on overdue work.
//! - [`quality`] — the quality guardrail plane: a seeded fraction of
//!   served requests re-runs as a **shadow canary** against a dense
//!   reference ([`canary_probe`]), a per-head EWMA/CUSUM drift detector
//!   ([`QualityGuard`]) quarantines heads whose coverage estimates go
//!   optimistic (routing them dense via [`GuardedMethod`] until
//!   probation clears), and per-tenant [`TenantFloor`]s keep the
//!   degradation ladder from dropping a tenant below its contracted
//!   quality — the planner sheds instead, typed.
//! - [`lifecycle`] — the one fold from a planner's event log to each
//!   request's [`Lifecycle`] ([`lifecycles`]): start, finish, TTFT and
//!   TPOT ([`token_latencies`]), and the retry tallies. The ledger's
//!   planner columns, the event-level SLO summary and the serving
//!   timeline all read it; the planner records nothing else.
//! - [`slo`] — SLO accounting: one fold over one row per request, read
//!   from an executed ledger ([`SloSummary::from_ledger`]) or from a
//!   planner's event log ([`SloSummary::from_events`]), into TTFT/TPOT
//!   percentiles, goodput under deadline, and per-tenant
//!   certified-goodput quality columns — the `sa.slo.v2` artifact.
//! - [`memory`] — the byte-accurate [`MemoryLedger`] with pressure
//!   watermarks; its [`PressureLevel`]s drive the continuous planner's
//!   governor ladder (defer → evict → force lower rungs → shed) and the
//!   execution side's checkpoint-restore reservations.
//! - [`events`] — the telemetry plane: the `sa.events.v3` per-request
//!   lifecycle [`EventLog`] the planner emits, the events↔ledger
//!   conservation validator, and the scheduler [`FlightRecorder`] whose
//!   [`Postmortem`]s capture the decisions leading up to a shed, a
//!   Critical-pressure transition, or an attempt-budget exhaustion.
//!
//! ## Failure taxonomy
//!
//! | condition | surfaces as | ledger outcome |
//! |---|---|---|
//! | pending queue full | [`SaError::Overloaded`] | `RejectedOverloaded` |
//! | memory budget never fits, or governor shed | [`SaError::BudgetExceeded`] | `RejectedBudget` |
//! | deadline expires queued | — | `ExpiredInQueue` |
//! | deadline expires mid-run | [`SaError::DeadlineExceeded`] | `DeadlineExceeded` |
//! | caller cancels | [`SaError::Cancelled`] | `Cancelled` |
//! | transient worker fault | [`SaError::WorkerPanic`], retried | `Served` (after retries) |
//! | fault outlasts retries | [`SaError::WorkerPanic`] | `Failed` |
//! | quality floor unmeetable | [`SaError::QualityFloor`] | `ShedQualityFloor` |
//!
//! [`SaError::Overloaded`]: sa_tensor::SaError::Overloaded
//! [`SaError::BudgetExceeded`]: sa_tensor::SaError::BudgetExceeded
//! [`SaError::DeadlineExceeded`]: sa_tensor::SaError::DeadlineExceeded
//! [`SaError::Cancelled`]: sa_tensor::SaError::Cancelled
//! [`SaError::WorkerPanic`]: sa_tensor::SaError::WorkerPanic
//! [`SaError::QualityFloor`]: sa_tensor::SaError::QualityFloor
//!
//! ## Example
//!
//! ```
//! use sa_serve::{mixed_workload, Scheduler, ServeConfig};
//!
//! # fn main() -> Result<(), Box<dyn std::error::Error>> {
//! let scheduler = Scheduler::new(ServeConfig::default())?;
//! let requests = mixed_workload(7, 8);
//! let (ledger, events) = scheduler.run_continuous_with_events(&requests)?;
//! ledger.validate(&requests).map_err(std::io::Error::other)?;
//! assert_eq!(ledger.records.len(), requests.len()); // nothing lost
//! events.validate(&ledger).map_err(std::io::Error::other)?; // one terminal event each
//! # Ok(())
//! # }
//! ```

pub mod config;
pub mod continuous;
pub mod events;
pub mod ledger;
pub mod lifecycle;
pub mod memory;
pub mod quality;
pub mod request;
pub mod scheduler;
pub mod sim;
pub mod slo;

pub use config::{ServeConfig, TenantFloor};
pub use continuous::{plan_continuous, plan_continuous_with_events, ContinuousPlan};
pub use events::{
    Event, EventKind, EventLog, FlightRecorder, PlannerDecision, Postmortem, EVENTS_SCHEMA,
};
pub use ledger::{Ledger, Outcome, RequestRecord, LEDGER_SCHEMA};
pub use lifecycle::{lifecycles, token_latencies, Lifecycle};
pub use memory::{MemoryLedger, PressureLevel};
pub use quality::{
    canary_probe, is_canary, CanaryObservation, GuardedMethod, HeadCanary, QualityGuard,
    QualityTransition,
};
pub use request::{
    fault_storm_workload, mixed_workload, open_loop_workload, Request, RequestKind, FAULT_SITE,
};
pub use scheduler::{Restore, Scheduler};
pub use sim::Planned;
pub use slo::{LatencyStats, SloSummary, TenantQuality, SLO_SCHEMA};
