//! The serving telemetry plane: a structured per-request event log and
//! the scheduler flight recorder.
//!
//! Every lifecycle transition a planner decides — enqueue, admission,
//! governor deferral, dispatch, rung degradation, pressure eviction,
//! checkpoint capture/restore, retry, recovery, shed, cancellation,
//! completion — is recorded as one [`Event`] carrying the virtual-time
//! stamp, tenant, degradation rung, the planner's memory-ledger balance
//! *after* the transition, and a typed reason. The log is emitted by
//! the **serial** continuous planner
//! ([`plan_continuous`](crate::plan_continuous)) through its one
//! [`EventLog::push`] call site, before any parallel
//! model work runs, so its serialized bytes are identical at every
//! `SA_THREADS` setting — the same bit-determinism contract the ledger
//! carries (DESIGN.md §5j).
//!
//! Two audit surfaces hang off the log:
//!
//! - [`EventLog::validate`] is the events↔ledger **conservation
//!   validator**: every request in the [`Ledger`] reaches exactly one
//!   terminal event whose kind, tenant, and finish time agree with its
//!   record, and replaying the `bytes` deltas of admission / eviction /
//!   release events reproduces the `mem_in_use` balance stamped on
//!   every event, returning to the weights baseline at the end (no
//!   leaked reservations).
//! - [`FlightRecorder`] keeps a bounded ring of the planner's last
//!   dispatch/admission decisions (queue depth, free memory, contention
//!   estimate, rung budget) and dumps it into a [`Postmortem`] whenever
//!   a shed, a governor transition to `critical` pressure, or a
//!   crash-storm attempt-budget exhaustion occurs.

use crate::ledger::{Ledger, Outcome, RequestRecord};
use crate::sim::{weight_bytes, Planned};
use crate::Request;
use std::collections::{BTreeMap, VecDeque};

/// Schema tag for a serialized [`EventLog`].
pub const EVENTS_SCHEMA: &str = "sa.events.v3";

/// Decisions kept in the flight-recorder ring before the oldest is
/// dropped.
pub const FLIGHT_RECORDER_CAPACITY: usize = 32;

/// Postmortems retained per planner run; later triggers only count.
const MAX_POSTMORTEMS: usize = 8;

/// One lifecycle transition kind (`sa.events.v3` taxonomy).
///
/// Each terminal kind has exactly one ledger [`Outcome`]
/// ([`EventKind::outcome`]); only
/// [`RejectedBudget`](Outcome::RejectedBudget) has two kinds, so the log
/// tells a request that could never fit the memory budget
/// ([`RejectedNeverFits`](EventKind::RejectedNeverFits)) from the
/// governor's load shed ([`ShedGovernor`](EventKind::ShedGovernor)).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum EventKind {
    /// Entered the pending queue at arrival.
    Enqueued,
    /// Reserved memory and joined the running set (`bytes` carries the
    /// reservation, `mem_in_use` the balance after it).
    Admitted,
    /// Admission of the queue head was deferred by the pressure
    /// governor at Elevated or Critical occupancy (the reason names the
    /// level); lazy admission below Elevated leaves no event.
    Deferred,
    /// The request's first micro-task started on a worker: its stamp is
    /// the ledger's `start_ms`. The degradation rung was fixed by the
    /// dispatch decision and is final; the reason carries that
    /// decision's budget. A request the tenant's token bucket held back
    /// is stamped when its first micro-task does run, and one that
    /// resolves before any ran has no `Dispatched` event.
    Dispatched,
    /// Dispatched below the full-attention rung (deadline budget or
    /// pressure-forced).
    RungDegraded,
    /// A decode-phase session's KV bytes were evicted to make room
    /// (`bytes` carries the freed amount).
    PressureEvicted,
    /// A chunk-boundary prefill checkpoint survived a crash and will
    /// seed the retry.
    CheckpointCaptured,
    /// A retry resumed prefill from a non-empty checkpoint.
    CheckpointRestored,
    /// An attempt crashed and a retry was scheduled (`backoff_ms` and
    /// `recomputed_tokens` carry what the retry costs).
    Retried,
    /// The scheduled retry will resume from checkpointed progress
    /// instead of re-running prefill from scratch.
    Recovered,
    /// First output token produced (TTFT reference point).
    FirstToken,
    /// A terminal request's memory reservation was returned to the
    /// ledger (`bytes` carries the release; emitted when the planner
    /// applies it, which may lag the terminal event).
    Released,
    /// Terminal: the governor's load shed of an urgent head that fits
    /// the budget alone but cannot be placed under critical pressure.
    ShedGovernor,
    /// Terminal: refused at dispatch by the tenant's quality floor.
    ShedQualityFloor,
    /// Terminal: rejected at arrival, the pending queue was full.
    RejectedOverloaded,
    /// Terminal: rejected at admission, could never fit the memory
    /// budget even alone next to the weights.
    RejectedNeverFits,
    /// Terminal: caller cancelled.
    Cancelled,
    /// Terminal: deadline expired while queued; never ran.
    Expired,
    /// Terminal: deadline expired mid-run.
    DeadlineExceeded,
    /// Terminal: transient faults outlasted the attempt budget.
    Failed,
    /// Terminal: served.
    Completed,
}

sa_json::impl_json_enum!(EventKind {
    Enqueued,
    Admitted,
    Deferred,
    Dispatched,
    RungDegraded,
    PressureEvicted,
    CheckpointCaptured,
    CheckpointRestored,
    Retried,
    Recovered,
    FirstToken,
    Released,
    ShedGovernor,
    ShedQualityFloor,
    RejectedOverloaded,
    RejectedNeverFits,
    Cancelled,
    Expired,
    DeadlineExceeded,
    Failed,
    Completed
});

impl EventKind {
    /// The terminal kinds, in the order [`EventLog::reconcile`] maps an
    /// outcome back to a kind.
    const TERMINALS: [EventKind; 9] = [
        EventKind::Completed,
        EventKind::Failed,
        EventKind::Cancelled,
        EventKind::Expired,
        EventKind::DeadlineExceeded,
        EventKind::RejectedOverloaded,
        EventKind::RejectedNeverFits,
        EventKind::ShedGovernor,
        EventKind::ShedQualityFloor,
    ];

    /// The ledger outcome this kind ends a request with, or `None` for a
    /// kind that does not end a lifecycle. Every request reaches exactly
    /// one terminal event.
    pub fn outcome(self) -> Option<Outcome> {
        match self {
            EventKind::Completed => Some(Outcome::Served),
            EventKind::Failed => Some(Outcome::Failed),
            EventKind::Cancelled => Some(Outcome::Cancelled),
            EventKind::Expired => Some(Outcome::ExpiredInQueue),
            EventKind::DeadlineExceeded => Some(Outcome::DeadlineExceeded),
            EventKind::RejectedOverloaded => Some(Outcome::RejectedOverloaded),
            EventKind::RejectedNeverFits | EventKind::ShedGovernor => {
                Some(Outcome::RejectedBudget)
            }
            EventKind::ShedQualityFloor => Some(Outcome::ShedQualityFloor),
            EventKind::Enqueued
            | EventKind::Admitted
            | EventKind::Deferred
            | EventKind::Dispatched
            | EventKind::RungDegraded
            | EventKind::PressureEvicted
            | EventKind::CheckpointCaptured
            | EventKind::CheckpointRestored
            | EventKind::Retried
            | EventKind::Recovered
            | EventKind::FirstToken
            | EventKind::Released => None,
        }
    }

    /// The terminal event kind a planned resolution maps to. A budget
    /// rejection is [`RejectedNeverFits`](EventKind::RejectedNeverFits)
    /// here; the governor's load shed, which plans the same resolution,
    /// picks [`ShedGovernor`](EventKind::ShedGovernor) at its emission
    /// site.
    pub fn terminal_for(planned: &Planned) -> EventKind {
        match planned {
            Planned::Serve { .. } => EventKind::Completed,
            Planned::FailPermanent { .. } => EventKind::Failed,
            Planned::CancelCaller => EventKind::Cancelled,
            Planned::CancelDeadline => EventKind::DeadlineExceeded,
            Planned::ExpireInQueue => EventKind::Expired,
            Planned::RejectOverloaded { .. } => EventKind::RejectedOverloaded,
            Planned::RejectBudget { .. } => EventKind::RejectedNeverFits,
            Planned::ShedQualityFloor => EventKind::ShedQualityFloor,
        }
    }
}

/// One lifecycle transition of one request.
#[derive(Debug, Clone, PartialEq)]
pub struct Event {
    /// Virtual-time stamp of the transition, ms.
    pub t_ms: u64,
    /// Request id.
    pub request_id: u64,
    /// Tenant the request bills against.
    pub tenant: u64,
    /// Transition kind.
    pub kind: EventKind,
    /// Degradation rung in force (`""` before dispatch / when none).
    pub rung: String,
    /// Memory delta magnitude for admission / eviction / release
    /// events; 0 for every other kind.
    pub bytes: u64,
    /// Planner memory-ledger balance *after* this transition.
    pub mem_in_use: u64,
    /// Backoff before the retry a `Retried` event schedules; 0 for every
    /// other kind.
    pub backoff_ms: u64,
    /// Prefill tokens that retry recomputes (the in-flight chunk with
    /// recovery on, the crashed attempt's progress with it off); 0 for
    /// every other kind.
    pub recomputed_tokens: u64,
    /// Typed human-readable reason.
    pub reason: String,
}

sa_json::impl_json_struct!(Event {
    t_ms,
    request_id,
    tenant,
    kind,
    rung,
    bytes,
    mem_in_use,
    backoff_ms,
    recomputed_tokens,
    reason
});

/// One planner decision captured by the [`FlightRecorder`].
#[derive(Debug, Clone, PartialEq)]
pub struct PlannerDecision {
    /// Virtual time of the decision, ms.
    pub t_ms: u64,
    /// Request the decision concerned.
    pub request_id: u64,
    /// Decision kind: `admit` / `dispatch` / `defer` / `evict` / `shed`.
    pub action: String,
    /// Pending-queue depth at decision time.
    pub queue_depth: u64,
    /// Requests in flight at decision time.
    pub inflight: u64,
    /// Free memory under the budget, bytes.
    pub free_bytes: u64,
    /// Contention estimate the rung budget divided by (in-flight plus
    /// pending requests; 0 when not a dispatch decision).
    pub contenders: u64,
    /// Per-request rung budget, ms (0 when not a dispatch decision).
    pub budget_ms: u64,
    /// Rung chosen (`""` when not a dispatch decision).
    pub rung: String,
    /// Governor pressure level at decision time.
    pub pressure: String,
}

sa_json::impl_json_struct!(PlannerDecision {
    t_ms,
    request_id,
    action,
    queue_depth,
    inflight,
    free_bytes,
    contenders,
    budget_ms,
    rung,
    pressure
});

/// A dumped flight-recorder ring: the planner's recent decisions
/// leading up to a trigger.
#[derive(Debug, Clone, PartialEq)]
pub struct Postmortem {
    /// What tripped the dump: `shed` / `critical_transition` /
    /// `storm_budget_exhausted`.
    pub trigger: String,
    /// Virtual time of the trigger, ms.
    pub t_ms: u64,
    /// Request at the center of the trigger.
    pub request_id: u64,
    /// Trigger detail.
    pub reason: String,
    /// Ring contents at trigger time, oldest first.
    pub decisions: Vec<PlannerDecision>,
}

sa_json::impl_json_struct!(Postmortem {
    trigger,
    t_ms,
    request_id,
    reason,
    decisions
});

/// Bounded ring buffer of planner decisions, dumped on anomalies.
#[derive(Debug)]
pub struct FlightRecorder {
    cap: usize,
    ring: VecDeque<PlannerDecision>,
    postmortems: Vec<Postmortem>,
    /// Triggers seen, including those past the retention cap.
    triggers: u64,
}

impl FlightRecorder {
    /// A recorder retaining the last `cap` decisions (clamped ≥ 1).
    pub fn new(cap: usize) -> Self {
        FlightRecorder {
            cap: cap.max(1),
            ring: VecDeque::new(),
            postmortems: Vec::new(),
            triggers: 0,
        }
    }

    /// Records one decision, dropping the oldest past capacity.
    pub fn record(&mut self, decision: PlannerDecision) {
        if self.ring.len() == self.cap {
            self.ring.pop_front();
        }
        self.ring.push_back(decision);
    }

    /// Dumps the ring into a postmortem. Only the first
    /// `MAX_POSTMORTEMS` dumps are retained; later triggers are
    /// counted but dropped to bound the artifact.
    pub fn trigger(&mut self, trigger: &str, t_ms: u64, request_id: u64, reason: String) {
        self.triggers += 1;
        if self.postmortems.len() < MAX_POSTMORTEMS {
            self.postmortems.push(Postmortem {
                trigger: trigger.to_string(),
                t_ms,
                request_id,
                reason,
                decisions: self.ring.iter().cloned().collect(),
            });
        }
    }

    /// Total triggers seen (may exceed retained postmortems).
    pub fn triggers(&self) -> u64 {
        self.triggers
    }

    /// Consumes the recorder, yielding the retained postmortems.
    pub fn into_postmortems(self) -> Vec<Postmortem> {
        self.postmortems
    }
}

/// The per-request serving event log (`sa.events.v3`).
#[derive(Debug, Clone, PartialEq)]
pub struct EventLog {
    /// Schema tag ([`EVENTS_SCHEMA`]).
    pub schema: String,
    /// Workload / scheduler seed.
    pub seed: u64,
    /// Events in planner emission order (the order memory-ledger
    /// mutations actually happened; per-request time stamps are
    /// monotone but the global interleaving is not time-sorted).
    pub events: Vec<Event>,
    /// Flight-recorder dumps captured during planning.
    pub postmortems: Vec<Postmortem>,
}

sa_json::impl_json_struct!(EventLog {
    schema,
    seed,
    events,
    postmortems
});

impl EventLog {
    /// An empty log for the given seed.
    pub fn new(seed: u64) -> Self {
        EventLog {
            schema: EVENTS_SCHEMA.to_string(),
            seed,
            events: Vec::new(),
            postmortems: Vec::new(),
        }
    }

    /// Appends one event of `req`'s lifecycle and returns it, so the
    /// caller can fill the typed payload of a
    /// [`Retried`](EventKind::Retried) event.
    #[allow(clippy::too_many_arguments)]
    pub fn push(
        &mut self,
        t_ms: u64,
        req: &Request,
        kind: EventKind,
        rung: &str,
        bytes: u64,
        mem_in_use: u64,
        reason: String,
    ) -> &mut Event {
        self.events.push(Event {
            t_ms,
            request_id: req.id,
            tenant: req.tenant,
            kind,
            rung: rung.to_string(),
            bytes,
            mem_in_use,
            backoff_ms: 0,
            recomputed_tokens: 0,
            reason,
        });
        let last = self.events.len() - 1;
        &mut self.events[last]
    }

    /// The terminal event of each request, keyed by id.
    pub fn terminals(&self) -> BTreeMap<u64, &Event> {
        let mut out = BTreeMap::new();
        for ev in &self.events {
            if ev.kind.outcome().is_some() {
                out.insert(ev.request_id, ev);
            }
        }
        out
    }

    /// Reconciles planner-emitted terminal events with the executed
    /// ledger records. Execution can diverge from the plan in exactly
    /// one deterministic way: a crash storm installed around the run
    /// (the chaos `serve_crash` plan) exhausts the storm retry budget and a
    /// planned `Serve` resolves as [`Outcome::Failed`]. The terminal
    /// event's kind is flipped to match the outcome and the divergence
    /// is noted in the reason, so [`EventLog::validate`] stays strict.
    pub fn reconcile(&mut self, records: &[RequestRecord]) {
        let by_id: BTreeMap<u64, &RequestRecord> = records.iter().map(|r| (r.id, r)).collect();
        for ev in &mut self.events {
            let Some(outcome) = ev.kind.outcome() else {
                continue;
            };
            let Some(rec) = by_id.get(&ev.request_id) else {
                continue;
            };
            if outcome == rec.outcome {
                continue;
            }
            let Some(&kind) = EventKind::TERMINALS
                .iter()
                .find(|k| k.outcome() == Some(rec.outcome))
            else {
                continue;
            };
            let planned = std::mem::replace(&mut ev.kind, kind);
            ev.reason = format!(
                "execution diverged from planned {planned:?}: {}",
                if rec.error.is_empty() { "unexplained" } else { &rec.error }
            );
        }
    }

    /// Memory-conservation half of the validator: replays the `bytes`
    /// deltas of admission / eviction / release events from the weights
    /// baseline and checks every stamped `mem_in_use` balance, terminal
    /// uniqueness, that only a `Retried` event carries a retry payload,
    /// and that the balance returns to the baseline (every reservation
    /// released exactly once). Usable on plan-only logs.
    ///
    /// # Errors
    ///
    /// The first violated invariant, human-readable.
    pub fn check_conservation(&self) -> Result<(), String> {
        let baseline = weight_bytes();
        let mut bal = baseline;
        let mut terminal_seen: BTreeMap<u64, usize> = BTreeMap::new();
        for (i, ev) in self.events.iter().enumerate() {
            match ev.kind {
                EventKind::Admitted => bal = bal.saturating_add(ev.bytes),
                EventKind::PressureEvicted | EventKind::Released => {
                    if ev.bytes > bal {
                        return Err(format!(
                            "event {i}: request {} releases {} bytes with only {bal} in use",
                            ev.request_id, ev.bytes
                        ));
                    }
                    bal -= ev.bytes;
                }
                _ => {
                    if ev.bytes != 0 {
                        return Err(format!(
                            "event {i}: request {} kind {:?} carries a {}-byte delta",
                            ev.request_id, ev.kind, ev.bytes
                        ));
                    }
                }
            }
            if ev.kind != EventKind::Retried && (ev.backoff_ms != 0 || ev.recomputed_tokens != 0) {
                return Err(format!(
                    "event {i}: request {} kind {:?} carries a retry payload",
                    ev.request_id, ev.kind
                ));
            }
            if ev.mem_in_use != bal {
                return Err(format!(
                    "event {i}: request {} stamped balance {} but replay says {bal}",
                    ev.request_id, ev.mem_in_use
                ));
            }
            if ev.kind.outcome().is_some() {
                if let Some(prev) = terminal_seen.insert(ev.request_id, i) {
                    return Err(format!(
                        "request {}: two terminal events (indices {prev} and {i})",
                        ev.request_id
                    ));
                }
            } else if ev.kind != EventKind::Released {
                if let Some(prev) = terminal_seen.get(&ev.request_id) {
                    return Err(format!(
                        "request {}: lifecycle event {i} ({:?}) after terminal event {prev}",
                        ev.request_id, ev.kind
                    ));
                }
            }
        }
        if bal != baseline {
            return Err(format!(
                "memory not conserved: final balance {bal} != weights baseline {baseline}"
            ));
        }
        Ok(())
    }

    /// The events↔ledger conservation validator. On top of
    /// [`check_conservation`](Self::check_conservation), checks that
    /// every ledger record has exactly one terminal event agreeing on
    /// kind, tenant, and finish time, and that no terminal event lacks
    /// a record.
    ///
    /// # Errors
    ///
    /// The first violated invariant, human-readable.
    pub fn validate(&self, ledger: &Ledger) -> Result<(), String> {
        self.check_conservation()?;
        let terminals = self.terminals();
        for rec in &ledger.records {
            let ev = terminals.get(&rec.id).ok_or_else(|| {
                format!("request {}: ledger record without a terminal event", rec.id)
            })?;
            if ev.kind.outcome() != Some(rec.outcome) {
                return Err(format!(
                    "request {}: terminal event {:?} disagrees with outcome {:?}",
                    rec.id, ev.kind, rec.outcome
                ));
            }
            if ev.tenant != rec.tenant {
                return Err(format!(
                    "request {}: event tenant {} != ledger tenant {}",
                    rec.id, ev.tenant, rec.tenant
                ));
            }
            if ev.t_ms != rec.finish_ms {
                return Err(format!(
                    "request {}: terminal event at {} but ledger finish at {}",
                    rec.id, ev.t_ms, rec.finish_ms
                ));
            }
        }
        if terminals.len() != ledger.records.len() {
            return Err(format!(
                "{} terminal events for {} ledger records",
                terminals.len(),
                ledger.records.len()
            ));
        }
        Ok(())
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use sa_json::{FromJson, ToJson};

    fn event(id: u64, kind: EventKind, bytes: u64, mem_in_use: u64) -> Event {
        Event {
            t_ms: 10,
            request_id: id,
            tenant: 0,
            kind,
            rung: String::new(),
            bytes,
            mem_in_use,
            backoff_ms: 0,
            recomputed_tokens: 0,
            reason: String::new(),
        }
    }

    #[test]
    fn event_log_round_trips_through_json() {
        let mut log = EventLog::new(7);
        let mut req = Request::prefill(1, 64, 0, 100);
        req.tenant = 2;
        log.push(0, &req, EventKind::Enqueued, "", 0, weight_bytes(), "edf".to_string());
        let reason = "attempt 1 crashed".to_string();
        let retried = log.push(3, &req, EventKind::Retried, "full", 0, weight_bytes(), reason);
        (retried.backoff_ms, retried.recomputed_tokens) = (8, 32);
        log.push(5, &req, EventKind::Completed, "full", 0, weight_bytes(), String::new());
        log.postmortems.push(Postmortem {
            trigger: "shed".to_string(),
            t_ms: 5,
            request_id: 1,
            reason: "unplaceable".to_string(),
            decisions: vec![PlannerDecision {
                t_ms: 4,
                request_id: 1,
                action: "dispatch".to_string(),
                queue_depth: 3,
                inflight: 2,
                free_bytes: 1024,
                contenders: 5,
                budget_ms: 200,
                rung: "full".to_string(),
                pressure: "critical".to_string(),
            }],
        });
        let s = sa_json::to_string(&log.to_json());
        let back = EventLog::from_json(&sa_json::from_str::<sa_json::Json>(&s).unwrap()).unwrap();
        assert_eq!(back, log);
    }

    #[test]
    fn conservation_rejects_leaked_and_double_counted_memory() {
        let base = weight_bytes();
        let mut leak = EventLog::new(0);
        leak.events.push(event(0, EventKind::Admitted, 100, base + 100));
        assert!(leak.check_conservation().unwrap_err().contains("not conserved"));

        let mut balanced = EventLog::new(0);
        balanced.events.push(event(0, EventKind::Admitted, 100, base + 100));
        balanced.events.push(event(0, EventKind::Completed, 0, base + 100));
        balanced.events.push(event(0, EventKind::Released, 100, base));
        assert!(balanced.check_conservation().is_ok());

        let mut wrong_stamp = balanced.clone();
        wrong_stamp.events[1].mem_in_use = base;
        assert!(wrong_stamp
            .check_conservation()
            .unwrap_err()
            .contains("replay says"));

        let mut double_terminal = balanced.clone();
        double_terminal.events.push(event(0, EventKind::Failed, 0, base));
        assert!(double_terminal
            .check_conservation()
            .unwrap_err()
            .contains("two terminal"));

        let mut after_terminal = balanced.clone();
        after_terminal.events.push(event(0, EventKind::Dispatched, 0, base));
        assert!(after_terminal
            .check_conservation()
            .unwrap_err()
            .contains("after terminal"));

        // Only a `Retried` event carries a retry payload.
        let mut retried = balanced.clone();
        let mut crash = event(0, EventKind::Retried, 0, base + 100);
        (crash.backoff_ms, crash.recomputed_tokens) = (8, 32);
        retried.events.insert(1, crash);
        assert!(retried.check_conservation().is_ok());
        retried.events[2].recomputed_tokens = 32;
        assert!(retried.check_conservation().unwrap_err().contains("retry payload"));
    }

    #[test]
    fn reconcile_maps_an_executed_outcome_back_to_its_terminal_kind() {
        // A planned completion that execution failed flips to `Failed`;
        // a terminal that agrees with its record is left alone.
        let mut log = EventLog::new(0);
        log.events.push(event(0, EventKind::Completed, 0, 0));
        log.events.push(event(1, EventKind::ShedGovernor, 0, 0));
        let records: Vec<RequestRecord> = [(0, Outcome::Failed), (1, Outcome::RejectedBudget)]
            .into_iter()
            .map(|(id, outcome)| RequestRecord {
                outcome,
                ..crate::ledger::tests::record(id)
            })
            .collect();
        log.reconcile(&records);
        assert_eq!(log.events[0].kind, EventKind::Failed);
        assert!(log.events[0].reason.contains("Completed"));
        assert_eq!(log.events[1].kind, EventKind::ShedGovernor);
        assert!(log.events[1].reason.is_empty());
        assert!(EventKind::TERMINALS.iter().all(|k| k.outcome().is_some()));
    }

    #[test]
    fn flight_recorder_ring_is_bounded_and_dumps_on_trigger() {
        let mut rec = FlightRecorder::new(4);
        for i in 0..10u64 {
            rec.record(PlannerDecision {
                t_ms: i,
                request_id: i,
                action: "dispatch".to_string(),
                queue_depth: 0,
                inflight: 0,
                free_bytes: 0,
                contenders: 0,
                budget_ms: 0,
                rung: String::new(),
                pressure: "normal".to_string(),
            });
        }
        rec.trigger("shed", 10, 9, "test".to_string());
        let pm = rec.into_postmortems();
        assert_eq!(pm.len(), 1);
        assert_eq!(pm[0].decisions.len(), 4);
        assert_eq!(pm[0].decisions[0].t_ms, 6, "ring keeps the newest 4");
        assert_eq!(pm[0].decisions[3].t_ms, 9);
    }
}
