//! The outcome ledger: one auditable record per request.
//!
//! The ledger is the scheduler's accountability artifact. Its
//! guarantees, asserted by [`Ledger::validate`] and the chaos soak:
//!
//! - **total**: every submitted request appears exactly once — none is
//!   ever lost, whatever mix of overload, faults, cancellations, and
//!   deadline expiries the batch hits;
//! - **deterministic**: records carry only virtual-clock times and
//!   bit-deterministic measurements, so the serialized ledger is
//!   byte-identical at every `SA_THREADS` setting;
//! - **honest about degradation**: a request served below the
//!   [`Full`](sa_core::DegradationRung::Full) rung carries its
//!   [`DegradationReport`], and the window-only rung can never report
//!   `alpha_satisfied = true` (the ladder's core invariant).

use crate::lifecycle::token_latencies;
use crate::request::RequestKind;
use crate::Request;
use sa_core::DegradationReport;

/// Terminal state of one request.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Outcome {
    /// Ran to completion (possibly after retries, possibly degraded).
    Served,
    /// Rejected at arrival: all slots and queue positions taken.
    RejectedOverloaded,
    /// Rejected at start: projected memory exceeded the memory budget
    /// ([`mem_budget_bytes`](crate::ServeConfig::mem_budget_bytes)).
    RejectedBudget,
    /// Deadline expired while waiting for a slot; never ran.
    ExpiredInQueue,
    /// Deadline expired mid-run; cooperatively cancelled within one chunk.
    DeadlineExceeded,
    /// Caller cancelled mid-run; cooperatively cancelled within one chunk.
    Cancelled,
    /// Transient faults outlasted the retry budget.
    Failed,
    /// Shed at start: the deadline demanded a rung below the tenant's
    /// quality floor, and the floor won; never ran.
    ShedQualityFloor,
}

sa_json::impl_json_enum!(Outcome {
    Served,
    RejectedOverloaded,
    RejectedBudget,
    ExpiredInQueue,
    DeadlineExceeded,
    Cancelled,
    Failed,
    ShedQualityFloor
});

/// One request's full audit record.
#[derive(Debug, Clone, PartialEq)]
pub struct RequestRecord {
    /// Request id (ledger is sorted by it).
    pub id: u64,
    /// Prefill or decode.
    pub kind: RequestKind,
    /// Prompt length in synthetic tokens.
    pub seq_len: u64,
    /// Virtual arrival time.
    pub arrival_ms: u64,
    /// Virtual execution start (== finish when never started).
    pub start_ms: u64,
    /// Virtual completion / rejection / cancellation time.
    pub finish_ms: u64,
    /// Virtual time spent waiting for a slot.
    pub queue_wait_ms: u64,
    /// Tenant the request billed against (the continuous planner
    /// charges its token-bucket quotas per tenant).
    pub tenant: u64,
    /// Decode steps requested after prefill (0 for pure prefill).
    pub new_tokens: u64,
    /// Virtual time from arrival to the first output token (TTFT).
    /// Zero when no token was produced (rejections, queue expiries,
    /// cancellations before the first token).
    pub ttft_ms: u64,
    /// Terminal state.
    pub outcome: Outcome,
    /// Final degradation rung (`""` when no model work ran).
    pub rung: String,
    /// Whether the final rung measured/certified the CRA α target.
    /// `false` by construction for the window-only rung and for every
    /// non-served outcome.
    pub alpha_satisfied: bool,
    /// Whether the request ran below the full-attention rung.
    pub degraded: bool,
    /// Retries performed.
    pub retries: u64,
    /// Total virtual backoff between attempts.
    pub backoff_ms: u64,
    /// Retries that resumed from a non-empty chunk-boundary checkpoint
    /// instead of re-running prefill from scratch (with
    /// [`recovery_enabled`](crate::ServeConfig::recovery_enabled)).
    pub recovered_attempts: u64,
    /// Prefill tokens recomputed because of crashes: at most one chunk
    /// per recovered attempt, or everything a crashed attempt had
    /// completed when retrying from scratch.
    pub recomputed_tokens: u64,
    /// Chunk-boundary checkpoints execution captured: one per crashed
    /// attempt under [`recovery_enabled`](crate::ServeConfig::recovery_enabled),
    /// planned or injected by a crash storm.
    pub checkpoint_snapshots: u64,
    /// Checkpoints a later attempt restored and resumed from.
    pub checkpoint_restores: u64,
    /// Restores whose staged KV failed its checksum
    /// ([`CorruptCheckpoint`](sa_tensor::SaError::CorruptCheckpoint)):
    /// contained, the attempt started from scratch.
    pub checkpoint_corruptions: u64,
    /// Restores whose KV staging reservation failed (an injected
    /// allocation fault or an exhausted budget): contained, the attempt
    /// started from scratch.
    pub alloc_faults: u64,
    /// Chunk progress reported by a cooperative cancellation (0/0 when
    /// not cancelled).
    pub chunks_completed: u64,
    /// Chunk total reported by a cooperative cancellation.
    pub chunks_total: u64,
    /// Display of the final error (`""` when served).
    pub error: String,
    /// Whether this request was a shadow canary (ran an additional
    /// dense reference prefill for ground-truth quality measurement).
    pub canary: bool,
    /// The canary's worst-head *true* CRA against the exact softmax
    /// rows (0 when not a canary).
    pub canary_true_cra: f64,
    /// The canary's max-abs final-residual error, sparse vs dense
    /// (0 when not a canary).
    pub canary_max_abs_err: f64,
    /// The canary's worst gap between stage 2's coverage estimate and
    /// the mask's exact aggregate coverage, in permille (0 when not a
    /// canary).
    pub canary_gap_permille: i64,
    /// Heads quarantined to dense fallback while this request ran.
    pub quarantined_heads: u64,
    /// The rung-by-rung degradation audit trail.
    pub report: DegradationReport,
}

sa_json::impl_json_struct!(RequestRecord {
    id,
    kind,
    seq_len,
    arrival_ms,
    start_ms,
    finish_ms,
    queue_wait_ms,
    tenant,
    new_tokens,
    ttft_ms,
    outcome,
    rung,
    alpha_satisfied,
    degraded,
    retries,
    backoff_ms,
    recovered_attempts,
    recomputed_tokens,
    checkpoint_snapshots,
    checkpoint_restores,
    checkpoint_corruptions,
    alloc_faults,
    chunks_completed,
    chunks_total,
    error,
    canary,
    canary_true_cra,
    canary_max_abs_err,
    canary_gap_permille,
    quarantined_heads,
    report
});

impl RequestRecord {
    /// Time per output token ([`token_latencies`]'s rule), for a
    /// served multi-token request that recorded its first token.
    pub fn tpot_ms(&self) -> Option<u64> {
        let first_token = (self.ttft_ms > 0).then(|| self.arrival_ms + self.ttft_ms);
        let served = self.outcome == Outcome::Served;
        token_latencies(self.arrival_ms, first_token, self.finish_ms, served, self.new_tokens).1
    }
}

/// The batch outcome ledger.
#[derive(Debug, Clone, PartialEq)]
pub struct Ledger {
    /// Schema tag for the results file.
    pub schema: String,
    /// Workload / scheduler seed.
    pub seed: u64,
    /// Records sorted by request id, one per submitted request.
    pub records: Vec<RequestRecord>,
}

sa_json::impl_json_struct!(Ledger {
    schema,
    seed,
    records
});

/// Schema tag written by every [`Scheduler`](crate::Scheduler) run; a
/// record of an older schema does not parse.
pub const LEDGER_SCHEMA: &str = "sa.serve.ledger.v5";

impl Ledger {
    /// Counts records with the given outcome.
    pub fn count(&self, outcome: Outcome) -> usize {
        self.records.iter().filter(|r| r.outcome == outcome).count()
    }

    /// Checks the ledger's accountability invariants against the batch
    /// it came from. Returns the first violation as a message.
    ///
    /// # Errors
    ///
    /// A human-readable description of the violated invariant.
    pub fn validate(&self, requests: &[Request]) -> Result<(), String> {
        if self.records.len() != requests.len() {
            return Err(format!(
                "ledger has {} records for {} requests — requests were lost or duplicated",
                self.records.len(),
                requests.len()
            ));
        }
        let mut expected: Vec<u64> = requests.iter().map(|r| r.id).collect();
        expected.sort_unstable();
        let got: Vec<u64> = self.records.iter().map(|r| r.id).collect();
        if got != expected {
            return Err(format!(
                "ledger ids {got:?} do not match submitted ids {expected:?}"
            ));
        }
        for rec in &self.records {
            let ran_model = !matches!(
                rec.outcome,
                Outcome::RejectedOverloaded
                    | Outcome::RejectedBudget
                    | Outcome::ExpiredInQueue
                    | Outcome::ShedQualityFloor
            );
            if ran_model == rec.rung.is_empty() {
                return Err(format!(
                    "request {}: outcome {:?} inconsistent with rung {:?}",
                    rec.id, rec.outcome, rec.rung
                ));
            }
            if rec.rung == "window_only" && rec.alpha_satisfied {
                return Err(format!(
                    "request {}: window-only rung can never certify alpha",
                    rec.id
                ));
            }
            if rec.alpha_satisfied && rec.outcome != Outcome::Served {
                return Err(format!(
                    "request {}: alpha_satisfied on non-served outcome {:?}",
                    rec.id, rec.outcome
                ));
            }
            if rec.outcome == Outcome::Served && !rec.error.is_empty() {
                return Err(format!(
                    "request {}: served but carries error {:?}",
                    rec.id, rec.error
                ));
            }
            if rec.outcome != Outcome::Served && ran_model && rec.error.is_empty() {
                return Err(format!(
                    "request {}: outcome {:?} without an error message",
                    rec.id, rec.outcome
                ));
            }
            if rec.degraded != rec.report.degraded() {
                return Err(format!(
                    "request {}: degraded flag disagrees with report",
                    rec.id
                ));
            }
            if let Some(last) = rec.report.attempts.last() {
                if ran_model && last.alpha_satisfied != rec.alpha_satisfied {
                    return Err(format!(
                        "request {}: alpha flag disagrees with report tail",
                        rec.id
                    ));
                }
            }
            if rec.recovered_attempts > rec.retries {
                return Err(format!(
                    "request {}: {} recovered attempts exceed {} retries",
                    rec.id, rec.recovered_attempts, rec.retries
                ));
            }
            if rec.recovered_attempts > 0 && rec.recomputed_tokens == 0 {
                return Err(format!(
                    "request {}: a checkpoint resume always recomputes its in-flight chunk",
                    rec.id
                ));
            }
            if rec.outcome == Outcome::ShedQualityFloor && rec.error.is_empty() {
                return Err(format!(
                    "request {}: a quality-floor shed must carry its refusal error",
                    rec.id
                ));
            }
            if rec.canary && !ran_model {
                return Err(format!(
                    "request {}: canary measurement without model work",
                    rec.id
                ));
            }
            if !rec.canary
                && (rec.canary_true_cra != 0.0
                    || rec.canary_max_abs_err != 0.0
                    || rec.canary_gap_permille != 0)
            {
                return Err(format!(
                    "request {}: canary fields set on a non-canary record",
                    rec.id
                ));
            }
            if rec.finish_ms < rec.start_ms || rec.start_ms < rec.arrival_ms {
                return Err(format!("request {}: time went backwards", rec.id));
            }
            if rec.ttft_ms > 0 {
                let first_token = rec.arrival_ms + rec.ttft_ms;
                if first_token < rec.start_ms || first_token > rec.finish_ms {
                    return Err(format!(
                        "request {}: first token at {first_token} outside [{}, {}]",
                        rec.id, rec.start_ms, rec.finish_ms
                    ));
                }
                if !ran_model {
                    return Err(format!(
                        "request {}: TTFT recorded without model work",
                        rec.id
                    ));
                }
            }
        }
        Ok(())
    }
}

#[cfg(test)]
pub(crate) mod tests {
    use super::*;
    use sa_json::{FromJson, ToJson};

    /// A served, fault-free, full-rung record of request `id`.
    pub(crate) fn record(id: u64) -> RequestRecord {
        RequestRecord {
            id,
            kind: RequestKind::Prefill,
            seq_len: 64,
            arrival_ms: 0,
            start_ms: 0,
            finish_ms: 64,
            queue_wait_ms: 0,
            tenant: 0,
            new_tokens: 0,
            ttft_ms: 64,
            outcome: Outcome::Served,
            rung: "full".to_string(),
            alpha_satisfied: true,
            degraded: false,
            retries: 0,
            backoff_ms: 0,
            recovered_attempts: 0,
            recomputed_tokens: 0,
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
            report: {
                let mut r = DegradationReport::new(0.95);
                r.record(sa_core::DegradationRung::Full, true, "served");
                r
            },
        }
    }

    #[test]
    fn ledger_round_trips_through_json() {
        let ledger = Ledger {
            schema: LEDGER_SCHEMA.to_string(),
            seed: 7,
            records: vec![record(0), record(1)],
        };
        let s = sa_json::to_string(&ledger.to_json());
        let back = Ledger::from_json(&sa_json::from_str::<sa_json::Json>(&s).unwrap()).unwrap();
        assert_eq!(back, ledger);

        // Only v5 parses: a record without the execution columns (an
        // older schema) is refused, not filled with defaults.
        let mut json = record(0).to_json();
        if let sa_json::Json::Object(fields) = &mut json {
            fields.retain(|(key, _)| key != "checkpoint_snapshots");
        }
        let err = RequestRecord::from_json(&json).unwrap_err();
        assert!(err.to_string().contains("checkpoint_snapshots"), "{err}");
    }

    #[test]
    fn validate_catches_lost_and_inconsistent_records() {
        let reqs = vec![
            crate::Request::prefill(0, 64, 0, 100),
            crate::Request::prefill(1, 64, 0, 100),
        ];
        let good = Ledger {
            schema: LEDGER_SCHEMA.to_string(),
            seed: 0,
            records: vec![record(0), record(1)],
        };
        assert!(good.validate(&reqs).is_ok());

        let mut lost = good.clone();
        lost.records.pop();
        assert!(lost.validate(&reqs).unwrap_err().contains("lost"));

        let mut bad_alpha = good.clone();
        bad_alpha.records[0].rung = "window_only".to_string();
        assert!(bad_alpha
            .validate(&reqs)
            .unwrap_err()
            .contains("never certify"));

        let mut bad_err = good.clone();
        bad_err.records[1].error = "boom".to_string();
        assert!(bad_err.validate(&reqs).unwrap_err().contains("carries error"));

        let mut bad_recovery = good.clone();
        bad_recovery.records[0].recovered_attempts = 1;
        assert!(bad_recovery
            .validate(&reqs)
            .unwrap_err()
            .contains("recovered attempts exceed"));

        let mut bad_recompute = good.clone();
        bad_recompute.records[0].retries = 2;
        bad_recompute.records[0].recovered_attempts = 2;
        bad_recompute.records[0].recomputed_tokens = 0;
        assert!(bad_recompute
            .validate(&reqs)
            .unwrap_err()
            .contains("in-flight chunk"));

        let mut bad_ttft = good.clone();
        bad_ttft.records[0].ttft_ms = 10_000;
        assert!(bad_ttft
            .validate(&reqs)
            .unwrap_err()
            .contains("first token"));

        let mut bad_canary = good.clone();
        bad_canary.records[0].canary_gap_permille = 5;
        assert!(bad_canary
            .validate(&reqs)
            .unwrap_err()
            .contains("non-canary"));

        let mut shed = good.clone();
        shed.records[0].outcome = Outcome::ShedQualityFloor;
        shed.records[0].rung = String::new();
        shed.records[0].ttft_ms = 0;
        shed.records[0].alpha_satisfied = false;
        shed.records[0].report = DegradationReport::new(0.95);
        assert!(shed
            .validate(&reqs)
            .unwrap_err()
            .contains("quality-floor shed"));
    }

    #[test]
    fn canary_fields_round_trip_and_sheds_validate() {
        let mut rec = record(0);
        rec.canary = true;
        rec.canary_true_cra = 0.97;
        rec.canary_max_abs_err = 1.5e-4;
        rec.canary_gap_permille = -3;
        rec.quarantined_heads = 2;
        let reqs = vec![crate::Request::prefill(0, 64, 0, 100)];
        let ledger = Ledger {
            schema: LEDGER_SCHEMA.to_string(),
            seed: 0,
            records: vec![rec],
        };
        ledger.validate(&reqs).unwrap();
        let s = sa_json::to_string(&ledger.to_json());
        let back = Ledger::from_json(&sa_json::from_str::<sa_json::Json>(&s).unwrap()).unwrap();
        assert_eq!(back, ledger);

        // A well-formed floor shed validates.
        let mut shed = record(1);
        shed.outcome = Outcome::ShedQualityFloor;
        shed.rung = String::new();
        shed.ttft_ms = 0;
        shed.alpha_satisfied = false;
        shed.error = "quality floor for tenant 1: no permitted rung fits".to_string();
        shed.report = DegradationReport::new(0.95);
        shed.degraded = false;
        let reqs = vec![crate::Request::prefill(1, 64, 0, 100)];
        Ledger {
            schema: LEDGER_SCHEMA.to_string(),
            seed: 0,
            records: vec![shed],
        }
        .validate(&reqs)
        .unwrap();
    }
}
