//! SLO accounting over an outcome ledger or a planner's event log.
//!
//! Distills a [`Ledger`] ([`SloSummary::from_ledger`]) or an
//! [`EventLog`] ([`SloSummary::from_events`]) into the serving-side
//! numbers the paper's evaluation cares about:
//!
//! - **TTFT** (time to first token): arrival → first output token, the
//!   latency a user perceives before streaming starts;
//! - **TPOT** (time per output token): the steady-state decode pace of
//!   served multi-token requests;
//! - **goodput**: requests served *within their deadline* per virtual
//!   second — throughput that counts only useful work;
//! - **certified goodput**: the stricter quality-guardrail numerator —
//!   served within deadline *and* quality-certified (measured CRA α at
//!   ledger level; a rung that can certify α at event level). A
//!   scheduler can inflate plain goodput by bottoming every request on
//!   the `window_only` rung; certified goodput is what the
//!   near-lossless contract actually pays for.
//!
//! The v2 schema adds per-tenant [`TenantQuality`] rows so the
//! quality-floored degradation plane is auditable: each tenant's
//! uncertified-rung token fraction is exactly the quantity its
//! [`TenantFloor`](crate::TenantFloor) bounds.
//!
//! Percentiles use the nearest-rank rule on the virtual-clock values,
//! so a summary is bit-deterministic whenever its ledger or log is.

use crate::events::EventLog;
use crate::ledger::{Ledger, Outcome};
use crate::lifecycle::lifecycles;
use crate::Request;
use sa_core::DegradationRung;
use std::collections::BTreeMap;

/// Schema tag of the `results/slo_report.json` artifact.
pub const SLO_SCHEMA: &str = "sa.slo.v2";

/// Nearest-rank percentile summary of one latency population
/// (virtual milliseconds). All zeros when the population is empty.
#[derive(Debug, Clone, Default, PartialEq)]
pub struct LatencyStats {
    /// Number of samples.
    pub count: u64,
    /// Median (nearest rank).
    pub p50_ms: u64,
    /// 90th percentile.
    pub p90_ms: u64,
    /// 95th percentile.
    pub p95_ms: u64,
    /// 99th percentile.
    pub p99_ms: u64,
    /// Population maximum.
    pub max_ms: u64,
}

sa_json::impl_json_struct!(LatencyStats {
    count,
    p50_ms,
    p90_ms,
    p95_ms,
    p99_ms,
    max_ms
});

impl LatencyStats {
    /// Summarizes a sample population by nearest-rank percentiles.
    pub fn from_samples(samples: &[u64]) -> Self {
        if samples.is_empty() {
            return LatencyStats::default();
        }
        let mut sorted = samples.to_vec();
        sorted.sort_unstable();
        let pick = |p: u64| -> u64 {
            // Nearest-rank: ceil(p/100 * n), 1-indexed.
            let rank = (p * sorted.len() as u64).div_ceil(100).max(1) as usize;
            sorted[rank.min(sorted.len()) - 1]
        };
        LatencyStats {
            count: sorted.len() as u64,
            p50_ms: pick(50),
            p90_ms: pick(90),
            p95_ms: pick(95),
            p99_ms: pick(99),
            max_ms: sorted[sorted.len() - 1],
        }
    }
}

/// One tenant's quality accounting: how much of its served work ran on
/// a rung that cannot certify the CRA α contract. The fraction is what
/// a [`TenantFloor`](crate::TenantFloor)'s `max_uncertified_permille`
/// bounds, so committed artifacts are directly checkable against the
/// configured floors.
#[derive(Debug, Clone, Default, PartialEq)]
pub struct TenantQuality {
    /// Tenant id.
    pub tenant: u64,
    /// Requests served to completion.
    pub served: u64,
    /// Served within deadline **and** quality-certified (measured α at
    /// ledger level, a certifiable rung at event level).
    pub served_certified: u64,
    /// Synthetic tokens (prompt + generated) across served requests.
    pub served_tokens: u64,
    /// Served tokens that ran on an uncertifiable rung (`window_only`).
    pub uncertified_tokens: u64,
    /// `uncertified_tokens` as a permille share of `served_tokens`
    /// (0 when nothing was served).
    pub uncertified_permille: u64,
    /// Requests shed by the quality floor instead of being forced onto
    /// a forbidden rung.
    pub shed_quality_floor: u64,
}

sa_json::impl_json_struct!(TenantQuality {
    tenant,
    served,
    served_certified,
    served_tokens,
    uncertified_tokens,
    uncertified_permille,
    shed_quality_floor
});

/// One request as the SLO fold sees it, whatever it was derived from: a
/// ledger record, or a request's [`Lifecycle`](crate::Lifecycle) in a
/// log.
#[derive(Debug, Clone, PartialEq)]
struct SloRow {
    /// Tenant the request billed against.
    tenant: u64,
    /// Terminal state.
    outcome: Outcome,
    /// Finished at or before its deadline (counted for served requests
    /// only).
    within_deadline: bool,
    /// Quality-certified: measured CRA α at ledger level, a rung that
    /// can certify α at event level.
    certified: bool,
    /// Ran on the uncertifiable `window_only` rung.
    uncertified_rung: bool,
    /// Synthetic tokens, prompt plus generated.
    tokens: u64,
    /// Arrival → first output token, when one was produced.
    ttft_ms: Option<u64>,
    /// Steady-state decode pace, for served multi-token requests.
    tpot_ms: Option<u64>,
}

/// The SLO summary of one scheduler run over one request stream.
#[derive(Debug, Clone, Default, PartialEq)]
pub struct SloSummary {
    /// Schema tag ([`SLO_SCHEMA`]).
    pub schema: String,
    /// Which run produced the summary (a free-form label such as
    /// `continuous`).
    pub scheduler: String,
    /// Requests submitted.
    pub requests: u64,
    /// Requests served to completion.
    pub served: u64,
    /// Served **and** finished at or before the deadline — the goodput
    /// numerator.
    pub served_within_deadline: u64,
    /// Rejected at arrival (queue bound) or by the memory model.
    pub rejected: u64,
    /// Expired in queue or cancelled by the deadline mid-run.
    pub deadline_missed: u64,
    /// Caller cancellations.
    pub cancelled: u64,
    /// Permanent failures.
    pub failed: u64,
    /// Requests shed by a tenant quality floor (no permitted rung fit).
    pub shed_quality_floor: u64,
    /// Served within deadline **and** quality-certified — the certified
    /// goodput numerator (measured CRA α at ledger level; a rung with
    /// [`DegradationRung::can_certify_alpha`] at event level).
    pub served_certified: u64,
    /// The accounting window: first arrival → the last deadline in the
    /// stream, ms. Fixed by the workload alone (never by outcomes), so
    /// two schedulers on the same trace always divide by the same span —
    /// a scheduler is never penalized for *completing* late-deadline
    /// work a baseline rejected, and every request served within its
    /// deadline finishes inside the window by construction.
    pub span_ms: u64,
    /// `served_within_deadline` per virtual second over `span_ms`.
    pub goodput_per_sec: f64,
    /// `served_certified` per virtual second over `span_ms`.
    pub certified_goodput_per_sec: f64,
    /// Time-to-first-token of every request that produced a token.
    pub ttft: LatencyStats,
    /// Time-per-output-token of served multi-token (decode) requests.
    pub tpot: LatencyStats,
    /// Per-tenant quality rows, sorted by tenant id.
    pub tenants: Vec<TenantQuality>,
}

sa_json::impl_json_struct!(SloSummary {
    schema,
    scheduler,
    requests,
    served,
    served_within_deadline,
    rejected,
    deadline_missed,
    cancelled,
    failed,
    shed_quality_floor,
    served_certified,
    span_ms,
    goodput_per_sec,
    certified_goodput_per_sec,
    ttft,
    tpot,
    tenants
});

/// The accounting window of a request stream: first arrival → last
/// deadline, in virtual ms (0 for an empty stream). See
/// [`SloSummary::span_ms`].
fn stream_span_ms(requests: &[Request]) -> u64 {
    let first_arrival = requests.iter().map(|r| r.arrival_ms).min();
    let last_deadline = requests
        .iter()
        .map(|r| r.arrival_ms.saturating_add(r.deadline_ms))
        .max();
    match (first_arrival, last_deadline) {
        (Some(a), Some(d)) => d.saturating_sub(a).max(1),
        _ => 0,
    }
}

/// Served-within-deadline per virtual second over the accounting window.
/// Total: `0.0` (never `NaN`/`inf`) for empty streams, so zero-decode
/// and zero-request workloads serialize to valid JSON artifacts.
fn goodput_per_sec(within: u64, span_ms: u64) -> f64 {
    if span_ms == 0 {
        return 0.0;
    }
    let rate = within as f64 * 1000.0 / span_ms as f64;
    if rate.is_finite() {
        rate
    } else {
        0.0
    }
}

impl SloSummary {
    /// The one SLO fold: tallies `rows` — one per request of the stream
    /// `requests`, in any order — into the summary `scheduler` produced.
    fn from_rows(scheduler: &str, requests: &[Request], rows: &[SloRow]) -> Self {
        let span_ms = stream_span_ms(requests);
        let mut s = SloSummary {
            schema: SLO_SCHEMA.to_string(),
            scheduler: scheduler.to_string(),
            requests: rows.len() as u64,
            span_ms,
            ..SloSummary::default()
        };
        let mut tenants: BTreeMap<u64, TenantQuality> = BTreeMap::new();
        for row in rows {
            let tenant = tenants.entry(row.tenant).or_insert(TenantQuality {
                tenant: row.tenant,
                ..TenantQuality::default()
            });
            match row.outcome {
                Outcome::Served => {
                    s.served += 1;
                    tenant.served += 1;
                    tenant.served_tokens += row.tokens;
                    if row.uncertified_rung {
                        tenant.uncertified_tokens += row.tokens;
                    }
                    if row.within_deadline {
                        s.served_within_deadline += 1;
                        if row.certified {
                            s.served_certified += 1;
                            tenant.served_certified += 1;
                        }
                    }
                }
                Outcome::RejectedOverloaded | Outcome::RejectedBudget => s.rejected += 1,
                Outcome::ExpiredInQueue | Outcome::DeadlineExceeded => s.deadline_missed += 1,
                Outcome::Cancelled => s.cancelled += 1,
                Outcome::Failed => s.failed += 1,
                Outcome::ShedQualityFloor => {
                    s.shed_quality_floor += 1;
                    tenant.shed_quality_floor += 1;
                }
            }
        }
        for tenant in tenants.values_mut().filter(|t| t.served_tokens > 0) {
            tenant.uncertified_permille = tenant.uncertified_tokens * 1000 / tenant.served_tokens;
        }
        let ttft: Vec<u64> = rows.iter().filter_map(|r| r.ttft_ms).collect();
        let tpot: Vec<u64> = rows.iter().filter_map(|r| r.tpot_ms).collect();
        s.goodput_per_sec = goodput_per_sec(s.served_within_deadline, span_ms);
        s.certified_goodput_per_sec = goodput_per_sec(s.served_certified, span_ms);
        s.ttft = LatencyStats::from_samples(&ttft);
        s.tpot = LatencyStats::from_samples(&tpot);
        s.tenants = tenants.into_values().collect();
        s
    }

    /// Builds the summary from a ledger and the request stream it came
    /// from (needed for the per-request deadlines, which the ledger does
    /// not carry). A record whose request is not in the stream has no
    /// deadline to be within.
    pub fn from_ledger(scheduler: &str, ledger: &Ledger, requests: &[Request]) -> Self {
        let deadlines: BTreeMap<u64, u64> = requests
            .iter()
            .map(|r| (r.id, r.arrival_ms + r.deadline_ms))
            .collect();
        let rows: Vec<SloRow> = ledger
            .records
            .iter()
            .map(|rec| SloRow {
                tenant: rec.tenant,
                outcome: rec.outcome,
                within_deadline: deadlines.get(&rec.id).is_some_and(|&d| rec.finish_ms <= d),
                certified: rec.alpha_satisfied,
                uncertified_rung: rec.rung == DegradationRung::WindowOnly.as_str(),
                tokens: rec.seq_len + rec.new_tokens,
                ttft_ms: (rec.ttft_ms > 0).then_some(rec.ttft_ms),
                tpot_ms: rec.tpot_ms(),
            })
            .collect();
        Self::from_rows(scheduler, requests, &rows)
    }

    /// Builds the summary from a planner's event log and the request
    /// stream it planned, without executing any model work: the planner
    /// fixes every outcome and timing on the virtual clock, so the log's
    /// numbers are the ones an execution that follows the plan records.
    /// Each request's row is its [`Lifecycle`](crate::Lifecycle)
    /// ([`lifecycles`]): outcome, finish, rung (the quality columns),
    /// TTFT and TPOT. A request without a terminal event in the log has
    /// no row.
    pub fn from_events(scheduler: &str, log: &EventLog, requests: &[Request]) -> Self {
        let rows: Vec<SloRow> = requests
            .iter()
            .zip(lifecycles(log, requests))
            .filter_map(|(req, lc)| {
                let uncertified_rung = lc.rung == DegradationRung::WindowOnly.as_str();
                Some(SloRow {
                    tenant: req.tenant,
                    outcome: lc.outcome?,
                    within_deadline: lc.finish_ms <= req.arrival_ms + req.deadline_ms,
                    certified: !uncertified_rung,
                    uncertified_rung,
                    tokens: req.seq_len as u64 + req.new_tokens as u64,
                    ttft_ms: lc.ttft_ms,
                    tpot_ms: lc.tpot_ms,
                })
            })
            .collect();
        Self::from_rows(scheduler, requests, &rows)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use sa_json::{FromJson, ToJson};

    #[test]
    fn nearest_rank_percentiles() {
        let s = LatencyStats::from_samples(&[10, 20, 30, 40, 50, 60, 70, 80, 90, 100]);
        assert_eq!(s.count, 10);
        assert_eq!(s.p50_ms, 50);
        assert_eq!(s.p90_ms, 90);
        assert_eq!(s.p95_ms, 100, "ceil(0.95*10)=10th value");
        assert_eq!(s.p99_ms, 100);
        assert_eq!(s.max_ms, 100);
        let single = LatencyStats::from_samples(&[7]);
        assert_eq!(single.p50_ms, 7);
        assert_eq!(single.p99_ms, 7);
        let empty = LatencyStats::from_samples(&[]);
        assert_eq!(empty.count, 0);
        assert_eq!(empty.p99_ms, 0);
    }

    /// The event-level summary of planning `reqs` under `cfg`.
    fn planned(cfg: &crate::ServeConfig, reqs: &[Request]) -> SloSummary {
        let (_, log) = crate::plan_continuous_with_events(cfg, reqs);
        SloSummary::from_events("continuous", &log, reqs)
    }

    #[test]
    fn summary_counts_and_goodput_from_plans() {
        use crate::ServeConfig;
        let cfg = ServeConfig::default();
        let reqs: Vec<Request> = (0..4)
            .map(|id| Request::prefill(id, 64, id * 100, 1_000_000))
            .collect();
        let s = planned(&cfg, &reqs);
        assert_eq!(s.requests, 4);
        assert_eq!(s.served, 4);
        assert_eq!(s.served_within_deadline, 4);
        assert!(s.goodput_per_sec > 0.0);
        assert_eq!(s.ttft.count, 4);
        assert!(s.span_ms >= 300, "span covers the arrival spread");
    }

    #[test]
    fn degenerate_workloads_never_produce_nan() {
        use crate::{Ledger, ServeConfig, LEDGER_SCHEMA};
        let cfg = ServeConfig::default();

        // Empty stream: zero requests, zero span — every rate is 0.0.
        let empty_reqs: Vec<Request> = Vec::new();
        let empty_ledger = Ledger {
            schema: LEDGER_SCHEMA.to_string(),
            seed: 0,
            records: Vec::new(),
        };
        for s in [
            SloSummary::from_ledger("continuous", &empty_ledger, &empty_reqs),
            planned(&cfg, &empty_reqs),
        ] {
            assert_eq!(s.requests, 0);
            assert_eq!(s.span_ms, 0);
            assert!(s.goodput_per_sec.is_finite());
            assert_eq!(s.goodput_per_sec, 0.0);
            assert_eq!(s.tpot.count, 0);
            let text = sa_json::to_string(&s.to_json());
            assert!(
                !text.contains("NaN") && !text.contains("inf"),
                "artifact must stay valid JSON: {text}"
            );
        }

        // Single pure-prefill request and a zero-decode stream: TTFT
        // exists, but no request qualifies for TPOT — the population is
        // empty, not a division by zero.
        for n in [1usize, 5] {
            let reqs: Vec<Request> = (0..n as u64)
                .map(|id| Request::prefill(id, 64, id * 50, 1_000_000))
                .collect();
            let s = planned(&cfg, &reqs);
            assert_eq!(s.served, n as u64);
            assert!(s.goodput_per_sec.is_finite() && s.goodput_per_sec > 0.0);
            assert_eq!(s.tpot.count, 0, "zero-decode workloads have no TPOT");
            assert!(s.ttft.count > 0);
            let text = sa_json::to_string(&s.to_json());
            assert!(!text.contains("NaN") && !text.contains("inf"), "{text}");
        }

        // Degenerate zero-duration window: a single request whose
        // deadline is 0 still yields a >= 1ms span by construction.
        let s = planned(&cfg, &[Request::prefill(0, 64, 0, 0)]);
        assert_eq!(s.span_ms, 1);
        assert!(s.goodput_per_sec.is_finite());
    }

    #[test]
    fn summary_round_trips_through_json() {
        let s = planned(&crate::ServeConfig::default(), &[Request::prefill(0, 64, 0, 1_000_000)]);
        let text = sa_json::to_string(&s.to_json());
        let back =
            SloSummary::from_json(&sa_json::from_str::<sa_json::Json>(&text).unwrap()).unwrap();
        assert_eq!(back.schema, SLO_SCHEMA);
        assert_eq!(back.requests, s.requests);
        assert_eq!(back.ttft, s.ttft);
    }

    /// The event-level fold and the ledger-level one agree on a clean
    /// executed run: the log's terminal kinds, stamps, rungs and
    /// first-token instants against what execution recorded (outcomes,
    /// finishes, measured α, TTFT and TPOT from the records). This is
    /// the independent check of [`SloSummary::from_events`].
    #[test]
    fn event_level_summary_matches_ledger_level_summary() {
        use crate::{mixed_workload, open_loop_workload, Scheduler, ServeConfig};
        use sa_workloads::ArrivalProcess;
        let cfg = ServeConfig::default();
        let sched = Scheduler::new(cfg).unwrap();
        let open_loop = open_loop_workload(3, &ArrivalProcess::constant(3, 2.0), 8_000, 2);
        for reqs in [open_loop, mixed_workload(11, 16)] {
            let (ledger, log) = sched.run_continuous_with_events(&reqs).unwrap();
            let from_events = SloSummary::from_events("continuous", &log, &reqs);
            let from_ledger = SloSummary::from_ledger("continuous", &ledger, &reqs);
            assert!(from_events.served > 0 && from_events.ttft.count > 0);
            // Measured α may fail where a certifiable rung was planned;
            // every other number is the same quantity on both sides.
            assert!(from_ledger.served_certified <= from_events.served_certified);
            let certified_free = |s: &SloSummary| SloSummary {
                served_certified: 0,
                certified_goodput_per_sec: 0.0,
                tenants: s
                    .tenants
                    .iter()
                    .map(|t| TenantQuality {
                        served_certified: 0,
                        ..t.clone()
                    })
                    .collect(),
                ..s.clone()
            };
            assert_eq!(certified_free(&from_events), certified_free(&from_ledger));
        }
    }

    #[test]
    fn ledger_record_without_a_request_is_never_within_deadline() {
        use crate::{Request, Scheduler, ServeConfig};
        let reqs = [
            Request::prefill(0, 64, 0, 1_000_000),
            Request::prefill(1, 64, 10, 1_000_000),
        ];
        let sched = Scheduler::new(ServeConfig::default()).unwrap();
        let (ledger, _) = sched.run_continuous_with_events(&reqs).unwrap();
        let whole = SloSummary::from_ledger("continuous", &ledger, &reqs);
        assert_eq!((whole.served, whole.served_within_deadline), (2, 2));
        // Summarized against a stream that lacks request 1: it was
        // served, but there is no deadline to credit it against.
        let partial = SloSummary::from_ledger("continuous", &ledger, &reqs[..1]);
        assert_eq!((partial.requests, partial.served), (2, 2));
        assert_eq!(partial.served_within_deadline, 1);
        assert_eq!(partial.served_certified, 1);
        assert_eq!(partial.tenants[0].served_certified, 1);
    }
}
