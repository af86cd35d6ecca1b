//! The one fold from a planner's event log to each request's lifecycle.
//! The log is the only record of what the planner decided; the ledger's
//! planner columns, the event-level SLO summary and the serving timeline
//! all read it from here (DESIGN.md §5f, §5j).

use crate::events::{EventKind, EventLog};
use crate::ledger::Outcome;
use crate::Request;
use std::collections::HashMap;

/// What the event log says happened to one request; all zeros when the
/// log holds no terminal event for it.
#[derive(Debug, Clone, Default, PartialEq)]
pub struct Lifecycle {
    /// The terminal event's outcome.
    pub outcome: Option<Outcome>,
    /// The terminal event's rung (`""` when no model work ran).
    pub rung: String,
    /// The `Dispatched` stamp (the first micro-task), else `finish_ms`.
    pub start_ms: u64,
    /// The terminal event's stamp.
    pub finish_ms: u64,
    /// `start_ms` − arrival.
    pub queue_wait_ms: u64,
    /// Arrival → the `FirstToken` stamp ([`token_latencies`]).
    pub ttft_ms: Option<u64>,
    /// Decode pace of a served multi-token request ([`token_latencies`]).
    pub tpot_ms: Option<u64>,
    /// `Retried` events. This and the three tallies below count only for
    /// a request that ran its fault schedule (terminal `Completed` or
    /// `Failed`): one cancelled or expired between crashes reports none.
    pub retries: u64,
    /// Sum of the `Retried` events' `backoff_ms`.
    pub backoff_ms: u64,
    /// `Recovered` events: retries that resumed from a checkpoint.
    pub recovered_attempts: u64,
    /// Sum of the `Retried` events' `recomputed_tokens`.
    pub recomputed_tokens: u64,
}

/// Time to first token and time per output token: the one home of both
/// rules. TTFT runs from arrival to the first output token, for any
/// request that produced one; TPOT is the decode span after the first
/// token over the tokens that follow it, for a served request of more
/// than one token.
pub fn token_latencies(
    arrival_ms: u64,
    first_token_ms: Option<u64>,
    finish_ms: u64,
    served: bool,
    new_tokens: u64,
) -> (Option<u64>, Option<u64>) {
    let ttft = first_token_ms.map(|t| t.saturating_sub(arrival_ms));
    let tpot = first_token_ms
        .filter(|_| served && new_tokens > 1)
        .map(|t| finish_ms.saturating_sub(t) / (new_tokens - 1));
    (ttft, tpot)
}

/// Folds `log` into one [`Lifecycle`] per request of `requests`, in
/// input order, in one pass over the log (events of other requests are
/// ignored). It reads kinds, stamps and typed fields, never a reason.
/// [`EventLog::reconcile`] can turn a planned cancellation into
/// `Failed`, so fold a planner's log before reconciling it when the
/// tallies must follow the plan.
pub fn lifecycles(log: &EventLog, requests: &[Request]) -> Vec<Lifecycle> {
    let position: HashMap<u64, usize> =
        requests.iter().enumerate().map(|(i, r)| (r.id, i)).collect();
    // Per request: the lifecycle so far, its `Dispatched` and its
    // `FirstToken` stamp.
    type Seen = (Lifecycle, Option<u64>, Option<u64>);
    let mut seen: Vec<Seen> = vec![(Lifecycle::default(), None, None); requests.len()];
    for ev in &log.events {
        let Some(&i) = position.get(&ev.request_id) else {
            continue;
        };
        let (lc, started, first_token) = &mut seen[i];
        match ev.kind {
            EventKind::Dispatched => _ = started.get_or_insert(ev.t_ms),
            EventKind::FirstToken => _ = first_token.get_or_insert(ev.t_ms),
            EventKind::Retried => {
                lc.retries += 1;
                lc.backoff_ms = lc.backoff_ms.saturating_add(ev.backoff_ms);
                lc.recomputed_tokens = lc.recomputed_tokens.saturating_add(ev.recomputed_tokens);
            }
            EventKind::Recovered => lc.recovered_attempts += 1,
            kind => {
                if let Some(outcome) = kind.outcome() {
                    (lc.outcome, lc.finish_ms) = (Some(outcome), ev.t_ms);
                    lc.rung.clone_from(&ev.rung);
                }
            }
        }
    }
    let resolve = |(req, (mut lc, started, first_token)): (&Request, Seen)| {
        let Some(outcome) = lc.outcome else {
            return Lifecycle::default();
        };
        lc.start_ms = started.unwrap_or(lc.finish_ms).min(lc.finish_ms);
        lc.queue_wait_ms = lc.start_ms.saturating_sub(req.arrival_ms);
        let served = outcome == Outcome::Served;
        let new_tokens = req.new_tokens as u64;
        (lc.ttft_ms, lc.tpot_ms) =
            token_latencies(req.arrival_ms, first_token, lc.finish_ms, served, new_tokens);
        if !served && outcome != Outcome::Failed {
            (lc.retries, lc.backoff_ms, lc.recovered_attempts, lc.recomputed_tokens) = (0, 0, 0, 0);
        }
        lc
    };
    requests.iter().zip(seen).map(resolve).collect()
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::events::Event;
    use crate::ledger::RequestRecord;
    use EventKind::*;

    /// A hand-built log: `(t_ms, request, kind, rung, backoff_ms,
    /// recomputed_tokens)` per event, memory left at zero.
    fn log_of(events: &[(u64, u64, EventKind, &str, u64, u64)]) -> EventLog {
        let mut log = EventLog::new(0);
        for &(t_ms, request_id, kind, rung, backoff_ms, recomputed_tokens) in events {
            log.events.push(Event {
                t_ms,
                request_id,
                tenant: 0,
                kind,
                rung: rung.to_string(),
                bytes: 0,
                mem_in_use: 0,
                backoff_ms,
                recomputed_tokens,
                reason: String::new(),
            });
        }
        log
    }

    /// `(outcome, start, finish, retries, backoff, recovered,
    /// recomputed)` of request 0 of `log`, arrived at t=0.
    fn summary(log: &EventLog) -> (Option<Outcome>, u64, u64, u64, u64, u64, u64) {
        let lc = lifecycles(log, &[Request::prefill(0, 64, 0, 1_000)]).remove(0);
        let (start, finish) = (lc.start_ms, lc.finish_ms);
        let tallies = (lc.retries, lc.backoff_ms, lc.recovered_attempts, lc.recomputed_tokens);
        (lc.outcome, start, finish, tallies.0, tallies.1, tallies.2, tallies.3)
    }

    #[test]
    fn each_convention_reads_off_a_hand_built_log() {
        use Outcome::{Cancelled as C, Failed as F, Served as S};
        let crash = |t, backoff, recomputed| (t, 0, Retried, "full", backoff, recomputed);
        let at = |t, kind| (t, 0, kind, "full", 0, 0);
        let cases = [
            // Cancelled during the backoff after a recovered crash, its
            // events interleaved with another request's: no tallies.
            (
                "cancelled after a crash",
                vec![at(2, Dispatched), (3, 1, Dispatched, "full", 0, 0), crash(10, 8, 32)],
                vec![at(10, Recovered), (11, 1, Retried, "full", 9, 32), at(15, Cancelled)],
                (Some(C), 2, 15, 0, 0, 0, 0),
            ),
            // Three crashes against a budget of three attempts: the last
            // one ends the request and has no `Retried` event.
            (
                "permanent failure",
                vec![at(0, Dispatched), crash(8, 8, 32), at(8, Recovered)],
                vec![crash(24, 17, 32), at(49, Failed)],
                (Some(F), 0, 49, 2, 25, 1, 64),
            ),
            // Retry-from-scratch emits no checkpoint event: what each
            // retry recomputes rides on its `Retried` event alone.
            (
                "recovery off",
                vec![at(0, Dispatched), crash(8, 8, 96), crash(24, 16, 64)],
                vec![at(200, FirstToken), at(200, Completed)],
                (Some(S), 0, 200, 2, 24, 0, 160),
            ),
            // Dispatched, held back by its tenant's bucket and cancelled
            // before any micro-task ran: it starts when it resolves.
            (
                "never started",
                vec![(0, 0, Admitted, "", 0, 0)],
                vec![(40, 0, Cancelled, "tight", 0, 0)],
                (Some(C), 40, 40, 0, 0, 0, 0),
            ),
            ("never resolved", vec![at(0, Dispatched)], vec![], (None, 0, 0, 0, 0, 0, 0)),
        ];
        for (name, head, tail, want) in cases {
            assert_eq!(summary(&log_of(&[head, tail].concat())), want, "{name}");
        }
    }

    #[test]
    fn a_storm_divergence_keeps_the_planned_tallies() {
        // Planned to complete after one crash; a crash storm made
        // execution fail. The reconciled log reports the executed
        // outcome with the planned tallies, since `Failed` ran its
        // schedule too.
        let mut log = log_of(&[
            (0, 0, Dispatched, "full", 0, 0),
            (8, 0, Retried, "full", 8, 32),
            (8, 0, Recovered, "full", 0, 0),
            (70, 0, FirstToken, "full", 0, 0),
            (70, 0, Completed, "full", 0, 0),
        ]);
        assert_eq!(summary(&log), (Some(Outcome::Served), 0, 70, 1, 8, 1, 32));
        let executed = RequestRecord {
            outcome: Outcome::Failed,
            error: "worker panic".to_string(),
            ..crate::ledger::tests::record(0)
        };
        log.reconcile(&[executed]);
        assert_eq!(summary(&log), (Some(Outcome::Failed), 0, 70, 1, 8, 1, 32));
    }

    #[test]
    fn token_latencies_follow_the_served_multi_token_rule() {
        // Arrival 10, first token 40, finish 100, 4 tokens: TTFT 30,
        // TPOT 60 / 3.
        assert_eq!(token_latencies(10, Some(40), 100, true, 4), (Some(30), Some(20)));
        assert_eq!(token_latencies(10, Some(40), 100, false, 4), (Some(30), None));
        assert_eq!(token_latencies(10, Some(40), 100, true, 1), (Some(30), None));
        assert_eq!(token_latencies(10, None, 100, true, 4), (None, None));
    }
}
