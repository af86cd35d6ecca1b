//! serve_timeline: renders the serving telemetry plane end to end and
//! proves its central claim — the `sa.events.v1` lifecycle event log is
//! a **complete** record of a serving run, sufficient to reconstruct
//! every aggregate SLO number without touching the plans or the ledger.
//!
//! Four legs:
//!
//! 1. **Reconstruction sweep**: replays the exact `slo_sweep` workload
//!    grid (3 arrival shapes × the rate ladder, 3 tenants) through
//!    [`plan_continuous_with_events`] and rebuilds each point's
//!    [`SloSummary`] *from the event log alone* (terminal kinds, first
//!    token stamps, and the regenerated request stream). Every
//!    reconstructed summary must equal the plan-derived one bit for bit
//!    — including `goodput_per_sec` — and, when `<out>/slo_report.json`
//!    exists with the same seed, must match its numbers too.
//! 2. **Timelines**: the richest sweep point's event log is folded into
//!    per-tenant virtual-time bins ([`sa_trace::Timeline`]): TTFT and
//!    TPOT observations, goodput counts, rung degradations, and the
//!    governor's pressure actions (defer / evict / shed).
//! 3. **Flight recorder**: a forced governor shed (one giant prefill
//!    pinning a shrunken budget at critical pressure, a second urgent
//!    giant that cannot be placed) must dump a postmortem carrying the
//!    planner decisions that led up to it.
//! 4. **Thread invariance**: the fault-storm workload runs through
//!    [`Scheduler::run_continuous_with_events`] under the chaos fault
//!    plan at `SA_THREADS` 1 / 2 / default; the serialized event log
//!    must be byte-identical, and the events↔ledger conservation
//!    validator must pass on the reconciled pair.
//!
//! Outputs:
//! - stdout: the sweep table, timeline digest, and postmortems;
//! - `results/serve_timeline.json` (`sa.serve_timeline.v1`);
//! - `results/serve_timeline.txt`: the rendered timeline + postmortem
//!   digest (what you read first when debugging a bad SLO run).
//!
//! Flags: `--seed <u64>`, `--quick` (fewer rates, shorter streams),
//! `--out <dir>`. `SA_METRICS=<path>` additionally writes the whole
//! metrics registry in Prometheus text exposition format.

use sa_bench::{f, render_table, write_json, Args};
use sa_serve::{
    fault_storm_workload, open_loop_workload, plan_continuous_with_events, Event, EventKind, EventLog, Outcome, Postmortem, Request,
    Scheduler, ServeConfig, SloRow, SloSummary,
};
use sa_tensor::fault::{self, FaultPlan};
use sa_tensor::pool;
use sa_trace::{MetricsExport, Timeline, TimelineSnapshot};
use sa_workloads::{ArrivalProcess, ArrivalShape};
use std::collections::BTreeMap;

/// Results-file schema tag of `results/serve_timeline.json`.
const TIMELINE_SCHEMA: &str = "sa.serve_timeline.v1";

/// Timeline bin width on the serving virtual clock, ms.
const BIN_MS: u64 = 1_000;

/// One (shape × rate) point: the SLO summaries reconstructed from the
/// event logs alone, plus the equality verdicts.
#[derive(Debug, Clone, PartialEq)]
struct TimelinePoint {
    /// Arrival-rate shape (`constant` / `diurnal` / `flash_crowd`).
    shape: String,
    /// Mean arrival rate, requests per virtual second.
    rate_per_sec: f64,
    /// Stream duration, virtual ms.
    duration_ms: u64,
    /// Requests the stream drew.
    requests: u64,
    /// Events the continuous planner emitted for the stream.
    events: u64,
    /// Continuous-leg summary rebuilt from events alone.
    continuous: SloSummary,
    /// Whether the reconstruction equals the plan-derived summary bit
    /// for bit.
    exact_match: bool,
    /// Whether the event log passed the memory-conservation replay.
    conservation_ok: bool,
}

sa_json::impl_json_struct!(TimelinePoint {
    shape,
    rate_per_sec,
    duration_ms,
    requests,
    events,
    continuous,
    exact_match,
    conservation_ok
});

/// The `results/serve_timeline.json` payload.
#[derive(Debug, Clone, PartialEq)]
struct TimelineReport {
    /// Results-file schema tag ([`TIMELINE_SCHEMA`]).
    schema: String,
    /// Workload / scheduler seed.
    seed: u64,
    /// Tenants sharing the token-bucket quotas.
    tenants: u64,
    /// Timeline bin width, virtual ms.
    bin_ms: u64,
    /// Whether every point's event-log reconstruction equaled the
    /// plan-derived summary bit for bit.
    all_points_exact: bool,
    /// Whether the reconstructed goodput matched `<out>/slo_report.json`
    /// per point (false when the report is absent or seeded differently).
    matches_slo_report: bool,
    /// Whether the fault-storm event log was byte-identical at
    /// `SA_THREADS` 1 / 2 / default.
    identical_across_threads: bool,
    /// Whether every event log (sweep, shed scenario, storm) passed the
    /// events↔ledger conservation validator.
    conservation_ok: bool,
    /// The sweep, one entry per (shape × rate).
    points: Vec<TimelinePoint>,
    /// Per-tenant binned timelines of the richest sweep point.
    timeline: TimelineSnapshot,
    /// Flight-recorder dumps: the forced-shed scenario's postmortems
    /// followed by any the sweep itself produced.
    postmortems: Vec<Postmortem>,
    /// Requests in the fault-storm thread-invariance leg.
    storm_requests: u64,
    /// Events in the canonical (single-threaded) storm log.
    storm_events: u64,
}

sa_json::impl_json_struct!(TimelineReport {
    schema,
    seed,
    tenants,
    bin_ms,
    all_points_exact,
    matches_slo_report,
    identical_across_threads,
    conservation_ok,
    points,
    timeline,
    postmortems,
    storm_requests,
    storm_events
});

/// The `slo_sweep` arrival-shape grid, replicated exactly.
fn shapes() -> Vec<(&'static str, ArrivalShape)> {
    vec![
        ("constant", ArrivalShape::Constant),
        (
            "diurnal",
            ArrivalShape::Diurnal {
                period_ms: 20_000,
                depth: 0.7,
            },
        ),
        (
            "flash_crowd",
            ArrivalShape::FlashCrowd {
                quiet_ms: 12_000,
                burst_ms: 3_000,
                multiplier: 5.0,
            },
        ),
    ]
}

/// One request's [`SloRow`] from event-borne facts alone — the
/// independent half of the reconstruction; the fold itself is the
/// library's. The terminal kind gives the outcome, its stamp the finish,
/// its rung string the quality columns (`window_only` is the
/// uncertifiable rung), and the shed reason prefix (`"quality floor"`)
/// tells a quality-floor shed from a governor load shed. First-token
/// timing is left to the caller, which reads the `FirstToken` stamps.
fn row_from_terminal(term: &Event, req: &Request) -> SloRow {
    let can_certify = term.rung != "window_only";
    let outcome = match term.kind {
        EventKind::Completed => Outcome::Served,
        EventKind::Shed if term.reason.starts_with("quality floor") => Outcome::ShedQualityFloor,
        EventKind::Shed => Outcome::RejectedBudget,
        EventKind::Rejected if term.reason.starts_with("overloaded") => {
            Outcome::RejectedOverloaded
        }
        EventKind::Rejected => Outcome::RejectedBudget,
        EventKind::Expired => Outcome::ExpiredInQueue,
        EventKind::DeadlineExceeded => Outcome::DeadlineExceeded,
        EventKind::Cancelled => Outcome::Cancelled,
        EventKind::Failed => Outcome::Failed,
        kind => unreachable!("{kind:?} is not a terminal event kind"),
    };
    SloRow {
        tenant: req.tenant,
        outcome,
        within_deadline: term.t_ms <= req.arrival_ms + req.deadline_ms,
        certified: can_certify,
        uncertified_rung: !can_certify,
        tokens: req.seq_len as u64 + req.new_tokens as u64,
        ttft_ms: None,
        tpot_ms: None,
    }
}

/// Rebuilds the continuous-leg [`SloSummary`] from the event log alone:
/// terminal kinds give the outcome tallies, `FirstToken` stamps give
/// TTFT, and `Completed` − `FirstToken` spans give TPOT.
fn continuous_summary_from_events(log: &EventLog, requests: &[Request]) -> SloSummary {
    let terminals = log.terminals();
    let mut first_token: BTreeMap<u64, u64> = BTreeMap::new();
    for ev in &log.events {
        if ev.kind == EventKind::FirstToken {
            first_token.insert(ev.request_id, ev.t_ms);
        }
    }
    let rows: Vec<SloRow> = requests
        .iter()
        .filter_map(|req| {
            let term = terminals.get(&req.id)?;
            let first_token = first_token.get(&req.id);
            let paced = term.kind == EventKind::Completed && req.new_tokens > 1;
            Some(SloRow {
                ttft_ms: first_token.map(|ft| ft.saturating_sub(req.arrival_ms)),
                tpot_ms: first_token
                    .filter(|_| paced)
                    .map(|ft| term.t_ms.saturating_sub(*ft) / (req.new_tokens as u64 - 1)),
                ..row_from_terminal(term, req)
            })
        })
        .collect();
    SloSummary::from_rows("continuous", requests, &rows)
}

/// Folds a continuous event log into per-tenant binned timelines plus
/// the governor's pressure-action series.
fn build_timeline(log: &EventLog, requests: &[Request]) -> TimelineSnapshot {
    let arrivals: BTreeMap<u64, u64> = requests.iter().map(|r| (r.id, r.arrival_ms)).collect();
    let deadlines: BTreeMap<u64, u64> = requests
        .iter()
        .map(|r| (r.id, r.arrival_ms + r.deadline_ms))
        .collect();
    let new_tokens: BTreeMap<u64, u64> =
        requests.iter().map(|r| (r.id, r.new_tokens as u64)).collect();
    let mut first_token: BTreeMap<u64, u64> = BTreeMap::new();
    let mut tl = Timeline::new(BIN_MS);
    for ev in &log.events {
        let tenant = ev.tenant;
        match ev.kind {
            EventKind::FirstToken => {
                first_token.insert(ev.request_id, ev.t_ms);
                let arrival = arrivals.get(&ev.request_id).copied().unwrap_or(0);
                tl.observe(
                    &format!("tenant{tenant}.ttft_ms"),
                    ev.t_ms,
                    ev.t_ms.saturating_sub(arrival),
                );
            }
            EventKind::Completed => {
                if deadlines.get(&ev.request_id).is_some_and(|&d| ev.t_ms <= d) {
                    tl.increment(&format!("tenant{tenant}.goodput"), ev.t_ms, 1);
                }
                let toks = new_tokens.get(&ev.request_id).copied().unwrap_or(0);
                if let Some(&ft) = first_token.get(&ev.request_id) {
                    if toks > 1 {
                        tl.observe(
                            &format!("tenant{tenant}.tpot_ms"),
                            ev.t_ms,
                            ev.t_ms.saturating_sub(ft) / (toks - 1),
                        );
                    }
                }
            }
            EventKind::RungDegraded => {
                tl.increment(&format!("tenant{tenant}.rung_degraded"), ev.t_ms, 1)
            }
            EventKind::Deferred => tl.increment("pressure.deferred", ev.t_ms, 1),
            EventKind::PressureEvicted => tl.increment("pressure.evicted", ev.t_ms, 1),
            EventKind::Shed => tl.increment("pressure.shed", ev.t_ms, 1),
            _ => {}
        }
    }
    tl.flush()
}

/// Renders the timeline's series summaries and the postmortem digest —
/// the body of `results/serve_timeline.txt`.
fn render_digest(timeline: &TimelineSnapshot, postmortems: &[Postmortem]) -> String {
    let mut out = String::new();
    out.push_str(&format!(
        "timeline: {} series over {} ms bins\n\n",
        timeline.series.len(),
        timeline.bin_ms
    ));
    let rows: Vec<Vec<String>> = timeline
        .series
        .iter()
        .map(|s| {
            let count: u64 = s.bins.iter().map(|b| b.count).sum();
            let sum: u64 = s.bins.iter().map(|b| b.sum).sum();
            let peak = s.bins.iter().map(|b| b.count).max().unwrap_or(0);
            vec![
                s.name.clone(),
                s.bins.len().to_string(),
                count.to_string(),
                sum.to_string(),
                peak.to_string(),
            ]
        })
        .collect();
    out.push_str(&render_table(
        &["series", "bins", "count", "sum", "peak_bin"],
        &rows,
    ));
    out.push_str(&format!("\npostmortems: {}\n", postmortems.len()));
    for pm in postmortems {
        out.push_str(&format!(
            "\n[{}] t={} ms request {}: {}\n",
            pm.trigger, pm.t_ms, pm.request_id, pm.reason
        ));
        for d in &pm.decisions {
            out.push_str(&format!(
                "  t={} ms {} request {} queue={} inflight={} free={} \
                 contenders={} budget={} ms rung={} pressure={}\n",
                d.t_ms,
                d.action,
                d.request_id,
                d.queue_depth,
                d.inflight,
                d.free_bytes,
                d.contenders,
                d.budget_ms,
                d.rung,
                d.pressure
            ));
        }
    }
    out
}

/// The forced-shed scenario from the governor tests: one giant prefill
/// pins a shrunken budget at critical pressure; a second urgent giant
/// fits the budget alone but cannot be placed and has no decode KV to
/// evict, so the governor sheds it — which must dump a postmortem.
fn forced_shed(seed: u64) -> (Vec<Postmortem>, bool) {
    let base = ServeConfig {
        seed,
        ..ServeConfig::default()
    };
    let probe = Request::prefill(0, 512, 0, 0);
    let giant_bytes = sa_serve::sim::request_bytes(&base, &probe);
    let cfg = ServeConfig {
        mem_budget_bytes: sa_serve::sim::weight_bytes() + giant_bytes + giant_bytes / 2,
        mem_high_permille: 700,
        ..base
    };
    let g1 = Request::prefill(0, 512, 0, 4_096);
    let g2 = Request::prefill(1, 512, 50, 4_146);
    let (_, log) = plan_continuous_with_events(&cfg, &[g1, g2]);
    let conservation_ok = log.check_conservation().is_ok();
    (log.postmortems, conservation_ok)
}

fn main() {
    let args = Args::parse();
    let metrics_export = MetricsExport::from_env();
    let tenants = 3u64;
    let (rates, duration_ms) = if args.quick {
        (vec![1.0, 4.0], 15_000u64)
    } else {
        (vec![0.5, 1.0, 2.0, 4.0, 8.0], 40_000u64)
    };
    let cfg = ServeConfig {
        seed: args.seed,
        ..ServeConfig::default()
    }
    .from_env();

    // --- Leg 1: the reconstruction sweep over the slo_sweep grid. ---
    let mut points = Vec::new();
    let mut rows = Vec::new();
    let mut all_exact = true;
    let mut conservation_ok = true;
    let mut sweep_postmortems: Vec<Postmortem> = Vec::new();
    let mut richest: Option<(u64, EventLog, Vec<Request>)> = None;
    for (shape_name, shape) in shapes() {
        for &rate in &rates {
            let process = ArrivalProcess {
                seed: args.seed ^ (rate * 16.0) as u64,
                rate_per_sec: rate,
                shape,
            };
            let requests = open_loop_workload(args.seed, &process, duration_ms, tenants);
            let (cont_plans, cont_log) = plan_continuous_with_events(&cfg, &requests);

            let continuous = continuous_summary_from_events(&cont_log, &requests);
            let from_cont_plans =
                SloSummary::from_continuous_plans("continuous", &cont_plans, &requests);
            let exact = continuous == from_cont_plans;
            all_exact &= exact;
            let conserved = cont_log.check_conservation().is_ok();
            conservation_ok &= conserved;

            rows.push(vec![
                shape_name.to_string(),
                f(rate, 1),
                requests.len().to_string(),
                cont_log.events.len().to_string(),
                f(continuous.goodput_per_sec, 3),
                if exact { "yes" } else { "NO" }.to_string(),
                if conserved { "yes" } else { "NO" }.to_string(),
            ]);
            let n_events = cont_log.events.len() as u64;
            sweep_postmortems.extend(cont_log.postmortems.iter().cloned());
            if richest.as_ref().is_none_or(|(n, _, _)| n_events > *n) {
                richest = Some((n_events, cont_log, requests.clone()));
            }
            points.push(TimelinePoint {
                shape: shape_name.to_string(),
                rate_per_sec: rate,
                duration_ms,
                requests: requests.len() as u64,
                events: n_events,
                continuous,
                exact_match: exact,
                conservation_ok: conserved,
            });
        }
    }

    println!(
        "serve timeline: {} points, {} tenants, seed {}\n",
        points.len(),
        tenants,
        args.seed
    );
    println!(
        "{}",
        render_table(
            &[
                "shape",
                "rate/s",
                "reqs",
                "events",
                "goodput",
                "exact",
                "conserved",
            ],
            &rows
        )
    );

    // Cross-check against the slo_sweep artifact when present: the
    // reconstructed goodput must equal the written report's, per point.
    let slo_path = args.out_dir.join("slo_report.json");
    let matches_slo_report = match sa_bench::load_json::<sa_json::Json>(&slo_path) {
        Ok(report) if report.get("seed").and_then(|v| v.as_i64()) == Some(args.seed as i64) => {
            let report_points = report
                .get("points")
                .and_then(sa_json::Json::as_array)
                .unwrap_or(&[]);
            let goodput_of = |p: &sa_json::Json| -> Option<f64> {
                p.get("continuous")
                    .and_then(|s| s.get("goodput_per_sec"))
                    .and_then(sa_json::Json::as_f64)
            };
            let all_match = points.iter().all(|pt| {
                report_points
                    .iter()
                    .find(|rp| {
                        rp.get("shape").and_then(sa_json::Json::as_str)
                            == Some(pt.shape.as_str())
                            && rp.get("rate_per_sec").and_then(sa_json::Json::as_f64)
                                == Some(pt.rate_per_sec)
                            && rp.get("duration_ms").and_then(sa_json::Json::as_i64)
                                == Some(pt.duration_ms as i64)
                    })
                    .is_some_and(|rp| goodput_of(rp) == Some(pt.continuous.goodput_per_sec))
            });
            println!(
                "slo_report.json cross-check: {}",
                if all_match { "matched" } else { "MISMATCH" }
            );
            assert!(
                all_match,
                "event-log reconstruction disagrees with {}",
                slo_path.display()
            );
            all_match
        }
        Ok(_) => {
            println!(
                "slo_report.json cross-check: skipped (different seed in {})",
                slo_path.display()
            );
            false
        }
        Err(_) => {
            println!(
                "slo_report.json cross-check: skipped ({} not found)",
                slo_path.display()
            );
            false
        }
    };

    // --- Leg 2: per-tenant timelines of the richest point. ---
    let (_, richest_log, richest_reqs) =
        richest.expect("sweep produced at least one point");
    let timeline = build_timeline(&richest_log, &richest_reqs);

    // --- Leg 3: the forced governor shed dumps a postmortem. ---
    let (shed_postmortems, shed_conserved) = forced_shed(args.seed);
    conservation_ok &= shed_conserved;
    assert!(
        shed_postmortems.iter().any(|p| p.trigger == "shed"),
        "forced governor shed produced no flight-recorder postmortem"
    );
    let mut postmortems = shed_postmortems;
    // The sweep's 30 runs can each dump up to 8 postmortems; keep the
    // artifact readable by carrying only the first few alongside the
    // forced-shed scenario's, and say how many were dropped.
    const SWEEP_POSTMORTEM_CAP: usize = 8;
    if sweep_postmortems.len() > SWEEP_POSTMORTEM_CAP {
        println!(
            "sweep produced {} postmortems; keeping the first {} in the artifact",
            sweep_postmortems.len(),
            SWEEP_POSTMORTEM_CAP
        );
        sweep_postmortems.truncate(SWEEP_POSTMORTEM_CAP);
    }
    postmortems.extend(sweep_postmortems);

    // --- Leg 4: storm thread-invariance + conservation on the
    // reconciled (executed) pair. ---
    let storm_n = if args.quick { 12 } else { 24 };
    let storm = fault_storm_workload(args.seed, storm_n);
    let storm_cfg = ServeConfig {
        seed: args.seed,
        ..ServeConfig::default()
    }
    .from_env();
    let storm_scheduler = Scheduler::new(storm_cfg).expect("tiny model config is valid");
    let mut storm_runs = Vec::new();
    {
        let _storm_faults = fault::install(
            FaultPlan::new(args.seed)
                .serve_crash("serve_attempt", 4)
                .alloc_failures(3)
                .kv_bit_flips(1),
        );
        for t in [Some(1), Some(2), None] {
            let run = || storm_scheduler.run_continuous_with_events(&storm);
            let (ledger, log) = match t {
                Some(n) => pool::with_threads(n, run),
                None => run(),
            }
            .expect("storm replay never fails");
            storm_runs.push((t, ledger, log));
        }
    }
    let canonical_bytes = sa_json::to_string(&storm_runs[0].2);
    let identical_across_threads = storm_runs
        .iter()
        .all(|(_, _, log)| sa_json::to_string(log) == canonical_bytes);
    for (t, ledger, log) in &storm_runs {
        log.validate(ledger).unwrap_or_else(|e| {
            panic!("storm events↔ledger conservation failed at threads {t:?}: {e}")
        });
    }
    let storm_events = storm_runs[0].2.events.len() as u64;
    println!(
        "storm leg: {} requests, {} events, byte-identical at threads 1/2/default: {}",
        storm.len(),
        storm_events,
        if identical_across_threads { "yes" } else { "NO" }
    );
    assert!(
        identical_across_threads,
        "storm event log differs across thread counts"
    );

    // --- Render + write artifacts. ---
    let digest = render_digest(&timeline, &postmortems);
    println!("\n{digest}");
    assert!(all_exact, "an event-log reconstruction missed the plan-derived summary");
    assert!(conservation_ok, "an event log failed memory conservation");

    let report = TimelineReport {
        schema: TIMELINE_SCHEMA.to_string(),
        seed: args.seed,
        tenants,
        bin_ms: BIN_MS,
        all_points_exact: all_exact,
        matches_slo_report,
        identical_across_threads,
        conservation_ok,
        points,
        timeline,
        postmortems,
        storm_requests: storm.len() as u64,
        storm_events,
    };
    if let Some(path) = write_json(&args, "serve_timeline", &report) {
        println!("wrote {}", path.display());
    }
    let txt_path = args.out_dir.join("serve_timeline.txt");
    match std::fs::create_dir_all(&args.out_dir)
        .and_then(|()| std::fs::write(&txt_path, &digest))
    {
        Ok(()) => println!("wrote {}", txt_path.display()),
        Err(e) => eprintln!("warning: could not write {}: {e}", txt_path.display()),
    }
    match metrics_export.finish() {
        Ok(Some(path)) => println!("wrote {}", path.display()),
        Ok(None) => {}
        Err(e) => eprintln!("warning: could not write SA_METRICS exposition: {e}"),
    }
    println!("verdict: the event log alone reconstructs every SLO aggregate bit-exactly");
}
