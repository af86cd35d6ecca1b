//! serve_timeline: renders the serving telemetry plane end to end from
//! the `sa.events.v3` lifecycle event log.
//!
//! Four legs:
//!
//! 1. **Sweep**: replays the `slo_sweep` grid ([`slo_grid`]: 3 arrival
//!    shapes × the rate ladder, 3 tenants) through
//!    [`plan_continuous_with_events`], checks each point's log for
//!    memory conservation, and folds it into the point's [`SloSummary`]
//!    ([`SloSummary::from_events`], the fold `slo_sweep` reports).
//! 2. **Timelines**: the richest sweep point's event log is folded into
//!    per-tenant virtual-time bins ([`sa_trace::Timeline`]): TTFT and
//!    TPOT observations and goodput counts from each request's
//!    [`lifecycles`] entry, rung degradations, and the governor's
//!    pressure actions (defer / evict / shed).
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
//! - `results/serve_timeline.json` (`sa.serve_timeline.v3`);
//! - `results/serve_timeline.txt`: the rendered timeline + postmortem
//!   digest (what you read first when debugging a bad SLO run).
//!
//! Flags: `--seed <u64>`, `--quick` (fewer rates, shorter streams),
//! `--out <dir>`.

use sa_bench::{f, render_table, slo_grid, write_json, Args, SLO_GRID_TENANTS};
use sa_serve::{
    fault_storm_workload, lifecycles, plan_continuous_with_events, EventKind, EventLog, Outcome,
    Postmortem, Request, Scheduler, ServeConfig, SloSummary,
};
use sa_tensor::fault::{self, FaultPlan};
use sa_tensor::pool;
use sa_trace::{Timeline, TimelineSnapshot};

/// Results-file schema tag of `results/serve_timeline.json`.
const TIMELINE_SCHEMA: &str = "sa.serve_timeline.v3";

/// Timeline bin width on the serving virtual clock, ms.
const BIN_MS: u64 = 1_000;

/// One (shape × rate) point: the SLO summary folded from its event log,
/// plus the log's conservation verdict.
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
    /// Continuous-leg summary folded from the event log.
    continuous: SloSummary,
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
    identical_across_threads,
    conservation_ok,
    points,
    timeline,
    postmortems,
    storm_requests,
    storm_events
});

/// Folds a continuous event log into per-tenant binned timelines plus
/// the governor's pressure-action series. A request's TTFT is binned at
/// its first token, its TPOT and goodput at its completion.
/// `pressure.shed` counts the governor's load sheds only; a
/// quality-floor refusal is not a pressure action.
fn build_timeline(log: &EventLog, requests: &[Request]) -> TimelineSnapshot {
    let mut tl = Timeline::new(BIN_MS);
    for (req, lc) in requests.iter().zip(lifecycles(log, requests)) {
        let tenant = req.tenant;
        if let Some(ttft) = lc.ttft_ms {
            tl.observe(&format!("tenant{tenant}.ttft_ms"), req.arrival_ms + ttft, ttft);
        }
        if lc.outcome == Some(Outcome::Served) {
            if lc.finish_ms <= req.arrival_ms + req.deadline_ms {
                tl.increment(&format!("tenant{tenant}.goodput"), lc.finish_ms, 1);
            }
            if let Some(tpot) = lc.tpot_ms {
                tl.observe(&format!("tenant{tenant}.tpot_ms"), lc.finish_ms, tpot);
            }
        }
    }
    for ev in &log.events {
        let tenant = ev.tenant;
        match ev.kind {
            EventKind::RungDegraded => {
                tl.increment(&format!("tenant{tenant}.rung_degraded"), ev.t_ms, 1)
            }
            EventKind::Deferred => tl.increment("pressure.deferred", ev.t_ms, 1),
            EventKind::PressureEvicted => tl.increment("pressure.evicted", ev.t_ms, 1),
            EventKind::ShedGovernor => tl.increment("pressure.shed", ev.t_ms, 1),
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
    let tenants = SLO_GRID_TENANTS;
    let cfg = ServeConfig {
        seed: args.seed,
        ..ServeConfig::default()
    };

    // --- Leg 1: the slo_sweep grid, folded from its event logs. ---
    let mut points = Vec::new();
    let mut rows = Vec::new();
    let mut conservation_ok = true;
    let mut sweep_postmortems: Vec<Postmortem> = Vec::new();
    let mut richest: Option<(u64, EventLog, Vec<Request>)> = None;
    for point in slo_grid(&args) {
        let requests = point.requests;
        let (_, cont_log) = plan_continuous_with_events(&cfg, &requests);
        let continuous = SloSummary::from_events("continuous", &cont_log, &requests);
        let conserved = cont_log.check_conservation().is_ok();
        conservation_ok &= conserved;

        rows.push(vec![
            point.shape.to_string(),
            f(point.rate_per_sec, 1),
            requests.len().to_string(),
            cont_log.events.len().to_string(),
            f(continuous.goodput_per_sec, 3),
            if conserved { "yes" } else { "NO" }.to_string(),
        ]);
        let n_events = cont_log.events.len() as u64;
        sweep_postmortems.extend(cont_log.postmortems.iter().cloned());
        let n_requests = requests.len() as u64;
        if richest.as_ref().is_none_or(|(n, _, _)| n_events > *n) {
            richest = Some((n_events, cont_log, requests));
        }
        points.push(TimelinePoint {
            shape: point.shape.to_string(),
            rate_per_sec: point.rate_per_sec,
            duration_ms: point.duration_ms,
            requests: n_requests,
            events: n_events,
            continuous,
            conservation_ok: conserved,
        });
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
                "conserved",
            ],
            &rows
        )
    );

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
    };
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
    assert!(conservation_ok, "an event log failed memory conservation");

    let report = TimelineReport {
        schema: TIMELINE_SCHEMA.to_string(),
        seed: args.seed,
        tenants,
        bin_ms: BIN_MS,
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
    println!("verdict: every event log conserves memory and the storm log is thread-invariant");
}
