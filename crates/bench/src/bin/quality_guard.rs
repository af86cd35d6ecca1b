//! quality_guard: end-to-end proof that the quality guardrail plane
//! enforces the near-lossless contract at runtime.
//!
//! Four legs, each asserting part of the contract:
//!
//! - **clean** — a mixed workload with per-tenant quality floors and a
//!   shadow canary on every served request: the canaries probe sparse
//!   heads (a clean leg whose canaries all ran at rung `full` would
//!   prove nothing), yet
//!   trip zero quarantine transitions (no false positives on healthy
//!   traffic) and the floored tenant never serves an uncertified rung.
//!   The leg counts floor refusals but need not meet one (none at the
//!   committed seed); that every refusal is a typed `ShedQualityFloor`
//!   is held by the planner property in `tests/serve_robustness.rs`.
//! - **sweep** — the same workload replayed at canary denominators
//!   `[0, 64, 32, 8]`: canary selection is measurement-only, so served
//!   counts and certified goodput are *identical* at every rate (hence
//!   trivially monotone in the canary rate) while the number of probed
//!   requests grows as the denominator shrinks.
//! - **storm** — canaries on every request (`denominator = 1`) under an
//!   installed fault plan layering zero-mass stage-1 score tampering,
//!   serving-loop crashes, and checkpoint KV bit-flips. The zero-mass
//!   corruption poisons every sparse head, so the detector must
//!   quarantine **every** head of the model ("catches every injected
//!   corruption"); bit-flipped restores must all be caught by the
//!   checkpoint checksum. Lifting the plan, clean probation waves must
//!   re-admit every head.
//! - **determinism** — the storm-then-recovery trajectory (ledgers
//!   *and* the guard's quarantine/readmit transitions) replayed at 1, 2
//!   and 3 worker threads ([`REPLAY_THREADS`]) must serialize to
//!   byte-identical JSON.
//!
//! Every count comes from a record that holds it: the ledgers' columns
//! and the guard's [`QualityTransition`] trail.
//!
//! Every leg runs on the continuous planner
//! ([`Scheduler::run_guarded_with_events`] /
//! [`Scheduler::run_continuous_with_events`]).
//!
//! Outputs:
//! - stdout: per-leg verdict tables;
//! - `results/quality_guard.json` ([`SCHEMA`]).
//!
//! Flags: `--seed <u64>`, `--quick` (smaller waves), `--out <dir>`.

use sa_bench::{f, render_table, write_json, Args, REPLAY_THREADS};
use sa_serve::{
    mixed_workload, Ledger, Outcome, QualityGuard, QualityTransition, Scheduler, ServeConfig,
    SloSummary, TenantFloor,
};
use sa_tensor::fault::{self, FaultPlan};
use sa_tensor::pool;

/// The bench's results-file payload.
#[derive(Debug, Clone)]
struct QualityGuardReport {
    /// Results-file schema tag.
    schema: String,
    /// Workload, scheduler, and canary seed.
    seed: u64,
    /// Worker-thread counts the determinism leg replayed at.
    thread_counts: Vec<u64>,
    /// Requests per wave in the clean leg.
    clean_requests: u64,
    /// Waves replayed in the clean leg.
    clean_waves: u64,
    /// Canary-probed requests across the clean leg.
    clean_canaries: u64,
    /// Heads the clean leg's canaries probed (must be > 0: canaries at
    /// rung `full` probe none).
    clean_probed_heads: u64,
    /// Quarantine/readmit transitions on clean traffic (must be 0).
    clean_transitions: u64,
    /// `ShedQualityFloor` outcomes across the clean leg. A count, not a
    /// check: the clean load need not push the floored tenant into a
    /// refusal (it does not at the committed seed).
    clean_floor_sheds: u64,
    /// The floored tenant's uncertified-token permille in the final
    /// clean wave (must respect its floor).
    clean_floored_tenant_uncertified_permille: u64,
    /// SLO summary of the final clean wave (carries the per-tenant
    /// certified-goodput quality columns).
    clean_slo: SloSummary,
    /// Canary denominators the sweep replayed (0 = disabled).
    sweep_denominators: Vec<u64>,
    /// Canary-probed requests at each denominator.
    sweep_canaries: Vec<u64>,
    /// Certified goodput (certified served / span) at each denominator.
    sweep_certified_goodput: Vec<f64>,
    /// Whether served counts and certified goodput were identical at
    /// every canary rate (canaries never perturb scheduling).
    sweep_scheduling_invariant: bool,
    /// Requests per wave in the storm leg.
    storm_requests: u64,
    /// Sparse heads in the model (layers × heads per layer).
    storm_total_heads: u64,
    /// Heads quarantined after the storm wave (must equal
    /// `storm_total_heads`: the zero-mass fault poisons every head).
    storm_quarantined_heads: u64,
    /// Quarantine trips recorded during the storm.
    storm_trips: u64,
    /// Readmissions recorded during the probation waves.
    storm_readmits: u64,
    /// Heads still quarantined after probation (must be 0).
    storm_residual_quarantined: u64,
    /// Attempts that resumed from a checkpoint during the storm.
    storm_recovered_attempts: u64,
    /// Bit-flipped checkpoint restores the checksum caught in the
    /// canonical storm wave.
    storm_checkpoint_corruptions: u64,
    /// Whether ledgers and guard transitions were byte-identical at
    /// every replayed thread count.
    identical_across_threads: bool,
    /// The canonical storm + recovery transition trail.
    transitions: Vec<QualityTransition>,
    /// The canonical storm-wave ledger (single-threaded replay).
    storm_ledger: Ledger,
}

sa_json::impl_json_struct!(QualityGuardReport {
    schema,
    seed,
    thread_counts,
    clean_requests,
    clean_waves,
    clean_canaries,
    clean_probed_heads,
    clean_transitions,
    clean_floor_sheds,
    clean_floored_tenant_uncertified_permille,
    clean_slo,
    sweep_denominators,
    sweep_canaries,
    sweep_certified_goodput,
    sweep_scheduling_invariant,
    storm_requests,
    storm_total_heads,
    storm_quarantined_heads,
    storm_trips,
    storm_readmits,
    storm_residual_quarantined,
    storm_recovered_attempts,
    storm_checkpoint_corruptions,
    identical_across_threads,
    transitions,
    storm_ledger
});

/// Schema tag of `results/quality_guard.json`. `v2` reads the storm's
/// corrupt restores off one replay's ledger columns instead of summing
/// a process-wide counter over every replay.
const SCHEMA: &str = "sa.quality_guard.v2";

/// The tenant carrying a quality floor in the clean leg.
const FLOORED_TENANT: u64 = 0;

fn clean_config(seed: u64, denominator: u64) -> ServeConfig {
    ServeConfig {
        seed,
        canary_denominator: denominator,
        quality_floors: vec![TenantFloor {
            tenant: FLOORED_TENANT,
            // The floored tenant may degrade down to Tight but never to
            // the uncertified WindowOnly rung.
            max_rung_index: 2,
            max_uncertified_permille: 0,
        }],
        ..ServeConfig::default()
    }
}

fn storm_config(seed: u64) -> ServeConfig {
    ServeConfig {
        seed,
        // Probe every served request: the storm must observe every
        // injected corruption, not a sampled fraction.
        canary_denominator: 1,
        ..ServeConfig::default()
    }
}

fn storm_plan(seed: u64) -> FaultPlan {
    FaultPlan::new(seed)
        .zero_mass()
        .serve_crash("serve_attempt", 4)
        .kv_bit_flips(1)
}

fn main() {
    let args = Args::parse();
    let n = if args.quick { 12 } else { 32 };
    let clean_waves = 3usize;

    // Injected worker faults legitimately panic inside the pool's
    // containment; keep their backtraces quiet, surface anything else.
    let default_hook = std::panic::take_hook();
    std::panic::set_hook(Box::new(move |info| {
        let injected = info
            .payload()
            .downcast_ref::<String>()
            .is_some_and(|m| m.contains("injected fault"));
        if !injected {
            default_hook(info);
        }
    }));

    // --- Clean leg: floors + canaries on healthy traffic. ---
    let requests = mixed_workload(args.seed, n);
    let scheduler = Scheduler::new(clean_config(args.seed, 1)).expect("tiny model config is valid");
    let mut guard = QualityGuard::for_model(scheduler.model());
    let mut clean_canaries = 0u64;
    let mut clean_floor_sheds = 0u64;
    let mut last_ledger = None;
    for _ in 0..clean_waves {
        let (ledger, _) = scheduler
            .run_guarded_with_events(&requests, &mut guard)
            .expect("clean wave never fails");
        ledger
            .validate(&requests)
            .expect("clean ledger accounts for every request");
        clean_canaries += ledger.records.iter().filter(|r| r.canary).count() as u64;
        clean_floor_sheds += ledger.count(Outcome::ShedQualityFloor) as u64;
        last_ledger = Some(ledger);
    }
    let last_ledger = last_ledger.expect("at least one clean wave ran");
    let clean_slo = SloSummary::from_ledger("continuous_guarded", &last_ledger, &requests);
    let clean_probed_heads = guard.probed_heads();

    assert!(clean_canaries > 0, "clean leg probed no canaries");
    assert!(clean_probed_heads > 0, "clean leg's canaries probed no heads");
    assert!(
        guard.transitions().is_empty(),
        "false quarantine on clean traffic: {:?}",
        guard.transitions()
    );
    assert_eq!(guard.quarantined_count(), 0, "clean leg left heads quarantined");
    // The floored tenant never serves the uncertified rung.
    for rec in &last_ledger.records {
        if rec.tenant == FLOORED_TENANT && rec.outcome == Outcome::Served {
            assert_ne!(
                rec.rung, "window_only",
                "floored tenant served an uncertified rung (request {})",
                rec.id
            );
        }
    }
    let floored_row = clean_slo
        .tenants
        .iter()
        .find(|t| t.tenant == FLOORED_TENANT)
        .expect("floored tenant appears in the SLO quality columns");
    assert_eq!(
        floored_row.uncertified_permille, 0,
        "floored tenant exceeded its uncertified-token cap"
    );
    let clean_uncertified_permille = floored_row.uncertified_permille;

    let mut clean_rows = vec![vec![
        n.to_string(),
        clean_waves.to_string(),
        clean_canaries.to_string(),
        clean_probed_heads.to_string(),
        "0".to_string(),
        clean_floor_sheds.to_string(),
        f(clean_slo.certified_goodput_per_sec, 3),
    ]];
    println!("quality guard: clean leg (seed {})\n", args.seed);
    println!(
        "{}",
        render_table(
            &[
                "requests",
                "waves",
                "canaries",
                "probed_heads",
                "false_trips",
                "floor_sheds",
                "cert_goodput",
            ],
            &std::mem::take(&mut clean_rows)
        )
    );

    // --- Sweep leg: canaries are measurement-only. ---
    let denominators: Vec<u64> = vec![0, 64, 32, 8];
    let mut sweep_canaries = Vec::new();
    let mut sweep_goodput = Vec::new();
    let mut sweep_served = Vec::new();
    for &d in &denominators {
        let s = Scheduler::new(clean_config(args.seed, d)).expect("tiny model config is valid");
        let (ledger, _) = s
            .run_continuous_with_events(&requests)
            .expect("sweep wave never fails");
        ledger
            .validate(&requests)
            .expect("sweep ledger accounts for every request");
        let slo = SloSummary::from_ledger("continuous", &ledger, &requests);
        sweep_canaries.push(ledger.records.iter().filter(|r| r.canary).count() as u64);
        sweep_goodput.push(slo.certified_goodput_per_sec);
        sweep_served.push(ledger.count(Outcome::Served) as u64);
    }
    let sweep_invariant = sweep_served.iter().all(|&s| s == sweep_served[0])
        && sweep_goodput.iter().all(|&g| g == sweep_goodput[0]);
    assert!(
        sweep_invariant,
        "canary rate perturbed scheduling: served {sweep_served:?}, goodput {sweep_goodput:?}"
    );
    assert_eq!(sweep_canaries[0], 0, "denominator 0 must disable canaries");
    assert!(
        sweep_canaries.windows(2).all(|w| w[0] <= w[1]),
        "canary volume must grow as the denominator shrinks: {sweep_canaries:?}"
    );
    let sweep_rows: Vec<Vec<String>> = denominators
        .iter()
        .zip(&sweep_canaries)
        .zip(&sweep_goodput)
        .map(|((d, c), g)| vec![d.to_string(), c.to_string(), f(*g, 3)])
        .collect();
    println!("sweep leg: certified goodput vs canary rate\n");
    println!(
        "{}",
        render_table(&["denominator", "canaries", "cert_goodput"], &sweep_rows)
    );

    // --- Storm leg: every corruption detected, then full recovery. ---
    let storm_requests = mixed_workload(args.seed ^ 0x51_07, n);
    let storm_scheduler = Scheduler::new(storm_config(args.seed)).expect("tiny model config is valid");
    let total_heads = storm_scheduler.model().layers().len()
        * storm_scheduler
            .model()
            .layers()
            .first()
            .map_or(0, |l| l.num_heads());
    let probation_waves = 3usize;

    // Replay the whole storm-then-recovery trajectory at every thread
    // count; ledgers and the guard's transition trail must not budge.
    let mut trajectories: Vec<(Vec<String>, String, usize, u64)> = Vec::new();
    let mut canonical_ledgers: Vec<Ledger> = Vec::new();
    let mut canonical_guard = None;
    for &t in &REPLAY_THREADS {
        let mut g = QualityGuard::for_model(storm_scheduler.model());
        let mut quarantined_after_storm = 0u64;
        let ledgers = pool::with_threads(t, || {
            let mut out = Vec::new();
            {
                let _faults = fault::install(storm_plan(args.seed));
                let (ledger, _) = storm_scheduler
                    .run_guarded_with_events(&storm_requests, &mut g)
                    .expect("storm wave never fails");
                ledger
                    .validate(&storm_requests)
                    .expect("storm ledger accounts for every request");
                out.push(ledger);
            }
            quarantined_after_storm = g.quarantined_count() as u64;
            for _ in 0..probation_waves {
                let (ledger, _) = storm_scheduler
                    .run_guarded_with_events(&storm_requests, &mut g)
                    .expect("probation wave never fails");
                ledger
                    .validate(&storm_requests)
                    .expect("probation ledger accounts for every request");
                out.push(ledger);
            }
            out
        });
        let ledger_json: Vec<String> = ledgers.iter().map(sa_json::to_string).collect();
        let transitions_json = sa_json::to_string(&g.transitions().to_vec());
        trajectories.push((
            ledger_json,
            transitions_json,
            g.quarantined_count(),
            quarantined_after_storm,
        ));
        if canonical_guard.is_none() {
            canonical_ledgers = ledgers;
            canonical_guard = Some(g);
        }
    }
    let canonical_guard = canonical_guard.expect("at least one thread count replayed");
    let identical = trajectories
        .iter()
        .all(|(l, t, q, qs)| {
            (l, t, q, qs)
                == (
                    &trajectories[0].0,
                    &trajectories[0].1,
                    &trajectories[0].2,
                    &trajectories[0].3,
                )
        });
    assert!(
        identical,
        "storm trajectory differs across thread counts {REPLAY_THREADS:?}"
    );

    let quarantined_after_storm = trajectories[0].3;
    let residual = trajectories[0].2 as u64;
    let trips = canonical_guard
        .transitions()
        .iter()
        .filter(|t| t.action == "quarantine")
        .count() as u64;
    let readmits = canonical_guard
        .transitions()
        .iter()
        .filter(|t| t.action == "readmit")
        .count() as u64;
    let storm_ledger = canonical_ledgers
        .first()
        .cloned()
        .expect("storm wave produced a ledger");
    let storm_recovered: u64 = storm_ledger
        .records
        .iter()
        .map(|r| r.recovered_attempts)
        .sum();
    let storm_corruptions: u64 = storm_ledger
        .records
        .iter()
        .map(|r| r.checkpoint_corruptions)
        .sum();
    assert!(
        storm_corruptions > 0,
        "storm bit-flips never tripped the restore checksum"
    );

    // The zero-mass fault poisons stage 1 of every sparse head: the
    // detector must have caught every one of them.
    assert_eq!(
        quarantined_after_storm as usize, total_heads,
        "storm corruption escaped the detector on some heads"
    );
    assert_eq!(
        residual, 0,
        "{residual} heads never re-admitted after clean probation"
    );
    assert!(readmits >= total_heads as u64, "probation re-admitted too few heads");
    assert!(
        storm_ledger.count(Outcome::Served) > 0,
        "storm leg served nothing"
    );

    let storm_rows = vec![vec![
        n.to_string(),
        total_heads.to_string(),
        quarantined_after_storm.to_string(),
        trips.to_string(),
        readmits.to_string(),
        residual.to_string(),
        storm_recovered.to_string(),
        storm_corruptions.to_string(),
    ]];
    println!("storm leg: zero-mass + crash + kv-flip fault plan\n");
    println!(
        "{}",
        render_table(
            &[
                "requests",
                "heads",
                "quarantined",
                "trips",
                "readmits",
                "residual",
                "recovered",
                "kv_caught",
            ],
            &storm_rows
        )
    );

    let report = QualityGuardReport {
        schema: SCHEMA.to_string(),
        seed: args.seed,
        thread_counts: REPLAY_THREADS.iter().map(|&t| t as u64).collect(),
        clean_requests: n as u64,
        clean_waves: clean_waves as u64,
        clean_canaries,
        clean_probed_heads,
        clean_transitions: 0,
        clean_floor_sheds,
        clean_floored_tenant_uncertified_permille: clean_uncertified_permille,
        clean_slo,
        sweep_denominators: denominators,
        sweep_canaries,
        sweep_certified_goodput: sweep_goodput,
        sweep_scheduling_invariant: sweep_invariant,
        storm_requests: n as u64,
        storm_total_heads: total_heads as u64,
        storm_quarantined_heads: quarantined_after_storm,
        storm_trips: trips,
        storm_readmits: readmits,
        storm_residual_quarantined: residual,
        storm_recovered_attempts: storm_recovered,
        storm_checkpoint_corruptions: storm_corruptions,
        identical_across_threads: identical,
        transitions: canonical_guard.transitions().to_vec(),
        storm_ledger,
    };
    if let Some(path) = write_json(&args, "quality_guard", &report) {
        println!("wrote {}", path.display());
    }
    println!(
        "verdict: {} heads quarantined and re-admitted, 0 false trips, ledgers + transitions identical at threads {:?}",
        total_heads, REPLAY_THREADS
    );
}
