//! chaos_soak: replays a seeded adversarial serving workload through
//! the `sa-serve` scheduler at several `SA_THREADS` settings and
//! asserts the robustness contract end to end:
//!
//! - **zero panics** — every injected worker fault, cancellation, and
//!   rejection surfaces as a typed outcome in the ledger;
//! - **zero lost requests** — the ledger accounts for every submitted
//!   request exactly once ([`Ledger::validate`]);
//! - **deterministic ledger** — the serialized outcome ledger is
//!   bit-identical at 1, 2 and 3 worker threads ([`REPLAY_THREADS`]);
//! - **no silent degradation** — any request served below the CRA α
//!   target carries `alpha_satisfied = false` in its report.
//!
//! The workload ([`sa_serve::mixed_workload`]) blends chunked prefills
//! and decode sessions with deadline tiers from generous to brutal,
//! caller cancellations, transient worker faults (retried with seeded
//! backoff), and permanent faults (retry budget exhausted).
//!
//! The soak runs **three legs** with the same contract, all through
//! [`Scheduler::run_continuous_with_events`]: the batch leg over
//! `mixed_workload`, the continuous leg over a seeded open-loop
//! flash-crowd arrival stream
//! ([`sa_serve::open_loop_workload`]), and a
//! **fault storm** ([`sa_serve::fault_storm_workload`]) replayed under
//! a [`FaultPlan`] installed around the replay that layers serving-loop
//! crashes, failed restore allocations, and checkpoint bit-flips on top of the
//! workload's own planned crashes — crash recovery must keep the whole
//! contract: nothing lost, every fault typed, ledgers bit-identical.
//!
//! Outputs:
//! - stdout: outcome tally per thread count;
//! - `results/chaos_soak.json`: the full ledgers plus soak verdicts; its
//!   storm tallies are column sums of the canonical storm ledger.
//!
//! Flags: `--seed <u64>`, `--quick` (12 requests instead of 48, shorter
//! open-loop stream, smaller storm), `--out <dir>`.

use sa_bench::{render_table, write_json, Args, REPLAY_THREADS};
use sa_serve::{
    fault_storm_workload, mixed_workload, open_loop_workload, Ledger, Outcome, RequestRecord,
    Scheduler, ServeConfig,
};
use sa_tensor::fault::{self, FaultPlan};
use sa_tensor::pool;
use sa_workloads::{ArrivalProcess, ArrivalShape};

/// The soak's results-file payload.
#[derive(Debug, Clone, PartialEq)]
struct ChaosSoakReport {
    /// Results-file schema tag.
    schema: String,
    /// Workload and scheduler seed.
    seed: u64,
    /// Requests in the replayed batch.
    requests: u64,
    /// Worker-thread counts the batch was replayed at.
    thread_counts: Vec<u64>,
    /// Whether every replay produced a bit-identical ledger.
    identical_across_threads: bool,
    /// Outcome tally, name → count (sorted by name).
    outcome_counts: Vec<(String, u64)>,
    /// Requests that ran below full attention.
    degraded: u64,
    /// Requests served with the α target certified.
    alpha_certified: u64,
    /// Total retries across the batch.
    retries: u64,
    /// The canonical ledger (from the single-threaded replay).
    ledger: Ledger,
    /// Requests in the open-loop stream of the continuous leg.
    continuous_requests: u64,
    /// Whether the continuous ledger was bit-identical at every
    /// replayed thread count.
    continuous_identical_across_threads: bool,
    /// Continuous-leg outcome tally, name → count (sorted by name).
    continuous_outcome_counts: Vec<(String, u64)>,
    /// The canonical continuous ledger (single-threaded replay).
    continuous_ledger: Ledger,
    /// Requests in the fault-storm leg.
    storm_requests: u64,
    /// Whether the storm ledger was bit-identical at every replayed
    /// thread count.
    storm_identical_across_threads: bool,
    /// Storm-leg outcome tally, name → count (sorted by name).
    storm_outcome_counts: Vec<(String, u64)>,
    /// Attempts across the storm that resumed from a checkpoint.
    storm_recovered_attempts: u64,
    /// Prefill tokens the storm recomputed after crashes.
    storm_recomputed_tokens: u64,
    /// Checkpoints the storm captured.
    storm_checkpoint_snapshots: u64,
    /// Restores the storm's bit-flip faults corrupted (all fell back
    /// to scratch, never a wrong answer).
    storm_checkpoint_corruptions: u64,
    /// Restore stagings the storm's alloc faults failed (ditto).
    storm_alloc_faults: u64,
    /// The canonical storm ledger (single-threaded replay).
    storm_ledger: Ledger,
}

sa_json::impl_json_struct!(ChaosSoakReport {
    schema,
    seed,
    requests,
    thread_counts,
    identical_across_threads,
    outcome_counts,
    degraded,
    alpha_certified,
    retries,
    ledger,
    continuous_requests,
    continuous_identical_across_threads,
    continuous_outcome_counts,
    continuous_ledger,
    storm_requests,
    storm_identical_across_threads,
    storm_outcome_counts,
    storm_recovered_attempts,
    storm_recomputed_tokens,
    storm_checkpoint_snapshots,
    storm_checkpoint_corruptions,
    storm_alloc_faults,
    storm_ledger
});

/// Schema tag of `results/chaos_soak.json`. `v2` added the
/// continuous-batching leg (`continuous_*` fields); `v3` the
/// fault-storm crash-recovery leg (`storm_*` fields); `v4` reads the
/// storm's execution tallies off one replay's ledger columns instead of
/// summing process-wide counters over every replay.
const SCHEMA: &str = "sa.chaos_soak.v4";

fn outcome_name(o: Outcome) -> &'static str {
    match o {
        Outcome::Served => "served",
        Outcome::RejectedOverloaded => "rejected_overloaded",
        Outcome::RejectedBudget => "rejected_budget",
        Outcome::ExpiredInQueue => "expired_in_queue",
        Outcome::DeadlineExceeded => "deadline_exceeded",
        Outcome::Cancelled => "cancelled",
        Outcome::Failed => "failed",
        Outcome::ShedQualityFloor => "shed_quality_floor",
    }
}

const ALL_OUTCOMES: [Outcome; 8] = [
    Outcome::Served,
    Outcome::RejectedOverloaded,
    Outcome::RejectedBudget,
    Outcome::ExpiredInQueue,
    Outcome::DeadlineExceeded,
    Outcome::Cancelled,
    Outcome::Failed,
    Outcome::ShedQualityFloor,
];

fn main() {
    let args = Args::parse();
    let n = if args.quick { 12 } else { 48 };

    // Injected worker faults are *expected* to panic inside the pool's
    // containment; keep their backtraces off the soak's output while
    // leaving any unexpected panic loudly visible.
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

    let cfg = ServeConfig {
        seed: args.seed,
        // Shallow pending queue so the soak exercises Overloaded
        // rejections as well as queue expiries and budget rejections (the
        // default queue is deep enough that this workload never
        // overflows it).
        max_pending: 4,
        ..ServeConfig::default()
    };
    let scheduler = Scheduler::new(cfg).expect("tiny model config is valid");
    let requests = mixed_workload(args.seed, n);

    let mut ledgers: Vec<Ledger> = Vec::new();
    for &t in &REPLAY_THREADS {
        let (ledger, _) = pool::with_threads(t, || scheduler.run_continuous_with_events(&requests))
            .expect("scheduler batch never fails");
        ledger
            .validate(&requests)
            .expect("ledger accounts for every request");
        ledgers.push(ledger);
    }

    let canonical = &ledgers[0];
    let identical = ledgers.iter().all(|l| l == canonical);

    // Outcome tally + soak verdict table.
    let mut rows = Vec::new();
    for (t, ledger) in REPLAY_THREADS.iter().zip(&ledgers) {
        let mut row = vec![t.to_string()];
        for o in ALL_OUTCOMES {
            row.push(ledger.count(o).to_string());
        }
        row.push(if ledger == canonical { "yes" } else { "NO" }.to_string());
        rows.push(row);
    }
    let headers: Vec<&str> = std::iter::once("threads")
        .chain(ALL_OUTCOMES.iter().map(|&o| outcome_name(o)))
        .chain(std::iter::once("identical"))
        .collect();
    println!("chaos soak: {n} requests, seed {}\n", args.seed);
    println!("{}", render_table(&headers, &rows));

    assert!(identical, "outcome ledger differs across thread counts");
    let degraded = canonical.records.iter().filter(|r| r.degraded).count() as u64;
    let alpha_certified = canonical
        .records
        .iter()
        .filter(|r| r.alpha_satisfied)
        .count() as u64;
    let retries: u64 = canonical.records.iter().map(|r| r.retries).sum();
    // A seeded mixed workload must actually exercise the machinery.
    assert!(canonical.count(Outcome::Served) > 0, "nothing was served");
    assert!(
        canonical.count(Outcome::Served) < n,
        "no adversity was exercised"
    );
    for rec in &canonical.records {
        assert!(
            !(rec.rung == "window_only" && rec.alpha_satisfied),
            "request {} dropped below alpha silently",
            rec.id
        );
    }

    // --- Continuous leg: the same contract over an open-loop stream. ---
    // A flash-crowd arrival process stresses admission, shedding, and
    // tenant fairness harder than the closed-loop trickle above; the
    // deep default queue lets the continuous planner own its shedding.
    let cont_cfg = ServeConfig {
        seed: args.seed,
        ..ServeConfig::default()
    };
    let cont_scheduler = Scheduler::new(cont_cfg).expect("tiny model config is valid");
    let process = ArrivalProcess {
        seed: args.seed ^ 0x0511,
        rate_per_sec: 3.0,
        // The quiet/burst cycle is short enough that even the quick
        // stream crosses a burst crest — the leg must shed something,
        // or it proves nothing.
        shape: ArrivalShape::FlashCrowd {
            quiet_ms: 3_000,
            burst_ms: 1_500,
            multiplier: 6.0,
        },
    };
    let cont_duration_ms = if args.quick { 8_000 } else { 20_000 };
    let stream = open_loop_workload(args.seed, &process, cont_duration_ms, 3);

    let mut cont_ledgers: Vec<Ledger> = Vec::new();
    for &t in &REPLAY_THREADS {
        let (ledger, _) =
            pool::with_threads(t, || cont_scheduler.run_continuous_with_events(&stream))
            .expect("continuous replay never fails");
        ledger
            .validate(&stream)
            .expect("continuous ledger accounts for every request");
        cont_ledgers.push(ledger);
    }
    let cont_canonical = &cont_ledgers[0];
    let cont_identical = cont_ledgers.iter().all(|l| l == cont_canonical);

    let mut cont_rows = Vec::new();
    for (t, ledger) in REPLAY_THREADS.iter().zip(&cont_ledgers) {
        let mut row = vec![t.to_string()];
        for o in ALL_OUTCOMES {
            row.push(ledger.count(o).to_string());
        }
        row.push(if ledger == cont_canonical { "yes" } else { "NO" }.to_string());
        cont_rows.push(row);
    }
    println!(
        "continuous soak: {} open-loop requests over {} ms\n",
        stream.len(),
        cont_duration_ms
    );
    println!("{}", render_table(&headers, &cont_rows));

    assert!(
        cont_identical,
        "continuous ledger differs across thread counts"
    );
    assert!(
        cont_canonical.count(Outcome::Served) > 0,
        "continuous leg served nothing"
    );
    assert!(
        cont_canonical.count(Outcome::Served) < stream.len(),
        "continuous leg exercised no adversity"
    );
    for rec in &cont_canonical.records {
        assert!(
            !(rec.rung == "window_only" && rec.alpha_satisfied),
            "continuous request {} dropped below alpha silently",
            rec.id
        );
    }

    // --- Fault-storm leg: crash recovery under a full fault plan. ---
    // The storm workload's planned crashes (dense `fault_fails`) meet a
    // plan installed around the replay that also crashes one in four
    // attempt salts outright, fails one in three restore stagings, and flips a
    // bit in every staged checkpoint (caught by the checksum, falling
    // back to scratch). The contract does not bend: zero lost requests,
    // every fault surfaces typed, and the ledger stays bit-identical at
    // every thread count.
    let storm_n = if args.quick { 16 } else { 40 };
    let storm = fault_storm_workload(args.seed, storm_n);
    let storm_cfg = ServeConfig {
        seed: args.seed,
        ..ServeConfig::default()
    };
    let storm_scheduler = Scheduler::new(storm_cfg).expect("tiny model config is valid");

    let mut storm_ledgers: Vec<Ledger> = Vec::new();
    {
        let _storm_faults = fault::install(
            FaultPlan::new(args.seed)
                .serve_crash("serve_attempt", 4)
                .alloc_failures(3)
                .kv_bit_flips(1),
        );
        for &t in &REPLAY_THREADS {
            let (ledger, _) =
                pool::with_threads(t, || storm_scheduler.run_continuous_with_events(&storm))
                .expect("storm replay never fails");
            ledger
                .validate(&storm)
                .expect("storm ledger accounts for every request");
            storm_ledgers.push(ledger);
        }
    }
    let storm_canonical = &storm_ledgers[0];
    let storm_identical = storm_ledgers.iter().all(|l| l == storm_canonical);

    let mut storm_rows = Vec::new();
    for (t, ledger) in REPLAY_THREADS.iter().zip(&storm_ledgers) {
        let mut row = vec![t.to_string()];
        for o in ALL_OUTCOMES {
            row.push(ledger.count(o).to_string());
        }
        row.push(if ledger == storm_canonical { "yes" } else { "NO" }.to_string());
        storm_rows.push(row);
    }
    println!("fault storm: {storm_n} requests under crash/alloc/bit-flip faults\n");
    println!("{}", render_table(&headers, &storm_rows));

    assert!(storm_identical, "storm ledger differs across thread counts");
    assert!(
        storm_canonical.count(Outcome::Served) > 0,
        "storm leg served nothing"
    );
    let storm_total = |column: fn(&RequestRecord) -> u64| -> u64 {
        storm_canonical.records.iter().map(column).sum()
    };
    let storm_recovered = storm_total(|r| r.recovered_attempts);
    let storm_recomputed = storm_total(|r| r.recomputed_tokens);
    assert!(storm_recovered > 0, "storm leg never resumed a checkpoint");
    let storm_snapshots = storm_total(|r| r.checkpoint_snapshots);
    let storm_corruptions = storm_total(|r| r.checkpoint_corruptions);
    let storm_alloc = storm_total(|r| r.alloc_faults);
    assert!(storm_snapshots > 0, "storm leg captured no checkpoints");
    assert!(
        storm_corruptions > 0,
        "storm bit-flips never tripped the restore checksum"
    );
    assert!(
        storm_alloc > 0,
        "storm alloc faults never hit a restore staging"
    );

    let report = ChaosSoakReport {
        schema: SCHEMA.to_string(),
        seed: args.seed,
        requests: n as u64,
        thread_counts: REPLAY_THREADS.iter().map(|&t| t as u64).collect(),
        identical_across_threads: identical,
        outcome_counts: ALL_OUTCOMES
            .iter()
            .map(|&o| (outcome_name(o).to_string(), canonical.count(o) as u64))
            .collect(),
        degraded,
        alpha_certified,
        retries,
        ledger: canonical.clone(),
        continuous_requests: stream.len() as u64,
        continuous_identical_across_threads: cont_identical,
        continuous_outcome_counts: ALL_OUTCOMES
            .iter()
            .map(|&o| (outcome_name(o).to_string(), cont_canonical.count(o) as u64))
            .collect(),
        continuous_ledger: cont_canonical.clone(),
        storm_requests: storm_n as u64,
        storm_identical_across_threads: storm_identical,
        storm_outcome_counts: ALL_OUTCOMES
            .iter()
            .map(|&o| (outcome_name(o).to_string(), storm_canonical.count(o) as u64))
            .collect(),
        storm_recovered_attempts: storm_recovered,
        storm_recomputed_tokens: storm_recomputed,
        storm_checkpoint_snapshots: storm_snapshots,
        storm_checkpoint_corruptions: storm_corruptions,
        storm_alloc_faults: storm_alloc,
        storm_ledger: storm_canonical.clone(),
    };
    if let Some(path) = write_json(&args, "chaos_soak", &report) {
        println!("wrote {}", path.display());
    }
    println!(
        "verdict: {} batch + {} continuous + {} storm requests, 0 lost, 0 panics, all ledgers identical at threads {:?}",
        n,
        stream.len(),
        storm_n,
        REPLAY_THREADS
    );
}
