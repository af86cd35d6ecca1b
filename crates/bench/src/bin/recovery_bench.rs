//! recovery_bench: resume-from-checkpoint vs retry-from-scratch under
//! a fault storm.
//!
//! Both legs replay the same seeded [`sa_serve::fault_storm_workload`]
//! through the continuous-batching planner with configs that differ in
//! exactly one bit: [`recovery_enabled`](sa_serve::ServeConfig::recovery_enabled).
//! With recovery **on**, every crashed attempt resumes from its
//! chunk-boundary checkpoint and recomputes at most the one in-flight
//! chunk; with recovery **off**, it retries from scratch and recomputes
//! everything the crashed attempt had completed. The bench asserts the
//! recovery contract on every point:
//!
//! - **strictly less recompute** — resume recomputes fewer prefill
//!   tokens than scratch (the storm guarantees crashes with progress
//!   worth preserving);
//! - **no worse goodput** — served-within-deadline throughput with
//!   recovery on is at least the scratch baseline's;
//! - **recovery actually ran** — every point tallies at least one
//!   resumed attempt.
//!
//! One point also replays through the *executing* scheduler
//! ([`Scheduler::run_continuous_with_events`]) at 1, 2 and 3 worker
//! threads ([`REPLAY_THREADS`]), asserting the recovered ledgers are
//! bit-identical and account for every request — crash recovery must
//! not cost the repo its determinism contract.
//!
//! Outputs:
//! - stdout: the per-point comparison table;
//! - `results/recovery.json`: schema [`SCHEMA`].
//!
//! Flags: `--seed <u64>`, `--quick` (smaller storm points), `--out <dir>`.

use sa_bench::{render_table, write_json, Args, REPLAY_THREADS};
use sa_serve::{
    fault_storm_workload, lifecycles, plan_continuous_with_events, Ledger, Outcome, Scheduler,
    ServeConfig, SloSummary,
};
use sa_tensor::pool;

/// One storm point's recovery-vs-scratch comparison.
#[derive(Debug, Clone, PartialEq)]
struct RecoveryPoint {
    /// Requests in the storm.
    requests: u64,
    /// Workload / scheduler seed of this point.
    seed: u64,
    /// Prefill tokens the streams offered (prompt + decode tokens) —
    /// the denominator of the wasted-work ratios.
    offered_tokens: u64,
    /// Attempts that resumed from a checkpoint (recovery leg).
    recovered_attempts: u64,
    /// Prefill tokens recomputed after crashes, recovery on.
    recomputed_tokens_resume: u64,
    /// Prefill tokens recomputed after crashes, recovery off.
    recomputed_tokens_scratch: u64,
    /// `recomputed / offered`, recovery on.
    wasted_ratio_resume: f64,
    /// `recomputed / offered`, recovery off.
    wasted_ratio_scratch: f64,
    /// Requests served, recovery on.
    served_resume: u64,
    /// Requests served, recovery off.
    served_scratch: u64,
    /// Served-within-deadline per virtual second, recovery on.
    goodput_resume: f64,
    /// Served-within-deadline per virtual second, recovery off.
    goodput_scratch: f64,
}

sa_json::impl_json_struct!(RecoveryPoint {
    requests,
    seed,
    offered_tokens,
    recovered_attempts,
    recomputed_tokens_resume,
    recomputed_tokens_scratch,
    wasted_ratio_resume,
    wasted_ratio_scratch,
    served_resume,
    served_scratch,
    goodput_resume,
    goodput_scratch
});

/// The bench's results-file payload.
#[derive(Debug, Clone, PartialEq)]
struct RecoveryReport {
    /// Results-file schema tag ([`SCHEMA`]).
    schema: String,
    /// Master seed (point seeds derive from it).
    seed: u64,
    /// Per-point comparisons, smallest storm first.
    points: Vec<RecoveryPoint>,
    /// Worker-thread counts of the execution identity check.
    thread_counts: Vec<u64>,
    /// Whether the executed recovery ledger was bit-identical at every
    /// replayed thread count.
    identical_across_threads: bool,
    /// Checkpoints the canonical executed ledger captured.
    checkpoint_snapshots: u64,
    /// Checkpoints the canonical executed ledger restored.
    checkpoint_restores: u64,
    /// The canonical executed ledger (single-threaded replay).
    ledger: Ledger,
}

sa_json::impl_json_struct!(RecoveryReport {
    schema,
    seed,
    points,
    thread_counts,
    identical_across_threads,
    checkpoint_snapshots,
    checkpoint_restores,
    ledger
});

/// Schema tag of `results/recovery.json`. `v2` reads the checkpoint
/// tallies off one replay's ledger columns instead of summing
/// process-wide counters over every replay.
const SCHEMA: &str = "sa.recovery.v2";

/// The bench's config: the requested leg over a doubled memory budget.
/// The storm's long prompts would otherwise push the planner into the
/// governor's Critical regime, where a single urgent giant can be shed
/// in one leg and placed in the other purely on admission timing —
/// that pressure ladder is `chaos_soak`'s contract; this bench isolates
/// what crash recovery itself does to recompute and goodput.
fn bench_cfg(seed: u64, recovery: bool) -> ServeConfig {
    let base = ServeConfig::default();
    ServeConfig {
        seed,
        recovery_enabled: recovery,
        mem_budget_bytes: base.mem_budget_bytes * 2,
        ..base
    }
}

/// Plans one leg and reduces its event log to the point's tallies.
fn plan_leg(seed: u64, recovery: bool, requests: &[sa_serve::Request]) -> (u64, u64, u64, f64) {
    let (_, log) = plan_continuous_with_events(&bench_cfg(seed, recovery), requests);
    let lifecycles = lifecycles(&log, requests);
    let recovered: u64 = lifecycles.iter().map(|lc| lc.recovered_attempts).sum();
    let recomputed: u64 = lifecycles.iter().map(|lc| lc.recomputed_tokens).sum();
    let slo = SloSummary::from_events("continuous", &log, requests);
    (recovered, recomputed, slo.served, slo.goodput_per_sec)
}

fn main() {
    let args = Args::parse();

    // Injected crashes are *expected* to panic inside the pool's
    // containment; keep their backtraces off the bench's output while
    // leaving any unexpected panic loudly visible.
    let default_hook = std::panic::take_hook();
    std::panic::set_hook(Box::new(move |info| {
        let injected = info
            .payload()
            .downcast_ref::<String>()
            .is_some_and(|m| m.contains("injected"));
        if !injected {
            default_hook(info);
        }
    }));

    let sizes: &[usize] = if args.quick { &[12, 24] } else { &[24, 48, 96] };
    let mut points = Vec::new();
    let mut rows = Vec::new();
    for (i, &n) in sizes.iter().enumerate() {
        let seed = args.seed.wrapping_add(i as u64);
        let requests = fault_storm_workload(seed, n);
        let offered: u64 = requests
            .iter()
            .map(|r| (r.seq_len + r.new_tokens) as u64)
            .sum();

        let (recovered, rec_resume, served_resume, goodput_resume) =
            plan_leg(seed, true, &requests);
        let (scratch_recovered, rec_scratch, served_scratch, goodput_scratch) =
            plan_leg(seed, false, &requests);

        // The recovery contract, on every point.
        assert_eq!(scratch_recovered, 0, "scratch leg cannot resume");
        assert!(recovered > 0, "storm of {n} never exercised recovery");
        assert!(
            rec_resume < rec_scratch,
            "resume recomputed {rec_resume} tokens, scratch only {rec_scratch} — \
             checkpoints must strictly reduce recompute"
        );
        assert!(
            goodput_resume >= goodput_scratch,
            "recovery goodput {goodput_resume:.3}/s fell below scratch {goodput_scratch:.3}/s"
        );

        rows.push(vec![
            n.to_string(),
            recovered.to_string(),
            rec_resume.to_string(),
            rec_scratch.to_string(),
            format!("{:.3}", rec_resume as f64 / offered as f64),
            format!("{:.3}", rec_scratch as f64 / offered as f64),
            format!("{served_resume}/{served_scratch}"),
            format!("{goodput_resume:.3}"),
            format!("{goodput_scratch:.3}"),
        ]);
        points.push(RecoveryPoint {
            requests: n as u64,
            seed,
            offered_tokens: offered,
            recovered_attempts: recovered,
            recomputed_tokens_resume: rec_resume,
            recomputed_tokens_scratch: rec_scratch,
            wasted_ratio_resume: rec_resume as f64 / offered as f64,
            wasted_ratio_scratch: rec_scratch as f64 / offered as f64,
            served_resume,
            served_scratch,
            goodput_resume,
            goodput_scratch,
        });
    }

    println!("recovery bench: fault storms, seed {}\n", args.seed);
    println!(
        "{}",
        render_table(
            &[
                "requests",
                "resumed",
                "recompute(resume)",
                "recompute(scratch)",
                "wasted(resume)",
                "wasted(scratch)",
                "served r/s",
                "goodput(resume)",
                "goodput(scratch)",
            ],
            &rows
        )
    );

    // --- Execution identity check: the smallest point, with recovery
    // on, through the real scheduler at several thread counts. ---
    let exec_seed = args.seed;
    let exec_requests = fault_storm_workload(exec_seed, sizes[0]);
    let exec = Scheduler::new(bench_cfg(exec_seed, true)).expect("tiny model config is valid");

    let mut ledgers: Vec<Ledger> = Vec::new();
    for &t in &REPLAY_THREADS {
        let (ledger, _) = pool::with_threads(t, || exec.run_continuous_with_events(&exec_requests))
            .expect("continuous replay never fails");
        ledger
            .validate(&exec_requests)
            .expect("recovered ledger accounts for every request");
        ledgers.push(ledger);
    }
    let canonical = &ledgers[0];
    let identical = ledgers.iter().all(|l| l == canonical);
    assert!(identical, "recovered ledger differs across thread counts");
    assert!(
        canonical.count(Outcome::Served) > 0,
        "execution leg served nothing"
    );
    let exec_recovered: u64 = canonical.records.iter().map(|r| r.recovered_attempts).sum();
    assert!(exec_recovered > 0, "execution leg never resumed a checkpoint");
    let snapshots: u64 = canonical.records.iter().map(|r| r.checkpoint_snapshots).sum();
    let restores: u64 = canonical.records.iter().map(|r| r.checkpoint_restores).sum();
    assert!(snapshots > 0, "execution leg captured no checkpoints");
    assert!(restores > 0, "execution leg restored no checkpoints");

    let report = RecoveryReport {
        schema: SCHEMA.to_string(),
        seed: args.seed,
        points,
        thread_counts: REPLAY_THREADS.iter().map(|&t| t as u64).collect(),
        identical_across_threads: identical,
        checkpoint_snapshots: snapshots,
        checkpoint_restores: restores,
        ledger: canonical.clone(),
    };
    if let Some(path) = write_json(&args, "recovery", &report) {
        println!("wrote {}", path.display());
    }
    println!(
        "verdict: {} storm points, resume strictly cheaper on all, ledgers identical at threads {:?}",
        sizes.len(),
        REPLAY_THREADS
    );
}
