//! slo_sweep: sweeps seeded open-loop arrival streams (constant,
//! diurnal, and flash-crowd rate shapes at several mean rates) through
//! both sa-serve schedulers **on the virtual clock only** — the
//! one-shot batch planner and the continuous-batching planner — and
//! reports the serving SLOs per point:
//!
//! - **TTFT** p50/p90/p95/p99 (arrival → first output token);
//! - **TPOT** p50/p90/p95/p99 (decode pace of served multi-token
//!   requests);
//! - **goodput**: requests served within their deadline per virtual
//!   second.
//!
//! Because every outcome and timestamp is fixed by the deterministic
//! planners, no model work runs: the sweep covers dozens of
//! (shape × rate) points in milliseconds, and re-running it with the
//! same seed reproduces the report byte for byte.
//!
//! The sweep asserts the tentpole property of continuous batching: at
//! every point, the continuous scheduler's goodput is **at least** the
//! one-shot scheduler's on the same arrival trace and memory budget.
//!
//! Outputs:
//! - stdout: one row per sweep point (requests, goodput both ways,
//!   continuous TTFT p50/p99);
//! - `results/slo_report.json` (`sa.slo.v1`): full per-point
//!   [`SloSummary`] pairs.
//!
//! Flags: `--seed <u64>`, `--quick` (fewer rates, shorter streams),
//! `--out <dir>`.

use sa_bench::{f, render_table, write_json, Args};
use sa_serve::{open_loop_workload, plan_batch, plan_continuous, ServeConfig, SloSummary, SLO_SCHEMA};
use sa_workloads::{ArrivalProcess, ArrivalShape};

/// One (shape × rate) point of the sweep.
#[derive(Debug, Clone, PartialEq)]
struct SloPoint {
    /// Arrival-rate shape (`constant` / `diurnal` / `flash_crowd`).
    shape: String,
    /// Mean arrival rate of the stream, requests per virtual second.
    rate_per_sec: f64,
    /// Stream duration, virtual ms.
    duration_ms: u64,
    /// Requests the stream drew.
    requests: u64,
    /// SLO summary under the continuous-batching scheduler.
    continuous: SloSummary,
    /// SLO summary under the one-shot batch scheduler.
    oneshot: SloSummary,
}

sa_json::impl_json_struct!(SloPoint {
    shape,
    rate_per_sec,
    duration_ms,
    requests,
    continuous,
    oneshot
});

/// The `results/slo_report.json` payload.
#[derive(Debug, Clone, PartialEq)]
struct SloReport {
    /// Results-file schema tag ([`SLO_SCHEMA`]).
    schema: String,
    /// Workload / scheduler seed.
    seed: u64,
    /// Tenants sharing the token-bucket quotas.
    tenants: u64,
    /// Whether continuous goodput ≥ one-shot goodput held at every point.
    continuous_never_worse: bool,
    /// The sweep, one entry per (shape × rate).
    points: Vec<SloPoint>,
}

sa_json::impl_json_struct!(SloReport {
    schema,
    seed,
    tenants,
    continuous_never_worse,
    points
});

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

fn main() {
    let args = Args::parse();
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

    let mut points = Vec::new();
    let mut rows = Vec::new();
    let mut never_worse = true;
    for (shape_name, shape) in shapes() {
        for &rate in &rates {
            let process = ArrivalProcess {
                seed: args.seed ^ (rate * 16.0) as u64,
                rate_per_sec: rate,
                shape,
            };
            let requests = open_loop_workload(args.seed, &process, duration_ms, tenants);
            let cont_plans = plan_continuous(&cfg, &requests);
            let oneshot_plans = plan_batch(&cfg, &requests);
            let continuous =
                SloSummary::from_continuous_plans("continuous", &cont_plans, &requests);
            let oneshot = SloSummary::from_oneshot_plans("oneshot", &oneshot_plans, &requests);
            let ok = continuous.goodput_per_sec >= oneshot.goodput_per_sec;
            never_worse &= ok;
            rows.push(vec![
                shape_name.to_string(),
                f(rate, 1),
                requests.len().to_string(),
                f(continuous.goodput_per_sec, 3),
                f(oneshot.goodput_per_sec, 3),
                continuous.ttft.p50_ms.to_string(),
                continuous.ttft.p99_ms.to_string(),
                continuous.tpot.p99_ms.to_string(),
                if ok { "yes" } else { "NO" }.to_string(),
            ]);
            points.push(SloPoint {
                shape: shape_name.to_string(),
                rate_per_sec: rate,
                duration_ms,
                requests: requests.len() as u64,
                continuous,
                oneshot,
            });
        }
    }

    println!(
        "slo sweep: {} points, {} tenants, seed {}\n",
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
                "goodput(cont)",
                "goodput(1shot)",
                "ttft_p50",
                "ttft_p99",
                "tpot_p99",
                ">=",
            ],
            &rows
        )
    );

    let report = SloReport {
        schema: SLO_SCHEMA.to_string(),
        seed: args.seed,
        tenants,
        continuous_never_worse: never_worse,
        points,
    };
    if let Some(path) = write_json(&args, "slo_report", &report) {
        println!("wrote {}", path.display());
    }
    assert!(
        never_worse,
        "continuous batching lost goodput against the one-shot scheduler on some point"
    );
    println!("verdict: continuous goodput >= one-shot goodput at every sweep point");
}
