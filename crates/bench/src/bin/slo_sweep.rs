//! slo_sweep: sweeps seeded open-loop arrival streams (constant,
//! diurnal, and flash-crowd rate shapes at several mean rates) through
//! the sa-serve continuous-batching planner **on the virtual clock
//! only**, and reports the serving SLOs per point:
//!
//! - **TTFT** p50/p90/p95/p99 (arrival → first output token);
//! - **TPOT** p50/p90/p95/p99 (decode pace of served multi-token
//!   requests);
//! - **goodput**: requests served within their deadline per virtual
//!   second.
//!
//! Because every outcome and timestamp is fixed by the deterministic
//! planner, no model work runs: the sweep covers dozens of
//! (shape × rate) points in milliseconds, and re-running it with the
//! same seed reproduces the report byte for byte.
//!
//! Outputs:
//! - stdout: one row per sweep point (requests, goodput, TTFT p50/p99,
//!   TPOT p99);
//! - `results/slo_report.json` (`sa.slo.v2`): the per-point
//!   [`SloSummary`].
//!
//! Flags: `--seed <u64>`, `--quick` (fewer rates, shorter streams),
//! `--out <dir>`.

use sa_bench::{f, render_table, write_json, Args};
use sa_serve::{open_loop_workload, plan_continuous, ServeConfig, SloSummary, SLO_SCHEMA};
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
}

sa_json::impl_json_struct!(SloPoint {
    shape,
    rate_per_sec,
    duration_ms,
    requests,
    continuous
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
    /// The sweep, one entry per (shape × rate).
    points: Vec<SloPoint>,
}

sa_json::impl_json_struct!(SloReport {
    schema,
    seed,
    tenants,
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
    for (shape_name, shape) in shapes() {
        for &rate in &rates {
            let process = ArrivalProcess {
                seed: args.seed ^ (rate * 16.0) as u64,
                rate_per_sec: rate,
                shape,
            };
            let requests = open_loop_workload(args.seed, &process, duration_ms, tenants);
            let plans = plan_continuous(&cfg, &requests);
            let continuous = SloSummary::from_continuous_plans("continuous", &plans, &requests);
            rows.push(vec![
                shape_name.to_string(),
                f(rate, 1),
                requests.len().to_string(),
                f(continuous.goodput_per_sec, 3),
                continuous.ttft.p50_ms.to_string(),
                continuous.ttft.p99_ms.to_string(),
                continuous.tpot.p99_ms.to_string(),
            ]);
            points.push(SloPoint {
                shape: shape_name.to_string(),
                rate_per_sec: rate,
                duration_ms,
                requests: requests.len() as u64,
                continuous,
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
                "goodput",
                "ttft_p50",
                "ttft_p99",
                "tpot_p99",
            ],
            &rows
        )
    );

    let report = SloReport {
        schema: SLO_SCHEMA.to_string(),
        seed: args.seed,
        tenants,
        points,
    };
    if let Some(path) = write_json(&args, "slo_report", &report) {
        println!("wrote {}", path.display());
    }
}
