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
//! planner, no model work runs: each point's summary is folded from the
//! planner's event log ([`SloSummary::from_events`]). The sweep covers
//! the [`slo_grid`] (shape × rate) points in milliseconds, and re-running
//! it with the same seed reproduces the report byte for byte.
//!
//! Outputs:
//! - stdout: one row per sweep point (requests, goodput, TTFT p50/p99,
//!   TPOT p99);
//! - `results/slo_report.json` (`sa.slo.v2`): the per-point
//!   [`SloSummary`].
//!
//! Flags: `--seed <u64>`, `--quick` (fewer rates, shorter streams),
//! `--out <dir>`.

use sa_bench::{f, render_table, slo_grid, write_json, Args, SLO_GRID_TENANTS};
use sa_serve::{plan_continuous_with_events, ServeConfig, SloSummary, SLO_SCHEMA};

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

fn main() {
    let args = Args::parse();
    let tenants = SLO_GRID_TENANTS;
    let cfg = ServeConfig {
        seed: args.seed,
        ..ServeConfig::default()
    };

    let mut points = Vec::new();
    let mut rows = Vec::new();
    for point in slo_grid(&args) {
        let requests = &point.requests;
        let (_, log) = plan_continuous_with_events(&cfg, requests);
        let continuous = SloSummary::from_events("continuous", &log, requests);
        rows.push(vec![
            point.shape.to_string(),
            f(point.rate_per_sec, 1),
            requests.len().to_string(),
            f(continuous.goodput_per_sec, 3),
            continuous.ttft.p50_ms.to_string(),
            continuous.ttft.p99_ms.to_string(),
            continuous.tpot.p99_ms.to_string(),
        ]);
        points.push(SloPoint {
            shape: point.shape.to_string(),
            rate_per_sec: point.rate_per_sec,
            duration_ms: point.duration_ms,
            requests: requests.len() as u64,
            continuous,
        });
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
