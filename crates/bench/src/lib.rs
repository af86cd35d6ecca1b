//! # sa-bench
//!
//! The experiment harness: one binary per table/figure of the paper.
//! (Wall-clock benchmarking is the `benchmark/` package's job.)
//!
//! Run an experiment with, e.g.:
//!
//! ```text
//! cargo run -p sa-bench --release --bin table2_accuracy -- --seed 7
//! cargo run -p sa-bench --release --bin fig5_speedup
//! ```
//!
//! Every binary prints its table(s) to stdout and writes a JSON copy under
//! `results/` for the EXPERIMENTS.md bookkeeping. All binaries accept
//! `--seed <u64>` (default 7) and `--quick` (smaller sweeps).
//!
//! | binary | reproduces |
//! |---|---|
//! | `fig1_overview` | Figure 1 (pattern taxonomy + headline speedups) |
//! | `fig2_sparsity` | Figure 2(a–e) sparsity statistics |
//! | `table2_accuracy` | Table 2 accuracy comparison |
//! | `fig4_needle` | Figure 4 / Figure 8 needle heatmaps |
//! | `fig7_babilong` | Appendix Figure 7 BABILong detail |
//! | `table3_ablation` | Table 3 hyper-parameter ablation |
//! | `fig5_speedup` | Figure 5 attention/TTFT latency, 8K–96K |
//! | `fig6_scaling` | Figure 6 scaling to 1M |
//! | `table4_breakdown` | Table 4 TTFT breakdown |
//! | `table5_sd_scaling` | Table 5 + Appendix A.4 sparsity scaling |
//! | `table6_sampling` | Table 6 / Appendix A.5 sampling effectiveness |
//! | `tile_kernel` | tiled vs row-major sparse-kernel A/B (beyond-paper) |
//! | `trace_report` | traced prefill + Chrome-trace export (beyond-paper) |
//! | `chaos_soak` | serving robustness soak, batch + continuous legs (beyond-paper) |
//! | `slo_sweep` | continuous-batching serving SLOs over open-loop arrivals (beyond-paper) |
//! | `serve_timeline` | per-tenant serving timelines + flight-recorder postmortems from the event log (beyond-paper) |

pub mod analysis;

use sa_json::{FromJson, ToJson};
use sa_serve::{open_loop_workload, Request};
use sa_workloads::{ArrivalProcess, ArrivalShape};
use std::io::Write;
use std::path::{Path, PathBuf};

/// Worker-thread counts the serving determinism legs (`chaos_soak`,
/// `recovery_bench`, `quality_guard`) replay at: serial, even and odd.
/// A fixed list rather than the host's core count, so the results files
/// that record it are the same on every host.
pub const REPLAY_THREADS: [usize; 3] = [1, 2, 3];

/// Common command-line arguments of the experiment binaries.
#[derive(Debug, Clone)]
pub struct Args {
    /// Master seed (`--seed`).
    pub seed: u64,
    /// Reduced sweep sizes (`--quick`).
    pub quick: bool,
    /// Output directory for JSON results (`--out`, default `results/`).
    pub out_dir: PathBuf,
    /// Extra binary-specific flags (e.g. `--extended`, `--hist`).
    pub extra: Vec<String>,
}

impl Args {
    /// Parses `std::env::args()`.
    ///
    /// # Panics
    ///
    /// Panics with a usage message on malformed arguments.
    pub fn parse() -> Self {
        let mut args = Args {
            seed: 7,
            quick: false,
            out_dir: PathBuf::from("results"),
            extra: Vec::new(),
        };
        let mut it = std::env::args().skip(1);
        while let Some(a) = it.next() {
            match a.as_str() {
                "--seed" => {
                    let v = it.next().expect("--seed requires a value");
                    args.seed = v.parse().expect("--seed must be a u64");
                }
                "--quick" => args.quick = true,
                "--out" => {
                    let v = it.next().expect("--out requires a value");
                    args.out_dir = PathBuf::from(v);
                }
                other if other.starts_with("--") => args.extra.push(other.to_string()),
                other => panic!("unknown argument {other}; expected --seed/--quick/--out/--<flag>"),
            }
        }
        args
    }

    /// Whether a binary-specific flag (e.g. `"--extended"`) was passed.
    pub fn flag(&self, name: &str) -> bool {
        self.extra.iter().any(|a| a == name)
    }
}

/// Writes an experiment's JSON payload to `<out>/<name>.json` and returns
/// the path. Errors are reported but non-fatal (the table already went to
/// stdout).
pub fn write_json<T: ToJson>(args: &Args, name: &str, payload: &T) -> Option<PathBuf> {
    let path = args.out_dir.join(format!("{name}.json"));
    let run = || -> std::io::Result<()> {
        std::fs::create_dir_all(&args.out_dir)?;
        let mut f = std::fs::File::create(&path)?;
        let s = sa_json::to_string_pretty(payload);
        f.write_all(s.as_bytes())
    };
    match run() {
        Ok(()) => Some(path),
        Err(e) => {
            eprintln!("warning: could not write {}: {e}", path.display());
            None
        }
    }
}

/// Reads `<path>` and parses it into a [`FromJson`] type.
///
/// Replaces the `read_to_string(..).unwrap()` + `from_str(..).unwrap()`
/// idiom: every failure names the offending file, parse errors carry the
/// byte offset / line / column where the input broke, and schema
/// mismatches carry the `Type.field` path that failed validation.
///
/// # Errors
///
/// Returns a human-readable `"<file>: <what failed>"` string on I/O,
/// parse, or schema failure.
pub fn load_json<T: FromJson>(path: &Path) -> Result<T, String> {
    let text =
        std::fs::read_to_string(path).map_err(|e| format!("{}: {e}", path.display()))?;
    sa_json::from_str(&text).map_err(|e| format!("{}: {e}", path.display()))
}

/// Renders a simple aligned text table.
pub fn render_table(headers: &[&str], rows: &[Vec<String>]) -> String {
    let mut widths: Vec<usize> = headers.iter().map(|h| h.len()).collect();
    for row in rows {
        for (i, cell) in row.iter().enumerate() {
            if i < widths.len() {
                widths[i] = widths[i].max(cell.len());
            }
        }
    }
    let mut out = String::new();
    let fmt_row = |cells: &[String], widths: &[usize]| -> String {
        cells
            .iter()
            .zip(widths)
            .map(|(c, w)| format!("{c:>w$}"))
            .collect::<Vec<_>>()
            .join("  ")
    };
    let hdr: Vec<String> = headers.iter().map(|s| s.to_string()).collect();
    out.push_str(&fmt_row(&hdr, &widths));
    out.push('\n');
    out.push_str(&"-".repeat(widths.iter().sum::<usize>() + 2 * (widths.len() - 1)));
    out.push('\n');
    for row in rows {
        out.push_str(&fmt_row(row, &widths));
        out.push('\n');
    }
    out
}

/// Tenants sharing the token-bucket quotas on the serving SLO grid.
pub const SLO_GRID_TENANTS: u64 = 3;

/// One point of the serving SLO grid: an arrival shape at a mean rate,
/// and the open-loop request stream it draws.
#[derive(Debug, Clone)]
pub struct SloGridPoint {
    /// Arrival-rate shape (`constant` / `diurnal` / `flash_crowd`).
    pub shape: &'static str,
    /// Mean arrival rate, requests per virtual second.
    pub rate_per_sec: f64,
    /// Stream duration, virtual ms.
    pub duration_ms: u64,
    /// The stream, [`SLO_GRID_TENANTS`] tenants.
    pub requests: Vec<Request>,
}

/// The serving SLO grid `slo_sweep` reports and `serve_timeline` replays:
/// three arrival shapes × a rate ladder (`--quick`: 2 rates over 15 s,
/// otherwise 5 over 40 s), shape-major. Each rate draws its arrivals
/// from `seed ^ (16 × rate)` and its request mix from `seed`.
pub fn slo_grid(args: &Args) -> Vec<SloGridPoint> {
    let (rates, duration_ms) = if args.quick {
        (vec![1.0, 4.0], 15_000u64)
    } else {
        (vec![0.5, 1.0, 2.0, 4.0, 8.0], 40_000u64)
    };
    let shapes = [
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
    ];
    let mut points = Vec::new();
    for (shape_name, shape) in shapes {
        for &rate in &rates {
            let process = ArrivalProcess {
                seed: args.seed ^ (rate * 16.0) as u64,
                rate_per_sec: rate,
                shape,
            };
            points.push(SloGridPoint {
                shape: shape_name,
                rate_per_sec: rate,
                duration_ms,
                requests: open_loop_workload(args.seed, &process, duration_ms, SLO_GRID_TENANTS),
            });
        }
    }
    points
}

/// Formats a float with the given precision (helper for table cells).
pub fn f(v: f64, prec: usize) -> String {
    format!("{v:.prec$}")
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn table_rendering_aligns() {
        let t = render_table(
            &["name", "value"],
            &[
                vec!["a".to_string(), "1.0".to_string()],
                vec!["longer".to_string(), "2".to_string()],
            ],
        );
        let lines: Vec<&str> = t.lines().collect();
        assert_eq!(lines.len(), 4);
        assert!(lines[0].contains("name"));
        assert!(lines[2].ends_with("1.0"));
    }

    #[test]
    fn float_formatting() {
        assert_eq!(f(1.23456, 2), "1.23");
        assert_eq!(f(2.0, 0), "2");
    }

    #[test]
    fn loader_reports_file_and_location_on_corruption() {
        let dir = std::env::temp_dir().join(format!("sa_bench_load_{}", std::process::id()));
        std::fs::create_dir_all(&dir).unwrap();
        let good = dir.join("good.json");
        std::fs::write(&good, "{\"rows\": [1, 2, 3]}").unwrap();
        assert!(load_json::<sa_json::Json>(&good).is_ok());

        // Truncated artifact (what a killed bench run leaves behind): the
        // error must name the file and the byte where the input ended.
        let bad = dir.join("truncated.json");
        std::fs::write(&bad, "{\"rows\": [1, 2,").unwrap();
        let err = load_json::<sa_json::Json>(&bad).unwrap_err();
        assert!(err.contains("truncated.json"), "{err}");
        assert!(err.contains("byte 15"), "{err}");

        // Schema mismatch: the typed loader names file and field path.
        #[derive(Debug, PartialEq)]
        struct Row {
            size: usize,
        }
        sa_json::impl_json_struct!(Row { size });
        std::fs::write(&bad, "{\"size\": \"oops\"}").unwrap();
        let err = load_json::<Row>(&bad).unwrap_err();
        assert!(err.contains("truncated.json"), "{err}");
        assert!(err.contains("Row.size"), "{err}");
        assert_eq!(load_json::<Row>(&good.with_file_name("missing.json")).ok(), None);
        std::fs::remove_dir_all(dir).ok();
    }

    #[test]
    fn json_written_to_custom_dir() {
        let dir = std::env::temp_dir().join(format!("sa_bench_test_{}", std::process::id()));
        let args = Args {
            seed: 0,
            quick: true,
            out_dir: dir.clone(),
            extra: Vec::new(),
        };
        let path = write_json(&args, "unit", &vec![1, 2, 3]).unwrap();
        let body = std::fs::read_to_string(&path).unwrap();
        assert!(body.contains('1'));
        std::fs::remove_dir_all(dir).ok();
    }
}
