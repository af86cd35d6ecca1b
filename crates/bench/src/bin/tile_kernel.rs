//! A/B report for the blocked sparse-flash engine: the row-wise
//! reference kernel vs the engine on identical structured masks, timed
//! both pinned to one worker and at the host's worker count
//! (`pool::hardware_threads()`). The two are bit-identical by contract
//! (the differential suite in `tests/kernel_equivalence.rs` proves it),
//! so the report isolates the loop structure; this binary re-asserts
//! bitwise equality on every case before timing it.
//!
//! Writes `results/tile_kernel.json` (`sa.tile_kernel.v1`), which
//! `fig5_speedup` reads to extend its analytic 32K–96K rows with a
//! measured column. The schema predates the engine: its `tiled_*`
//! columns now hold the engine's times and `tile` its block edge.
//!
//! Run with `cargo run -p sa-bench --release --bin tile_kernel`
//! (`--quick` for the 2K/4K smoke sweep).

use std::hint::black_box;
use std::time::{Duration, Instant};

use sa_bench::{f, render_table, write_json, Args};
use sa_kernels::{
    sparse_flash_attention, sparse_flash_attention_blocked, StructuredMask, ENGINE_BLOCK,
};
use sa_tensor::{pool, DeterministicRng, Matrix};

/// Schema tag checked by `tests/results_files.rs`.
const SCHEMA: &str = "sa.tile_kernel.v1";

struct CaseRow {
    seq_len: usize,
    tile: usize,
    nnz: u64,
    density: f64,
    row_major_serial_ns: u64,
    tiled_serial_ns: u64,
    serial_speedup: f64,
    row_major_parallel_ns: u64,
    tiled_parallel_ns: u64,
    parallel_speedup: f64,
    threads: usize,
    bitwise_identical: bool,
}

sa_json::impl_json_struct!(CaseRow {
    seq_len,
    tile,
    nnz,
    density,
    row_major_serial_ns,
    tiled_serial_ns,
    serial_speedup,
    row_major_parallel_ns,
    tiled_parallel_ns,
    parallel_speedup,
    threads,
    bitwise_identical
});

struct Report {
    schema: String,
    rows: Vec<CaseRow>,
    median_serial_speedup: f64,
    median_parallel_speedup: f64,
}

sa_json::impl_json_struct!(Report {
    schema,
    rows,
    median_serial_speedup,
    median_parallel_speedup
});

fn qkv(s: usize, d: usize, seed: u64) -> (Matrix, Matrix, Matrix) {
    let mut rng = DeterministicRng::new(seed);
    (
        rng.normal_matrix(s, d, 1.0),
        rng.normal_matrix(s, d, 1.0),
        rng.normal_matrix(s, d, 1.0),
    )
}

fn median(mut xs: Vec<f64>) -> f64 {
    if xs.is_empty() {
        return 1.0;
    }
    xs.sort_by(|a, b| a.partial_cmp(b).unwrap_or(std::cmp::Ordering::Equal));
    xs[xs.len() / 2]
}

/// Times two closures in paired, alternating rounds (one warmup round,
/// then `trials` timed rounds of A-then-B). Interleaving means ambient
/// interference on a shared host lands on both kernels symmetrically
/// instead of poisoning whichever happened to run second.
fn time_paired(
    trials: usize,
    mut a: impl FnMut(),
    mut b: impl FnMut(),
) -> (Vec<Duration>, Vec<Duration>) {
    a();
    b();
    let mut ta = Vec::with_capacity(trials);
    let mut tb = Vec::with_capacity(trials);
    for _ in 0..trials {
        let t = Instant::now();
        a();
        ta.push(t.elapsed());
        let t = Instant::now();
        b();
        tb.push(t.elapsed());
    }
    (ta, tb)
}

fn min_ns(xs: &[Duration]) -> u64 {
    xs.iter().map(|d| d.as_nanos() as u64).min().unwrap_or(1)
}

fn median_ns(xs: &[Duration]) -> u64 {
    let mut ns: Vec<u64> = xs.iter().map(|d| d.as_nanos() as u64).collect();
    ns.sort_unstable();
    ns.get(ns.len() / 2).copied().unwrap_or(1)
}

fn main() {
    let args = Args::parse();
    let d = 32;
    let sizes: &[usize] = if args.quick {
        &[2_048, 4_096]
    } else {
        &[4_096, 8_192, 16_384, 32_768]
    };
    let trials = if args.quick { 3 } else { 7 };
    let mut rows: Vec<CaseRow> = Vec::new();

    for &s in sizes {
        let (q, k, v) = qkv(s, d, args.seed);
        // Fig-3-shaped sparsity: a 2% local window, sinks, periodic
        // stripes, and a dense bottom area — the mask the paper's sparse
        // stage actually runs at long context.
        let mask = StructuredMask::builder(s, s)
            .window_ratio(0.02)
            .sinks(4)
            .columns((0..s / 512).map(|i| (i * 509) % s).collect())
            .dense_tail_rows(64)
            .build()
            .expect("bench mask is valid");
        // Bitwise identity check before timing anything.
        let (a, b) = pool::with_threads(1, || {
            (
                sparse_flash_attention(&q, &k, &v, &mask).expect("reference kernel"),
                sparse_flash_attention_blocked(&q, &k, &v, &mask).expect("blocked engine"),
            )
        });
        let bitwise_identical = a
            .output
            .as_slice()
            .iter()
            .zip(b.output.as_slice())
            .all(|(x, y)| x.to_bits() == y.to_bits());
        assert!(bitwise_identical, "kernels diverged at S={s}");

        let run_rm = || {
            black_box(sparse_flash_attention(&q, &k, &v, &mask).expect("reference kernel"));
        };
        let run_engine = || {
            black_box(sparse_flash_attention_blocked(&q, &k, &v, &mask).expect("blocked engine"));
        };
        let (rm_serial, tl_serial) =
            pool::with_threads(1, || time_paired(trials, run_rm, run_engine));
        let threads = pool::hardware_threads();
        let (rm_par, tl_par) =
            pool::with_threads(threads, || time_paired(trials, run_rm, run_engine));

        // Speedups use the fastest paired trial of each leg: on a
        // shared/noisy host the minimum is the least-contaminated
        // estimate of the kernel's true cost (medians are recorded too).
        rows.push(CaseRow {
            seq_len: s,
            tile: ENGINE_BLOCK,
            nnz: mask.nnz() as u64,
            density: mask.density(),
            row_major_serial_ns: median_ns(&rm_serial),
            tiled_serial_ns: median_ns(&tl_serial),
            serial_speedup: min_ns(&rm_serial) as f64 / min_ns(&tl_serial).max(1) as f64,
            row_major_parallel_ns: median_ns(&rm_par),
            tiled_parallel_ns: median_ns(&tl_par),
            parallel_speedup: min_ns(&rm_par) as f64 / min_ns(&tl_par).max(1) as f64,
            threads,
            bitwise_identical,
        });
    }

    println!(
        "## tile_kernel — paired A/B, {trials} alternating trials per leg, inner loops: {}\n",
        sa_tensor::isa_name()
    );
    println!("Blocked engine vs row-wise reference (median ms; speedups from fastest trial)\n");
    let table: Vec<Vec<String>> = rows
        .iter()
        .map(|r| {
            vec![
                format!("{}K", r.seq_len / 1024),
                r.tile.to_string(),
                format!("{:.2}%", r.density * 100.0),
                f(r.row_major_serial_ns as f64 / 1e6, 2),
                f(r.tiled_serial_ns as f64 / 1e6, 2),
                format!("{}x", f(r.serial_speedup, 2)),
                f(r.row_major_parallel_ns as f64 / 1e6, 2),
                f(r.tiled_parallel_ns as f64 / 1e6, 2),
                format!("{}x", f(r.parallel_speedup, 2)),
                r.threads.to_string(),
            ]
        })
        .collect();
    println!(
        "{}",
        render_table(
            &[
                "S", "block", "density", "ref serial", "engine serial", "serial x", "ref par",
                "engine par", "par x", "threads"
            ],
            &table
        )
    );

    let report = Report {
        schema: SCHEMA.to_string(),
        median_serial_speedup: median(rows.iter().map(|r| r.serial_speedup).collect()),
        median_parallel_speedup: median(rows.iter().map(|r| r.parallel_speedup).collect()),
        rows,
    };
    println!(
        "Median speedups: {}x serial, {}x parallel.",
        f(report.median_serial_speedup, 2),
        f(report.median_parallel_speedup, 2)
    );
    write_json(&args, "tile_kernel", &report);
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn report_json_round_trip() {
        let report = Report {
            schema: SCHEMA.to_string(),
            rows: vec![CaseRow {
                seq_len: 4096,
                tile: 32,
                nnz: 123,
                density: 0.05,
                row_major_serial_ns: 100,
                tiled_serial_ns: 80,
                serial_speedup: 1.25,
                row_major_parallel_ns: 60,
                tiled_parallel_ns: 50,
                parallel_speedup: 1.2,
                threads: 4,
                bitwise_identical: true,
            }],
            median_serial_speedup: 1.25,
            median_parallel_speedup: 1.2,
        };
        let text = sa_json::to_string(&report);
        let back: Report = sa_json::from_str(&text).unwrap();
        assert_eq!(sa_json::to_string(&back), text);
    }

    #[test]
    fn median_is_deterministic() {
        assert_eq!(median(vec![]), 1.0);
        assert_eq!(median(vec![3.0, 1.0, 2.0]), 2.0);
    }
}
