//! Figure 5: attention latency, sampling-overhead share, and TTFT from
//! 8K to 96K tokens (ChatGLM2-6B geometry, single A100, batch 1).
//!
//! Reproduces: (a) self-attention latency for SDPA / FlashAttention2 /
//! SampleAttention(α=0.95, 0.80); (b) the sampling vs sparse-compute time
//! split inside SampleAttention; (c) the TTFT comparison. Paper anchors:
//! at 96K, attention speedups 2.20× (α=0.95) and 5.12× (α=0.80) over
//! FlashAttention2; TTFT reductions 1.62× and 2.28×.

use sa_bench::{f, load_json, render_table, write_json, Args};
use sa_perf::ttft::{AttentionKind, TtftModel};
use std::path::Path;

struct Row {
    seq_len: usize,
    sdpa_ms: f64,
    flash_ms: f64,
    sample95_ms: f64,
    sample80_ms: f64,
    speedup95: f64,
    speedup80: f64,
    sampling_share95: f64,
    ttft_flash_ms: f64,
    ttft95_ms: f64,
    ttft80_ms: f64,
    /// SampleAttention(α=0.95) with the measured speedup of the blocked
    /// engine over the row-wise reference kernel applied to the
    /// sparse-compute share (sampling is unaffected by the kernel's loop
    /// structure). Equals `sample95_ms` when no
    /// `results/tile_kernel.json` A/B report is available.
    sample95_tiled_ms: f64,
    /// `flash_ms / sample95_tiled_ms`.
    speedup95_tiled: f64,
}

sa_json::impl_json_struct!(Row {
    seq_len,
    sdpa_ms,
    flash_ms,
    sample95_ms,
    sample80_ms,
    speedup95,
    speedup80,
    sampling_share95,
    ttft_flash_ms,
    ttft95_ms,
    ttft80_ms,
    sample95_tiled_ms: default,
    speedup95_tiled: default
});

/// Median single-thread speedup of the blocked engine over the row-wise
/// reference kernel, measured by the `tile_kernel` binary. Falls back to 1.0 (no
/// adjustment) when the A/B report has not been generated.
fn measured_tile_speedup(out_dir: &Path) -> f64 {
    let path = out_dir.join("tile_kernel.json");
    load_json::<sa_json::Json>(&path)
        .ok()
        .and_then(|doc| doc.get("median_serial_speedup").and_then(|v| v.as_f64()))
        .filter(|s| s.is_finite() && *s > 0.0)
        .unwrap_or(1.0)
}

fn main() {
    let args = Args::parse();
    let model = TtftModel::paper_microbench();
    let lengths: Vec<usize> = if args.quick {
        vec![8_192, 32_768, 98_304]
    } else {
        vec![8_192, 16_384, 32_768, 49_152, 65_536, 81_920, 98_304]
    };
    let sa95 = AttentionKind::SampleAttention {
        alpha: 0.95,
        sample_ratio: 0.05,
    };
    let sa80 = AttentionKind::SampleAttention {
        alpha: 0.80,
        sample_ratio: 0.05,
    };

    let tile_speedup = measured_tile_speedup(&args.out_dir);

    let rows: Vec<Row> = lengths
        .iter()
        .map(|&s| {
            let sdpa = model.attention_latency(s, AttentionKind::Sdpa) * 1e3;
            let flash = model.attention_latency(s, AttentionKind::Flash) * 1e3;
            let s95 = model.attention_latency(s, sa95) * 1e3;
            let s80 = model.attention_latency(s, sa80) * 1e3;
            let b95 = model.ttft(s, sa95);
            let ttft_flash = model.ttft(s, AttentionKind::Flash).total_s() * 1e3;
            let share = b95.sampling_s / b95.attention_s;
            // Only the sparse-compute share is accelerated by the
            // engine; sampling/filter time is kernel-agnostic.
            let s95_tiled = s95 * (share + (1.0 - share) / tile_speedup);
            Row {
                seq_len: s,
                sdpa_ms: sdpa,
                flash_ms: flash,
                sample95_ms: s95,
                sample80_ms: s80,
                speedup95: flash / s95,
                speedup80: flash / s80,
                sampling_share95: share,
                ttft_flash_ms: ttft_flash,
                ttft95_ms: b95.total_s() * 1e3,
                ttft80_ms: model.ttft(s, sa80).total_s() * 1e3,
                sample95_tiled_ms: s95_tiled,
                speedup95_tiled: flash / s95_tiled,
            }
        })
        .collect();

    println!("Figure 5(a): self-attention latency per full forward (ms), 28 layers x 32 heads, d=128");
    println!(
        "(tiled column applies the measured {}x single-thread engine-vs-reference kernel speedup to the sparse share)\n",
        f(tile_speedup, 2)
    );
    let table_a: Vec<Vec<String>> = rows
        .iter()
        .map(|r| {
            vec![
                format!("{}K", r.seq_len / 1024),
                f(r.sdpa_ms, 1),
                f(r.flash_ms, 1),
                f(r.sample95_ms, 1),
                f(r.sample95_tiled_ms, 1),
                f(r.sample80_ms, 1),
                format!("{}x", f(r.speedup95, 2)),
                format!("{}x", f(r.speedup95_tiled, 2)),
                format!("{}x", f(r.speedup80, 2)),
            ]
        })
        .collect();
    println!(
        "{}",
        render_table(
            &[
                "S",
                "SDPA",
                "FlashAttn2",
                "SA(a=.95)",
                "SA.95 tiled",
                "SA(a=.80)",
                "speedup.95",
                "tiled.95",
                "speedup.80"
            ],
            &table_a
        )
    );

    println!("Figure 5(b): sampling share of SampleAttention(a=0.95) time\n");
    let table_b: Vec<Vec<String>> = rows
        .iter()
        .map(|r| {
            vec![
                format!("{}K", r.seq_len / 1024),
                format!("{}%", f(r.sampling_share95 * 100.0, 1)),
                format!("{}%", f((1.0 - r.sampling_share95) * 100.0, 1)),
            ]
        })
        .collect();
    println!(
        "{}",
        render_table(&["S", "sampling+filter", "sparse compute"], &table_b)
    );

    println!("Figure 5(c): TTFT (ms) and reduction vs FlashAttention2\n");
    let table_c: Vec<Vec<String>> = rows
        .iter()
        .map(|r| {
            vec![
                format!("{}K", r.seq_len / 1024),
                f(r.ttft_flash_ms, 0),
                f(r.ttft95_ms, 0),
                f(r.ttft80_ms, 0),
                format!("{}x", f(r.ttft_flash_ms / r.ttft95_ms, 2)),
                format!("{}x", f(r.ttft_flash_ms / r.ttft80_ms, 2)),
            ]
        })
        .collect();
    println!(
        "{}",
        render_table(
            &["S", "TTFT flash", "TTFT SA.95", "TTFT SA.80", "red.95", "red.80"],
            &table_c
        )
    );

    if let Some(last) = rows.last() {
        println!(
            "Paper anchors at 96K: attention speedups 2.20x / 5.12x; TTFT reductions 1.62x / 2.28x."
        );
        println!(
            "This model at {}K:  attention speedups {}x / {}x; TTFT reductions {}x / {}x.",
            last.seq_len / 1024,
            f(last.speedup95, 2),
            f(last.speedup80, 2),
            f(last.ttft_flash_ms / last.ttft95_ms, 2),
            f(last.ttft_flash_ms / last.ttft80_ms, 2),
        );
    }
    write_json(&args, "fig5_speedup", &rows);
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn payload_json_round_trip() {
        let p = Row {
            seq_len: 98_304,
            sdpa_ms: 900.0,
            flash_ms: 300.0,
            sample95_ms: 130.0,
            sample80_ms: 110.0,
            speedup95: 2.3,
            speedup80: 2.7,
            sampling_share95: 0.12,
            ttft_flash_ms: 5000.0,
            ttft95_ms: 2400.0,
            ttft80_ms: 2100.0,
            sample95_tiled_ms: 120.0,
            speedup95_tiled: 2.5,
        };
        let text = sa_json::to_string(&vec![p]);
        let back: Vec<Row> = sa_json::from_str(&text).unwrap();
        assert_eq!(sa_json::to_string(&back), text);
    }
}
