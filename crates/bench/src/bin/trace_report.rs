//! trace_report: runs a seeded SampleAttention prefill under `sa-trace`
//! and renders the measured per-stage / per-head breakdown.
//!
//! This is the observability counterpart of `table4_breakdown`'s
//! roofline model: the same stage taxonomy (sampling → filtering →
//! mask merge → sparse kernel), but timed from live spans instead of
//! predicted from FLOP counts. The paper's Table 4 ordering — the two
//! index-building stages cost far less than the sparse kernel they
//! feed — is asserted, not just printed.
//!
//! Outputs:
//! - stdout: per-stage table (count, total, mean, p50/p95/p99),
//!   per-head plan table, counter/histogram registry dump, fallback
//!   tally;
//! - `results/trace_summary.json` (schema-checked on write via
//!   [`sa_trace::summary::validate_summary`]);
//! - `SA_TRACE=<path>`: additionally exports the Chrome trace-event
//!   JSON to `<path>` (re-read and schema-checked before exiting).
//!
//! Flags: `--seed <u64>` (model seed), `--quick` (512-token prefill
//! instead of 2048), `--out <dir>` (results directory).

use sa_baselines::SampleAttentionMethod;
use sa_bench::{f, load_json, render_table, write_json, Args};
use sa_model::{ModelConfig, SyntheticTransformer};
use sa_trace::summary::{summarize, validate_summary, StageSummary, TraceSummary};
use sa_trace::TraceSession;

/// µs with two decimals from a nanosecond count.
fn us(ns: u64) -> String {
    f(ns as f64 / 1000.0, 2)
}

fn main() {
    let args = Args::parse();
    let seq_len = if args.quick { 512 } else { 2048 };

    // Enable tracing before any pipeline work. SA_TRACE=<path> also
    // exports the Chrome trace; otherwise aggregate purely in-process.
    let session = {
        let from_env = TraceSession::from_env();
        if from_env.active() {
            from_env
        } else {
            TraceSession::in_process()
        }
    };
    sa_trace::metrics::reset();

    let model =
        SyntheticTransformer::new(ModelConfig::tiny(args.seed)).expect("tiny config is valid");
    let tokens = model.tokenize_filler(seq_len);
    let method = SampleAttentionMethod::paper_default();
    let result = model.prefill(&tokens, &method).expect("prefill succeeds");

    let fallback_tally: Vec<(String, u64)> = result
        .fallback_tally()
        .into_iter()
        .map(|(reason, n)| (reason.as_str().to_string(), n as u64))
        .collect();
    let heads_alpha_unsatisfied = result.heads_alpha_unsatisfied() as u64;
    let fallback_heads = result.fallback_heads() as u64;

    let metrics = sa_trace::metrics::snapshot();
    let (events, chrome_path) = session.finish().expect("trace export writes");
    let stages = summarize(&events);

    println!(
        "Measured prefill breakdown (seq_len={seq_len}, threads={}, seed={})\n",
        sa_tensor::pool::current_threads(),
        args.seed
    );
    let stage_rows: Vec<Vec<String>> = stages
        .iter()
        .map(|s| {
            vec![
                format!("{}/{}", s.cat, s.name),
                s.count.to_string(),
                us(s.total_ns),
                us(s.mean_ns),
                us(s.p50_ns),
                us(s.p95_ns),
                us(s.p99_ns),
            ]
        })
        .collect();
    println!(
        "{}",
        render_table(
            &["stage", "count", "total(us)", "mean(us)", "p50(us)", "p95(us)", "p99(us)"],
            &stage_rows
        )
    );

    let heads = per_head(&events);
    if !heads.is_empty() {
        // A head's kernel runs inside its KV group's shared engine pass
        // (`model/engine`), so a head span times its plan alone.
        println!("Per-head plan time (query projection + mask discovery):\n");
        let head_rows: Vec<Vec<String>> = heads
            .iter()
            .map(|(label, total_ns, count)| {
                vec![label.clone(), count.to_string(), us(*total_ns)]
            })
            .collect();
        println!(
            "{}",
            render_table(&["head", "spans", "total(us)"], &head_rows)
        );
    }

    if !metrics.counters.is_empty() {
        println!("Counters:\n");
        let rows: Vec<Vec<String>> = metrics
            .counters
            .iter()
            .map(|c| vec![c.name.clone(), c.value.to_string()])
            .collect();
        println!("{}", render_table(&["counter", "value"], &rows));
    }
    if !metrics.histograms.is_empty() {
        println!("Histograms (live-block counts, chunk times):\n");
        let rows: Vec<Vec<String>> = metrics
            .histograms
            .iter()
            .map(|h| {
                vec![
                    h.name.clone(),
                    h.count.to_string(),
                    f(h.mean, 1),
                    h.p50.to_string(),
                    h.p95.to_string(),
                    h.p99.to_string(),
                    h.max.to_string(),
                ]
            })
            .collect();
        println!(
            "{}",
            render_table(&["histogram", "count", "mean", "p50", "p95", "p99", "max"], &rows)
        );
    }

    if fallback_tally.is_empty() {
        println!("Fallbacks: none ({fallback_heads} heads fell back, {heads_alpha_unsatisfied} heads missed alpha)");
    } else {
        println!("Fallbacks ({fallback_heads} heads, {heads_alpha_unsatisfied} missed alpha):");
        for (reason, n) in &fallback_tally {
            println!("  {reason}: {n}");
        }
    }

    check_stage_ordering(&stages);

    let summary = TraceSummary {
        seq_len,
        threads: sa_tensor::pool::current_threads(),
        stages,
        counters: metrics.counters,
        fallbacks: fallback_tally,
        heads_alpha_unsatisfied,
        fallback_heads,
    };
    if let Some(path) = write_json(&args, "trace_summary", &summary) {
        // Self-validate what we just wrote: re-read, schema-check.
        let doc: sa_json::Json = load_json(&path).expect("trace_summary re-reads");
        match validate_summary(&doc) {
            Ok(n) => println!("\nwrote {} ({n} stages, schema ok)", path.display()),
            Err(e) => {
                eprintln!("error: {} failed schema check: {e}", path.display());
                std::process::exit(1);
            }
        }
    }
    if let Some(path) = chrome_path {
        let doc: sa_json::Json = load_json(&path).expect("chrome trace re-reads");
        match sa_trace::validate_chrome_trace(&doc) {
            Ok(n) => println!("wrote {} ({n} trace events, schema ok)", path.display()),
            Err(e) => {
                eprintln!("error: {} failed schema check: {e}", path.display());
                std::process::exit(1);
            }
        }
    }
}

/// Head spans grouped by `L<l>.H<h>` label, heaviest first.
fn per_head(events: &[sa_trace::SpanEvent]) -> Vec<(String, u64, u64)> {
    let mut heads: Vec<(String, u64, u64)> = Vec::new();
    for e in events {
        if e.cat != "model" || e.name != "head" {
            continue;
        }
        let label = e.label.clone().unwrap_or_else(|| "?".to_string());
        match heads.iter_mut().find(|(l, _, _)| *l == label) {
            Some((_, total, count)) => {
                *total += e.dur_ns;
                *count += 1;
            }
            None => heads.push((label, e.dur_ns, 1)),
        }
    }
    heads.sort_by(|a, b| b.1.cmp(&a.1).then_with(|| a.0.cmp(&b.0)));
    heads
}

/// Asserts the paper's Table-4 stage ordering on the measured spans:
/// building the sparse index (stage-1 sampling + stage-2 filtering) must
/// cost less than running the sparse kernel it feeds. Exits non-zero on
/// violation so `scripts/verify.sh` catches regressions.
fn check_stage_ordering(stages: &[StageSummary]) {
    let total = |name: &str| {
        stages
            .iter()
            .find(|s| s.cat == "core" && s.name == name)
            .map_or(0, |s| s.total_ns)
    };
    let index_build = total("stage1_sampling") + total("stage2_filtering");
    let kernel = total("sparse_kernel");
    if kernel == 0 {
        eprintln!("error: no core/sparse_kernel spans recorded");
        std::process::exit(1);
    }
    if index_build >= kernel {
        eprintln!(
            "error: stage ordering violated: sampling+filtering {}us >= sparse kernel {}us",
            us(index_build),
            us(kernel)
        );
        std::process::exit(1);
    }
    println!(
        "\nStage ordering ok: sampling+filtering {}us < sparse kernel {}us ({}x)",
        us(index_build),
        us(kernel),
        f(kernel as f64 / index_build.max(1) as f64, 1)
    );
}
