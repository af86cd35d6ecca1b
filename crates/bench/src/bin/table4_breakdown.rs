//! Table 4: TTFT latency breakdown at the prefill stage (ChatGLM2-6B,
//! 8×A100, TP=4/PP=2), and the attention share of TTFT from 32K to 1M.
//!
//! The published table is reproduced side by side with this roofline
//! model's prediction; the key reproduced quantity is the attention
//! *share*, which rises from ~32 % at 32K to ~88 % at 1M and motivates
//! the whole paper.
//!
//! Alongside the roofline prediction, a seeded prefill runs under
//! `sa-trace` and prints the *measured* stage breakdown (sampling /
//! filtering / mask merge / sparse kernel) with the fallback and
//! α-coverage tallies — the in-repo counterpart of the paper's
//! profiled numbers. Both sections land in
//! `results/table4_breakdown.json` (`roofline` + `measured`).

use sa_baselines::SampleAttentionMethod;
use sa_bench::{f, render_table, write_json, Args};
use sa_json::ToJson;
use sa_model::{ModelConfig, SyntheticTransformer};
use sa_perf::calibrate::{attention_share_mae, calibrate_against_table4};
use sa_perf::ttft::TtftModel;
use sa_trace::summary::{summarize, TraceSummary};
use sa_trace::TraceSession;

fn main() {
    let args = Args::parse();
    let model = TtftModel::paper_serving();
    let rows = calibrate_against_table4(&model);

    println!("Table 4: latency breakdown at the prefill stage (ChatGLM2-6B, TP=4 PP=2)\n");
    let table: Vec<Vec<String>> = rows
        .iter()
        .map(|r| {
            let label = if r.seq_len >= 1_048_576 {
                "1M".to_string()
            } else {
                format!("{}K", r.seq_len / 1024)
            };
            vec![
                label,
                f(r.paper_ttft_ms, 1),
                format!("{}%", f(r.paper_attention_share * 100.0, 1)),
                f(r.model_ttft_ms, 1),
                format!("{}%", f(r.model_attention_share * 100.0, 1)),
            ]
        })
        .collect();
    println!(
        "{}",
        render_table(
            &["S", "paper TTFT(ms)", "paper attn%", "model TTFT(ms)", "model attn%"],
            &table
        )
    );
    println!(
        "Attention-share mean absolute error: {} percentage points",
        f(attention_share_mae(&rows), 1)
    );

    let measured = measured_breakdown(&args);
    let payload = sa_json::Json::Object(vec![
        ("roofline".to_string(), rows.to_json()),
        ("measured".to_string(), measured.to_json()),
    ]);
    write_json(&args, "table4_breakdown", &payload);
}

/// Runs a seeded prefill under tracing and prints the measured stage
/// breakdown next to the roofline prediction above.
fn measured_breakdown(args: &Args) -> TraceSummary {
    let seq_len = if args.quick { 256 } else { 1024 };
    let session = TraceSession::in_process();
    sa_trace::metrics::reset();

    let model =
        SyntheticTransformer::new(ModelConfig::tiny(args.seed)).expect("tiny config is valid");
    let tokens = model.tokenize_filler(seq_len);
    let result = model
        .prefill(&tokens, &SampleAttentionMethod::paper_default())
        .expect("prefill succeeds");
    let metrics = sa_trace::metrics::snapshot();
    let (events, _) = session.finish().expect("in-process session has no io");
    let stages = summarize(&events);

    println!("\nMeasured stage breakdown (seq_len={seq_len}, seed={}):\n", args.seed);
    let stage_rows: Vec<Vec<String>> = stages
        .iter()
        .filter(|s| s.cat == "core")
        .map(|s| {
            vec![
                s.name.clone(),
                s.count.to_string(),
                f(s.total_ns as f64 / 1000.0, 1),
                f(s.mean_ns as f64 / 1000.0, 1),
            ]
        })
        .collect();
    // Discovery stages count one span per head, the sparse kernel one per
    // KV group: a group's heads share one engine pass.
    println!(
        "{}",
        render_table(&["stage", "spans", "total(us)", "mean(us)"], &stage_rows)
    );

    let fallbacks: Vec<(String, u64)> = result
        .fallback_tally()
        .into_iter()
        .map(|(reason, n)| (reason.as_str().to_string(), n as u64))
        .collect();
    let fallback_heads = result.fallback_heads() as u64;
    let heads_alpha_unsatisfied = result.heads_alpha_unsatisfied() as u64;
    if fallbacks.is_empty() {
        println!(
            "Health: no dense fallbacks, {heads_alpha_unsatisfied} heads missed alpha"
        );
    } else {
        println!("Health: {fallback_heads} heads fell back, {heads_alpha_unsatisfied} missed alpha:");
        for (reason, n) in &fallbacks {
            println!("  {reason}: {n}");
        }
    }

    TraceSummary {
        seq_len,
        threads: sa_tensor::pool::current_threads(),
        stages,
        counters: metrics.counters,
        fallbacks,
        heads_alpha_unsatisfied,
        fallback_heads,
    }
}
