//! Chunked prefill + memory budgeting (Appendix A.6): process the prompt
//! in sequence chunks — exactly equivalent for a causal model, but with
//! bounded activation memory — and project how far each prefill style can
//! scale on an A100 before OOM.
//!
//! ```text
//! cargo run --release --example chunked_serving
//! ```

use sample_attention::baselines::{FullAttention, SampleAttentionMethod};
use sample_attention::model::{ModelConfig, SyntheticTransformer};
use sample_attention::perf::memory::{max_context, A100_BYTES};
use sample_attention::perf::ttft::ModelGeometry;
use sample_attention::perf::PrefillStyle;
use sample_attention::tensor::max_abs_diff;

fn main() -> Result<(), Box<dyn std::error::Error>> {
    // Part 1: chunked prefill is exact. A cache-keeping run keeps the
    // newest row of the final residual stream; every earlier position
    // lives on as its K and V in the caches.
    let model = SyntheticTransformer::new(ModelConfig::tiny(5))?;
    let tokens = model.tokenize_filler(240);
    let mono = model.prefill(&tokens, &FullAttention::new())?;
    let newest = mono.hidden.slice_rows(tokens.len() - 1, tokens.len())?;
    let (_, whole) = model.prefill_chunked(&tokens, tokens.len(), &FullAttention::new())?;
    for chunk in [32usize, 80, 240] {
        let (chunked, caches) = model.prefill_chunked(&tokens, chunk, &FullAttention::new())?;
        let mut diff = max_abs_diff(chunked.hidden.as_slice(), newest.as_slice());
        for (cache, want) in caches.iter().zip(&whole) {
            for h in 0..cache.num_kv_heads() {
                let ((k, v), (want_k, want_v)) = (cache.prepared(h), want.prepared(h));
                diff = diff
                    .max(max_abs_diff(k.as_slice(), want_k.as_slice()))
                    .max(max_abs_diff(v.as_slice(), want_v.as_slice()));
            }
        }
        println!("chunk {chunk:>4}: max |Δhidden| (newest row) and |ΔKV| vs monolithic = {diff:.2e}");
    }
    let (sa_chunked, _) =
        model.prefill_chunked(&tokens, 60, &SampleAttentionMethod::paper_default())?;
    println!(
        "SampleAttention chunked prefill: mean mask density {:.3}\n",
        sa_chunked.mean_density()
    );

    // Part 2: how far each style scales on one A100 (ChatGLM2-6B, batch 1).
    let geo = ModelGeometry::chatglm2_6b();
    println!("max context before OOM on A100-80GB (ChatGLM2-6B, batch 1):");
    for (name, style, tp) in [
        ("SDPA monolithic, 1 GPU", PrefillStyle::SdpaMonolithic, 1usize),
        ("flash monolithic, 1 GPU", PrefillStyle::FlashMonolithic, 1),
        ("chunked 8K, 1 GPU", PrefillStyle::Chunked(8192), 1),
        ("chunked 8K, TP=4", PrefillStyle::Chunked(8192), 4),
    ] {
        match max_context(&geo, tp, A100_BYTES, style) {
            Some(s) => {
                let label = if s >= 1_048_576 {
                    format!("{}M", s / 1_048_576)
                } else {
                    format!("{}K", s / 1024)
                };
                println!("  {name:<26} {label:>6}");
            }
            None => println!("  {name:<26}   OOM"),
        }
    }
    println!(
        "\n(the appendix's observation: >=128K monolithic requests hit memory\n\
         issues; chunking + parallelism reach the paper's 1M-token Table 4 row)"
    );
    Ok(())
}
