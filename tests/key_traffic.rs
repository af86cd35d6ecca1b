//! How many keys get transposed into score panels, counted rather than
//! assumed: the `kernels.keys_transposed` trace counter against what the
//! model's structure predicts.
//!
//! A KV cache transposes each key once, when it is appended; after that
//! every query head of the group, every later prefill chunk and every
//! decode step reads the resident panels. The only per-call transposes
//! left are the stripe columns a SampleAttention mask gathers.
//!
//! The counter is process-wide, so this file holds a single test: beside
//! another test that transposes keys the exact count would not hold.

use std::sync::atomic::{AtomicU64, Ordering};

use sample_attention::baselines::{
    AttentionMethod, FullAttention, MethodOutput, SampleAttentionMethod,
};
use sample_attention::kernels::PreparedKeys;
use sample_attention::model::{ModelConfig, SyntheticTransformer};
use sample_attention::tensor::{Matrix, TensorError};
use sample_attention::trace;

/// SampleAttention, with the stripe columns each head's mask gathers
/// tallied on the side. Discovery only reads the panels, so re-running it
/// here moves no key.
struct TallyExtras {
    inner: SampleAttentionMethod,
    extras: AtomicU64,
}

impl AttentionMethod for TallyExtras {
    fn name(&self) -> &str {
        self.inner.name()
    }

    fn forward(&self, q: &Matrix, k: &Matrix, v: &Matrix) -> Result<MethodOutput, TensorError> {
        self.inner.forward(q, k, v)
    }

    fn forward_head(
        &self,
        layer: usize,
        head: usize,
        q: &Matrix,
        keys: PreparedKeys<'_>,
        v: &Matrix,
    ) -> Result<MethodOutput, TensorError> {
        let discovered = self
            .inner
            .inner()
            .discover_mask_prepared(q, keys)
            .expect("discovery on healthy inputs");
        self.extras.fetch_add(
            discovered.mask.extra_columns().len() as u64,
            Ordering::Relaxed,
        );
        self.inner.forward_head(layer, head, q, keys, v)
    }
}

#[test]
fn a_cache_key_is_transposed_once() {
    let model = SyntheticTransformer::new(ModelConfig::tiny(5)).expect("tiny config is valid");
    let cfg = *model.config();
    let tokens = model.tokenize_filler(512);
    let cache_keys = (tokens.len() * cfg.num_kv_heads * cfg.num_layers) as u64;
    let transposed = || trace::metrics::counter("kernels.keys_transposed").get();

    // Chunk-32 prefill under SampleAttention: 16 chunks x 2 layers x 4
    // heads = 128 head calls, each against the whole cache so far.
    let method = TallyExtras {
        inner: SampleAttentionMethod::paper_default(),
        extras: AtomicU64::new(0),
    };
    let session = trace::scoped();
    let (result, _) = model
        .prefill_chunked(&tokens, 32, &method)
        .expect("chunked prefill");
    let counted = transposed();
    drop(session);
    assert_eq!(result.fallback_heads(), 0, "a dense fallback re-transposes");
    let extras = method.extras.load(Ordering::Relaxed);
    assert!(
        extras > 0,
        "no head gathered a stripe: the run proves nothing"
    );
    assert_eq!(
        counted,
        cache_keys + extras,
        "{cache_keys} cache keys + {extras} gathered stripe keys"
    );
    // (Transposing per head call and per chunk moved 17x the cache keys
    // here: the sum over chunks of the cache length, times 8 heads.)

    // Dense prefill in one chunk, then decode: nothing is gathered, and a
    // step adds one key per KV head and layer.
    let session = trace::scoped();
    let mut decode = model
        .begin_decode(&tokens, &FullAttention::new())
        .expect("prefill");
    assert_eq!(transposed(), cache_keys);
    for _ in 0..5 {
        decode.step().expect("decode step");
    }
    assert_eq!(
        transposed(),
        cache_keys + 5 * (cfg.num_kv_heads * cfg.num_layers) as u64
    );
    drop(session);
}
