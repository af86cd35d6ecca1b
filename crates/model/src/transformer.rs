//! The synthetic decoder-only transformer.

use sa_baselines::AttentionMethod;
use sa_kernels::CostReport;
use sa_tensor::{CancelToken, DeterministicRng, Matrix, TensorError};

use crate::{AttentionLayer, ModelConfig, Readout, TokenEmbedder};

pub use crate::layer::HeadReport;

/// Result of a prefill pass.
///
/// What it holds depends on the entry that ran it.
/// [`SyntheticTransformer::prefill`], the analysis entry, holds every
/// field whole. A cache-keeping run
/// ([`prefill_chunked`](SyntheticTransformer::prefill_chunked),
/// [`begin_decode`](SyntheticTransformer::begin_decode), the serving
/// layer's attempts) holds what its callers read and nothing more:
/// the reports and the cost whole, `hidden` and `head_contents` in part,
/// `layer_inputs` empty. Every value held has the same bits either way.
/// Its keys and values live in the caches the run hands back beside it.
#[derive(Debug, Clone)]
pub struct PrefillResult {
    /// Final residual stream: `(S, hidden_dim)` after `prefill`. A
    /// cache-keeping run keeps only the newest row, `(1, hidden_dim)`: no
    /// decode or serving caller reads the others.
    pub hidden: Matrix,
    /// The residual stream *entering* each layer (index = layer); used by
    /// the sparsity analyses and the serving canary to recompute per-head
    /// scores. Empty for a cache-keeping run.
    pub layer_inputs: Vec<Matrix>,
    /// Content-space output of every head, layer-major
    /// (`layer * num_heads + head`): `(S, content_dim)` each after
    /// `prefill`. A cache-keeping run keeps all `S` rows of the heads
    /// the [`Readout`] reads, so [`answer_at`](SyntheticTransformer::answer_at)
    /// works at every position, and only the newest row `(1,
    /// content_dim)` of every other head.
    pub head_contents: Vec<Matrix>,
    /// Flattened per-head diagnostics, aligned with `head_contents`.
    pub head_reports: Vec<HeadReport>,
    /// Total prefill cost (embedding excluded; projections, attention,
    /// MLPs included), counting the work that ran: a cache-keeping run's
    /// last layer computes only the rows it keeps (see
    /// [`ChunkedPrefill`](crate::ChunkedPrefill)), so its cost, and its
    /// last-layer heads' report costs, fall below `prefill`'s.
    pub total_cost: CostReport,
}

impl PrefillResult {
    /// Mean attention density across all heads (1.0 = dense).
    pub fn mean_density(&self) -> f64 {
        if self.head_reports.is_empty() {
            return 1.0;
        }
        self.head_reports.iter().map(|r| r.density).sum::<f64>() / self.head_reports.len() as f64
    }

    /// Number of heads (across all layers) whose stage-2 selection fell
    /// short of the configured α coverage.
    pub fn heads_alpha_unsatisfied(&self) -> usize {
        self.head_reports.iter().filter(|r| !r.alpha_satisfied).count()
    }

    /// Number of heads (across all layers) that transparently degraded to
    /// the dense fallback.
    pub fn fallback_heads(&self) -> usize {
        self.head_reports.iter().filter(|r| r.fell_back).count()
    }

    /// Dense-fallback tally by reason across all heads and layers, in
    /// [`FallbackReason::DEGRADATIONS`] order, zero-count reasons
    /// omitted. Empty on a healthy prefill.
    ///
    /// [`FallbackReason::DEGRADATIONS`]: sa_core::FallbackReason::DEGRADATIONS
    pub fn fallback_tally(&self) -> Vec<(sa_core::FallbackReason, usize)> {
        sa_core::FallbackReason::DEGRADATIONS
            .iter()
            .filter_map(|&reason| {
                let n = self
                    .head_reports
                    .iter()
                    .filter(|r| r.fallback_reason == reason)
                    .count();
                (n > 0).then_some((reason, n))
            })
            .collect()
    }
}

/// A constructed decoder-only transformer with archetype-designed heads.
///
/// # Example
///
/// ```
/// use sa_model::{ModelConfig, SyntheticTransformer};
/// use sa_baselines::FullAttention;
///
/// # fn main() -> Result<(), Box<dyn std::error::Error>> {
/// let model = SyntheticTransformer::new(ModelConfig::tiny(7))?;
/// let tokens = model.tokenize_filler(64);
/// let result = model.prefill(&tokens, &FullAttention::new())?;
/// assert_eq!(result.hidden.rows(), 64);
/// # Ok(())
/// # }
/// ```
#[derive(Debug)]
pub struct SyntheticTransformer {
    config: ModelConfig,
    embedder: TokenEmbedder,
    layers: Vec<AttentionLayer>,
}

impl SyntheticTransformer {
    /// Builds the model deterministically from its config seed.
    ///
    /// # Errors
    ///
    /// Returns [`TensorError::InvalidDimension`] if the config is invalid.
    pub fn new(config: ModelConfig) -> Result<Self, TensorError> {
        config.validate()?;
        let embedder = TokenEmbedder::new(config);
        let mut rng = DeterministicRng::new(config.seed ^ LAYER_SEED_SALT);
        let layers = (0..config.num_layers)
            .map(|l| AttentionLayer::generate(&config, l, &mut rng))
            .collect::<Result<_, _>>()?;
        Ok(SyntheticTransformer {
            config,
            embedder,
            layers,
        })
    }

    /// The model configuration.
    pub fn config(&self) -> &ModelConfig {
        &self.config
    }

    /// The token embedder (vocabulary access for workloads).
    pub fn embedder(&self) -> &TokenEmbedder {
        &self.embedder
    }

    /// The model's layers.
    pub fn layers(&self) -> &[AttentionLayer] {
        &self.layers
    }

    /// A BOS-prefixed filler sequence of length `len` (cycling through a
    /// band of "common word" tokens) — handy for tests and examples.
    pub fn tokenize_filler(&self, len: usize) -> Vec<u32> {
        let vocab = self.config.vocab_size as u32;
        std::iter::once(crate::BOS_TOKEN)
            .chain((0..len.saturating_sub(1)).map(|i| (i as u32 % 48) + vocab / 2))
            .collect()
    }

    /// Runs prefill with `method` substituted into every attention head:
    /// the whole prompt as one chunk of
    /// [`ChunkedPrefill`](crate::ChunkedPrefill), the path decoding and
    /// serving run, its KV caches dropped. The analysis entry: the result
    /// holds every layer's input and every head's rows (see
    /// [`PrefillResult`]).
    ///
    /// # Errors
    ///
    /// Returns [`TensorError::InvalidDimension`] for an empty prompt,
    /// [`TensorError::IndexOutOfBounds`] for a token outside the
    /// vocabulary, or propagates kernel errors.
    pub fn prefill(
        &self,
        tokens: &[u32],
        method: &dyn AttentionMethod,
    ) -> Result<PrefillResult, TensorError> {
        let run = self.start_run(tokens, tokens.len().max(1), true)?;
        let (result, _) = run.run_to_end(method, &CancelToken::new())?;
        Ok(result)
    }

    /// Decodes the model's answer at sequence position `pos`: the nearest
    /// vocabulary token to the retrieval heads' mean content output.
    ///
    /// Returns `(token, confidence)` where confidence is the cosine
    /// similarity to the winning embedding. Returns BOS with zero
    /// confidence if the model has no retrieval heads.
    pub fn answer_at(&self, result: &PrefillResult, pos: usize) -> (u32, f32) {
        let readout = Readout::from_reports(&result.head_reports);
        match readout.answer_vector(&result.head_contents, pos) {
            Some(v) => self.embedder.nearest_token(&v),
            None => (crate::BOS_TOKEN, 0.0),
        }
    }

    /// Like [`answer_at`](Self::answer_at) but with the candidate set
    /// restricted to a token-id range (constrained decoding: benchmark
    /// scorers only accept answers from the valid-answer band).
    pub fn answer_at_in(
        &self,
        result: &PrefillResult,
        pos: usize,
        range: std::ops::Range<u32>,
    ) -> (u32, f32) {
        let readout = Readout::from_reports(&result.head_reports);
        match readout.answer_vector(&result.head_contents, pos) {
            Some(v) => self.embedder.nearest_token_in(&v, range),
            None => (crate::BOS_TOKEN, 0.0),
        }
    }
}

/// Seed salt separating layer-weight randomness from the embedder's.
const LAYER_SEED_SALT: u64 = 0x1a7e_55ed;

#[cfg(test)]
mod tests {
    use super::*;
    use crate::BOS_TOKEN;
    use sa_baselines::{FullAttention, SampleAttentionMethod, StreamingLlm};

    /// A NIAH-style prompt: filler with one marker/payload pair planted at
    /// `depth`, question (the marker) at the end.
    fn needle_prompt(model: &SyntheticTransformer, len: usize, depth: usize) -> (Vec<u32>, u32) {
        let layout = *model.embedder().layout();
        let marker = layout.marker(3);
        let payload = layout.payload(7);
        let mut tokens = model.tokenize_filler(len);
        tokens[depth] = marker;
        tokens[depth + 1] = payload;
        let last = tokens.len() - 1;
        tokens[last] = marker;
        (tokens, payload)
    }

    #[test]
    fn full_attention_recovers_needle() {
        let model = SyntheticTransformer::new(ModelConfig::tiny(11)).unwrap();
        let (tokens, payload) = needle_prompt(&model, 300, 120);
        let result = model.prefill(&tokens, &FullAttention::new()).unwrap();
        let (answer, confidence) = model.answer_at(&result, tokens.len() - 1);
        assert_eq!(answer, payload, "confidence {confidence}");
        assert!(confidence > 0.5);
    }

    #[test]
    fn needle_recovered_at_multiple_depths() {
        let model = SyntheticTransformer::new(ModelConfig::tiny(12)).unwrap();
        for depth in [10, 80, 200, 270] {
            let (tokens, payload) = needle_prompt(&model, 300, depth);
            let result = model.prefill(&tokens, &FullAttention::new()).unwrap();
            let (answer, _) = model.answer_at(&result, tokens.len() - 1);
            assert_eq!(answer, payload, "depth {depth}");
        }
    }

    #[test]
    fn sample_attention_preserves_needle() {
        let model = SyntheticTransformer::new(ModelConfig::tiny(13)).unwrap();
        let (tokens, payload) = needle_prompt(&model, 300, 100);
        let method = SampleAttentionMethod::paper_default();
        let result = model.prefill(&tokens, &method).unwrap();
        let (answer, _) = model.answer_at(&result, tokens.len() - 1);
        assert_eq!(answer, payload);
        assert!(result.mean_density() < 0.9, "density {}", result.mean_density());
    }

    #[test]
    fn streaming_llm_drops_mid_context_needle() {
        // The paper's headline failure: sink+window misses the needle.
        let model = SyntheticTransformer::new(ModelConfig::tiny(14)).unwrap();
        let (tokens, payload) = needle_prompt(&model, 400, 150);
        let method = StreamingLlm::paper_config();
        let result = model.prefill(&tokens, &method).unwrap();
        let (answer, _) = model.answer_at(&result, tokens.len() - 1);
        assert_ne!(answer, payload, "StreamingLLM should miss a mid-context needle");
    }

    #[test]
    fn prefill_structures_align() {
        let model = SyntheticTransformer::new(ModelConfig::tiny(15)).unwrap();
        let tokens = model.tokenize_filler(50);
        let r = model.prefill(&tokens, &FullAttention::new()).unwrap();
        let expect_heads = model.config().num_layers * model.config().num_heads;
        assert_eq!(r.head_contents.len(), expect_heads);
        assert_eq!(r.head_reports.len(), expect_heads);
        assert_eq!(r.layer_inputs.len(), model.config().num_layers);
        assert_eq!(r.mean_density(), 1.0);
        assert!(r.total_cost.flops > 0);
    }

    #[test]
    fn healthy_prefill_reports_no_fallbacks() {
        let model = SyntheticTransformer::new(ModelConfig::tiny(18)).unwrap();
        let tokens = model.tokenize_filler(80);
        let full = model.prefill(&tokens, &FullAttention::new()).unwrap();
        assert_eq!(full.fallback_heads(), 0);
        assert_eq!(full.heads_alpha_unsatisfied(), 0);
        let sample = model
            .prefill(&tokens, &SampleAttentionMethod::paper_default())
            .unwrap();
        assert_eq!(sample.fallback_heads(), 0);
        // Uncapped paper default reaches α on every head.
        assert_eq!(sample.heads_alpha_unsatisfied(), 0);
    }

    #[test]
    fn capped_alpha_shortfall_visible_per_head_at_top_level() {
        // A tight max_kv_ratio cap plus a tiny window forces stage-2
        // under-coverage; each affected head must be observable from the
        // transformer-level aggregate, not just the last one.
        let model = SyntheticTransformer::new(ModelConfig::tiny(19)).unwrap();
        let tokens = model.tokenize_filler(200);
        let cfg = sa_core::SampleAttentionConfig::builder()
            .cra_threshold(0.99)
            .max_kv_ratio(0.02)
            .window_ratio(0.01)
            .bottom_area_rows(0)
            .build()
            .unwrap();
        let result = model
            .prefill(&tokens, &SampleAttentionMethod::new(cfg))
            .unwrap();
        let unsatisfied = result.heads_alpha_unsatisfied();
        assert!(unsatisfied > 1, "expected several capped heads, got {unsatisfied}");
        assert_eq!(
            unsatisfied,
            result.head_reports.iter().filter(|r| !r.alpha_satisfied).count()
        );
        // The cap degrades coverage but is not a health fault by default.
        assert_eq!(result.fallback_heads(), 0);
    }

    #[test]
    fn fallback_tally_aggregates_reasons_across_heads() {
        let model = SyntheticTransformer::new(ModelConfig::tiny(20)).unwrap();
        let tokens = model.tokenize_filler(80);
        let healthy = model
            .prefill(&tokens, &SampleAttentionMethod::paper_default())
            .unwrap();
        assert!(healthy.fallback_tally().is_empty(), "healthy prefill tallies nothing");
        // Force every head down the dense path with an injected kernel
        // panic; the tally must account for all of them.
        let plan = sa_tensor::fault::FaultPlan::new(3).worker_panic("sparse_flash_attention");
        let guard = sa_tensor::fault::install(plan);
        let degraded = model
            .prefill(&tokens, &SampleAttentionMethod::paper_default())
            .unwrap();
        drop(guard);
        let tally = degraded.fallback_tally();
        assert_eq!(tally.len(), 1, "single reason expected: {tally:?}");
        assert_eq!(tally[0].0, sa_core::FallbackReason::WorkerPanic);
        assert_eq!(tally[0].1, degraded.fallback_heads());
        assert!(tally[0].1 > 0);
    }

    #[test]
    fn traced_prefill_emits_model_span_hierarchy() {
        let model = SyntheticTransformer::new(ModelConfig::tiny(21)).unwrap();
        let tokens = model.tokenize_filler(100);
        let layers = model.config().num_layers;
        // A whole prompt is one chunk; in chunks of 32 it is four, and
        // each chunk passes every layer.
        for (chunk, chunks) in [(100, 1), (32, 4)] {
            let _session = sa_trace::scoped();
            model
                .prefill_chunked(&tokens, chunk, &SampleAttentionMethod::paper_default())
                .unwrap();
            let events = sa_trace::drain();
            let count = |name: &str, label: Option<&str>| {
                events
                    .iter()
                    .filter(|e| e.cat == "model" && e.name == name)
                    .filter(|e| label.is_none() || e.label.as_deref() == label)
                    .count()
            };
            assert_eq!(count("prefill", None), 1);
            assert_eq!(count("layer", None), chunks * layers);
            for l in 0..layers {
                assert_eq!(count("layer", Some(&format!("L{l}"))), chunks, "L{l}");
            }
            assert_eq!(count("head", None), chunks * layers * model.config().num_heads);
            // Head spans carry their layer/head label.
            assert_eq!(count("head", Some("L0.H0")), chunks);
            // The stage spans from sa-core nest under the model spans; a
            // 32-row chunk lies in the bottom area and discovers nothing.
            let sampled = events.iter().any(|e| e.cat == "core" && e.name == "stage1_sampling");
            assert_eq!(sampled, chunk > 32);
        }
        let _session = sa_trace::scoped();
        model
            .prefill(&tokens, &SampleAttentionMethod::paper_default())
            .unwrap();
        let events = sa_trace::drain();
        let count = |name: &str| events.iter().filter(|e| e.cat == "model" && e.name == name).count();
        assert_eq!((count("prefill"), count("layer")), (1, layers));
    }

    #[test]
    fn traced_prefill_records_the_sparse_kernel_once_per_group() {
        let model = SyntheticTransformer::new(ModelConfig::tiny(21)).unwrap();
        let tokens = model.tokenize_filler(256);
        let spans = |method: &dyn AttentionMethod| {
            let _session = sa_trace::scoped();
            let out = model.prefill(&tokens, method).unwrap();
            let events = sa_trace::drain();
            let count = |cat: &str, name: &str| {
                events
                    .iter()
                    .filter(|e| e.cat == cat && e.name == name)
                    .count()
            };
            (
                count("model", "engine"),
                count("core", "sparse_kernel"),
                out.fallback_heads(),
            )
        };
        let groups = model.config().num_layers * model.config().num_kv_heads;
        let (engine, kernel, fell_back) = spans(&SampleAttentionMethod::paper_default());
        assert_eq!(engine, groups);
        assert_eq!(fell_back, 0);
        assert_eq!(kernel, groups, "one sparse-kernel stage per group's engine pass");
        // Dense heads run the engine without a sparse-kernel stage.
        assert_eq!(spans(&FullAttention::new()), (groups, 0, 0));
    }

    #[test]
    fn model_construction_is_deterministic() {
        let m1 = SyntheticTransformer::new(ModelConfig::tiny(16)).unwrap();
        let m2 = SyntheticTransformer::new(ModelConfig::tiny(16)).unwrap();
        let tokens = m1.tokenize_filler(40);
        let a = m1.prefill(&tokens, &FullAttention::new()).unwrap();
        let b = m2.prefill(&tokens, &FullAttention::new()).unwrap();
        assert_eq!(a.hidden, b.hidden);
    }

    #[test]
    fn tokenize_filler_starts_with_bos() {
        let model = SyntheticTransformer::new(ModelConfig::tiny(17)).unwrap();
        let t = model.tokenize_filler(10);
        assert_eq!(t.len(), 10);
        assert_eq!(t[0], BOS_TOKEN);
        assert!(t[1..].iter().all(|&x| (x as usize) < model.config().vocab_size));
    }
}
