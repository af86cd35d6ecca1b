//! # sa-kernels
//!
//! Attention kernels for the SampleAttention reproduction.
//!
//! Three kernels cover the space the paper benchmarks:
//!
//! - [`full_attention`] — the naive reference: materialises the full
//!   `S_q x S_k` score matrix `P = softmax(Q K^T / sqrt(d))` (PyTorch
//!   "SDPA" in the paper's benchmarks). Exact but O(S²) memory.
//! - [`flash_attention`] — a FlashAttention-style blocked kernel with
//!   online softmax: exact output, O(S) memory, the paper's dense
//!   baseline.
//! - [`sparse_flash_attention_blocked`] — the block-sparse kernel
//!   consuming a [`StructuredMask`] (local window + attention sinks +
//!   column stripes, the only mask shape), the execution engine of
//!   SampleAttention and of the structured baselines.
//!
//! The last two are one loop, the blocked engine (a transposed-K score
//! microkernel and a per-block online softmax), run over different row
//! geometry. [`sparse_flash_attention`] is its row-wise reference: the
//! differential tests hold the engine bitwise-equal to it.
//!
//! The engine reads keys as [`KeyPanels`]. The `&Matrix` entry points
//! build them per call; a caller that keeps keys across calls (a KV
//! cache, the heads of a GQA group) builds them once and passes
//! [`PreparedKeys`] to the `*_prepared` entry points instead.
//!
//! Every kernel reports a [`CostReport`] with exact FLOP and byte counts so
//! the `sa-perf` roofline model can translate algorithmic work into A100
//! latency.
//!
//! The crate also provides [`rope::apply_rope`] rotary position embeddings
//! and [`gqa`] grouped-query-attention head mapping, which the synthetic
//! transformer substrate (`sa-model`) uses to mirror the ChatGLM2 /
//! InternLM2 architectures.

mod blocked;
mod cost;
mod flash;
mod full;
pub mod gqa;
mod mask;
mod panels;
pub mod rope;
mod sparse_flash;
mod tile;

pub use blocked::{
    run_engine, sparse_flash_attention_blocked, sparse_flash_attention_prepared,
    sparse_flash_attention_prepared_on, BlockedAttentionOutput, EngineJob,
};
pub use cost::CostReport;
pub use flash::{flash_attention, flash_attention_prepared, FlashParams};
pub use full::{
    attention_probs, attention_scores_raw, causal_pairs, full_attention, masked_attention_dense,
    AttentionOutput,
};
pub use mask::{DenseMask, StructuredMask, StructuredMaskBuilder};
pub use panels::{KeyPanels, PreparedKeys, BLOCK as ENGINE_BLOCK};
pub use sparse_flash::sparse_flash_attention;
pub use tile::{
    sparse_flash_attention_tiled, TileClass, TileEntry, TileTraffic, TiledMask, MAX_TILE,
};

/// Scale factor `1 / sqrt(d)` applied to raw scores, as in Eq. (1).
#[inline]
pub fn score_scale(d: usize) -> f32 {
    1.0 / (d as f32).sqrt()
}

/// Kernel-level error type (re-exported tensor errors plus mask/shape
/// validation).
pub type KernelError = sa_tensor::TensorError;
