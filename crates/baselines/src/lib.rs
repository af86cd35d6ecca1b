//! # sa-baselines
//!
//! The baseline sparse-attention methods the paper compares against
//! (§5.2):
//!
//! - [`FullAttention`] — dense causal attention via the flash kernel; the
//!   gold standard.
//! - [`BigBird`] — static window + global tokens + random columns
//!   (Zaheer et al., 2020).
//! - [`StreamingLlm`] — attention sinks (first few tokens) + a fixed
//!   window (Xiao et al., 2023).
//! - [`HyperAttention`] — LSH bucketing plus uniformly sampled columns
//!   (Han et al., 2023).
//! - [`HashSparse`] — hash-bucketed sparse flash attention (Pagliardini
//!   et al., 2023).
//! - [`WindowOnly`] — pure sliding window (ablation helper).
//! - [`SampleAttentionMethod`] — adapter putting `sa-core`'s
//!   SampleAttention behind the same [`AttentionMethod`] interface.
//!
//! All methods implement [`AttentionMethod`], produce a [`MethodOutput`]
//! with output, cost, and achieved mask density, and are evaluated
//! head-by-head exactly like SampleAttention so the accuracy comparisons
//! in Table 2 / Figure 4 are apples-to-apples.

mod bigbird;
mod full;
mod gather;
mod hash_sparse;
mod hyper_attention;
pub mod lsh;
mod method;
mod sample_adapter;
mod streaming;
mod window;

pub use bigbird::BigBird;
pub use full::FullAttention;
pub use hash_sparse::HashSparse;
pub use hyper_attention::HyperAttention;
pub use method::{finish_heads, AttentionMethod, GroupKeys, HeadPlan, MethodOutput, PlannedHead};
pub use sample_adapter::SampleAttentionMethod;
pub use streaming::StreamingLlm;
pub use window::WindowOnly;
