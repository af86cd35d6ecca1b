//! # sa-tensor
//!
//! Dense math substrate for the SampleAttention reproduction.
//!
//! This crate provides the small set of numerical primitives every other
//! crate in the workspace builds on: a row-major [`Matrix`] of `f32`,
//! blocked matrix multiplication, an [`exp()`] and an [`fma()`] that owe
//! nothing to the platform's libm, cache-line-aligned storage
//! ([`AlignedBuf`]), numerically stable (and *online*) softmax built on
//! it, row/column reductions, selection primitives (arg-sort, top-k,
//! `searchsorted`), strided row sampling, and deterministic random
//! generation helpers.
//!
//! Everything is allocation-conscious, and the large-matrix entry points
//! (`matmul`, `matmul_transb`, `softmax_rows_in_place`, `col_sum`) are
//! data-parallel over independent rows/columns via the hermetic
//! worker pool in [`pool`]. Parallel execution is bit-deterministic with
//! respect to the serial path — see the [`pool`] module docs for the
//! contract — and the worker count is controlled by the `SA_THREADS`
//! environment variable (default: `std::thread::available_parallelism`).
//!
//! ## Example
//!
//! ```
//! use sa_tensor::{Matrix, matmul_transb, softmax_rows_in_place};
//!
//! # fn main() -> Result<(), sa_tensor::TensorError> {
//! let q = Matrix::from_fn(2, 4, |i, j| (i + j) as f32 * 0.1);
//! let k = Matrix::from_fn(3, 4, |i, j| (i * j) as f32 * 0.1);
//! let mut scores = matmul_transb(&q, &k)?; // 2x3 = Q K^T
//! softmax_rows_in_place(&mut scores);
//! assert!((scores.row(0).iter().sum::<f32>() - 1.0).abs() < 1e-6);
//! # Ok(())
//! # }
//! ```

mod aligned;
pub mod cancel;
pub mod check;
mod error;
mod exp;
pub mod fault;
mod finite;
mod fma;
mod isa;
mod matrix;
mod matmul;
mod packed;
pub mod pool;
mod reduce;
mod rng;
mod sample;
mod select;
mod softmax;
mod stats;
mod tilepack;
pub mod xoshiro;

/// The tracing crate this substrate reports to, re-exported so crates
/// that already build on `sa-tensor` can register a counter (for example
/// `sa_tensor::trace::counter_add!`) without a dependency edge of their
/// own.
pub use sa_trace as trace;

pub use aligned::{starts_on_line, AlignedBuf};
pub use cancel::CancelToken;
pub use error::{SaError, TensorError};
pub use exp::exp;
pub use finite::count_nonfinite;
pub use fma::{fma, mul_add};
pub use isa::{isa_name, Isa, IsaBuild};
pub use matrix::Matrix;
pub use matmul::{matmul, matmul_transb, matvec, GEMM_BLOCK};
pub use packed::{matmul_packed, matmul_packed_cols, matmul_packed_pair, PackedWeights};
pub use reduce::{
    col_mean, col_sum, row_l1_norms, row_max, row_min, row_sum, scale_rows_in_place,
};
pub use rng::{random_orthonormal_rows, seeded_rng, unit_vector, DeterministicRng};
pub use xoshiro::{splitmix64, Xoshiro256PlusPlus};
pub use sample::{stride_sample_indices, StrideSample};
pub use select::{
    argsort_desc, prefix_sum, searchsorted_left, searchsorted_right, top_k_indices,
    top_k_threshold_count,
};
pub use softmax::{
    log_sum_exp, online_softmax_update, online_softmax_update_on, online_softmax_update_tile_on,
    softmax_row, softmax_rows, softmax_rows_in_place, softmax_rows_on, OnlineSoftmaxState,
    FOLD_KEYS,
};
pub use stats::{cosine_similarity, l1_distance, l1_norm, max_abs_diff, mean, mse, variance};
pub use tilepack::TilePack;
