//! Fixed-shape probes of the sa-tensor primitives and of the host itself.
//!
//! They run in every traced run, whatever the workload, so each per-layer
//! breakdown carries the roofline it was measured under. Shapes do not
//! depend on the seed; only the values in the arrays do.

use sa_json::Json;
use sa_tensor::{col_sum, matmul_transb, pool, softmax_rows_in_place, DeterministicRng, TilePack};

use crate::metrics::MetricSet;
use crate::spans::Tracer;
use crate::stats::median;

/// Shapes of the probes. `full()` is what a run uses; tests shrink it.
#[derive(Debug, Clone, Copy)]
pub struct ProbeShape {
    /// The score block is `score_rows x score_cols` (a 1024-row query
    /// block against 16K keys at full size).
    pub score_rows: usize,
    pub score_cols: usize,
    pub head_dim: usize,
    /// Elements per array of the stream probe (three f32 arrays).
    pub stream_elems: usize,
    /// FMA iterations per lane per thread.
    pub fma_iters: usize,
    pub reps: usize,
}

impl ProbeShape {
    pub fn full() -> Self {
        ProbeShape {
            score_rows: 1024,
            score_cols: 16_384,
            head_dim: 64,
            // 3 x 64 MiB: at least four times any last-level cache this
            // code is likely to meet, so the triad streams from memory.
            stream_elems: 16 << 20,
            fma_iters: 1 << 20,
            reps: 3,
        }
    }

    pub fn miniature() -> Self {
        ProbeShape {
            score_rows: 32,
            score_cols: 256,
            head_dim: 16,
            stream_elems: 1 << 12,
            fma_iters: 1 << 8,
            reps: 1,
        }
    }
}

/// Host ceilings measured by [`run`], for the kernels' roofline share.
#[derive(Debug, Clone, Copy)]
pub struct HostCeilings {
    pub stream_gbps: f64,
    pub fma_gflops: f64,
}

/// Runs every probe, records the `tensor.*` and `host.*` metrics, and
/// returns the host ceilings plus a description of the shapes used.
pub fn run(
    tr: &mut Tracer,
    seed: u64,
    shape: ProbeShape,
    out: &mut MetricSet,
) -> (HostCeilings, Json) {
    let mut rng = DeterministicRng::new(seed ^ 0x70_726f_6265);
    let q = rng.normal_matrix(shape.score_rows, shape.head_dim, 1.0);
    let k = rng.normal_matrix(shape.score_cols, shape.head_dim, 1.0);
    let block_bytes = (shape.score_rows * shape.score_cols * 4) as f64;

    let mut matmul_ms = Vec::new();
    let mut softmax_ms = Vec::new();
    let mut col_sum_ms = Vec::new();
    for _ in 0..shape.reps {
        let (scores, ms) = tr.time("tensor.matmul_transb", || {
            matmul_transb(&q, &k).expect("probe shapes agree")
        });
        matmul_ms.push(ms);
        let mut scores = scores;
        let ((), ms) = tr.time("tensor.softmax_rows", || softmax_rows_in_place(&mut scores));
        softmax_ms.push(ms);
        let (sums, ms) = tr.time("tensor.col_sum", || col_sum(&scores));
        col_sum_ms.push(ms);
        std::hint::black_box(sums);
    }
    let matmul_flops = 2.0 * (shape.score_rows * shape.score_cols * shape.head_dim) as f64;
    out.set(
        "tensor.matmul_transb_gflops",
        matmul_flops / (median(&matmul_ms) * 1e6),
        matmul_ms.len(),
    );
    // Softmax reads and writes the block once each (computed bytes).
    out.set(
        "tensor.softmax_rows_gbps",
        2.0 * block_bytes / (median(&softmax_ms) * 1e6),
        softmax_ms.len(),
    );
    out.set(
        "tensor.col_sum_gbps",
        block_bytes / (median(&col_sum_ms) * 1e6),
        col_sum_ms.len(),
    );

    // Gather half of K's rows in a shuffled order, as a sparse tile does.
    let mut indices: Vec<usize> = (0..shape.score_cols).collect();
    rng.shuffle(&mut indices);
    indices.truncate(shape.score_cols / 2);
    let mut pack = TilePack::new();
    let gather_ms: Vec<f64> = (0..shape.reps * 20)
        .map(|_| {
            tr.time("tensor.tilepack_gather", || {
                pack.pack_rows(&k, &indices).expect("indices in range")
            })
            .1
        })
        .collect();
    let gather_bytes = 2.0 * (indices.len() * shape.head_dim * 4) as f64;
    out.set(
        "tensor.tilepack_gather_gbps",
        gather_bytes / (median(&gather_ms) * 1e6),
        gather_ms.len(),
    );

    // An empty body: what one pool fan-out costs before any work.
    let threads = pool::hardware_threads();
    let dispatch_us: Vec<f64> = (0..shape.reps * 100)
        .map(|_| {
            tr.time("tensor.pool_dispatch", || {
                pool::parallel_for(threads, 1, |_| {})
            })
            .1 * 1e3
        })
        .collect();
    out.set(
        "tensor.pool_dispatch_us_p50",
        median(&dispatch_us),
        dispatch_us.len(),
    );

    let ceilings = HostCeilings {
        stream_gbps: stream_gbps(tr, shape),
        fma_gflops: fma_gflops(tr, shape, threads),
    };
    out.set("host.stream_gbps", ceilings.stream_gbps, shape.reps);
    out.set("host.fma_gflops", ceilings.fma_gflops, shape.reps);

    let sizes = Json::Object(vec![
        (
            "score_block".to_string(),
            Json::Str(format!("{}x{}", shape.score_rows, shape.score_cols)),
        ),
        ("head_dim".to_string(), Json::Int(shape.head_dim as i64)),
        ("tilepack_rows".to_string(), Json::Int(indices.len() as i64)),
        (
            "stream_bytes".to_string(),
            Json::Int((3 * shape.stream_elems * 4) as i64),
        ),
        ("fma_lanes".to_string(), Json::Int(FMA_LANES as i64)),
        (
            "fma_iters_per_thread".to_string(),
            Json::Int(shape.fma_iters as i64),
        ),
        ("pool_threads".to_string(), Json::Int(threads as i64)),
    ]);
    (ceilings, sizes)
}

/// STREAM triad `a = b + s * c` over the library's pool: 12 bytes moved
/// per element (two reads, one write).
fn stream_gbps(tr: &mut Tracer, shape: ProbeShape) -> f64 {
    let n = shape.stream_elems;
    let b = vec![1.0f32; n];
    let c = vec![2.0f32; n];
    let mut a = vec![0.0f32; n];
    let width = n.min(1 << 12);
    let ms: Vec<f64> = (0..shape.reps)
        .map(|_| {
            tr.time("host.stream", || {
                pool::parallel_for_rows(&mut a, width, 16, |first_row, dst| {
                    let lo = first_row * width;
                    let (bs, cs) = (&b[lo..lo + dst.len()], &c[lo..lo + dst.len()]);
                    for ((x, &bv), &cv) in dst.iter_mut().zip(bs).zip(cs) {
                        *x = bv + 3.0 * cv;
                    }
                });
            })
            .1
        })
        .collect();
    std::hint::black_box(&a);
    (12 * n) as f64 / (median(&ms) * 1e6)
}

const FMA_LANES: usize = 64;

/// Independent multiply-add chains on every pool thread: the arithmetic
/// ceiling of this build (same compiler flags as the crates under test).
fn fma_gflops(tr: &mut Tracer, shape: ProbeShape, threads: usize) -> f64 {
    let ms: Vec<f64> = (0..shape.reps)
        .map(|_| {
            tr.time("host.fma", || {
                let sums = pool::parallel_map(threads, 1, |t| {
                    let mut acc = [1.0f32 + t as f32 * 1e-3; FMA_LANES];
                    let (m, c) = (
                        std::hint::black_box(0.999_9f32),
                        std::hint::black_box(1e-4f32),
                    );
                    for _ in 0..shape.fma_iters {
                        for x in &mut acc {
                            *x = *x * m + c;
                        }
                    }
                    acc.iter().sum::<f32>()
                });
                std::hint::black_box(sums);
            })
            .1
        })
        .collect();
    (2 * FMA_LANES * shape.fma_iters * threads) as f64 / (median(&ms) * 1e6)
}
