//! The blocked sparse-flash engine: the one production attention loop.
//!
//! Works straight off row geometry (a [`StructuredMask`], or the dense
//! rows [`flash_attention`](crate::flash_attention) runs over) — no tile
//! layout is built first. Query rows are taken [`BLOCK`] at a time; for
//! each query block the engine walks, in this order,
//!
//! - **(A)** the extra columns (sinks + stripes) below the window,
//!   gathered once per call into contiguous K/V and scored in panels of
//!   [`BLOCK`] ranks,
//! - **(B)** the window band in `BLOCK`-aligned key blocks,
//!
//! and folds every `BLOCK × BLOCK` score tile into a per-row online
//! softmax state as soon as it is scored, while the tile's V rows are
//! cache-hot.
//!
//! Score tiles come from the caller's [`KeyPanels`] (K transposed once
//! per KV head, see [`crate::panels`]); only the gathered extras are
//! transposed per call, since they depend on the mask. The panels, the
//! per-worker score tile and the gathered extras' V rows all start on a
//! 64-byte cache line ([`AlignedBuf`]), so the wide builds' loads over
//! them never straddle two lines.
//!
//! # Work units
//!
//! [`run_engine`] runs any number of heads' jobs ([`EngineJob`]) as one
//! pool call: every job's query blocks are grouped into runs of about
//! equal live pairs, and the runs go to the pool round-robin over the
//! jobs, each job's last rows first. The one-head entry points are a
//! call of one job. A block's result never depends on which run it is
//! in, so the cut moves time, not bits.
//!
//! # The fold partition
//!
//! Online softmax is only split-invariant in exact arithmetic; in f32
//! the result depends on how a row's keys are cut into update blocks.
//! The engine's cut is fixed by geometry alone: extras in `BLOCK`-rank
//! blocks, then the window in `BLOCK`-aligned key blocks.
//! [`sparse_flash_attention`](crate::sparse_flash_attention), the
//! row-wise reference, folds each row in exactly this partition with
//! the row form of the same fold ([`sa_tensor::online_softmax_update`];
//! the engine hands whole tiles to
//! [`sa_tensor::online_softmax_update_tile_on`], which is defined to
//! leave the same bits), so the two agree bit for bit at every
//! `SA_THREADS` and on every build of the inner loops
//! ([`sa_tensor::Isa`]).

use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::OnceLock;

use sa_tensor::trace::{self, Gauge};
use sa_tensor::{
    online_softmax_update_tile_on, pool, AlignedBuf, Isa, Matrix, OnlineSoftmaxState, TensorError,
    FOLD_KEYS,
};

use crate::cost::f32_bytes;
use crate::flash::{self, DenseRows};
use crate::panels::{KeyPanels, BLOCK};
use crate::{score_scale, CostReport, FlashParams, StructuredMask};

// A score tile row is one fold block.
const _: () = assert!(BLOCK == FOLD_KEYS);

/// Which keys each query row attends to.
pub(crate) trait RowGeometry: Sync {
    /// Row `i`'s window as the half-open key range `[start, end)`, where
    /// `end - 1` is the row's last visible key (`start == end` is an
    /// empty window); `None` when the row sees no key at all.
    fn window(&self, i: usize) -> Option<(usize, usize)>;

    /// Sorted extra columns; row `i` attends to those below its window
    /// start.
    fn extras(&self) -> &[usize] {
        &[]
    }
}

impl RowGeometry for StructuredMask {
    fn window(&self, i: usize) -> Option<(usize, usize)> {
        self.causal_end(i)
            .map(|end| (self.window_start(i), end + 1))
    }

    fn extras(&self) -> &[usize] {
        self.extra_columns()
    }
}

/// Result of [`sparse_flash_attention_blocked`]: the output, its cost,
/// and the engine's own work tallies.
#[derive(Debug, Clone)]
pub struct BlockedAttentionOutput {
    /// The `(S_q, d_v)` attention output `O`.
    pub output: Matrix,
    /// FLOPs of the live pairs; bytes of the K/V blocks actually loaded.
    pub cost: CostReport,
    /// Score pairs folded into an output row — equals `mask.nnz()`.
    pub live_pairs: u64,
    /// Score pairs computed, including the masked lanes of edge panels
    /// and the dead rows scored beside a live one:
    /// `live_pairs / scored_pairs` is the engine's useful share.
    pub scored_pairs: u64,
}

/// Work counted by one engine run.
#[derive(Debug, Clone, Copy, Default)]
pub(crate) struct Tally {
    pub live_pairs: u64,
    pub scored_pairs: u64,
    /// K/V rows loaded, one per key of every scored tile.
    pub kv_rows: u64,
}

/// Structured-sparse causal attention on the blocked engine.
///
/// Computes exactly `softmax(masked scores) V` for the entries live
/// under `mask`, bit for bit equal to the row-wise reference
/// [`sparse_flash_attention`](crate::sparse_flash_attention). Rows with
/// no live entry produce zeros.
///
/// # Errors
///
/// Returns [`TensorError::ShapeMismatch`] if the Q/K/V shapes disagree
/// with each other or with the mask dimensions, and
/// [`TensorError::WorkerPanic`] if a worker panics.
///
/// # Example
///
/// ```
/// use sa_tensor::DeterministicRng;
/// use sa_kernels::{sparse_flash_attention, sparse_flash_attention_blocked, StructuredMask};
///
/// # fn main() -> Result<(), sa_kernels::KernelError> {
/// let mut rng = DeterministicRng::new(0);
/// let (q, k, v) = (
///     rng.normal_matrix(96, 8, 1.0),
///     rng.normal_matrix(96, 8, 1.0),
///     rng.normal_matrix(96, 8, 1.0),
/// );
/// let mask = StructuredMask::builder(96, 96)
///     .window(8)
///     .sinks(2)
///     .columns(vec![20, 33])
///     .build()?;
/// let out = sparse_flash_attention_blocked(&q, &k, &v, &mask)?;
/// let reference = sparse_flash_attention(&q, &k, &v, &mask)?;
/// assert_eq!(out.output.as_slice(), reference.output.as_slice());
/// assert_eq!(out.live_pairs, mask.nnz() as u64);
/// # Ok(())
/// # }
/// ```
pub fn sparse_flash_attention_blocked(
    q: &Matrix,
    k: &Matrix,
    v: &Matrix,
    mask: &StructuredMask,
) -> Result<BlockedAttentionOutput, TensorError> {
    let panels = KeyPanels::from_rows(k);
    sparse_flash_attention_prepared(q, &panels, v, mask)
}

/// [`sparse_flash_attention_blocked`] on keys whose panels the caller
/// already holds, so nothing but the mask's gathered extras is transposed.
///
/// # Errors
///
/// As [`sparse_flash_attention_blocked`].
pub fn sparse_flash_attention_prepared(
    q: &Matrix,
    keys: &KeyPanels,
    v: &Matrix,
    mask: &StructuredMask,
) -> Result<BlockedAttentionOutput, TensorError> {
    sparse_flash_attention_prepared_on(Isa::detect(), q, keys, v, mask)
}

/// Differential-test hook: [`sparse_flash_attention_prepared`] with the
/// whole engine on the build of the inner loops `isa` names, so a test
/// can hold every build of `Isa::every()` against the others on one
/// host. Every build returns the same bits; production code never picks
/// one.
///
/// # Errors
///
/// As [`sparse_flash_attention_blocked`].
#[doc(hidden)]
pub fn sparse_flash_attention_prepared_on(
    isa: Isa,
    q: &Matrix,
    keys: &KeyPanels,
    v: &Matrix,
    mask: &StructuredMask,
) -> Result<BlockedAttentionOutput, TensorError> {
    run_engine_on(isa, &[EngineJob::sparse(q, keys, v, mask)])
        .pop()
        .expect("one result per job")
}

/// The shape checks shared by the engine and the row-wise reference; `k`
/// is the keys' `(count, width)`.
pub(crate) fn validate_sparse_shapes(
    q: &Matrix,
    k: (usize, usize),
    v: &Matrix,
    mask: &StructuredMask,
) -> Result<(), TensorError> {
    if q.cols() != k.1 {
        return Err(TensorError::ShapeMismatch {
            op: "sparse_flash_attention(q,k)",
            lhs: q.shape(),
            rhs: k,
        });
    }
    if k.0 != v.rows() {
        return Err(TensorError::ShapeMismatch {
            op: "sparse_flash_attention(k,v)",
            lhs: k,
            rhs: v.shape(),
        });
    }
    if mask.s_q() != q.rows() || mask.s_k() != k.0 {
        return Err(TensorError::ShapeMismatch {
            op: "sparse_flash_attention(mask)",
            lhs: (mask.s_q(), mask.s_k()),
            rhs: (q.rows(), k.0),
        });
    }
    Ok(())
}

/// One head's run on the engine: its queries, its keys and values, and
/// which keys each query row sees. [`run_engine`] runs any number of
/// them together.
///
/// A job computes every query row unless [`from_row`](Self::from_row)
/// cut it to a suffix: each row is folded on its own, so a row of a cut
/// job has the bits it has in the whole one.
#[derive(Debug, Clone, Copy)]
pub struct EngineJob<'a> {
    q: &'a Matrix,
    keys: &'a KeyPanels,
    v: &'a Matrix,
    rows: JobRows<'a>,
    /// First query row the job computes; its output holds the rows from
    /// here on.
    first_row: usize,
}

/// The keys each query row of a job sees.
#[derive(Debug, Clone, Copy)]
enum JobRows<'a> {
    /// The live entries of a structured mask: the sparse kernel.
    Mask(&'a StructuredMask),
    /// Every key a row may see: dense attention.
    Dense(DenseRows, FlashParams),
}

impl<'a> EngineJob<'a> {
    /// The sparse kernel's job: `softmax(masked scores) V` over the
    /// entries live under `mask`, as
    /// [`sparse_flash_attention_prepared`] computes it.
    pub fn sparse(
        q: &'a Matrix,
        keys: &'a KeyPanels,
        v: &'a Matrix,
        mask: &'a StructuredMask,
    ) -> Self {
        EngineJob {
            q,
            keys,
            v,
            rows: JobRows::Mask(mask),
            first_row: 0,
        }
    }

    /// The dense kernel's job, as
    /// [`flash_attention_prepared`](crate::flash_attention_prepared)
    /// computes it.
    pub fn dense(
        q: &'a Matrix,
        keys: &'a KeyPanels,
        v: &'a Matrix,
        causal: bool,
        params: FlashParams,
    ) -> Self {
        let rows = DenseRows {
            s_q: q.rows(),
            s_k: keys.len(),
            causal,
        };
        EngineJob {
            q,
            keys,
            v,
            rows: JobRows::Dense(rows, params),
            first_row: 0,
        }
    }

    /// The job cut to its query rows `row..`: its output is those rows,
    /// `(q.rows() - row, dv)`, each with the bits the whole job gives it,
    /// and its cost counts only them. A row past the last is a
    /// [`TensorError::InvalidDimension`] when the job runs.
    pub fn from_row(self, row: usize) -> Self {
        EngineJob {
            first_row: row,
            ..self
        }
    }

    /// Query rows the job computes.
    fn out_rows(&self) -> usize {
        self.q.rows().saturating_sub(self.first_row)
    }

    /// The rows of the job's query blocks: the [`BLOCK`] grid from row 0,
    /// its first block starting at the job's first row, so a cut job's
    /// blocks are the whole job's or their tails.
    fn blocks(&self) -> impl Iterator<Item = std::ops::Range<usize>> + '_ {
        let s_q = self.q.rows();
        let first = self.first_row.min(s_q);
        std::iter::once(first)
            .chain((first / BLOCK + 1..).map(|b| b * BLOCK))
            .take_while(move |&start| start < s_q)
            .map(move |start| start..((start / BLOCK + 1) * BLOCK).min(s_q))
    }

    /// Whether the job attends under a mask (the sparse kernel).
    pub fn is_sparse(&self) -> bool {
        matches!(self.rows, JobRows::Mask(_))
    }

    /// The pool call site the job runs under — the name a fault plan
    /// targets, the same as the one-job entry points'.
    fn site(&self) -> &'static str {
        match self.rows {
            JobRows::Mask(_) => "sparse_flash_attention",
            JobRows::Dense(..) => "flash_attention",
        }
    }

    fn validate(&self) -> Result<(), TensorError> {
        if self.first_row > self.q.rows() {
            return Err(TensorError::InvalidDimension {
                op: "EngineJob::from_row",
                what: format!("row {} of {} query rows", self.first_row, self.q.rows()),
            });
        }
        let k = (self.keys.len(), self.keys.dim());
        match self.rows {
            JobRows::Mask(mask) => validate_sparse_shapes(self.q, k, self.v, mask),
            JobRows::Dense(_, params) => flash::validate(self.q, k, self.v, params),
        }
    }

    /// Whether the job has nothing to compute: its output is all zeros.
    fn is_empty(&self) -> bool {
        self.out_rows() == 0 || self.v.cols() == 0 || self.keys.is_empty()
    }

    /// Scalar operations per live pair, the unit the work is cut in.
    fn ops_per_pair(&self) -> u64 {
        (self.q.cols() + self.v.cols()) as u64
    }

    /// The output and cost report of a finished run.
    fn output(&self, output: Matrix, tally: Tally) -> BlockedAttentionOutput {
        let (s_q, d) = (self.out_rows(), self.q.cols());
        let dv = self.v.cols();
        let flops = tally.live_pairs * (2 * d as u64 + 4 + 2 * dv as u64);
        let cost = match self.rows {
            // One fused launch: Q read once, every scored tile loads its
            // K and V rows once, the gathered extras are read and written
            // once more at gather time. The transposed K copy is host
            // layout, not traffic a GPU kernel would add.
            JobRows::Mask(mask) => {
                let gathered = mask.extra_columns().len() as u64;
                let kv_row_bytes = f32_bytes((d + dv) as u64);
                let bytes_read =
                    f32_bytes((s_q * d) as u64) + (tally.kv_rows + gathered) * kv_row_bytes;
                let bytes_written = f32_bytes((s_q * dv) as u64) + gathered * kv_row_bytes;
                CostReport::launch(flops, bytes_read, bytes_written)
            }
            JobRows::Dense(rows, params) => {
                flash::dense_cost(&rows, self.first_row, params, d, dv, flops)
            }
        };
        BlockedAttentionOutput {
            output,
            cost,
            live_pairs: tally.live_pairs,
            scored_pairs: tally.scored_pairs,
        }
    }
}

impl RowGeometry for JobRows<'_> {
    fn window(&self, i: usize) -> Option<(usize, usize)> {
        match self {
            JobRows::Mask(mask) => RowGeometry::window(*mask, i),
            JobRows::Dense(rows, _) => rows.window(i),
        }
    }

    fn extras(&self) -> &[usize] {
        match self {
            JobRows::Mask(mask) => mask.extra_columns(),
            JobRows::Dense(..) => &[],
        }
    }
}

/// Units a call's work is cut into when it is large: enough that the
/// last unit to finish is a small share of the call at any thread count
/// the host offers, few enough that per-unit set-up stays noise. A
/// constant, so the cut never depends on the thread count.
const UNITS_PER_CALL: u64 = 64;

/// Runs `jobs` on the engine as one set of work units and returns each
/// job's result, in job order.
///
/// The units are **(job, query-block range)** pairs: each job's query
/// rows are cut on the [`BLOCK`] grid into ranges of about equal live
/// pairs (about `1 / 64` of the call's work, never under
/// [`pool::MIN_CHUNK_OPS`] operations), and issued round-robin over the
/// jobs, each job's units from its last rows back to its first, so a
/// few heads of very different densities keep every thread busy to the
/// end of the call instead of waiting on the densest head. A query
/// block's fold is independent of every other
/// block and of how blocks are grouped, so every output is bit for bit
/// the one a call of its own ([`sparse_flash_attention_prepared`],
/// [`flash_attention_prepared`](crate::flash_attention_prepared)) returns,
/// at every thread count.
///
/// Failures stay with their job, as they would in calls of their own: a
/// job whose shapes disagree gets its own error, and a panic in one of a
/// job's units fails that job alone — its remaining units are skipped,
/// the other jobs run to the end. The jobs of one kind share one pool
/// call under that kind's site (`sparse_flash_attention` or
/// `flash_attention`), so a fault plan that names the site fails every
/// job of that kind, as it fails every one-job call there. The extras of
/// the sparse jobs are gathered on the calling thread before the units
/// start.
pub fn run_engine(jobs: &[EngineJob<'_>]) -> Vec<Result<BlockedAttentionOutput, TensorError>> {
    run_engine_on(Isa::detect(), jobs)
}

/// [`run_engine`] on the build of the inner loops `isa` names (see
/// [`sparse_flash_attention_prepared_on`]).
fn run_engine_on(
    isa: Isa,
    jobs: &[EngineJob<'_>],
) -> Vec<Result<BlockedAttentionOutput, TensorError>> {
    let mut results: Vec<Option<Result<BlockedAttentionOutput, TensorError>>> = jobs
        .iter()
        .map(|job| job.validate().err().map(Err))
        .collect();
    for site in ["sparse_flash_attention", "flash_attention"] {
        let members: Vec<usize> = (0..jobs.len())
            .filter(|&j| results[j].is_none() && jobs[j].site() == site)
            .collect();
        if members.is_empty() {
            continue;
        }
        let batch: Vec<&EngineJob<'_>> = members.iter().map(|&j| &jobs[j]).collect();
        match run_units(site, isa, &batch) {
            Ok(runs) => {
                for (&j, run) in members.iter().zip(runs) {
                    let job = &jobs[j];
                    results[j] = Some(run.map(|(output, tally)| job.output(output, tally)));
                }
            }
            Err(e) => {
                for &j in &members {
                    results[j] = Some(Err(e.clone()));
                }
            }
        }
    }
    results
        .into_iter()
        .map(|result| result.expect("every job validated or ran"))
        .collect()
}

/// A job's extras below the window, gathered: K transposed into panels,
/// V rows in rank order, both from a cache line.
struct Gathered {
    kt: KeyPanels,
    v: AlignedBuf,
}

/// One work unit: query rows `row0..` of job `job`, whose output rows
/// `out` holds.
struct Unit<'o> {
    job: usize,
    row0: usize,
    out: &'o mut [f32],
}

/// [`Tally`] as the units of one job add to it.
#[derive(Default)]
struct SharedTally {
    live_pairs: AtomicU64,
    scored_pairs: AtomicU64,
    kv_rows: AtomicU64,
}

impl SharedTally {
    fn add(&self, tally: Tally) {
        self.live_pairs
            .fetch_add(tally.live_pairs, Ordering::Relaxed);
        self.scored_pairs
            .fetch_add(tally.scored_pairs, Ordering::Relaxed);
        self.kv_rows.fetch_add(tally.kv_rows, Ordering::Relaxed);
    }

    fn into_tally(self) -> Tally {
        Tally {
            live_pairs: self.live_pairs.into_inner(),
            scored_pairs: self.scored_pairs.into_inner(),
            kv_rows: self.kv_rows.into_inner(),
        }
    }
}

/// A job's output and tally, or the error its run failed with.
type JobRun = Result<(Matrix, Tally), TensorError>;

/// Runs validated `jobs` on the engine as one pool call at `site` (see
/// [`run_units_with`]), both inner loops on the build `isa` names.
fn run_units(
    site: &'static str,
    isa: Isa,
    jobs: &[&EngineJob<'_>],
) -> Result<Vec<JobRun>, TensorError> {
    if trace::enabled() {
        static ISA_LANES: OnceLock<&'static Gauge> = OnceLock::new();
        ISA_LANES
            .get_or_init(|| trace::metrics::gauge("kernels.isa_lanes"))
            .set(isa.lanes() as i64);
    }
    // On the calling thread, before the fan-out, as a call of one job
    // always did: a gather on whichever thread reached a job first put
    // its few megabytes in that thread's allocator arena, and a 8K
    // operator call's peak RSS read 23.8 or 27.0 MB run by run.
    let gathered: Vec<Gathered> = jobs
        .iter()
        .map(|job| Gathered {
            kt: job.keys.gathered(job.rows.extras()),
            v: gather_values(job.v, job.rows.extras()),
        })
        .collect();
    run_units_with(site, jobs, |j, row0, out| {
        let job = jobs[j];
        let (q, keys, v, geom) = (job.q, job.keys, job.v, &job.rows);
        let extras = &gathered[j];
        let dv = v.cols();
        let scale = score_scale(q.cols());
        let mut block = QueryBlock::new(dv, isa, out.len() / dv);
        let mut tally = Tally::default();
        // Blocks on the grid: a unit starts on it unless it starts a cut job.
        let (mut q0, mut rest) = (row0, out);
        while !rest.is_empty() {
            let rows = (BLOCK - q0 % BLOCK).min(rest.len() / dv);
            let (out_rows, tail) = rest.split_at_mut(rows * dv);
            block.reset(geom, q0, rows);
            block.fold_extras(q, &extras.kt, extras.v.as_slice(), scale, &mut tally);
            block.fold_window(q, v.as_slice(), keys, scale, &mut tally);
            block.finish(out_rows);
            (q0, rest) = (q0 + rows, tail);
        }
        tally
    })
}

/// Cuts validated `jobs` into units, hands them to the pool at `site` in
/// [`cut_units`]' order, and runs `unit(job, row0, out)` on each — `out` the
/// output rows from `row0` of job `job` the unit covers. Returns every
/// job's output and the sum of its units' tallies.
///
/// A panic in a unit is contained where it happens ([`pool::contain`])
/// and fails that unit's job only: the job's later units are skipped and
/// every other job runs on. A failure of the call itself — a fault plan
/// naming `site`, a cancellation — is the `Err` of the whole call.
fn run_units_with<F>(
    site: &'static str,
    jobs: &[&EngineJob<'_>],
    unit: F,
) -> Result<Vec<JobRun>, TensorError>
where
    F: Fn(usize, usize, &mut [f32]) -> Tally + Sync,
{
    let mut outputs: Vec<Matrix> = jobs
        .iter()
        .map(|job| Matrix::zeros(job.out_rows(), job.v.cols()))
        .collect();
    // Operations of every query block of every job.
    let block_ops: Vec<Vec<u64>> = jobs
        .iter()
        .map(|job| {
            if job.is_empty() {
                return Vec::new();
            }
            let per_pair = job.ops_per_pair();
            job.blocks()
                .map(|rows| rows.map(|i| row_live(&job.rows, i)).sum::<u64>() * per_pair)
                .collect()
        })
        .collect();
    let mut rest: Vec<&mut [f32]> = outputs.iter_mut().map(Matrix::as_mut_slice).collect();
    // Each job's units come last rows first: split its output from the end.
    let mut units: Vec<Unit<'_>> = cut_units(&block_ops)
        .into_iter()
        .map(|plan| {
            let job = jobs[plan.job];
            let row0 = job.blocks().nth(plan.blocks.start).map_or(0, |rows| rows.start);
            let skip = (row0 - job.first_row) * job.v.cols();
            let (head, out) = std::mem::take(&mut rest[plan.job]).split_at_mut(skip);
            rest[plan.job] = head;
            Unit {
                job: plan.job,
                row0,
                out,
            }
        })
        .collect();
    // The pool claims from the back. (Issued by size alone, which
    // scatters one job's equal-sized units over its rows, a 16K operator
    // call ran slower than the row chunks it replaced in 10 of 10 pairs.)
    units.reverse();

    let tallies: Vec<SharedTally> = jobs.iter().map(|_| SharedTally::default()).collect();
    let failures: Vec<OnceLock<TensorError>> = jobs.iter().map(|_| OnceLock::new()).collect();
    pool::try_parallel_for_parts(site, units, |Unit { job, row0, out }| {
        if failures[job].get().is_some() {
            return;
        }
        match pool::contain(site, || unit(job, row0, out)) {
            Ok(tally) => tallies[job].add(tally),
            Err(e) => {
                let _ = failures[job].set(e);
            }
        }
    })?;
    Ok(outputs
        .into_iter()
        .zip(tallies)
        .zip(failures)
        .map(|((output, tally), failure)| match failure.into_inner() {
            Some(e) => Err(e),
            None => Ok((output, tally.into_tally())),
        })
        .collect())
}

/// Live pairs of query row `i`: its window and the extras below the
/// window.
fn row_live<G: RowGeometry>(geom: &G, i: usize) -> u64 {
    geom.window(i).map_or(0, |(start, end)| {
        let extras = geom.extras().partition_point(|&c| c < start);
        (end - start + extras) as u64
    })
}

/// Query blocks `blocks` of job `job`, `ops` scalar operations in all.
#[derive(Debug, Clone, PartialEq)]
struct UnitPlan {
    job: usize,
    blocks: std::ops::Range<usize>,
    ops: u64,
}

/// Cuts jobs whose query blocks cost `block_ops` into units: runs of
/// consecutive blocks of one job, each closed once it reaches
/// `1 / UNITS_PER_CALL` of the whole (and at least
/// [`pool::MIN_CHUNK_OPS`]) or at the job's last block.
///
/// Returned in the order they should start: round-robin over the jobs,
/// each job's units from its last rows back to its first — the order a
/// call of one job always claimed its row chunks in.
fn cut_units(block_ops: &[Vec<u64>]) -> Vec<UnitPlan> {
    let total: u64 = block_ops.iter().flatten().sum();
    let unit_ops = (total / UNITS_PER_CALL).max(pool::MIN_CHUNK_OPS as u64);
    let mut per_job: Vec<Vec<UnitPlan>> = Vec::with_capacity(block_ops.len());
    for (job, ops) in block_ops.iter().enumerate() {
        let mut units = Vec::new();
        let (mut first, mut size) = (0, 0);
        for (b, &block) in ops.iter().enumerate() {
            size += block;
            if size >= unit_ops || b + 1 == ops.len() {
                units.push(UnitPlan {
                    job,
                    blocks: first..b + 1,
                    ops: size,
                });
                (first, size) = (b + 1, 0);
            }
        }
        units.reverse();
        per_job.push(units);
    }
    let rounds = per_job.iter().map(Vec::len).max().unwrap_or(0);
    (0..rounds)
        .flat_map(|r| {
            per_job
                .iter()
                .filter_map(move |units| units.get(r).cloned())
        })
        .collect()
}

/// The rows `indices` of `v`, in that order, copied straight into
/// storage that starts on a cache line.
///
/// # Panics
///
/// Panics if an index is out of range.
fn gather_values(v: &Matrix, indices: &[usize]) -> AlignedBuf {
    let dv = v.cols();
    let mut slab = AlignedBuf::zeros(indices.len() * dv);
    for (dst, &j) in slab.as_mut_slice().chunks_exact_mut(dv).zip(indices) {
        dst.copy_from_slice(v.row(j));
    }
    slab
}

/// The `BLOCK`-aligned key blocks `first..=last` that the non-empty
/// windows among `windows` touch.
fn key_blocks(windows: impl Iterator<Item = (usize, usize)> + Clone) -> Option<(usize, usize)> {
    let band = windows.filter(|&(start, end)| start < end);
    let first = band.clone().map(|(start, _)| start / BLOCK).min()?;
    let last = band.map(|(_, end)| (end - 1) / BLOCK).max()?;
    Some((first, last))
}

/// Per-row state of the query block in flight.
struct QueryBlock {
    /// The build of the score panel and the fold this call runs.
    isa: Isa,
    /// First query row of the block.
    q0: usize,
    /// Window `[start, end)` per row; `None` for rows that see no key.
    window: Vec<Option<(usize, usize)>>,
    /// Extras below the window start, per row (0 for unseeing rows).
    extras_below: Vec<usize>,
    states: Vec<OnlineSoftmaxState>,
    /// The `BLOCK × BLOCK` score tile, one row of lanes per query row,
    /// from a cache line.
    scores: AlignedBuf,
    /// Lanes `[lo, hi)` of the current tile live on each row.
    live: Vec<(usize, usize)>,
}

impl QueryBlock {
    /// State for the query blocks of a unit of `unit_rows` rows: as many
    /// row states and score-tile rows as its tallest block holds, so a
    /// decode block or a serving chunk does not set up `BLOCK` of each.
    fn new(dv: usize, isa: Isa, unit_rows: usize) -> Self {
        let rows = unit_rows.min(BLOCK);
        QueryBlock {
            isa,
            q0: 0,
            window: Vec::with_capacity(rows),
            extras_below: Vec::with_capacity(rows),
            states: (0..rows).map(|_| OnlineSoftmaxState::new(dv)).collect(),
            scores: AlignedBuf::zeros(rows * BLOCK),
            live: Vec::with_capacity(rows),
        }
    }

    fn reset<G: RowGeometry>(&mut self, geom: &G, q0: usize, rows: usize) {
        self.q0 = q0;
        self.window.clear();
        self.window.extend((q0..q0 + rows).map(|i| geom.window(i)));
        let extras = geom.extras();
        self.extras_below.clear();
        self.extras_below.extend(
            self.window
                .iter()
                .map(|w| w.map_or(0, |(start, _)| extras.partition_point(|&c| c < start))),
        );
        for state in &mut self.states[..rows] {
            state.row_max = f32::NEG_INFINITY;
            state.row_sum = 0.0;
            state.acc.fill(0.0);
        }
    }

    /// (A) Extras below the window, a panel of `BLOCK` ranks at a time;
    /// `extra_v` holds their V rows in rank order.
    fn fold_extras(
        &mut self,
        q: &Matrix,
        kt: &KeyPanels,
        extra_v: &[f32],
        scale: f32,
        tally: &mut Tally,
    ) {
        let most = self.extras_below.iter().copied().max().unwrap_or(0);
        for p in 0..most.div_ceil(BLOCK) {
            self.live.clear();
            self.live.extend(
                self.extras_below
                    .iter()
                    .map(|&below| (0, below.saturating_sub(p * BLOCK).min(BLOCK))),
            );
            self.score_and_fold(q, kt, p, scale, tally, extra_v);
        }
    }

    /// (B) The window band, one `BLOCK`-aligned key block at a time; `v`
    /// is every V row in key order.
    fn fold_window(
        &mut self,
        q: &Matrix,
        v: &[f32],
        kt: &KeyPanels,
        scale: f32,
        tally: &mut Tally,
    ) {
        let Some((first, last)) = key_blocks(self.window.iter().flatten().copied()) else {
            return;
        };
        for kb in first..=last {
            let k0 = kb * BLOCK;
            self.live.clear();
            self.live.extend(self.window.iter().map(|w| match *w {
                Some((start, end)) if start < k0 + BLOCK && end > k0 => {
                    (start.max(k0) - k0, end.min(k0 + BLOCK) - k0)
                }
                _ => (0, 0),
            }));
            self.score_and_fold(q, kt, kb, scale, tally, v);
        }
    }

    /// Scores the rows with live lanes against panel `p` of `kt`, four
    /// rows per pass whenever any of the four is live (the 1–3 rows past
    /// the last whole four as a pair and a single), then folds the tile
    /// into the rows' states. Row `p * BLOCK + t` of `values` (rows as
    /// wide as the states) is the V row of lane `t`.
    fn score_and_fold(
        &mut self,
        q: &Matrix,
        kt: &KeyPanels,
        p: usize,
        scale: f32,
        tally: &mut Tally,
        values: &[f32],
    ) {
        let is_live = |&(lo, hi): &(usize, usize)| lo < hi;
        let isa = self.isa;
        let rows = self.live.len();
        let quads = rows - rows % 4;
        let (quad_tiles, rest_tiles) =
            self.scores.as_mut_slice()[..rows * BLOCK].split_at_mut(quads * BLOCK);
        let (quad_live, rest_live) = self.live.split_at(quads);
        let mut scored_rows = 0u64;
        for ((r, tile), live) in (0..)
            .step_by(4)
            .zip(quad_tiles.chunks_exact_mut(4 * BLOCK))
            .zip(quad_live.chunks_exact(4))
        {
            if live.iter().any(is_live) {
                let i = self.q0 + r;
                let (first, tile) = tile.split_at_mut(BLOCK);
                let (second, tile) = tile.split_at_mut(BLOCK);
                let (third, fourth) = tile.split_at_mut(BLOCK);
                let rows = std::array::from_fn(|k| q.row(i + k));
                kt.score_panel(isa, p, rows, scale, [first, second, third, fourth]);
                scored_rows += 4;
            }
        }
        for ((r, tile), live) in (quads..)
            .step_by(2)
            .zip(rest_tiles.chunks_mut(2 * BLOCK))
            .zip(rest_live.chunks(2))
        {
            let i = self.q0 + r;
            match live {
                [a, b] if is_live(a) || is_live(b) => {
                    let (first, second) = tile.split_at_mut(BLOCK);
                    kt.score_panel(isa, p, [q.row(i), q.row(i + 1)], scale, [first, second]);
                    scored_rows += 2;
                }
                [a] if is_live(a) => {
                    kt.score_panel(isa, p, [q.row(i)], scale, [tile]);
                    scored_rows += 1;
                }
                _ => {}
            }
        }
        if scored_rows == 0 {
            return;
        }
        let keys = kt.keys_in(p);
        tally.scored_pairs += scored_rows * BLOCK as u64;
        tally.kv_rows += keys as u64;
        tally.live_pairs += self
            .live
            .iter()
            .map(|&(lo, hi)| (hi - lo) as u64)
            .sum::<u64>();
        // The panel's V rows are contiguous in `values`.
        let dv = self.states[0].acc.len();
        online_softmax_update_tile_on(
            self.isa,
            &mut self.states[..rows],
            &self.scores.as_slice()[..rows * BLOCK],
            &self.live,
            &values[p * BLOCK * dv..][..keys * dv],
        );
    }

    fn finish(&mut self, out_rows: &mut [f32]) {
        let dv = self.states[0].acc.len();
        for (out, state) in out_rows.chunks_mut(dv).zip(&self.states) {
            if state.row_sum > 0.0 {
                let inv = 1.0 / state.row_sum;
                for (o, &a) in out.iter_mut().zip(&state.acc) {
                    *o = a * inv;
                }
            } else {
                out.fill(0.0);
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::{masked_attention_dense, sparse_flash_attention, TiledMask};
    use sa_tensor::{max_abs_diff, DeterministicRng};

    fn random_qkv(s_q: usize, s_k: usize, d: usize, seed: u64) -> (Matrix, Matrix, Matrix) {
        let mut rng = DeterministicRng::new(seed);
        (
            rng.normal_matrix(s_q, d, 1.0),
            rng.normal_matrix(s_k, d, 1.0),
            rng.normal_matrix(s_k, d, 1.0),
        )
    }

    /// Engine ≡ row-wise reference bit for bit, with the same live-pair
    /// tally, and both within tolerance of the dense masked oracle.
    fn assert_bitwise(mask: &StructuredMask, seed: u64) {
        let (q, k, v) = random_qkv(mask.s_q(), mask.s_k(), 8, seed);
        let a = sparse_flash_attention_blocked(&q, &k, &v, mask).unwrap();
        let b = sparse_flash_attention(&q, &k, &v, mask).unwrap();
        let ab: Vec<u32> = a.output.as_slice().iter().map(|x| x.to_bits()).collect();
        let bb: Vec<u32> = b.output.as_slice().iter().map(|x| x.to_bits()).collect();
        assert_eq!(ab, bb, "engine not bitwise identical to the reference");
        assert_eq!(a.cost.flops, b.cost.flops, "live-pair tallies diverged");
        assert_eq!(a.live_pairs, mask.nnz() as u64);
        assert!(a.scored_pairs >= a.live_pairs);
        let oracle = masked_attention_dense(&q, &k, &v, &mask.to_dense()).unwrap();
        assert!(max_abs_diff(a.output.as_slice(), oracle.output.as_slice()) < 1e-4);
    }

    #[test]
    fn bitwise_identical_on_mixed_mask() {
        for s in [70, 200] {
            let mask = StructuredMask::builder(s, s)
                .window(9)
                .sinks(3)
                .columns(vec![17, 31, 44])
                .dense_tail_rows(5)
                .build()
                .unwrap();
            assert_bitwise(&mask, 42);
        }
    }

    #[test]
    fn bitwise_identical_dense_causal() {
        assert_bitwise(&StructuredMask::dense_causal(65, 65), 1);
        assert_bitwise(&StructuredMask::dense_causal(192, 192), 1);
    }

    #[test]
    fn bitwise_identical_rectangular() {
        let mask = StructuredMask::builder(24, 50)
            .window(6)
            .sinks(2)
            .columns(vec![11])
            .build()
            .unwrap();
        assert_bitwise(&mask, 2);
        let tall = StructuredMask::builder(40, 12).window(4).build().unwrap();
        assert_bitwise(&tall, 3);
    }

    #[test]
    fn extras_cross_panel_edges_and_straddle_window_starts() {
        // 100 extras span two score panels; with a window of 20 the
        // window start sweeps past several of them inside one query
        // block, so rows of a block disagree on how many are below it.
        let mask = StructuredMask::builder(260, 260)
            .window(20)
            .columns((0..100).map(|i| i * 2 + (i % 3)).collect())
            .build()
            .unwrap();
        assert_bitwise(&mask, 4);
    }

    #[test]
    fn bitwise_identical_under_thread_overrides() {
        // Dense enough for a 64-row grain, long enough for six chunks.
        let s = 330;
        let mask = StructuredMask::builder(s, s)
            .window(40)
            .sinks(2)
            .columns((0..70).map(|i| 3 + i * 4).collect())
            .dense_tail_rows(10)
            .build()
            .unwrap();
        let (q, k, v) = random_qkv(s, s, 8, 9);
        let baseline = sparse_flash_attention(&q, &k, &v, &mask).unwrap();
        for threads in [1, 2, 3, 5] {
            let out = pool::with_threads(threads, || {
                sparse_flash_attention_blocked(&q, &k, &v, &mask)
            })
            .unwrap();
            assert_eq!(
                out.output.as_slice(),
                baseline.output.as_slice(),
                "threads={threads}"
            );
            assert_eq!(out.live_pairs, mask.nnz() as u64, "threads={threads}");
        }
    }

    #[test]
    fn empty_rows_stay_zero() {
        let mask = StructuredMask::builder(12, 4).window(2).build().unwrap();
        let (q, k, v) = random_qkv(12, 4, 4, 11);
        let out = sparse_flash_attention_blocked(&q, &k, &v, &mask).unwrap();
        for i in 0..8 {
            assert!(out.output.row(i).iter().all(|&x| x == 0.0), "row {i}");
        }
        assert_bitwise(&mask, 11);
        let nothing = StructuredMask::builder(6, 6).window(0).build().unwrap();
        let (q, k, v) = random_qkv(6, 6, 4, 12);
        let out = sparse_flash_attention_blocked(&q, &k, &v, &nothing).unwrap();
        assert!(out.output.as_slice().iter().all(|&x| x == 0.0));
        assert_eq!((out.live_pairs, out.scored_pairs), (0, 0));
    }

    #[test]
    fn decode_shaped_calls_run_the_panels() {
        // One to four query rows against a long key set: no row-wise
        // fork, the same panels and the same bits as the reference.
        for s_q in 1..=4 {
            let mask = StructuredMask::builder(s_q, 150)
                .window(20)
                .sinks(2)
                .columns((0..70).map(|i| 3 + i).collect())
                .build()
                .unwrap();
            assert_bitwise(&mask, 5);
            let (q, k, v) = random_qkv(s_q, 150, 8, 5);
            let panels = KeyPanels::from_rows(&k);
            let prepared =
                sparse_flash_attention_prepared(&q, &panels, &v, &mask)
                    .unwrap();
            let rebuilt = sparse_flash_attention_blocked(&q, &k, &v, &mask).unwrap();
            assert_eq!(prepared.output.as_slice(), rebuilt.output.as_slice());
            assert_eq!(prepared.cost, rebuilt.cost);
            assert!(prepared.scored_pairs > prepared.live_pairs, "s_q={s_q}");
        }
    }

    #[test]
    fn units_tile_every_job_on_the_block_grid_in_near_equal_shares() {
        // A dense triangle, a flat sparse head, an empty job.
        let big = pool::MIN_CHUNK_OPS as u64 * 100;
        let triangle: Vec<u64> = (1..=40).map(|b| b * big).collect();
        let flat = vec![3 * big; 25];
        let block_ops = vec![triangle, flat, Vec::new()];
        let units = cut_units(&block_ops);
        let total: u64 = block_ops.iter().flatten().sum();
        let target = total / UNITS_PER_CALL;
        for (job, ops) in block_ops.iter().enumerate() {
            // Issued last rows first; consecutive, gap-free, every block
            // once, sizes summed.
            let mine: Vec<&UnitPlan> = units.iter().rev().filter(|u| u.job == job).collect();
            let mut next = 0;
            for unit in &mine {
                assert_eq!(unit.blocks.start, next, "job {job}");
                assert_eq!(unit.ops, ops[unit.blocks.clone()].iter().sum::<u64>());
                next = unit.blocks.end;
            }
            assert_eq!(next, ops.len(), "job {job}");
            // Every unit but a job's last reaches the target, and none
            // overshoots it by more than one block.
            let widest = ops.iter().copied().max().unwrap_or(0);
            for (k, unit) in mine.iter().enumerate() {
                assert!(unit.ops < target + widest, "job {job} unit {k}");
                if k + 1 < mine.len() {
                    assert!(unit.ops >= target, "job {job} unit {k}");
                }
            }
        }
        // The jobs take turns until the shorter runs out.
        let order: Vec<usize> = units.iter().map(|u| u.job).collect();
        assert_eq!(order[..4], [0, 1, 0, 1]);
        // Small calls keep whole chunks: one unit per job of a few blocks.
        let small = cut_units(&[vec![10; 6], vec![1; 3]]);
        assert_eq!(
            small,
            vec![
                UnitPlan {
                    job: 0,
                    blocks: 0..6,
                    ops: 60
                },
                UnitPlan {
                    job: 1,
                    blocks: 0..3,
                    ops: 3
                },
            ]
        );
    }

    /// Each job of a batch as a call of its own, bit for bit, with the
    /// same cost and tallies — at every thread count, with a mismatched
    /// job that fails alone.
    #[test]
    fn a_batch_equals_one_call_per_job_at_every_thread_count() {
        let s = 300;
        let (q, k, v) = random_qkv(s, s, 8, 21);
        let (q2, _, _) = random_qkv(s, 1, 8, 22);
        let (decode_q, _, _) = random_qkv(3, 1, 8, 23);
        let (bad_q, _, _) = random_qkv(s, 1, 5, 24);
        let panels = KeyPanels::from_rows(&k);
        let keys = &panels;
        let params = FlashParams::default();
        let striped = StructuredMask::builder(s, s)
            .window(9)
            .sinks(3)
            .columns((0..60).map(|i| 5 + i * 4).collect())
            .build()
            .unwrap();
        let banded = StructuredMask::builder(s, s)
            .window(40)
            .dense_tail_rows(20)
            .build()
            .unwrap();
        let empty = StructuredMask::builder(0, s).window(4).build().unwrap();
        let no_rows = Matrix::zeros(0, 8);
        let jobs = [
            EngineJob::sparse(&q, keys, &v, &striped),
            EngineJob::dense(&q2, keys, &v, true, params),
            EngineJob::sparse(&q2, keys, &v, &banded),
            EngineJob::dense(&decode_q, keys, &v, false, params),
            EngineJob::sparse(&no_rows, keys, &v, &empty),
            EngineJob::sparse(&bad_q, keys, &v, &striped),
        ];
        let alone: Vec<Result<(Matrix, CostReport), TensorError>> = vec![
            sparse_flash_attention_prepared(&q, keys, &v, &striped).map(|o| (o.output, o.cost)),
            crate::flash_attention_prepared(&q2, keys, &v, true, params)
                .map(|o| (o.output, o.cost)),
            sparse_flash_attention_prepared(&q2, keys, &v, &banded).map(|o| (o.output, o.cost)),
            crate::flash_attention_prepared(&decode_q, keys, &v, false, params)
                .map(|o| (o.output, o.cost)),
            sparse_flash_attention_prepared(&no_rows, keys, &v, &empty).map(|o| (o.output, o.cost)),
            sparse_flash_attention_prepared(&bad_q, keys, &v, &striped).map(|o| (o.output, o.cost)),
        ];
        assert!(alone[5].is_err());
        let bits = |m: &Matrix| m.as_slice().iter().map(|x| x.to_bits()).collect::<Vec<_>>();
        for threads in [1, 2, 3, 5] {
            let batch = pool::with_threads(threads, || run_engine(&jobs));
            assert_eq!(batch.len(), jobs.len());
            for (j, (got, want)) in batch.iter().zip(&alone).enumerate() {
                match (got, want) {
                    (Ok(got), Ok((output, cost))) => {
                        assert_eq!(
                            bits(&got.output),
                            bits(output),
                            "job {j}, threads {threads}"
                        );
                        assert_eq!(got.cost, *cost, "job {j}, threads {threads}");
                    }
                    (Err(got), Err(want)) => assert_eq!(got, want, "job {j}"),
                    _ => panic!("job {j}, threads {threads}: {got:?} vs {want:?}"),
                }
            }
            let live = batch[0].as_ref().map(|o| o.live_pairs);
            assert_eq!(live, Ok(striped.nnz() as u64));
        }
    }

    /// A job cut to a suffix of its query rows returns those rows of the
    /// whole job's output, bit for bit, at every thread count, and its
    /// tally and cost count only them: from the first row (the whole
    /// job), across the block grid, the last row alone, and none.
    #[test]
    fn a_job_cut_to_its_last_rows_computes_those_rows_of_the_whole_one() {
        let s = 300;
        let (q, k, v) = random_qkv(s, s, 8, 31);
        let panels = KeyPanels::from_rows(&k);
        let striped = StructuredMask::builder(s, s)
            .window(20)
            .sinks(2)
            .columns(vec![40, 77, 150])
            .build()
            .unwrap();
        let whole = [
            EngineJob::sparse(&q, &panels, &v, &striped),
            EngineJob::dense(&q, &panels, &v, true, FlashParams::default()),
        ];
        let want = run_engine(&whole);
        let bits = |m: &Matrix| m.as_slice().iter().map(|x| x.to_bits()).collect::<Vec<_>>();
        for from in [0, 1, 63, 64, 200, s - 1, s] {
            let cut: Vec<EngineJob<'_>> = whole.iter().map(|job| job.from_row(from)).collect();
            for threads in [1, 2, 3] {
                let got = pool::with_threads(threads, || run_engine(&cut));
                for (j, (got, want)) in got.iter().zip(&want).enumerate() {
                    let label = format!("job {j} from row {from}, threads {threads}");
                    let (got, want) = (got.as_ref().unwrap(), want.as_ref().unwrap());
                    assert_eq!(bits(&got.output), bits(&want.output.slice_rows(from, s).unwrap()), "{label}");
                    let live: u64 = (from..s).map(|i| row_live(&whole[j].rows, i)).sum();
                    assert_eq!(got.live_pairs, live, "{label}");
                    assert_eq!(got.cost.flops, want.cost.flops / want.live_pairs * live, "{label}");
                    assert!(got.cost.bytes_total() <= want.cost.bytes_total(), "{label}");
                    if from == 0 {
                        assert_eq!(got.cost, want.cost, "{label}");
                    }
                }
            }
        }
        assert!(matches!(
            run_engine(&[whole[0].from_row(s + 1)])[0],
            Err(TensorError::InvalidDimension { .. })
        ));
    }

    #[test]
    fn a_fault_plan_fails_the_jobs_of_its_site_only() {
        let (q, k, v) = random_qkv(130, 130, 8, 25);
        let panels = KeyPanels::from_rows(&k);
        let keys = &panels;
        let mask = StructuredMask::builder(130, 130)
            .window(16)
            .sinks(2)
            .build()
            .unwrap();
        let jobs = [
            EngineJob::sparse(&q, keys, &v, &mask),
            EngineJob::dense(&q, keys, &v, true, FlashParams::default()),
            EngineJob::sparse(&q, keys, &v, &mask),
        ];
        let plan = sa_tensor::fault::FaultPlan::new(3).worker_panic("sparse_flash_attention");
        let guard = sa_tensor::fault::install(plan);
        let results = run_engine(&jobs);
        drop(guard);
        for j in [0, 2] {
            assert!(
                matches!(
                    &results[j],
                    Err(TensorError::WorkerPanic {
                        site: "sparse_flash_attention",
                        ..
                    })
                ),
                "job {j}: {:?}",
                results[j]
            );
        }
        let dense = crate::flash_attention_prepared(&q, keys, &v, true, FlashParams::default());
        assert_eq!(results[1].as_ref().unwrap().output, dense.unwrap().output);
    }

    #[test]
    fn a_panicking_unit_fails_its_job_only() {
        let s = 1024;
        let (q, k, v) = random_qkv(s, s, 8, 26);
        let panels = KeyPanels::from_rows(&k);
        let keys = &panels;
        let job = EngineJob::dense(&q, keys, &v, true, FlashParams::default());
        let jobs = [&job, &job, &job];
        for threads in [1, 2, 3, 5] {
            let runs = pool::with_threads(threads, || {
                run_units_with("unit_test", &jobs, |j, row0, out| {
                    if j == 1 && row0 > 0 {
                        panic!("a unit of job 1 blew up");
                    }
                    out.fill((row0 + 1) as f32);
                    Tally {
                        live_pairs: 1,
                        ..Tally::default()
                    }
                })
            })
            .expect("the call itself does not fail");
            assert!(
                matches!(&runs[1], Err(TensorError::WorkerPanic { site: "unit_test", message })
                    if message.contains("job 1 blew up")),
                "threads {threads}: {:?}",
                runs[1].as_ref().map(|(_, tally)| tally.live_pairs)
            );
            // The other jobs ran every unit, whatever job 1 did meanwhile.
            for j in [0, 2] {
                let (output, tally) = runs[j].as_ref().expect("a healthy job");
                assert!(
                    output.as_slice().iter().all(|&x| x > 0.0),
                    "threads {threads} job {j}"
                );
                assert!(
                    tally.live_pairs > 1,
                    "threads {threads} job {j}: one unit per run"
                );
            }
        }
    }

    #[test]
    fn score_tile_and_gathered_values_start_on_a_cache_line() {
        let block = QueryBlock::new(72, Isa::detect(), BLOCK);
        assert!(sa_tensor::starts_on_line(block.scores.as_slice()));
        let (_, _, v) = random_qkv(1, 200, 72, 15);
        for extras in [&[3][..], &[0, 17, 199, 42], &[5; 70]] {
            let slab = gather_values(&v, extras);
            assert!(sa_tensor::starts_on_line(slab.as_slice()));
            assert_eq!(slab.len(), extras.len() * 72);
            for (row, &j) in slab.as_slice().chunks(72).zip(extras) {
                assert_eq!(row, v.row(j));
            }
        }
    }

    #[test]
    fn traced_runs_report_the_build_of_the_inner_loops() {
        let session = trace::scoped();
        let mask = StructuredMask::dense_causal(8, 8);
        let (q, k, v) = random_qkv(8, 8, 4, 14);
        sparse_flash_attention_blocked(&q, &k, &v, &mask).unwrap();
        let reported = trace::metrics::gauge("kernels.isa_lanes").get();
        drop(session);
        assert_eq!(reported, Isa::detect().lanes() as i64);
        let lanes = match sa_tensor::isa_name() {
            "avx512" => 16,
            "avx2" => 8,
            _ => 4,
        };
        assert_eq!(reported, lanes);
    }

    #[test]
    fn shape_validation() {
        let (q, k, v) = random_qkv(8, 8, 4, 12);
        let mask9 = StructuredMask::dense_causal(9, 9);
        assert!(sparse_flash_attention_blocked(&q, &k, &v, &mask9).is_err());
        let mask8 = StructuredMask::dense_causal(8, 8);
        let k_bad = Matrix::zeros(8, 5);
        assert!(sparse_flash_attention_blocked(&q, &k_bad, &v, &mask8).is_err());
        let v_bad = Matrix::zeros(7, 4);
        assert!(sparse_flash_attention_blocked(&q, &k, &v_bad, &mask8).is_err());
    }

    #[test]
    fn cost_comes_from_the_engines_own_tallies() {
        let mask = StructuredMask::builder(128, 128)
            .window(8)
            .sinks(2)
            .build()
            .unwrap();
        let (q, k, v) = random_qkv(128, 128, 8, 13);
        let out = sparse_flash_attention_blocked(&q, &k, &v, &mask).unwrap();
        let reference = sparse_flash_attention(&q, &k, &v, &mask).unwrap();
        assert_eq!(out.cost.flops, reference.cost.flops);
        assert_eq!(out.cost.kernel_launches, 1);
        // Two query blocks, five tiles: a sink panel each (rows 0..8 sit
        // on their sinks' window, so only 56 rows of the first block
        // score it), the key block on the causal edge each, and for the second
        // block the 8 rows (two row quads; 7 of them live) whose window
        // reaches back into the first key block.
        assert_eq!(out.scored_pairs, ((56 + 64) + (64 + 8 + 64)) * BLOCK as u64);
        // Every scored tile loads its keys once: 2 sinks per extras
        // panel, 64 keys per window block.
        let kv_rows = 2 * 2 + 3 * 64;
        let extras = 2;
        assert_eq!(out.cost.bytes_read, 4 * (128 * 8 + (kv_rows + extras) * 16));
        assert_eq!(out.cost.bytes_written, 4 * (128 * 8 + extras * 16));
        // The delegate kept for the benchmark harness reports the same.
        let tiled = TiledMask::build(mask.clone(), 16).unwrap();
        let via_tiled = crate::sparse_flash_attention_tiled(&q, &k, &v, &tiled).unwrap();
        assert_eq!(via_tiled.output.as_slice(), out.output.as_slice());
        assert_eq!(via_tiled.cost, out.cost);
    }
}
