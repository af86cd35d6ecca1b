//! Hermetic scoped-thread worker pool.
//!
//! Zero-dependency data parallelism for the numeric hot paths: each
//! parallel call spawns up to `threads - 1` scoped `std::thread` workers
//! (the caller participates as the last worker), partitions the index
//! space into fixed-size chunks, and lets workers claim chunks
//! dynamically: chunk indices from an atomic counter, or — for
//! [`parallel_for_rows`], whose chunks are disjoint `&mut` sub-slices —
//! from a mutex-guarded list popped back to front. Scoped threads keep
//! the primitives 100 % safe Rust —
//! borrowed closures and slices flow straight into the workers, and the
//! scope guarantees they are joined before the call returns.
//!
//! ## Determinism contract
//!
//! Every primitive here is **bit-deterministic with respect to the serial
//! path** as long as the body treats chunks independently:
//!
//! - [`parallel_for`] / [`parallel_for_rows`] partition only across
//!   independent indices/rows; each index is processed exactly once by
//!   exactly one worker, with the body's own (serial) per-index
//!   arithmetic untouched. Which *thread* runs a chunk is scheduling
//!   noise; the result is not.
//! - [`parallel_map`] returns results in index order regardless of
//!   claiming order.
//! - Chunk sizes are chosen by the *caller* and must not depend on the
//!   thread count. Callers that reduce across chunks (e.g. stage-1
//!   sampling) therefore combine partials in chunk-index order, which
//!   makes the reduction independent of `SA_THREADS`.
//!
//! ## Panic containment
//!
//! The `try_*` variants ([`try_parallel_for`], [`try_parallel_map`],
//! [`try_parallel_for_rows`]) wrap every chunk execution — including the
//! single-threaded shortcut — in `catch_unwind`, so a panicking body (or
//! an injected fault from [`crate::fault`]) surfaces as
//! [`SaError::WorkerPanic`] carrying the call-site name and the panic
//! message instead of aborting the process. The first panic wins;
//! remaining chunks are skipped. Because the fault hook and the catch
//! run on the serial shortcut too, the *outcome* (error vs. success) is
//! thread-count independent. The non-`try` wrappers keep the historical
//! contract by re-raising the panic — with the typed `SaError` itself as
//! the payload for non-`WorkerPanic` errors, so an enclosing `try_*`
//! catch region recovers it intact.
//!
//! ## Cooperative cancellation
//!
//! Every `try_*` primitive reads the [`crate::cancel`] token installed
//! on the *calling* thread once at entry and checks it at every chunk
//! boundary: once before any work starts (so a pre-tripped token returns
//! a deterministic `completed == 0` error at every thread count) and
//! before each chunk claim thereafter. A tripped token surfaces as
//! [`SaError::Cancelled`] / [`SaError::DeadlineExceeded`] carrying the
//! chunk-progress counters; in-flight chunks finish (nothing is torn
//! down mid-chunk), so a cancelled call stops within one chunk of the
//! trip. When no token is installed the check is a single `None` test.
//!
//! ## Thread-count resolution
//!
//! `SA_THREADS` (env, read once) overrides
//! [`std::thread::available_parallelism`]. [`with_threads`] installs a
//! thread-local override for the duration of a closure — the equivalence
//! tests and the `bench_*` serial-vs-parallel columns use it to compare
//! `SA_THREADS=1` against the default within one process.
//!
//! Nested parallelism is suppressed: a pool worker that calls back into a
//! parallel primitive runs it serially (the outer partition already owns
//! the hardware). This is what lets `sa-model` parallelize over heads
//! while the kernels inside each head keep their own parallel entry
//! points.
//!
//! ## Observability
//!
//! When `sa_trace` is enabled, every pool call opens a span (category
//! `pool`, name = the call site) and each worker meters itself:
//! `pool.chunks` counts chunk executions, `pool.chunk_ns` is the
//! chunk-duration histogram, `pool.busy_ns` / `pool.idle_ns` split each
//! worker's lifetime into executing-chunks vs. waiting-for-work, and
//! `pool.panics_caught` counts contained panics. All probes are behind
//! [`sa_trace::enabled`] (one relaxed atomic load when disabled) and
//! none of them touch computed values, so the determinism contract above
//! is unaffected by tracing.

use std::cell::Cell;
use std::ops::Range;
use std::panic::{catch_unwind, AssertUnwindSafe};
use std::sync::atomic::{AtomicUsize, Ordering};
use std::sync::{Mutex, OnceLock};

use crate::error::SaError;
use crate::fault;

static HARDWARE_THREADS: OnceLock<usize> = OnceLock::new();

thread_local! {
    static THREAD_OVERRIDE: Cell<Option<usize>> = const { Cell::new(None) };
    static IN_WORKER: Cell<bool> = const { Cell::new(false) };
}

/// Restores a thread-local `Cell` on drop (unwind-safe flag handling).
struct RestoreCell<T: Copy + 'static> {
    cell: &'static std::thread::LocalKey<Cell<T>>,
    prev: T,
}

impl<T: Copy + 'static> Drop for RestoreCell<T> {
    fn drop(&mut self) {
        let prev = self.prev;
        self.cell.with(|c| c.set(prev));
    }
}

fn mark_in_worker() -> RestoreCell<bool> {
    let prev = IN_WORKER.with(|c| c.replace(true));
    RestoreCell {
        cell: &IN_WORKER,
        prev,
    }
}

/// The process-wide worker count: `SA_THREADS` if set and valid, else
/// [`std::thread::available_parallelism`], else 1. Read once and cached.
pub fn hardware_threads() -> usize {
    *HARDWARE_THREADS.get_or_init(|| {
        match std::env::var("SA_THREADS") {
            Ok(s) => match s.trim().parse::<usize>() {
                Ok(n) if n >= 1 => return n,
                _ => eprintln!("warning: ignoring invalid SA_THREADS={s:?} (want integer >= 1)"),
            },
            Err(std::env::VarError::NotPresent) => {}
            Err(e) => eprintln!("warning: ignoring unreadable SA_THREADS: {e}"),
        }
        std::thread::available_parallelism()
            .map(|n| n.get())
            .unwrap_or(1)
    })
}

/// The worker count in effect for parallel calls issued from the current
/// thread: 1 inside a pool worker (no nesting), then any [`with_threads`]
/// override, then [`hardware_threads`].
pub fn current_threads() -> usize {
    if IN_WORKER.with(|c| c.get()) {
        return 1;
    }
    THREAD_OVERRIDE
        .with(|c| c.get())
        .unwrap_or_else(hardware_threads)
}

/// Runs `f` with the calling thread's worker count pinned to `n`
/// (clamped to at least 1). Restores the previous setting afterwards,
/// including on unwind.
///
/// This is the in-process equivalent of setting `SA_THREADS=n`: the
/// equivalence tests compare `with_threads(1, ..)` against
/// `with_threads(2, ..)` and the default, and the bench binaries use it
/// for their serial-vs-parallel columns.
pub fn with_threads<R>(n: usize, f: impl FnOnce() -> R) -> R {
    let prev = THREAD_OVERRIDE.with(|c| c.replace(Some(n.max(1))));
    let _restore = RestoreCell {
        cell: &THREAD_OVERRIDE,
        prev,
    };
    f()
}

/// Minimum scalar operations a chunk should carry before parallel
/// dispatch pays for itself (thread spawn + claim overhead is on the
/// order of tens of microseconds per call).
pub const MIN_CHUNK_OPS: usize = 1 << 15;

/// Rows per chunk so that one chunk carries roughly [`MIN_CHUNK_OPS`]
/// scalar operations, given the per-row cost. Never returns 0.
///
/// The result depends only on the workload shape — never on the thread
/// count — so chunk boundaries (and therefore any chunk-ordered
/// reduction) are identical under every `SA_THREADS` setting.
///
/// A grain must not undercut the callee's own blocking: a body that
/// blocks rows internally only ever sees a chunk's rows, so a smaller
/// grain silently disables the blocking, and every chunk costs a queue
/// lock and a `catch_unwind`. The measured case is [`crate::matmul`],
/// whose 64-row cache blocks never form under the 2-row grain this
/// returns at 4096×108×216 (10.1 ms on one thread, 11.4 ms on two). A
/// body with a block edge passes that edge as its grain, as
/// [`crate::matmul_packed`] does.
pub fn row_grain(work_per_row: usize) -> usize {
    MIN_CHUNK_OPS.div_ceil(work_per_row.max(1)).max(1)
}

/// Renders a caught panic payload for [`SaError::WorkerPanic`].
fn payload_message(payload: Box<dyn std::any::Any + Send>) -> String {
    if let Some(s) = payload.downcast_ref::<&str>() {
        (*s).to_string()
    } else if let Some(s) = payload.downcast_ref::<String>() {
        s.clone()
    } else if let Some(e) = payload.downcast_ref::<SaError>() {
        e.to_string()
    } else {
        "non-string panic payload".to_string()
    }
}

/// First-failure slot shared by the workers of one pool call.
///
/// Stores the full typed [`SaError`], so a typed error re-raised through
/// a nested infallible wrapper (see [`repanic`]) survives intact —
/// a `Cancelled` raised three pool levels down still surfaces as
/// `Cancelled`, not as a stringified `WorkerPanic`.
struct FailureSlot(Mutex<Option<SaError>>);

impl FailureSlot {
    fn new() -> Self {
        FailureSlot(Mutex::new(None))
    }

    fn lock(&self) -> std::sync::MutexGuard<'_, Option<SaError>> {
        match self.0.lock() {
            Ok(g) => g,
            // Panics are caught before they can poison this mutex, but a
            // poisoned slot must still drain rather than wedge the pool.
            Err(poisoned) => poisoned.into_inner(),
        }
    }

    /// Records a caught panic: a `Box<SaError>` payload (from a nested
    /// [`repanic`]) is preserved as-is; anything else becomes a
    /// [`SaError::WorkerPanic`] tagged with `site`.
    fn record(&self, site: &'static str, payload: Box<dyn std::any::Any + Send>) {
        sa_trace::counter_add!("pool.panics_caught", 1);
        let err = match payload.downcast::<SaError>() {
            Ok(e) => *e,
            Err(payload) => SaError::WorkerPanic {
                site,
                message: payload_message(payload),
            },
        };
        self.record_error(err);
    }

    /// Records a typed failure that is not a panic (cancellation observed
    /// at a chunk boundary). First failure wins, like panics.
    fn record_error(&self, err: SaError) {
        let mut slot = self.lock();
        if slot.is_none() {
            *slot = Some(err);
        }
    }

    fn failed(&self) -> bool {
        self.lock().is_some()
    }

    fn finish(self) -> Result<(), SaError> {
        let err = match self.0.into_inner() {
            Ok(v) => v,
            Err(poisoned) => poisoned.into_inner(),
        };
        match err {
            Some(err) => Err(err),
            None => Ok(()),
        }
    }
}

/// Per-call cancellation state: the token installed on the calling
/// thread (if any), read once at pool entry and shared with the scoped
/// workers, plus the chunk-progress counter the error variants report.
struct CancelCheck {
    token: Option<crate::cancel::CancelToken>,
    completed: AtomicUsize,
    total: usize,
}

impl CancelCheck {
    fn new(total: usize) -> Self {
        CancelCheck {
            token: crate::cancel::current(),
            completed: AtomicUsize::new(0),
            total,
        }
    }

    /// True when the token tripped; records the typed error (first
    /// failure wins) so the workers drain. Called before every chunk
    /// claim, and once at entry so a pre-tripped token yields a
    /// deterministic `completed == 0` at every thread count.
    fn tripped(&self, site: &'static str, failure: &FailureSlot) -> bool {
        let Some(token) = &self.token else {
            return false;
        };
        match token.check(site, self.completed.load(Ordering::Relaxed), self.total) {
            Ok(()) => false,
            Err(e) => {
                failure.record_error(e);
                true
            }
        }
    }

    fn chunk_done(&self) {
        if self.token.is_some() {
            self.completed.fetch_add(1, Ordering::Relaxed);
        }
    }
}

/// Per-worker utilization meter: times each chunk execution and, on
/// drop, splits the worker's lifetime into busy (executing chunks) and
/// idle (claiming/waiting) counters. Inert unless tracing was enabled
/// when the worker started.
struct WorkerMeter {
    traced: bool,
    start_ns: u64,
    busy_ns: u64,
}

impl WorkerMeter {
    fn new() -> Self {
        let traced = sa_trace::enabled();
        WorkerMeter {
            traced,
            start_ns: if traced { sa_trace::clock::now_ns() } else { 0 },
            busy_ns: 0,
        }
    }

    /// Runs one chunk, attributing its wall time to this worker's busy
    /// span and the global chunk histogram.
    fn chunk<R>(&mut self, f: impl FnOnce() -> R) -> R {
        if !self.traced {
            return f();
        }
        let t0 = sa_trace::clock::now_ns();
        let out = f();
        let dur = sa_trace::clock::now_ns().saturating_sub(t0);
        self.busy_ns += dur;
        sa_trace::counter_add!("pool.chunks", 1);
        sa_trace::histogram_record!("pool.chunk_ns", dur);
        out
    }
}

impl Drop for WorkerMeter {
    fn drop(&mut self) {
        if self.traced {
            let total = sa_trace::clock::now_ns().saturating_sub(self.start_ns);
            sa_trace::counter_add!("pool.busy_ns", self.busy_ns);
            sa_trace::counter_add!("pool.idle_ns", total.saturating_sub(self.busy_ns));
        }
    }
}

/// Raises the injected-fault panic for `site`. The *decision* is made
/// once at pool entry on the calling thread (`fault::should_panic` reads
/// the thread-local plan, which workers would not see); the panic itself
/// must run *inside* the catch region, so the decision is passed in.
fn injected_panic(site: &'static str) -> ! {
    std::panic::panic_any(format!("injected fault: forced worker panic at {site}"));
}

/// Re-raises a pool error from an infallible legacy wrapper.
///
/// `WorkerPanic` resumes with the original message (the historical
/// contract); any other typed error — notably `Cancelled` /
/// `DeadlineExceeded` from a cooperative checkpoint — panics with the
/// `SaError` itself as payload, so an enclosing `try_*` catch region
/// recovers the typed error intact instead of re-wrapping a string.
fn repanic(e: SaError) -> ! {
    match e {
        SaError::WorkerPanic { message, .. } => std::panic::resume_unwind(Box::new(message)),
        other => std::panic::panic_any(other),
    }
}

/// Applies `body` to every sub-range of `0..n`, partitioned into chunks
/// of `grain` indices, possibly on multiple threads, containing panics.
///
/// Identical partitioning to [`parallel_for`]; additionally, every chunk
/// execution (including the single-chunk serial shortcut) runs under
/// `catch_unwind` and consults the installed fault plan, so a panicking
/// body returns [`SaError::WorkerPanic`] tagged with `site` instead of
/// unwinding through the caller. After the first panic, unclaimed chunks
/// are skipped — callers must treat any partially written output as
/// garbage on `Err`.
pub fn try_parallel_for<F>(
    site: &'static str,
    n: usize,
    grain: usize,
    body: F,
) -> Result<(), SaError>
where
    F: Fn(Range<usize>) + Sync,
{
    if n == 0 {
        return Ok(());
    }
    let _call = sa_trace::span_in("pool", site);
    let grain = grain.max(1);
    let threads = current_threads();
    let chunks = n.div_ceil(grain);
    let failure = FailureSlot::new();
    let cancel = CancelCheck::new(chunks);
    let inject = fault::should_panic(site);
    let guarded = |range: Range<usize>| {
        if let Err(payload) = catch_unwind(AssertUnwindSafe(|| {
            if inject {
                injected_panic(site);
            }
            body(range);
        })) {
            failure.record(site, payload);
        } else {
            cancel.chunk_done();
        }
    };
    if cancel.tripped(site, &failure) {
        return failure.finish();
    }
    if threads == 1 || n <= grain {
        WorkerMeter::new().chunk(|| guarded(0..n));
        return failure.finish();
    }
    let next = AtomicUsize::new(0);
    let run = || {
        let mut meter = WorkerMeter::new();
        loop {
            if failure.failed() || cancel.tripped(site, &failure) {
                break;
            }
            let c = next.fetch_add(1, Ordering::Relaxed);
            if c >= chunks {
                break;
            }
            meter.chunk(|| guarded(c * grain..((c + 1) * grain).min(n)));
        }
    };
    std::thread::scope(|scope| {
        for _ in 0..threads.min(chunks) - 1 {
            scope.spawn(|| {
                let _worker = mark_in_worker();
                run();
                // Flush trace events before the scope observes this
                // thread as finished: thread::scope can return before
                // the TLS destructors that would otherwise flush run.
                sa_trace::flush_thread();
            });
        }
        let _worker = mark_in_worker();
        run();
    });
    failure.finish()
}

/// Maps `f` over `0..n` in index order, containing panics.
///
/// The panic-containment counterpart of [`parallel_map`]: chunk bodies
/// run under `catch_unwind` with the fault hook, and a panic anywhere
/// yields [`SaError::WorkerPanic`] (partial results are discarded).
pub fn try_parallel_map<T, F>(
    site: &'static str,
    n: usize,
    grain: usize,
    f: F,
) -> Result<Vec<T>, SaError>
where
    T: Send,
    F: Fn(usize) -> T + Sync,
{
    if n == 0 {
        return Ok(Vec::new());
    }
    let _call = sa_trace::span_in("pool", site);
    let grain = grain.max(1);
    let threads = current_threads();
    let chunks = n.div_ceil(grain);
    let failure = FailureSlot::new();
    let cancel = CancelCheck::new(chunks);
    let inject = fault::should_panic(site);
    let guarded_chunk = |c: usize| -> Option<(usize, Vec<T>)> {
        let range = c * grain..((c + 1) * grain).min(n);
        match catch_unwind(AssertUnwindSafe(|| {
            if inject {
                injected_panic(site);
            }
            range.map(&f).collect::<Vec<T>>()
        })) {
            Ok(part) => {
                cancel.chunk_done();
                Some((c, part))
            }
            Err(payload) => {
                failure.record(site, payload);
                None
            }
        }
    };
    let mut parts: Vec<(usize, Vec<T>)> = Vec::new();
    if cancel.tripped(site, &failure) {
        // Fall through to finish() with the recorded cancellation.
    } else if threads == 1 || chunks == 1 {
        let mut meter = WorkerMeter::new();
        parts.reserve(chunks);
        for c in 0..chunks {
            if c > 0 && cancel.tripped(site, &failure) {
                break;
            }
            match meter.chunk(|| guarded_chunk(c)) {
                Some(part) => parts.push(part),
                // First panic wins; skip the remaining chunks.
                None => break,
            }
        }
    } else {
        let next = AtomicUsize::new(0);
        let run = || {
            let mut meter = WorkerMeter::new();
            let mut mine: Vec<(usize, Vec<T>)> = Vec::new();
            loop {
                if failure.failed() || cancel.tripped(site, &failure) {
                    break;
                }
                let c = next.fetch_add(1, Ordering::Relaxed);
                if c >= chunks {
                    break;
                }
                if let Some(part) = meter.chunk(|| guarded_chunk(c)) {
                    mine.push(part);
                }
            }
            mine
        };
        parts = std::thread::scope(|scope| {
            let helpers: Vec<_> = (0..threads.min(chunks) - 1)
                .map(|_| {
                    scope.spawn(|| {
                        let _worker = mark_in_worker();
                        let mine = run();
                        // See try_parallel_for: flush before the scope
                        // can observe this thread as finished.
                        sa_trace::flush_thread();
                        mine
                    })
                })
                .collect();
            let mine = {
                let _worker = mark_in_worker();
                run()
            };
            let mut all = mine;
            for h in helpers {
                match h.join() {
                    Ok(part) => all.extend(part),
                    Err(payload) => failure.record(site, payload),
                }
            }
            all
        });
    }
    failure.finish()?;
    parts.sort_unstable_by_key(|&(c, _)| c);
    let mut out = Vec::with_capacity(n);
    for (_, mut part) in parts {
        out.append(&mut part);
    }
    Ok(out)
}

/// Splits a row-major buffer into row chunks as [`parallel_for_rows`],
/// containing panics and validating arguments as errors.
///
/// Returns [`SaError::InvalidDimension`] (instead of panicking) when
/// `width == 0` with non-empty data or `data.len()` is not a multiple of
/// `width`, and [`SaError::WorkerPanic`] when a chunk body panics. On
/// `Err`, the buffer may be partially written and must be discarded.
pub fn try_parallel_for_rows<T, F>(
    site: &'static str,
    data: &mut [T],
    width: usize,
    grain_rows: usize,
    body: F,
) -> Result<(), SaError>
where
    T: Send,
    F: Fn(usize, &mut [T]) + Sync,
{
    if data.is_empty() {
        return Ok(());
    }
    if width == 0 {
        return Err(SaError::InvalidDimension {
            op: site,
            what: "zero row width with non-empty data".to_string(),
        });
    }
    if data.len() % width != 0 {
        return Err(SaError::InvalidDimension {
            op: site,
            what: format!(
                "data length {} not a multiple of row width {width}",
                data.len()
            ),
        });
    }
    let _call = sa_trace::span_in("pool", site);
    let rows = data.len() / width;
    let grain = grain_rows.max(1);
    let threads = current_threads();
    let failure = FailureSlot::new();
    let cancel = CancelCheck::new(rows.div_ceil(grain));
    let inject = fault::should_panic(site);
    let guarded = |row0: usize, chunk: &mut [T]| {
        if let Err(payload) = catch_unwind(AssertUnwindSafe(|| {
            if inject {
                injected_panic(site);
            }
            body(row0, chunk);
        })) {
            failure.record(site, payload);
        } else {
            cancel.chunk_done();
        }
    };
    if cancel.tripped(site, &failure) {
        return failure.finish();
    }
    if threads == 1 || rows <= grain {
        WorkerMeter::new().chunk(|| guarded(0, data));
        return failure.finish();
    }
    let mut chunks: Vec<(usize, &mut [T])> = Vec::with_capacity(rows.div_ceil(grain));
    let mut rest = data;
    let mut row0 = 0usize;
    while !rest.is_empty() {
        let take_rows = grain.min(rows - row0);
        let (head, tail) = rest.split_at_mut(take_rows * width);
        chunks.push((row0, head));
        row0 += take_rows;
        rest = tail;
    }
    let n_chunks = chunks.len();
    let queue = Mutex::new(chunks);
    let pop = || match queue.lock() {
        Ok(mut q) => q.pop(),
        Err(poisoned) => poisoned.into_inner().pop(),
    };
    let run = || {
        let mut meter = WorkerMeter::new();
        loop {
            if failure.failed() || cancel.tripped(site, &failure) {
                break;
            }
            match pop() {
                Some((first_row, chunk)) => meter.chunk(|| guarded(first_row, chunk)),
                None => break,
            }
        }
    };
    std::thread::scope(|scope| {
        for _ in 0..threads.min(n_chunks) - 1 {
            scope.spawn(|| {
                let _worker = mark_in_worker();
                run();
                // See try_parallel_for: flush before the scope can
                // observe this thread as finished.
                sa_trace::flush_thread();
            });
        }
        let _worker = mark_in_worker();
        run();
    });
    failure.finish()
}

/// Applies `body` to every sub-range of `0..n`, partitioned into chunks
/// of `grain` indices, possibly on multiple threads.
///
/// Each index lands in exactly one chunk and each chunk is processed by
/// exactly one worker, so bodies that only touch per-index state are
/// bit-deterministic regardless of the thread count. Runs serially (one
/// `body(0..n)` call) when the pool is effectively single-threaded or
/// the range fits in one chunk.
///
/// A panicking body re-raises after all workers stop (see
/// [`try_parallel_for`] for the error-returning variant).
pub fn parallel_for<F>(n: usize, grain: usize, body: F)
where
    F: Fn(Range<usize>) + Sync,
{
    if let Err(e) = try_parallel_for("parallel_for", n, grain, body) {
        repanic(e);
    }
}

/// Maps `f` over `0..n` and returns the results **in index order**,
/// regardless of which worker computed which chunk.
///
/// `grain` is the chunk size in indices (as in [`parallel_for`]). A
/// panicking body re-raises (see [`try_parallel_map`]).
pub fn parallel_map<T, F>(n: usize, grain: usize, f: F) -> Vec<T>
where
    T: Send,
    F: Fn(usize) -> T + Sync,
{
    match try_parallel_map("parallel_map", n, grain, f) {
        Ok(out) => out,
        Err(e) => repanic(e),
    }
}

/// Splits a row-major buffer (`rows * width` elements) into chunks of
/// `grain_rows` consecutive rows and hands each chunk, with its first
/// row's index, to `body` — possibly on multiple threads.
///
/// This is the mutable-output primitive: the kernels pass a matrix's
/// backing slice and write disjoint row blocks concurrently, with no
/// `unsafe` (the chunks are real `split_at_mut` sub-slices). Runs
/// serially (one `body(0, data)` call) when the pool is effectively
/// single-threaded or everything fits in one chunk.
///
/// # Panics
///
/// Panics if `width == 0` while `data` is non-empty, or if `data.len()`
/// is not a multiple of `width` (see [`try_parallel_for_rows`] for the
/// error-returning variant). A panicking body re-raises.
pub fn parallel_for_rows<T, F>(data: &mut [T], width: usize, grain_rows: usize, body: F)
where
    T: Send,
    F: Fn(usize, &mut [T]) + Sync,
{
    if let Err(e) = try_parallel_for_rows("parallel_for_rows", data, width, grain_rows, body) {
        repanic(e);
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::fault::FaultPlan;
    use std::sync::atomic::AtomicU64;

    #[test]
    fn hardware_threads_at_least_one() {
        assert!(hardware_threads() >= 1);
        assert!(current_threads() >= 1);
    }

    #[test]
    fn with_threads_overrides_and_restores() {
        let outer = current_threads();
        with_threads(3, || {
            assert_eq!(current_threads(), 3);
            with_threads(1, || assert_eq!(current_threads(), 1));
            assert_eq!(current_threads(), 3);
        });
        assert_eq!(current_threads(), outer);
        // Clamped to >= 1.
        with_threads(0, || assert_eq!(current_threads(), 1));
    }

    #[test]
    fn parallel_for_covers_every_index_once() {
        for threads in [1, 2, 4] {
            with_threads(threads, || {
                let n = 103;
                let hits: Vec<AtomicU64> = (0..n).map(|_| AtomicU64::new(0)).collect();
                parallel_for(n, 7, |range| {
                    for i in range {
                        hits[i].fetch_add(1, Ordering::Relaxed);
                    }
                });
                for (i, h) in hits.iter().enumerate() {
                    assert_eq!(h.load(Ordering::Relaxed), 1, "index {i} threads {threads}");
                }
            });
        }
    }

    #[test]
    fn parallel_for_empty_and_single_chunk() {
        parallel_for(0, 4, |_| panic!("must not run on empty range"));
        let count = AtomicU64::new(0);
        parallel_for(3, 100, |r| {
            assert_eq!(r, 0..3);
            count.fetch_add(1, Ordering::Relaxed);
        });
        assert_eq!(count.load(Ordering::Relaxed), 1);
    }

    #[test]
    fn parallel_map_preserves_index_order() {
        for threads in [1, 2, 5] {
            let got = with_threads(threads, || parallel_map(100, 3, |i| i * i));
            let want: Vec<usize> = (0..100).map(|i| i * i).collect();
            assert_eq!(got, want, "threads {threads}");
        }
        assert!(parallel_map(0, 1, |i| i).is_empty());
    }

    #[test]
    fn parallel_for_rows_writes_disjoint_chunks() {
        for threads in [1, 2, 4] {
            with_threads(threads, || {
                let rows = 33;
                let width = 5;
                let mut data = vec![0.0f32; rows * width];
                parallel_for_rows(&mut data, width, 4, |row0, chunk| {
                    for (local, row) in chunk.chunks_mut(width).enumerate() {
                        for v in row.iter_mut() {
                            *v += (row0 + local) as f32;
                        }
                    }
                });
                for i in 0..rows {
                    for j in 0..width {
                        assert_eq!(data[i * width + j], i as f32, "({i},{j}) threads {threads}");
                    }
                }
            });
        }
    }

    #[test]
    fn parallel_for_rows_empty_is_noop() {
        let mut data: Vec<f32> = Vec::new();
        parallel_for_rows(&mut data, 4, 2, |_, _| panic!("must not run"));
    }

    #[test]
    fn nested_parallel_calls_degrade_to_serial() {
        with_threads(4, || {
            parallel_for(8, 1, |_outer| {
                // Inside a worker the pool must report a single thread,
                // so nested calls cannot oversubscribe or deadlock.
                assert_eq!(current_threads(), 1);
                parallel_for(4, 1, |_inner| {});
            });
        });
    }

    #[test]
    fn row_grain_scales_inversely_with_row_cost() {
        assert_eq!(row_grain(MIN_CHUNK_OPS), 1);
        assert!(row_grain(1) >= MIN_CHUNK_OPS);
        assert!(row_grain(0) >= 1);
        assert!(row_grain(usize::MAX) >= 1);
    }

    #[test]
    fn try_parallel_for_catches_body_panic() {
        for threads in [1, 2, 4] {
            let err = with_threads(threads, || {
                try_parallel_for("site_x", 64, 4, |range| {
                    if range.contains(&17) {
                        panic!("chunk blew up");
                    }
                })
            })
            .expect_err("must surface the panic");
            match err {
                SaError::WorkerPanic { site, message } => {
                    assert_eq!(site, "site_x");
                    assert!(message.contains("chunk blew up"), "{message}");
                }
                other => panic!("unexpected error {other:?}"),
            }
        }
    }

    #[test]
    fn try_parallel_map_matches_plain_map_on_success() {
        for threads in [1, 3] {
            let got = with_threads(threads, || {
                try_parallel_map("site_m", 50, 4, |i| i * 3).expect("no faults")
            });
            let want: Vec<usize> = (0..50).map(|i| i * 3).collect();
            assert_eq!(got, want);
        }
        let err = try_parallel_map("site_m", 10, 2, |i| {
            if i == 5 {
                panic!("map body panic")
            }
            i
        });
        assert!(matches!(err, Err(SaError::WorkerPanic { .. })));
    }

    #[test]
    fn try_parallel_for_rows_validates_arguments() {
        let mut data = vec![0.0f32; 6];
        let err = try_parallel_for_rows("site_r", &mut data, 0, 1, |_, _| {});
        assert!(matches!(err, Err(SaError::InvalidDimension { .. })));
        let err = try_parallel_for_rows("site_r", &mut data, 4, 1, |_, _| {});
        assert!(matches!(err, Err(SaError::InvalidDimension { .. })));
        try_parallel_for_rows("site_r", &mut data, 3, 1, |_, chunk| {
            chunk.fill(1.0);
        })
        .expect("valid arguments");
        assert!(data.iter().all(|&x| x == 1.0));
    }

    #[test]
    fn injected_fault_fires_at_every_thread_count() {
        let _guard = crate::fault::install(FaultPlan::new(1).worker_panic("faulty_site"));
        for threads in [1, 2, 4] {
            let err = with_threads(threads, || {
                try_parallel_for("faulty_site", 128, 8, |_range| {})
            })
            .expect_err("fault plan must force a panic");
            match err {
                SaError::WorkerPanic { site, message } => {
                    assert_eq!(site, "faulty_site");
                    assert!(message.contains("injected fault"), "{message}");
                }
                other => panic!("unexpected error {other:?}"),
            }
            // Other sites are untouched.
            let ok = with_threads(threads, || {
                try_parallel_for("healthy_site", 128, 8, |_range| {})
            });
            assert!(ok.is_ok());
        }
    }

    #[test]
    fn traced_pool_calls_record_spans_and_utilization() {
        let _session = sa_trace::scoped();
        with_threads(2, || {
            parallel_for(64, 4, |_range| {
                std::hint::black_box(0u64);
            });
        });
        let snap = sa_trace::metrics::snapshot();
        let counter = |name: &str| {
            snap.counters
                .iter()
                .find(|c| c.name == name)
                .map(|c| c.value)
                .unwrap_or(0)
        };
        assert_eq!(counter("pool.chunks"), 16, "64 indices / grain 4");
        assert!(counter("pool.busy_ns") > 0, "workers must report busy time");
        let hist = snap
            .histograms
            .iter()
            .find(|h| h.name == "pool.chunk_ns")
            .expect("chunk histogram registered");
        assert_eq!(hist.count, 16);
        let events = sa_trace::drain();
        assert!(
            events
                .iter()
                .any(|e| e.cat == "pool" && e.name == "parallel_for"),
            "pool call span missing"
        );
    }

    #[test]
    fn caught_panics_are_counted() {
        let _session = sa_trace::scoped();
        let err = try_parallel_for("count_site", 8, 2, |range| {
            if range.contains(&3) {
                panic!("boom");
            }
        });
        assert!(matches!(err, Err(SaError::WorkerPanic { .. })));
        assert_eq!(sa_trace::metrics::counter("pool.panics_caught").get(), 1);
    }

    #[test]
    fn pre_tripped_token_cancels_with_zero_progress_at_every_thread_count() {
        let token = crate::cancel::CancelToken::new();
        token.cancel();
        for threads in [1, 2, 4] {
            let _scope = crate::cancel::install(&token);
            let err = with_threads(threads, || {
                try_parallel_for("cancel_site", 64, 4, |_range| {
                    panic!("body must never run on a pre-tripped token");
                })
            })
            .expect_err("tripped token must cancel");
            match err {
                SaError::Cancelled {
                    site,
                    completed,
                    total,
                } => {
                    assert_eq!(site, "cancel_site");
                    assert_eq!(completed, 0, "threads {threads}");
                    assert_eq!(total, 16);
                }
                other => panic!("unexpected error {other:?}"),
            }
        }
    }

    #[test]
    fn expired_deadline_cancels_map_and_rows() {
        let now = sa_trace::clock::now_ns();
        let token = crate::cancel::CancelToken::with_deadline_ns(now.saturating_sub(1));
        let _scope = crate::cancel::install(&token);
        let err = try_parallel_map("map_site", 32, 4, |i| i);
        assert!(
            matches!(err, Err(SaError::DeadlineExceeded { completed: 0, .. })),
            "{err:?}"
        );
        let mut data = vec![0.0f32; 32];
        let err = try_parallel_for_rows("rows_site", &mut data, 4, 1, |_, _| {});
        assert!(
            matches!(err, Err(SaError::DeadlineExceeded { completed: 0, .. })),
            "{err:?}"
        );
    }

    #[test]
    fn mid_flight_cancel_stops_within_remaining_chunks() {
        // Trip the token from inside the first executing chunk: the
        // already-claimed chunks may finish, but completed progress never
        // reaches the full chunk count.
        for threads in [1, 2, 4] {
            let token = crate::cancel::CancelToken::new();
            let _scope = crate::cancel::install(&token);
            let executed = AtomicUsize::new(0);
            let chunks = 64usize;
            let err = with_threads(threads, || {
                try_parallel_map("trip_site", chunks, 1, |_i| {
                    executed.fetch_add(1, Ordering::Relaxed);
                    token.cancel();
                })
            })
            .expect_err("must cancel");
            let ran = executed.load(Ordering::Relaxed);
            match err {
                SaError::Cancelled {
                    completed, total, ..
                } => {
                    assert_eq!(total, chunks);
                    assert!(completed < total, "completed {completed} of {total}");
                    // No more chunks execute than threads could have
                    // claimed before observing the trip.
                    assert!(ran <= threads + 1, "{ran} chunks ran on {threads} threads");
                }
                other => panic!("unexpected error {other:?}"),
            }
        }
    }

    #[test]
    fn no_token_means_no_cancellation() {
        assert!(crate::cancel::current().is_none());
        let out = try_parallel_map("free_site", 16, 4, |i| i * 2).expect("no token installed");
        assert_eq!(out.len(), 16);
    }

    #[test]
    fn typed_error_survives_nested_repanic() {
        // A typed cancellation raised inside an infallible legacy wrapper
        // (repanic) must be recovered intact by an enclosing try_* catch
        // region, not re-wrapped as a stringified WorkerPanic.
        let err = try_parallel_map("outer_site", 1, 1, |_| {
            let inner = SaError::Cancelled {
                site: "inner_site",
                completed: 2,
                total: 5,
            };
            repanic(inner);
        })
        .expect_err("inner error must surface");
        assert_eq!(
            err,
            SaError::Cancelled {
                site: "inner_site",
                completed: 2,
                total: 5
            }
        );
    }

    #[test]
    fn worker_panic_repanic_keeps_message_contract() {
        let err = try_parallel_for("outer", 1, 1, |_| {
            repanic(SaError::WorkerPanic {
                site: "inner",
                message: "original boom".to_string(),
            });
        })
        .expect_err("panic must surface");
        match err {
            SaError::WorkerPanic { site, message } => {
                // Re-caught at the outer site with the original message.
                assert_eq!(site, "outer");
                assert!(message.contains("original boom"), "{message}");
            }
            other => panic!("unexpected error {other:?}"),
        }
    }

    #[test]
    fn legacy_wrappers_repanic() {
        let caught = std::panic::catch_unwind(|| {
            parallel_for(8, 2, |_| panic!("legacy panic"));
        });
        let payload = caught.expect_err("must panic");
        assert!(payload_message(payload).contains("legacy panic"));
    }
}
