//! Hermetic worker pool: one persistent set of parked workers.
//!
//! Zero-dependency data parallelism for the numeric hot paths: each
//! parallel call partitions the index space into fixed-size chunks and
//! lets up to `threads` threads claim chunks dynamically: chunk indices
//! from an atomic counter, or — for [`parallel_for_rows`], whose chunks
//! are disjoint `&mut` sub-slices — from a mutex-guarded list popped
//! back to front. The calling thread is always one of them; the other
//! `threads - 1` are *helpers* lent by a process-wide set of long-lived
//! worker threads (`sa-pool-<n>`), started lazily and never per call.
//!
//! ## How a call borrows workers
//!
//! All three primitives hand their claim loop to one private `fan_out`:
//!
//! 1. It queues one *ticket* per helper on a shared queue (a mutex, a
//!    condvar the idle workers park on) and wakes parked workers.
//! 2. It runs the claim loop on the calling thread, exactly as a helper
//!    would.
//! 3. It **takes back every ticket no worker has started**, and only then
//!    waits — for the helpers that did start, nobody else.
//!
//! Step 3 is the invariant that keeps the pool deadlock-free: a call
//! never waits on a thread that has not begun its work, so it cannot
//! matter how many callers share how few workers (the test harness runs
//! dozens of callers over one worker), whether a worker is busy, or
//! whether any worker exists at all. A started helper always finishes:
//! nested calls inside a helper run serially (below), so it never waits
//! on the pool itself.
//!
//! Workers are spawned on demand, up to the largest `threads - 1` any
//! call has asked for (never at `SA_THREADS=1`); a spawn the OS refuses
//! leaves fewer helpers — down to the calling thread alone — and is
//! retried by the next call. After a job a worker spins for a bounded
//! interval (`SPIN_NS`) before it parks on the condvar: waking a parked
//! thread costs more than the serial work between two fan-outs of a
//! decode step, so a worker that just ran a job stays awake for the next.
//!
//! The queue holds nothing a result can read: which worker runs which
//! chunk never reaches an output, the queue is empty whenever no call is
//! in flight, and a worker carries no thread-local state from one job to
//! the next (every install — worker flag, cancel token, fault plan,
//! trace switch, thread override — is a guard the job drops).
//!
//! ## What a fan-out carries
//!
//! One rule for ambient state: **what is set on a thread is visible to
//! that thread and to the helpers of the fan-outs it issues, for the
//! length of their share, and to nobody else.** `fan_out` reads the
//! caller's innermost [`crate::fault`] plan and its `sa_trace` switch
//! once, and a helper's share installs both as guards it drops before it
//! is counted finished. That is the whole mechanism: there is no
//! process-wide fault slot or trace switch for another caller, or
//! another test, to see. The cancel token is deliberately not on the
//! list: each primitive reads it on the calling thread and checks it at
//! its own chunk boundaries (below), and a helper that inherited it
//! would let nested calls cancel mid-chunk, which moves the
//! chunk-progress counts the serving ledgers record.
//!
//! ## The one `unsafe`
//!
//! A worker outlives the call it helps, so the call's borrowed claim
//! loop cannot be handed over as a reference: `fan_out` erases the
//! lifetime of one `&closure` to a raw pointer, and `Job::execute`
//! dereferences it. The pointer is only ever dereferenced between a
//! ticket's start (taken under the queue lock) and its completion count,
//! and `fan_out`'s guard — on return *and* on unwind — reclaims the
//! unstarted tickets under the same lock and then waits for the
//! completion count of every started one, so the frame the pointer
//! refers to is live for the whole of every dereference. Everything else
//! in this module is safe Rust.
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
//! tests use it to compare `SA_THREADS=1` against the default within one
//! process.
//!
//! Nested parallelism is suppressed: a thread running a call's claim
//! loop — a helper or the caller itself — that calls back into a parallel
//! primitive runs it serially on the spot, without touching the queue
//! (the outer partition already owns the hardware). This is what lets
//! `sa-model` parallelize over heads while the kernels inside each head
//! keep their own parallel entry points, and it is why a started helper
//! can always finish.
//!
//! ## Observability
//!
//! When `sa_trace` is enabled, every pool call opens a span (category
//! `pool`, name = the call site) and each thread meters its share of the
//! job: `pool.chunks` counts chunk executions, `pool.chunk_ns` is the
//! chunk-duration histogram, `pool.busy_ns` / `pool.idle_ns` split the
//! time a thread spends *inside a job* into executing chunks vs.
//! claiming and waiting (time a worker is parked between calls belongs
//! to no job and is not counted), `pool.handoff_ns` is the delay from a
//! ticket being queued to its helper reaching its first chunk claim,
//! `pool.reclaimed` counts tickets the caller took back unstarted, and
//! `pool.panics_caught` counts contained panics. Workers are long-lived,
//! so a helper's spans keep one trace thread id across calls. All probes
//! are behind [`sa_trace::enabled`] (one thread-local read when
//! disabled) and none of them touch computed values, so the determinism
//! contract above is unaffected by tracing.

use std::cell::Cell;
use std::collections::VecDeque;
use std::ops::Range;
use std::panic::{catch_unwind, AssertUnwindSafe};
use std::sync::atomic::{AtomicPtr, AtomicUsize, Ordering};
use std::sync::{Arc, Condvar, Mutex, MutexGuard, OnceLock, PoisonError};
use std::thread::Thread;

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

/// Puts the calling thread's `sa_trace` switch back to the held value on
/// drop.
struct RestoreTrace(bool);

impl Drop for RestoreTrace {
    fn drop(&mut self) {
        sa_trace::set_enabled(self.0);
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
/// `with_threads(2, ..)` and the default.
pub fn with_threads<R>(n: usize, f: impl FnOnce() -> R) -> R {
    let prev = THREAD_OVERRIDE.with(|c| c.replace(Some(n.max(1))));
    let _restore = RestoreCell {
        cell: &THREAD_OVERRIDE,
        prev,
    };
    f()
}

/// Minimum scalar operations a chunk should carry before parallel
/// dispatch pays for itself: ~32K operations are some tens of
/// microseconds, against a hand-off to an awake worker of about a
/// microsecond, a queue lock or atomic claim plus a `catch_unwind` per
/// chunk, and tens of microseconds when the worker has to be woken.
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

/// The error a pool call at `site` returns for a panic with `payload`:
/// a `Box<SaError>` payload (from a nested [`repanic`]) as it is,
/// anything else a [`SaError::WorkerPanic`] tagged with `site`. Counted
/// in `pool.panics_caught`.
fn caught(site: &'static str, payload: Box<dyn std::any::Any + Send>) -> SaError {
    sa_trace::counter_add!("pool.panics_caught", 1);
    match payload.downcast::<SaError>() {
        Ok(e) => *e,
        Err(payload) => SaError::WorkerPanic {
            site,
            message: payload_message(payload),
        },
    }
}

/// Runs `f`, containing a panic as a pool call at `site` contains one:
/// the panic becomes the error that call would return. For a body that
/// must fail one piece of its call's work and let the rest run on — the
/// attention engine fails only the head whose unit panicked, where a
/// panic reaching the pool would stop the whole call.
pub fn contain<R>(site: &'static str, f: impl FnOnce() -> R) -> Result<R, SaError> {
    catch_unwind(AssertUnwindSafe(f)).map_err(|payload| caught(site, payload))
}

/// Locks `m`, taking the data of a poisoned mutex as it stands. Every
/// mutex in this module guards state that is valid after each single
/// update (a first-failure slot, lists that are only pushed and popped,
/// the ticket queue's counters), and panics are caught before they can
/// unwind through a guard — but a poisoned lock must still drain rather
/// than wedge the pool.
fn lock_draining<T>(m: &Mutex<T>) -> MutexGuard<'_, T> {
    m.lock().unwrap_or_else(PoisonError::into_inner)
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

    fn lock(&self) -> MutexGuard<'_, Option<SaError>> {
        lock_draining(&self.0)
    }

    /// Records a caught panic: a `Box<SaError>` payload (from a nested
    /// [`repanic`]) is preserved as-is; anything else becomes a
    /// [`SaError::WorkerPanic`] tagged with `site`.
    fn record(&self, site: &'static str, payload: Box<dyn std::any::Any + Send>) {
        self.record_error(caught(site, payload));
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
/// thread (if any), read once at pool entry and shared with the call's
/// helpers, plus the chunk-progress counter the error variants report.
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

/// Per-job utilization meter of one thread: times each chunk execution
/// and, on drop, splits the thread's time in the job's claim loop into
/// busy (executing chunks) and idle (claiming/waiting) counters. Inert
/// unless tracing was enabled when the loop started.
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
/// once at pool entry on the calling thread, so that the serial shortcut
/// and every helper agree on it; the panic itself must run *inside* the
/// catch region, so the decision is passed in.
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

/// How long a worker that has just finished a job (or has just started,
/// or was woken for nothing) polls for the next ticket before it parks
/// on the condvar, and how long a caller polls for its started helpers
/// before it parks. A measured constant, not a knob: on
/// `request_niah_4k` the serial work between two layers' fan-outs is
/// 30–50 µs and a futex wake of a parked vCPU costs more than that, so a
/// pool that parks at once loses half of what the second core adds to a
/// decode step (`step_ms_p50`, ten rounds: spawn-per-call 2.34 ms, park
/// at once 1.81, 50 µs 1.54, 200 µs 1.46; CHANGES.md, PR 21).
const SPIN_NS: u64 = 200_000;

/// One fan-out, as the queue and the workers see it. Shared by `Arc`, so
/// a worker may hold it past the call's return; what it must not touch
/// past then is what `body` points at.
struct Job {
    /// The address of a `&(dyn Fn() + Sync)` in the frame of the
    /// [`Pool::fan_out`] that queued this job — the helper's whole share
    /// of the call — with its lifetime erased. Written once at
    /// construction; an `AtomicPtr` only so that a `Job` is `Send + Sync`.
    body: AtomicPtr<()>,
    /// Helpers that have returned from `body`.
    finished: AtomicUsize,
    /// The thread inside `fan_out`, unparked by every finishing helper.
    caller: Thread,
}

impl Job {
    /// Runs one started ticket: the helper's share of the call, then the
    /// completion count — in that order on every path.
    fn execute(&self) {
        /// Counts the helper as finished and wakes the caller, also when
        /// `body` unwinds (it catches what the call's closures throw; a
        /// panic payload whose own drop panics would still get here).
        struct Done<'a>(&'a Job);
        impl Drop for Done<'_> {
            fn drop(&mut self) {
                // Release: everything the helper wrote into the caller's
                // buffers happens before the caller's Acquire load in
                // `Reclaim::drop` sees this count.
                self.0.finished.fetch_add(1, Ordering::Release);
                self.0.caller.unpark();
            }
        }
        let _done = Done(self);
        let body = self
            .body
            .load(Ordering::Relaxed)
            .cast_const()
            .cast::<&(dyn Fn() + Sync)>();
        // SAFETY: `body` is the address of the `helper` reference in the
        // frame of the `fan_out` call that queued this job, and that frame
        // is live for the whole call below. This thread took its ticket
        // under the queue lock; `fan_out`'s `Reclaim` guard, which runs
        // before that frame is left by return or by unwinding, takes back
        // under the same lock only tickets nobody took, so it counts this
        // one as started and does not let the frame go until `finished`
        // has counted it — which `_done` does only after the call below
        // has returned or unwound. The closure behind the reference is
        // `Sync` and everything it borrows outlives `fan_out`, so calling
        // it here while the caller runs its own share is sound. Nothing
        // dereferences `body` anywhere else.
        unsafe { (*body)() }
    }
}

/// The tickets of one job still waiting for a worker.
struct Entry {
    job: Arc<Job>,
    /// Unstarted tickets, at least 1 while the entry is queued.
    tickets: usize,
}

/// What the queue lock guards.
struct Queue {
    /// Jobs with unstarted tickets, oldest first. Empty whenever no call
    /// is in flight: every `fan_out` removes its entry before it returns.
    entries: VecDeque<Entry>,
    /// Worker threads started so far; they never exit.
    workers: usize,
    /// Workers waiting on the condvar right now.
    parked: usize,
}

/// How a pool starts its worker number `index`: [`spawn_worker`], or a
/// test's stand-in that refuses.
type SpawnWorker = fn(&'static Pool, usize) -> std::io::Result<()>;

/// The one place the pool creates a thread.
fn spawn_worker(pool: &'static Pool, index: usize) -> std::io::Result<()> {
    // Detached on purpose: workers serve every later call and end with
    // the process. A job's panics are caught inside the job, so there is
    // no result for a join to report.
    std::thread::Builder::new()
        .name(format!("sa-pool-{index}"))
        .spawn(move || pool.work())
        .map(drop)
}

/// A ticket queue and the workers parked on it. The process has one,
/// [`POOL`]; tests build private ones to hold a worker still.
struct Pool {
    queue: Mutex<Queue>,
    /// Parked workers wait here; signalled under the queue lock.
    wake: Condvar,
    /// Unstarted tickets in `queue`, maintained under its lock. Spinning
    /// workers poll it instead of the lock; it is a hint (hence Relaxed) —
    /// a ticket is only ever started or reclaimed under the lock.
    pending: AtomicUsize,
    spawn: SpawnWorker,
}

static POOL: Pool = Pool::new(spawn_worker);

impl Pool {
    const fn new(spawn: SpawnWorker) -> Self {
        Pool {
            queue: Mutex::new(Queue {
                entries: VecDeque::new(),
                workers: 0,
                parked: 0,
            }),
            wake: Condvar::new(),
            pending: AtomicUsize::new(0),
            spawn,
        }
    }

    /// Starts the oldest unstarted ticket in `queue`, this pool's.
    fn take(&self, queue: &mut Queue) -> Option<Arc<Job>> {
        let entry = queue.entries.front_mut()?;
        entry.tickets -= 1;
        self.pending.fetch_sub(1, Ordering::Relaxed);
        if entry.tickets == 0 {
            queue.entries.pop_front().map(|e| e.job)
        } else {
            Some(Arc::clone(&entry.job))
        }
    }

    /// A worker thread's whole life: start a ticket, run it, again.
    fn work(&'static self) {
        loop {
            self.next_ticket().execute();
        }
    }

    /// Blocks until this worker has started a ticket: polls for
    /// [`SPIN_NS`], then parks until a caller signals.
    fn next_ticket(&self) -> Arc<Job> {
        loop {
            let spin_start = sa_trace::clock::now_ns();
            while sa_trace::clock::now_ns().saturating_sub(spin_start) < SPIN_NS {
                if self.pending.load(Ordering::Relaxed) > 0 {
                    if let Some(job) = self.take(&mut lock_draining(&self.queue)) {
                        return job;
                    }
                }
                std::hint::spin_loop();
            }
            let mut queue = lock_draining(&self.queue);
            if let Some(job) = self.take(&mut queue) {
                return job;
            }
            // Counted and waited under one lock hold, so a caller that
            // queues a ticket either sees this worker parked and signals,
            // or queued before the `take` above.
            queue.parked += 1;
            queue = self
                .wake
                .wait(queue)
                .unwrap_or_else(PoisonError::into_inner);
            queue.parked -= 1;
            if let Some(job) = self.take(&mut queue) {
                return job;
            }
            // Woken for a ticket that another worker started or its
            // caller took back: calls are arriving, and shorter than a
            // wake-up, so poll for the next one before parking again.
        }
    }

    /// Queues up to `helpers` tickets for `job`, first growing the worker
    /// set to `helpers` threads. Returns how many it queued: fewer than
    /// asked when the OS refuses a thread, none when there is no worker.
    fn submit(&'static self, job: &Arc<Job>, helpers: usize) -> usize {
        let mut queue = lock_draining(&self.queue);
        while queue.workers < helpers {
            if (self.spawn)(self, queue.workers).is_err() {
                break;
            }
            queue.workers += 1;
        }
        let tickets = helpers.min(queue.workers);
        if tickets > 0 {
            queue.entries.push_back(Entry {
                job: Arc::clone(job),
                tickets,
            });
            self.pending.fetch_add(tickets, Ordering::Relaxed);
            for _ in 0..tickets.min(queue.parked) {
                self.wake.notify_one();
            }
        }
        tickets
    }

    /// Takes back the tickets of `job` that no worker has started and
    /// returns their number.
    fn reclaim(&self, job: &Arc<Job>) -> usize {
        let mut queue = lock_draining(&self.queue);
        let at = queue.entries.iter().position(|e| Arc::ptr_eq(&e.job, job));
        match at.and_then(|i| queue.entries.remove(i)) {
            Some(entry) => {
                self.pending.fetch_sub(entry.tickets, Ordering::Relaxed);
                entry.tickets
            }
            None => 0,
        }
    }

    /// Runs `run` — one call's chunk-claim loop — on the calling thread
    /// and on up to `helpers` workers at once, and returns when every
    /// thread that entered it has left it.
    ///
    /// `run` claims chunks until none are left and contains its chunks'
    /// panics; a helper that unwinds outside those catch regions is
    /// recorded in `failure` as a [`SaError::WorkerPanic`] at `site`, and
    /// its worker thread lives on.
    fn fan_out(
        &'static self,
        site: &'static str,
        helpers: usize,
        failure: &FailureSlot,
        run: &(dyn Fn() + Sync),
    ) {
        // What a fan-out carries (module doc), read once on the caller.
        let plan = fault::with_plan(Arc::clone);
        let traced = sa_trace::enabled();
        let queued_ns = if traced { sa_trace::clock::now_ns() } else { 0 };
        let helper = move || {
            let _worker = mark_in_worker();
            let _plan = plan.as_ref().map(|p| fault::install(Arc::clone(p)));
            let _traced = RestoreTrace(sa_trace::enabled());
            sa_trace::set_enabled(traced);
            if queued_ns != 0 {
                let waited = sa_trace::clock::now_ns().saturating_sub(queued_ns);
                sa_trace::histogram_record!("pool.handoff_ns", waited);
            }
            if let Err(payload) = catch_unwind(AssertUnwindSafe(run)) {
                failure.record(site, payload);
            }
            // The caller may drain the trace the moment this job is
            // counted as finished; a parked worker flushes nothing.
            sa_trace::flush_thread();
        };
        let helper: &(dyn Fn() + Sync) = &helper;
        let job = Arc::new(Job {
            // The one lifetime erasure: the address of `helper`, a slot
            // of this frame that outlives `_reclaim` below.
            body: AtomicPtr::new((&raw const helper).cast_mut().cast()),
            finished: AtomicUsize::new(0),
            caller: std::thread::current(),
        });
        let _reclaim = Reclaim {
            pool: self,
            job: &job,
            queued: self.submit(&job, helpers),
        };
        let _worker = mark_in_worker();
        run();
    }
}

/// The second half of [`Pool::fan_out`], as a guard so that it also runs
/// when the caller's own share unwinds: take back the tickets nobody
/// started, then wait for the helpers that did start — and for nobody
/// else, which is what keeps concurrent callers deadlock-free. Until
/// this has run, a worker may be inside the frame `Job::body` points at.
struct Reclaim<'a> {
    pool: &'a Pool,
    job: &'a Arc<Job>,
    /// Tickets `submit` queued for the job.
    queued: usize,
}

impl Drop for Reclaim<'_> {
    fn drop(&mut self) {
        if self.queued == 0 {
            return;
        }
        let reclaimed = self.pool.reclaim(self.job);
        sa_trace::counter_add!("pool.reclaimed", reclaimed as u64);
        let started = self.queued - reclaimed;
        let spin_start = sa_trace::clock::now_ns();
        // Acquire: pairs with the Release count in `Job::execute`.
        while self.job.finished.load(Ordering::Acquire) < started {
            if sa_trace::clock::now_ns().saturating_sub(spin_start) < SPIN_NS {
                std::hint::spin_loop();
            } else {
                // Every finishing helper unparks this thread after it
                // counts; a stale token only costs one more turn.
                std::thread::park();
            }
        }
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
    POOL.fan_out(site, threads.min(chunks) - 1, &failure, &run);
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
        // Every thread hands in what it computed; the sort below puts
        // the parts in index order whoever finished first.
        let gathered: Mutex<Vec<(usize, Vec<T>)>> = Mutex::new(Vec::with_capacity(chunks));
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
            lock_draining(&gathered).append(&mut mine);
        };
        POOL.fan_out(site, threads.min(chunks) - 1, &failure, &run);
        parts = gathered
            .into_inner()
            .unwrap_or_else(PoisonError::into_inner);
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
    if !data.len().is_multiple_of(width) {
        return Err(SaError::InvalidDimension {
            op: site,
            what: format!(
                "data length {} not a multiple of row width {width}",
                data.len()
            ),
        });
    }
    let rows = data.len() / width;
    let grain = grain_rows.max(1);
    let chunks = rows.div_ceil(grain);
    let body = |(row0, chunk): (usize, &mut [T])| body(row0, chunk);
    if current_threads() == 1 || rows <= grain {
        return run_parts(site, vec![(0, data)], chunks, body);
    }
    let mut parts: Vec<(usize, &mut [T])> = Vec::with_capacity(chunks);
    let mut rest = data;
    let mut row0 = 0usize;
    while !rest.is_empty() {
        let take_rows = grain.min(rows - row0);
        let (head, tail) = rest.split_at_mut(take_rows * width);
        parts.push((row0, head));
        row0 += take_rows;
        rest = tail;
    }
    run_parts(site, parts, chunks, body)
}

/// Hands every part of `parts` to `body`, possibly on multiple threads,
/// containing panics: the claim order is **back to front**, so a caller
/// that wants the longest parts to start first sorts them shortest first.
///
/// This is the primitive for work cut unevenly ahead of time — parts that
/// own disjoint `&mut` outputs and carry their own sizes, such as the
/// attention engine's live-pair-balanced (head, query-block) units. Each
/// part is processed exactly once by exactly one thread; which thread is
/// scheduling noise, so a body that treats parts independently is
/// bit-deterministic at every thread count. Runs serially, in claim
/// order on the calling thread, when the pool is single-threaded or
/// there is one part. Panics, injected faults and cancellation behave as
/// in [`try_parallel_for`], a part standing for a chunk.
pub fn try_parallel_for_parts<P, F>(
    site: &'static str,
    parts: Vec<P>,
    body: F,
) -> Result<(), SaError>
where
    P: Send,
    F: Fn(P) + Sync,
{
    let chunks = parts.len();
    run_parts(site, parts, chunks, body)
}

/// The claim loop under [`try_parallel_for_parts`] and
/// [`try_parallel_for_rows`]; `chunks` is the chunk total a cancellation
/// reports.
fn run_parts<P, F>(
    site: &'static str,
    mut parts: Vec<P>,
    chunks: usize,
    body: F,
) -> Result<(), SaError>
where
    P: Send,
    F: Fn(P) + Sync,
{
    if parts.is_empty() {
        return Ok(());
    }
    let _call = sa_trace::span_in("pool", site);
    let threads = current_threads();
    let failure = FailureSlot::new();
    let cancel = CancelCheck::new(chunks);
    let inject = fault::should_panic(site);
    let guarded = |part: P| {
        if let Err(payload) = catch_unwind(AssertUnwindSafe(|| {
            if inject {
                injected_panic(site);
            }
            body(part);
        })) {
            failure.record(site, payload);
        } else {
            cancel.chunk_done();
        }
    };
    if cancel.tripped(site, &failure) {
        return failure.finish();
    }
    let n_parts = parts.len();
    if threads == 1 || n_parts == 1 {
        let mut meter = WorkerMeter::new();
        while let Some(part) = parts.pop() {
            meter.chunk(|| guarded(part));
            if !parts.is_empty() && (failure.failed() || cancel.tripped(site, &failure)) {
                break;
            }
        }
        return failure.finish();
    }
    let queue = Mutex::new(parts);
    let pop = || lock_draining(&queue).pop();
    let run = || {
        let mut meter = WorkerMeter::new();
        loop {
            if failure.failed() || cancel.tripped(site, &failure) {
                break;
            }
            match pop() {
                Some(part) => meter.chunk(|| guarded(part)),
                None => break,
            }
        }
    };
    POOL.fan_out(site, threads.min(n_parts) - 1, &failure, &run);
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
    fn parts_run_once_each_and_alone_back_to_front() {
        // Uneven parts owning disjoint slices, as the engine cuts them.
        let sizes = [5, 1, 9, 2, 2, 7];
        for threads in [1, 2, 3, 5] {
            let mut data = vec![0usize; sizes.iter().sum()];
            let mut parts = Vec::new();
            let mut rest = data.as_mut_slice();
            for (p, &n) in sizes.iter().enumerate() {
                let (head, tail) = std::mem::take(&mut rest).split_at_mut(n);
                parts.push((p, head));
                rest = tail;
            }
            let order = Mutex::new(Vec::new());
            with_threads(threads, || {
                try_parallel_for_parts("parts_site", parts, |(p, out): (usize, &mut [usize])| {
                    out.iter_mut().for_each(|x| *x += p + 1);
                    order.lock().unwrap().push(p);
                })
            })
            .expect("no faults");
            let want: Vec<usize> = sizes
                .iter()
                .enumerate()
                .flat_map(|(p, &n)| std::iter::repeat_n(p + 1, n))
                .collect();
            assert_eq!(data, want, "threads {threads}");
            let mut order = order.into_inner().unwrap();
            if threads == 1 {
                assert_eq!(
                    order,
                    vec![5, 4, 3, 2, 1, 0],
                    "alone, the last part runs first"
                );
            }
            order.sort_unstable();
            assert_eq!(order, (0..sizes.len()).collect::<Vec<_>>());
        }
        let err = with_threads(2, || {
            try_parallel_for_parts("parts_site", vec![1, 2, 3], |p| {
                if p == 2 {
                    panic!("part blew up");
                }
            })
        });
        assert!(
            matches!(&err, Err(SaError::WorkerPanic { site: "parts_site", message }) if message.contains("part blew up")),
            "{err:?}"
        );
        assert_eq!(
            try_parallel_for_parts("parts_site", Vec::<u8>::new(), |_| {}),
            Ok(())
        );
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
    fn contain_returns_the_error_a_pool_call_would() {
        let _session = sa_trace::scoped();
        assert_eq!(contain("contain_site", || 7), Ok(7));
        let err = contain("contain_site", || -> u8 { panic!("boom") });
        assert_eq!(
            err,
            Err(SaError::WorkerPanic {
                site: "contain_site",
                message: "boom".to_string()
            })
        );
        // A typed error re-raised by a nested call keeps its type.
        let typed = SaError::Cancelled {
            site: "nested_site",
            completed: 1,
            total: 4,
        };
        let again = typed.clone();
        assert_eq!(contain("contain_site", move || repanic(again)), Err(typed));
        assert_eq!(sa_trace::metrics::counter("pool.panics_caught").get(), 2);
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
        let err = try_parallel_for_parts("parts_site", vec![0; 7], |_| {});
        assert!(
            matches!(
                err,
                Err(SaError::DeadlineExceeded {
                    completed: 0,
                    total: 7,
                    ..
                })
            ),
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

    // ---- The ticket queue itself, on private pools -------------------
    //
    // `POOL` serves every test of this binary at once, so what a single
    // worker does cannot be pinned on it. These tests leak a `Pool` of
    // their own (its workers park for good once the test is over) and
    // drive `fan_out` directly.

    use std::collections::HashSet;
    use std::sync::mpsc;
    use std::time::Duration;

    /// Runs `f` on a thread of its own and fails the test if it has not
    /// returned within a minute: a lost wake-up or a caller waiting on an
    /// unstarted ticket must read as a failure, not as a hung suite.
    fn watchdog<R: Send + 'static>(f: impl FnOnce() -> R + Send + 'static) -> R {
        let (done, result) = mpsc::channel();
        let body = std::thread::spawn(move || {
            let _ = done.send(f());
        });
        match result.recv_timeout(Duration::from_secs(60)) {
            Ok(r) => r,
            Err(mpsc::RecvTimeoutError::Timeout) => panic!("deadlock: no result after 60 s"),
            // The body panicked before sending: hand its panic on.
            Err(mpsc::RecvTimeoutError::Disconnected) => match body.join() {
                Err(payload) => std::panic::resume_unwind(payload),
                Ok(()) => panic!("test body dropped its result"),
            },
        }
    }

    fn private_pool(spawn: SpawnWorker) -> &'static Pool {
        Box::leak(Box::new(Pool::new(spawn)))
    }

    fn on_pool_worker() -> bool {
        std::thread::current()
            .name()
            .is_some_and(|n| n.starts_with("sa-pool-"))
    }

    fn assert_idle(pool: &Pool) {
        assert!(lock_draining(&pool.queue).entries.is_empty());
        assert_eq!(pool.pending.load(Ordering::Relaxed), 0);
    }

    /// A claim loop over `chunks` unit chunks that notes who ran each.
    fn claim_all<'a>(
        next: &'a AtomicUsize,
        chunks: usize,
        ran_on: &'a Mutex<Vec<std::thread::ThreadId>>,
    ) -> impl Fn() + Sync + 'a {
        move || {
            while next.fetch_add(1, Ordering::Relaxed) < chunks {
                lock_draining(ran_on).push(std::thread::current().id());
            }
        }
    }

    /// One call that cannot end before `threads` threads are inside it:
    /// every thread that enters waits for the others. Forces helpers to
    /// start where timing would only make it likely; a worker that never
    /// comes is the watchdog's to report. Returns who was in.
    fn rendezvous(
        pool: &'static Pool,
        site: &'static str,
        threads: usize,
    ) -> HashSet<std::thread::ThreadId> {
        let entered = AtomicUsize::new(0);
        let inside = Mutex::new(HashSet::new());
        let failure = FailureSlot::new();
        let run = || {
            let _span = sa_trace::span_in("pool_test", site);
            lock_draining(&inside).insert(std::thread::current().id());
            entered.fetch_add(1, Ordering::SeqCst);
            while entered.load(Ordering::SeqCst) < threads {
                std::thread::yield_now();
            }
        };
        pool.fan_out(site, threads - 1, &failure, &run);
        assert!(failure.finish().is_ok());
        assert_idle(pool);
        inside.into_inner().expect("no panics here")
    }

    #[test]
    fn refused_spawn_degrades_to_fewer_helpers_then_to_the_caller_alone() {
        fn refuse(_: &'static Pool, _: usize) -> std::io::Result<()> {
            Err(std::io::Error::other("no threads today"))
        }
        fn only_the_first(pool: &'static Pool, index: usize) -> std::io::Result<()> {
            if index == 0 {
                spawn_worker(pool, index)
            } else {
                refuse(pool, index)
            }
        }
        watchdog(|| {
            for (spawn, workers) in [(refuse as SpawnWorker, 0usize), (only_the_first, 1)] {
                let pool = private_pool(spawn);
                let me = std::thread::current().id();
                for _ in 0..200 {
                    let next = AtomicUsize::new(0);
                    let ran_on = Mutex::new(Vec::new());
                    let failure = FailureSlot::new();
                    pool.fan_out("refused", 3, &failure, &claim_all(&next, 64, &ran_on));
                    assert!(failure.finish().is_ok());
                    let ran_on = ran_on.into_inner().expect("no panics here");
                    assert_eq!(ran_on.len(), 64, "every chunk ran exactly once");
                    let others: HashSet<_> = ran_on.into_iter().filter(|&t| t != me).collect();
                    assert!(
                        others.len() <= workers,
                        "{} helpers, {workers} workers",
                        others.len()
                    );
                    assert_eq!(lock_draining(&pool.queue).workers, workers);
                    assert_idle(pool);
                }
                if workers == 1 {
                    // Asked for three helpers, the one that exists comes.
                    assert_eq!(rendezvous(pool, "one_worker", 2).len(), 2);
                }
            }
        });
    }

    #[test]
    fn a_caller_takes_back_the_ticket_of_a_busy_worker_and_does_not_wait_for_it() {
        watchdog(|| {
            let pool = private_pool(spawn_worker);
            let (started, worker_is_in) = mpsc::channel();
            let (release, hold) = mpsc::channel::<()>();
            let (started, hold) = (Mutex::new(started), Mutex::new(hold));
            // Call A: its helper announces itself, then sits in A's frame
            // until released. A must wait for it, and nobody else may.
            let a_returned = std::sync::atomic::AtomicBool::new(false);
            std::thread::scope(|scope| {
                scope.spawn(|| {
                    let failure = FailureSlot::new();
                    let run = || {
                        if on_pool_worker() {
                            let _ = lock_draining(&started).send(());
                            let _ = lock_draining(&hold).recv();
                        } else {
                            // Leave the ticket to the worker: A's own
                            // share ends only once the helper has begun.
                            while lock_draining(&pool.queue).entries.front().is_some() {
                                std::thread::yield_now();
                            }
                        }
                    };
                    pool.fan_out("held", 1, &failure, &run);
                    a_returned.store(true, Ordering::SeqCst);
                });
                worker_is_in.recv().expect("A's helper starts");
                // Call B, while the pool's only worker is held inside A.
                let _session = sa_trace::scoped();
                for _ in 0..50 {
                    let next = AtomicUsize::new(0);
                    let ran_on = Mutex::new(Vec::new());
                    let failure = FailureSlot::new();
                    pool.fan_out("reclaims", 1, &failure, &claim_all(&next, 8, &ran_on));
                    let me = std::thread::current().id();
                    let ran_on = ran_on.into_inner().expect("no panics here");
                    assert_eq!(ran_on.len(), 8);
                    assert!(ran_on.iter().all(|&t| t == me), "the held worker helped");
                    assert_idle(pool);
                }
                assert!(
                    sa_trace::metrics::counter("pool.reclaimed").get() >= 50,
                    "every one of B's tickets was taken back"
                );
                assert_eq!(
                    lock_draining(&pool.queue).workers,
                    1,
                    "no worker added for B"
                );
                assert!(
                    !a_returned.load(Ordering::SeqCst),
                    "A left its helper behind"
                );
                release.send(()).expect("the helper is waiting");
            });
            assert!(a_returned.load(Ordering::SeqCst));
            assert_idle(pool);
        });
    }

    #[test]
    fn a_helper_unwinding_outside_a_chunk_is_recorded_and_its_worker_lives_on() {
        watchdog(|| {
            // Held for the count below, and so that this panic is not
            // counted into another test's session.
            let _session = sa_trace::scoped();
            let pool = private_pool(spawn_worker);
            let (began, helper_began) = mpsc::channel();
            let (began, helper_began) = (Mutex::new(began), Mutex::new(helper_began));
            let failure = FailureSlot::new();
            let run = || {
                if on_pool_worker() {
                    let _ = lock_draining(&began).send(());
                    panic!("outside every chunk");
                } else {
                    // The caller's share: hold the call open until the
                    // helper is in, so the ticket is not taken back.
                    let _ = lock_draining(&helper_began).recv();
                }
            };
            pool.fan_out("unwinds", 1, &failure, &run);
            match failure.finish() {
                Err(SaError::WorkerPanic { site, message }) => {
                    assert_eq!(site, "unwinds");
                    assert!(message.contains("outside every chunk"), "{message}");
                }
                other => panic!("unexpected outcome {other:?}"),
            }
            assert!(sa_trace::metrics::counter("pool.panics_caught").get() >= 1);
            assert_idle(pool);
            // The pool never replaces a worker, so whoever helps the next
            // job is the thread that unwound.
            assert_eq!(rendezvous(pool, "after_unwind", 2).len(), 2);
            assert_eq!(lock_draining(&pool.queue).workers, 1);
        });
    }

    #[test]
    fn a_poisoned_queue_lock_drains() {
        watchdog(|| {
            let pool = private_pool(spawn_worker);
            let poisoner = std::thread::spawn(move || {
                let _held = lock_draining(&pool.queue);
                panic!("poison the queue lock");
            });
            assert!(poisoner.join().is_err());
            assert!(pool.queue.is_poisoned());
            for _ in 0..100 {
                let next = AtomicUsize::new(0);
                let ran_on = Mutex::new(Vec::new());
                let failure = FailureSlot::new();
                pool.fan_out("poisoned", 2, &failure, &claim_all(&next, 32, &ran_on));
                assert!(failure.finish().is_ok());
                assert_eq!(lock_draining(&ran_on).len(), 32);
                assert_idle(pool);
            }
        });
    }

    #[test]
    fn a_worker_keeps_one_trace_thread_id_across_calls() {
        watchdog(|| {
            let pool = private_pool(spawn_worker);
            let _session = sa_trace::scoped();
            for _ in 0..200 {
                assert_eq!(rendezvous(pool, "tid_probe", 2).len(), 2);
            }
            let events = sa_trace::drain();
            let mut tids: Vec<u64> = events
                .iter()
                .filter(|e| e.name == "tid_probe" && e.cat == "pool_test")
                .map(|e| e.tid)
                .collect();
            assert_eq!(tids.len(), 400, "a helper's spans are flushed with its job");
            tids.sort_unstable();
            tids.dedup();
            assert_eq!(tids.len(), 2, "the caller and one worker, got {tids:?}");
            let snap = sa_trace::metrics::snapshot();
            let handoffs = snap
                .histograms
                .iter()
                .find(|h| h.name == "pool.handoff_ns")
                .map_or(0, |h| h.count);
            assert!(
                handoffs >= 200,
                "{handoffs} of 200 started tickets recorded a hand-off"
            );
        });
    }
}
