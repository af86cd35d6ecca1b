//! # sa-trace
//!
//! The workspace's observability layer: a thread-aware hierarchical span
//! tracer, a metrics registry (counters, gauges, fixed-bucket
//! histograms), and Chrome-trace export — all hermetic (std + [`sa_json`]
//! only) and all **inert when disabled**.
//!
//! ## Why this crate exists
//!
//! The paper's headline claims are wall-clock claims: Table 4's stage
//! breakdown (sampling vs. filtering vs. sparse kernel) and the Figure
//! 5/6 speedups. Timing whole method calls from the outside cannot
//! attribute time to pipeline stages, and the per-head
//! `SampleAttentionStats` evaporate after each call. This
//! crate is the instrument every perf PR is judged with: stage spans in
//! `sa-core`, per-layer/per-head spans in `sa-model`, worker-pool
//! utilization counters in `sa_tensor::pool`, and two export formats
//! (a `chrome://tracing` JSON and a per-stage summary table).
//!
//! ## Design
//!
//! - **Single timing authority**: every wall-clock read in the pipeline
//!   crates goes through [`clock::now_ns`] (monotonic nanoseconds since
//!   a process-wide epoch). `scripts/verify.sh` greps the hot-path
//!   crates to keep `Instant::now` out of them.
//! - **RAII spans**: [`span()`] / [`span_in`] / [`span_labeled`] return a
//!   guard; the span closes when the guard drops. Nesting depth is
//!   tracked per thread, so traces are hierarchical without explicit
//!   parent ids (Chrome's trace viewer nests `ph:"X"` events by
//!   timestamp containment per thread).
//! - **Per-thread buffers, lock-free sink**: finished spans land in a
//!   thread-local buffer; full buffers (and exiting threads) flush into
//!   a global Treiber-stack sink with a single CAS — no lock is ever
//!   taken on the recording path.
//! - **True no-op when disabled** (the default): every probe —
//!   [`span()`], [`Counter::add`], [`Histogram::record`] — is one read of
//!   a const-initialised thread-local flag followed by an immediate
//!   return. No allocation, no clock read, no lazily initialised TLS
//!   (`crates/trace/tests/zero_alloc.rs` pins the zero-allocation claim
//!   with a counting allocator). Tracing never touches computed values,
//!   so outputs are bitwise identical with tracing on or off —
//!   `tests/parallel_determinism.rs` pins that too.
//! - **The switch belongs to a thread**: [`set_enabled`] turns the
//!   probes on for the calling thread, and `sa_tensor::pool` hands the
//!   caller's setting to the helpers of each fan-out for the length of
//!   their share. A session therefore records the work it issued and
//!   nothing that merely ran beside it. The sink and the metric registry
//!   are still shared by the process, which is why [`scoped`] sessions
//!   take turns.
//!
//! ## Use
//!
//! ```
//! let _session = sa_trace::scoped(); // enable + drain on drop (tests)
//! {
//!     let _outer = sa_trace::span_in("demo", "outer");
//!     let _inner = sa_trace::span_in("demo", "inner");
//!     sa_trace::metrics::counter("demo.events").add(1);
//! }
//! let events = sa_trace::drain();
//! assert_eq!(events.len(), 2);
//! let json = sa_trace::chrome::chrome_trace(&events);
//! assert!(sa_trace::chrome::validate_chrome_trace(&json).is_ok());
//! ```
//!
//! Binaries enable tracing via the `SA_TRACE=<path>` environment
//! variable ([`TraceSession::from_env`]): on [`TraceSession::finish`]
//! the collected events are written to `<path>` as a Chrome
//! trace-event JSON loadable in `chrome://tracing` / Perfetto.

use std::cell::Cell;
use std::sync::{Mutex, MutexGuard};

pub mod chrome;
pub mod clock;
pub mod metrics;
pub mod span;
pub mod summary;
pub mod timeseries;

pub use chrome::{chrome_trace, validate_chrome_trace, write_chrome_trace};
pub use metrics::{Counter, Gauge, Histogram, MetricsSnapshot};
pub use span::{drain, flush_thread, span, span_in, span_labeled, SpanEvent, SpanGuard};
pub use summary::{summarize, StageSummary, TraceSummary};
pub use timeseries::{Timeline, TimelineBin, TimelineSeries, TimelineSnapshot};

thread_local! {
    /// This thread's on/off switch. Off by default; every probe checks
    /// it first.
    static ENABLED: Cell<bool> = const { Cell::new(false) };
}

/// Whether tracing is enabled on the calling thread (one thread-local
/// read — this is the entire disabled-mode cost of every probe).
#[inline(always)]
pub fn enabled() -> bool {
    ENABLED.get()
}

/// Turns tracing on or off for the calling thread and, through the
/// worker pool, for the helpers of the parallel calls it issues. Spans
/// opened while enabled still record on drop after a disable (the guard
/// owns its state).
pub fn set_enabled(on: bool) {
    ENABLED.set(on);
}

/// Serializes scoped tracing sessions (tests run concurrently within one
/// binary; the sink and registry are process-global).
static SESSION_LOCK: Mutex<()> = Mutex::new(());

fn session_lock() -> MutexGuard<'static, ()> {
    match SESSION_LOCK.lock() {
        Ok(g) => g,
        // A panicking test poisons the lock; the state it protects is
        // reset below anyway.
        Err(poisoned) => poisoned.into_inner(),
    }
}

/// An exclusive, self-cleaning tracing session for tests: holds a global
/// lock, clears leftover events/metrics, enables tracing on this thread,
/// and on drop disables it and drains anything still buffered.
pub struct ScopedTrace {
    _guard: MutexGuard<'static, ()>,
}

/// Starts an exclusive [`ScopedTrace`] session (the test-side
/// counterpart of [`TraceSession::from_env`]).
pub fn scoped() -> ScopedTrace {
    let guard = session_lock();
    let _ = span::drain();
    metrics::reset();
    set_enabled(true);
    ScopedTrace { _guard: guard }
}

impl Drop for ScopedTrace {
    fn drop(&mut self) {
        set_enabled(false);
        let _ = span::drain();
        metrics::reset();
    }
}

/// A process-level tracing session driven by the `SA_TRACE` environment
/// variable, for binaries (`trace_report`, the bench suite).
///
/// `SA_TRACE=<path>` enables tracing and [`finish`](Self::finish) writes
/// the Chrome trace to `<path>`; `SA_TRACE=1`/`on` enables tracing with
/// no file; unset/`0`/`off` leaves tracing disabled.
#[derive(Debug)]
pub struct TraceSession {
    path: Option<std::path::PathBuf>,
    active: bool,
}

impl TraceSession {
    /// Reads `SA_TRACE` and enables tracing accordingly.
    pub fn from_env() -> Self {
        match std::env::var("SA_TRACE") {
            Ok(v) if !v.is_empty() && v != "0" && v != "off" => {
                clock::init();
                set_enabled(true);
                let path = if v == "1" || v == "on" {
                    None
                } else {
                    Some(std::path::PathBuf::from(v))
                };
                TraceSession { path, active: true }
            }
            _ => TraceSession {
                path: None,
                active: false,
            },
        }
    }

    /// Enables tracing unconditionally (no export path). Used by
    /// binaries that aggregate in-process regardless of `SA_TRACE`.
    pub fn in_process() -> Self {
        clock::init();
        set_enabled(true);
        TraceSession {
            path: None,
            active: true,
        }
    }

    /// Whether this session turned tracing on.
    pub fn active(&self) -> bool {
        self.active
    }

    /// The export path requested via `SA_TRACE`, if any.
    pub fn path(&self) -> Option<&std::path::Path> {
        self.path.as_deref()
    }

    /// Disables tracing, drains all buffered events, and — if `SA_TRACE`
    /// named a path — writes the Chrome trace there.
    ///
    /// Returns the drained events and the written path (if any).
    ///
    /// # Errors
    ///
    /// Returns the I/O error if the trace file cannot be written; the
    /// drained events are lost in that case (the caller already printed
    /// its tables from them).
    pub fn finish(self) -> Result<(Vec<SpanEvent>, Option<std::path::PathBuf>), std::io::Error> {
        set_enabled(false);
        let events = span::drain();
        match &self.path {
            Some(p) => {
                chrome::write_chrome_trace(p, &events)?;
                Ok((events, self.path))
            }
            None => Ok((events, None)),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn disabled_by_default_records_nothing() {
        let _session = scoped();
        set_enabled(false);
        {
            let _s = span("invisible");
            metrics::counter("invisible.count").add(5);
        }
        assert!(drain().is_empty());
        assert_eq!(metrics::counter("invisible.count").get(), 0);
    }

    #[test]
    fn scoped_session_isolates_state() {
        {
            let _session = scoped();
            let _s = span("visible");
            drop(_s);
            assert_eq!(drain().len(), 1);
        }
        assert!(!enabled());
        assert!(drain().is_empty());
    }

    #[test]
    fn trace_session_from_env_inactive_without_var() {
        // SA_TRACE is not set in the test environment.
        if std::env::var("SA_TRACE").is_err() {
            let s = TraceSession::from_env();
            assert!(!s.active());
            assert!(s.path().is_none());
        }
    }

    #[test]
    fn in_process_session_collects_and_finishes() {
        let _lock = scoped(); // hold the session lock for exclusivity
        let session = TraceSession::in_process();
        {
            let _s = span_in("test", "finish_me");
        }
        let (events, path) = session.finish().expect("no io involved");
        assert!(path.is_none());
        assert!(events.iter().any(|e| e.name == "finish_me"));
        set_enabled(true); // restore for the ScopedTrace drop invariant
    }
}
