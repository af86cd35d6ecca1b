//! RAII span guards, per-thread buffers, and the lock-free global sink.
//!
//! A span is opened with [`span`] / [`span_in`] / [`span_labeled`] and
//! closes when the returned guard drops. Finished spans are pushed onto
//! a thread-local buffer (no synchronization); when a buffer fills, or
//! its thread exits, the whole buffer is flushed into a global
//! Treiber-stack sink with one compare-and-swap. [`drain`] swaps the
//! stack head out atomically and returns every flushed event, sorted by
//! start time.
//!
//! Nesting is tracked with a per-thread depth counter, and each thread
//! gets a small sequential id, so the Chrome exporter can place events
//! on per-thread tracks where the viewer nests them by timestamp
//! containment. The worker pool's threads are long-lived — a helper's
//! spans keep one thread id, and so one track, across calls — and never
//! reach the thread-exit flush, so each calls [`flush_thread`] at the
//! end of its share of a parallel call, *before* it is counted as
//! finished: a [`drain`] immediately after a pool call sees every
//! helper's events.

use std::cell::{Cell, RefCell};
use std::ptr;
use std::sync::atomic::{AtomicPtr, AtomicU64, Ordering};

use crate::clock;

/// One finished span.
#[derive(Debug, Clone, PartialEq)]
pub struct SpanEvent {
    /// Span name (the stage taxonomy: `stage1_sampling`, `head`, …).
    pub name: &'static str,
    /// Category (crate/subsystem: `core`, `model`, `pool`, …).
    pub cat: &'static str,
    /// Start, monotonic nanoseconds since the process epoch.
    pub start_ns: u64,
    /// Duration in nanoseconds.
    pub dur_ns: u64,
    /// Small sequential id of the recording thread.
    pub tid: u64,
    /// 0-based nesting depth on the recording thread at open time.
    pub depth: u32,
    /// Optional dynamic label (e.g. `"L2.H3"` for a head span).
    pub label: Option<String>,
}

impl SpanEvent {
    /// End timestamp (`start_ns + dur_ns`).
    pub fn end_ns(&self) -> u64 {
        self.start_ns + self.dur_ns
    }
}

/// Flush threshold for the per-thread buffer.
const FLUSH_AT: usize = 4096;

/// Sequential thread-id source.
static NEXT_TID: AtomicU64 = AtomicU64::new(0);

/// One flushed buffer in the global sink (a Treiber stack node).
struct Chunk {
    events: Vec<SpanEvent>,
    next: *mut Chunk,
}

/// Head of the lock-free sink stack.
static SINK: AtomicPtr<Chunk> = AtomicPtr::new(ptr::null_mut());

/// Pushes a buffer of events onto the sink with a CAS loop. Wait-free in
/// practice (contention only when two threads flush simultaneously).
fn push_chunk(events: Vec<SpanEvent>) {
    if events.is_empty() {
        return;
    }
    let node = Box::into_raw(Box::new(Chunk {
        events,
        next: ptr::null_mut(),
    }));
    let mut head = SINK.load(Ordering::Acquire);
    loop {
        // SAFETY: `node` came from Box::into_raw above and is not yet
        // shared; writing its `next` field is exclusive access.
        unsafe { (*node).next = head };
        match SINK.compare_exchange_weak(head, node, Ordering::AcqRel, Ordering::Acquire) {
            Ok(_) => return,
            Err(actual) => head = actual,
        }
    }
}

/// Per-thread state: id, current nesting depth, and the event buffer.
/// The `Drop` impl flushes the buffer when the thread exits.
struct ThreadBuf {
    tid: u64,
    depth: Cell<u32>,
    events: RefCell<Vec<SpanEvent>>,
}

impl ThreadBuf {
    fn new() -> Self {
        ThreadBuf {
            tid: NEXT_TID.fetch_add(1, Ordering::Relaxed),
            depth: Cell::new(0),
            events: RefCell::new(Vec::new()),
        }
    }

    fn push(&self, event: SpanEvent) {
        // try_borrow_mut: a re-entrant push (impossible today, cheap to
        // guard) silently drops the event rather than panicking.
        if let Ok(mut buf) = self.events.try_borrow_mut() {
            buf.push(event);
            if buf.len() >= FLUSH_AT {
                let full = std::mem::take(&mut *buf);
                drop(buf);
                push_chunk(full);
            }
        }
    }

    fn flush(&self) {
        if let Ok(mut buf) = self.events.try_borrow_mut() {
            if !buf.is_empty() {
                push_chunk(std::mem::take(&mut *buf));
            }
        }
    }
}

impl Drop for ThreadBuf {
    fn drop(&mut self) {
        self.flush();
    }
}

thread_local! {
    static TLS: ThreadBuf = ThreadBuf::new();
}

/// Flushes the calling thread's buffered events into the global sink.
/// [`drain`] calls this for the draining thread; other live threads
/// flush when their buffers fill or when they exit.
pub fn flush_thread() {
    let _ = TLS.try_with(|t| t.flush());
}

/// Swaps the sink empty and returns every flushed event (including the
/// calling thread's buffer), sorted by start time, then thread, then
/// depth — a stable chronological order for summaries and export.
pub fn drain() -> Vec<SpanEvent> {
    flush_thread();
    let mut head = SINK.swap(ptr::null_mut(), Ordering::AcqRel);
    let mut out = Vec::new();
    while !head.is_null() {
        // SAFETY: the swap above made this thread the unique owner of
        // the whole stack; each node was created by Box::into_raw in
        // push_chunk and is reclaimed exactly once here.
        let node = unsafe { Box::from_raw(head) };
        head = node.next;
        out.extend(node.events);
    }
    out.sort_by(|a, b| {
        (a.start_ns, a.tid, a.depth, a.name).cmp(&(b.start_ns, b.tid, b.depth, b.name))
    });
    out
}

/// An open span; records a [`SpanEvent`] when dropped. Obtained from
/// [`span`] / [`span_in`] / [`span_labeled`]; inert (`None` inside) when
/// tracing is disabled at open time.
#[must_use = "a span closes when its guard drops — bind it with `let _span = ...`"]
pub struct SpanGuard {
    active: Option<ActiveSpan>,
}

struct ActiveSpan {
    name: &'static str,
    cat: &'static str,
    label: Option<String>,
    start_ns: u64,
    depth: u32,
}

fn open(cat: &'static str, name: &'static str, label: Option<String>) -> SpanGuard {
    // Depth is claimed at open so children observe the parent's +1 even
    // before the parent closes.
    let depth = TLS
        .try_with(|t| {
            let d = t.depth.get();
            t.depth.set(d + 1);
            d
        })
        .unwrap_or(0);
    SpanGuard {
        active: Some(ActiveSpan {
            name,
            cat,
            label,
            start_ns: clock::now_ns(),
            depth,
        }),
    }
}

/// Opens a span in the default `span` category.
#[inline]
pub fn span(name: &'static str) -> SpanGuard {
    span_in("span", name)
}

/// Opens a span with an explicit category (crate/subsystem name).
#[inline]
pub fn span_in(cat: &'static str, name: &'static str) -> SpanGuard {
    if !crate::enabled() {
        return SpanGuard { active: None };
    }
    open(cat, name, None)
}

/// Opens a span with a lazily computed label; the closure only runs when
/// tracing is enabled, so labels cost nothing in disabled mode.
#[inline]
pub fn span_labeled(
    cat: &'static str,
    name: &'static str,
    label: impl FnOnce() -> String,
) -> SpanGuard {
    if !crate::enabled() {
        return SpanGuard { active: None };
    }
    open(cat, name, Some(label()))
}

impl Drop for SpanGuard {
    fn drop(&mut self) {
        if let Some(mut a) = self.active.take() {
            let dur_ns = clock::now_ns().saturating_sub(a.start_ns);
            let _ = TLS.try_with(|t| {
                t.depth.set(t.depth.get().saturating_sub(1));
                t.push(SpanEvent {
                    name: a.name,
                    cat: a.cat,
                    start_ns: a.start_ns,
                    dur_ns,
                    tid: t.tid,
                    depth: a.depth,
                    label: a.label.take(),
                });
            });
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::scoped;

    #[test]
    fn spans_nest_per_thread() {
        let _session = scoped();
        {
            let _outer = span_in("t", "outer");
            {
                let _inner = span_in("t", "inner");
                let _deepest = span_in("t", "deepest");
            }
            let _sibling = span_in("t", "sibling");
        }
        let events = drain();
        let by_name = |n: &str| {
            events
                .iter()
                .find(|e| e.name == n)
                .unwrap_or_else(|| panic!("span {n} missing"))
        };
        assert_eq!(by_name("outer").depth, 0);
        assert_eq!(by_name("inner").depth, 1);
        assert_eq!(by_name("deepest").depth, 2);
        assert_eq!(by_name("sibling").depth, 1);
        // Containment: children start no earlier and end no later.
        let outer = by_name("outer");
        for n in ["inner", "deepest", "sibling"] {
            let c = by_name(n);
            assert!(c.start_ns >= outer.start_ns, "{n} starts before parent");
            assert!(c.end_ns() <= outer.end_ns(), "{n} ends after parent");
        }
    }

    #[test]
    fn threads_get_distinct_ids_and_all_events_flush() {
        let _session = scoped();
        std::thread::scope(|s| {
            for _ in 0..3 {
                s.spawn(|| {
                    // The switch is per thread and these are not pool
                    // helpers: each states that it records.
                    crate::set_enabled(true);
                    let _sp = span_in("t", "worker_span");
                });
            }
        });
        let _main = span_in("t", "main_span");
        drop(_main);
        // The workers flush from their TLS destructors, which may still
        // be running for an instant after thread::scope returns (the
        // scope observes a thread as finished before its TLS teardown).
        // Keep draining until all three buffers have landed.
        let mut events = drain();
        for _ in 0..1000 {
            if events.iter().filter(|e| e.name == "worker_span").count() >= 3 {
                break;
            }
            std::thread::yield_now();
            events.extend(drain());
        }
        let workers: Vec<&SpanEvent> =
            events.iter().filter(|e| e.name == "worker_span").collect();
        assert_eq!(workers.len(), 3, "scoped threads must flush on exit");
        let mut tids: Vec<u64> = workers.iter().map(|e| e.tid).collect();
        tids.sort_unstable();
        tids.dedup();
        assert_eq!(tids.len(), 3, "each thread has its own id");
        let main_ev = events.iter().find(|e| e.name == "main_span");
        assert!(main_ev.is_some());
    }

    #[test]
    fn labels_are_recorded_and_lazy() {
        let _session = scoped();
        {
            let _l = span_labeled("t", "labeled", || "L1.H2".to_string());
        }
        crate::set_enabled(false);
        {
            let _no = span_labeled("t", "off", || {
                panic!("label closure must not run while disabled")
            });
        }
        crate::set_enabled(true);
        let events = drain();
        assert_eq!(events.len(), 1);
        assert_eq!(events[0].label.as_deref(), Some("L1.H2"));
    }

    #[test]
    fn buffer_overflow_flushes_mid_thread() {
        let _session = scoped();
        for _ in 0..(FLUSH_AT + 10) {
            let _s = span_in("t", "tick");
        }
        let events = drain();
        assert_eq!(events.len(), FLUSH_AT + 10);
    }

    #[test]
    fn drain_is_sorted_by_start_time() {
        let _session = scoped();
        for _ in 0..50 {
            let _s = span_in("t", "seq");
        }
        let events = drain();
        for w in events.windows(2) {
            assert!(w[0].start_ns <= w[1].start_ns);
        }
    }
}
