//! Pins the "true no-op when disabled" claim: with tracing disabled,
//! span guards, counter adds, and histogram records perform **zero heap
//! allocations** on the calling thread.
//!
//! A counting global allocator tallies allocations per thread (a
//! const-initialized thread-local, so counting needs no allocation
//! itself and concurrent test threads don't pollute each other's
//! counts). This lives in its own integration-test binary because a
//! global allocator is process-wide.

use std::alloc::{GlobalAlloc, Layout, System};
use std::cell::Cell;

struct CountingAlloc;

thread_local! {
    static ALLOCS: Cell<u64> = const { Cell::new(0) };
}

// SAFETY: delegates every operation to `System` unchanged; the only
// addition is a thread-local counter bump, which does not allocate.
unsafe impl GlobalAlloc for CountingAlloc {
    unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
        let _ = ALLOCS.try_with(|c| c.set(c.get() + 1));
        System.alloc(layout)
    }

    unsafe fn dealloc(&self, ptr: *mut u8, layout: Layout) {
        System.dealloc(ptr, layout)
    }
}

#[global_allocator]
static ALLOC: CountingAlloc = CountingAlloc;

fn allocations_during(f: impl FnOnce()) -> u64 {
    let before = ALLOCS.with(|c| c.get());
    f();
    ALLOCS.with(|c| c.get()) - before
}

#[test]
fn disabled_probes_allocate_nothing() {
    // Warm up: intern the metrics and touch the TLS/clock once while
    // enabled, so the measurement below sees only steady-state cost.
    {
        let _session = sa_trace::scoped();
        let _s = sa_trace::span_in("warm", "up");
        sa_trace::metrics::counter("zero_alloc.counter").add(1);
        sa_trace::metrics::histogram("zero_alloc.hist").record(1);
    }
    let _ = sa_trace::drain();

    assert!(!sa_trace::enabled(), "tracing must be disabled here");
    let n = allocations_during(|| {
        for _ in 0..10_000 {
            let _g = sa_trace::span_in("hot", "disabled_span");
            let _l = sa_trace::span_labeled("hot", "disabled_label", || "never".to_string());
            sa_trace::counter_add!("zero_alloc.counter", 1);
            sa_trace::histogram_record!("zero_alloc.hist", 42);
        }
    });
    assert_eq!(n, 0, "disabled tracing hot path must not allocate");
    assert_eq!(sa_trace::metrics::counter("zero_alloc.counter").get(), 0);
}

#[test]
fn enabled_spans_amortize_buffer_allocations() {
    let _session = sa_trace::scoped();
    // Warm the thread buffer.
    {
        let _g = sa_trace::span_in("warm", "enabled_span");
    }
    // Unlabeled spans reuse the existing buffer: allocations stay far
    // below one per span (only the occasional Vec growth / flush).
    let spans = 1000u64;
    let n = allocations_during(|| {
        for _ in 0..spans {
            let _g = sa_trace::span_in("hot", "enabled_span");
        }
    });
    assert!(
        n < spans / 2,
        "enabled unlabeled spans should amortize allocations, saw {n} for {spans} spans"
    );
}
