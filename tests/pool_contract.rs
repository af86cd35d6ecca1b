//! The worker pool's resource contract.
//!
//! `sa_tensor::pool` lends every parallel call helpers from one
//! process-wide set of long-lived workers. `parallel_determinism.rs` pins
//! what a call *computes*; this suite pins what the pool is allowed to be
//! underneath: a fixed, reused set of threads that concurrent callers can
//! share without waiting on each other, that never touches a caller's
//! frame once the call has returned, that carries nothing from one job
//! into the next, and that hands a caller's ambient state — its fault
//! plan, its trace switch — to that call's helpers and to nobody else.
//!
//! Every test runs under [`watchdog`]: the failure a parked-worker pool
//! can have that a spawn-per-call pool could not is a lost wake-up or a
//! caller waiting on work nobody started, and that must read as a failed
//! test, not as a hung suite. No test here asks for more than five
//! threads, so the binary's pool never grows past four workers (or the
//! host's core count less one, where that is larger).

use std::collections::HashSet;
use std::sync::atomic::{AtomicBool, AtomicU64, AtomicUsize, Ordering};
use std::sync::{mpsc, Mutex};
use std::thread::ThreadId;
use std::time::Duration;

use sa_tensor::cancel::{self, CancelToken};
use sa_tensor::fault::{self, FaultPlan};
use sa_tensor::pool::{
    current_threads, hardware_threads, parallel_for, parallel_for_rows, parallel_map,
    try_parallel_for, try_parallel_for_parts, try_parallel_for_rows, try_parallel_map,
    with_threads,
};
use sa_tensor::SaError;

/// The most threads any test of this binary asks for.
const MAX_THREADS: usize = 5;

/// Runs `f` on a thread of its own and fails the test if it has not
/// returned within two minutes.
fn watchdog<R: Send + 'static>(f: impl FnOnce() -> R + Send + 'static) -> R {
    let (done, result) = mpsc::channel();
    let body = std::thread::spawn(move || {
        let _ = done.send(f());
    });
    match result.recv_timeout(Duration::from_secs(120)) {
        Ok(r) => r,
        Err(mpsc::RecvTimeoutError::Timeout) => panic!("deadlock: no result after 120 s"),
        // The body panicked before sending: hand its panic on.
        Err(mpsc::RecvTimeoutError::Disconnected) => match body.join() {
            Err(payload) => std::panic::resume_unwind(payload),
            Ok(()) => panic!("test body dropped its result"),
        },
    }
}

/// A few hundred nanoseconds of work, so that a call lasts long enough
/// for a helper to reach it.
fn spin_a_little() {
    std::hint::black_box((0..256u64).fold(0u64, |a, i| a.wrapping_add(i * i)));
}

/// One `with_threads(threads)` call that cannot end before `threads`
/// threads are inside it: each of its `threads` chunks waits until all of
/// them have been entered. Forces helpers to start where timing would
/// only make it likely — a worker that never comes is the watchdog's to
/// report. Returns who ran a chunk.
fn rendezvous(threads: usize) -> HashSet<ThreadId> {
    let entered = AtomicUsize::new(0);
    let inside: Mutex<HashSet<ThreadId>> = Mutex::new(HashSet::new());
    with_threads(threads, || {
        parallel_for(threads, 1, |_| {
            inside.lock().unwrap().insert(std::thread::current().id());
            entered.fetch_add(1, Ordering::SeqCst);
            while entered.load(Ordering::SeqCst) < threads {
                std::thread::yield_now();
            }
        });
    });
    inside.into_inner().unwrap()
}

/// (a) Workers are reused: thousands of fan-outs see a handful of
/// threads, where a spawn-per-call pool shows a new one per helper per
/// call.
#[test]
fn thousands_of_calls_share_a_fixed_set_of_workers() {
    watchdog(|| {
        let caller = std::thread::current().id();
        let mut helpers_seen: HashSet<ThreadId> = HashSet::new();
        for threads in [2, MAX_THREADS] {
            // The pool grows to what a call asks for: all of them come.
            let all = rendezvous(threads);
            assert_eq!(all.len(), threads, "with_threads({threads}) ran on {all:?}");
            helpers_seen.extend(all.into_iter().filter(|&t| t != caller));
            for _ in 0..2000 {
                let in_call: Mutex<HashSet<ThreadId>> = Mutex::new(HashSet::new());
                with_threads(threads, || {
                    parallel_for(48, 1, |_| {
                        in_call.lock().unwrap().insert(std::thread::current().id());
                        spin_a_little();
                    });
                });
                let in_call = in_call.into_inner().unwrap();
                assert!(
                    in_call.len() <= threads,
                    "{} threads ran chunks of one with_threads({threads}) call",
                    in_call.len()
                );
                helpers_seen.extend(in_call.into_iter().filter(|&t| t != caller));
            }
        }
        // Other tests of this binary run beside this one on the default
        // thread count, which is the host's.
        let high_water = MAX_THREADS.max(hardware_threads()) - 1;
        assert!(
            helpers_seen.len() <= high_water,
            "4000 calls ran on {} helper threads, the pool may hold {high_water}",
            helpers_seen.len()
        );

        let alone: Mutex<HashSet<ThreadId>> = Mutex::new(HashSet::new());
        with_threads(1, || {
            parallel_for(48, 1, |_| {
                alone.lock().unwrap().insert(std::thread::current().id());
            });
        });
        assert_eq!(alone.into_inner().unwrap(), HashSet::from([caller]));
    });
}

/// (b) Concurrent callers share the workers without losing, repeating or
/// misplacing an index.
#[test]
fn concurrent_callers_get_index_exact_results() {
    watchdog(|| {
        std::thread::scope(|scope| {
            for caller in 0..8usize {
                scope.spawn(move || {
                    for round in 0..500usize {
                        let threads = [2, 3, MAX_THREADS][(caller + round) % 3];
                        let grain = [1, 3, 7, 64][(caller / 2 + round) % 4];
                        let n = 40 + (caller * 13 + round * 7) % 90;
                        with_threads(threads, || {
                            let hits: Vec<AtomicU64> = (0..n).map(|_| AtomicU64::new(0)).collect();
                            parallel_for(n, grain, |range| {
                                for i in range {
                                    hits[i].fetch_add(1, Ordering::Relaxed);
                                }
                            });
                            assert!(
                                hits.iter().all(|h| h.load(Ordering::Relaxed) == 1),
                                "parallel_for: caller {caller} round {round}"
                            );

                            let salt = caller * 1000 + round;
                            let got = parallel_map(n, grain, |i| i * 31 + salt);
                            let want: Vec<usize> = (0..n).map(|i| i * 31 + salt).collect();
                            assert_eq!(got, want, "parallel_map: caller {caller} round {round}");

                            let width = 3;
                            let mut data = vec![0usize; n * width];
                            parallel_for_rows(&mut data, width, grain, |row0, chunk| {
                                for (local, row) in chunk.chunks_mut(width).enumerate() {
                                    row.fill(row0 + local + salt);
                                }
                            });
                            for (i, row) in data.chunks(width).enumerate() {
                                assert!(
                                    row.iter().all(|&x| x == i + salt),
                                    "parallel_for_rows: caller {caller} round {round} row {i}"
                                );
                            }

                            // Uneven parts, as the engine cuts its units.
                            let mut data = vec![0usize; n];
                            let mut parts = Vec::new();
                            let (mut rest, mut first) = (data.as_mut_slice(), 0);
                            while !rest.is_empty() {
                                let take = (first % grain + 1).min(rest.len());
                                let (head, tail) = std::mem::take(&mut rest).split_at_mut(take);
                                parts.push((first, head));
                                (rest, first) = (tail, first + take);
                            }
                            try_parallel_for_parts(
                                "parts",
                                parts,
                                |(first, out): (usize, &mut [usize])| {
                                    for (k, x) in out.iter_mut().enumerate() {
                                        *x = first + k + salt;
                                    }
                                },
                            )
                            .expect("no faults");
                            assert!(
                                data.iter().enumerate().all(|(i, &x)| x == i + salt),
                                "try_parallel_for_parts: caller {caller} round {round}"
                            );
                        });
                    }
                });
            }
        });
    });
}

/// (c) Once a call has returned — by a panic, by a cancellation, or with
/// tickets nobody started — no worker touches the caller's frame again:
/// the buffer the call borrowed is freed and its memory handed to the
/// next round's buffers at once, and every round's results are exact.
#[test]
fn a_returned_call_leaves_no_worker_in_the_callers_frame() {
    watchdog(|| {
        const N: usize = 96;
        for round in 0..1000usize {
            with_threads(MAX_THREADS, || {
                // A body panics part-way: the call returns the error while
                // other chunks may still be finishing on helpers.
                let borrowed: Vec<AtomicUsize> = (0..N).map(|_| AtomicUsize::new(0)).collect();
                let err = try_parallel_for("contract_panics", N, 4, |range| {
                    for i in range.clone() {
                        borrowed[i].fetch_add(1, Ordering::Relaxed);
                    }
                    if range.contains(&(round % N)) {
                        panic!("round {round}");
                    }
                })
                .expect_err("the chunk holding the index panics");
                assert!(matches!(
                    err,
                    SaError::WorkerPanic {
                        site: "contract_panics",
                        ..
                    }
                ));
                assert!(borrowed.iter().all(|b| b.load(Ordering::Relaxed) <= 1));
                drop(borrowed);

                // A call cancelled from inside one of its chunks.
                let token = CancelToken::new();
                let mut rows = vec![usize::MAX; N * 2];
                let err = {
                    let _scope = cancel::install(&token);
                    try_parallel_for_rows("contract_cancels", &mut rows, 2, 4, |row0, chunk| {
                        chunk.fill(row0);
                        token.cancel();
                    })
                    .expect_err("the first chunk trips the token")
                };
                assert!(matches!(err, SaError::Cancelled { .. }), "{err:?}");
                drop(rows);

                // A call that is over before most helpers can start: its
                // leftover tickets are taken back, not left for later.
                let seed = vec![round; MAX_THREADS];
                let got = try_parallel_map("contract_short", MAX_THREADS, 1, |i| seed[i] + i)
                    .expect("no faults");
                assert!(
                    got.iter().enumerate().all(|(i, &g)| g == round + i),
                    "{got:?}"
                );
                drop(seed);

                // The freed memory, reused at once and checked exactly.
                let fresh: Vec<usize> = (0..N).map(|i| i ^ round).collect();
                let doubled = parallel_map(N, 4, |i| fresh[i] * 2);
                assert!(
                    doubled
                        .iter()
                        .enumerate()
                        .all(|(i, &d)| d == (i ^ round) * 2),
                    "round {round}: a result was written by someone else"
                );
                assert!(
                    fresh.iter().enumerate().all(|(i, &f)| f == i ^ round),
                    "round {round}: the reallocated buffer was written to"
                );
            });
        }
    });
}

/// (d) A worker brings nothing from one job to the next: thread-local
/// installs made inside a chunk — dropped normally or by a panic — are
/// gone when the same thread runs its next chunk, and every thread
/// inside a call sees a pool of one.
#[test]
fn nothing_installed_in_a_chunk_outlives_it() {
    watchdog(|| {
        const SITE: &str = "contract_leak_probe";
        let caller = std::thread::current().id();
        let checked_on: Mutex<HashSet<ThreadId>> = Mutex::new(HashSet::new());
        let clean = || {
            assert!(cancel::current().is_none(), "a cancel token leaked");
            assert!(!fault::should_panic(SITE), "a fault plan leaked");
            assert_eq!(current_threads(), 1, "a chunk sees a pool of one");
        };
        for round in 0..300usize {
            let threads = [2, 3, MAX_THREADS][round % 3];
            // Two chunks wait for each other, so a worker is in every call.
            let entered = AtomicUsize::new(0);
            let outcome = with_threads(threads, || {
                try_parallel_for("contract_installs", 64, 1, |range| {
                    clean();
                    checked_on
                        .lock()
                        .unwrap()
                        .insert(std::thread::current().id());
                    if entered.fetch_add(1, Ordering::SeqCst) < 2 {
                        while entered.load(Ordering::SeqCst) < 2 {
                            std::thread::yield_now();
                        }
                    }
                    let token = CancelToken::new();
                    let _cancel = cancel::install(&token);
                    let _fault = fault::install(FaultPlan::new(1).worker_panic(SITE));
                    with_threads(7, || {
                        assert!(cancel::current().is_some());
                        assert!(fault::should_panic(SITE));
                        assert_eq!(current_threads(), 1, "nested calls stay serial");
                        spin_a_little();
                        // Every third round a chunk unwinds through all
                        // three guards instead of dropping them.
                        if round % 3 == 0 && range.start == 40 {
                            panic!("unwind through the installs");
                        }
                    });
                })
            });
            match outcome {
                Ok(()) if round % 3 != 0 => {}
                Err(SaError::WorkerPanic { message, .. })
                    if round % 3 == 0 && message.contains("unwind through the installs") => {}
                other => panic!("round {round}: {other:?}"),
            }
            // The caller's own thread is as it was, too.
            assert!(cancel::current().is_none());
            assert!(!fault::should_panic(SITE));
        }
        let checked_on = checked_on.into_inner().unwrap();
        assert!(
            checked_on.iter().any(|&t| t != caller),
            "only the caller ever ran a chunk: nothing was checked on a worker"
        );
    });
}

/// (e) What is set on a thread rides the fan-outs that thread issues and
/// goes nowhere else: two callers share the workers, each under its own
/// fault plan and only one of them tracing. Every thread inside a call
/// sees that call's plan and switch, neither caller sees the other's
/// forced panic, zeroed scores, spans or `pool.chunks`, and a worker
/// that served one caller is clean when it next serves a call without a
/// plan.
#[test]
fn a_fan_out_carries_its_callers_plan_and_switch_to_its_helpers_only() {
    struct Caller {
        /// The site this caller's plan forces panics at.
        site: &'static str,
        /// The site name of its checked calls (and of their `pool` spans).
        call: &'static str,
        zero_mass: bool,
        traces: bool,
    }
    const ROUNDS: usize = 300;
    const CHUNKS: usize = 64;
    const CALLERS: [Caller; 2] = [
        Caller {
            site: "contract_panics_a",
            call: "contract_carries_a",
            zero_mass: true,
            traces: true,
        },
        Caller {
            site: "contract_panics_b",
            call: "contract_carries_b",
            zero_mass: false,
            traces: false,
        },
    ];
    /// A call whose first two chunks wait for each other, so that a
    /// worker is in it; `check` runs in every chunk, on whoever runs it.
    fn checked_call(site: &'static str, check: impl Fn() + Sync) -> bool {
        let caller = std::thread::current().id();
        let entered = AtomicUsize::new(0);
        let helped = AtomicBool::new(false);
        try_parallel_for(site, CHUNKS, 1, |_| {
            check();
            if std::thread::current().id() != caller {
                helped.store(true, Ordering::Relaxed);
            }
            if entered.fetch_add(1, Ordering::SeqCst) < 2 {
                while entered.load(Ordering::SeqCst) < 2 {
                    std::thread::yield_now();
                }
            }
        })
        .unwrap_or_else(|e| panic!("{site}: {e:?}"));
        helped.load(Ordering::Relaxed)
    }
    watchdog(|| {
        // Held here, not by a caller: the sink and the registry are the
        // process's, the switch is each thread's own.
        let _session = sa_trace::scoped();
        sa_trace::set_enabled(false);
        std::thread::scope(|scope| {
            for (me, other) in [(&CALLERS[0], &CALLERS[1]), (&CALLERS[1], &CALLERS[0])] {
                scope.spawn(move || {
                    for round in 0..ROUNDS {
                        let threads = [2, 3, MAX_THREADS][round % 3];
                        with_threads(threads, || {
                            let mut plan = FaultPlan::new(round as u64).worker_panic(me.site);
                            plan.zero_mass = me.zero_mass;
                            let installed = fault::install(plan);
                            let err = try_parallel_for(me.site, 8, 1, |_| {})
                                .expect_err("the caller's own forced panic");
                            assert!(matches!(err, SaError::WorkerPanic { .. }), "{err:?}");
                            try_parallel_for(other.site, 8, 1, |_| {})
                                .expect("the other caller's forced panic");
                            sa_trace::set_enabled(me.traces);
                            let helped = checked_call(me.call, || {
                                assert!(fault::should_panic(me.site));
                                assert!(!fault::should_panic(other.site));
                                let mut scores = [1.0f32];
                                let zeroed = fault::tamper_scores("stage1_scores", &mut scores);
                                assert_eq!(zeroed, me.zero_mass);
                                assert_eq!(sa_trace::enabled(), me.traces);
                            });
                            sa_trace::set_enabled(false);
                            assert!(helped, "round {round}: no worker was in the call");
                            drop(installed);
                            checked_call("contract_carries_nothing", || {
                                assert!(!fault::should_panic(me.site), "a plan leaked");
                                assert!(!fault::should_panic(other.site), "a plan leaked");
                                assert!(!sa_trace::enabled(), "a trace switch leaked");
                            });
                        });
                    }
                    // A scoped thread's exit flush may land after the join.
                    sa_trace::flush_thread();
                });
            }
        });
        let events = sa_trace::drain();
        assert!(
            events
                .iter()
                .all(|e| e.cat == "pool" && e.name == CALLERS[0].call),
            "only the tracing caller's checked calls record spans"
        );
        assert_eq!(events.len(), ROUNDS, "one span per traced call");
        assert_eq!(
            sa_trace::metrics::counter("pool.chunks").get(),
            (ROUNDS * CHUNKS) as u64,
            "the traced calls' chunks and nobody else's"
        );
    });
}
