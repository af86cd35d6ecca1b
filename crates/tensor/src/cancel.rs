//! Cooperative cancellation.
//!
//! A [`CancelToken`] is a cheap, clonable handle that a caller (or a
//! deadline measured on the `sa_trace` clock) can trip at any time.
//! Long-running operations *cooperate*: they check the token at natural
//! chunk boundaries — the worker pool before every chunk claim
//! ([`crate::pool::try_parallel_for`] and friends), chunked prefill
//! before every sequence chunk — and return a typed
//! [`SaError::Cancelled`] / [`SaError::DeadlineExceeded`] carrying
//! partial-progress stats instead of completing. Nothing is ever torn
//! down mid-chunk, so a cancelled operation leaves no half-written
//! in-place state behind a successful `Ok`.
//!
//! ## Scoped installation
//!
//! The pool primitives are called from deep inside the kernels, far from
//! any function signature that could carry a token. [`install`] binds a
//! token to the *current thread* for the lifetime of the returned guard;
//! [`current`] reads it back. The pool reads the installed token once at
//! entry (on the calling thread) and shares it with the call's helpers,
//! so the thread-local never needs to propagate across threads.
//!
//! ## Determinism
//!
//! A token that is already tripped when an operation starts produces a
//! deterministic outcome (`completed == 0`) at every thread count. A
//! token tripped mid-flight stops the operation within one chunk of the
//! trip; exactly *which* chunk count it reports depends on scheduling,
//! so deterministic harnesses (the serve scheduler's ledger) only record
//! the outcome *category*, which is scheduling-independent.

use std::cell::RefCell;
use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};
use std::sync::Arc;

use crate::error::SaError;

/// Why a token reports itself as tripped.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum CancelKind {
    /// The caller invoked [`CancelToken::cancel`].
    Caller,
    /// The deadline on the `sa_trace` clock passed.
    Deadline,
}

#[derive(Debug)]
struct Inner {
    cancelled: AtomicBool,
    /// Absolute deadline on the `sa_trace::clock::now_ns` timeline;
    /// `u64::MAX` means "no deadline".
    deadline_ns: AtomicU64,
}

/// A clonable cancellation handle; all clones share one state.
#[derive(Debug, Clone)]
pub struct CancelToken {
    inner: Arc<Inner>,
}

impl Default for CancelToken {
    fn default() -> Self {
        CancelToken::new()
    }
}

impl CancelToken {
    /// A token that never trips on its own (no deadline).
    pub fn new() -> Self {
        CancelToken {
            inner: Arc::new(Inner {
                cancelled: AtomicBool::new(false),
                deadline_ns: AtomicU64::new(u64::MAX),
            }),
        }
    }

    /// A token with an absolute deadline on the
    /// [`sa_trace::clock::now_ns`] timeline.
    pub fn with_deadline_ns(deadline_ns: u64) -> Self {
        let t = CancelToken::new();
        t.inner.deadline_ns.store(deadline_ns, Ordering::SeqCst);
        t
    }

    /// Trips the token; every clone observes the cancellation.
    pub fn cancel(&self) {
        self.inner.cancelled.store(true, Ordering::SeqCst);
    }

    /// The absolute deadline, if one was set.
    pub fn deadline_ns(&self) -> Option<u64> {
        match self.inner.deadline_ns.load(Ordering::SeqCst) {
            u64::MAX => None,
            d => Some(d),
        }
    }

    /// Why the token is tripped, or `None` while it is live. A caller
    /// cancellation takes precedence over a simultaneous deadline expiry
    /// so the outcome is stable once observed.
    pub fn tripped(&self) -> Option<CancelKind> {
        if self.inner.cancelled.load(Ordering::Relaxed) {
            return Some(CancelKind::Caller);
        }
        let deadline = self.inner.deadline_ns.load(Ordering::Relaxed);
        if deadline != u64::MAX && sa_trace::clock::now_ns() >= deadline {
            return Some(CancelKind::Deadline);
        }
        None
    }

    /// The cooperative checkpoint: `Ok(())` while live, or the typed
    /// error carrying `site` and the caller's partial-progress counters.
    ///
    /// # Errors
    ///
    /// [`SaError::Cancelled`] after [`CancelToken::cancel`],
    /// [`SaError::DeadlineExceeded`] after the deadline passes.
    pub fn check(
        &self,
        site: &'static str,
        completed: usize,
        total: usize,
    ) -> Result<(), SaError> {
        match self.tripped() {
            None => Ok(()),
            Some(CancelKind::Caller) => Err(SaError::Cancelled {
                site,
                completed,
                total,
            }),
            Some(CancelKind::Deadline) => Err(SaError::DeadlineExceeded {
                site,
                completed,
                total,
            }),
        }
    }
}

thread_local! {
    static CURRENT: RefCell<Option<CancelToken>> = const { RefCell::new(None) };
}

/// Guard returned by [`install`]; restores the previously installed
/// token (if any) on drop, including on unwind.
pub struct CancelScope {
    prev: Option<CancelToken>,
    restored: bool,
}

impl Drop for CancelScope {
    fn drop(&mut self) {
        if !self.restored {
            self.restored = true;
            let prev = self.prev.take();
            CURRENT.with(|c| *c.borrow_mut() = prev);
        }
    }
}

/// Installs `token` as the current thread's cancellation token until the
/// returned guard drops. Nests: an inner install shadows the outer one
/// and the outer token is restored when the inner guard drops.
pub fn install(token: &CancelToken) -> CancelScope {
    let prev = CURRENT.with(|c| c.borrow_mut().replace(token.clone()));
    CancelScope {
        prev,
        restored: false,
    }
}

/// The token installed on the current thread, if any.
pub fn current() -> Option<CancelToken> {
    CURRENT.with(|c| c.borrow().clone())
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn fresh_token_is_live() {
        let t = CancelToken::new();
        assert_eq!(t.tripped(), None);
        assert_eq!(t.deadline_ns(), None);
        assert!(t.check("site", 0, 10).is_ok());
    }

    #[test]
    fn cancel_trips_every_clone() {
        let t = CancelToken::new();
        let clone = t.clone();
        t.cancel();
        assert_eq!(clone.tripped(), Some(CancelKind::Caller));
        match clone.check("prefill", 3, 7) {
            Err(SaError::Cancelled {
                site,
                completed,
                total,
            }) => {
                assert_eq!(site, "prefill");
                assert_eq!((completed, total), (3, 7));
            }
            other => panic!("unexpected {other:?}"),
        }
    }

    #[test]
    fn expired_deadline_trips_on_trace_clock() {
        // A deadline in the past (trace clock) is already tripped.
        let now = sa_trace::clock::now_ns();
        let t = CancelToken::with_deadline_ns(now.saturating_sub(1));
        assert_eq!(t.tripped(), Some(CancelKind::Deadline));
        assert!(matches!(
            t.check("pool", 0, 4),
            Err(SaError::DeadlineExceeded {
                site: "pool",
                completed: 0,
                total: 4
            })
        ));
        // A far-future deadline is live.
        let t = CancelToken::with_deadline_ns(u64::MAX - 1);
        assert_eq!(t.tripped(), None);
        assert!(t.deadline_ns().is_some());
    }

    #[test]
    fn caller_cancel_wins_over_deadline() {
        let now = sa_trace::clock::now_ns();
        let t = CancelToken::with_deadline_ns(now.saturating_sub(1));
        t.cancel();
        assert_eq!(t.tripped(), Some(CancelKind::Caller));
    }

    #[test]
    fn install_scopes_and_nests() {
        assert!(current().is_none());
        let outer = CancelToken::new();
        {
            let _g = install(&outer);
            let seen = current().expect("outer installed");
            assert!(Arc::ptr_eq(&seen.inner, &outer.inner));
            let inner = CancelToken::new();
            {
                let _g2 = install(&inner);
                let seen = current().expect("inner installed");
                assert!(Arc::ptr_eq(&seen.inner, &inner.inner));
            }
            let seen = current().expect("outer restored");
            assert!(Arc::ptr_eq(&seen.inner, &outer.inner));
        }
        assert!(current().is_none());
    }

    #[test]
    fn install_restores_on_unwind() {
        let t = CancelToken::new();
        let caught = std::panic::catch_unwind(|| {
            let _g = install(&t);
            panic!("unwind through the scope");
        });
        assert!(caught.is_err());
        assert!(current().is_none(), "scope must restore on unwind");
    }

    #[test]
    fn token_is_send_sync() {
        fn assert_send_sync<T: Send + Sync>() {}
        assert_send_sync::<CancelToken>();
    }
}
