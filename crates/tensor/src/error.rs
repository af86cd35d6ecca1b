use std::fmt;

/// Unified error taxonomy for the attention pipeline.
///
/// All fallible public functions in `sa-tensor` (and, via the
/// `TensorError` / `KernelError` aliases, in `sa-kernels` and the
/// pipeline crates above) return `Result<_, SaError>`. The first three
/// variants are argument-validation errors; `NonFinite`,
/// `DegenerateMask`, `AlphaUnsatisfied` and `WorkerPanic` are *health*
/// errors raised by the numerical sentinels and the worker pool, and are
/// the inputs to the graceful-degradation policy (see `sa-core`'s
/// `HealthPolicy`). The remaining variants belong to the serving layer:
/// `Cancelled` / `DeadlineExceeded` report cooperative cancellation with
/// partial-progress stats, and `Overloaded` / `BudgetExceeded` are
/// admission-control rejections. None of the serving variants is a
/// health error — a cancelled request must surface as cancelled, never
/// be absorbed into a dense fallback.
#[derive(Debug, Clone, PartialEq)]
pub enum SaError {
    /// Two operands had incompatible shapes for the requested operation.
    ShapeMismatch {
        /// The operation being performed (e.g. `"matmul"`).
        op: &'static str,
        /// Shape of the left-hand operand, `(rows, cols)`.
        lhs: (usize, usize),
        /// Shape of the right-hand operand, `(rows, cols)`.
        rhs: (usize, usize),
    },
    /// A dimension argument was zero or otherwise out of the valid range.
    InvalidDimension {
        /// The operation being performed.
        op: &'static str,
        /// Human-readable description of the offending argument.
        what: String,
    },
    /// An index was out of bounds for the matrix it addressed.
    IndexOutOfBounds {
        /// The operation being performed.
        op: &'static str,
        /// The offending index.
        index: usize,
        /// The exclusive bound the index must stay under.
        bound: usize,
    },
    /// A numerical-health sentinel found NaN/Inf values at a stage
    /// boundary.
    NonFinite {
        /// The pipeline stage where the values were observed
        /// (e.g. `"inputs"`, `"sampled_scores"`, `"attention_output"`).
        stage: &'static str,
        /// The head index, when the failure is attributed to one head.
        head: Option<usize>,
        /// Number of non-finite entries observed.
        count: usize,
    },
    /// A discovered or merged sparsity mask was unusable (e.g. zero
    /// live entries while the causal region is non-empty, or zero
    /// stage-1 score mass).
    DegenerateMask {
        /// The pipeline stage that produced the mask.
        stage: &'static str,
        /// Human-readable description of the degeneracy.
        what: String,
    },
    /// Stage 2 could not cover the requested CRA threshold `alpha`
    /// within the configured tolerance (Def. 2 in the paper).
    AlphaUnsatisfied {
        /// Attention mass actually covered by the selected KV set.
        covered: f32,
        /// The configured CRA threshold.
        alpha: f32,
        /// The head index, when attributed to one head.
        head: Option<usize>,
    },
    /// A worker thread panicked inside a pool primitive; the panic was
    /// caught at the chunk boundary instead of aborting the process.
    WorkerPanic {
        /// The pool call site (e.g. `"sparse_flash_attention"`).
        site: &'static str,
        /// The panic payload rendered as a string.
        message: String,
    },
    /// The caller cancelled the operation through a
    /// [`CancelToken`](crate::cancel::CancelToken); the work stopped
    /// cooperatively at the next chunk boundary.
    Cancelled {
        /// The call site that observed the cancellation.
        site: &'static str,
        /// Chunks fully processed before the cancellation was observed.
        completed: usize,
        /// Total chunks the operation was split into.
        total: usize,
    },
    /// A [`CancelToken`](crate::cancel::CancelToken) deadline (measured
    /// on the `sa_trace` clock) expired; the work stopped cooperatively
    /// at the next chunk boundary.
    DeadlineExceeded {
        /// The call site that observed the expiry.
        site: &'static str,
        /// Chunks fully processed before the expiry was observed.
        completed: usize,
        /// Total chunks the operation was split into.
        total: usize,
    },
    /// A serving admission check rejected the request because too many
    /// requests were already in flight or queued.
    Overloaded {
        /// Requests in flight or queued at rejection time.
        inflight: usize,
        /// The configured admission limit.
        max_inflight: usize,
    },
    /// A serving admission check rejected the request because its
    /// projected memory footprint exceeds the configured budget.
    BudgetExceeded {
        /// Projected bytes the request would need.
        required_bytes: u64,
        /// The configured budget in bytes.
        budget_bytes: u64,
    },
    /// A checkpoint's restore-time checksum disagreed with the one
    /// recorded at snapshot time: the KV bytes were corrupted between
    /// snapshot and restore (bit flips, truncation, version skew). The
    /// session must be rebuilt from scratch — restoring corrupted KV
    /// state would propagate silently wrong attention outputs.
    CorruptCheckpoint {
        /// Checksum recorded when the snapshot was taken.
        expected: u64,
        /// Checksum recomputed over the staged bytes at restore time.
        actual: u64,
    },
    /// A per-tenant quality floor shed the request: serving it would
    /// require degrading below the tenant's minimum ladder rung (or
    /// would overflow the tenant's budget of uncertified-rung tokens),
    /// and the near-lossless contract forbids trading quality below the
    /// configured floor. Like the admission rejections, the request
    /// never ran the model.
    QualityFloor {
        /// The tenant whose floor blocked the request.
        tenant: u64,
        /// What the floor refused to trade away.
        what: String,
    },
}

/// Historical name for [`SaError`]; kept so every pre-existing
/// `Result<_, TensorError>` signature keeps compiling unchanged.
pub type TensorError = SaError;

impl SaError {
    /// True for the health-sentinel variants that the degradation
    /// policy may convert into a dense per-head fallback; false for
    /// argument-validation errors, which always propagate.
    pub fn is_health_error(&self) -> bool {
        matches!(
            self,
            SaError::NonFinite { .. }
                | SaError::DegenerateMask { .. }
                | SaError::AlphaUnsatisfied { .. }
                | SaError::WorkerPanic { .. }
        )
    }

    /// True for the cooperative-cancellation variants (`Cancelled`,
    /// `DeadlineExceeded`). These always propagate — the degradation
    /// policy must never convert a cancellation into a fallback, and the
    /// serving retry loop must never retry one.
    pub fn is_cancellation(&self) -> bool {
        matches!(
            self,
            SaError::Cancelled { .. } | SaError::DeadlineExceeded { .. }
        )
    }
}

impl fmt::Display for SaError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            SaError::ShapeMismatch { op, lhs, rhs } => write!(
                f,
                "shape mismatch in {op}: lhs is {}x{}, rhs is {}x{}",
                lhs.0, lhs.1, rhs.0, rhs.1
            ),
            SaError::InvalidDimension { op, what } => {
                write!(f, "invalid dimension in {op}: {what}")
            }
            SaError::IndexOutOfBounds { op, index, bound } => {
                write!(f, "index {index} out of bounds (< {bound}) in {op}")
            }
            SaError::NonFinite { stage, head, count } => match head {
                Some(h) => write!(f, "{count} non-finite value(s) at {stage} (head {h})"),
                None => write!(f, "{count} non-finite value(s) at {stage}"),
            },
            SaError::DegenerateMask { stage, what } => {
                write!(f, "degenerate mask at {stage}: {what}")
            }
            SaError::AlphaUnsatisfied { covered, alpha, head } => match head {
                Some(h) => write!(
                    f,
                    "CRA {covered} below alpha {alpha} beyond tolerance (head {h})"
                ),
                None => write!(f, "CRA {covered} below alpha {alpha} beyond tolerance"),
            },
            SaError::WorkerPanic { site, message } => {
                write!(f, "worker panicked in {site}: {message}")
            }
            SaError::Cancelled { site, completed, total } => {
                write!(f, "cancelled at {site} after {completed}/{total} chunks")
            }
            SaError::DeadlineExceeded { site, completed, total } => {
                write!(f, "deadline exceeded at {site} after {completed}/{total} chunks")
            }
            SaError::Overloaded { inflight, max_inflight } => {
                write!(f, "overloaded: {inflight} requests in flight (limit {max_inflight})")
            }
            SaError::BudgetExceeded { required_bytes, budget_bytes } => {
                write!(
                    f,
                    "memory budget exceeded: {required_bytes} bytes required, {budget_bytes} budgeted"
                )
            }
            SaError::CorruptCheckpoint { expected, actual } => {
                write!(
                    f,
                    "corrupt checkpoint: checksum {actual:#018x} != recorded {expected:#018x}"
                )
            }
            SaError::QualityFloor { tenant, what } => {
                write!(f, "quality floor for tenant {tenant}: {what}")
            }
        }
    }
}

impl std::error::Error for SaError {}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn display_shape_mismatch() {
        let e = TensorError::ShapeMismatch {
            op: "matmul",
            lhs: (2, 3),
            rhs: (4, 5),
        };
        assert_eq!(
            e.to_string(),
            "shape mismatch in matmul: lhs is 2x3, rhs is 4x5"
        );
    }

    #[test]
    fn display_invalid_dimension() {
        let e = TensorError::InvalidDimension {
            op: "softmax",
            what: "zero columns".to_string(),
        };
        assert!(e.to_string().contains("softmax"));
        assert!(e.to_string().contains("zero columns"));
    }

    #[test]
    fn display_index_oob() {
        let e = TensorError::IndexOutOfBounds {
            op: "row",
            index: 9,
            bound: 4,
        };
        assert_eq!(e.to_string(), "index 9 out of bounds (< 4) in row");
    }

    #[test]
    fn display_health_variants() {
        let e = SaError::NonFinite {
            stage: "sampled_scores",
            head: Some(3),
            count: 7,
        };
        assert_eq!(e.to_string(), "7 non-finite value(s) at sampled_scores (head 3)");
        let e = SaError::DegenerateMask {
            stage: "mask_merge",
            what: "zero live entries".to_string(),
        };
        assert!(e.to_string().contains("mask_merge"));
        let e = SaError::AlphaUnsatisfied {
            covered: 0.5,
            alpha: 0.95,
            head: None,
        };
        assert!(e.to_string().contains("0.95"));
        let e = SaError::WorkerPanic {
            site: "flash_attention",
            message: "boom".to_string(),
        };
        assert!(e.to_string().contains("flash_attention"));
        assert!(e.to_string().contains("boom"));
    }

    #[test]
    fn health_classification() {
        assert!(!SaError::InvalidDimension {
            op: "x",
            what: String::new()
        }
        .is_health_error());
        assert!(SaError::NonFinite {
            stage: "s",
            head: None,
            count: 1
        }
        .is_health_error());
        assert!(SaError::WorkerPanic {
            site: "s",
            message: String::new()
        }
        .is_health_error());
    }

    #[test]
    fn display_serving_variants() {
        let e = SaError::Cancelled {
            site: "prefill_chunked",
            completed: 3,
            total: 8,
        };
        assert_eq!(e.to_string(), "cancelled at prefill_chunked after 3/8 chunks");
        let e = SaError::DeadlineExceeded {
            site: "layer_heads",
            completed: 0,
            total: 4,
        };
        assert!(e.to_string().contains("deadline exceeded"));
        assert!(e.to_string().contains("0/4"));
        let e = SaError::Overloaded {
            inflight: 9,
            max_inflight: 8,
        };
        assert!(e.to_string().contains("9"));
        assert!(e.to_string().contains("limit 8"));
        let e = SaError::BudgetExceeded {
            required_bytes: 1024,
            budget_bytes: 512,
        };
        assert!(e.to_string().contains("1024"));
        assert!(e.to_string().contains("512"));
    }

    #[test]
    fn serving_variants_are_not_health_errors() {
        // A cancellation or rejection must propagate — the dense-fallback
        // policy only applies to numerical-health failures.
        let cancelled = SaError::Cancelled {
            site: "s",
            completed: 1,
            total: 2,
        };
        let deadline = SaError::DeadlineExceeded {
            site: "s",
            completed: 1,
            total: 2,
        };
        let overloaded = SaError::Overloaded {
            inflight: 1,
            max_inflight: 1,
        };
        let budget = SaError::BudgetExceeded {
            required_bytes: 2,
            budget_bytes: 1,
        };
        for e in [&cancelled, &deadline, &overloaded, &budget] {
            assert!(!e.is_health_error(), "{e}");
        }
        assert!(cancelled.is_cancellation());
        assert!(deadline.is_cancellation());
        assert!(!overloaded.is_cancellation());
        assert!(!SaError::WorkerPanic {
            site: "s",
            message: String::new()
        }
        .is_cancellation());
    }

    #[test]
    fn corrupt_checkpoint_is_typed_and_never_degraded_away() {
        let e = SaError::CorruptCheckpoint {
            expected: 0xAB,
            actual: 0xCD,
        };
        assert!(e.to_string().contains("corrupt checkpoint"), "{e}");
        assert!(e.to_string().contains("0x00000000000000cd"), "{e}");
        // Corruption is neither a health error (no dense fallback may
        // absorb it), nor a cancellation, nor an admission rejection:
        // it always propagates to the restore caller, which falls back
        // to rebuilding the session from scratch.
        assert!(!e.is_health_error());
        assert!(!e.is_cancellation());
    }

    #[test]
    fn quality_floor_is_a_rejection() {
        let e = SaError::QualityFloor {
            tenant: 2,
            what: "WindowOnly below floor Tight".to_string(),
        };
        assert!(e.to_string().contains("quality floor"), "{e}");
        assert!(e.to_string().contains("tenant 2"), "{e}");
        // A floor shed is an admission-style rejection: the request
        // never ran, and it must not be absorbed into a dense fallback
        // or mistaken for a cancellation.
        assert!(!e.is_health_error());
        assert!(!e.is_cancellation());
    }

    #[test]
    fn error_is_send_sync() {
        fn assert_send_sync<T: Send + Sync>() {}
        assert_send_sync::<TensorError>();
    }
}
