//! The common interface every attention method implements.

use sa_kernels::{
    sparse_flash_attention_prepared, CostReport, KeyPanels, PreparedKeys, StructuredMask,
};
use sa_tensor::{Matrix, TensorError};

/// Output of one attention-method invocation on one head.
#[derive(Debug, Clone)]
pub struct MethodOutput {
    /// The `(S_q, d_v)` attention output.
    pub output: Matrix,
    /// Exact algorithmic cost (mask discovery + sparse compute).
    pub cost: CostReport,
    /// Fraction of the causal score triangle actually computed
    /// (1.0 for full attention).
    pub density: f64,
    /// Whether the method reached its configured coverage target.
    /// Baselines with no coverage notion report `true`; SampleAttention
    /// reports stage-2's `alpha_satisfied`.
    pub alpha_satisfied: bool,
    /// Whether the head transparently degraded to a dense fallback
    /// (SampleAttention's [`HealthPolicy::FallbackDense`] path; always
    /// `false` for the fixed-pattern baselines).
    ///
    /// [`HealthPolicy::FallbackDense`]: sa_core::HealthPolicy::FallbackDense
    pub fell_back: bool,
    /// Why the head degraded ([`FallbackReason::None`] when it did not;
    /// always `None` for the fixed-pattern baselines).
    ///
    /// [`FallbackReason::None`]: sa_core::FallbackReason::None
    pub fallback_reason: sa_core::FallbackReason,
}

/// A prefill attention method: maps one head's Q/K/V to an output.
///
/// Implementations must be deterministic for a fixed construction (any
/// randomness — BigBird's random columns, LSH hyperplanes — is drawn at
/// construction time from a caller-provided seed), so that accuracy
/// comparisons are reproducible.
///
/// The trait is object-safe: the evaluation harnesses iterate over
/// `Vec<Box<dyn AttentionMethod>>`.
///
/// `Send + Sync` is a supertrait so the model layers can fan one method
/// out across per-head worker threads (all state is fixed at
/// construction, so implementations are shared-reference safe by
/// design).
pub trait AttentionMethod: Send + Sync {
    /// Human-readable method name as used in the paper's tables.
    fn name(&self) -> &str;

    /// Computes attention for one head.
    ///
    /// # Errors
    ///
    /// Returns a [`TensorError`] on shape mismatches between `q`, `k`,
    /// and `v`.
    fn forward(&self, q: &Matrix, k: &Matrix, v: &Matrix) -> Result<MethodOutput, TensorError>;

    /// Computes attention for the head identified by `(layer, head)`, on
    /// keys the caller has already laid out for the engine.
    ///
    /// The model layers call this entry point: they hold each KV head's
    /// key panels across the query heads of its group and across prefill
    /// chunks, and wrappers that route individual heads differently — the
    /// serving layer's per-head quality quarantine — override it. The
    /// default implementation ignores the identity and the panels and
    /// delegates to [`forward`](Self::forward) on `keys.rows()`, so
    /// methods that never run the engine behave identically on both
    /// entry points.
    ///
    /// # Errors
    ///
    /// Returns a [`TensorError`] on shape mismatches between `q`, the
    /// keys, and `v`.
    fn forward_head(
        &self,
        layer: usize,
        head: usize,
        q: &Matrix,
        keys: PreparedKeys<'_>,
        v: &Matrix,
    ) -> Result<MethodOutput, TensorError> {
        let _ = (layer, head);
        self.forward(q, keys.rows(), v)
    }
}

impl MethodOutput {
    /// A fixed-pattern baseline's whole forward: the engine under `mask`,
    /// with no coverage notion and no fallback.
    pub(crate) fn structured(
        q: &Matrix,
        keys: PreparedKeys<'_>,
        v: &Matrix,
        mask: &StructuredMask,
    ) -> Result<Self, TensorError> {
        let out = sparse_flash_attention_prepared(q, keys, v, mask)?;
        Ok(MethodOutput {
            output: out.output,
            cost: out.cost,
            density: mask.density(),
            alpha_satisfied: true,
            fell_back: false,
            fallback_reason: sa_core::FallbackReason::None,
        })
    }
}

/// `forward` for a method whose body is its `forward_head`: builds the
/// key panels for this one call.
pub(crate) fn forward_on_built_panels(
    method: &dyn AttentionMethod,
    q: &Matrix,
    k: &Matrix,
    v: &Matrix,
) -> Result<MethodOutput, TensorError> {
    let panels = KeyPanels::from_rows(k);
    method.forward_head(0, 0, q, PreparedKeys::new(k, &panels), v)
}

#[cfg(test)]
mod tests {
    use super::*;

    struct Dummy;
    impl AttentionMethod for Dummy {
        fn name(&self) -> &str {
            "dummy"
        }
        fn forward(&self, q: &Matrix, _: &Matrix, _: &Matrix) -> Result<MethodOutput, TensorError> {
            Ok(MethodOutput {
                output: q.clone(),
                cost: CostReport::new(),
                density: 0.0,
                alpha_satisfied: true,
                fell_back: false,
                fallback_reason: sa_core::FallbackReason::None,
            })
        }
    }

    #[test]
    fn trait_is_object_safe() {
        let methods: Vec<Box<dyn AttentionMethod>> = vec![Box::new(Dummy)];
        let q = Matrix::zeros(2, 2);
        let out = methods[0].forward(&q, &q, &q).unwrap();
        assert_eq!(out.output.shape(), (2, 2));
        assert_eq!(methods[0].name(), "dummy");
        // The head entry point defaults to `forward` on the key rows.
        let panels = sa_kernels::KeyPanels::from_rows(&q);
        let keys = PreparedKeys::new(&q, &panels);
        let out = methods[0].forward_head(1, 3, &q, keys, &q).unwrap();
        assert_eq!(out.output.shape(), (2, 2));
    }
}
