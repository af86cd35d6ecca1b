//! Adapter exposing `sa-core`'s SampleAttention through the common
//! [`AttentionMethod`] interface used by the evaluation harnesses.

use sa_core::{
    SampleAttention, SampleAttentionConfig, SampleAttentionError, SampleAttentionOutput,
};
use sa_kernels::PreparedKeys;
use sa_tensor::{Matrix, TensorError};

use crate::{AttentionMethod, MethodOutput};

/// SampleAttention as an [`AttentionMethod`].
#[derive(Debug, Clone)]
pub struct SampleAttentionMethod {
    inner: SampleAttention,
    label: String,
}

impl SampleAttentionMethod {
    /// Wraps a configured SampleAttention; the label carries the α value
    /// the paper's tables show (e.g. `SampleAttention(α=0.95)`).
    pub fn new(config: SampleAttentionConfig) -> Self {
        let label = format!("SampleAttention(alpha={:.2})", config.cra_threshold);
        SampleAttentionMethod {
            inner: SampleAttention::new(config),
            label,
        }
    }

    /// The paper's default operating point.
    pub fn paper_default() -> Self {
        Self::new(SampleAttentionConfig::paper_default())
    }

    /// Access to the wrapped operator.
    pub fn inner(&self) -> &SampleAttention {
        &self.inner
    }
}

impl AttentionMethod for SampleAttentionMethod {
    fn name(&self) -> &str {
        &self.label
    }

    fn forward(&self, q: &Matrix, k: &Matrix, v: &Matrix) -> Result<MethodOutput, TensorError> {
        method_output(self.inner.forward(q, k, v))
    }

    fn forward_head(
        &self,
        _layer: usize,
        _head: usize,
        q: &Matrix,
        keys: PreparedKeys<'_>,
        v: &Matrix,
    ) -> Result<MethodOutput, TensorError> {
        method_output(self.inner.forward_prepared(q, keys, v))
    }
}

fn method_output(
    result: Result<SampleAttentionOutput, SampleAttentionError>,
) -> Result<MethodOutput, TensorError> {
    let out = result.map_err(|e| match e {
        SampleAttentionError::Tensor(t) => t,
        other => TensorError::InvalidDimension {
            op: "SampleAttentionMethod::forward",
            what: other.to_string(),
        },
    })?;
    Ok(MethodOutput {
        output: out.output,
        cost: out.stats.total_cost(),
        density: out.stats.mask_density,
        alpha_satisfied: out.stats.alpha_satisfied,
        fell_back: out.stats.fell_back(),
        fallback_reason: out.stats.fallback_reason,
    })
}

#[cfg(test)]
mod tests {
    use super::*;
    use sa_tensor::DeterministicRng;

    #[test]
    fn adapter_forwards_and_labels() {
        let mut rng = DeterministicRng::new(1);
        let q = rng.normal_matrix(64, 8, 1.0);
        let k = rng.normal_matrix(64, 8, 1.0);
        let v = rng.normal_matrix(64, 8, 1.0);
        let m = SampleAttentionMethod::paper_default();
        assert_eq!(m.name(), "SampleAttention(alpha=0.95)");
        let out = m.forward(&q, &k, &v).unwrap();
        assert_eq!(out.output.shape(), (64, 8));
        assert!(out.density > 0.0);
        assert!(out.cost.flops > 0);
    }
}
