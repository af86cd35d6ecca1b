//! Adapter exposing `sa-core`'s SampleAttention through the common
//! [`AttentionMethod`] interface used by the evaluation harnesses.

use sa_core::{
    DiscoveredMask, SampleAttention, SampleAttentionConfig, SampleAttentionError,
    SampleAttentionOutput, SamplePlan,
};
use sa_kernels::{BlockedAttentionOutput, EngineJob, KeyPanels};
use sa_tensor::{Matrix, TensorError};

use crate::{AttentionMethod, GroupKeys, HeadPlan, MethodOutput, PlannedHead};

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

    fn plan_head<'a>(
        &'a self,
        _layer: usize,
        _head: usize,
        q: Matrix,
        keys: &'a GroupKeys<'_>,
        v: &'a Matrix,
    ) -> Result<HeadPlan<'a>, TensorError> {
        let keys = keys.panels();
        match self.inner.plan_prepared(&q, keys, v) {
            Ok(SamplePlan::Engine(discovered)) => Ok(HeadPlan::Engine(Box::new(SampledHead {
                op: &self.inner,
                q,
                keys,
                v,
                discovered,
            }))),
            Ok(SamplePlan::Done(out)) => method_output(Ok(out)).map(HeadPlan::Done),
            Err(e) => method_output(Err(e)).map(HeadPlan::Done),
        }
    }
}

/// A head whose mask SampleAttention has discovered.
struct SampledHead<'a> {
    op: &'a SampleAttention,
    q: Matrix,
    keys: &'a KeyPanels,
    v: &'a Matrix,
    discovered: DiscoveredMask,
}

impl PlannedHead for SampledHead<'_> {
    fn job(&self) -> EngineJob<'_> {
        EngineJob::sparse(&self.q, self.keys, self.v, &self.discovered.mask)
    }

    fn finish(
        self: Box<Self>,
        run: Result<BlockedAttentionOutput, TensorError>,
    ) -> Result<MethodOutput, TensorError> {
        let SampledHead {
            op,
            q,
            keys,
            v,
            discovered,
        } = *self;
        method_output(op.finish_prepared(&q, keys, v, discovered, run))
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

    /// Each planned head is finished with its own job's result, so a
    /// run that failed degrades its head alone.
    #[test]
    fn a_failed_engine_run_degrades_its_head_alone() {
        let mut rng = DeterministicRng::new(2);
        let q = rng.normal_matrix(256, 8, 1.0);
        let k = rng.normal_matrix(256, 8, 1.0);
        let v = rng.normal_matrix(256, 8, 1.0);
        let panels = sa_kernels::KeyPanels::from_rows(&k);
        let keys = crate::GroupKeys::new(&panels);
        let m = SampleAttentionMethod::paper_default();
        let plan = || match m.plan_head(0, 0, q.clone(), &keys, &v).unwrap() {
            HeadPlan::Engine(head) => head,
            HeadPlan::Done(_) => panic!("a healthy head plans an engine run"),
        };
        let (healthy, failing) = (plan(), plan());
        let run = sa_kernels::run_engine(&[healthy.job()]).pop().unwrap();
        let healthy = healthy.finish(run).unwrap();
        let panic = TensorError::WorkerPanic {
            site: "sparse_flash_attention",
            message: "a unit of this head panicked".to_string(),
        };
        let degraded = failing.finish(Err(panic)).unwrap();

        let alone = m.forward(&q, &k, &v).unwrap();
        assert_eq!(healthy.output, alone.output);
        assert!(!healthy.fell_back);
        assert!(degraded.fell_back);
        assert_eq!(degraded.fallback_reason, sa_core::FallbackReason::WorkerPanic);
        assert_eq!(degraded.density, 1.0);
    }
}
