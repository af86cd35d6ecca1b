//! Dense causal attention (the gold baseline).

use sa_kernels::{
    flash_attention, flash_attention_prepared, AttentionOutput, BlockedAttentionOutput, EngineJob,
    FlashParams, KeyPanels,
};
use sa_tensor::{Matrix, TensorError};

use crate::{AttentionMethod, GroupKeys, HeadPlan, MethodOutput, PlannedHead};

/// Full attention via the flash kernel — the paper's accuracy gold
/// standard and the latency baseline (FlashAttention2).
#[derive(Debug, Clone, Default)]
pub struct FullAttention;

impl FullAttention {
    /// Creates the baseline with default tile sizes.
    pub fn new() -> Self {
        FullAttention
    }

    /// One decode step for the query heads that share `keys`: each row of
    /// `q_block` is one head's query at the newest position and sees every
    /// cached key. Each row is folded exactly as the one-row head
    /// [`plan_head`](AttentionMethod::plan_head) plans for it, so the
    /// block is bit-identical to running the heads one by one and reads K
    /// and V once for the group.
    ///
    /// # Errors
    ///
    /// Returns a [`TensorError`] on shape mismatches between `q_block`,
    /// the keys, and `v`.
    pub fn decode_block(
        &self,
        q_block: &Matrix,
        keys: &KeyPanels,
        v: &Matrix,
    ) -> Result<MethodOutput, TensorError> {
        // Not causal: the newest position is past every cached key.
        flash_attention_prepared(q_block, keys, v, false, FlashParams::default()).map(dense_output)
    }
}

impl AttentionMethod for FullAttention {
    fn name(&self) -> &str {
        "FullAttention"
    }

    fn forward(&self, q: &Matrix, k: &Matrix, v: &Matrix) -> Result<MethodOutput, TensorError> {
        flash_attention(q, k, v, true, FlashParams::default()).map(dense_output)
    }

    fn plan_head<'a>(
        &'a self,
        _layer: usize,
        _head: usize,
        q: Matrix,
        keys: &'a GroupKeys<'_>,
        v: &'a Matrix,
    ) -> Result<HeadPlan<'a>, TensorError> {
        Ok(HeadPlan::Engine(Box::new(DenseHead { q, keys: keys.panels(), v })))
    }
}

/// A causal dense head waiting on its engine run.
struct DenseHead<'a> {
    q: Matrix,
    keys: &'a KeyPanels,
    v: &'a Matrix,
}

impl PlannedHead for DenseHead<'_> {
    fn job(&self) -> EngineJob<'_> {
        EngineJob::dense(&self.q, self.keys, self.v, true, FlashParams::default())
    }

    fn finish(
        self: Box<Self>,
        run: Result<BlockedAttentionOutput, TensorError>,
    ) -> Result<MethodOutput, TensorError> {
        run.map(|out| {
            dense_output(AttentionOutput {
                output: out.output,
                cost: out.cost,
            })
        })
    }
}

fn dense_output(out: AttentionOutput) -> MethodOutput {
    MethodOutput {
        output: out.output,
        cost: out.cost,
        density: 1.0,
        alpha_satisfied: true,
        fell_back: false,
        fallback_reason: sa_core::FallbackReason::None,
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use sa_kernels::full_attention;
    use sa_tensor::{max_abs_diff, DeterministicRng};

    #[test]
    fn matches_reference() {
        let mut rng = DeterministicRng::new(1);
        let q = rng.normal_matrix(32, 8, 1.0);
        let k = rng.normal_matrix(32, 8, 1.0);
        let v = rng.normal_matrix(32, 8, 1.0);
        let m = FullAttention::new();
        let got = m.forward(&q, &k, &v).unwrap();
        let want = full_attention(&q, &k, &v, true).unwrap();
        assert!(max_abs_diff(got.output.as_slice(), want.output.as_slice()) < 1e-4);
        assert_eq!(got.density, 1.0);
        assert_eq!(m.name(), "FullAttention");
    }
}
