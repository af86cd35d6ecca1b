//! The common interface every attention method implements.

use sa_kernels::{
    run_engine, BlockedAttentionOutput, CostReport, EngineJob, KeyPanels, StructuredMask,
};
use sa_tensor::{trace, Matrix, TensorError};
use std::sync::OnceLock;

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

    /// The mask of a fixed-pattern method — one whose mask depends on the
    /// shapes alone, such as a window or BigBird's blocks — for `s_q`
    /// queries over `s_k` keys. Such a method implements this and
    /// [`forward`](Self::forward), and the default
    /// [`plan_head`](Self::plan_head) runs the engine under the mask.
    /// `None`, the default, for every other method.
    fn fixed_mask(&self, s_q: usize, s_k: usize) -> Option<StructuredMask> {
        let _ = (s_q, s_k);
        None
    }

    /// Plans the head identified by `(layer, head)` up to its engine run,
    /// on keys the caller has already laid out for the engine.
    ///
    /// The model layers run every head this way: they hold each KV head's
    /// key panels across the query heads of its group and across prefill
    /// chunks, plan every head of a KV group, and run the
    /// [`HeadPlan::Engine`] jobs through [`finish_heads`] as one balanced
    /// call. Wrappers that route individual heads differently — the
    /// serving layer's per-head quality quarantine — override this and
    /// nothing else.
    ///
    /// The default plans a [`fixed_mask`](Self::fixed_mask) method's
    /// engine run under its mask; for any other method it ignores the
    /// identity and returns [`HeadPlan::Done`] of
    /// [`forward`](Self::forward) on [`GroupKeys::rows`], read back out
    /// of the panels once per KV group. A method that ends in the engine
    /// without a fixed mask overrides it. The plan owns `q`.
    ///
    /// # Errors
    ///
    /// Returns a [`TensorError`] on shape mismatches between `q`, the
    /// keys, and `v`.
    fn plan_head<'a>(
        &'a self,
        layer: usize,
        head: usize,
        q: Matrix,
        keys: &'a GroupKeys<'_>,
        v: &'a Matrix,
    ) -> Result<HeadPlan<'a>, TensorError> {
        let _ = (layer, head);
        match self.fixed_mask(q.rows(), keys.panels().len()) {
            Some(mask) => Ok(HeadPlan::masked(q, keys.panels(), v, mask)),
            None => self.forward(&q, keys.rows(), v).map(HeadPlan::Done),
        }
    }
}

/// One KV head's keys as the query heads of its group plan on them: the
/// engine's panels, the one copy of K, and the rows a method that reads
/// rows ([`AttentionMethod::forward`]) needs, read back out of the panels
/// ([`KeyPanels::to_rows`], the same bits) at most once, on first ask,
/// and dropped with the group.
pub struct GroupKeys<'p> {
    panels: &'p KeyPanels,
    rows: OnceLock<Matrix>,
}

impl<'p> GroupKeys<'p> {
    /// The group's keys, no rows read out yet.
    pub fn new(panels: &'p KeyPanels) -> Self {
        GroupKeys { panels, rows: OnceLock::new() }
    }

    /// The key panels the engine reads.
    pub fn panels(&self) -> &'p KeyPanels {
        self.panels
    }

    /// Every key as a row, `(len, dim)`: built on the first call, shared
    /// by every later one.
    pub fn rows(&self) -> &Matrix {
        self.rows.get_or_init(|| self.panels.to_rows())
    }
}

/// One head's forward, split where its engine pass begins (see
/// [`AttentionMethod::plan_head`]).
pub enum HeadPlan<'a> {
    /// The method finished the head by itself.
    Done(MethodOutput),
    /// The head waits on one engine run.
    Engine(Box<dyn PlannedHead + 'a>),
}

/// A head planned up to its engine run.
pub trait PlannedHead: Send {
    /// The engine run the head needs.
    fn job(&self) -> EngineJob<'_>;

    /// The head's output, given the result of [`job`](Self::job)'s run.
    ///
    /// # Errors
    ///
    /// As [`AttentionMethod::plan_head`].
    fn finish(
        self: Box<Self>,
        run: Result<BlockedAttentionOutput, TensorError>,
    ) -> Result<MethodOutput, TensorError>;
}

/// Finishes every head of `plans`, in order: the engine jobs of all the
/// [`HeadPlan::Engine`] heads run together as one
/// [`sa_kernels::run_engine`] call, cut into live-pair-balanced units,
/// so heads of very different cost share the pool evenly. Each head gets
/// its own job's result, so a failure of one job — a panic in one of its
/// units — reaches that head alone.
///
/// When a job attends under a mask, the call is traced as the
/// `core/sparse_kernel` stage, the span SampleAttention's own forward
/// records around the same kernel.
pub fn finish_heads(plans: Vec<HeadPlan<'_>>) -> Vec<Result<MethodOutput, TensorError>> {
    let jobs: Vec<EngineJob<'_>> = plans
        .iter()
        .filter_map(|plan| match plan {
            HeadPlan::Engine(head) => Some(head.job()),
            HeadPlan::Done(_) => None,
        })
        .collect();
    let span = jobs
        .iter()
        .any(EngineJob::is_sparse)
        .then(|| trace::span_in("core", "sparse_kernel"));
    let mut runs = run_engine(&jobs).into_iter();
    drop(span);
    drop(jobs);
    plans
        .into_iter()
        .map(|plan| match plan {
            HeadPlan::Done(out) => Ok(out),
            HeadPlan::Engine(head) => head.finish(runs.next().expect("one run per job")),
        })
        .collect()
}

impl<'a> HeadPlan<'a> {
    /// A fixed-pattern method's plan: the engine under `mask`, with no
    /// coverage notion and no fallback.
    fn masked(q: Matrix, keys: &'a KeyPanels, v: &'a Matrix, mask: StructuredMask) -> Self {
        HeadPlan::Engine(Box::new(MaskedHead { q, keys, v, mask }))
    }

    /// The plan asked only for its query rows `row..`: an engine head
    /// runs its own job cut to those rows ([`EngineJob::from_row`]), so
    /// each has the bits the whole job gives it, and the head finishes
    /// as it would on a whole run — its density, coverage and fallback
    /// fields come from its plan, its cost from what ran. A head the
    /// method finished by itself keeps every row.
    pub fn from_row(self, row: usize) -> Self {
        match self {
            HeadPlan::Engine(head) if row > 0 => HeadPlan::Engine(Box::new(RowsFrom { head, row })),
            plan => plan,
        }
    }
}

/// A planned head whose job runs on its query rows from `row` on.
struct RowsFrom<'a> {
    head: Box<dyn PlannedHead + 'a>,
    row: usize,
}

impl PlannedHead for RowsFrom<'_> {
    fn job(&self) -> EngineJob<'_> {
        self.head.job().from_row(self.row)
    }

    fn finish(
        self: Box<Self>,
        run: Result<BlockedAttentionOutput, TensorError>,
    ) -> Result<MethodOutput, TensorError> {
        self.head.finish(run)
    }
}

/// A fixed-pattern method's head, its mask built.
struct MaskedHead<'a> {
    q: Matrix,
    keys: &'a KeyPanels,
    v: &'a Matrix,
    mask: StructuredMask,
}

impl PlannedHead for MaskedHead<'_> {
    fn job(&self) -> EngineJob<'_> {
        EngineJob::sparse(&self.q, self.keys, self.v, &self.mask)
    }

    fn finish(
        self: Box<Self>,
        run: Result<BlockedAttentionOutput, TensorError>,
    ) -> Result<MethodOutput, TensorError> {
        let out = run?;
        Ok(MethodOutput {
            output: out.output,
            cost: out.cost,
            density: self.mask.density(),
            alpha_satisfied: true,
            fell_back: false,
            fallback_reason: sa_core::FallbackReason::None,
        })
    }
}

/// `forward` for a method whose head plan ends in the engine: builds the
/// key panels for this one call and finishes the plan as a batch of one.
pub(crate) fn forward_alone(
    method: &dyn AttentionMethod,
    q: &Matrix,
    k: &Matrix,
    v: &Matrix,
) -> Result<MethodOutput, TensorError> {
    let panels = KeyPanels::from_rows(k);
    let keys = GroupKeys::new(&panels);
    let plan = method.plan_head(0, 0, q.clone(), &keys, v)?;
    finish_heads(vec![plan]).pop().expect("one output per plan")
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
        // The plan defaults to `forward` on the key rows, done.
        let panels = sa_kernels::KeyPanels::from_rows(&q);
        let keys = GroupKeys::new(&panels);
        let plan = methods[0].plan_head(1, 3, q.clone(), &keys, &q).unwrap();
        assert!(matches!(plan, HeadPlan::Done(ref out) if out.output == q));
        // The rows it read are the group's one copy, shared by later asks.
        assert!(std::ptr::eq(keys.rows(), keys.rows()));
        assert_eq!(keys.rows(), &q);
        let finished = finish_heads(vec![plan]);
        assert_eq!(finished[0].as_ref().unwrap().output, q);
    }

    /// One head's Q/K/V with a sink at key 0 and a stripe at key 200, so
    /// SampleAttention's mask gathers stripe columns; 300 rows leave a
    /// partial engine block at the end.
    fn striped_qkv() -> (Matrix, Matrix, Matrix) {
        let (s, d) = (300, 16);
        let mut rng = sa_tensor::DeterministicRng::new(0x57121);
        let mut k = rng.normal_matrix(s, d, 0.3);
        for row in [0, 200] {
            for j in 0..d {
                k.set(row, j, k.get(row, j) + 4.0);
            }
        }
        let q = Matrix::from_fn(s, d, |_, _| 0.5 + 0.1 * rng.normal());
        let v = rng.normal_matrix(s, d, 1.0);
        (q, k, v)
    }

    /// Everything a head's output carries, floats as bits.
    fn bits(out: &MethodOutput) -> impl PartialEq + std::fmt::Debug {
        let output: Vec<u32> = out.output.as_slice().iter().map(|x| x.to_bits()).collect();
        (
            output,
            out.cost,
            out.density.to_bits(),
            out.alpha_satisfied,
            out.fell_back,
            out.fallback_reason,
        )
    }

    /// The trait's two entry points are one computation: `forward` on
    /// plain matrices equals the head's plan finished alone, bit for bit,
    /// for the methods that end in the engine and for one that never
    /// runs it.
    #[test]
    fn forward_equals_its_plan_finished_alone() {
        let (q, k, v) = striped_qkv();
        let sample = crate::SampleAttentionMethod::paper_default();
        let discovered = sample.inner().discover_mask(&q, &k).unwrap();
        assert!(
            !discovered.mask.extra_columns().is_empty(),
            "no stripe in the mask: the test proves nothing"
        );
        let methods: Vec<Box<dyn AttentionMethod>> = vec![
            Box::new(crate::FullAttention::new()),
            Box::new(sample),
            Box::new(crate::WindowOnly::new(0.1).unwrap()),
            Box::new(crate::StreamingLlm::paper_config()),
            Box::new(crate::BigBird::new(0.08, 0.08, 0.05, 3).unwrap()),
            Box::new(crate::HashSparse::paper_config(5)),
        ];
        let panels = KeyPanels::from_rows(&k);
        let keys = GroupKeys::new(&panels);
        for method in &methods {
            for threads in [1, 2] {
                let label = format!("{} at {threads} threads", method.name());
                let (forward, planned) = sa_tensor::pool::with_threads(threads, || {
                    let forward = method.forward(&q, &k, &v).unwrap();
                    let plan = method.plan_head(0, 0, q.clone(), &keys, &v).unwrap();
                    let planned = finish_heads(vec![plan]).pop().unwrap().unwrap();
                    (forward, planned)
                });
                assert_eq!(bits(&forward), bits(&planned), "{label}");
            }
        }
    }
}
