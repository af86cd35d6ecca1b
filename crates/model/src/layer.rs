//! One transformer layer: GQA attention (pluggable method) + SwiGLU MLP
//! on a residual stream.

use std::ops::Range;

use sa_baselines::{finish_heads, AttentionMethod, FullAttention, GroupKeys};
use sa_kernels::gqa::GqaLayout;
use sa_kernels::rope::{RopeConfig, RopeTable};
use sa_kernels::{CostReport, KeyPanels};
use sa_tensor::{matmul_packed_parts, pool, DeterministicRng, Matrix, TensorError, GEMM_BLOCK};

use crate::{GroupProjections, HeadArchetype, LayerKvCache, ModelConfig, RmsNorm, SwigluMlp};

/// Per-head diagnostics from one prefill forward.
#[derive(Debug, Clone)]
pub struct HeadReport {
    /// Layer index.
    pub layer: usize,
    /// Query-head index within the layer.
    pub head: usize,
    /// The head's archetype mix.
    pub archetype: HeadArchetype,
    /// Live fraction of the causal triangle the method computed.
    pub density: f64,
    /// Whether the method reached its coverage target on this head
    /// (stage-2 `alpha_satisfied` for SampleAttention; `true` for
    /// baselines with no coverage notion).
    pub alpha_satisfied: bool,
    /// Whether this head transparently degraded to a dense fallback.
    pub fell_back: bool,
    /// Why this head degraded ([`FallbackReason::None`] when it did not).
    ///
    /// [`FallbackReason::None`]: sa_core::FallbackReason::None
    pub fallback_reason: sa_core::FallbackReason,
    /// Attention cost for this head (discovery + sparse compute).
    pub cost: CostReport,
}

/// Result of one layer's prefill forward.
#[derive(Debug, Clone)]
pub struct LayerForwardResult {
    /// Updated residual stream `(S, hidden_dim)`.
    pub hidden: Matrix,
    /// Content-space output of each query head: `(S, content_dim)`, or
    /// only its newest row `(1, content_dim)` for a head the call was
    /// asked not to keep whole.
    pub head_contents: Vec<Matrix>,
    /// Per-head diagnostics.
    pub head_reports: Vec<HeadReport>,
    /// Total cost of the layer (projections + attention + MLP).
    pub cost: CostReport,
}

/// One synthetic transformer layer.
#[derive(Debug)]
pub struct AttentionLayer {
    layer_index: usize,
    archetypes: Vec<HeadArchetype>,
    groups: Vec<GroupProjections>,
    gqa: GqaLayout,
    rope: RopeConfig,
    head_dim: usize,
    rotary_dims: usize,
    residual_gain: f32,
    pre_mlp_norm: RmsNorm,
    mlp: SwigluMlp,
    content_dim: usize,
}

impl AttentionLayer {
    /// Builds layer `layer_index` of a model, drawing weights from `rng`.
    ///
    /// # Errors
    ///
    /// Returns [`TensorError::InvalidDimension`] if the config fails
    /// validation, and [`TensorError::NonFinite`] if it yields a
    /// non-finite weight.
    pub fn generate(
        config: &ModelConfig,
        layer_index: usize,
        rng: &mut DeterministicRng,
    ) -> Result<Self, TensorError> {
        config.validate()?;
        let gqa = GqaLayout::new(config.num_heads, config.num_kv_heads)?;
        let archetypes: Vec<HeadArchetype> = (0..config.num_heads)
            .map(|h| HeadArchetype::from_weights(config.archetype_weights(layer_index, h)))
            .collect();
        let group_size = gqa.group_size();
        let groups = (0..config.num_kv_heads)
            .map(|g| {
                let slice = &archetypes[g * group_size..(g + 1) * group_size];
                GroupProjections::generate(config, slice, rng)
            })
            .collect::<Result<_, _>>()?;
        let hidden = config.hidden_dim();
        Ok(AttentionLayer {
            layer_index,
            archetypes,
            groups,
            gqa,
            rope: config.preset.rope(),
            head_dim: config.head_dim,
            rotary_dims: config.head_dim / 2,
            residual_gain: config.residual_gain,
            pre_mlp_norm: RmsNorm::jittered(hidden, rng),
            mlp: SwigluMlp::generate(hidden, 2 * hidden, rng)?,
            content_dim: config.content_dim,
        })
    }

    /// Archetype of query head `head`.
    ///
    /// # Panics
    ///
    /// Panics if `head` is out of range.
    pub fn archetype(&self, head: usize) -> HeadArchetype {
        self.archetypes[head]
    }

    /// Number of query heads.
    pub fn num_heads(&self) -> usize {
        self.archetypes.len()
    }

    /// Projects the layer input into one head's RoPE-applied Q/K and V —
    /// the tensors an attention method sees, K and V as a prompt's chunk
    /// caches them. Exposed for the sparsity analyses (Figure 2, Tables
    /// 5/6).
    ///
    /// # Errors
    ///
    /// Returns [`TensorError`] on shape problems (cannot happen for
    /// matrices produced by this model's embedder).
    pub fn project_head(
        &self,
        hidden: &Matrix,
        head: usize,
    ) -> Result<(Matrix, Matrix, Matrix), TensorError> {
        let rope = self.rope_table(0, hidden.rows())?;
        let g = self.gqa.kv_head_for(head);
        let group = &self.groups[g];
        let cols = [group.q_cols(head % self.gqa.group_size()), group.k_cols(), group.v_cols()];
        let mut qkv = self.project(g, hidden, &rope, &cols)?;
        let (v, k, q) = (qkv.swap_remove(2), qkv.swap_remove(1), qkv.swap_remove(0));
        Ok((q, k, v))
    }

    /// An empty K/V cache sized for this layer: keys `head_dim` wide,
    /// values `content_dim` wide.
    pub fn new_cache(&self) -> LayerKvCache {
        LayerKvCache::new(self.groups.len(), self.head_dim, self.content_dim)
    }

    /// Runs the layer *incrementally*: `hidden_rows` are the residual-
    /// stream rows of the new positions (`cache.len()..cache.len()+n`),
    /// whose K/V are appended to `cache`; attention runs over the full
    /// cached history. On an empty cache with the whole prompt this is a
    /// prefill; with single rows it is the decode phase over an
    /// uncompressed KV cache. The one body every prompt row runs through.
    ///
    /// Values are projected, cached and attended over at `content_dim`
    /// columns ([`GroupProjections::v_content_cols`]): the value
    /// projection is zero past them, and each output column of P·V folds
    /// on its own, so every column a head's content reads has the bits a
    /// `head_dim`-wide pass gives it.
    ///
    /// One call holds, beyond `cache`: a copy of `hidden_rows`, which the
    /// residual updates in place; every head's rows and the
    /// `(n, content_dim)` content update; per KV group in turn, the
    /// group's queries, the method's working set and its heads' engine
    /// outputs; then one 256-row block of the MLP at a time. The prompt
    /// path, [`ChunkedPrefill`](crate::ChunkedPrefill), runs the same body
    /// on the layer input itself, keeping whole only the heads its run
    /// reads.
    ///
    /// # Errors
    ///
    /// Propagates tensor/kernel errors from projections or the method.
    pub fn forward_incremental(
        &self,
        hidden_rows: &Matrix,
        cache: &mut LayerKvCache,
        method: &dyn AttentionMethod,
    ) -> Result<LayerForwardResult, TensorError> {
        let keep_whole = vec![true; self.num_heads()];
        self.forward_rows(hidden_rows.clone(), cache, method, &keep_whole, false)
    }

    /// [`forward_incremental`](Self::forward_incremental) on a layer input
    /// it consumes, keeping every row of head `h`'s content where
    /// `keep_whole[h]` and only the newest row elsewhere.
    ///
    /// With `newest_only`, the caller reads nothing of the call's output
    /// but the heads kept whole and the newest row of everything else —
    /// the last layer of a cache-keeping run — and the call computes no
    /// more: every row's K and V still go into `cache`, every head still
    /// plans on all its rows (so its report's density, coverage and
    /// fallback are the whole chunk's), a head kept whole runs every row,
    /// each other head runs its own engine job on the newest row alone
    /// ([`HeadPlan::from_row`](sa_baselines::HeadPlan::from_row)), and the
    /// residual and MLP run on the newest row alone, which is the
    /// returned `hidden`. Every row is computed on its own, so each one
    /// returned has the bits of a call without `newest_only`; the cost
    /// counts what ran.
    ///
    /// What one call holds beyond `cache` and `hidden_rows`, whose rows
    /// the residual updates in place: per KV group in turn, the group's
    /// rotated queries, its heads' engine outputs (each head hands its
    /// rows over to the result or, cut to the newest, drops them) and the
    /// method's own working set; across the call, the heads' kept rows
    /// and the content update, `(S, content_dim)` or its newest row, and
    /// the rows' RoPE table until the last group is projected; then one
    /// [`MLP_ROWS`]-row block of the MLP at a time.
    pub(crate) fn forward_rows(
        &self,
        hidden_rows: Matrix,
        cache: &mut LayerKvCache,
        method: &dyn AttentionMethod,
        keep_whole: &[bool],
        newest_only: bool,
    ) -> Result<LayerForwardResult, TensorError> {
        let n = hidden_rows.rows();
        let mut rope = Some(self.rope_table(cache.seen(), n)?);
        let mut heads = HeadFold::new(n, self.content_dim, keep_whole, newest_only);

        let (d_in, qk) = (hidden_rows.cols(), self.gqa.group_size() as u64 + 1);
        for g in 0..self.groups.len() {
            let table = rope.as_ref().expect("the table lives until the last projection");
            let (q, k, v) = self.project_group(g, &hidden_rows, table)?;
            if g + 1 == self.groups.len() {
                // Nothing rotates after the last group's projection.
                rope = None;
            }
            heads.cost.merge(&projection_cost(n, d_in, self.head_dim, qk));
            heads.cost.merge(&projection_cost(n, d_in, self.content_dim, 1));
            cache.append(g, k, v)?;
            let (keys, v_all) = cache.prepared(g);
            self.attend_group(g, q, keys, v_all, method, &mut heads)?;
        }

        let hidden_rows = if newest_only && n > 1 {
            hidden_rows.slice_rows(n - 1, n)?
        } else {
            hidden_rows
        };
        let hidden = self.apply_residual_and_mlp(hidden_rows, &heads.content_update, &mut heads.cost)?;
        Ok(heads.into_result(hidden))
    }

    /// Runs one decode step: `hidden_row` is the residual-stream row of
    /// the newest position, whose K/V are appended to `cache`; every head
    /// then attends to the whole cached history with full attention (the
    /// paper keeps decode dense over an uncompressed KV cache, §5.1).
    ///
    /// The query heads of a KV group share its keys, so they are scored
    /// as one row block ([`FullAttention::decode_block`], which owns the
    /// dense kernel choice) against the cache's resident panels — one
    /// pass over K and V per group instead of one per head, bit-identical
    /// to one-row [`forward_incremental`] calls under `FullAttention`.
    ///
    /// Returns the updated residual-stream row, the `(1, content_dim)`
    /// content output of every query head, and each KV group's rotated
    /// `(group_size, head_dim)` query block.
    ///
    /// [`forward_incremental`]: Self::forward_incremental
    ///
    /// # Errors
    ///
    /// Returns [`TensorError::InvalidDimension`] unless `hidden_row` has
    /// exactly one row, and propagates tensor/kernel errors.
    pub(crate) fn forward_decode(
        &self,
        hidden_row: &Matrix,
        cache: &mut LayerKvCache,
    ) -> Result<(Matrix, Vec<Matrix>, Vec<Matrix>), TensorError> {
        let (mut heads, q_blocks) = self.decode_heads(hidden_row, cache)?;
        let hidden =
            self.apply_residual_and_mlp(hidden_row.clone(), &heads.content_update, &mut heads.cost)?;
        Ok((hidden, heads.head_contents, q_blocks))
    }

    /// [`forward_decode`](Self::forward_decode) without the residual and
    /// MLP, whose row nothing reads after the last layer: every head's
    /// `(1, content_dim)` content and each KV group's query block, with
    /// the bits `forward_decode` gives them.
    ///
    /// # Errors
    ///
    /// As [`forward_decode`](Self::forward_decode).
    pub(crate) fn forward_decode_heads(
        &self,
        hidden_row: &Matrix,
        cache: &mut LayerKvCache,
    ) -> Result<(Vec<Matrix>, Vec<Matrix>), TensorError> {
        let (heads, q_blocks) = self.decode_heads(hidden_row, cache)?;
        Ok((heads.head_contents, q_blocks))
    }

    /// The attention half of a decode step: the K/V appended, every head
    /// folded, each KV group's query block.
    fn decode_heads(
        &self,
        hidden_row: &Matrix,
        cache: &mut LayerKvCache,
    ) -> Result<(HeadFold, Vec<Matrix>), TensorError> {
        if hidden_row.rows() != 1 {
            return Err(TensorError::InvalidDimension {
                op: "AttentionLayer::forward_decode",
                what: format!("a decode step takes one row, got {}", hidden_row.rows()),
            });
        }
        let rope = self.rope_table(cache.seen(), 1)?;
        let mut heads = HeadFold::new(1, self.content_dim, &vec![true; self.num_heads()], false);
        let mut q_blocks = Vec::with_capacity(self.groups.len());
        for g in 0..self.groups.len() {
            let (q, k, v) = self.project_group(g, hidden_row, &rope)?;
            cache.append(g, k, v)?;
            // One row: the group's query heads in order are its query block.
            let block: Vec<f32> = q.into_iter().flat_map(Matrix::into_vec).collect();
            q_blocks.push(Matrix::from_vec(self.gqa.group_size(), self.head_dim, block)?);
        }
        // Groups are independent once their K/V rows are cached; the fold
        // below stays serial and in head order.
        let cache = &*cache;
        let dense = FullAttention::new();
        let group_outputs = pool::try_parallel_map("layer_heads", self.groups.len(), 1, |g| {
            let (keys, v_all) = cache.prepared(g);
            dense.decode_block(&q_blocks[g], keys, v_all)
        })?;
        for out in group_outputs {
            let out = out?;
            for local in 0..self.gqa.group_size() {
                heads.fold_head(out.output.slice_rows(local, local + 1)?)?;
            }
        }
        Ok((heads, q_blocks))
    }

    /// The rotations of positions `offset..offset + rows`: one table
    /// serves every query and key head of a layer call.
    ///
    /// # Errors
    ///
    /// Returns [`TensorError::InvalidDimension`] if the layer's RoPE
    /// config is invalid.
    pub fn rope_table(&self, offset: usize, rows: usize) -> Result<RopeTable, TensorError> {
        RopeTable::new(self.rope, self.rotary_dims, offset, rows)
    }

    /// KV group `g`'s projections of `hidden_rows` from one GEMM call over
    /// the group's packed weights: every query head of the group in head
    /// order, then the shared K and V, V at its `content_dim` content
    /// columns. The queries and K are rotated by `rope`, the rows' table
    /// (see [`rope_table`](Self::rope_table)).
    ///
    /// # Errors
    ///
    /// Returns [`TensorError`] on shape problems: `hidden_rows` narrower
    /// or wider than the model, or a table of another row count.
    ///
    /// # Panics
    ///
    /// Panics if `g` is not a KV group of the layer.
    pub fn project_group(
        &self,
        g: usize,
        hidden_rows: &Matrix,
        rope: &RopeTable,
    ) -> Result<(Vec<Matrix>, Matrix, Matrix), TensorError> {
        let group = &self.groups[g];
        let heads = self.gqa.group_size();
        let cols: Vec<Range<usize>> = (0..heads)
            .map(|local| group.q_cols(local))
            .chain([group.k_cols(), group.v_content_cols()])
            .collect();
        let mut q = self.project(g, hidden_rows, rope, &cols)?;
        let (v, k) = (q.swap_remove(heads + 1), q.swap_remove(heads));
        Ok((q, k, v))
    }

    /// The column ranges `cols` of KV group `g`'s packed weights applied
    /// to `hidden_rows` in one GEMM call, each product but V's (a range of
    /// the value projection's columns) rotated by `rope`: the one place a
    /// layer projects queries, keys and values.
    fn project(
        &self,
        g: usize,
        hidden_rows: &Matrix,
        rope: &RopeTable,
        cols: &[Range<usize>],
    ) -> Result<Vec<Matrix>, TensorError> {
        let group = &self.groups[g];
        let mut products = matmul_packed_parts(hidden_rows, group.packed(), cols)?;
        for (product, cols) in products.iter_mut().zip(cols) {
            if cols.start < group.v_cols().start {
                rope.apply(product)?;
            }
        }
        Ok(products)
    }

    /// Runs `method` on every query head of KV group `g` over the group's
    /// shared keys and values, and folds the outputs into `heads` in head
    /// order.
    ///
    /// Two fan-outs:
    ///
    /// 1. **Plan** (`layer_heads`): [`AttentionMethod::plan_head`] on
    ///    each head's rotated query `q[local]` — for SampleAttention, mask
    ///    discovery — one head per part.
    /// 2. **Engine** ([`finish_heads`]): the planned heads' engine runs
    ///    as one call, cut into (head, query-block range) units of equal
    ///    live pairs, the heads taking turns, so a dense head beside three
    ///    sparse ones keeps every thread busy to the end of the call.
    ///
    /// Query blocks are independent and each row's fold is untouched,
    /// and the fold into `content_update` stays serial and in head
    /// order, so the result is bit-identical to running the heads one
    /// after another.
    ///
    /// Traced, a `model/head` span times each head's plan, and one
    /// `model/engine` span the group's engine pass, with the
    /// `core/sparse_kernel` stage inside it when a head attends under a
    /// mask: the heads' kernels interleave, so no span is one head's.
    fn attend_group(
        &self,
        g: usize,
        q: Vec<Matrix>,
        keys: &KeyPanels,
        v: &Matrix,
        method: &dyn AttentionMethod,
        heads: &mut HeadFold,
    ) -> Result<(), TensorError> {
        let group_size = q.len();
        let keys = GroupKeys::new(keys);
        let mut planned: Vec<Option<Result<_, TensorError>>> = (0..group_size).map(|_| None).collect();
        // The pool claims parts back to front: head 0 goes last in, first out.
        let parts: Vec<_> = planned.iter_mut().zip(q).enumerate().rev().collect();
        pool::try_parallel_for_parts("layer_heads", parts, |(local, (plan, q))| {
            let head = g * group_size + local;
            let _span = sa_trace::span_labeled("model", "head", || {
                format!("L{}.H{head}", self.layer_index)
            });
            *plan = Some(method.plan_head(self.layer_index, head, q, &keys, v));
        })?;
        // Every part ran once: no slot is left empty. A head whose older
        // rows the call does not return runs its newest row alone.
        let plans = planned
            .into_iter()
            .flatten()
            .enumerate()
            .map(|(local, plan)| Ok(plan?.from_row(heads.first_row(g * group_size + local))))
            .collect::<Result<Vec<_>, TensorError>>()?;
        let outputs = {
            let _span = sa_trace::span_in("model", "engine");
            finish_heads(plans)
        };
        for (local, out) in outputs.into_iter().enumerate() {
            let head = g * group_size + local;
            let out = out?;
            heads.cost.merge(&out.cost);
            heads.fold_head(out.output)?;
            heads.head_reports.push(HeadReport {
                layer: self.layer_index,
                head,
                archetype: self.archetypes[head],
                density: out.density,
                alpha_satisfied: out.alpha_satisfied,
                fell_back: out.fell_back,
                fallback_reason: out.fallback_reason,
                cost: out.cost,
            });
        }
        Ok(())
    }

    /// Residual update + pre-norm SwiGLU MLP on the layer input `hidden`
    /// (every row of the call, or its newest row alone), updated in place
    /// and handed back; `content_update` has `hidden`'s rows.
    ///
    /// The norm, the MLP and the second residual add run over blocks of
    /// [`MLP_ROWS`] rows, so the MLP's intermediates (the `2 * ffn_dim`-wide
    /// gate/up product among them) are one block tall, not `S`. Every step
    /// is row-wise, so each row has the bits of a whole-prompt pass, and
    /// the MLP's cost is charged once, for every row of the call.
    fn apply_residual_and_mlp(
        &self,
        mut hidden: Matrix,
        content_update: &Matrix,
        cost: &mut CostReport,
    ) -> Result<Matrix, TensorError> {
        let n = hidden.rows();
        let scale = self.residual_gain / self.num_heads() as f32;
        let mlp_gain = self.residual_gain * 0.1;
        for b0 in (0..n).step_by(MLP_ROWS) {
            let b1 = (b0 + MLP_ROWS).min(n);
            for i in b0..b1 {
                for (h, &u) in hidden.row_mut(i).iter_mut().zip(content_update.row(i)) {
                    *h += scale * u;
                }
            }
            let mut normed = hidden.slice_rows(b0, b1)?;
            self.pre_mlp_norm.forward_in_place(&mut normed);
            let mlp_out = self.mlp.forward_rows(&normed)?;
            for (i, m_row) in (b0..b1).zip(mlp_out.as_slice().chunks_exact(hidden.cols())) {
                for (h, &m) in hidden.row_mut(i).iter_mut().zip(m_row) {
                    *h += mlp_gain * m;
                }
            }
        }
        cost.merge(&self.mlp.cost(n));
        Ok(hidden)
    }

    /// Projects rows into one head's RoPE-applied query at an absolute
    /// position offset.
    ///
    /// # Errors
    ///
    /// Returns tensor errors on shape problems.
    pub fn project_q(
        &self,
        hidden_rows: &Matrix,
        head: usize,
        position_offset: usize,
    ) -> Result<Matrix, TensorError> {
        let rope = self.rope_table(position_offset, hidden_rows.rows())?;
        let g = self.gqa.kv_head_for(head);
        let cols = [self.groups[g].q_cols(head % self.gqa.group_size())];
        Ok(self.project(g, hidden_rows, &rope, &cols)?.swap_remove(0))
    }

    /// The layer's GQA layout (KV head serving each query head).
    pub fn gqa(&self) -> &GqaLayout {
        &self.gqa
    }

    /// Runs the layer at prefill with `method` substituted for every
    /// head's attention (the paper's drop-in replacement setup): one
    /// [`forward_incremental`](Self::forward_incremental) call on an empty
    /// cache, which it then drops. The model's own prompts run through
    /// [`ChunkedPrefill`](crate::ChunkedPrefill); this stays only because
    /// the repository benchmark times a layer through it.
    ///
    /// # Errors
    ///
    /// Propagates tensor/kernel errors from projections or the method.
    pub fn forward_prefill(
        &self,
        hidden: &Matrix,
        method: &dyn AttentionMethod,
    ) -> Result<LayerForwardResult, TensorError> {
        self.forward_incremental(hidden, &mut self.new_cache(), method)
    }
}

/// Rows of one block of a layer's MLP: a multiple of the GEMM's row
/// block, so a block's rows meet the GEMM's row partition where a
/// whole-prompt call's do. A serving chunk or a decode step is one block.
pub(crate) const MLP_ROWS: usize = 4 * GEMM_BLOCK;

/// What a layer forward accumulates head by head, in head order.
struct HeadFold {
    /// Query rows of the call.
    rows: usize,
    /// Sum over heads of their content outputs, `(rows, content_dim)`, or
    /// of their newest rows alone when the fold is `newest_only`.
    content_update: Matrix,
    /// Per head: keep all its rows, or only the newest.
    keep_whole: Vec<bool>,
    /// The caller reads only the newest row of every head not kept whole
    /// and of the residual stream.
    newest_only: bool,
    head_contents: Vec<Matrix>,
    head_reports: Vec<HeadReport>,
    cost: CostReport,
}

impl HeadFold {
    /// A fold of `keep_whole.len()` heads over `rows` rows.
    fn new(rows: usize, content_dim: usize, keep_whole: &[bool], newest_only: bool) -> Self {
        let update_rows = if newest_only { rows.min(1) } else { rows };
        HeadFold {
            rows,
            content_update: Matrix::zeros(update_rows, content_dim),
            keep_whole: keep_whole.to_vec(),
            newest_only,
            head_contents: Vec::with_capacity(keep_whole.len()),
            head_reports: Vec::with_capacity(keep_whole.len()),
            cost: CostReport::new(),
        }
    }

    /// The first query row head `head` needs computed: its newest when
    /// the fold reads nothing else of it, else the call's first.
    fn first_row(&self, head: usize) -> usize {
        if self.newest_only && !self.keep_whole[head] {
            self.rows.saturating_sub(1)
        } else {
            0
        }
    }

    /// Adds the next head's content into `content_update` and keeps it:
    /// whole, taken as it is, when the fold keeps that head whole,
    /// otherwise only its newest row. `content` holds the head's rows
    /// from [`first_row`](Self::first_row) on, or every row (a head its
    /// method finished by itself computed them all); the update takes
    /// the rows it has, the newest alone when the fold is `newest_only`.
    ///
    /// # Errors
    ///
    /// Returns [`TensorError::ShapeMismatch`] unless `content` has one of
    /// those shapes: a method's output is one row per query row it
    /// computed, as wide as the values.
    ///
    /// # Panics
    ///
    /// Panics past the fold's last head.
    fn fold_head(&mut self, content: Matrix) -> Result<(), TensorError> {
        let head = self.head_contents.len();
        let (update_rows, width) = self.content_update.shape();
        let computed = self.rows - self.first_row(head);
        let rows = content.rows();
        if content.cols() != width || (rows != self.rows && rows != computed) {
            return Err(TensorError::ShapeMismatch {
                op: "HeadFold::fold_head",
                lhs: (computed, width),
                rhs: content.shape(),
            });
        }
        let last_rows = &content.as_slice()[(rows - update_rows) * width..];
        for (u, &c) in self.content_update.as_mut_slice().iter_mut().zip(last_rows) {
            *u += c;
        }
        let kept = if self.keep_whole[head] || rows <= 1 {
            content
        } else {
            content.slice_rows(rows - 1, rows)?
        };
        self.head_contents.push(kept);
        Ok(())
    }

    fn into_result(self, hidden: Matrix) -> LayerForwardResult {
        LayerForwardResult {
            hidden,
            head_contents: self.head_contents,
            head_reports: self.head_reports,
            cost: self.cost,
        }
    }
}

/// Cost of `n_mats` dense `(s x d_in) x (d_in x d_out)` projections.
fn projection_cost(s: usize, d_in: usize, d_out: usize, n_mats: u64) -> CostReport {
    let flops = n_mats * 2 * (s * d_in * d_out) as u64;
    let bytes_read = n_mats * 4 * (s * d_in + d_in * d_out) as u64;
    let bytes_written = n_mats * 4 * (s * d_out) as u64;
    let mut c = CostReport::launch(flops, bytes_read, bytes_written);
    c.kernel_launches = n_mats;
    c
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::{ModelConfig, TokenEmbedder, BOS_TOKEN};
    use sa_baselines::SampleAttentionMethod;
    use sa_kernels::rope::apply_rope_partial;
    use sa_tensor::matmul;

    fn layer_and_hidden(seed: u64) -> (AttentionLayer, Matrix, ModelConfig) {
        let config = ModelConfig::tiny(seed);
        let embedder = TokenEmbedder::new(config);
        let tokens: Vec<u32> = std::iter::once(BOS_TOKEN)
            .chain((0..100).map(|i| (i % 30 + 2) as u32))
            .collect();
        let hidden = embedder.embed(&tokens);
        let mut rng = DeterministicRng::new(seed);
        let layer = AttentionLayer::generate(&config, 1, &mut rng).unwrap();
        (layer, hidden, config)
    }

    #[test]
    fn forward_shapes_and_reports() {
        let (layer, hidden, config) = layer_and_hidden(1);
        let result = layer.forward_prefill(&hidden, &FullAttention::new()).unwrap();
        assert_eq!(result.hidden.shape(), hidden.shape());
        assert_eq!(result.head_contents.len(), config.num_heads);
        assert_eq!(result.head_reports.len(), config.num_heads);
        for (h, report) in result.head_reports.iter().enumerate() {
            assert_eq!(report.head, h);
            assert_eq!(report.layer, 1);
            assert_eq!(report.density, 1.0);
        }
        assert_eq!(result.head_contents[0].shape(), (hidden.rows(), config.content_dim));
        assert!(result.cost.flops > 0);
    }

    #[test]
    fn decode_step_equals_a_one_row_incremental_forward() {
        let (layer, hidden, _) = layer_and_hidden(7);
        let prompt = hidden.slice_rows(0, 100).unwrap();
        let next = hidden.slice_rows(100, 101).unwrap();
        let mut per_head = layer.new_cache();
        layer
            .forward_incremental(&prompt, &mut per_head, &FullAttention::new())
            .unwrap();
        let mut grouped = per_head.clone();
        let want = layer
            .forward_incremental(&next, &mut per_head, &FullAttention::new())
            .unwrap();
        let (got_hidden, got_contents, _) = layer.forward_decode(&next, &mut grouped).unwrap();
        assert_eq!(got_hidden, want.hidden);
        assert_eq!(got_contents, want.head_contents);
        assert_eq!(grouped.head_rows(1), per_head.head_rows(1));
        // A decode step is one position.
        assert!(layer.forward_decode(&prompt, &mut grouped).is_err());
    }

    /// Each KV group's `(wqs, wk, wv)`, unpacked, of the layer
    /// `layer_and_hidden(seed)` built: the same draws, replayed.
    fn unpacked_weights(
        layer: &AttentionLayer,
        config: &ModelConfig,
        seed: u64,
    ) -> Vec<(Vec<Matrix>, Matrix, Matrix)> {
        let mut rng = DeterministicRng::new(seed);
        layer
            .archetypes
            .chunks(layer.gqa.group_size())
            .map(|group| GroupProjections::weights(config, group, &mut rng))
            .collect()
    }

    /// The first `cols` columns of `m`.
    fn leading_cols(m: &Matrix, cols: usize) -> Matrix {
        Matrix::from_fn(m.rows(), cols, |i, j| m.get(i, j))
    }

    /// The layer's incremental forward with every projection through the
    /// scalar `matmul` on the unpacked `weights`, K and V projected and
    /// cached apart (V at its whole `head_dim`, then cut to its content
    /// columns), heads in a serial loop. (The MLP has its own scalar
    /// oracle in `mlp.rs`.)
    fn oracle_incremental(
        layer: &AttentionLayer,
        weights: &[(Vec<Matrix>, Matrix, Matrix)],
        hidden_rows: &Matrix,
        cache: &mut LayerKvCache,
        method: &dyn AttentionMethod,
    ) -> (Matrix, Vec<Matrix>) {
        let offset = cache.seen();
        let group_size = layer.gqa.group_size();
        let mut heads = HeadFold::new(
            hidden_rows.rows(),
            layer.content_dim,
            &vec![true; layer.num_heads()],
            false,
        );
        for (g, (wqs, wk, wv)) in weights.iter().enumerate() {
            let mut k_new = matmul(hidden_rows, wk).unwrap();
            let v_new = leading_cols(&matmul(hidden_rows, wv).unwrap(), layer.content_dim);
            apply_rope_partial(&mut k_new, layer.rotary_dims, offset, layer.rope).unwrap();
            cache.append(g, k_new, v_new).unwrap();
            let (keys, v_all) = cache.prepared(g);
            let keys = GroupKeys::new(keys);
            for (local, wq) in wqs.iter().enumerate() {
                let mut q = matmul(hidden_rows, wq).unwrap();
                apply_rope_partial(&mut q, layer.rotary_dims, offset, layer.rope).unwrap();
                let plan = method
                    .plan_head(layer.layer_index, g * group_size + local, q, &keys, v_all)
                    .unwrap();
                let out = finish_heads(vec![plan]).pop().unwrap().unwrap();
                heads.fold_head(out.output).unwrap();
            }
        }
        let hidden = layer
            .apply_residual_and_mlp(hidden_rows.clone(), &heads.content_update, &mut heads.cost)
            .unwrap();
        (hidden, heads.head_contents)
    }

    fn bits(m: &Matrix) -> Vec<u32> {
        m.as_slice().iter().map(|x| x.to_bits()).collect()
    }

    fn assert_same_bits(label: &str, got: (&Matrix, &[Matrix]), want: (&Matrix, &[Matrix])) {
        assert_eq!(bits(got.0), bits(want.0), "{label}: residual stream");
        assert_eq!(got.1.len(), want.1.len(), "{label}: head count");
        for (h, (g, w)) in got.1.iter().zip(want.1).enumerate() {
            assert_eq!(bits(g), bits(w), "{label}: head {h} content");
        }
    }

    #[test]
    fn packed_projections_equal_the_scalar_matmul_oracle_bitwise() {
        let (layer, hidden, config) = layer_and_hidden(8);
        let weights = unpacked_weights(&layer, &config, 8);
        // Prefill: 101 rows, one whole row block and a partial one.
        let methods: [(&str, &dyn AttentionMethod); 2] = [
            ("full", &FullAttention::new()),
            ("sample", &SampleAttentionMethod::paper_default()),
        ];
        for (name, method) in methods {
            let got = layer.forward_prefill(&hidden, method).unwrap();
            let mut cache = layer.new_cache();
            let want = oracle_incremental(&layer, &weights, &hidden, &mut cache, method);
            assert_same_bits(
                &format!("prefill/{name}"),
                (&got.hidden, &got.head_contents),
                (&want.0, &want.1),
            );
        }
        // One row, 33 rows, the 32-row serving chunk and a ragged one,
        // then one decode step, each on the cache the previous call left.
        let dense = FullAttention::new();
        let mut cache = layer.new_cache();
        let mut oracle_cache = layer.new_cache();
        for (start, end) in [(0, 1), (1, 34), (34, 66), (66, 96)] {
            let rows = hidden.slice_rows(start, end).unwrap();
            let got = layer.forward_incremental(&rows, &mut cache, &dense).unwrap();
            let want = oracle_incremental(&layer, &weights, &rows, &mut oracle_cache, &dense);
            assert_same_bits(
                &format!("chunk {start}..{end}"),
                (&got.hidden, &got.head_contents),
                (&want.0, &want.1),
            );
        }
        let row = hidden.slice_rows(96, 97).unwrap();
        let (got_hidden, got_contents, q_blocks) = layer.forward_decode(&row, &mut cache).unwrap();
        let want = oracle_incremental(&layer, &weights, &row, &mut oracle_cache, &dense);
        assert_same_bits("decode", (&got_hidden, &got_contents), (&want.0, &want.1));
        for g in 0..cache.num_kv_heads() {
            let ((k, v), (want_k, want_v)) = (cache.head_rows(g), oracle_cache.head_rows(g));
            assert_eq!((bits(&k), bits(v)), (bits(&want_k), bits(want_v)), "cached K/V of group {g}");
        }
        // Every entry point, on every head of each group, reads the same
        // packed weights: 1, 33 and 101 rows; the decode step's query
        // blocks at position 96.
        let group_size = layer.gqa.group_size();
        let rotated = |x: &Matrix, w: &Matrix, offset: usize| {
            let mut p = matmul(x, w).unwrap();
            apply_rope_partial(&mut p, layer.rotary_dims, offset, layer.rope).unwrap();
            bits(&p)
        };
        for (g, (wqs, _, _)) in weights.iter().enumerate() {
            for (local, wq) in wqs.iter().enumerate() {
                assert_eq!(bits(&q_blocks[g].slice_rows(local, local + 1).unwrap()), rotated(&row, wq, 96));
            }
        }
        for rows in [1, 33, 101] {
            let x = hidden.slice_rows(0, rows).unwrap();
            let rope = layer.rope_table(0, rows).unwrap();
            for (g, (wqs, wk, wv)) in weights.iter().enumerate() {
                let (want_k, want_v) = (rotated(&x, wk, 0), matmul(&x, wv).unwrap());
                let want_content = bits(&leading_cols(&want_v, layer.content_dim));
                let want_v = bits(&want_v);
                let (qs, k, v) = layer.project_group(g, &x, &rope).unwrap();
                assert_eq!((qs.len(), bits(&k), bits(&v)), (group_size, want_k.clone(), want_content));
                for (local, wq) in wqs.iter().enumerate() {
                    let head = g * group_size + local;
                    let want_q = rotated(&x, wq, 0);
                    assert_eq!(bits(&qs[local]), want_q, "{rows} rows, head {head}");
                    let (q, k, v) = layer.project_head(&x, head).unwrap();
                    assert_eq!((bits(&q), bits(&k), bits(&v)), (want_q, want_k.clone(), want_v.clone()));
                    assert_eq!(bits(&layer.project_q(&x, head, 5).unwrap()), rotated(&x, wq, 5));
                }
            }
        }
    }

    #[test]
    fn a_row_blocked_mlp_equals_a_whole_prompt_pass_in_bits_and_cost() {
        let (layer, _, config) = layer_and_hidden(9);
        let mut rng = DeterministicRng::new(9);
        // Two whole row blocks and a ragged third; one block; one row.
        for rows in [2 * MLP_ROWS + 37, MLP_ROWS, 1] {
            let hidden = rng.normal_matrix(rows, config.hidden_dim(), 1.0);
            let update = rng.normal_matrix(rows, config.content_dim, 1.0);
            // The whole-prompt pass: every row through each step at once.
            let mut want = hidden.clone();
            let scale = layer.residual_gain / layer.num_heads() as f32;
            for i in 0..rows {
                for (h, &u) in want.row_mut(i).iter_mut().zip(update.row(i)) {
                    *h += scale * u;
                }
            }
            let (mlp_out, want_cost) = layer.mlp.forward(&layer.pre_mlp_norm.forward(&want)).unwrap();
            for (h, &m) in want.as_mut_slice().iter_mut().zip(mlp_out.as_slice()) {
                *h += layer.residual_gain * 0.1 * m;
            }
            let mut cost = CostReport::new();
            let got = layer.apply_residual_and_mlp(hidden, &update, &mut cost).unwrap();
            assert_eq!(bits(&got), bits(&want), "{rows} rows");
            assert_eq!(cost, want_cost, "{rows} rows: the MLP is charged once per call");
        }
    }

    /// A call asked for its newest row returns that row of the residual
    /// stream, every row of the heads it keeps whole and the newest row
    /// of every other, each with the bits of a call that computed every
    /// row, and caches the same K and V; it costs less. A method that
    /// finishes its heads by itself (no engine plan) computes every row,
    /// and the call still reads its newest.
    #[test]
    fn a_newest_only_call_keeps_a_whole_calls_bits() {
        let (layer, hidden, config) = layer_and_hidden(10);
        let keep_whole: Vec<bool> = (0..config.num_heads).map(|h| h % 3 == 0).collect();
        let methods: [(&str, &dyn AttentionMethod); 3] = [
            ("full", &FullAttention::new()),
            ("sample", &SampleAttentionMethod::paper_default()),
            ("hash", &sa_baselines::HashSparse::paper_config(3)),
        ];
        let n = hidden.rows();
        for (name, method) in methods {
            let (mut whole_cache, mut newest_cache) = (layer.new_cache(), layer.new_cache());
            let whole = layer
                .forward_rows(hidden.clone(), &mut whole_cache, method, &keep_whole, false)
                .unwrap();
            let newest = layer
                .forward_rows(hidden.clone(), &mut newest_cache, method, &keep_whole, true)
                .unwrap();
            assert_eq!(bits(&newest.hidden), bits(&whole.hidden.slice_rows(n - 1, n).unwrap()), "{name}");
            for (h, (got, want)) in newest.head_contents.iter().zip(&whole.head_contents).enumerate() {
                assert_eq!(bits(got), bits(want), "{name}: head {h}");
            }
            for g in 0..whole_cache.num_kv_heads() {
                let ((k, v), (want_k, want_v)) = (newest_cache.head_rows(g), whole_cache.head_rows(g));
                assert_eq!((bits(&k), bits(v)), (bits(&want_k), bits(want_v)), "{name}: group {g}");
            }
            for (got, want) in newest.head_reports.iter().zip(&whole.head_reports) {
                assert_eq!(got.density.to_bits(), want.density.to_bits(), "{name}");
                assert_eq!((got.alpha_satisfied, got.fell_back), (want.alpha_satisfied, want.fell_back));
            }
            assert!(newest.cost.flops < whole.cost.flops, "{name}: the newest-only call costs less");
        }
    }

    #[test]
    fn residual_stream_changes_but_stays_close() {
        let (layer, hidden, _) = layer_and_hidden(2);
        let result = layer.forward_prefill(&hidden, &FullAttention::new()).unwrap();
        assert_ne!(result.hidden, hidden);
        let diff: f32 = result
            .hidden
            .as_slice()
            .iter()
            .zip(hidden.as_slice())
            .map(|(a, b)| (a - b).abs())
            .sum::<f32>()
            / hidden.len() as f32;
        assert!(diff < 0.2, "mean residual perturbation {diff}");
    }

    #[test]
    fn deterministic_generation() {
        let (l1, hidden, _) = layer_and_hidden(3);
        let (l2, _, _) = layer_and_hidden(3);
        let a = l1.forward_prefill(&hidden, &FullAttention::new()).unwrap();
        let b = l2.forward_prefill(&hidden, &FullAttention::new()).unwrap();
        assert_eq!(a.hidden, b.hidden);
    }

    #[test]
    fn project_head_shapes() {
        let (layer, hidden, config) = layer_and_hidden(4);
        let (q, k, v) = layer.project_head(&hidden, 2).unwrap();
        assert_eq!(q.shape(), (hidden.rows(), config.head_dim));
        assert_eq!(k.shape(), q.shape());
        assert_eq!(v.shape(), q.shape());
    }

    #[test]
    fn heads_in_same_group_share_keys() {
        let (layer, hidden, _) = layer_and_hidden(5);
        // heads 0 and 1 share kv head 0 in tiny config (4 q heads, 2 kv).
        let (_, k0, v0) = layer.project_head(&hidden, 0).unwrap();
        let (_, k1, v1) = layer.project_head(&hidden, 1).unwrap();
        assert_eq!(k0, k1);
        assert_eq!(v0, v1);
        let (_, k2, _) = layer.project_head(&hidden, 2).unwrap();
        assert_ne!(k0, k2);
    }

    #[test]
    fn archetypes_follow_config() {
        let (layer, _, config) = layer_and_hidden(6);
        for h in 0..config.num_heads {
            let want = HeadArchetype::from_weights(config.archetype_weights(1, h));
            assert_eq!(layer.archetype(h), want);
        }
    }
}
