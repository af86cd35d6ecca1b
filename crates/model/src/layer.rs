//! One transformer layer: GQA attention (pluggable method) + SwiGLU MLP
//! on a residual stream.

use sa_baselines::{finish_heads, AttentionMethod, FullAttention};
use sa_kernels::gqa::GqaLayout;
use sa_kernels::rope::{RopeConfig, RopeTable};
use sa_kernels::{CostReport, PreparedKeys};
use sa_tensor::{matmul_packed_cols, matmul_packed_pair, pool, DeterministicRng, Matrix, TensorError};

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
    /// Content-space output `(S, content_dim)` of each query head.
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
        let q = self.project_q_rotated(hidden, head, &rope)?;
        let (k, v) = self.project_kv(self.gqa.kv_head_for(head), hidden, &rope)?;
        Ok((q, k, v))
    }

    /// An empty K/V cache sized for this layer.
    pub fn new_cache(&self) -> LayerKvCache {
        LayerKvCache::new(self.groups.len(), self.head_dim)
    }

    /// Runs the layer *incrementally*: `hidden_rows` are the residual-
    /// stream rows of the new positions (`cache.len()..cache.len()+n`),
    /// whose K/V are appended to `cache`; attention runs over the full
    /// cached history. On an empty cache with the whole prompt this is a
    /// prefill; with single rows it is the decode phase over an
    /// uncompressed KV cache. The one body every prompt row runs through.
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
        let n = hidden_rows.rows();
        let rope = self.rope_table(cache.seen(), n)?;
        let mut heads = HeadFold::new(n, self.content_dim, self.num_heads());

        for g in 0..self.groups.len() {
            self.append_kv(g, hidden_rows, &rope, cache, &mut heads.cost)?;
            let (keys, v_all) = cache.prepared(g);
            self.attend_group(g, hidden_rows, &rope, keys, v_all, method, &mut heads)?;
        }

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
    /// Returns the updated residual-stream row and the `(1, content_dim)`
    /// content output of every query head.
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
    ) -> Result<(Matrix, Vec<Matrix>), TensorError> {
        if hidden_row.rows() != 1 {
            return Err(TensorError::InvalidDimension {
                op: "AttentionLayer::forward_decode",
                what: format!("a decode step takes one row, got {}", hidden_row.rows()),
            });
        }
        let rope = self.rope_table(cache.seen(), 1)?;
        let group_size = self.gqa.group_size();
        let mut heads = HeadFold::new(1, self.content_dim, self.num_heads());
        for g in 0..self.groups.len() {
            self.append_kv(g, hidden_row, &rope, cache, &mut heads.cost)?;
        }
        // Groups are independent once their K/V rows are cached; the fold
        // below stays serial and in head order.
        let cache = &*cache;
        let dense = FullAttention::new();
        let group_outputs = pool::try_parallel_map("layer_heads", self.groups.len(), 1, |g| {
            let mut q_block = Matrix::zeros(group_size, cache.head_dim());
            for local in 0..group_size {
                let q = self.project_q_rotated(hidden_row, g * group_size + local, &rope)?;
                q_block.row_mut(local).copy_from_slice(q.row(0));
            }
            let (keys, v_all) = cache.prepared(g);
            dense.decode_block(&q_block, keys, v_all)
        })?;
        for out in group_outputs {
            let out = out?;
            for local in 0..group_size {
                heads.fold_head(&out.output, local);
            }
        }
        let hidden = self.apply_residual_and_mlp(hidden_row, &heads.content_update, &mut heads.cost)?;
        Ok((hidden, heads.head_contents))
    }

    /// The rotations of positions `offset..offset + rows`: one table
    /// serves every query and key head of a layer call.
    fn rope_table(&self, offset: usize, rows: usize) -> Result<RopeTable, TensorError> {
        RopeTable::new(self.rope, self.rotary_dims, offset, rows)
    }

    /// Projects `hidden_rows` into KV group `g`'s K and V and appends
    /// them to `cache`.
    fn append_kv(
        &self,
        g: usize,
        hidden_rows: &Matrix,
        rope: &RopeTable,
        cache: &mut LayerKvCache,
        cost: &mut CostReport,
    ) -> Result<(), TensorError> {
        let (k, v) = self.project_kv(g, hidden_rows, rope)?;
        cost.merge(&projection_cost(hidden_rows.rows(), hidden_rows.cols(), self.head_dim, 2));
        cache.append(g, k, v)
    }

    /// KV group `g`'s K (rotated by `rope`, the rows' table) and V of
    /// `hidden_rows`, from one pass over the rows: the only place a layer
    /// projects keys and values.
    fn project_kv(
        &self,
        g: usize,
        hidden_rows: &Matrix,
        rope: &RopeTable,
    ) -> Result<(Matrix, Matrix), TensorError> {
        let group = &self.groups[g];
        let (mut k, v) = matmul_packed_pair(hidden_rows, group.packed(), group.k_cols(), group.v_cols())?;
        rope.apply(&mut k)?;
        Ok((k, v))
    }

    /// Runs `method` on every query head of KV group `g` over the group's
    /// shared keys and values, and folds the outputs into `heads` in head
    /// order.
    ///
    /// Two fan-outs:
    ///
    /// 1. **Plan** (`layer_heads`): each head's query projection and
    ///    [`AttentionMethod::plan_head`] — for SampleAttention, mask
    ///    discovery — one head per chunk.
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
    #[allow(clippy::too_many_arguments)]
    fn attend_group(
        &self,
        g: usize,
        hidden_rows: &Matrix,
        rope: &RopeTable,
        keys: PreparedKeys<'_>,
        v: &Matrix,
        method: &dyn AttentionMethod,
        heads: &mut HeadFold,
    ) -> Result<(), TensorError> {
        let n = hidden_rows.rows();
        let group_size = self.gqa.group_size();
        let planned = pool::try_parallel_map("layer_heads", group_size, 1, |local| {
            let head = g * group_size + local;
            let _span = sa_trace::span_labeled("model", "head", || {
                format!("L{}.H{head}", self.layer_index)
            });
            let q = self.project_q_rotated(hidden_rows, head, rope)?;
            let proj = projection_cost(n, hidden_rows.cols(), q.cols(), 1);
            let plan = method.plan_head(self.layer_index, head, q, keys, v)?;
            Ok::<_, TensorError>((proj, plan))
        })?;
        let (projections, plans): (Vec<_>, Vec<_>) =
            planned.into_iter().collect::<Result<Vec<_>, _>>()?.into_iter().unzip();
        let outputs = {
            let _span = sa_trace::span_in("model", "engine");
            finish_heads(plans)
        };
        for (local, (proj, out)) in projections.iter().zip(outputs).enumerate() {
            let head = g * group_size + local;
            let out = out?;
            heads.cost.merge(proj);
            heads.cost.merge(&out.cost);
            heads.fold_head(&out.output, 0);
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

    /// Residual update + pre-norm SwiGLU MLP on a block of rows.
    fn apply_residual_and_mlp(
        &self,
        hidden_rows: &Matrix,
        content_update: &Matrix,
        cost: &mut CostReport,
    ) -> Result<Matrix, TensorError> {
        let n = hidden_rows.rows();
        let mut new_hidden = hidden_rows.clone();
        let scale = self.residual_gain / self.num_heads() as f32;
        for i in 0..n {
            let row = new_hidden.row_mut(i);
            for (j, &u) in content_update.row(i).iter().enumerate() {
                row[j] += scale * u;
            }
        }
        let normed = self.pre_mlp_norm.forward(&new_hidden);
        let (mlp_out, mlp_cost) = self.mlp.forward(&normed)?;
        cost.merge(&mlp_cost);
        for i in 0..n {
            let row = new_hidden.row_mut(i);
            for (j, &m) in mlp_out.row(i).iter().enumerate() {
                row[j] += self.residual_gain * 0.1 * m;
            }
        }
        Ok(new_hidden)
    }

    /// Projects rows into one head's RoPE-applied query at an absolute
    /// position offset (used by decode-time score tracking).
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
        self.project_q_rotated(hidden_rows, head, &rope)
    }

    /// [`project_q`](Self::project_q) with the rows' rotations at hand.
    fn project_q_rotated(
        &self,
        hidden_rows: &Matrix,
        head: usize,
        rope: &RopeTable,
    ) -> Result<Matrix, TensorError> {
        let group = &self.groups[self.gqa.kv_head_for(head)];
        let cols = group.q_cols(head % self.gqa.group_size());
        let mut q = matmul_packed_cols(hidden_rows, group.packed(), cols)?;
        rope.apply(&mut q)?;
        Ok(q)
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

/// What a layer forward accumulates head by head, in head order.
struct HeadFold {
    /// Sum over heads of their content outputs, `(rows, content_dim)`.
    content_update: Matrix,
    head_contents: Vec<Matrix>,
    head_reports: Vec<HeadReport>,
    cost: CostReport,
}

impl HeadFold {
    fn new(rows: usize, content_dim: usize, num_heads: usize) -> Self {
        HeadFold {
            content_update: Matrix::zeros(rows, content_dim),
            head_contents: Vec::with_capacity(num_heads),
            head_reports: Vec::with_capacity(num_heads),
            cost: CostReport::new(),
        }
    }

    /// Takes the next head's content — the first `content_dim` dims of
    /// the rows of `output` starting at `row0` — and adds it into
    /// `content_update` in the same pass.
    fn fold_head(&mut self, output: &Matrix, row0: usize) {
        let (rows, dc) = self.content_update.shape();
        let mut content = Matrix::zeros(rows, dc);
        for i in 0..rows {
            let src = &output.row(row0 + i)[..dc];
            content.row_mut(i).copy_from_slice(src);
            for (u, &c) in self.content_update.row_mut(i).iter_mut().zip(src) {
                *u += c;
            }
        }
        self.head_contents.push(content);
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
        let (got_hidden, got_contents) = layer.forward_decode(&next, &mut grouped).unwrap();
        assert_eq!(got_hidden, want.hidden);
        assert_eq!(got_contents, want.head_contents);
        assert_eq!(grouped.head(1), per_head.head(1));
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

    /// The layer's incremental forward with every projection through the
    /// scalar `matmul` on the unpacked `weights`, K and V projected and
    /// cached apart, heads in a serial loop. (The MLP has its own scalar
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
        let mut heads = HeadFold::new(hidden_rows.rows(), layer.content_dim, layer.num_heads());
        for (g, (wqs, wk, wv)) in weights.iter().enumerate() {
            let mut k_new = matmul(hidden_rows, wk).unwrap();
            let v_new = matmul(hidden_rows, wv).unwrap();
            apply_rope_partial(&mut k_new, layer.rotary_dims, offset, layer.rope).unwrap();
            cache.append(g, k_new, v_new).unwrap();
            let (keys, v_all) = cache.prepared(g);
            for (local, wq) in wqs.iter().enumerate() {
                let mut q = matmul(hidden_rows, wq).unwrap();
                apply_rope_partial(&mut q, layer.rotary_dims, offset, layer.rope).unwrap();
                let plan = method
                    .plan_head(layer.layer_index, g * group_size + local, q, keys, v_all)
                    .unwrap();
                let out = finish_heads(vec![plan]).pop().unwrap().unwrap();
                heads.fold_head(&out.output, 0);
            }
        }
        let hidden = layer
            .apply_residual_and_mlp(hidden_rows, &heads.content_update, &mut heads.cost)
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
        // A 64-row chunk, then the 32-row serving chunk, then one decode
        // step, each on the cache the previous call left.
        let dense = FullAttention::new();
        let mut cache = layer.new_cache();
        let mut oracle_cache = layer.new_cache();
        for (start, end) in [(0, 64), (64, 96)] {
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
        let (got_hidden, got_contents) = layer.forward_decode(&row, &mut cache).unwrap();
        let want = oracle_incremental(&layer, &weights, &row, &mut oracle_cache, &dense);
        assert_same_bits("decode", (&got_hidden, &got_contents), (&want.0, &want.1));
        for g in 0..cache.num_kv_heads() {
            let ((k, v), (want_k, want_v)) = (cache.head(g), oracle_cache.head(g));
            assert_eq!((bits(k), bits(v)), (bits(want_k), bits(want_v)), "cached K/V of group {g}");
        }
        // The analysis entry points read the same packed weights.
        let (q, k, v) = layer.project_head(&hidden, 3).unwrap();
        let (wqs, wk, wv) = &weights[layer.gqa.kv_head_for(3)];
        let mut want_q = matmul(&hidden, &wqs[3 % layer.gqa.group_size()]).unwrap();
        let mut want_k = matmul(&hidden, wk).unwrap();
        apply_rope_partial(&mut want_q, layer.rotary_dims, 0, layer.rope).unwrap();
        apply_rope_partial(&mut want_k, layer.rotary_dims, 0, layer.rope).unwrap();
        assert_eq!(bits(&q), bits(&want_q));
        assert_eq!(bits(&k), bits(&want_k));
        assert_eq!(bits(&v), bits(&matmul(&hidden, wv).unwrap()));
        assert_eq!(bits(&layer.project_q(&hidden, 3, 0).unwrap()), bits(&want_q));
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
