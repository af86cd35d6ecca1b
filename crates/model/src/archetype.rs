//! Head archetypes and constructed Q/K/V projections.
//!
//! Each attention head mixes four score components, weighted per
//! (layer, head) by [`crate::ModelConfig::archetype_weights`]:
//!
//! - **local**: queries and keys share a projection of the AR(1)
//!   positional track → scores decay with distance (diagonal window);
//! - **sink**: queries carry a constant direction via the bias channel,
//!   keys carry it only where the BOS flag is set → a stripe on position 0;
//! - **retrieval**: queries project the *content* slot, keys project the
//!   *prev-content* slot through the same matrix → an induction circuit
//!   that scores position `j` highly when token `j-1` equals the query's
//!   token (content-aware stripes);
//! - **dispersed**: independent random projections → near-uniform scores.
//!
//! The head dimension is split in halves like ChatGLM's partial rotary:
//! the **first half is rotated** by RoPE (the local and dispersed
//! components live there, so rotation only sharpens locality), and the
//! **second half passes through unrotated** (the sink and retrieval
//! components live there, so content matching is position-independent —
//! the same trick trained models discover).
//!
//! Values always copy the content slot verbatim into the first
//! `content_dim` output dimensions, so attention outputs are decodable
//! mixtures of token embeddings.

use std::ops::Range;

use sa_tensor::{DeterministicRng, Matrix, PackedWeights, TensorError};

use crate::ModelConfig;

/// Base gains, calibrated so a fully matched component produces a logit
/// of `gain²` (≈ 12), comfortably above `ln(S)` for the sequence lengths
/// the experiments use — mirroring the sharply peaked scores of real
/// long-context heads.
const LOCAL_GAIN: f32 = 3.5;
const SINK_GAIN: f32 = 4.0;
// Retrieval and salience are balanced against each other: a true content
// match at a salient (payload) position scores RETRIEVAL² + SALIENCE²
// ≈ 18.5; the worst spurious content match (random embeddings can have
// cosine ~0.8) scores ≈ 0.8·RETRIEVAL² + SALIENCE² ≈ 16 when salient and
// ≈ 10 otherwise — a reliable margin. Meanwhile SALIENCE² ≈ 6 sits far
// above filler noise (±3), so *every* query row ranks salient columns
// first: the row-shared stripe mass that makes stage-1 sampling
// representative, as in real LLMs where rare tokens are attention
// magnets.
const RETRIEVAL_GAIN: f32 = 3.0;
const SALIENCE_GAIN: f32 = 3.0;
// Extra attractor on induction-target positions (prev token salient):
// true fact payloads out-rank lone decoy tokens by e^(2²) ≈ 55× in the
// accumulated column scores, so the α-cut never amputates a fact.
const PREV_SALIENCE_GAIN: f32 = 2.0;
const DISPERSED_GAIN: f32 = 1.0;

/// The mixing weights of one head's archetype.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct HeadArchetype {
    /// Weight of the local-window component.
    pub local: f32,
    /// Weight of the BOS-sink component.
    pub sink: f32,
    /// Weight of the content-retrieval (induction) component.
    pub retrieval: f32,
    /// Weight of the dispersed (low-sparsity) component.
    pub dispersed: f32,
}

sa_json::impl_json_struct!(HeadArchetype {
    local,
    sink,
    retrieval,
    dispersed
});

impl HeadArchetype {
    /// Builds from a `(local, sink, retrieval, dispersed)` tuple.
    pub fn from_weights(w: (f32, f32, f32, f32)) -> Self {
        HeadArchetype {
            local: w.0,
            sink: w.1,
            retrieval: w.2,
            dispersed: w.3,
        }
    }

    /// A pure local-window head.
    pub fn local() -> Self {
        Self::from_weights((1.0, 0.0, 0.0, 0.05))
    }

    /// A pure sink head.
    pub fn sink() -> Self {
        Self::from_weights((0.1, 1.0, 0.0, 0.05))
    }

    /// A pure retrieval head.
    pub fn retrieval() -> Self {
        Self::from_weights((0.1, 0.1, 1.0, 0.05))
    }

    /// A dispersed, low-sparsity head.
    pub fn dispersed() -> Self {
        Self::from_weights((0.05, 0.05, 0.0, 1.0))
    }

    /// Name of the dominant component (for reports and Figure 2(d)
    /// labelling).
    pub fn dominant(&self) -> &'static str {
        let pairs = [
            ("local", self.local),
            ("sink", self.sink),
            ("retrieval", self.retrieval),
            ("dispersed", self.dispersed),
        ];
        pairs
            .iter()
            .max_by(|a, b| a.1.partial_cmp(&b.1).unwrap_or(std::cmp::Ordering::Equal))
            .map(|&(n, _)| n)
            .unwrap_or("dispersed")
    }
}

/// Constructed Q/K/V projection matrices for one head
/// (`hidden_dim x head_dim` each).
#[derive(Debug, Clone)]
pub struct HeadProjections {
    /// Query projection.
    pub wq: Matrix,
    /// Key projection.
    pub wk: Matrix,
    /// Value projection (content-copying).
    pub wv: Matrix,
}

/// Projections for one GQA group: several query heads sharing one K/V
/// head. The shared K carries every score component any query head in the
/// group uses (weighted by the group maximum), and each query projection
/// selects its own archetype mix — so group members see the same keys but
/// express different patterns, as GQA models do.
///
/// The weights are packed once, here, side by side as
/// `[wq_0 | … | wq_{n-1} | wk | wv]`: every projection of the group is a
/// column range of one [`PackedWeights`], and the group's query heads, K
/// and V, which share an input, come out of one GEMM call.
///
/// `wv` copies the token content into its first `content_dim` columns and
/// is zero past them, so a value row is content followed by `+0.0`s: the
/// layer projects only [`v_content_cols`](Self::v_content_cols).
#[derive(Debug, Clone)]
pub struct GroupProjections {
    packed: PackedWeights,
    /// Query heads in the group.
    heads: usize,
    /// Leading columns of the value projection that can be nonzero.
    content_dim: usize,
}

impl GroupProjections {
    /// All of the group's projections in the layout
    /// [`sa_tensor::matmul_packed_parts`] reads.
    pub fn packed(&self) -> &PackedWeights {
        &self.packed
    }

    /// Width of every projection: the packed columns are the query heads'
    /// projections, then the key's, then the value's.
    fn head_dim(&self) -> usize {
        self.packed.cols() / (self.heads + 2)
    }

    /// The packed columns of query head `local`'s projection.
    pub fn q_cols(&self, local: usize) -> Range<usize> {
        local * self.head_dim()..(local + 1) * self.head_dim()
    }

    /// The packed columns of the shared key projection.
    pub fn k_cols(&self) -> Range<usize> {
        self.q_cols(self.heads)
    }

    /// The packed columns of the shared (content-copying) value
    /// projection.
    pub fn v_cols(&self) -> Range<usize> {
        self.q_cols(self.heads + 1)
    }

    /// The value projection's content columns, the first `content_dim`
    /// of [`v_cols`](Self::v_cols): every column after them is zero.
    pub fn v_content_cols(&self) -> Range<usize> {
        let start = self.v_cols().start;
        start..start + self.content_dim
    }

    /// Generates group projections for the given per-query-head
    /// archetypes.
    ///
    /// # Panics
    ///
    /// Panics if `archetypes` is empty or `config.head_dim / 2` cannot
    /// hold the content or positional subspaces.
    ///
    /// # Errors
    ///
    /// Returns [`TensorError::NonFinite`] if the configured gains
    /// overflow a weight: the packed GEMM takes finite weights only.
    pub fn generate(
        config: &ModelConfig,
        archetypes: &[HeadArchetype],
        rng: &mut DeterministicRng,
    ) -> Result<Self, TensorError> {
        let (wqs, wk, wv) = Self::weights(config, archetypes, rng);
        let mut parts: Vec<&Matrix> = wqs.iter().collect();
        parts.extend([&wk, &wv]);
        Ok(GroupProjections {
            packed: PackedWeights::pack(&parts)?,
            heads: wqs.len(),
            content_dim: config.content_dim,
        })
    }

    /// The query projections, key projection and value projection of one GQA
    /// group whose query heads have the given archetypes, unpacked.
    pub(crate) fn weights(
        config: &ModelConfig,
        archetypes: &[HeadArchetype],
        rng: &mut DeterministicRng,
    ) -> (Vec<Matrix>, Matrix, Matrix) {
        assert!(!archetypes.is_empty(), "group must have at least one head");
        let dc = config.content_dim;
        let dp = config.pos_dim;
        let dh = config.head_dim;
        let half = dh / 2;
        let hidden = config.hidden_dim();
        assert!(
            half >= dc && half >= dp,
            "head_dim/2 must hold the content and positional subspaces"
        );
        let bos_ch = 3 * dc + dp;
        let bias_ch = 3 * dc + dp + 1;
        let salience_ch = 3 * dc + dp + 2;
        let prev_sal_ch = 3 * dc + dp + 3;

        // Shared component projections for the whole group: orthonormal
        // rows preserve dot products exactly (a Gaussian projection at
        // these widths has Johnson–Lindenstrauss distortion of the same
        // order as the logit gaps, which destroys the match margins).
        // r_pos divides by sqrt(dp) so the matched local score is
        // g² · decay^Δ (the AR(1) track has stationary norm² = dp).
        let mut r_pos = sa_tensor::random_orthonormal_rows(rng, dp, half);
        r_pos.scale_in_place(1.0 / (dp as f32).sqrt());
        let r_content = sa_tensor::random_orthonormal_rows(rng, dc, half);
        let sink_dir = sa_tensor::unit_vector(rng, half);
        let salience_dir = sa_tensor::unit_vector(rng, half);
        let prev_sal_dir = sa_tensor::unit_vector(rng, half);
        let wk_disp = rng.normal_matrix(hidden, dh, 1.0 / (hidden as f32).sqrt());
        let side = (dh as f32).powf(0.25);

        let add_block =
            |w: &mut Matrix, rows: std::ops::Range<usize>, col0: usize, m: &Matrix, g: f32| {
                for (mi, i) in rows.enumerate() {
                    for j in 0..m.cols() {
                        let cur = w.get(i, col0 + j);
                        w.set(i, col0 + j, cur + g * m.get(mi, j));
                    }
                }
            };

        // Key weights: the group maximum per component, so every query
        // head's pattern is expressible against the shared keys. A query
        // head's effective matched logit is then q_weight * k_weight *
        // gain².
        let maxw = |f: fn(&HeadArchetype) -> f32| {
            archetypes.iter().map(f).fold(0.0f32, f32::max)
        };
        let (lk, sk, rk) = (
            maxw(|a| a.local),
            maxw(|a| a.sink),
            maxw(|a| a.retrieval),
        );
        // Dispersion is a *query-side* property: a dispersed head sharing
        // this group's K must not inject noise into its siblings' keys
        // (in a trained GQA model the shared K stays clean; flat patterns
        // come from the query projection). K keeps only a small noise
        // floor.
        let dk = 0.1f32;

        let mut wk = Matrix::zeros(hidden, dh);
        add_block(&mut wk, 3 * dc..3 * dc + dp, 0, &r_pos, lk * LOCAL_GAIN * side);
        add_block(&mut wk, dc..2 * dc, half, &r_content, rk * RETRIEVAL_GAIN * side);
        for j in 0..half {
            let cur = wk.get(bos_ch, half + j);
            wk.set(bos_ch, half + j, cur + sk * SINK_GAIN * side * sink_dir[j]);
            let cur_s = wk.get(salience_ch, half + j);
            wk.set(
                salience_ch,
                half + j,
                cur_s + rk * SALIENCE_GAIN * side * salience_dir[j],
            );
            let cur_p = wk.get(prev_sal_ch, half + j);
            wk.set(
                prev_sal_ch,
                half + j,
                cur_p + rk * PREV_SALIENCE_GAIN * side * prev_sal_dir[j],
            );
        }
        let gdk = dk * DISPERSED_GAIN * side;
        for i in 0..hidden {
            for j in 0..dh {
                let cur = wk.get(i, j);
                wk.set(i, j, cur + gdk * wk_disp.get(i, j));
            }
        }

        // Query projections per head.
        let wqs = archetypes
            .iter()
            .map(|a| {
                let mut wq = Matrix::zeros(hidden, dh);
                add_block(&mut wq, 3 * dc..3 * dc + dp, 0, &r_pos, a.local * LOCAL_GAIN * side);
                // Queries read the *salient-content* slot: only
                // distinctive tokens retrieve.
                add_block(&mut wq, 2 * dc..3 * dc, half, &r_content, a.retrieval * RETRIEVAL_GAIN * side);
                for j in 0..half {
                    let cur = wq.get(bias_ch, half + j);
                    wq.set(bias_ch, half + j, cur + a.sink * SINK_GAIN * side * sink_dir[j]);
                    let cur_s = wq.get(bias_ch, half + j);
                    wq.set(
                        bias_ch,
                        half + j,
                        cur_s + a.retrieval * SALIENCE_GAIN * side * salience_dir[j],
                    );
                    let cur_p = wq.get(bias_ch, half + j);
                    wq.set(
                        bias_ch,
                        half + j,
                        cur_p + a.retrieval * PREV_SALIENCE_GAIN * side * prev_sal_dir[j],
                    );
                }
                let wq_disp = rng.normal_matrix(hidden, dh, 1.0 / (hidden as f32).sqrt());
                let gd = a.dispersed * DISPERSED_GAIN * side;
                for i in 0..hidden {
                    for j in 0..dh {
                        let cur = wq.get(i, j);
                        wq.set(i, j, cur + gd * wq_disp.get(i, j));
                    }
                }
                wq
            })
            .collect();

        // Values copy content verbatim into the first dc output dims.
        let mut wv = Matrix::zeros(hidden, dh);
        for i in 0..dc {
            wv.set(i, i, 1.0);
        }

        (wqs, wk, wv)
    }
}

impl HeadProjections {
    /// Generates the projections for `archetype` under `config`, drawing
    /// all randomness from `rng`.
    ///
    /// # Panics
    ///
    /// Panics if `config.head_dim / 2` cannot hold the content or
    /// positional subspaces (validated configs cannot trigger this).
    pub fn generate(
        config: &ModelConfig,
        archetype: HeadArchetype,
        rng: &mut DeterministicRng,
    ) -> Self {
        let (wqs, wk, wv) = GroupProjections::weights(config, std::slice::from_ref(&archetype), rng);
        HeadProjections {
            wq: wqs.into_iter().next().expect("one head"),
            wk,
            wv,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::{ModelConfig, TokenEmbedder, BOS_TOKEN};
    use sa_kernels::attention_probs;
    use sa_tensor::matmul;

    fn setup(arch: HeadArchetype, seed: u64) -> (Matrix, Matrix, TokenEmbedder, Vec<u32>) {
        let config = ModelConfig::tiny(seed);
        let embedder = TokenEmbedder::new(config);
        let layout = *embedder.layout();
        // tokens: BOS, cycling filler, a marker/payload pair mid-way,
        // then the marker again at the end (the "question").
        let mut tokens: Vec<u32> = vec![BOS_TOKEN];
        for i in 0..200 {
            tokens.push(layout.filler(i));
        }
        tokens[80] = layout.marker(5);
        tokens[81] = layout.payload(5);
        tokens.push(layout.marker(5)); // question repeats the marker
        let hidden = embedder.embed(&tokens);
        let mut rng = sa_tensor::DeterministicRng::new(seed ^ 77);
        let proj = HeadProjections::generate(&config, arch, &mut rng);
        let q = matmul(&hidden, &proj.wq).unwrap();
        let k = matmul(&hidden, &proj.wk).unwrap();
        (q, k, embedder, tokens)
    }

    #[test]
    fn dominant_labels() {
        assert_eq!(HeadArchetype::local().dominant(), "local");
        assert_eq!(HeadArchetype::sink().dominant(), "sink");
        assert_eq!(HeadArchetype::retrieval().dominant(), "retrieval");
        assert_eq!(HeadArchetype::dispersed().dominant(), "dispersed");
    }

    #[test]
    fn local_head_mass_is_near_diagonal() {
        let (q, k, _, tokens) = setup(HeadArchetype::local(), 1);
        let p = attention_probs(&q, &k, true).unwrap();
        let s = tokens.len();
        // Mass within 40 tokens of the diagonal for a late row.
        let i = s - 5;
        let near: f32 = p.row(i)[i.saturating_sub(40)..=i].iter().sum();
        assert!(near > 0.8, "near-diagonal mass {near}");
    }

    #[test]
    fn sink_head_mass_on_bos() {
        let (q, k, _, tokens) = setup(HeadArchetype::sink(), 2);
        let p = attention_probs(&q, &k, true).unwrap();
        let s = tokens.len();
        let bos_mass = p.get(s - 1, 0);
        assert!(bos_mass > 0.7, "BOS mass {bos_mass}");
    }

    #[test]
    fn retrieval_head_finds_payload_position() {
        let (q, k, _, tokens) = setup(HeadArchetype::retrieval(), 3);
        let p = attention_probs(&q, &k, true).unwrap();
        let s = tokens.len();
        // The question (last row, token 99) should attend to position 81
        // (whose prev-token record is 99) — the induction stripe.
        let stripe = p.get(s - 1, 81);
        assert!(stripe > 0.5, "stripe mass {stripe}");
    }

    #[test]
    fn retrieval_stripe_moves_with_content() {
        // Plant the marker elsewhere: the stripe must follow (content-aware).
        let config = ModelConfig::tiny(4);
        let embedder = TokenEmbedder::new(config);
        let mut rng = sa_tensor::DeterministicRng::new(4 ^ 77);
        let proj = HeadProjections::generate(&config, HeadArchetype::retrieval(), &mut rng);
        let layout = *embedder.layout();
        for marker_pos in [40usize, 150] {
            let mut tokens: Vec<u32> = vec![BOS_TOKEN];
            for i in 0..200 {
                tokens.push(layout.filler(i));
            }
            tokens[marker_pos] = layout.marker(5);
            tokens[marker_pos + 1] = layout.payload(5);
            tokens.push(layout.marker(5));
            let hidden = embedder.embed(&tokens);
            let q = matmul(&hidden, &proj.wq).unwrap();
            let k = matmul(&hidden, &proj.wk).unwrap();
            let p = attention_probs(&q, &k, true).unwrap();
            let stripe = p.get(tokens.len() - 1, marker_pos + 1);
            assert!(stripe > 0.5, "marker at {marker_pos}: stripe {stripe}");
        }
    }

    #[test]
    fn dispersed_head_is_flat() {
        let (q, k, _, tokens) = setup(HeadArchetype::dispersed(), 5);
        let p = attention_probs(&q, &k, true).unwrap();
        let s = tokens.len();
        let max_entry = p.row(s - 1).iter().copied().fold(0.0f32, f32::max);
        // Uniform would be 1/s ≈ 0.005; allow an order of magnitude.
        assert!(max_entry < 0.1, "max entry {max_entry}");
    }

    #[test]
    fn retrieval_survives_partial_rope() {
        // Rotating the first half must not perturb the unrotated content
        // match.
        let config = ModelConfig::tiny(8);
        let embedder = TokenEmbedder::new(config);
        let mut rng = sa_tensor::DeterministicRng::new(8 ^ 77);
        let proj = HeadProjections::generate(&config, HeadArchetype::retrieval(), &mut rng);
        let layout = *embedder.layout();
        let mut tokens: Vec<u32> = vec![BOS_TOKEN];
        for i in 0..300 {
            tokens.push(layout.filler(i));
        }
        tokens[60] = layout.marker(5);
        tokens[61] = layout.payload(5);
        tokens.push(layout.marker(5));
        let hidden = embedder.embed(&tokens);
        let mut q = matmul(&hidden, &proj.wq).unwrap();
        let mut k = matmul(&hidden, &proj.wk).unwrap();
        let half = config.head_dim / 2;
        sa_kernels::rope::apply_rope_partial(&mut q, half, 0, config.preset.rope()).unwrap();
        sa_kernels::rope::apply_rope_partial(&mut k, half, 0, config.preset.rope()).unwrap();
        let p = attention_probs(&q, &k, true).unwrap();
        let stripe = p.get(tokens.len() - 1, 61);
        assert!(stripe > 0.5, "stripe after RoPE {stripe}");
    }

    /// The premise the model's narrow values rest on: in every preset,
    /// every group's value projection is exactly `+0.0` past its first
    /// `content_dim` columns, so a value row's later columns are zero
    /// whatever the input.
    #[test]
    fn value_weights_are_zero_past_the_content_columns() {
        for config in [ModelConfig::chatglm2_like(7), ModelConfig::internlm2_like(7), ModelConfig::tiny(7)] {
            let group_size = config.num_heads / config.num_kv_heads;
            let mut rng = sa_tensor::DeterministicRng::new(7);
            for layer in 0..config.num_layers {
                let archetypes: Vec<HeadArchetype> = (0..config.num_heads)
                    .map(|h| HeadArchetype::from_weights(config.archetype_weights(layer, h)))
                    .collect();
                for heads in archetypes.chunks(group_size) {
                    let (_, _, wv) = GroupProjections::weights(&config, heads, &mut rng);
                    assert_eq!(wv.cols(), config.head_dim);
                    for i in 0..wv.rows() {
                        let tail = &wv.row(i)[config.content_dim..];
                        assert!(tail.iter().all(|x| x.to_bits() == 0), "{:?} layer {layer} row {i}", config.preset);
                    }
                }
            }
        }
    }

    #[test]
    fn values_copy_content() {
        let config = ModelConfig::tiny(6);
        let embedder = TokenEmbedder::new(config);
        let tokens = vec![BOS_TOKEN, 5, 9];
        let hidden = embedder.embed(&tokens);
        let mut rng = sa_tensor::DeterministicRng::new(6);
        let proj = HeadProjections::generate(&config, HeadArchetype::local(), &mut rng);
        let v = matmul(&hidden, &proj.wv).unwrap();
        let dc = config.content_dim;
        assert_eq!(&v.row(1)[..dc], embedder.content(5));
        assert!(v.row(1)[dc..].iter().all(|&x| x == 0.0));
    }
}
