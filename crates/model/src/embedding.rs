//! Structured token embeddings.
//!
//! Hidden layout per position:
//! `[content | prev-salient-content | salient-content | positional | flags]`
//!
//! - **content**: a deterministic unit vector per token id (hash-seeded) —
//!   the associative-recall payload space;
//! - **prev-content**: the previous position's content vector, recorded
//!   only when the previous token is *salient* — the substrate's stand-in
//!   for a layer-1 "previous token" head, enabling the induction-style
//!   retrieval circuit in a single attention layer. Gating by salience
//!   mirrors real retrieval heads, which fire on semantically distinctive
//!   tokens rather than on every filler word (an ungated version would
//!   let random filler repetitions dominate the attention mass);
//! - **salient-content**: the position's own content vector when the
//!   token is salient, zero otherwise — retrieval heads issue content
//!   *queries* from this slot, so only distinctive tokens retrieve. This
//!   keeps every ordinary row's stripe distribution identical (pure
//!   salience), which is precisely the high row-wise similarity the
//!   paper's stage-1 sampling relies on;
//! - **positional**: an AR(1) random-walk track whose autocorrelation
//!   decays as `pos_decay^|i-j|`, giving local heads their diagonal
//!   window;
//! - **flags**: `[bos, 1, salience]` — the BOS indicator (sink heads key
//!   on it), a constant bias channel, and a *salience* indicator set for
//!   rare/special tokens (the marker and payload vocabulary bands).
//!   Salient tokens attract elevated attention from every query in
//!   retrieval heads — mirroring the well-documented behaviour of real
//!   LLMs, where semantically anomalous tokens become attention magnets.
//!   This is what gives attention stripes their high *row-wise
//!   similarity*, the empirical premise of the paper's stage-1 sampling.

use sa_tensor::{DeterministicRng, Matrix};

use crate::{ModelConfig, VocabLayout};

/// The reserved beginning-of-sequence token id.
pub const BOS_TOKEN: u32 = 0;

/// Where a token stream stands between two positions: the state the
/// next position's embedding depends on beyond its own token. Carrying it
/// lets a decode step embed one row instead of re-embedding the stream.
#[derive(Debug, Clone)]
pub(crate) struct EmbedStream {
    /// Generator of the AR(1) positional innovations, mid-sequence.
    rng: DeterministicRng,
    /// The positional track at the last embedded position.
    pos_track: Vec<f32>,
    /// The last token (its salience gates the next row's prev-content
    /// slot); `None` before the first.
    prev: Option<u32>,
}

/// Deterministic token embedder for the synthetic transformer.
#[derive(Debug)]
pub struct TokenEmbedder {
    config: ModelConfig,
    /// `(vocab, content_dim)` unit content vectors.
    vocab_content: Matrix,
    /// Band structure used to mark salient tokens.
    layout: VocabLayout,
}

impl TokenEmbedder {
    /// Maximum pairwise cosine similarity tolerated inside the marker and
    /// payload bands. Distinct markers/answers in real vocabularies are
    /// well-separated words; without this, two random markers can be
    /// nearly collinear and retrieval confuses their facts.
    const BAND_MAX_COSINE: f32 = 0.55;

    /// Builds the embedder's vocabulary from the model seed.
    pub fn new(config: ModelConfig) -> Self {
        let mut rng = DeterministicRng::new(config.seed ^ 0x05ee_de4b);
        let layout = VocabLayout::for_vocab(config.vocab_size);
        let mut vocab_content = Matrix::zeros(config.vocab_size, config.content_dim);
        let mut band_members: Vec<usize> = Vec::new();
        for t in 0..config.vocab_size {
            let banded = layout.is_salient(t as u32);
            let mut best: Option<(f32, Vec<f32>)> = None;
            for _attempt in 0..48 {
                let v = sa_tensor::unit_vector(&mut rng, config.content_dim);
                if !banded {
                    best = Some((0.0, v));
                    break;
                }
                let worst = band_members
                    .iter()
                    .map(|&m| sa_tensor::cosine_similarity(&v, vocab_content.row(m)).abs())
                    .fold(0.0f32, f32::max);
                if best.as_ref().is_none_or(|(b, _)| worst < *b) {
                    let done = worst < Self::BAND_MAX_COSINE;
                    best = Some((worst, v));
                    if done {
                        break;
                    }
                }
            }
            let (_, v) = best.expect("at least one candidate drawn");
            vocab_content.row_mut(t).copy_from_slice(&v);
            if banded {
                band_members.push(t);
            }
        }
        TokenEmbedder {
            config,
            vocab_content,
            layout,
        }
    }

    /// The vocabulary band layout.
    pub fn layout(&self) -> &VocabLayout {
        &self.layout
    }

    /// Whether `token` is salient (marker or payload band).
    pub fn is_salient(&self, token: u32) -> bool {
        self.layout.is_salient(token)
    }

    /// The model configuration this embedder was built for.
    pub fn config(&self) -> &ModelConfig {
        &self.config
    }

    /// Content vector of a token id.
    ///
    /// # Panics
    ///
    /// Panics if `token` is outside the vocabulary.
    pub fn content(&self, token: u32) -> &[f32] {
        assert!(
            (token as usize) < self.config.vocab_size,
            "token {token} outside vocabulary ({})",
            self.config.vocab_size
        );
        self.vocab_content.row(token as usize)
    }

    /// Vocabulary size.
    pub fn vocab_size(&self) -> usize {
        self.config.vocab_size
    }

    /// Embeds a token sequence into the structured hidden matrix
    /// `(S, hidden_dim)`.
    ///
    /// The positional AR(1) track is re-seeded per call from the model
    /// seed (not the tokens), so positional geometry is shared across
    /// prompts while content varies.
    ///
    /// # Panics
    ///
    /// Panics if any token id is outside the vocabulary.
    pub fn embed(&self, tokens: &[u32]) -> Matrix {
        let mut hidden = Matrix::zeros(tokens.len(), self.config.hidden_dim());
        let mut stream = self.stream_start();
        for (i, &tok) in tokens.iter().enumerate() {
            self.embed_next(&mut stream, tok, hidden.row_mut(i));
        }
        hidden
    }

    /// The stream state before any token: what [`embed`](Self::embed)
    /// starts every call from.
    fn stream_start(&self) -> EmbedStream {
        EmbedStream {
            rng: DeterministicRng::new(self.config.seed ^ 0x9e37_79b9),
            pos_track: vec![0.0f32; self.config.pos_dim],
            prev: None,
        }
    }

    /// The stream state after `tokens`, without embedding them — what a
    /// restored decode session resumes from.
    pub(crate) fn stream_after(&self, tokens: &[u32]) -> EmbedStream {
        let mut stream = self.stream_start();
        for &tok in tokens {
            self.advance(&mut stream, tok);
        }
        stream
    }

    /// Steps the AR(1) positional track to the next position and records
    /// `tok` as the previous token; returns the token it replaces.
    fn advance(&self, stream: &mut EmbedStream, tok: u32) -> Option<u32> {
        // Innovation scale keeps the AR(1) track at unit stationary
        // variance: x_i = a x_{i-1} + sqrt(1-a^2) n_i.
        let a = self.config.pos_decay;
        let innov = (1.0 - a * a).sqrt();
        for v in stream.pos_track.iter_mut() {
            *v = a * *v + innov * stream.rng.normal();
        }
        stream.prev.replace(tok)
    }

    /// Embeds `tok` as the next position of `stream` into `row` (a zeroed
    /// row of `hidden_dim` floats): the row [`embed`](Self::embed) would
    /// produce for it at the end of the tokens `stream` has seen.
    ///
    /// # Panics
    ///
    /// Panics if `tok` is outside the vocabulary or `row` is not
    /// `hidden_dim` long.
    pub(crate) fn embed_next(&self, stream: &mut EmbedStream, tok: u32, row: &mut [f32]) {
        let c = &self.config;
        let dc = c.content_dim;
        let dp = c.pos_dim;
        assert_eq!(row.len(), c.hidden_dim(), "embedding row width mismatch");
        let prev = self.advance(stream, tok);
        let after_salient = prev.is_some_and(|p| self.layout.is_salient(p));
        let content = self.content(tok);
        row[..dc].copy_from_slice(content);
        if let Some(p) = prev.filter(|_| after_salient) {
            row[dc..2 * dc].copy_from_slice(self.content(p));
        }
        let salient = self.layout.is_salient(tok);
        if salient {
            row[2 * dc..3 * dc].copy_from_slice(content);
        }
        row[3 * dc..3 * dc + dp].copy_from_slice(&stream.pos_track);
        row[3 * dc + dp] = if prev.is_none() || tok == BOS_TOKEN { 1.0 } else { 0.0 };
        row[3 * dc + dp + 1] = 1.0;
        row[3 * dc + dp + 2] = if salient { 1.0 } else { 0.0 };
        // Positions following a salient token are induction targets
        // (fact payloads): the most anomalous positions in the
        // stream, attracting even more attention than lone salient
        // tokens — so stage-2 ranks true facts above decoys at any
        // depth.
        row[3 * dc + dp + 3] = if after_salient { 1.0 } else { 0.0 };
    }

    /// Nearest vocabulary token to a content vector, by cosine similarity.
    ///
    /// Returns `(token, similarity)`.
    ///
    /// # Panics
    ///
    /// Panics if `v.len() != content_dim`.
    pub fn nearest_token(&self, v: &[f32]) -> (u32, f32) {
        self.nearest_token_in(v, 0..self.config.vocab_size as u32)
    }

    /// Nearest token within a candidate id range (constrained decoding, as
    /// benchmark scorers restrict answers to the valid-answer set).
    ///
    /// # Panics
    ///
    /// Panics if `v.len() != content_dim`, the range is empty, or it
    /// exceeds the vocabulary.
    pub fn nearest_token_in(&self, v: &[f32], range: std::ops::Range<u32>) -> (u32, f32) {
        assert_eq!(v.len(), self.config.content_dim, "content dim mismatch");
        assert!(
            !range.is_empty() && range.end as usize <= self.config.vocab_size,
            "invalid candidate range {range:?} for vocab {}",
            self.config.vocab_size
        );
        let mut best = (range.start, f32::NEG_INFINITY);
        for t in range {
            let sim = sa_tensor::cosine_similarity(v, self.vocab_content.row(t as usize));
            if sim > best.1 {
                best = (t, sim);
            }
        }
        best
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn embedder() -> TokenEmbedder {
        TokenEmbedder::new(ModelConfig::tiny(42))
    }

    #[test]
    fn content_vectors_are_unit_and_distinct() {
        let e = embedder();
        let a = e.content(1);
        let b = e.content(2);
        let na: f32 = a.iter().map(|x| x * x).sum::<f32>().sqrt();
        assert!((na - 1.0).abs() < 1e-5);
        assert!(sa_tensor::cosine_similarity(a, b).abs() < 0.9);
    }

    #[test]
    fn embed_layout() {
        let e = embedder();
        let dc = e.config().content_dim;
        let dp = e.config().pos_dim;
        let layout = *e.layout();
        let marker = layout.marker(2);
        let filler = layout.filler(0);
        let h = e.embed(&[BOS_TOKEN, marker, filler, filler]);
        assert_eq!(h.shape(), (4, e.config().hidden_dim()));
        // content slot matches vocab
        assert_eq!(&h.row(1)[..dc], e.content(marker));
        // prev slot of position 2 records the salient marker
        assert_eq!(&h.row(2)[dc..2 * dc], e.content(marker));
        // prev slot after a non-salient filler stays zero
        assert!(h.row(3)[dc..2 * dc].iter().all(|&x| x == 0.0));
        // prev slot of position 0 is zero
        assert!(h.row(0)[dc..2 * dc].iter().all(|&x| x == 0.0));
        // salient-content slot: set on the marker row, zero on fillers
        assert_eq!(&h.row(1)[2 * dc..3 * dc], e.content(marker));
        assert!(h.row(2)[2 * dc..3 * dc].iter().all(|&x| x == 0.0));
        // BOS flag set only at position 0
        assert_eq!(h.row(0)[3 * dc + dp], 1.0);
        assert_eq!(h.row(1)[3 * dc + dp], 0.0);
        // bias channel always 1; salience flag set on the marker
        assert!(h.row(2)[3 * dc + dp + 1] == 1.0);
        assert_eq!(h.row(1)[3 * dc + dp + 2], 1.0);
        assert_eq!(h.row(2)[3 * dc + dp + 2], 0.0);
        // prev-salience flag: set right after the marker only
        assert_eq!(h.row(2)[3 * dc + dp + 3], 1.0);
        assert_eq!(h.row(3)[3 * dc + dp + 3], 0.0);
    }

    #[test]
    fn positional_track_locally_correlated() {
        let e = embedder();
        let dc = e.config().content_dim;
        let dp = e.config().pos_dim;
        let tokens: Vec<u32> = (0..200).map(|i| (i % 50 + 1) as u32).collect();
        let h = e.embed(&tokens);
        let pos = |i: usize| &h.row(i)[3 * dc..3 * dc + dp];
        let near = sa_tensor::cosine_similarity(pos(100), pos(101));
        let far = sa_tensor::cosine_similarity(pos(100), pos(180));
        assert!(near > 0.6, "near correlation {near}");
        assert!(far.abs() < near, "far {far} vs near {near}");
    }

    #[test]
    fn nearest_token_round_trips() {
        let e = embedder();
        for t in [1u32, 7, 100] {
            let (got, sim) = e.nearest_token(e.content(t));
            assert_eq!(got, t);
            assert!(sim > 0.999);
        }
    }

    #[test]
    fn banded_tokens_are_well_separated() {
        let e = embedder();
        let layout = *e.layout();
        let mut worst = 0.0f32;
        for i in 0..layout.num_markers() {
            for j in 0..layout.num_payloads() {
                let a = e.content(layout.marker(i));
                let b = e.content(layout.payload(j));
                worst = worst.max(sa_tensor::cosine_similarity(a, b).abs());
            }
        }
        for i in 0..layout.num_markers() {
            for j in (i + 1)..layout.num_markers() {
                let a = e.content(layout.marker(i));
                let b = e.content(layout.marker(j));
                worst = worst.max(sa_tensor::cosine_similarity(a, b).abs());
            }
        }
        // Rejection sampling keeps band members below ~0.55 + slack for
        // the occasional best-effort fallback.
        assert!(worst < 0.70, "worst in-band cosine {worst}");
    }

    #[test]
    fn embedding_is_deterministic() {
        let e1 = embedder();
        let e2 = embedder();
        let t = [1u32, 2, 3, 4];
        assert_eq!(e1.embed(&t), e2.embed(&t));
    }

    #[test]
    fn resumed_stream_embeds_the_row_a_full_embed_would() {
        let e = embedder();
        let layout = *e.layout();
        // Salient tokens back to back, a BOS mid-stream, plain filler.
        let tokens = [
            BOS_TOKEN,
            layout.filler(3),
            layout.marker(1),
            layout.payload(2),
            layout.filler(0),
            BOS_TOKEN,
            layout.marker(0),
            layout.filler(5),
        ];
        let full = e.embed(&tokens);
        for n in 0..tokens.len() {
            let mut stream = e.stream_after(&tokens[..n]);
            let mut row = vec![0.0f32; e.config().hidden_dim()];
            e.embed_next(&mut stream, tokens[n], &mut row);
            let got: Vec<u32> = row.iter().map(|x| x.to_bits()).collect();
            let want: Vec<u32> = full.row(n).iter().map(|x| x.to_bits()).collect();
            assert_eq!(got, want, "position {n}");
        }
    }

    #[test]
    #[should_panic(expected = "outside vocabulary")]
    fn out_of_vocab_panics() {
        let e = embedder();
        let _ = e.content(100_000);
    }
}
