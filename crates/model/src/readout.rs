//! Associative-recall readout: decode attention outputs back to tokens.
//!
//! Tasks plant `marker → payload` token pairs; the induction-style
//! retrieval heads fetch the payload's content embedding into their output
//! at the question position. The readout averages the retrieval heads'
//! content outputs and snaps to the nearest vocabulary embedding. A sparse
//! attention method that dropped the payload's KV produces a different
//! nearest token — task failure, exactly as in the paper's benchmarks.

use sa_tensor::Matrix;

use crate::{HeadArchetype, HeadReport, TokenEmbedder};

/// Minimum retrieval weight for a head to participate in the readout.
const RETRIEVAL_HEAD_THRESHOLD: f32 = 0.5;

/// Aggregates retrieval-head outputs into answer vectors.
#[derive(Debug, Clone)]
pub struct Readout {
    /// Indices (into the flattened head list) of participating heads.
    retrieval_heads: Vec<usize>,
}

impl Readout {
    /// Builds a readout from the flattened per-head reports of a prefill,
    /// selecting heads with a dominant retrieval component outside layer 0
    /// (layer 0 is deliberately dense/dispersed).
    pub fn from_reports(reports: &[HeadReport]) -> Self {
        let retrieval_heads = reports
            .iter()
            .enumerate()
            .filter(|(_, r)| Self::reads(r.layer, &r.archetype))
            .map(|(i, _)| i)
            .collect();
        Readout { retrieval_heads }
    }

    /// Whether the readout reads a head of `layer` with `archetype` — the
    /// one rule [`from_reports`](Self::from_reports) and a cache-keeping
    /// prompt run's retention share.
    pub(crate) fn reads(layer: usize, archetype: &HeadArchetype) -> bool {
        layer > 0 && archetype.retrieval >= RETRIEVAL_HEAD_THRESHOLD
    }

    /// Number of participating heads.
    pub fn num_heads(&self) -> usize {
        self.retrieval_heads.len()
    }

    /// The answer vector at sequence position `pos`: the mean content
    /// output of the retrieval heads.
    ///
    /// Returns `None` when no retrieval heads exist (degenerate models).
    ///
    /// # Panics
    ///
    /// Panics if `pos` is out of range or `head_contents` does not match
    /// the reports this readout was built from.
    pub fn answer_vector(&self, head_contents: &[Matrix], pos: usize) -> Option<Vec<f32>> {
        if self.retrieval_heads.is_empty() {
            return None;
        }
        let dc = head_contents[self.retrieval_heads[0]].cols();
        let mut acc = vec![0.0f32; dc];
        for &h in &self.retrieval_heads {
            let row = head_contents[h].row(pos);
            for (a, &x) in acc.iter_mut().zip(row) {
                *a += x;
            }
        }
        let inv = 1.0 / self.retrieval_heads.len() as f32;
        for a in &mut acc {
            *a *= inv;
        }
        Some(acc)
    }
}

/// Snaps a content vector to the nearest vocabulary token.
///
/// Returns `(token, cosine_similarity)`.
pub fn decode_nearest_token(embedder: &TokenEmbedder, v: &[f32]) -> (u32, f32) {
    embedder.nearest_token(v)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::ModelConfig;
    use sa_kernels::CostReport;

    fn report(layer: usize, head: usize, retrieval: f32) -> HeadReport {
        HeadReport {
            layer,
            head,
            archetype: HeadArchetype::from_weights((0.1, 0.1, retrieval, 0.1)),
            density: 1.0,
            alpha_satisfied: true,
            fell_back: false,
            fallback_reason: sa_core::FallbackReason::None,
            cost: CostReport::new(),
        }
    }

    #[test]
    fn selects_only_late_retrieval_heads() {
        let reports = vec![
            report(0, 0, 1.0), // layer 0 → excluded
            report(1, 0, 1.0),
            report(1, 1, 0.0),
            report(2, 0, 0.6),
        ];
        let r = Readout::from_reports(&reports);
        assert_eq!(r.num_heads(), 2);
        assert_eq!(r.retrieval_heads, vec![1, 3]);
    }

    #[test]
    fn answer_vector_averages() {
        let reports = vec![report(1, 0, 1.0), report(1, 1, 1.0)];
        let r = Readout::from_reports(&reports);
        let contents = vec![
            Matrix::from_rows(&[vec![1.0, 0.0]]).unwrap(),
            Matrix::from_rows(&[vec![0.0, 1.0]]).unwrap(),
        ];
        let v = r.answer_vector(&contents, 0).unwrap();
        assert_eq!(v, vec![0.5, 0.5]);
    }

    #[test]
    fn empty_readout_returns_none() {
        let r = Readout::from_reports(&[report(1, 0, 0.0)]);
        assert!(r.answer_vector(&[Matrix::zeros(1, 2)], 0).is_none());
    }

    #[test]
    fn decode_round_trip() {
        let embedder = TokenEmbedder::new(ModelConfig::tiny(1));
        let (tok, sim) = decode_nearest_token(&embedder, embedder.content(42));
        assert_eq!(tok, 42);
        assert!(sim > 0.999);
    }
}
