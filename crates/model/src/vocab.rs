//! Vocabulary banding for the synthetic tasks.
//!
//! The model's vocabulary is partitioned into bands so scorers can
//! constrain decoding to valid answers (as real benchmark harnesses do):
//!
//! ```text
//! [0]                 BOS
//! [1 .. 10)           reserved (1 = blank separator)
//! [10 .. markers_end) marker tokens (question keys)
//! [.. payloads_end)   payload tokens (the only valid answers)
//! [payloads_end ..)   filler tokens (haystack text)
//! ```

/// The reserved blank/separator token.
pub const BLANK_TOKEN: u32 = 1;

/// Partition of a vocabulary into marker / payload / filler bands.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct VocabLayout {
    markers_start: u32,
    payloads_start: u32,
    fillers_start: u32,
    vocab_size: u32,
}

impl VocabLayout {
    /// Standard banding for a vocabulary of `vocab_size` tokens.
    ///
    /// # Panics
    ///
    /// Panics if `vocab_size < 64` (too small to band).
    pub fn for_vocab(vocab_size: usize) -> Self {
        assert!(vocab_size >= 64, "vocabulary too small to band: {vocab_size}");
        let v = vocab_size as u32;
        // ~17% markers, ~17% payloads, rest filler.
        let markers_start = 10;
        let payloads_start = markers_start + (v - 10) / 6;
        let fillers_start = payloads_start + (v - 10) / 6;
        VocabLayout {
            markers_start,
            payloads_start,
            fillers_start,
            vocab_size: v,
        }
    }

    /// The `i`-th marker token.
    ///
    /// # Panics
    ///
    /// Panics if `i` exceeds the marker band.
    pub fn marker(&self, i: usize) -> u32 {
        let t = self.markers_start + i as u32;
        assert!(t < self.payloads_start, "marker index {i} out of band");
        t
    }

    /// The `i`-th payload token.
    ///
    /// # Panics
    ///
    /// Panics if `i` exceeds the payload band.
    pub fn payload(&self, i: usize) -> u32 {
        let t = self.payloads_start + i as u32;
        assert!(t < self.fillers_start, "payload index {i} out of band");
        t
    }

    /// The `i`-th filler token (wraps around the filler band).
    pub fn filler(&self, i: usize) -> u32 {
        let band = self.vocab_size - self.fillers_start;
        self.fillers_start + (i as u32 % band)
    }

    /// Number of distinct markers available.
    pub fn num_markers(&self) -> usize {
        (self.payloads_start - self.markers_start) as usize
    }

    /// Number of distinct payloads available.
    pub fn num_payloads(&self) -> usize {
        (self.fillers_start - self.payloads_start) as usize
    }

    /// The payload band as a decoding range.
    pub fn payload_range(&self) -> std::ops::Range<u32> {
        self.payloads_start..self.fillers_start
    }

    /// Whether `t` is a *salient* token: a marker or payload. Salient
    /// tokens are rare in running text, and the synthetic model (like
    /// real LLMs) gives them elevated attention from every query.
    pub fn is_salient(&self, t: u32) -> bool {
        (self.markers_start..self.fillers_start).contains(&t)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn bands_are_disjoint_and_ordered() {
        let v = VocabLayout::for_vocab(512);
        assert!(v.marker(0) >= 10);
        assert!(v.marker(v.num_markers() - 1) < v.payload(0));
        assert!(v.payload(v.num_payloads() - 1) < v.filler(0));
        assert!(v.filler(10_000) < 512);
    }

    #[test]
    fn payload_range_covers_band() {
        let v = VocabLayout::for_vocab(512);
        let r = v.payload_range();
        assert_eq!(r.start, v.payload(0));
        assert_eq!(r.end - r.start, v.num_payloads() as u32);
    }

    #[test]
    fn small_vocab_still_usable() {
        let v = VocabLayout::for_vocab(128);
        assert!(v.num_markers() >= 15);
        assert!(v.num_payloads() >= 15);
    }

    #[test]
    #[should_panic(expected = "too small")]
    fn tiny_vocab_rejected() {
        let _ = VocabLayout::for_vocab(32);
    }

    #[test]
    #[should_panic(expected = "out of band")]
    fn marker_overflow_panics() {
        let v = VocabLayout::for_vocab(128);
        let _ = v.marker(v.num_markers());
    }
}
