//! f32 storage that starts on a cache line.
//!
//! A 64-byte vector load from an address off a 64-byte line reads two
//! lines, and the allocator only promises 16 bytes. The engine's panels,
//! score tiles and gathered value rows are read a whole AVX-512 register
//! at a time, so they live in an [`AlignedBuf`]: a `Vec<f32>` allocated
//! 15 floats longer than needed and used from its first float on a line.
//! Safe Rust throughout: the offset comes from `align_offset`, and the
//! buffer realigns whenever it gets a new allocation (growth, clone).

/// Floats per 64-byte cache line.
const LINE_FLOATS: usize = 16;

/// A resizable run of `f32` whose first element sits on a 64-byte line.
#[derive(Debug, Default)]
pub struct AlignedBuf {
    /// The allocation; `raw[offset..offset + len]` is the buffer. Its
    /// length never changes: growth moves to a new one.
    raw: Vec<f32>,
    offset: usize,
    len: usize,
}

impl AlignedBuf {
    /// An empty buffer; allocates nothing.
    pub fn new() -> Self {
        Self::default()
    }

    /// `len` zeros.
    pub fn zeros(len: usize) -> Self {
        let mut buf = Self::new();
        buf.resize(len, 0.0);
        buf
    }

    /// Floats held.
    pub fn len(&self) -> usize {
        self.len
    }

    /// `true` when no float is held.
    pub fn is_empty(&self) -> bool {
        self.len == 0
    }

    /// The floats, from a cache-line boundary.
    pub fn as_slice(&self) -> &[f32] {
        &self.raw[self.offset..][..self.len]
    }

    /// The floats, from a cache-line boundary.
    pub fn as_mut_slice(&mut self) -> &mut [f32] {
        &mut self.raw[self.offset..][..self.len]
    }

    /// Shortens to or extends to `len` floats, new ones set to `value`.
    /// Growth past the allocation moves to one at least twice as large
    /// (so one-row appends stay amortised O(1)) and realigns.
    pub fn resize(&mut self, len: usize, value: f32) {
        if self.offset + len > self.raw.len() {
            let capacity = len.max(2 * self.len);
            let mut raw = vec![0.0f32; capacity + LINE_FLOATS - 1];
            let offset = line_offset(&raw);
            raw[offset..][..self.len].copy_from_slice(self.as_slice());
            self.raw = raw;
            self.offset = offset;
        }
        let held = self.len;
        self.len = len;
        if len > held {
            self.as_mut_slice()[held..].fill(value);
        }
    }
}

impl Clone for AlignedBuf {
    /// A copy of the floats in an allocation of its own, aligned anew.
    fn clone(&self) -> Self {
        let mut copy = Self::zeros(self.len);
        copy.as_mut_slice().copy_from_slice(self.as_slice());
        copy
    }
}

/// Floats from the start of `raw` to its first 64-byte boundary. Zero if
/// the platform cannot say (`align_offset` may decline): the buffer is
/// then merely unaligned, never wrong.
fn line_offset(raw: &[f32]) -> usize {
    let offset = raw
        .as_ptr()
        .align_offset(LINE_FLOATS * std::mem::size_of::<f32>());
    if offset < LINE_FLOATS {
        offset
    } else {
        0
    }
}

/// Whether `xs` starts on a 64-byte line: what the alignment tests ask.
#[doc(hidden)]
pub fn starts_on_line(xs: &[f32]) -> bool {
    (xs.as_ptr() as usize).is_multiple_of(LINE_FLOATS * std::mem::size_of::<f32>())
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn every_allocation_starts_on_a_line_and_keeps_the_floats() {
        let mut buf = AlignedBuf::new();
        assert!(buf.is_empty());
        let mut want = Vec::new();
        // One float at a time across several reallocations, then a jump.
        for i in 0..300 {
            buf.resize(i + 1, i as f32);
            want.push(i as f32);
            assert!(starts_on_line(buf.as_slice()), "after {} floats", i + 1);
            assert_eq!(buf.as_slice(), want.as_slice());
        }
        buf.resize(5000, -1.0);
        want.resize(5000, -1.0);
        assert!(starts_on_line(buf.as_slice()));
        assert_eq!(buf.as_slice(), want.as_slice());
        let copy = buf.clone();
        assert!(starts_on_line(copy.as_slice()));
        assert_eq!(copy.as_slice(), want.as_slice());
        buf.resize(7, 0.0);
        assert_eq!(buf.as_slice(), &want[..7]);
        buf.resize(9, 2.0);
        assert_eq!(buf.as_slice()[7..], [2.0, 2.0]);
        assert!(starts_on_line(AlignedBuf::zeros(1).as_slice()));
    }
}
