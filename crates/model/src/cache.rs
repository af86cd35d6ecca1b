//! Per-layer key/value caches for incremental (chunked prefill and
//! decode) execution.
//!
//! The paper replaces attention only at the prefill stage and keeps "an
//! uncompressed KV cache in the decode phase" (§5.1); its serving stack
//! additionally chunks prefill along the sequence (Appendix A.6). Both
//! modes need the same machinery: per-(layer, kv-head) K/V matrices that
//! grow as rows arrive.
//!
//! Each head's K is also held as [`KeyPanels`], the layout the attention
//! engine scores against, kept in step at the three places K changes
//! ([`append`](LayerKvCache::append), `replace`, `from_parts`): every
//! query head of the group, every later chunk and every decode step
//! reads the same panels instead of transposing K again.

use sa_kernels::{KeyPanels, PreparedKeys};
use sa_tensor::{Matrix, TensorError};

/// One KV head's cached rows. `panels` always holds exactly the rows of
/// `k`.
#[derive(Debug, Clone)]
struct HeadKv {
    k: Matrix,
    v: Matrix,
    panels: KeyPanels,
}

impl HeadKv {
    fn new(k: Matrix, v: Matrix) -> Self {
        let panels = KeyPanels::from_rows(&k);
        HeadKv { k, v, panels }
    }
}

/// The K/V cache of one layer: one `(K, V)` pair per KV head.
#[derive(Debug, Clone)]
pub struct LayerKvCache {
    entries: Vec<HeadKv>,
    head_dim: usize,
    /// Absolute positions appended so far (monotone; unaffected by
    /// eviction, so RoPE offsets stay correct).
    seen: usize,
}

impl LayerKvCache {
    /// An empty cache for `num_kv_heads` heads of dimension `head_dim`.
    pub fn new(num_kv_heads: usize, head_dim: usize) -> Self {
        LayerKvCache {
            entries: (0..num_kv_heads)
                .map(|_| HeadKv::new(Matrix::zeros(0, head_dim), Matrix::zeros(0, head_dim)))
                .collect(),
            head_dim,
            seen: 0,
        }
    }

    /// Total positions ever appended (the next row's absolute position).
    /// Unlike [`len`](Self::len), eviction does not reduce this.
    pub fn seen(&self) -> usize {
        self.seen
    }

    /// Number of currently cached entries in head 0 (heads may diverge
    /// after per-head eviction; see [`head_len`](Self::head_len)).
    pub fn len(&self) -> usize {
        self.entries.first().map_or(0, |e| e.k.rows())
    }

    /// Number of currently cached entries in a specific head.
    ///
    /// # Panics
    ///
    /// Panics if `kv_head` is out of range.
    pub fn head_len(&self, kv_head: usize) -> usize {
        self.entries[kv_head].k.rows()
    }

    /// `true` when nothing is cached yet.
    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }

    /// Number of KV heads.
    pub fn num_kv_heads(&self) -> usize {
        self.entries.len()
    }

    /// The cached `(K, V)` of a KV head.
    ///
    /// # Panics
    ///
    /// Panics if `kv_head` is out of range.
    pub fn head(&self, kv_head: usize) -> (&Matrix, &Matrix) {
        let entry = &self.entries[kv_head];
        (&entry.k, &entry.v)
    }

    /// The cached keys of a KV head with their resident panels, and its
    /// values — what the attention entry points that skip the per-call
    /// transpose take.
    ///
    /// # Panics
    ///
    /// Panics if `kv_head` is out of range.
    pub fn prepared(&self, kv_head: usize) -> (PreparedKeys<'_>, &Matrix) {
        let entry = &self.entries[kv_head];
        (PreparedKeys::new(&entry.k, &entry.panels), &entry.v)
    }

    /// Rebuilds a cache from checkpointed parts (see
    /// `checkpoint::SessionCheckpoint`). The caller is responsible for
    /// shape consistency; `seen` is restored verbatim so RoPE offsets
    /// survive the round trip even after eviction shrank the heads. The
    /// panels are rebuilt from K: checkpoints do not carry them.
    pub(crate) fn from_parts(entries: Vec<(Matrix, Matrix)>, head_dim: usize, seen: usize) -> Self {
        LayerKvCache {
            entries: entries
                .into_iter()
                .map(|(k, v)| HeadKv::new(k, v))
                .collect(),
            head_dim,
            seen,
        }
    }

    /// The cache's per-head row width (for checkpoint capture).
    pub(crate) fn head_dim(&self) -> usize {
        self.head_dim
    }

    /// Replaces a head's cached `(K, V)` wholesale (used by eviction);
    /// the panels are rebuilt from the new K.
    ///
    /// # Panics
    ///
    /// Panics if `kv_head` is out of range or the widths disagree with
    /// the cache's head dimension.
    pub(crate) fn replace(&mut self, kv_head: usize, k: Matrix, v: Matrix) {
        assert_eq!(k.cols(), self.head_dim, "replace width mismatch");
        assert_eq!(v.cols(), self.head_dim, "replace width mismatch");
        assert_eq!(k.rows(), v.rows(), "replace row mismatch");
        self.entries[kv_head] = HeadKv::new(k, v);
    }

    /// Appends new rows for a KV head. Into an empty head (a prompt's
    /// first chunk) the matrices move in whole; otherwise each is one
    /// contiguous copy after the cached rows.
    ///
    /// # Errors
    ///
    /// Returns [`TensorError::ShapeMismatch`] if the row widths disagree
    /// with the cache's head dimension or `k`/`v` row counts differ.
    pub fn append(&mut self, kv_head: usize, k_new: Matrix, v_new: Matrix) -> Result<(), TensorError> {
        if k_new.cols() != self.head_dim || v_new.cols() != self.head_dim {
            return Err(TensorError::ShapeMismatch {
                op: "LayerKvCache::append",
                lhs: k_new.shape(),
                rhs: (self.head_dim, self.head_dim),
            });
        }
        if k_new.rows() != v_new.rows() {
            return Err(TensorError::ShapeMismatch {
                op: "LayerKvCache::append(k,v)",
                lhs: k_new.shape(),
                rhs: v_new.shape(),
            });
        }
        if kv_head == 0 {
            self.seen += k_new.rows();
        }
        let entry = &mut self.entries[kv_head];
        let old_rows = entry.k.rows();
        if old_rows == 0 {
            *entry = HeadKv::new(k_new, v_new);
            return Ok(());
        }
        let new_rows = old_rows + k_new.rows();
        let mut k = std::mem::take(&mut entry.k).into_vec();
        let mut v = std::mem::take(&mut entry.v).into_vec();
        k.extend_from_slice(k_new.as_slice());
        v.extend_from_slice(v_new.as_slice());
        entry.k = Matrix::from_vec(new_rows, self.head_dim, k)
            .expect("dimensions consistent by construction");
        entry.v = Matrix::from_vec(new_rows, self.head_dim, v)
            .expect("dimensions consistent by construction");
        entry.panels.append_from(&entry.k, old_rows)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn append_grows_rows() {
        let mut c = LayerKvCache::new(2, 4);
        assert!(c.is_empty());
        let k = Matrix::from_fn(3, 4, |i, j| (i + j) as f32);
        let v = Matrix::from_fn(3, 4, |i, j| (i * j) as f32);
        c.append(0, k.clone(), v.clone()).unwrap();
        c.append(1, k.clone(), v.clone()).unwrap();
        assert_eq!(c.len(), 3);
        let (ck, cv) = c.head(0);
        assert_eq!(ck.shape(), (3, 4));
        assert_eq!(cv.get(2, 3), 6.0);
        c.append(0, k.clone(), v).unwrap();
        let (ck, _) = c.head(0);
        assert_eq!(ck.rows(), 6);
        assert_eq!(ck.get(4, 1), k.get(1, 1));
    }

    #[test]
    fn panels_follow_every_mutation() {
        let bits = |p: &KeyPanels| -> Vec<u32> { p.as_slice().iter().map(|x| x.to_bits()).collect() };
        let same = |c: &LayerKvCache| {
            let (keys, _) = c.prepared(0);
            assert_eq!(keys.panels().len(), keys.rows().rows());
            assert_eq!(bits(keys.panels()), bits(&KeyPanels::from_rows(keys.rows())));
        };
        let mut c = LayerKvCache::new(1, 4);
        same(&c);
        let rows = Matrix::from_fn(70, 4, |i, j| (i * 4 + j) as f32);
        c.append(0, rows.clone(), rows.clone()).unwrap();
        same(&c);
        c.append(0, rows.slice_rows(0, 1).unwrap(), rows.slice_rows(0, 1).unwrap())
            .unwrap();
        same(&c);
        let kept = rows.slice_rows(3, 40).unwrap();
        c.replace(0, kept.clone(), kept.clone());
        same(&c);
        same(&LayerKvCache::from_parts(vec![(kept.clone(), kept)], 4, 71));
    }

    #[test]
    fn appends_in_any_steps_equal_one_append() {
        let k = Matrix::from_fn(70, 4, |i, j| (i * 4 + j) as f32);
        let v = Matrix::from_fn(70, 4, |i, j| -((i + 3 * j) as f32));
        let mut whole = LayerKvCache::new(2, 4);
        let mut steps = LayerKvCache::new(2, 4);
        for head in 0..2 {
            whole.append(head, k.clone(), v.clone()).unwrap();
            for (start, end) in [(0, 33), (33, 34), (34, 70)] {
                let rows = |m: &Matrix| m.slice_rows(start, end).unwrap();
                steps.append(head, rows(&k), rows(&v)).unwrap();
            }
        }
        assert_eq!((steps.seen(), whole.seen()), (70, 70));
        for head in 0..2 {
            assert_eq!(steps.head(head), whole.head(head));
            let panels = |c: &LayerKvCache| c.prepared(head).0.panels().as_slice().to_vec();
            assert_eq!(panels(&steps), panels(&whole));
        }
    }

    #[test]
    fn append_validates_shapes() {
        let mut c = LayerKvCache::new(1, 4);
        let bad = Matrix::zeros(2, 5);
        let ok = Matrix::zeros(2, 4);
        assert!(c.append(0, bad, ok.clone()).is_err());
        let mismatched = Matrix::zeros(3, 4);
        assert!(c.append(0, ok, mismatched).is_err());
    }
}
