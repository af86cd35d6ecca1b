//! Per-layer key/value caches for incremental (chunked prefill and
//! decode) execution.
//!
//! The paper replaces attention only at the prefill stage and keeps "an
//! uncompressed KV cache in the decode phase" (§5.1); its serving stack
//! additionally chunks prefill along the sequence (Appendix A.6). Both
//! modes need the same machinery: per-(layer, kv-head) K/V that grow as
//! rows arrive.
//!
//! Each head holds its keys once, as [`KeyPanels`], the layout the
//! attention engine scores against: [`append`](LayerKvCache::append)
//! transposes new key rows straight into the panels, and every query head
//! of the group, every later chunk and every decode step reads them. V
//! stays row-major and holds only the value projection's content
//! columns, `value_dim` of them (the model's `content_dim`): the columns
//! past them are zero by construction and nothing reads them, so neither
//! the cache nor any attention pass over it carries them. A reader that
//! needs key rows (the H2O scorer, a checkpoint, the dense fallback)
//! copies them out of the panels with the bits they went in with;
//! eviction gathers the kept keys panel to panel.

use sa_kernels::KeyPanels;
use sa_tensor::{Matrix, TensorError};

/// One KV head's cached keys and values; `panels` and `v` hold the same
/// positions.
#[derive(Debug, Clone)]
struct HeadKv {
    panels: KeyPanels,
    v: Matrix,
}

/// The K/V cache of one layer: one `(K, V)` pair per KV head.
#[derive(Debug, Clone)]
pub struct LayerKvCache {
    entries: Vec<HeadKv>,
    head_dim: usize,
    value_dim: usize,
    /// Absolute positions appended so far (monotone; unaffected by
    /// eviction, so RoPE offsets stay correct).
    seen: usize,
}

impl LayerKvCache {
    /// An empty cache for `num_kv_heads` heads of keys `head_dim` wide
    /// and values `value_dim` wide.
    pub fn new(num_kv_heads: usize, head_dim: usize, value_dim: usize) -> Self {
        LayerKvCache {
            entries: (0..num_kv_heads)
                .map(|_| HeadKv {
                    panels: KeyPanels::new(head_dim),
                    v: Matrix::zeros(0, value_dim),
                })
                .collect(),
            head_dim,
            value_dim,
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
        self.entries.first().map_or(0, |e| e.panels.len())
    }

    /// Number of currently cached entries in a specific head.
    ///
    /// # Panics
    ///
    /// Panics if `kv_head` is out of range.
    pub fn head_len(&self, kv_head: usize) -> usize {
        self.entries[kv_head].panels.len()
    }

    /// `true` when nothing is cached yet.
    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }

    /// Number of KV heads.
    pub fn num_kv_heads(&self) -> usize {
        self.entries.len()
    }

    /// The cached keys of a KV head, as the panels the attention entry
    /// points take, and its values.
    ///
    /// # Panics
    ///
    /// Panics if `kv_head` is out of range.
    pub fn prepared(&self, kv_head: usize) -> (&KeyPanels, &Matrix) {
        let entry = &self.entries[kv_head];
        (&entry.panels, &entry.v)
    }

    /// A KV head's keys read back out as rows, and its values.
    #[cfg(test)]
    pub(crate) fn head_rows(&self, kv_head: usize) -> (Matrix, &Matrix) {
        let (keys, v) = self.prepared(kv_head);
        (keys.to_rows(), v)
    }

    /// Rebuilds a cache from checkpointed parts (see
    /// `checkpoint::SessionCheckpoint`): each head's key rows and values,
    /// the values `value_dim` wide. The caller is responsible for shape
    /// consistency; `seen` is restored verbatim so RoPE offsets survive
    /// the round trip even after eviction shrank the heads. Checkpoints
    /// hold rows, not panels: the keys are transposed here.
    pub(crate) fn from_parts(
        entries: Vec<(Matrix, Matrix)>,
        head_dim: usize,
        value_dim: usize,
        seen: usize,
    ) -> Self {
        LayerKvCache {
            entries: entries
                .into_iter()
                .map(|(k, v)| HeadKv {
                    panels: KeyPanels::from_rows(&k),
                    v,
                })
                .collect(),
            head_dim,
            value_dim,
            seen,
        }
    }

    /// The width of a cached key row (for checkpoint capture).
    pub(crate) fn head_dim(&self) -> usize {
        self.head_dim
    }

    /// The width of a cached value row: the value projection's content
    /// columns.
    pub fn value_dim(&self) -> usize {
        self.value_dim
    }

    /// Replaces a head's cached keys and values wholesale (used by
    /// eviction).
    ///
    /// # Panics
    ///
    /// Panics if `kv_head` is out of range or the widths disagree with
    /// the cache's.
    pub(crate) fn replace(&mut self, kv_head: usize, panels: KeyPanels, v: Matrix) {
        assert_eq!(panels.dim(), self.head_dim, "replace width mismatch");
        assert_eq!(v.cols(), self.value_dim, "replace width mismatch");
        assert_eq!(panels.len(), v.rows(), "replace row mismatch");
        self.entries[kv_head] = HeadKv { panels, v };
    }

    /// Appends new rows for a KV head: the keys transposed into the
    /// head's panels, the values copied after the cached rows (moved in
    /// whole into an empty head, a prompt's first chunk).
    ///
    /// # Errors
    ///
    /// Returns [`TensorError::ShapeMismatch`] if the row widths disagree
    /// with the cache's or `k`/`v` row counts differ.
    pub fn append(&mut self, kv_head: usize, k_new: Matrix, v_new: Matrix) -> Result<(), TensorError> {
        if k_new.cols() != self.head_dim || v_new.cols() != self.value_dim {
            return Err(TensorError::ShapeMismatch {
                op: "LayerKvCache::append",
                lhs: (k_new.cols(), v_new.cols()),
                rhs: (self.head_dim, self.value_dim),
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
        entry.panels.append(&k_new)?;
        if entry.v.rows() == 0 {
            entry.v = v_new;
            return Ok(());
        }
        let rows = entry.v.rows() + v_new.rows();
        let mut v = std::mem::take(&mut entry.v).into_vec();
        v.extend_from_slice(v_new.as_slice());
        entry.v = Matrix::from_vec(rows, self.value_dim, v)?;
        Ok(())
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn bits(xs: &[f32]) -> Vec<u32> {
        xs.iter().map(|x| x.to_bits()).collect()
    }

    #[test]
    fn append_grows_rows() {
        let mut c = LayerKvCache::new(2, 4, 4);
        assert!(c.is_empty());
        let k = Matrix::from_fn(3, 4, |i, j| (i + j) as f32);
        let v = Matrix::from_fn(3, 4, |i, j| (i * j) as f32);
        c.append(0, k.clone(), v.clone()).unwrap();
        c.append(1, k.clone(), v.clone()).unwrap();
        assert_eq!(c.len(), 3);
        let (ck, cv) = c.prepared(0);
        assert_eq!((ck.len(), ck.dim()), (3, 4));
        assert_eq!(cv.get(2, 3), 6.0);
        c.append(0, k.clone(), v).unwrap();
        let ck = c.prepared(0).0.to_rows();
        assert_eq!(ck.rows(), 6);
        assert_eq!(ck.get(4, 1), k.get(1, 1));
    }

    /// Keys read back out of the cache with the bits they went in with,
    /// after every way the cache changes.
    #[test]
    fn panels_follow_every_mutation() {
        let same = |c: &LayerKvCache, want: &Matrix| {
            let (keys, v) = c.prepared(0);
            assert_eq!(bits(keys.to_rows().as_slice()), bits(want.as_slice()));
            assert_eq!(bits(keys.as_slice()), bits(KeyPanels::from_rows(want).as_slice()));
            assert_eq!(v.rows(), keys.len());
        };
        let mut c = LayerKvCache::new(1, 4, 4);
        same(&c, &Matrix::zeros(0, 4));
        let rows = Matrix::from_fn(71, 4, |i, j| (i * 4 + j) as f32 - 0.5);
        c.append(0, rows.slice_rows(0, 70).unwrap(), rows.slice_rows(0, 70).unwrap())
            .unwrap();
        same(&c, &rows.slice_rows(0, 70).unwrap());
        c.append(0, rows.slice_rows(70, 71).unwrap(), rows.slice_rows(70, 71).unwrap())
            .unwrap();
        same(&c, &rows);
        let kept = rows.slice_rows(3, 40).unwrap();
        c.replace(0, KeyPanels::from_rows(&kept), kept.clone());
        same(&c, &kept);
        same(&LayerKvCache::from_parts(vec![(kept.clone(), kept.clone())], 4, 4, 71), &kept);
    }

    #[test]
    fn appends_in_any_steps_equal_one_append() {
        let k = Matrix::from_fn(70, 4, |i, j| (i * 4 + j) as f32);
        let v = Matrix::from_fn(70, 4, |i, j| -((i + 3 * j) as f32));
        let mut whole = LayerKvCache::new(2, 4, 4);
        let mut steps = LayerKvCache::new(2, 4, 4);
        for head in 0..2 {
            whole.append(head, k.clone(), v.clone()).unwrap();
            for (start, end) in [(0, 33), (33, 34), (34, 70)] {
                let rows = |m: &Matrix| m.slice_rows(start, end).unwrap();
                steps.append(head, rows(&k), rows(&v)).unwrap();
            }
        }
        assert_eq!((steps.seen(), whole.seen()), (70, 70));
        for head in 0..2 {
            let (sk, sv) = steps.prepared(head);
            let (wk, wv) = whole.prepared(head);
            assert_eq!(bits(sk.as_slice()), bits(wk.as_slice()));
            assert_eq!(sv, wv);
        }
    }

    #[test]
    fn append_validates_shapes() {
        let mut c = LayerKvCache::new(1, 4, 4);
        let bad = Matrix::zeros(2, 5);
        let ok = Matrix::zeros(2, 4);
        assert!(c.append(0, bad, ok.clone()).is_err());
        let mismatched = Matrix::zeros(3, 4);
        assert!(c.append(0, ok, mismatched).is_err());
    }

    #[test]
    fn values_are_cached_at_their_own_width() {
        let mut c = LayerKvCache::new(1, 8, 3);
        let k = Matrix::from_fn(5, 8, |i, j| (i * 8 + j) as f32);
        let v = Matrix::from_fn(5, 3, |i, j| -((i * 3 + j) as f32));
        assert!(c.append(0, k.clone(), Matrix::zeros(5, 8)).is_err(), "a head-wide value row");
        c.append(0, k.slice_rows(0, 2).unwrap(), v.slice_rows(0, 2).unwrap()).unwrap();
        c.append(0, k.slice_rows(2, 5).unwrap(), v.slice_rows(2, 5).unwrap()).unwrap();
        let (keys, cached) = c.prepared(0);
        assert_eq!((keys.dim(), c.value_dim()), (8, 3));
        assert_eq!(cached, &v);
    }
}
