//! Decode-phase KV-cache eviction policies.
//!
//! The paper positions SampleAttention as *orthogonal* to KV-cache
//! eviction: "SampleAttention aims to reduce the computation overhead of
//! attention, and is orthogonal and can be combined with existing KV
//! cache eviction approaches [H2O, SparQ, gist tokens] to further reduce
//! memory consumption" (§1). This module implements the two classic
//! eviction families so the combination can actually be exercised:
//!
//! - [`EvictionPolicy::H2o`] — heavy-hitter oracle (Zhang et al., 2024):
//!   keep the `recent` newest entries plus the highest-accumulated-score
//!   "heavy hitters" up to the budget;
//! - [`EvictionPolicy::StreamingSinks`] — StreamingLLM-style: keep the
//!   first `sinks` entries and the newest remainder of the budget.
//!
//! Policies act on a [`crate::LayerKvCache`] per (layer, KV head), using
//! attention scores accumulated during decoding.

use sa_tensor::{Matrix, TensorError};
use sa_json::{FromJson, Json, JsonError, ToJson};

use crate::LayerKvCache;

/// Which entries to keep when the cache exceeds its budget.
#[derive(Debug, Clone, Copy, PartialEq)]
pub enum EvictionPolicy {
    /// Never evict (the paper's evaluation setting: uncompressed cache).
    None,
    /// H2O: `recent` newest entries + heavy hitters by accumulated score.
    H2o {
        /// Number of newest entries always kept.
        recent: usize,
    },
    /// StreamingLLM: `sinks` oldest entries + newest remainder.
    StreamingSinks {
        /// Number of initial (sink) entries always kept.
        sinks: usize,
    },
}

// Externally tagged, matching the previous derive: `"None"` for the unit
// variant, `{"H2o":{"recent":n}}` / `{"StreamingSinks":{"sinks":n}}` for
// the payload variants.
impl ToJson for EvictionPolicy {
    fn to_json(&self) -> Json {
        match self {
            EvictionPolicy::None => Json::Str("None".to_string()),
            EvictionPolicy::H2o { recent } => Json::Object(vec![(
                "H2o".to_string(),
                Json::Object(vec![("recent".to_string(), recent.to_json())]),
            )]),
            EvictionPolicy::StreamingSinks { sinks } => Json::Object(vec![(
                "StreamingSinks".to_string(),
                Json::Object(vec![("sinks".to_string(), sinks.to_json())]),
            )]),
        }
    }
}

impl FromJson for EvictionPolicy {
    fn from_json(v: &Json) -> Result<Self, JsonError> {
        if let Some("None") = v.as_str() {
            return Ok(EvictionPolicy::None);
        }
        let fields = match v {
            Json::Object(fields) if fields.len() == 1 => fields,
            _ => {
                return Err(JsonError::new(format!(
                    "EvictionPolicy: expected \"None\" or single-variant object, got {}",
                    v.kind()
                )))
            }
        };
        let (tag, payload) = &fields[0];
        let field = |name: &str| {
            payload
                .get(name)
                .ok_or_else(|| JsonError::new(format!("EvictionPolicy::{tag}: missing `{name}`")))
                .and_then(usize::from_json)
        };
        match tag.as_str() {
            "H2o" => Ok(EvictionPolicy::H2o { recent: field("recent")? }),
            "StreamingSinks" => Ok(EvictionPolicy::StreamingSinks { sinks: field("sinks")? }),
            other => Err(JsonError::new(format!(
                "EvictionPolicy: unknown variant `{other}`"
            ))),
        }
    }
}

/// Eviction configuration: policy + cache budget in entries.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct EvictionConfig {
    /// The policy to apply.
    pub policy: EvictionPolicy,
    /// Maximum cached entries per (layer, KV head); 0 = unlimited.
    pub budget: usize,
}

sa_json::impl_json_struct!(EvictionConfig { policy, budget });

impl EvictionConfig {
    /// The paper's setting: no eviction.
    pub fn none() -> Self {
        EvictionConfig {
            policy: EvictionPolicy::None,
            budget: 0,
        }
    }

    /// H2O with the given budget, keeping 25 % of it as recency.
    pub fn h2o(budget: usize) -> Self {
        EvictionConfig {
            policy: EvictionPolicy::H2o {
                recent: (budget / 4).max(1),
            },
            budget,
        }
    }

    /// StreamingLLM-style with the given budget and 4 sinks.
    pub fn streaming(budget: usize) -> Self {
        EvictionConfig {
            policy: EvictionPolicy::StreamingSinks { sinks: 4 },
            budget,
        }
    }

    /// Computes the keep-set (sorted cache indices) for a cache of `len`
    /// entries with per-entry accumulated attention `scores`.
    ///
    /// Returns `Ok(None)` when nothing needs evicting.
    ///
    /// # Errors
    ///
    /// Returns [`TensorError::InvalidDimension`] when `scores.len()`
    /// disagrees with `len` — a desynchronized score track would
    /// otherwise rank entries by another head's statistics and corrupt
    /// the cache silently.
    pub fn keep_indices(&self, len: usize, scores: &[f64]) -> Result<Option<Vec<usize>>, TensorError> {
        if scores.len() != len {
            return Err(TensorError::InvalidDimension {
                op: "EvictionConfig::keep_indices",
                what: format!(
                    "score track has {} entries for a cache of {len}",
                    scores.len()
                ),
            });
        }
        if self.budget == 0 || len <= self.budget {
            return Ok(None);
        }
        Ok(match self.policy {
            EvictionPolicy::None => None,
            EvictionPolicy::H2o { recent } => {
                let recent = recent.min(self.budget);
                let heavy_quota = self.budget - recent;
                let recent_start = len - recent;
                // Rank the non-recent entries by accumulated score.
                let mut older: Vec<usize> = (0..recent_start).collect();
                older.sort_by(|&a, &b| {
                    scores[b]
                        .partial_cmp(&scores[a])
                        .unwrap_or(std::cmp::Ordering::Equal)
                });
                let mut keep: Vec<usize> = older.into_iter().take(heavy_quota).collect();
                keep.extend(recent_start..len);
                keep.sort_unstable();
                Some(keep)
            }
            EvictionPolicy::StreamingSinks { sinks } => {
                let sinks = sinks.min(self.budget);
                let recent = self.budget - sinks;
                let mut keep: Vec<usize> = (0..sinks.min(len)).collect();
                keep.extend((len - recent.min(len))..len);
                keep.sort_unstable();
                keep.dedup();
                Some(keep)
            }
        })
    }
}

impl LayerKvCache {
    /// Retains only the given (strictly increasing, in-range) entries in
    /// every head.
    ///
    /// # Errors
    ///
    /// Returns [`TensorError::IndexOutOfBounds`] if any index exceeds the
    /// cache length, or [`TensorError::InvalidDimension`] when the
    /// keep-set is not strictly increasing (duplicate or out-of-order
    /// indices).
    pub fn retain(&mut self, keep: &[usize]) -> Result<(), TensorError> {
        for h in 0..self.num_kv_heads() {
            self.retain_head(h, keep)?;
        }
        Ok(())
    }

    /// Retains only the given entries in one head (H2O evicts per head;
    /// head lengths may diverge afterwards).
    ///
    /// The keep-set must be strictly increasing: a duplicated index would
    /// silently double a KV entry (and desynchronize the position-score
    /// bookkeeping above it), and an out-of-order set would reorder the
    /// cache against RoPE positions — both corruptions used to slip
    /// through and are now typed errors.
    ///
    /// # Errors
    ///
    /// Returns [`TensorError::IndexOutOfBounds`] if any index exceeds the
    /// head's cache length, or [`TensorError::InvalidDimension`] for
    /// duplicate or out-of-order indices.
    pub fn retain_head(&mut self, kv_head: usize, keep: &[usize]) -> Result<(), TensorError> {
        let len = self.head_len(kv_head);
        if let Some(&bad) = keep.iter().find(|&&i| i >= len) {
            return Err(TensorError::IndexOutOfBounds {
                op: "LayerKvCache::retain_head",
                index: bad,
                bound: len,
            });
        }
        if let Some(w) = keep.windows(2).find(|w| w[0] >= w[1]) {
            let what = if w[0] == w[1] {
                format!("duplicate keep index {}", w[0])
            } else {
                format!("keep indices out of order: {} before {}", w[0], w[1])
            };
            return Err(TensorError::InvalidDimension {
                op: "LayerKvCache::retain_head",
                what,
            });
        }
        let (keys, v) = self.prepared(kv_head);
        let kept = keys.gathered(keep);
        let v_new = gather_rows(v, keep);
        self.replace(kv_head, kept, v_new);
        Ok(())
    }
}

fn gather_rows(m: &Matrix, idx: &[usize]) -> Matrix {
    let mut out = Matrix::zeros(idx.len(), m.cols());
    for (dst, &src) in idx.iter().enumerate() {
        out.row_mut(dst).copy_from_slice(m.row(src));
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn no_eviction_below_budget() {
        let cfg = EvictionConfig::h2o(10);
        assert!(cfg.keep_indices(10, &[0.0; 10]).unwrap().is_none());
        assert!(cfg.keep_indices(5, &[0.0; 5]).unwrap().is_none());
        assert!(EvictionConfig::none()
            .keep_indices(100, &vec![0.0; 100])
            .unwrap()
            .is_none());
    }

    #[test]
    fn h2o_keeps_heavy_hitters_and_recents() {
        let cfg = EvictionConfig {
            policy: EvictionPolicy::H2o { recent: 2 },
            budget: 4,
        };
        // entry 1 is the heavy hitter; 8, 9 are recent.
        let mut scores = vec![0.1; 10];
        scores[1] = 9.0;
        scores[5] = 3.0;
        let keep = cfg.keep_indices(10, &scores).unwrap().unwrap();
        assert_eq!(keep, vec![1, 5, 8, 9]);
    }

    #[test]
    fn streaming_keeps_sinks_and_recents() {
        let cfg = EvictionConfig {
            policy: EvictionPolicy::StreamingSinks { sinks: 2 },
            budget: 5,
        };
        let keep = cfg.keep_indices(10, &[0.0; 10]).unwrap().unwrap();
        assert_eq!(keep, vec![0, 1, 7, 8, 9]);
    }

    #[test]
    fn mismatched_score_track_is_a_typed_error() {
        // Historically an assert!: a desynchronized score track must
        // surface as a typed error, not a panic.
        let cfg = EvictionConfig::h2o(4);
        let err = cfg.keep_indices(10, &[0.0; 9]).unwrap_err();
        match err {
            TensorError::InvalidDimension { op, what } => {
                assert_eq!(op, "EvictionConfig::keep_indices");
                assert!(what.contains('9') && what.contains("10"), "{what}");
            }
            other => panic!("unexpected error {other:?}"),
        }
    }

    #[test]
    fn keep_sets_from_policies_are_strictly_increasing() {
        // The sets the policies emit always satisfy retain_head's
        // contract, across budgets and score shapes.
        let mut scores: Vec<f64> = (0..50).map(|i| ((i * 37) % 17) as f64).collect();
        scores[13] = 100.0;
        for cfg in [
            EvictionConfig::h2o(8),
            EvictionConfig::h2o(49),
            EvictionConfig::streaming(8),
            EvictionConfig::streaming(3),
        ] {
            if let Some(keep) = cfg.keep_indices(50, &scores).unwrap() {
                assert!(
                    keep.windows(2).all(|w| w[0] < w[1]),
                    "{cfg:?} emitted {keep:?}"
                );
                assert!(keep.len() <= cfg.budget);
                assert!(*keep.last().unwrap() < 50);
            }
        }
    }

    #[test]
    fn retain_gathers_rows() {
        let mut c = LayerKvCache::new(1, 2, 2);
        let k = Matrix::from_fn(4, 2, |i, _| i as f32);
        let v = Matrix::from_fn(4, 2, |i, _| (10 + i) as f32);
        c.append(0, k.clone(), v.clone()).unwrap();
        c.retain(&[0, 3]).unwrap();
        assert_eq!(c.len(), 2);
        let (ck, cv) = c.head_rows(0);
        assert_eq!(ck.get(1, 0), 3.0);
        assert_eq!(cv.get(0, 0), 10.0);
        assert!(c.retain(&[5]).is_err());
    }

    /// Eviction gathers the kept keys panel to panel: the head then holds
    /// the panels of the kept key rows and the kept value rows (narrower
    /// than the keys, as the model caches them), bit for bit, on both
    /// sides of a panel edge and over more than a panel.
    #[test]
    fn retain_head_on_panels_matches_the_row_path() {
        let bits = |xs: &[f32]| xs.iter().map(|x| x.to_bits()).collect::<Vec<_>>();
        let mut rng = sa_tensor::DeterministicRng::new(0x4E7);
        let cases: [(usize, Vec<usize>); 4] = [
            (1, vec![0]),
            (65, vec![0, 1, 63, 64]),
            (300, (0..300).step_by(7).collect()),
            (130, (0..130).filter(|i| i % 64 != 5).collect()),
        ];
        for (len, keep) in cases {
            let k = rng.normal_matrix(len, 16, 1.0);
            let v = rng.normal_matrix(len, 8, 1.0);
            let mut c = LayerKvCache::new(1, 16, 8);
            c.append(0, k.clone(), v.clone()).unwrap();
            c.retain_head(0, &keep).unwrap();
            let (want_k, want_v) = (gather_rows(&k, &keep), gather_rows(&v, &keep));
            let (keys, kept_v) = c.prepared(0);
            let want_panels = sa_kernels::KeyPanels::from_rows(&want_k);
            assert_eq!(bits(keys.as_slice()), bits(want_panels.as_slice()), "{len}");
            assert_eq!(bits(keys.to_rows().as_slice()), bits(want_k.as_slice()), "{len}");
            assert_eq!(bits(kept_v.as_slice()), bits(want_v.as_slice()), "{len}");
        }
    }

    fn four_entry_cache() -> LayerKvCache {
        let mut c = LayerKvCache::new(1, 2, 2);
        let k = Matrix::from_fn(4, 2, |i, _| i as f32);
        let v = Matrix::from_fn(4, 2, |i, _| (10 + i) as f32);
        c.append(0, k.clone(), v.clone()).unwrap();
        c
    }

    #[test]
    fn duplicate_keep_indices_rejected_not_applied() {
        // A duplicated index would silently double a KV entry. The cache
        // must reject it *and* stay untouched.
        let mut c = four_entry_cache();
        let err = c.retain_head(0, &[1, 1, 3]).unwrap_err();
        match err {
            TensorError::InvalidDimension { op, what } => {
                assert_eq!(op, "LayerKvCache::retain_head");
                assert!(what.contains("duplicate"), "{what}");
            }
            other => panic!("unexpected error {other:?}"),
        }
        assert_eq!(c.head_len(0), 4, "cache must be untouched on error");
        assert_eq!(c.head_rows(0).0.get(2, 0), 2.0);
    }

    #[test]
    fn out_of_order_keep_indices_rejected_not_applied() {
        // Out-of-order indices would reorder KV entries against their
        // RoPE positions.
        let mut c = four_entry_cache();
        let err = c.retain_head(0, &[3, 0]).unwrap_err();
        match err {
            TensorError::InvalidDimension { op, what } => {
                assert_eq!(op, "LayerKvCache::retain_head");
                assert!(what.contains("out of order"), "{what}");
                assert!(what.contains('3') && what.contains('0'), "{what}");
            }
            other => panic!("unexpected error {other:?}"),
        }
        assert_eq!(c.head_len(0), 4);
    }

    #[test]
    fn out_of_range_keep_indices_rejected_not_applied() {
        let mut c = four_entry_cache();
        let err = c.retain_head(0, &[0, 4]).unwrap_err();
        assert!(
            matches!(
                err,
                TensorError::IndexOutOfBounds {
                    op: "LayerKvCache::retain_head",
                    index: 4,
                    bound: 4
                }
            ),
            "{err:?}"
        );
        assert_eq!(c.head_len(0), 4);
    }

    #[test]
    fn empty_keep_set_empties_the_head() {
        let mut c = four_entry_cache();
        c.retain_head(0, &[]).unwrap();
        assert_eq!(c.head_len(0), 0);
    }

    fn splitmix(state: &mut u64) -> u64 {
        *state = state.wrapping_add(0x9E37_79B9_7F4A_7C15);
        let mut z = *state;
        z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
        z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
        z ^ (z >> 31)
    }

    #[test]
    fn policy_keep_sets_hold_their_invariants_under_a_seeded_sweep() {
        // Property sweep over seeded (len, budget, recent, sinks, scores)
        // cases: a keep-set never exceeds the budget, is always a valid
        // retain_head argument, and each policy retains what it promises
        // (H2O its recency window and top heavy hitter, StreamingSinks
        // its sinks and newest remainder).
        let mut s = 0x5EED_CAFE_u64;
        for _ in 0..300 {
            let len = 1 + (splitmix(&mut s) % 96) as usize;
            let budget = 1 + (splitmix(&mut s) % 64) as usize;
            let recent = 1 + (splitmix(&mut s) % 16) as usize;
            let sinks = (splitmix(&mut s) % 8) as usize;
            let scores: Vec<f64> = (0..len)
                .map(|_| (splitmix(&mut s) % 1000) as f64 / 10.0)
                .collect();
            for policy in [
                EvictionPolicy::H2o { recent },
                EvictionPolicy::StreamingSinks { sinks },
            ] {
                let cfg = EvictionConfig { policy, budget };
                let Some(keep) = cfg.keep_indices(len, &scores).unwrap() else {
                    assert!(len <= budget, "{cfg:?} skipped eviction at len {len}");
                    continue;
                };
                assert!(len > budget, "{cfg:?} evicted below budget at len {len}");
                assert!(
                    keep.len() <= budget,
                    "{cfg:?} kept {} of budget {budget}",
                    keep.len()
                );
                assert!(
                    keep.windows(2).all(|w| w[0] < w[1]),
                    "{cfg:?} emitted a non-increasing keep-set {keep:?}"
                );
                assert!(keep.iter().all(|&i| i < len), "{cfg:?} kept out-of-range");
                match policy {
                    EvictionPolicy::H2o { recent } => {
                        let r = recent.min(budget);
                        assert!(
                            (len - r..len).all(|i| keep.binary_search(&i).is_ok()),
                            "{cfg:?} dropped a recent entry: {keep:?}"
                        );
                        if budget > r && len > r {
                            let heaviest = (0..len - r)
                                .max_by(|&a, &b| {
                                    scores[a].partial_cmp(&scores[b]).expect("finite scores")
                                })
                                .expect("non-empty older range");
                            assert!(
                                keep.binary_search(&heaviest).is_ok(),
                                "{cfg:?} dropped the heaviest hitter {heaviest}: {keep:?}"
                            );
                        }
                    }
                    EvictionPolicy::StreamingSinks { sinks } => {
                        let sk = sinks.min(budget);
                        assert!(
                            (0..sk.min(len)).all(|i| keep.binary_search(&i).is_ok()),
                            "{cfg:?} dropped a sink: {keep:?}"
                        );
                        let rec = (budget - sk).min(len);
                        assert!(
                            (len - rec..len).all(|i| keep.binary_search(&i).is_ok()),
                            "{cfg:?} dropped a recent entry: {keep:?}"
                        );
                    }
                    EvictionPolicy::None => {}
                }
            }
        }
    }

    #[test]
    fn keep_sets_are_thread_count_invariant() {
        // Eviction ranking must be a pure function of (scores, config) —
        // heavy score ties included — never of the worker-pool width, or
        // decode sessions would diverge across SA_THREADS.
        use sa_tensor::pool;
        let scores: Vec<f64> = (0..64).map(|i| (i % 5) as f64).collect();
        let cfgs = [
            EvictionConfig::h2o(16),
            EvictionConfig::h2o(61),
            EvictionConfig::streaming(12),
        ];
        let compute = || -> Vec<Option<Vec<usize>>> {
            cfgs.iter()
                .map(|c| c.keep_indices(64, &scores).expect("valid score track"))
                .collect()
        };
        let base = pool::with_threads(1, compute);
        assert!(base.iter().all(|k| k.is_some()));
        for t in [2, 4] {
            assert_eq!(
                pool::with_threads(t, compute),
                base,
                "keep-sets diverged at {t} threads"
            );
        }
    }
}
