//! Versioned snapshot/restore of decode sessions and chunked-prefill
//! progress.
//!
//! The paper's premise makes prefill the expensive phase — which makes
//! the KV state it produces the most valuable thing a server holds.
//! This module reifies that state so the serving layer can survive
//! worker crashes without re-running prefill: a [`SessionCheckpoint`]
//! captures a [`DecodeSession`] (per-layer [`LayerKvCache`] contents,
//! emitted tokens, readout calibration, eviction statistics) and a
//! [`PrefillCheckpoint`] captures an in-flight [`ChunkedPrefill`] at a
//! chunk boundary, where the accumulator state is quiescent.
//!
//! Every snapshot carries a checksum folded over the KV bytes (plus the
//! structural fields) with the in-repo `splitmix64` mixer. Restore
//! recomputes the checksum over the staged bytes *after* consulting the
//! fault harness ([`sa_tensor::fault::tamper_kv`]), so KV bit-flip
//! corruption — injected or real — surfaces as a typed
//! [`SaError::CorruptCheckpoint`] instead of propagating silently wrong
//! attention outputs. Version skew is caught the same way.
//!
//! Checkpoints are plain values: capture clones the session state,
//! restore rebuilds a fresh session against a model reference. Nothing
//! here touches wall-clock time or global state, so snapshots taken at
//! deterministic chunk boundaries on the serving layer's virtual clock
//! keep ledgers byte-identical at every `SA_THREADS` setting.

use sa_tensor::{fault, splitmix64, CancelToken, Matrix, SaError};

use crate::{ChunkedPrefill, DecodeSession, LayerKvCache, SyntheticTransformer};

/// Snapshot format version; bumped on any layout change so a stale
/// snapshot fails restore as [`SaError::CorruptCheckpoint`] rather than
/// deserializing garbage.
pub const CHECKPOINT_VERSION: u32 = 1;

/// One KV head's cached contents, flattened for checksumming.
#[derive(Debug, Clone)]
struct HeadKv {
    /// Cached rows in this head (heads diverge after per-head eviction).
    rows: usize,
    k: Vec<f32>,
    v: Vec<f32>,
}

/// One layer's [`LayerKvCache`], flattened.
#[derive(Debug, Clone)]
struct LayerSnapshot {
    head_dim: usize,
    /// Absolute positions appended so far (survives eviction; restoring
    /// it verbatim keeps RoPE offsets correct).
    seen: usize,
    heads: Vec<HeadKv>,
}

impl LayerSnapshot {
    fn capture(cache: &LayerKvCache) -> Self {
        LayerSnapshot {
            head_dim: cache.head_dim(),
            seen: cache.seen(),
            heads: (0..cache.num_kv_heads())
                .map(|h| {
                    let (k, v) = cache.head(h);
                    HeadKv {
                        rows: k.rows(),
                        k: k.as_slice().to_vec(),
                        v: v.as_slice().to_vec(),
                    }
                })
                .collect(),
        }
    }

    fn rebuild(&self) -> Result<LayerKvCache, SaError> {
        let entries = self
            .heads
            .iter()
            .map(|h| {
                let k = Matrix::from_vec(h.rows, self.head_dim, h.k.clone())?;
                let v = Matrix::from_vec(h.rows, self.head_dim, h.v.clone())?;
                Ok((k, v))
            })
            .collect::<Result<Vec<_>, SaError>>()?;
        Ok(LayerKvCache::from_parts(entries, self.head_dim, self.seen))
    }

    fn kv_values(&self) -> usize {
        self.heads.iter().map(|h| h.k.len() + h.v.len()).sum()
    }
}

/// Folds one value into the running checksum through the in-repo
/// splitmix64 finalizer. Bit-sensitive: any single-bit flip in any
/// folded word changes the result with overwhelming probability.
fn mix(acc: u64, v: u64) -> u64 {
    let mut s = acc ^ v.wrapping_mul(0x9E37_79B9_7F4A_7C15);
    splitmix64(&mut s)
}

/// Checksum over the KV bytes and structural fields of a snapshot.
/// `extra` lets each checkpoint kind fold in its own scalar fields
/// (version, progress counters) so they are tamper-evident too.
fn checksum(layers: &[LayerSnapshot], extra: &[u64]) -> u64 {
    let mut h = 0x5EED_C8EC_0000_0000u64;
    for &x in extra {
        h = mix(h, x);
    }
    h = mix(h, layers.len() as u64);
    for l in layers {
        h = mix(h, l.head_dim as u64);
        h = mix(h, l.seen as u64);
        h = mix(h, l.heads.len() as u64);
        for head in &l.heads {
            h = mix(h, head.rows as u64);
            for &x in &head.k {
                h = mix(h, u64::from(x.to_bits()));
            }
            for &x in &head.v {
                h = mix(h, u64::from(x.to_bits()));
            }
        }
    }
    h
}

/// Salt separating the fault harness's per-head tamper streams so the
/// same restore salt hits distinct coordinates in distinct heads.
fn stage_salt(salt: u64, layer: usize, head: usize, is_v: bool) -> u64 {
    salt ^ ((layer as u64) << 40) ^ ((head as u64) << 8) ^ u64::from(is_v)
}

/// Runs the restore-time integrity protocol shared by both checkpoint
/// kinds: check the cancel token *first* (a cancel that races a restore
/// must not resurrect the session), stage the KV bytes through the fault
/// harness, recompute the checksum, and rebuild the caches only when it
/// matches the recorded one.
fn restore_layers(
    layers: &[LayerSnapshot],
    recorded: u64,
    extra: &[u64],
    salt: u64,
    cancel: Option<&CancelToken>,
) -> Result<Vec<LayerKvCache>, SaError> {
    if let Some(token) = cancel {
        token.check("checkpoint_restore", 0, 1)?;
    }
    let mut staged = layers.to_vec();
    for (li, layer) in staged.iter_mut().enumerate() {
        for (hi, head) in layer.heads.iter_mut().enumerate() {
            fault::tamper_kv(&mut head.k, stage_salt(salt, li, hi, false));
            fault::tamper_kv(&mut head.v, stage_salt(salt, li, hi, true));
        }
    }
    let actual = checksum(&staged, extra);
    if actual != recorded {
        return Err(SaError::CorruptCheckpoint {
            expected: recorded,
            actual,
        });
    }
    staged.iter().map(LayerSnapshot::rebuild).collect()
}

/// A versioned, checksummed snapshot of a [`DecodeSession`].
///
/// Capture is cheap relative to the prefill it preserves: it clones the
/// KV caches and session bookkeeping. Restore validates integrity and
/// rebuilds a session against any model reference with the same
/// configuration the snapshot was taken from.
#[derive(Debug, Clone)]
pub struct SessionCheckpoint {
    version: u32,
    tokens: Vec<u32>,
    layers: Vec<LayerSnapshot>,
    readout: crate::Readout,
    last_contents: Vec<Matrix>,
    prefill: crate::PrefillResult,
    eviction: crate::EvictionConfig,
    scores: Vec<Vec<Vec<f64>>>,
    checksum: u64,
}

impl SessionCheckpoint {
    /// Snapshots a decode session. The session is untouched; the
    /// snapshot owns independent copies of all mutable state. The
    /// installed cancel token (if any) is deliberately not captured —
    /// a restored session starts clean and the restorer installs its
    /// own.
    pub fn capture(session: &DecodeSession<'_>) -> Self {
        let layers: Vec<LayerSnapshot> =
            session.caches.iter().map(LayerSnapshot::capture).collect();
        let extra = [u64::from(CHECKPOINT_VERSION), session.tokens.len() as u64];
        let checksum = checksum(&layers, &extra);
        SessionCheckpoint {
            version: CHECKPOINT_VERSION,
            tokens: session.tokens.clone(),
            layers,
            readout: session.readout.clone(),
            last_contents: session.last_contents.clone(),
            prefill: session.prefill.clone(),
            eviction: session.eviction,
            scores: session.scores.clone(),
            checksum,
        }
    }

    /// Rebuilds the session from the snapshot.
    ///
    /// `salt` keys the fault harness's KV-corruption stream for this
    /// restore (the serving layer passes a request/attempt-derived
    /// value); `cancel` is checked before any state is rebuilt.
    ///
    /// # Errors
    ///
    /// [`SaError::Cancelled`] / [`SaError::DeadlineExceeded`] when the
    /// token tripped (nothing is rebuilt), [`SaError::CorruptCheckpoint`]
    /// when the recomputed checksum disagrees with the recorded one
    /// (KV corruption or version skew), or shape errors when the model
    /// disagrees with the snapshot's layer count.
    pub fn restore<'m>(
        &self,
        model: &'m SyntheticTransformer,
        salt: u64,
        cancel: Option<&CancelToken>,
    ) -> Result<DecodeSession<'m>, SaError> {
        let extra = [u64::from(self.version), self.tokens.len() as u64];
        let caches = restore_layers(&self.layers, self.checksum, &extra, salt, cancel)?;
        if caches.len() != model.config().num_layers {
            return Err(SaError::InvalidDimension {
                op: "SessionCheckpoint::restore",
                what: format!(
                    "snapshot has {} layers, model has {}",
                    caches.len(),
                    model.config().num_layers
                ),
            });
        }
        Ok(DecodeSession {
            model,
            embed_stream: model.embedder().stream_after(&self.tokens),
            tokens: self.tokens.clone(),
            caches,
            readout: self.readout.clone(),
            last_contents: self.last_contents.clone(),
            prefill: self.prefill.clone(),
            eviction: self.eviction,
            scores: self.scores.clone(),
            cancel: None,
        })
    }

    /// The snapshot format version this checkpoint was written with.
    pub fn version(&self) -> u32 {
        self.version
    }

    /// The recorded KV checksum.
    pub fn checksum(&self) -> u64 {
        self.checksum
    }

    /// Tokens (prompt + generated) at snapshot time.
    pub fn tokens(&self) -> &[u32] {
        &self.tokens
    }

    /// Bytes of KV state held by the snapshot (f32 payload only) — what
    /// the serving layer's memory ledger reserves before a restore.
    pub fn kv_bytes(&self) -> u64 {
        self.layers
            .iter()
            .map(|l| l.kv_values() as u64 * 4)
            .sum()
    }
}

/// A versioned, checksummed snapshot of an in-flight [`ChunkedPrefill`]
/// at a chunk boundary.
///
/// The embedded prompt (`hidden_full`) is deterministic in the tokens,
/// so restore recomputes it instead of storing it — the snapshot holds
/// only the grown accumulators and progress counters.
#[derive(Debug, Clone)]
pub struct PrefillCheckpoint {
    version: u32,
    tokens: Vec<u32>,
    chunk_size: usize,
    layers: Vec<LayerSnapshot>,
    layer_inputs: Vec<Matrix>,
    head_contents: Vec<Matrix>,
    head_reports: Vec<Option<crate::HeadReport>>,
    total_cost: sa_kernels::CostReport,
    final_hidden: Matrix,
    start: usize,
    chunks_done: usize,
    checksum: u64,
}

impl PrefillCheckpoint {
    /// Snapshots a chunked prefill between chunks.
    pub fn capture(run: &ChunkedPrefill<'_>) -> Self {
        let layers: Vec<LayerSnapshot> = run.caches.iter().map(LayerSnapshot::capture).collect();
        let extra = [
            u64::from(CHECKPOINT_VERSION),
            run.start as u64,
            run.chunks_done as u64,
            run.chunk_size as u64,
        ];
        let checksum = checksum(&layers, &extra);
        PrefillCheckpoint {
            version: CHECKPOINT_VERSION,
            tokens: run.tokens.clone(),
            chunk_size: run.chunk_size,
            layers,
            layer_inputs: run.layer_inputs.clone(),
            head_contents: run.head_contents.clone(),
            head_reports: run.head_reports.clone(),
            total_cost: run.total_cost,
            final_hidden: run.final_hidden.clone(),
            start: run.start,
            chunks_done: run.chunks_done,
            checksum,
        }
    }

    /// Rebuilds the in-flight prefill; the caller keeps advancing it
    /// from the checkpointed chunk boundary. Same integrity protocol as
    /// [`SessionCheckpoint::restore`].
    ///
    /// # Errors
    ///
    /// See [`SessionCheckpoint::restore`].
    pub fn restore<'m>(
        &self,
        model: &'m SyntheticTransformer,
        salt: u64,
        cancel: Option<&CancelToken>,
    ) -> Result<ChunkedPrefill<'m>, SaError> {
        let extra = [
            u64::from(self.version),
            self.start as u64,
            self.chunks_done as u64,
            self.chunk_size as u64,
        ];
        let caches = restore_layers(&self.layers, self.checksum, &extra, salt, cancel)?;
        if caches.len() != model.config().num_layers {
            return Err(SaError::InvalidDimension {
                op: "PrefillCheckpoint::restore",
                what: format!(
                    "snapshot has {} layers, model has {}",
                    caches.len(),
                    model.config().num_layers
                ),
            });
        }
        Ok(ChunkedPrefill {
            model,
            tokens: self.tokens.clone(),
            chunk_size: self.chunk_size,
            hidden_full: model.embedder().embed(&self.tokens),
            caches,
            layer_inputs: self.layer_inputs.clone(),
            head_contents: self.head_contents.clone(),
            head_reports: self.head_reports.clone(),
            total_cost: self.total_cost,
            final_hidden: self.final_hidden.clone(),
            start: self.start,
            chunks_done: self.chunks_done,
            keep_caches: true,
        })
    }

    /// Chunks completed at snapshot time.
    pub fn chunks_done(&self) -> usize {
        self.chunks_done
    }

    /// The recorded KV checksum.
    pub fn checksum(&self) -> u64 {
        self.checksum
    }

    /// Bytes of KV state held by the snapshot (f32 payload only).
    pub fn kv_bytes(&self) -> u64 {
        self.layers
            .iter()
            .map(|l| l.kv_values() as u64 * 4)
            .sum()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::ModelConfig;
    use sa_baselines::FullAttention;
    use sa_tensor::fault::FaultPlan;

    fn model() -> SyntheticTransformer {
        SyntheticTransformer::new(ModelConfig::tiny(77)).expect("tiny config is valid")
    }

    #[test]
    fn session_roundtrip_continues_bitwise_identically() {
        let m = model();
        let tokens = m.tokenize_filler(64);
        let vocab = m.config().vocab_size as u32;

        // Uninterrupted reference run.
        let mut straight = m
            .begin_decode(&tokens, &FullAttention::new())
            .expect("prefill");
        let expected = straight.generate_in(6, 0..vocab).expect("generate");

        // Interrupted run: 2 steps, snapshot, restore, 4 more steps.
        let mut first = m
            .begin_decode(&tokens, &FullAttention::new())
            .expect("prefill");
        let head = first.generate_in(2, 0..vocab).expect("generate");
        let snap = SessionCheckpoint::capture(&first);
        drop(first);
        let mut resumed = snap.restore(&m, 0xA, None).expect("restore");
        let tail = resumed.generate_in(4, 0..vocab).expect("generate");

        let mut resumed_tokens = head;
        resumed_tokens.extend(tail);
        assert_eq!(expected, resumed_tokens);
        assert_eq!(straight.tokens(), resumed.tokens());
    }

    #[test]
    fn prefill_roundtrip_matches_uninterrupted_run() {
        let m = model();
        let tokens = m.tokenize_filler(96);
        let method = FullAttention::new();
        let (reference, ref_caches) = m.prefill_chunked(&tokens, 16, &method).expect("prefill");

        let mut run = m.start_prefill(&tokens, 16).expect("start");
        for _ in 0..3 {
            run.advance_chunk(&method).expect("chunk");
        }
        let snap = PrefillCheckpoint::capture(&run);
        assert_eq!(snap.chunks_done(), 3);
        drop(run);
        let mut resumed = snap.restore(&m, 0xB, None).expect("restore");
        while !resumed.is_done() {
            resumed.advance_chunk(&method).expect("chunk");
        }
        let (result, caches) = resumed.finish().expect("finish");

        assert_eq!(result.hidden.shape(), reference.hidden.shape());
        for (a, b) in result
            .hidden
            .as_slice()
            .iter()
            .zip(reference.hidden.as_slice())
        {
            assert_eq!(a.to_bits(), b.to_bits());
        }
        assert_eq!(caches[0].len(), ref_caches[0].len());
        let (k0, _) = caches[0].head(0);
        let (rk0, _) = ref_caches[0].head(0);
        for (a, b) in k0.as_slice().iter().zip(rk0.as_slice()) {
            assert_eq!(a.to_bits(), b.to_bits());
        }
    }

    #[test]
    fn kv_corruption_is_caught_at_restore() {
        let m = model();
        let tokens = m.tokenize_filler(48);
        let session = m
            .begin_decode(&tokens, &FullAttention::new())
            .expect("prefill");
        let snap = SessionCheckpoint::capture(&session);
        assert!(snap.kv_bytes() > 0);

        let _g = sa_tensor::fault::install(FaultPlan::new(3).kv_bit_flips(1));
        let err = snap.restore(&m, 0xC, None).expect_err("corruption");
        match err {
            SaError::CorruptCheckpoint { expected, actual } => {
                assert_ne!(expected, actual);
                assert_eq!(expected, snap.checksum());
            }
            other => panic!("unexpected error {other:?}"),
        }
    }

    #[test]
    fn cancel_is_checked_before_any_restore_work() {
        let m = model();
        let tokens = m.tokenize_filler(32);
        let session = m
            .begin_decode(&tokens, &FullAttention::new())
            .expect("prefill");
        let snap = SessionCheckpoint::capture(&session);

        let token = CancelToken::new();
        token.cancel();
        // Even under an active corruption plan, the cancel wins: the KV
        // bytes are never staged, so no CorruptCheckpoint can surface.
        let _g = sa_tensor::fault::install(FaultPlan::new(3).kv_bit_flips(1));
        let err = snap.restore(&m, 0xD, Some(&token)).expect_err("cancel");
        assert!(
            matches!(err, SaError::Cancelled { site: "checkpoint_restore", .. }),
            "{err:?}"
        );
    }

    #[test]
    fn restore_rejects_mismatched_model() {
        let m = model();
        let tokens = m.tokenize_filler(32);
        let session = m
            .begin_decode(&tokens, &FullAttention::new())
            .expect("prefill");
        let snap = SessionCheckpoint::capture(&session);
        let mut cfg = ModelConfig::tiny(77);
        cfg.num_layers += 1;
        let other = SyntheticTransformer::new(cfg).expect("valid config");
        let err = snap.restore(&other, 0xE, None).expect_err("layer skew");
        assert!(matches!(err, SaError::InvalidDimension { .. }), "{err:?}");
    }

    #[test]
    fn snapshot_after_eviction_preserves_seen_offsets() {
        // Mid-eviction snapshot: head lengths are below `seen`; the round
        // trip must preserve both so RoPE offsets stay correct.
        let m = model();
        let tokens = m.tokenize_filler(120);
        let vocab = m.config().vocab_size as u32;
        let evict = crate::EvictionConfig::h2o(80);

        let mut straight = m
            .begin_decode_with(&tokens, &FullAttention::new(), evict)
            .expect("prefill");
        let expected = straight.generate_in(8, 0..vocab).expect("generate");

        let mut first = m
            .begin_decode_with(&tokens, &FullAttention::new(), evict)
            .expect("prefill");
        let head = first.generate_in(5, 0..vocab).expect("generate");
        assert!(first.cache_len() <= 80, "eviction must have run");
        let snap = SessionCheckpoint::capture(&first);
        drop(first);
        let mut resumed = snap.restore(&m, 0xF, None).expect("restore");
        let tail = resumed.generate_in(3, 0..vocab).expect("generate");

        let mut resumed_tokens = head;
        resumed_tokens.extend(tail);
        assert_eq!(expected, resumed_tokens);
    }
}
