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
//! A snapshot's layout is the cache's as it was when value rows were
//! `head_dim` wide: capture pads each cached value row (the value
//! projection's `content_dim` content columns) back to `head_dim` with
//! the `+0.0`s the projection gives every column past them, so the
//! checksum and [`SessionCheckpoint::kv_bytes`] cover the same words as
//! before, and a flipped pad lane fails restore like any other flipped
//! bit. Restore keeps the content columns once the checksum passes.
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

/// One KV head's cached contents, flattened for checksumming: `rows`
/// key rows and value rows, both `head_dim` wide.
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
                    // The cache holds keys as panels; the snapshot, rows.
                    let (keys, v) = cache.prepared(h);
                    let width = cache.head_dim();
                    let mut padded = vec![0.0f32; v.rows() * width];
                    for (i, dst) in padded.chunks_exact_mut(width).enumerate() {
                        dst[..v.cols()].copy_from_slice(v.row(i));
                    }
                    HeadKv {
                        rows: keys.len(),
                        k: keys.to_rows().into_vec(),
                        v: padded,
                    }
                })
                .collect(),
        }
    }

    /// The cache the snapshot was taken from, its value rows cut back to
    /// their first `value_dim` columns. Consumes the snapshot: each head's
    /// key rows become the cache's, and its padded value rows go as soon
    /// as their content is copied out.
    fn rebuild(self, value_dim: usize) -> Result<LayerKvCache, SaError> {
        if value_dim > self.head_dim {
            return Err(SaError::InvalidDimension {
                op: "checkpoint restore",
                what: format!("values {value_dim} wide in a {}-wide snapshot", self.head_dim),
            });
        }
        let entries = self
            .heads
            .into_iter()
            .map(|h| {
                let k = Matrix::from_vec(h.rows, self.head_dim, h.k)?;
                let mut content = Vec::with_capacity(h.rows * value_dim);
                for row in h.v.chunks_exact(self.head_dim) {
                    content.extend_from_slice(&row[..value_dim]);
                }
                let v = Matrix::from_vec(h.rows, value_dim, content)?;
                Ok((k, v))
            })
            .collect::<Result<Vec<_>, SaError>>()?;
        Ok(LayerKvCache::from_parts(entries, self.head_dim, value_dim, self.seen))
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
/// harness, recompute the checksum, and rebuild the caches, values
/// `value_dim` wide, only when it matches the recorded one.
fn restore_layers(
    layers: &[LayerSnapshot],
    recorded: u64,
    extra: &[u64],
    salt: u64,
    cancel: Option<&CancelToken>,
    value_dim: usize,
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
    // The staged copy is the restore's own: the caches are built from it
    // by value, layer by layer, so no third copy of the KV bytes exists.
    staged.into_iter().map(|layer| layer.rebuild(value_dim)).collect()
}

/// A versioned, checksummed snapshot of a [`DecodeSession`].
///
/// Capture is cheap relative to the prefill it preserves: it clones the
/// KV caches, the session bookkeeping (tokens, readout, newest contents,
/// and the H2O statistic when the session evicts) and the session's
/// [`PrefillResult`](crate::PrefillResult), which holds what a
/// cache-keeping run keeps: the final residual stream's newest row, the
/// reports, the readout heads' rows and each other head's newest row, no
/// layer inputs. Restore validates integrity and
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
        let value_dim = model.config().content_dim;
        let caches = restore_layers(&self.layers, self.checksum, &extra, salt, cancel, value_dim)?;
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
/// only the grown accumulators, the progress counters and the run's
/// retention, which restore keeps: a serving run's snapshot holds no
/// layer inputs, one row of the final residual stream and one row of each
/// head the readout does not read.
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
    /// The run's retention ([`ChunkedPrefill::analysis`]): restore keeps
    /// it, so the accumulators above hold what the run keeps and no more.
    analysis: bool,
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
            analysis: run.analysis,
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
        let value_dim = model.config().content_dim;
        let caches = restore_layers(&self.layers, self.checksum, &extra, salt, cancel, value_dim)?;
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
            analysis: self.analysis,
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
        // The kept hidden state is one row; every K and V is the rest of
        // what the run carries forward.
        assert_eq!(kv_bits(&caches), kv_bits(&ref_caches));
    }

    /// Every K and V element's bits, layer after layer, head after head.
    fn kv_bits(caches: &[LayerKvCache]) -> Vec<u32> {
        caches
            .iter()
            .flat_map(|c| (0..c.num_kv_heads()).map(|h| c.head_rows(h)))
            .flat_map(|(k, v)| k.into_vec().into_iter().chain(v.as_slice().iter().copied()))
            .map(|x| x.to_bits())
            .collect()
    }

    #[test]
    fn a_prefill_checkpoint_restores_the_runs_retention() {
        // A serving run's snapshot holds what the run keeps (no layer
        // input, one row of each head the readout does not read), restores
        // to a run that keeps the same, and finishes to the bits of the
        // uninterrupted run; an analysis run's snapshot keeps its own.
        let m = model();
        let tokens = m.tokenize_filler(200);
        let method = sa_baselines::SampleAttentionMethod::paper_default();
        let rows = |ms: &[Matrix]| ms.iter().map(Matrix::rows).collect::<Vec<_>>();
        let bits = |ms: &[Matrix]| {
            ms.iter()
                .flat_map(|m| m.as_slice())
                .map(|x| x.to_bits())
                .collect::<Vec<_>>()
        };
        for analysis in [false, true] {
            let label = format!("analysis {analysis}");
            let start = || m.start_run(&tokens, 64, analysis).expect("start");
            let (want, want_caches) = start()
                .run_to_end(&method, &CancelToken::new())
                .expect("prefill");
            let mut run = start();
            for _ in 0..2 {
                run.advance_chunk(&method).expect("chunk");
            }
            let snap = PrefillCheckpoint::capture(&run);
            drop(run);
            let num_heads = m.config().num_heads;
            for (i, held) in rows(&snap.head_contents).into_iter().enumerate() {
                let (l, h) = (i / num_heads, i % num_heads);
                let whole = analysis || crate::Readout::reads(l, &m.layers()[l].archetype(h));
                assert_eq!(held, if whole { 128 } else { 1 }, "{label}: head {i}");
            }
            assert_eq!(rows(&snap.layer_inputs), if analysis { vec![128; m.config().num_layers] } else { vec![] });
            let resumed = snap.restore(&m, 0xB, None).expect("restore");
            assert_eq!(resumed.analysis, analysis, "{label}");
            let (got, caches) = resumed
                .run_to_end(&method, &CancelToken::new())
                .expect("resume");
            assert_eq!(bits(&[got.hidden]), bits(&[want.hidden]), "{label}");
            assert_eq!(rows(&got.head_contents), rows(&want.head_contents), "{label}");
            assert_eq!(bits(&got.head_contents), bits(&want.head_contents), "{label}");
            assert_eq!(bits(&got.layer_inputs), bits(&want.layer_inputs), "{label}");
            assert_eq!(kv_bits(&caches), kv_bits(&want_caches), "{label}");
            assert_eq!(caches.iter().all(|c| c.is_empty()), analysis, "{label}");
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

    /// Every value word of a snapshot past each row's first
    /// `content_dim`: the pad capture writes.
    fn pad_lanes(layers: &[LayerSnapshot], content_dim: usize) -> Vec<u32> {
        layers
            .iter()
            .flat_map(|l| l.heads.iter().map(move |h| (l.head_dim, h)))
            .flat_map(|(width, h)| h.v.chunks_exact(width).flat_map(|row| &row[content_dim..]))
            .map(|x| x.to_bits())
            .collect()
    }

    #[test]
    fn a_tampered_pad_lane_fails_restore() {
        let m = model();
        let dc = m.config().content_dim;
        let session = m
            .begin_decode(&m.tokenize_filler(40), &FullAttention::new())
            .expect("prefill");
        let snap = SessionCheckpoint::capture(&session);
        let pads = pad_lanes(&snap.layers, dc);
        assert!(!pads.is_empty() && pads.iter().all(|&b| b == 0), "pads are +0.0");
        // One bit of one pad lane: a value nothing reads, still covered.
        let mut tampered = snap.clone();
        let layer = &mut tampered.layers[1];
        layer.heads[0].v[7 * layer.head_dim + dc + 3] = f32::from_bits(1);
        match tampered.restore(&m, 0x1, None) {
            Err(SaError::CorruptCheckpoint { expected, actual }) => {
                assert_eq!(expected, snap.checksum());
                assert_ne!(expected, actual);
            }
            other => panic!("expected CorruptCheckpoint, got {other:?}"),
        }
        assert!(snap.restore(&m, 0x1, None).is_ok(), "the untouched snapshot restores");
    }

    #[test]
    fn a_mid_prompt_checkpoint_round_trips_at_content_width() {
        // The snapshot holds values at head_dim, padded; the restored
        // caches hold the content columns again, with the bits of the run
        // that was captured, and finish to the uninterrupted run.
        let m = model();
        let config = *m.config();
        let tokens = m.tokenize_filler(96);
        let method = FullAttention::new();
        let (reference, ref_caches) = m.prefill_chunked(&tokens, 16, &method).expect("prefill");
        let mut run = m.start_prefill(&tokens, 16).expect("start");
        for _ in 0..3 {
            run.advance_chunk(&method).expect("chunk");
        }
        let snap = PrefillCheckpoint::capture(&run);
        let per_row = config.num_layers * config.num_kv_heads * 2 * config.head_dim * 4;
        assert_eq!(snap.kv_bytes(), (48 * per_row) as u64, "K and padded V at head_dim");
        assert!(pad_lanes(&snap.layers, config.content_dim).iter().all(|&b| b == 0));
        let resumed = snap.restore(&m, 0xB, None).expect("restore");
        assert_eq!(kv_bits(&resumed.caches), kv_bits(&run.caches), "restored caches");
        for cache in &resumed.caches {
            assert_eq!(cache.value_dim(), config.content_dim);
            assert!((0..cache.num_kv_heads()).all(|h| cache.prepared(h).1.cols() == config.content_dim));
        }
        drop(run);
        let (result, caches) = resumed
            .run_to_end(&method, &CancelToken::new())
            .expect("finish");
        assert_eq!(result.hidden, reference.hidden);
        assert_eq!(result.head_contents, reference.head_contents);
        assert_eq!(kv_bits(&caches), kv_bits(&ref_caches));
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
