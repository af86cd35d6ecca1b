//! Checkpoint round-trip contract, exercised through the public crate
//! facade at several `SA_THREADS` settings.
//!
//! The in-crate `sa-model` tests prove a single-threaded round trip is
//! bitwise lossless; these tests pin the claims the serving layer's
//! crash recovery actually leans on:
//!
//! 1. **Thread-invariant snapshots** — capturing at the same logical
//!    point produces the same checksum at 1, 2, and the default worker
//!    count, so a checkpoint written under one pool size restores under
//!    any other;
//! 2. **Thread-invariant resume** — a restore-and-continue produces the
//!    token stream of the uninterrupted run, bit for bit, at every
//!    thread count — including mid-eviction snapshots;
//! 3. **Typed integrity failures everywhere** — KV corruption surfaces
//!    as [`SaError::CorruptCheckpoint`] and a tripped cancel token wins
//!    over corruption (nothing staged, nothing leaked) regardless of
//!    the pool size;
//! 4. **Derived state is rebuilt, not trusted** — a checkpoint holds key
//!    rows, not the panels, and no embedding stream position; after
//!    growth, eviction and restore the panels hold what an uninterrupted
//!    run caches, and decode on them equals the per-head path that
//!    re-derived the stream every step;
//! 5. **A cache key is transposed once** — counted, not assumed: the
//!    `kernels.keys_transposed` trace counter against what the model's
//!    structure predicts. The count is exact beside the other tests of
//!    this binary because a session counts the work its own thread
//!    issued and nothing that ran beside it.

use std::sync::atomic::{AtomicU64, Ordering};

use sample_attention::baselines::{
    AttentionMethod, FullAttention, GroupKeys, HeadPlan, MethodOutput, SampleAttentionMethod,
};
use sample_attention::kernels::{attention_scores_raw, KeyPanels};
use sample_attention::model::{
    DecodeSession, EvictionConfig, LayerKvCache, ModelConfig, PrefillCheckpoint, Readout,
    SessionCheckpoint, SyntheticTransformer, BOS_TOKEN,
};
use sample_attention::tensor::{
    fault, pool, softmax_rows_in_place, CancelToken, Matrix, SaError, TensorError,
};
use sample_attention::trace;

fn model() -> SyntheticTransformer {
    SyntheticTransformer::new(ModelConfig::tiny(77)).expect("tiny config is valid")
}

fn thread_counts() -> Vec<usize> {
    let mut counts = vec![1, 2];
    let default = pool::current_threads();
    if !counts.contains(&default) {
        counts.push(default);
    }
    counts
}

#[test]
fn session_resume_is_bitwise_identical_at_every_thread_count() {
    let m = model();
    let tokens = m.tokenize_filler(64);
    let vocab = m.config().vocab_size as u32;

    let mut straight = m
        .begin_decode(&tokens, &FullAttention::new())
        .expect("prefill");
    let expected = straight.generate_in(6, 0..vocab).expect("generate");

    let mut checksums = Vec::new();
    for t in thread_counts() {
        let (resumed_tokens, checksum) = pool::with_threads(t, || {
            let mut first = m
                .begin_decode(&tokens, &FullAttention::new())
                .expect("prefill");
            let mut out = first.generate_in(2, 0..vocab).expect("generate");
            let snap = SessionCheckpoint::capture(&first);
            drop(first);
            let mut resumed = snap.restore(&m, 0xA, None).expect("restore");
            out.extend(resumed.generate_in(4, 0..vocab).expect("generate"));
            (out, snap.checksum())
        });
        assert_eq!(
            expected, resumed_tokens,
            "resume at {t} threads diverged from the uninterrupted run"
        );
        checksums.push(checksum);
    }
    assert!(
        checksums.windows(2).all(|w| w[0] == w[1]),
        "snapshot checksums differ across thread counts: {checksums:?}"
    );
}

#[test]
fn prefill_resume_is_bitwise_identical_at_every_thread_count() {
    let m = model();
    let tokens = m.tokenize_filler(96);
    let method = FullAttention::new();
    let (reference, ref_caches) = m.prefill_chunked(&tokens, 16, &method).expect("prefill");
    let expected_bits: Vec<u32> = reference
        .hidden
        .as_slice()
        .iter()
        .map(|v| v.to_bits())
        .collect();
    let expected_kv = cache_bits(&ref_caches);

    let mut checksums = Vec::new();
    for t in thread_counts() {
        let (bits, kv, chunks_done, checksum) = pool::with_threads(t, || {
            let mut run = m.start_prefill(&tokens, 16).expect("start");
            for _ in 0..3 {
                run.advance_chunk(&method).expect("chunk");
            }
            let snap = PrefillCheckpoint::capture(&run);
            drop(run);
            let mut resumed = snap.restore(&m, 0xB, None).expect("restore");
            while !resumed.is_done() {
                resumed.advance_chunk(&method).expect("chunk");
            }
            let (result, caches) = resumed.finish().expect("finish");
            let bits: Vec<u32> = result.hidden.as_slice().iter().map(|v| v.to_bits()).collect();
            (bits, cache_bits(&caches), snap.chunks_done(), snap.checksum())
        });
        assert_eq!(chunks_done, 3);
        assert_eq!(
            expected_bits, bits,
            "prefill resume at {t} threads diverged from the uninterrupted run"
        );
        assert!(
            expected_kv == kv,
            "prefill resume at {t} threads left different caches from the uninterrupted run"
        );
        checksums.push(checksum);
    }
    assert!(
        checksums.windows(2).all(|w| w[0] == w[1]),
        "prefill checksums differ across thread counts: {checksums:?}"
    );
}

#[test]
fn evicted_session_roundtrip_survives_every_thread_count() {
    let m = model();
    let tokens = m.tokenize_filler(120);
    let vocab = m.config().vocab_size as u32;
    let evict = EvictionConfig::h2o(80);

    let mut straight = m
        .begin_decode_with(&tokens, &FullAttention::new(), evict)
        .expect("prefill");
    let expected = straight.generate_in(8, 0..vocab).expect("generate");

    for t in thread_counts() {
        let resumed_tokens = pool::with_threads(t, || {
            let mut first = m
                .begin_decode_with(&tokens, &FullAttention::new(), evict)
                .expect("prefill");
            let mut out = first.generate_in(5, 0..vocab).expect("generate");
            assert!(first.cache_len() <= 80, "eviction must have run");
            let snap = SessionCheckpoint::capture(&first);
            drop(first);
            let mut resumed = snap.restore(&m, 0xF, None).expect("restore");
            out.extend(resumed.generate_in(3, 0..vocab).expect("generate"));
            out
        });
        assert_eq!(
            expected, resumed_tokens,
            "mid-eviction resume at {t} threads diverged"
        );
    }
}

#[test]
fn corruption_and_cancellation_stay_typed_at_every_thread_count() {
    let m = model();
    let tokens = m.tokenize_filler(48);
    let session = m
        .begin_decode(&tokens, &FullAttention::new())
        .expect("prefill");
    let snap = SessionCheckpoint::capture(&session);
    drop(session);

    for t in thread_counts() {
        pool::with_threads(t, || {
            let _g = fault::install(fault::FaultPlan::new(3).kv_bit_flips(1));
            // A flipped KV bit trips the checksum with a typed error.
            let err = snap.restore(&m, 0xC, None).expect_err("corruption");
            assert!(
                matches!(err, SaError::CorruptCheckpoint { .. }),
                "expected CorruptCheckpoint at {t} threads, got {err:?}"
            );
            // A tripped cancel wins over the corruption plan: the
            // restore checks it before staging any KV bytes.
            let token = CancelToken::new();
            token.cancel();
            let err = snap.restore(&m, 0xD, Some(&token)).expect_err("cancel");
            assert!(
                matches!(err, SaError::Cancelled { site: "checkpoint_restore", .. }),
                "expected Cancelled at {t} threads, got {err:?}"
            );
        });
    }
}

fn bits(xs: &[f32]) -> Vec<u32> {
    xs.iter().map(|x| x.to_bits()).collect()
}

/// Every head's keys and values, bits, layer after layer: the keys as
/// the resident panels hold them, padding lanes included.
fn cache_bits(caches: &[LayerKvCache]) -> Vec<(Vec<u32>, Vec<u32>)> {
    caches
        .iter()
        .flat_map(|c| (0..c.num_kv_heads()).map(move |h| c.prepared(h)))
        .map(|(keys, v)| (bits(keys.as_slice()), bits(v.as_slice())))
        .collect()
}

/// Every head's resident panels are well formed: as long as its values,
/// and exactly the panels its keys, read back out as rows, build (so
/// every padding lane is zero).
fn assert_panels_well_formed(label: &str, caches: &[LayerKvCache]) {
    for (l, cache) in caches.iter().enumerate() {
        for h in 0..cache.num_kv_heads() {
            let (keys, v) = cache.prepared(h);
            assert_eq!(keys.len(), v.rows(), "{label}: L{l}.KV{h} length");
            assert_eq!(
                bits(keys.as_slice()),
                bits(KeyPanels::from_rows(&keys.to_rows()).as_slice()),
                "{label}: L{l}.KV{h} panels are not the panels of their rows"
            );
        }
    }
}

#[test]
fn resident_panels_track_k_through_growth_eviction_and_restore() {
    let m = model();
    let tokens = m.tokenize_filler(150);
    let method = FullAttention::new();
    // Under dense attention every chunk size caches the one-chunk run's
    // keys and values: one row at a time, 32-row chunks, off the panel grid.
    let (_, whole) = m.prefill_chunked(&tokens, tokens.len(), &method).expect("prefill");
    assert_panels_well_formed("one chunk", &whole);
    for chunk in [1usize, 32, 37] {
        let (_, caches) = m.prefill_chunked(&tokens, chunk, &method).expect("prefill");
        assert_eq!(cache_bits(&caches), cache_bits(&whole), "prefill chunk {chunk}");
    }
    // A prefill checkpoint holds key rows, not panels: restore transposes
    // them, and the remaining chunks append to the rebuilt panels.
    let mut run = m.start_prefill(&tokens, 37).expect("start");
    run.advance_chunk(&method).expect("chunk");
    run.advance_chunk(&method).expect("chunk");
    let snap = PrefillCheckpoint::capture(&run);
    drop(run);
    let mut resumed = snap.restore(&m, 0x1, None).expect("restore");
    while !resumed.is_done() {
        resumed.advance_chunk(&method).expect("chunk");
    }
    let (_, caches) = resumed.finish().expect("finish");
    assert_eq!(cache_bits(&caches), cache_bits(&whole), "restored prefill");

    // Decode appends a row per step; H2O eviction gathers whole heads
    // panel to panel; a session checkpoint restores through `from_parts`.
    let vocab = m.config().vocab_size as u32;
    let mut session = m
        .begin_decode_with(&tokens, &method, EvictionConfig::h2o(140))
        .expect("prefill");
    assert_eq!(cache_bits(session.caches()), cache_bits(&whole), "after prefill");
    session.generate_in(5, 0..vocab).expect("generate");
    assert!(session.cache_len() <= 140, "eviction must have run");
    assert_panels_well_formed("after eviction", session.caches());
    let snap = SessionCheckpoint::capture(&session);
    let mut resumed = snap.restore(&m, 0x2, None).expect("restore");
    assert_eq!(
        cache_bits(resumed.caches()),
        cache_bits(session.caches()),
        "restored session"
    );
    session.generate_in(3, 0..vocab).expect("generate");
    resumed.generate_in(3, 0..vocab).expect("generate");
    assert_eq!(
        cache_bits(resumed.caches()),
        cache_bits(session.caches()),
        "restored session, 3 steps on"
    );
}

/// Decode as it ran before the caches kept panels and the session kept
/// its embedding position, kept as the oracle: every step re-embeds the
/// whole token stream and runs each head on its own through
/// `forward_incremental` under `FullAttention`.
struct PerHeadDecoder<'m> {
    model: &'m SyntheticTransformer,
    tokens: Vec<u32>,
    caches: Vec<LayerKvCache>,
    readout: Readout,
    last_contents: Vec<Matrix>,
    eviction: EvictionConfig,
    scores: Vec<Vec<Vec<f64>>>,
}

impl<'m> PerHeadDecoder<'m> {
    fn begin(
        model: &'m SyntheticTransformer,
        tokens: &[u32],
        method: &dyn AttentionMethod,
        eviction: EvictionConfig,
    ) -> Self {
        let (result, caches) = model
            .prefill_chunked(tokens, tokens.len().max(1), method)
            .expect("prefill");
        PerHeadDecoder {
            model,
            tokens: tokens.to_vec(),
            readout: Readout::from_reports(&result.head_reports),
            // A head the readout does not read keeps only its last row.
            last_contents: result
                .head_contents
                .iter()
                .map(|m| m.slice_rows(m.rows() - 1, m.rows()).expect("last row"))
                .collect(),
            scores: caches
                .iter()
                .map(|c| vec![vec![0.0f64; c.len()]; c.num_kv_heads()])
                .collect(),
            caches,
            eviction,
        }
    }

    fn step_in(&mut self, range: std::ops::Range<u32>) -> u32 {
        let token = match self.readout.answer_vector(&self.last_contents, 0) {
            Some(v) => self.model.embedder().nearest_token_in(&v, range).0,
            None => BOS_TOKEN,
        };
        self.push(token);
        token
    }

    fn push(&mut self, token: u32) {
        self.tokens.push(token);
        let hidden = self.model.embedder().embed(&self.tokens);
        let mut rows = hidden
            .slice_rows(hidden.rows() - 1, hidden.rows())
            .expect("newest row");
        let full = FullAttention::new();
        let num_heads = self.model.config().num_heads;
        let track = self.eviction.budget > 0;
        for (l, layer) in self.model.layers().iter().enumerate() {
            let offset = self.caches[l].seen();
            if track {
                for head_scores in &mut self.scores[l] {
                    head_scores.push(0.0);
                }
            }
            let out = layer
                .forward_incremental(&rows, &mut self.caches[l], &full)
                .expect("per-head step");
            if track {
                for head in 0..num_heads {
                    let q = layer.project_q(&rows, head, offset).expect("q");
                    let kv = layer.gqa().kv_head_for(head);
                    let k_all = self.caches[l].prepared(kv).0.to_rows();
                    let mut p = attention_scores_raw(&q, &k_all, false).expect("scores");
                    softmax_rows_in_place(&mut p);
                    for (j, &m) in p.row(0).iter().enumerate() {
                        self.scores[l][kv][j] += m as f64;
                    }
                }
                for kv in 0..self.caches[l].num_kv_heads() {
                    let len = self.caches[l].head_len(kv);
                    let keep = self.eviction.keep_indices(len, &self.scores[l][kv]).expect("keep");
                    if let Some(keep) = keep {
                        self.caches[l].retain_head(kv, &keep).expect("retain");
                        self.scores[l][kv] = keep.iter().map(|&i| self.scores[l][kv][i]).collect();
                    }
                }
            }
            for (h, content) in out.head_contents.into_iter().enumerate() {
                self.last_contents[l * num_heads + h] = content;
            }
            rows = out.hidden;
        }
    }
}

fn assert_same_state(label: &str, session: &DecodeSession<'_>, oracle: &PerHeadDecoder<'_>) {
    assert_eq!(session.tokens(), oracle.tokens.as_slice(), "{label}: tokens");
    for (h, (got, want)) in session.last_contents().iter().zip(&oracle.last_contents).enumerate() {
        assert_eq!(bits(got.as_slice()), bits(want.as_slice()), "{label}: head {h} content");
    }
}

#[test]
fn decode_on_resident_panels_matches_the_per_head_path() {
    let m = model();
    let layout = *m.embedder().layout();
    let mut tokens = m.tokenize_filler(200);
    tokens[80] = layout.marker(4);
    tokens[81] = layout.payload(9);
    *tokens.last_mut().expect("non-empty") = layout.marker(4);
    let vocab = m.config().vocab_size as u32;
    let method = FullAttention::new();

    for eviction in [EvictionConfig::none(), EvictionConfig::h2o(150)] {
        let mut oracle = PerHeadDecoder::begin(&m, &tokens, &method, eviction);
        let mut expected = Vec::new();
        // Teacher-forced steps first (a salient token, then filler), so
        // the carried embedding state crosses both kinds.
        for forced in [layout.payload(2), layout.filler(7)] {
            oracle.push(forced);
        }
        for _ in 0..64 {
            expected.push(oracle.step_in(0..vocab));
        }
        for t in thread_counts() {
            pool::with_threads(t, || {
                let label = format!("budget {} threads {t}", eviction.budget);
                let mut session = m.begin_decode_with(&tokens, &method, eviction).expect("prefill");
                let mut check = PerHeadDecoder::begin(&m, &tokens, &method, eviction);
                for forced in [layout.payload(2), layout.filler(7)] {
                    session.push(forced).expect("push");
                    check.push(forced);
                    assert_same_state(&label, &session, &check);
                }
                let mut generated = Vec::new();
                for step in 0..64 {
                    // Half-way, the session goes through a checkpoint.
                    if step == 32 {
                        let snap = SessionCheckpoint::capture(&session);
                        session = snap.restore(&m, 0x3, None).expect("restore");
                    }
                    let (token, _) = session.step_in(0..vocab).expect("step");
                    generated.push(token);
                    check.step_in(0..vocab);
                    assert_same_state(&format!("{label} step {step}"), &session, &check);
                }
                assert_eq!(generated, expected, "{label}");
            });
        }
    }
}

/// A KV cache transposes each key once, when it is appended; after that
/// every query head of the group, every later prefill chunk and every
/// decode step reads the resident panels. The only per-call transposes
/// left are the stripe columns a SampleAttention mask gathers, which this
/// wrapper tallies on the side. Discovery only reads the panels, so
/// re-running it here moves no key.
struct TallyExtras {
    inner: SampleAttentionMethod,
    extras: AtomicU64,
}

impl AttentionMethod for TallyExtras {
    fn name(&self) -> &str {
        self.inner.name()
    }

    fn forward(&self, q: &Matrix, k: &Matrix, v: &Matrix) -> Result<MethodOutput, TensorError> {
        self.inner.forward(q, k, v)
    }

    fn plan_head<'a>(
        &'a self,
        layer: usize,
        head: usize,
        q: Matrix,
        keys: &'a GroupKeys<'_>,
        v: &'a Matrix,
    ) -> Result<HeadPlan<'a>, TensorError> {
        let discovered = self
            .inner
            .inner()
            .discover_mask_prepared(&q, keys.panels())
            .expect("discovery on healthy inputs");
        self.extras.fetch_add(
            discovered.mask.extra_columns().len() as u64,
            Ordering::Relaxed,
        );
        self.inner.plan_head(layer, head, q, keys, v)
    }
}

#[test]
fn a_cache_key_is_transposed_once() {
    let model = SyntheticTransformer::new(ModelConfig::tiny(5)).expect("tiny config is valid");
    let cfg = *model.config();
    let tokens = model.tokenize_filler(512);
    let cache_keys = (tokens.len() * cfg.num_kv_heads * cfg.num_layers) as u64;
    let transposed = || trace::metrics::counter("kernels.keys_transposed").get();

    // Chunk-64 prefill under SampleAttention: 8 chunks x 2 layers x 4
    // heads = 64 head calls, each against the whole cache so far. (Chunks
    // of 32 rows lie in the bottom area and gather no stripe.)
    let method = TallyExtras {
        inner: SampleAttentionMethod::paper_default(),
        extras: AtomicU64::new(0),
    };
    let session = trace::scoped();
    let (result, _) = model
        .prefill_chunked(&tokens, 64, &method)
        .expect("chunked prefill");
    let counted = transposed();
    drop(session);
    assert_eq!(result.fallback_heads(), 0, "a dense fallback re-transposes");
    let extras = method.extras.load(Ordering::Relaxed);
    assert!(
        extras > 0,
        "no head gathered a stripe: the run proves nothing"
    );
    assert_eq!(
        counted,
        cache_keys + extras,
        "{cache_keys} cache keys + {extras} gathered stripe keys"
    );
    // (Transposing per head call and per chunk moved 9x the cache keys
    // here: the sum over chunks of the cache length, times 8 heads.)

    // Dense prefill in one chunk, then decode: nothing is gathered, and a
    // step adds one key per KV head and layer.
    let session = trace::scoped();
    let mut decode = model
        .begin_decode(&tokens, &FullAttention::new())
        .expect("prefill");
    assert_eq!(transposed(), cache_keys);
    for _ in 0..5 {
        decode.step().expect("decode step");
    }
    assert_eq!(
        transposed(),
        cache_keys + 5 * (cfg.num_kv_heads * cfg.num_layers) as u64
    );
    drop(session);
}

/// FNV-1a over a stream of words: a fingerprint of many floats' bits.
fn fingerprint(words: impl IntoIterator<Item = u32>) -> u64 {
    let mut h = 0xCBF2_9CE4_8422_2325u64;
    for w in words {
        h = (h ^ u64::from(w)).wrapping_mul(0x0000_0100_0000_01B3);
    }
    h
}

/// Checkpoints write key rows with the bits of the keys the cache was
/// given, however the cache holds them: the values below were recorded
/// when each cache head still held K as rows beside its panels, and a
/// capture from the panels alone must reproduce them exactly. A session
/// under SampleAttention with H2O eviction (keys gathered on every step
/// past the budget), then a prefill paused at a mid-prompt chunk: the
/// checksum, the KV values, and what the restored state goes on to
/// produce.
#[test]
fn checkpoint_bits_are_pinned() {
    let m = model();
    let vocab = m.config().vocab_size as u32;
    let layout = *m.embedder().layout();
    let method = SampleAttentionMethod::paper_default();

    let mut tokens = m.tokenize_filler(150);
    for (at, i) in [(20usize, 0usize), (70, 1), (110, 2)] {
        tokens[at] = layout.marker(i);
        tokens[at + 1] = layout.payload(3 * i + 1);
    }
    tokens[149] = layout.marker(1);
    let mut session = m
        .begin_decode_with(&tokens, &method, EvictionConfig::h2o(120))
        .expect("prefill");
    session.generate_in(5, 0..vocab).expect("generate");
    let snap = SessionCheckpoint::capture(&session);
    let mut restored = snap.restore(&m, 0x5EED, None).expect("restore");
    let next = restored.generate_in(8, 0..vocab).expect("generate");
    let contents = fingerprint(
        restored
            .last_contents()
            .iter()
            .flat_map(|c| bits(c.as_slice())),
    );
    assert_eq!(snap.checksum(), 0x0436_c6be_712b_593a, "session checksum");
    assert_eq!(snap.kv_bytes() / 4, 61_440, "session KV values");
    assert_eq!(next, [layout.payload(4); 8], "restored session's next tokens");
    assert_eq!(contents, 0x8ccf_487f_932f_553e, "restored session's newest contents");

    let tokens = m.tokenize_filler(200);
    let mut run = m.start_prefill(&tokens, 64).expect("start");
    for _ in 0..2 {
        run.advance_chunk(&method).expect("chunk");
    }
    let snap = PrefillCheckpoint::capture(&run);
    drop(run);
    let resumed = snap.restore(&m, 0x5EED, None).expect("restore");
    let (result, _) = resumed
        .run_to_end(&method, &CancelToken::new())
        .expect("finish");
    let newest = result.hidden.rows() - 1;
    let finished = fingerprint(
        bits(result.hidden.row(newest))
            .into_iter()
            .chain(result.head_contents.iter().flat_map(|c| bits(c.as_slice()))),
    );
    assert_eq!(snap.checksum(), 0x09a8_ad60_744b_15a1, "prefill checksum");
    assert_eq!(snap.kv_bytes() / 4, 65_536, "prefill KV values");
    assert_eq!(finished, 0xcc05_7a73_9820_25ef, "resumed prefill's newest rows");
}
