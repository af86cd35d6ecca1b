//! Pins the bits a cache-keeping prompt run hands back — the run behind
//! `begin_decode`, `prefill_chunked`, serving attempts and restored
//! checkpoints — as digests recorded from the model that computed every
//! row of its last layer and then kept only what the run reads. Such a
//! run's last layer now computes only those rows (each head the readout
//! reads in full, every other head's newest row, the residual and MLP of
//! the newest row), so it must reproduce every digest below exactly,
//! under SampleAttention, dense attention and a fixed window: the kept
//! head rows, every cached K and V, the final residual stream's newest
//! row, a mid-run `PrefillCheckpoint` resumed to the end, and 32 greedy
//! decode steps' tokens and confidences. A last test holds the engine to
//! running one row of each last-layer head the run keeps one row of.
//! The digests do not depend on the worker count; `scripts/verify.sh`
//! runs this file at `SA_THREADS=1`, 3 and the default.

use std::sync::Mutex;

use sample_attention::baselines::{
    AttentionMethod, FullAttention, GroupKeys, HeadPlan, MethodOutput, PlannedHead,
    SampleAttentionMethod, WindowOnly,
};
use sample_attention::kernels::{BlockedAttentionOutput, EngineJob};
use sample_attention::model::{
    LayerKvCache, ModelConfig, PrefillCheckpoint, PrefillResult, SyntheticTransformer,
};
use sample_attention::tensor::{CancelToken, Matrix, TensorError};

/// FNV-1a over 32-bit words.
fn fingerprint(words: impl IntoIterator<Item = u32>) -> u64 {
    let mut h = 0xCBF2_9CE4_8422_2325u64;
    for w in words {
        h = (h ^ u64::from(w)).wrapping_mul(0x0000_0100_0000_01B3);
    }
    h
}

fn bits(m: &Matrix) -> impl Iterator<Item = u32> + '_ {
    m.as_slice().iter().map(|x| x.to_bits())
}

/// A needle prompt of `len` tokens: filler, three marker/payload pairs at
/// a quarter, half and three quarters of the way, and the second marker
/// asked again at the end.
fn prompt(model: &SyntheticTransformer, len: usize) -> Vec<u32> {
    let layout = *model.embedder().layout();
    let mut tokens = model.tokenize_filler(len);
    for (i, at) in [len / 4, len / 2, 3 * len / 4].into_iter().enumerate() {
        tokens[at] = layout.marker(i);
        tokens[at + 1] = layout.payload(3 * i + 2);
    }
    tokens[len - 1] = layout.marker(1);
    tokens
}

/// Every row a prefill result holds of every head, the final residual
/// stream's newest row, then every cached key panel and value row.
fn kept_words(result: &PrefillResult, caches: &[LayerKvCache]) -> Vec<u32> {
    let newest = result.hidden.rows() - 1;
    let mut words: Vec<u32> = result.head_contents.iter().flat_map(bits).collect();
    words.extend(result.hidden.row(newest).iter().map(|x| x.to_bits()));
    for cache in caches {
        for h in 0..cache.num_kv_heads() {
            let (keys, v) = cache.prepared(h);
            words.extend(keys.as_slice().iter().map(|x| x.to_bits()).chain(bits(v)));
        }
    }
    words
}

/// A `begin_decode` session's prefill digest, then the digest of 32
/// greedy steps' tokens and confidences, the newest contents and the
/// caches after them.
fn session_digests(model: &SyntheticTransformer, len: usize, method: &dyn AttentionMethod) -> [u64; 2] {
    let tokens = prompt(model, len);
    let mut session = model.begin_decode(&tokens, method).expect("prefill");
    let prefill = fingerprint(kept_words(session.prefill_result(), session.caches()));
    let mut words = Vec::new();
    for _ in 0..32 {
        let (token, confidence) = session.step().expect("step");
        words.extend([token, confidence.to_bits()]);
    }
    words.extend(session.last_contents().iter().flat_map(bits));
    for cache in session.caches() {
        for h in 0..cache.num_kv_heads() {
            let (keys, v) = cache.prepared(h);
            words.extend(keys.as_slice().iter().map(|x| x.to_bits()).chain(bits(v)));
        }
    }
    [prefill, fingerprint(words)]
}

fn chunked_digest(model: &SyntheticTransformer, len: usize, chunk: usize, method: &dyn AttentionMethod) -> u64 {
    let tokens = prompt(model, len);
    let (result, caches) = model.prefill_chunked(&tokens, chunk, method).expect("prefill");
    fingerprint(kept_words(&result, &caches))
}

/// A run checkpointed after half its chunks: the snapshot's checksum
/// and KV bytes, then what the restored run hands back at its end.
fn checkpoint_digest(model: &SyntheticTransformer, len: usize, chunk: usize, method: &dyn AttentionMethod) -> u64 {
    let tokens = prompt(model, len);
    let mut run = model.start_prefill(&tokens, chunk).expect("start");
    for _ in 0..run.total_chunks() / 2 {
        run.advance_chunk(method).expect("chunk");
    }
    let snap = PrefillCheckpoint::capture(&run);
    drop(run);
    let resumed = snap.restore(model, 0x5EED, None).expect("restore");
    let (result, caches) = resumed.run_to_end(method, &CancelToken::new()).expect("resume");
    let checksum = snap.checksum();
    let head = [checksum as u32, (checksum >> 32) as u32, snap.kv_bytes() as u32];
    fingerprint(head.into_iter().chain(kept_words(&result, &caches)))
}

fn model() -> SyntheticTransformer {
    SyntheticTransformer::new(ModelConfig::chatglm2_like(7)).expect("preset is valid")
}

/// `begin_decode` at 1K and 4K (prefill, then decode), `prefill_chunked`
/// at 1K in chunks of 32, 64 and 512, and a 1K run in chunks of 64
/// checkpointed half way.
fn digests(method: &dyn AttentionMethod) -> Vec<u64> {
    let m = model();
    let mut out = Vec::new();
    out.extend(session_digests(&m, 1024, method));
    out.extend(session_digests(&m, 4096, method));
    for chunk in [32, 64, 512] {
        out.push(chunked_digest(&m, 1024, chunk, method));
    }
    out.push(checkpoint_digest(&m, 1024, 64, method));
    out
}

#[test]
fn sample_attention_runs_keep_their_bits() {
    let got = digests(&SampleAttentionMethod::paper_default());
    let want = vec![
        0xb493_ab9c_f054_3eeb, 0xbbe6_0f43_16df_f560, // begin_decode 1K: prefill, decode
        0xb76d_4189_00e2_b8ff, 0xc830_ab4e_576c_9e2c, // begin_decode 4K
        0x6910_150c_a5a8_415a, 0x9467_5ce1_42ef_8f18, 0xbb35_823a_2614_6177, // chunks of 32, 64, 512
        0x6556_d173_3236_8be2, // checkpointed and resumed
    ];
    assert_eq!(got, want);
}

#[test]
fn dense_runs_keep_their_bits() {
    let got = digests(&FullAttention::new());
    let want = vec![
        0x6910_150c_a5a8_415a, 0x23b3_0eda_b2f9_0a0d, // begin_decode 1K: prefill, decode
        0x2bb4_6c5e_8696_5d89, 0xfc93_ac29_abd7_ec6d, // begin_decode 4K
        0x6910_150c_a5a8_415a, 0x6910_150c_a5a8_415a, 0x6910_150c_a5a8_415a, // chunks of 32, 64, 512
        0xda9a_e7c9_8257_5153, // checkpointed and resumed
    ];
    assert_eq!(got, want);
}

#[test]
fn window_runs_keep_their_bits() {
    let got = digests(&WindowOnly::new(0.1).expect("valid ratio"));
    let want = vec![
        0x5260_b09a_491d_10c8, 0x8838_d127_49be_732b, // begin_decode 1K: prefill, decode
        0x7474_d9ae_5e60_fc49, 0x84bb_aa92_0cf1_4870, // begin_decode 4K
        0x9846_eabf_b987_3c95, 0x82ba_8fbe_d80e_3c29, 0x457d_7716_caa0_dbf4, // chunks of 32, 64, 512
        0xc518_4bba_c622_cb3f, // checkpointed and resumed
    ];
    assert_eq!(got, want);
}

/// One engine run a head finished: its layer and head, the query rows it
/// planned on, the output rows the engine computed.
type Run = (usize, usize, usize, usize);

/// `inner`, recording each engine run of a head it planned.
struct EngineTally {
    inner: Box<dyn AttentionMethod>,
    runs: Mutex<Vec<Run>>,
}

impl AttentionMethod for EngineTally {
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
        let rows = q.rows();
        Ok(match self.inner.plan_head(layer, head, q, keys, v)? {
            HeadPlan::Engine(planned) => HeadPlan::Engine(Box::new(Tallied {
                planned,
                run: (layer, head, rows, 0),
                runs: &self.runs,
            })),
            done => done,
        })
    }
}

struct Tallied<'a> {
    planned: Box<dyn PlannedHead + 'a>,
    run: Run,
    runs: &'a Mutex<Vec<Run>>,
}

impl PlannedHead for Tallied<'_> {
    fn job(&self) -> EngineJob<'_> {
        self.planned.job()
    }

    fn finish(
        self: Box<Self>,
        run: Result<BlockedAttentionOutput, TensorError>,
    ) -> Result<MethodOutput, TensorError> {
        let (layer, head, rows, _) = self.run;
        let computed = run.as_ref().map_or(0, |out| out.output.rows());
        self.runs.lock().expect("tally").push((layer, head, rows, computed));
        self.planned.finish(run)
    }
}

/// In a cache-keeping run, a last-layer head the run keeps one row of
/// runs the engine on its chunk's newest row alone, chunk after chunk;
/// every other head, and every head of an analysis `prefill`, runs every
/// row.
#[test]
fn a_last_layer_head_kept_to_its_newest_row_runs_that_row_alone() {
    let m = SyntheticTransformer::new(ModelConfig::tiny(0x1A57)).expect("preset is valid");
    let tokens = prompt(&m, 300);
    let last = m.config().num_layers - 1;
    let methods: [Box<dyn AttentionMethod>; 3] = [
        Box::new(SampleAttentionMethod::paper_default()),
        Box::new(FullAttention::new()),
        Box::new(WindowOnly::new(0.1).expect("valid ratio")),
    ];
    for inner in methods {
        let name = inner.name().to_string();
        let method = EngineTally { inner, runs: Mutex::new(Vec::new()) };
        for chunk in [300, 64] {
            let (result, _) = m.prefill_chunked(&tokens, chunk, &method).expect("prefill");
            let runs = std::mem::take(&mut *method.runs.lock().expect("tally"));
            let heads = m.config().num_heads;
            assert_eq!(runs.len(), tokens.len().div_ceil(chunk) * m.config().num_layers * heads);
            let mut cut = 0;
            for (layer, head, rows, computed) in runs {
                let kept = result.head_contents[layer * heads + head].rows();
                if layer == last && kept == 1 {
                    assert_eq!(computed, 1, "{name}, chunks of {chunk}: L{layer}.H{head} ran {computed} rows");
                    cut += 1;
                } else {
                    assert_eq!(computed, rows, "{name}, chunks of {chunk}: L{layer}.H{head}");
                }
            }
            assert!(cut > 0, "{name}: no last-layer head was kept to one row");
        }
        m.prefill(&tokens, &method).expect("prefill");
        for (layer, head, rows, computed) in method.runs.lock().expect("tally").drain(..) {
            assert_eq!(computed, rows, "{name}, analysis: L{layer}.H{head}");
        }
    }
}
