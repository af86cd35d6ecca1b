//! Pins the bits the synthetic model produces end to end: every head's
//! content rows, the final residual stream's newest row, and the tokens
//! and confidences of 32 decode steps, as digests recorded from the
//! model that projected, cached and attended over every `head_dim`
//! column of V. Only the first `content_dim` columns of a value row are
//! ever nonzero and only those are read, so a model that carries values
//! at `content_dim` must reproduce every digest below exactly: at 1K and
//! 4K through `begin_decode`, through `prefill_chunked` at 32- and
//! 512-row chunks (the serving shape, and chunks tall enough for
//! SampleAttention to discover a mask), and in a session whose cache H2O
//! eviction gathers on every step. The analysis entry, `prefill`, is
//! pinned beside them at 1K: every head's rows, every layer's input, the
//! whole final residual stream and the reports' densities and costs, as
//! recorded before the MLP ran in row blocks and heads handed their rows
//! over. The digests do not depend on the worker count;
//! `scripts/verify.sh` runs this file at `SA_THREADS=1`, 3 and the
//! default.

use sample_attention::baselines::SampleAttentionMethod;
use sample_attention::kernels::CostReport;
use sample_attention::model::{
    EvictionConfig, ModelConfig, PrefillResult, SyntheticTransformer,
};
use sample_attention::tensor::Matrix;

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

/// Every row a prefill result holds of every head, then the final
/// residual stream's newest row.
fn result_digest(result: &PrefillResult) -> u64 {
    let newest = result.hidden.rows() - 1;
    fingerprint(
        result
            .head_contents
            .iter()
            .flat_map(bits)
            .chain(result.hidden.row(newest).iter().map(|x| x.to_bits())),
    )
}

/// A session's prefill digest, then the digest of 32 greedy steps'
/// tokens and confidences and the newest contents after them.
fn session_digests(model: &SyntheticTransformer, len: usize, eviction: EvictionConfig) -> (u64, u64) {
    let tokens = prompt(model, len);
    let method = SampleAttentionMethod::paper_default();
    let mut session = model.begin_decode_with(&tokens, &method, eviction).expect("prefill");
    let prefill = result_digest(session.prefill_result());
    let mut words = Vec::new();
    for _ in 0..32 {
        let (token, confidence) = session.step().expect("step");
        words.extend([token, confidence.to_bits()]);
    }
    if eviction.budget > 0 {
        assert!(session.cache_len() <= eviction.budget, "eviction must have run");
    }
    words.extend(session.last_contents().iter().flat_map(bits));
    (prefill, fingerprint(words))
}

fn chunked_digest(model: &SyntheticTransformer, len: usize, chunk: usize) -> u64 {
    let tokens = prompt(model, len);
    let method = SampleAttentionMethod::paper_default();
    let (result, _) = model.prefill_chunked(&tokens, chunk, &method).expect("prefill");
    result_digest(&result)
}

fn model() -> SyntheticTransformer {
    SyntheticTransformer::new(ModelConfig::chatglm2_like(7)).expect("preset is valid")
}

#[test]
fn a_1k_decode_session_keeps_its_bits() {
    let got = session_digests(&model(), 1024, EvictionConfig::none());
    assert_eq!(got, (0x8ab3_33c6_c5d6_297a, 0x5a83_11f4_1241_379f));
}

#[test]
fn a_4k_decode_session_keeps_its_bits() {
    let got = session_digests(&model(), 4096, EvictionConfig::none());
    assert_eq!(got, (0xd76b_9f12_2911_5bf3, 0x56e6_a68f_568d_f838));
}

#[test]
fn chunked_prefills_keep_their_bits() {
    let m = model();
    assert_eq!(chunked_digest(&m, 1024, 32), 0xa86e_780c_58c3_6996, "chunks of 32");
    assert_eq!(chunked_digest(&m, 1024, 512), 0x7bc7_06f8_c0d0_9d24, "chunks of 512");
}

#[test]
fn an_evicting_session_keeps_its_bits() {
    let got = session_digests(&model(), 1024, EvictionConfig::h2o(1000));
    assert_eq!(got, (0x8ab3_33c6_c5d6_297a, 0x5085_705a_3e5c_c148));
}

/// The words of a cost report, field by field.
fn cost_words(c: &CostReport) -> impl Iterator<Item = u32> {
    [c.flops, c.bytes_read, c.bytes_written, c.kernel_launches]
        .into_iter()
        .flat_map(|x| [x as u32, (x >> 32) as u32])
}

#[test]
fn an_analysis_prefill_keeps_its_bits() {
    let m = model();
    let tokens = prompt(&m, 1024);
    let result = m.prefill(&tokens, &SampleAttentionMethod::paper_default()).expect("prefill");
    let (layers, heads) = (m.config().num_layers, m.config().num_heads);
    assert_eq!(result.layer_inputs.len(), layers);
    assert_eq!(result.head_contents.len(), layers * heads);
    assert!(result.layer_inputs.iter().all(|x| x.rows() == 1024), "every layer input is whole");
    assert!(result.head_contents.iter().all(|c| c.rows() == 1024), "every head keeps its rows");
    assert_eq!(result.hidden.rows(), 1024, "the final residual stream is whole");
    let rows = fingerprint(
        result
            .head_contents
            .iter()
            .chain(&result.layer_inputs)
            .chain([&result.hidden])
            .flat_map(bits),
    );
    let reports = fingerprint(
        result
            .head_reports
            .iter()
            .flat_map(|r| {
                let d = r.density.to_bits();
                [d as u32, (d >> 32) as u32].into_iter().chain(cost_words(&r.cost))
            })
            .chain(cost_words(&result.total_cost)),
    );
    assert_eq!((rows, reports), (0xe169_3c7e_2df4_80e3, 0x6394_b775_a32e_c853));
}
