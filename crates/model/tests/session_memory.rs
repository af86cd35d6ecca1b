//! Pins what a decode session holds: the KV cache — each head's keys once,
//! as the key panels the engine reads, and its value rows at the value
//! projection's `content_dim` content columns — the readout heads'
//! content rows, and a small stated slack for the bookkeeping. A second
//! copy of K as rows, value rows at `head_dim`, or the prompt's final
//! residual stream kept whole, is megabytes past the slack at this length
//! and fails the test.
//!
//! It also bounds what building the session costs on top: the heap's
//! peak during `begin_decode`, less the session, stays within a stated
//! number of bytes per prompt token — one layer call's working set (see
//! `ChunkedPrefill`). The whole prompt's MLP intermediates and every
//! head's rows held to the end of its layer, as the model once built a
//! session, are past it.
//!
//! A counting global allocator tallies live heap bytes and their peak. It
//! is process-wide, so this lives in its own integration-test binary,
//! with one test in it: nothing else allocates while the session is
//! built. The peak depends on how many heads the pool plans at once, so
//! `scripts/verify.sh` runs this file at `SA_THREADS=1`, 3 and the
//! default.

use std::alloc::{GlobalAlloc, Layout, System};
use std::sync::atomic::{AtomicIsize, Ordering};

use sa_baselines::SampleAttentionMethod;
use sa_model::{ModelConfig, SyntheticTransformer};

struct CountingAlloc;

static LIVE: AtomicIsize = AtomicIsize::new(0);
static PEAK: AtomicIsize = AtomicIsize::new(0);

/// Adds `delta` to the live tally and raises the peak to the new total.
fn count(delta: isize) {
    let now = LIVE.fetch_add(delta, Ordering::Relaxed) + delta;
    PEAK.fetch_max(now, Ordering::Relaxed);
}

// SAFETY: delegates every operation to `System` unchanged; the only
// additions are atomic updates of the live-byte tally and its peak,
// which do not allocate.
unsafe impl GlobalAlloc for CountingAlloc {
    unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
        count(layout.size() as isize);
        System.alloc(layout)
    }

    unsafe fn dealloc(&self, ptr: *mut u8, layout: Layout) {
        count(-(layout.size() as isize));
        System.dealloc(ptr, layout)
    }

    unsafe fn realloc(&self, ptr: *mut u8, layout: Layout, new_size: usize) -> *mut u8 {
        count(new_size as isize - layout.size() as isize);
        System.realloc(ptr, layout, new_size)
    }
}

#[global_allocator]
static ALLOC: CountingAlloc = CountingAlloc;

/// Prompt length: 16 key panels per head, and a final residual stream
/// (`S x 108` f32, 432 KiB) that alone is seven times the slack.
const SEQ_LEN: usize = 1024;

/// Everything a session holds beyond its KV cache and readout rows: the
/// tokens, one content row per head, the head reports, the readout, the
/// final residual stream's newest row, the embedding stream state.
/// Measured at 18 KiB.
const SLACK: usize = 64 << 10;

/// Heap bytes per prompt token that building a session may peak at above
/// the session it builds. Measured at 1K tokens: 2.7 KiB per token at
/// `SA_THREADS` from 1 to 8, in the last layer's second KV group — its
/// queries, the capped heads' gathered extras, its engine outputs, the
/// layer input and the content update. With the whole prompt's MLP
/// intermediates and every head's rows held through the layer it was
/// 4.2 KiB.
const PEAK_PER_TOKEN: usize = 3 << 10;

#[test]
fn a_session_holds_its_kv_cache_and_readout_rows_and_little_else() {
    let model = SyntheticTransformer::new(ModelConfig::chatglm2_like(7)).expect("preset is valid");
    let layout = *model.embedder().layout();
    let mut tokens = model.tokenize_filler(SEQ_LEN);
    tokens[300] = layout.marker(2);
    tokens[301] = layout.payload(5);
    tokens[SEQ_LEN - 1] = layout.marker(2);
    let method = SampleAttentionMethod::paper_default();
    // Start the worker pool and any lazily built state before measuring.
    drop(model.begin_decode(&tokens[..256], &method).expect("warm-up prefill"));

    let before = LIVE.load(Ordering::Relaxed);
    PEAK.store(before, Ordering::Relaxed);
    let session = model.begin_decode(&tokens, &method).expect("prefill");
    let held = (LIVE.load(Ordering::Relaxed) - before) as usize;
    let peak = (PEAK.load(Ordering::Relaxed) - before) as usize;

    let config = model.config();
    let (mut keys, mut values) = (0, 0);
    for cache in session.caches() {
        assert_eq!(cache.value_dim(), config.content_dim);
        for h in 0..cache.num_kv_heads() {
            let (panels, v) = cache.prepared(h);
            assert_eq!(panels.len(), SEQ_LEN);
            assert_eq!(v.shape(), (SEQ_LEN, config.content_dim), "cached values are content wide");
            keys += std::mem::size_of_val(panels.as_slice());
            values += std::mem::size_of_val(v.as_slice());
        }
    }
    assert_eq!(
        values,
        config.num_layers * config.num_kv_heads * SEQ_LEN * config.content_dim * 4,
        "value bytes: layers x KV heads x S x content_dim x 4"
    );
    let prefill = session.prefill_result();
    let readout: usize = prefill
        .head_contents
        .iter()
        .filter(|c| c.rows() > 1)
        .map(|c| std::mem::size_of_val(c.as_slice()))
        .sum();
    assert!(readout > 0, "no head keeps its rows: the readout reads nothing");
    let cache = keys + values;
    assert!(
        held >= cache + readout,
        "the session holds {held} B, less than its own cache ({cache} B) and readout rows \
         ({readout} B): the tally is broken"
    );
    assert!(
        held <= cache + readout + SLACK,
        "the session holds {held} B: K panels {keys} + V rows {values} + readout rows {readout} \
         + slack {SLACK} allows {} B",
        cache + readout + SLACK
    );
    assert!(
        peak - held <= PEAK_PER_TOKEN * SEQ_LEN,
        "building the session peaked at {peak} B, {} B above the {held} B it holds: the bound \
         is {PEAK_PER_TOKEN} B per token, {} B at {SEQ_LEN} tokens",
        peak - held,
        PEAK_PER_TOKEN * SEQ_LEN
    );
}
