//! Property-based equivalence of the attention kernels: the blocked flash
//! kernel and the structured-sparse kernel must agree with the naive
//! dense references on arbitrary shapes and masks. Driven by the in-repo
//! harness ([`sample_attention::tensor::check`]).

use sample_attention::core::merge_mask;
use sample_attention::core::SampleAttentionConfig;
use sample_attention::kernels::{
    attention_probs, flash_attention, flash_attention_prepared, full_attention,
    masked_attention_dense, sparse_flash_attention, sparse_flash_attention_blocked,
    sparse_flash_attention_prepared, sparse_flash_attention_prepared_on,
    sparse_flash_attention_tiled, FlashParams, KeyPanels, PreparedKeys, StructuredMask, TiledMask,
};
use sample_attention::tensor::check::run_cases;
use sample_attention::tensor::{max_abs_diff, pool, DeterministicRng, Isa, Matrix};

fn qkv(s_q: usize, s_k: usize, d: usize, seed: u64) -> (Matrix, Matrix, Matrix) {
    let mut rng = DeterministicRng::new(seed);
    (
        rng.normal_matrix(s_q, d, 1.0),
        rng.normal_matrix(s_k, d, 1.0),
        rng.normal_matrix(s_k, d, 1.0),
    )
}

/// Flash attention equals full attention for any shape and tile size.
#[test]
fn flash_equals_full() {
    run_cases("flash_equals_full", |g| {
        let s = g.usize_in(2, 80);
        let d = g.even_in(2, 16);
        let (br, bc) = (g.usize_in(1, 40), g.usize_in(1, 40));
        let (q, k, v) = qkv(s, s, d, g.u64_in(0, 1000));
        let params = FlashParams {
            block_rows: br,
            block_cols: bc,
        };
        let flash = flash_attention(&q, &k, &v, true, params).unwrap();
        let exact = full_attention(&q, &k, &v, true).unwrap();
        assert!(max_abs_diff(flash.output.as_slice(), exact.output.as_slice()) < 2e-4);
    });
}

/// The structured-sparse kernel equals the dense masked reference for
/// any window/sink/stripe/bottom-area combination.
#[test]
fn sparse_equals_masked_reference() {
    run_cases("sparse_equals_masked_reference", |g| {
        let s = g.usize_in(4, 64);
        let d = g.even_in(2, 12);
        let window = g.usize_in(0, 20);
        let sinks = g.usize_in(0, 6);
        let tail = g.usize_in(0, 16);
        let cols: Vec<usize> = g
            .vec_usize(0, 64, 0, 6)
            .into_iter()
            .filter(|&c| c < s)
            .collect();
        let (q, k, v) = qkv(s, s, d, g.u64_in(0, 1000));
        let mask = StructuredMask::builder(s, s)
            .window(window)
            .sinks(sinks)
            .columns(cols)
            .dense_tail_rows(tail)
            .build()
            .unwrap();
        let sparse = sparse_flash_attention(&q, &k, &v, &mask).unwrap();
        let reference = masked_attention_dense(&q, &k, &v, &mask.to_dense()).unwrap();
        assert!(max_abs_diff(sparse.output.as_slice(), reference.output.as_slice()) < 2e-4);
    });
}

/// With an everything-visible mask (window covering all causal keys) the
/// sparse kernel degenerates to exact full attention — within 1e-5, much
/// tighter than the sparse-vs-naive bound, because both paths then
/// normalise over identical key sets.
#[test]
fn sparse_with_full_window_equals_full() {
    run_cases("sparse_with_full_window_equals_full", |g| {
        let s = g.usize_in(2, 64);
        let d = g.even_in(2, 12);
        let (q, k, v) = qkv(s, s, d, g.u64_in(0, 1000));
        let mask = StructuredMask::dense_causal(s, s);
        let sparse = sparse_flash_attention(&q, &k, &v, &mask).unwrap();
        let exact = full_attention(&q, &k, &v, true).unwrap();
        assert!(max_abs_diff(sparse.output.as_slice(), exact.output.as_slice()) < 1e-5);
    });
}

/// Attention probabilities are row-stochastic: every causal row of the
/// softmaxed score matrix sums to 1.
#[test]
fn attention_probs_rows_sum_to_one() {
    run_cases("attention_probs_rows_sum_to_one", |g| {
        let s = g.usize_in(1, 64);
        let d = g.even_in(2, 12);
        let (q, k, _) = qkv(s, s, d, g.u64_in(0, 1000));
        let p = attention_probs(&q, &k, true).unwrap();
        for i in 0..s {
            let sum: f32 = p.row(i).iter().sum();
            assert!((sum - 1.0).abs() < 1e-4, "row {i} sums to {sum}");
        }
    });
}

/// The merged stage-3 mask is a superset of window ∪ sinks within the
/// causal triangle: merging stripe columns can only add coverage.
#[test]
fn merged_mask_superset_of_window_and_sinks() {
    run_cases("merged_mask_superset_of_window_and_sinks", |g| {
        let s = g.usize_in(4, 64);
        let sinks = g.usize_in(0, 4);
        let kv: Vec<usize> = g
            .vec_usize(0, 64, 0, 8)
            .into_iter()
            .filter(|&c| c < s)
            .collect();
        let config = SampleAttentionConfig::builder()
            .window_ratio(g.f32_in(0.01, 0.5))
            .forced_sinks(sinks)
            .build()
            .unwrap();
        let merged = merge_mask(s, s, &kv, &config).unwrap();
        let window_only = StructuredMask::builder(s, s)
            .window(config.window_size(s))
            .sinks(config.forced_sinks)
            .dense_tail_rows(config.bottom_area_rows)
            .build()
            .unwrap();
        for i in 0..s {
            for j in 0..=i {
                if window_only.is_allowed(i, j) {
                    assert!(merged.is_allowed(i, j), "merged mask lost ({i},{j})");
                }
                if kv.contains(&j) {
                    assert!(merged.is_allowed(i, j), "stripe ({i},{j}) not merged");
                }
            }
        }
    });
}

/// Rectangular problems (prefill continuation): flash still matches.
#[test]
fn flash_rectangular() {
    run_cases("flash_rectangular", |g| {
        let s_q = g.usize_in(1, 24);
        let s_k = s_q + g.usize_in(0, 24);
        let d = g.even_in(2, 10);
        let (q, k, v) = qkv(s_q, s_k, d, g.u64_in(0, 1000));
        let flash = flash_attention(&q, &k, &v, true, FlashParams::default()).unwrap();
        let exact = full_attention(&q, &k, &v, true).unwrap();
        assert!(max_abs_diff(flash.output.as_slice(), exact.output.as_slice()) < 2e-4);
    });
}

/// Bitwise equality: the blocked engine must reproduce the row-wise
/// reference's output *exactly*, not merely within a float tolerance.
fn assert_bitwise(label: &str, engine: &Matrix, reference: &Matrix) {
    assert_eq!(engine.shape(), reference.shape(), "{label}: shape drift");
    for (i, (a, b)) in engine
        .as_slice()
        .iter()
        .zip(reference.as_slice())
        .enumerate()
    {
        assert_eq!(
            a.to_bits(),
            b.to_bits(),
            "{label}: element {i} differs ({a} vs {b})"
        );
    }
}

/// Runs engine and reference on `mask` and holds them to the whole
/// contract: bitwise-equal outputs, equal FLOPs, the engine's live-pair
/// tally equal to `mask.nnz()`, and (when the dense oracle is small
/// enough to build) agreement with it within 1e-4.
fn assert_engine_matches_reference(label: &str, mask: &StructuredMask, d: usize, seed: u64) {
    let (q, k, v) = qkv(mask.s_q(), mask.s_k(), d, seed);
    let reference = sparse_flash_attention(&q, &k, &v, mask).unwrap();
    let engine = sparse_flash_attention_blocked(&q, &k, &v, mask).unwrap();
    assert_bitwise(label, &engine.output, &reference.output);
    assert_eq!(engine.cost.flops, reference.cost.flops, "{label}: flops");
    assert_eq!(engine.live_pairs, mask.nnz() as u64, "{label}: live pairs");
    assert!(engine.scored_pairs >= engine.live_pairs, "{label}: scored");
    if mask.s_q() * mask.s_k() <= 1 << 20 {
        let oracle = masked_attention_dense(&q, &k, &v, &mask.to_dense()).unwrap();
        assert!(
            max_abs_diff(engine.output.as_slice(), oracle.output.as_slice()) < 1e-4,
            "{label}: drifted from the dense masked reference"
        );
    }
}

/// The differential property at the heart of the engine: for any
/// randomized mask (window/sinks/stripes/dense tail, square or
/// rectangular, lengths on and off the 64-row block grid), the engine is
/// bitwise-identical to the row-wise reference, charges identical FLOPs,
/// and agrees with the dense masked reference within the usual
/// tolerance. The retained `sparse_flash_attention_tiled` entry point is
/// the same engine whatever tile the layout was built with.
#[test]
fn engine_bitwise_matches_reference_randomized() {
    run_cases("engine_bitwise_matches_reference_randomized", |g| {
        let s_q = g.usize_in(4, 200);
        let s_k = if g.chance(0.3) {
            g.usize_in(4, 200)
        } else {
            s_q
        };
        let d = g.even_in(2, 12);
        let window = g.usize_in(0, 90);
        let sinks = g.usize_in(0, 5);
        let tail = g.usize_in(0, 12);
        let cols: Vec<usize> = g
            .vec_usize(0, 200, 0, 90)
            .into_iter()
            .filter(|&c| c < s_k)
            .collect();
        let tile = g.usize_in(1, 64);
        let mask = StructuredMask::builder(s_q, s_k)
            .window(window)
            .sinks(sinks)
            .columns(cols)
            .dense_tail_rows(tail)
            .build()
            .unwrap();
        let label = format!("s_q={s_q} s_k={s_k} window={window}");
        let seed = g.u64_in(0, 1000);
        assert_engine_matches_reference(&label, &mask, d, seed);
        let (q, k, v) = qkv(s_q, s_k, d, seed);
        let tiling = TiledMask::build(mask.clone(), tile).unwrap();
        let via_tiled = sparse_flash_attention_tiled(&q, &k, &v, &tiling).unwrap();
        let engine = sparse_flash_attention_blocked(&q, &k, &v, &mask).unwrap();
        assert_bitwise(
            &format!("{label} tile={tile}"),
            &via_tiled.output,
            &engine.output,
        );
    });
}

/// Named sparsity patterns, each aimed at one seam of the engine:
/// the fold order (extras, then window), the 64-rank
/// panel edge, rows of one query block disagreeing about which extras
/// lie below their window, dense bottom rows sharing a block with
/// windowed rows, dead rows, and lengths off the block grid.
fn corner_case_masks() -> Vec<(&'static str, StructuredMask)> {
    let b = |s_q: usize, s_k: usize| StructuredMask::builder(s_q, s_k);
    vec![
        ("window_only", b(150, 150).window(7).build().unwrap()),
        ("sink_only", b(150, 150).window(0).sinks(3).build().unwrap()),
        (
            "stripes",
            b(150, 150)
                .window(1)
                .columns(vec![2, 11, 29, 149])
                .build()
                .unwrap(),
        ),
        (
            // 100 extras: ranks 64.. live in the second score panel.
            "extras_cross_a_panel_edge",
            b(320, 320)
                .window(16)
                .columns((0..100).map(|i| i * 3).collect())
                .build()
                .unwrap(),
        ),
        (
            // Window starts of rows 100..163 sweep over extras 70..130,
            // so the rows of one query block see different rank prefixes.
            "extras_straddle_window_start_inside_a_block",
            b(256, 256)
                .window(30)
                .columns((70..130).step_by(2).collect())
                .build()
                .unwrap(),
        ),
        (
            "narrow_window_one_sink",
            b(200, 200).window(5).sinks(1).build().unwrap(),
        ),
        (
            // The last 40 rows are dense: rows 160..191 share a query
            // block with windowed rows 128..159.
            "dense_tail_straddles_a_block",
            b(200, 200)
                .window(12)
                .sinks(2)
                .columns(vec![40, 90])
                .dense_tail_rows(40)
                .build()
                .unwrap(),
        ),
        (
            "s_q_shorter_than_s_k",
            b(70, 190)
                .window(20)
                .sinks(2)
                .columns(vec![33, 77])
                .build()
                .unwrap(),
        ),
        (
            // Rows 0..74 see no key at all.
            "s_q_longer_than_s_k_with_empty_rows",
            b(140, 65).window(5).sinks(1).build().unwrap(),
        ),
        ("fully_masked_rows", b(70, 70).window(0).build().unwrap()),
        ("dense_causal", StructuredMask::dense_causal(130, 130)),
        (
            // 129 rows: the last query block is one row, a single past
            // the last whole four. The window starts of rows 64.. fall
            // one key a row, so every four rows of the window-start tile
            // share the middle of their ranges and disagree at both ends.
            "s_q_one_past_a_quad_window_starts_mid_quad",
            b(129, 129).window(10).sinks(1).build().unwrap(),
        ),
        (
            // 66 rows: two rows past the last whole four; the window of
            // 6 starts inside a quad, so quads mix rows whose window
            // starts in this key block with rows that start in the last.
            "s_q_two_past_a_quad_window_starts_mid_quad",
            b(66, 66).window(6).columns(vec![1, 5, 9]).build().unwrap(),
        ),
        (
            // 135 rows: three past the last whole four, a dense tail that
            // starts inside a quad (rows 121..) beside windowed rows.
            "s_q_three_past_a_quad_dense_tail_mid_quad",
            b(135, 135)
                .window(31)
                .sinks(2)
                .dense_tail_rows(14)
                .build()
                .unwrap(),
        ),
        (
            "s_q_not_a_multiple_of_64",
            b(97, 97)
                .window(9)
                .sinks(2)
                .columns(vec![4, 33])
                .dense_tail_rows(6)
                .build()
                .unwrap(),
        ),
    ]
}

/// Every named pattern: engine ≡ reference bit for bit, tallies exact.
#[test]
fn engine_bitwise_matches_reference_on_corner_cases() {
    for (name, mask) in corner_case_masks() {
        assert_engine_matches_reference(name, &mask, 8, 0x7117);
    }
}

/// Thread invariance: for every named pattern the engine's output under
/// `SA_THREADS` = 1, 2, 3, 5 and the session default is bitwise-identical
/// to the reference run on one thread. The chunk grain is a multiple of
/// 64 rows fixed by the workload alone, so every thread count walks the
/// same query-block grid; `d = 64` makes the grain one block, so the
/// longer patterns really split into several chunks.
#[test]
fn engine_thread_invariant_across_patterns() {
    for (name, mask) in corner_case_masks() {
        let (q, k, v) = qkv(mask.s_q(), mask.s_k(), 64, 0x7117);
        let (q, k, v) = (&q, &k, &v);
        let reference = pool::with_threads(1, || sparse_flash_attention(q, k, v, &mask)).unwrap();
        for threads in [1usize, 2, 3, 5] {
            let out =
                pool::with_threads(threads, || sparse_flash_attention_blocked(q, k, v, &mask))
                    .unwrap();
            assert_bitwise(
                &format!("{name} threads={threads}"),
                &out.output,
                &reference.output,
            );
            assert_eq!(
                out.live_pairs,
                mask.nnz() as u64,
                "{name} threads={threads}"
            );
        }
        // Session default thread count (whatever SA_THREADS says).
        let out = sparse_flash_attention_blocked(q, k, v, &mask).unwrap();
        assert_bitwise(
            &format!("{name} default threads"),
            &out.output,
            &reference.output,
        );
    }
}

/// Panels built by appending `step` rows at a time, as a KV cache grows
/// them.
fn panels_grown(k: &Matrix, step: usize) -> KeyPanels {
    let mut panels = KeyPanels::new(k.cols());
    for start in (0..k.rows()).step_by(step) {
        let rows = k.slice_rows(start, (start + step).min(k.rows())).unwrap();
        panels.append(&rows).unwrap();
    }
    panels
}

/// Resident panels are the panels of the final K however they grew
/// (row by row as in decode, in 32-row prefill chunks, off the 64-lane
/// grid), and the engine on them equals the engine that transposes per
/// call, for every named pattern.
#[test]
fn resident_panels_equal_panels_built_per_call() {
    let (_, k, _) = qkv(1, 203, 8, 0xFA57);
    let whole = KeyPanels::from_rows(&k);
    for step in [1usize, 32, 37, 64, 203] {
        let grown = panels_grown(&k, step);
        assert_eq!(grown.len(), whole.len(), "step {step}");
        let bits = |p: &KeyPanels| -> Vec<u32> { p.as_slice().iter().map(|x| x.to_bits()).collect() };
        assert_eq!(bits(&grown), bits(&whole), "step {step}");
    }
    for (name, mask) in corner_case_masks() {
        let (q, k, v) = qkv(mask.s_q(), mask.s_k(), 8, 0x7117);
        let panels = panels_grown(&k, 37);
        let resident =
            sparse_flash_attention_prepared(&q, PreparedKeys::new(&k, &panels), &v, &mask).unwrap();
        let per_call = sparse_flash_attention_blocked(&q, &k, &v, &mask).unwrap();
        assert_bitwise(name, &resident.output, &per_call.output);
        assert_eq!(resident.cost, per_call.cost, "{name}");
        assert_eq!(resident.scored_pairs, per_call.scored_pairs, "{name}");
    }
}

/// A decode step: the one-row queries of up to four heads sharing a KV
/// head, scored as one row block against panels that grew with the
/// cache. Each row must equal, bit for bit, the row-wise reference run
/// on that row alone with every key visible — at cache lengths on either
/// side of a panel edge and one past the 4096-key prompt.
#[test]
fn decode_row_blocks_on_resident_panels_match_reference() {
    for s_k in [1usize, 63, 64, 65, 4096 + 1] {
        let (_, k, v) = qkv(1, s_k, 64, 0xDEC0 + s_k as u64);
        // A prompt's worth appended at once, then one key per step.
        let prompt = s_k.saturating_sub(3);
        let mut panels = KeyPanels::from_rows(&k.slice_rows(0, prompt).unwrap());
        panels.append(&k.slice_rows(prompt, s_k).unwrap()).unwrap();
        for rows in 1..=4usize {
            let q = DeterministicRng::new(0x0D + rows as u64).normal_matrix(rows, 64, 1.0);
            let block = flash_attention_prepared(
                &q,
                PreparedKeys::new(&k, &panels),
                &v,
                false,
                FlashParams::default(),
            )
            .unwrap();
            let all_keys = StructuredMask::dense_causal(1, s_k);
            for r in 0..rows {
                let q_row = q.slice_rows(r, r + 1).unwrap();
                let reference = sparse_flash_attention(&q_row, &k, &v, &all_keys).unwrap();
                let got = block.output.slice_rows(r, r + 1).unwrap();
                assert_bitwise(
                    &format!("s_k={s_k} rows={rows} row={r}"),
                    &got,
                    &reference.output,
                );
            }
        }
    }
}

/// The long-context case: 8K rows, every kind of key.
fn long_context_mask() -> StructuredMask {
    let s = 8192;
    StructuredMask::builder(s, s)
        .window(48)
        .sinks(4)
        .columns(vec![64, 1000, 4096])
        .dense_tail_rows(32)
        .build()
        .unwrap()
}

/// The inner loops (score panel, row and tile folds) are each compiled
/// three times, for the baseline instruction set, for AVX2 and for
/// AVX-512, and the CPU picks. Every build runs the same per-lane
/// arithmetic, so the whole engine on each must equal the others and the
/// row-wise reference bit for bit: on every named pattern, on
/// decode-shaped blocks of 1..4 rows, and at 8K. A CPU runs the builds it
/// has: only the baseline one without AVX2, all three with AVX-512.
#[test]
fn engine_bitwise_identical_on_every_isa() {
    let builds = Isa::every();
    #[cfg(target_arch = "x86_64")]
    if std::arch::is_x86_feature_detected!("avx512f") {
        assert_eq!(builds.len(), 3, "an AVX-512 CPU must hold all three builds");
    }
    if builds.len() == 1 {
        println!(
            "this CPU lacks AVX2: wide builds skipped, baseline build held to the reference only"
        );
    }
    let decode_blocks = (1..=4usize).map(|s_q| {
        let mask = StructuredMask::builder(s_q, 150)
            .window(20)
            .sinks(2)
            .columns((0..70).map(|i| 3 + i).collect())
            .build()
            .unwrap();
        ("decode_row_block", mask)
    });
    let cases = corner_case_masks()
        .into_iter()
        .chain(decode_blocks)
        .chain([("long_context", long_context_mask())]);
    for (name, mask) in cases {
        // Step 5 of the fold runs whole column chunks in registers (32
        // columns a row under AVX2, 64 under AVX-512) and the rest key by
        // key: d = 40 is one whole 32-column chunk plus a tail, 64 one
        // whole 64-column chunk, 72 one plus a tail.
        for d in [40, 64, 72] {
            let (q, k, v) = qkv(mask.s_q(), mask.s_k(), d, 0x15A);
            let panels = KeyPanels::from_rows(&k);
            let reference = sparse_flash_attention(&q, &k, &v, &mask).unwrap();
            for &isa in &builds {
                let label = format!("{name} s_q={} d={d} on {}", mask.s_q(), isa.name());
                let keys = PreparedKeys::new(&k, &panels);
                let engine = sparse_flash_attention_prepared_on(isa, &q, keys, &v, &mask).unwrap();
                assert_bitwise(&label, &engine.output, &reference.output);
                assert_eq!(engine.live_pairs, mask.nnz() as u64, "{label}: live pairs");
            }
        }
    }
}

/// Long-context differential: an 8K-row structured mask. The dense
/// reference is too big to materialise here; the row-wise kernel —
/// itself proven against the dense oracle above — is the ground truth,
/// and the engine must match it bit for bit with identical FLOP
/// accounting and an exact live-pair tally.
#[test]
fn engine_differential_at_long_context() {
    assert_engine_matches_reference("long context", &long_context_mask(), 8, 0x8192);
}

/// Mask bookkeeping: nnz equals the dense materialisation's count and
/// density stays in [0, 1].
#[test]
fn mask_nnz_consistent() {
    run_cases("mask_nnz_consistent", |g| {
        let s = g.usize_in(1, 48);
        let window = g.usize_in(0, 24);
        let sinks = g.usize_in(0, 8);
        let tail = g.usize_in(0, 10);
        let cols: Vec<usize> = g
            .vec_usize(0, 48, 0, 8)
            .into_iter()
            .filter(|&c| c < s)
            .collect();
        let mask = StructuredMask::builder(s, s)
            .window(window)
            .sinks(sinks)
            .columns(cols)
            .dense_tail_rows(tail)
            .build()
            .unwrap();
        assert_eq!(mask.nnz(), mask.to_dense().nnz());
        assert!(mask.density() >= 0.0 && mask.density() <= 1.0);
        // is_allowed agrees with the dense oracle everywhere.
        let dense = mask.to_dense();
        for i in 0..s {
            for j in 0..s {
                assert_eq!(mask.is_allowed(i, j), dense.get(i, j));
            }
        }
    });
}
