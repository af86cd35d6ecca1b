//! The prompt path and the decode phase.
//!
//! The paper only replaces *prefill* attention; generation proceeds with
//! full attention over an uncompressed KV cache (§5.1), and its serving
//! stack chunks long prefills along the sequence (Appendix A.6). This
//! module provides both on top of [`crate::AttentionLayer::forward_incremental`]:
//!
//! - [`ChunkedPrefill`] — the one way a prompt runs, in chunks with
//!   per-layer KV caches: [`SyntheticTransformer::prefill`] is one chunk,
//!   and `prefill_chunked`, `begin_decode` and the serving layer drive it
//!   too. Under dense attention every chunk size gives one chunk's bits
//!   (the tests assert it); SampleAttention discovers a mask per chunk.
//!   A run decides at its start what it hands back: `prefill`, the
//!   analysis entry, keeps every layer's input, every head's rows and
//!   the whole final residual stream, and drops the caches; every
//!   cache-keeping run keeps the caches and only what decoding and
//!   serving read — the readout heads' rows, each other head's newest
//!   row, the final residual stream's newest row, no layer inputs — so a
//!   long session does not hold diagnostics beside its KV cache.
//! - [`DecodeSession`] — autoregressive generation after a prefill: each
//!   step embeds the newest token, runs it through every layer with full
//!   attention over the caches (a KV group's heads as one row block
//!   against the cache's resident key panels), and decodes the retrieval
//!   heads' output into the next token.

use sa_baselines::AttentionMethod;
use sa_kernels::{attention_scores_prepared, CostReport, KeyPanels};
use sa_tensor::{cancel, softmax_rows_in_place, CancelToken, Matrix, TensorError};

use crate::embedding::EmbedStream;
use crate::{
    EvictionConfig, HeadReport, LayerKvCache, PrefillResult, Readout, SyntheticTransformer,
};

impl SyntheticTransformer {
    /// Prefills in chunks of `chunk_size` rows (the last chunk may be
    /// shorter), maintaining per-layer KV caches. Returns the caches,
    /// ready for decoding, and a [`PrefillResult`] that holds what a
    /// decode or serving caller reads: [`prefill`](Self::prefill)'s
    /// reports and cost, the newest row of its `hidden`, every row of the
    /// heads the [`Readout`] reads and each other head's newest row, and
    /// no layer inputs (see [`PrefillResult`]). Every value it holds has
    /// the bits a run at the same chunk size would give under `prefill`'s
    /// retention. For cooperative cancellation, drive
    /// [`start_prefill`](Self::start_prefill)'s run with
    /// [`ChunkedPrefill::run_to_end`].
    ///
    /// # Errors
    ///
    /// As [`start_prefill`](Self::start_prefill), or propagates kernel
    /// errors.
    pub fn prefill_chunked(
        &self,
        tokens: &[u32],
        chunk_size: usize,
        method: &dyn AttentionMethod,
    ) -> Result<(PrefillResult, Vec<LayerKvCache>), TensorError> {
        self.start_prefill(tokens, chunk_size)?
            .run_to_end(method, &CancelToken::new())
    }

    /// Starts a resumable chunked prefill (see [`ChunkedPrefill`]): the
    /// caller advances it one chunk at a time, which lets the serving
    /// layer checkpoint progress at chunk boundaries and resume after a
    /// crash without replaying completed chunks.
    ///
    /// # Errors
    ///
    /// Returns [`TensorError::InvalidDimension`] for an empty prompt or a
    /// zero chunk size, and [`TensorError::IndexOutOfBounds`] for a token
    /// outside the vocabulary.
    pub fn start_prefill(
        &self,
        tokens: &[u32],
        chunk_size: usize,
    ) -> Result<ChunkedPrefill<'_>, TensorError> {
        self.start_run(tokens, chunk_size, false)
    }

    /// [`start_prefill`](Self::start_prefill) with the run's retention:
    /// `analysis` is [`prefill`](Self::prefill)'s (see
    /// [`ChunkedPrefill::analysis`]).
    pub(crate) fn start_run(
        &self,
        tokens: &[u32],
        chunk_size: usize,
        analysis: bool,
    ) -> Result<ChunkedPrefill<'_>, TensorError> {
        if tokens.is_empty() {
            return Err(TensorError::InvalidDimension {
                op: "prefill_chunked",
                what: "the prompt must hold at least one token".to_string(),
            });
        }
        if chunk_size == 0 {
            return Err(TensorError::InvalidDimension {
                op: "prefill_chunked",
                what: "chunk_size must be >= 1".to_string(),
            });
        }
        for &token in tokens {
            self.check_token("prefill_chunked", token)?;
        }
        let num_layers = self.config().num_layers;
        let num_heads = self.config().num_heads;
        let hidden_full = self.embedder().embed(tokens);
        let caches: Vec<LayerKvCache> = self
            .layers()
            .iter()
            .map(|l| l.new_cache())
            .collect();
        let layer_inputs = if analysis {
            vec![Matrix::zeros(0, hidden_full.cols()); num_layers]
        } else {
            Vec::new()
        };
        let head_contents: Vec<Matrix> = (0..num_layers * num_heads)
            .map(|_| Matrix::zeros(0, self.config().content_dim))
            .collect();
        let final_hidden = Matrix::zeros(0, hidden_full.cols());
        Ok(ChunkedPrefill {
            model: self,
            tokens: tokens.to_vec(),
            chunk_size,
            hidden_full,
            caches,
            layer_inputs,
            head_contents,
            head_reports: vec![None; num_layers * num_heads],
            total_cost: CostReport::new(),
            final_hidden,
            start: 0,
            chunks_done: 0,
            analysis,
        })
    }

    /// Starts a decode session: chunked prefill with `method`, then
    /// generation with full attention over the caches.
    ///
    /// # Errors
    ///
    /// Propagates prefill errors: [`TensorError::InvalidDimension`] for
    /// an empty prompt, [`TensorError::IndexOutOfBounds`] for a token
    /// outside the vocabulary.
    pub fn begin_decode(
        &self,
        tokens: &[u32],
        prefill_method: &dyn AttentionMethod,
    ) -> Result<DecodeSession<'_>, TensorError> {
        self.begin_decode_with(tokens, prefill_method, EvictionConfig::none())
    }

    /// Like [`begin_decode`](Self::begin_decode) with a decode-phase
    /// KV-cache eviction policy — the "combined with KV cache eviction"
    /// deployment the paper describes as orthogonal to SampleAttention.
    ///
    /// # Errors
    ///
    /// Propagates prefill errors.
    pub fn begin_decode_with(
        &self,
        tokens: &[u32],
        prefill_method: &dyn AttentionMethod,
        eviction: EvictionConfig,
    ) -> Result<DecodeSession<'_>, TensorError> {
        let (result, caches) = self.prefill_chunked(tokens, tokens.len().max(1), prefill_method)?;
        let readout = Readout::from_reports(&result.head_reports);
        // Last row's content output per head: a head the readout does not
        // read holds only that row.
        let last_contents: Vec<Matrix> = result
            .head_contents
            .iter()
            .map(|m| m.slice_rows(m.rows() - 1, m.rows()))
            .collect::<Result<_, _>>()?;
        // The H2O statistic exists only for a session that evicts.
        let scores = if eviction.budget > 0 {
            caches
                .iter()
                .map(|c| vec![vec![0.0f64; c.len()]; c.num_kv_heads()])
                .collect()
        } else {
            Vec::new()
        };
        Ok(DecodeSession {
            model: self,
            embed_stream: self.embedder().stream_after(tokens),
            tokens: tokens.to_vec(),
            caches,
            readout,
            last_contents,
            prefill: result,
            eviction,
            scores,
            cancel: None,
        })
    }

    /// [`TensorError::IndexOutOfBounds`] unless the embedder has a row
    /// for `token`.
    fn check_token(&self, op: &'static str, token: u32) -> Result<(), TensorError> {
        let (index, bound) = (token as usize, self.config().vocab_size);
        if index < bound {
            return Ok(());
        }
        Err(TensorError::IndexOutOfBounds { op, index, bound })
    }
}

/// Appends the rows of `src` to `dst`, taking `src` whole when `dst` has
/// none yet (every accumulator of a one-chunk prefill).
fn append_rows(dst: &mut Matrix, src: Matrix) -> Result<(), TensorError> {
    if dst.rows() == 0 {
        *dst = src;
        return Ok(());
    }
    let cols = src.cols();
    let rows = dst.rows() + src.rows();
    let mut data = std::mem::take(dst).into_vec();
    data.extend_from_slice(src.as_slice());
    *dst = Matrix::from_vec(rows, cols, data)?;
    Ok(())
}

/// Adds each row of `q_block`'s softmax attention over `keys` to
/// `scores`, one entry per key: the H2O heavy-hitter statistic of one
/// decode step. Each row is scored on its own against the cache's key
/// panels, with the bits a one-row dense attention pass over the key
/// rows gives, and added in row order.
fn add_attention_mass(
    scores: &mut [f64],
    q_block: &Matrix,
    keys: &KeyPanels,
) -> Result<(), TensorError> {
    let mut p = attention_scores_prepared(q_block, keys, false)?;
    softmax_rows_in_place(&mut p);
    for local in 0..q_block.rows() {
        for (s, &m) in scores.iter_mut().zip(p.row(local)) {
            *s += m as f64;
        }
    }
    Ok(())
}

/// The accumulator state of a chunked prefill, reified as a value so
/// callers can advance one chunk at a time instead of running the whole
/// prompt in one call. Between chunks the state is quiescent: the serving
/// layer checkpoints it there (`checkpoint::PrefillCheckpoint`) and a
/// crashed attempt resumes from the last checkpoint, recomputing at most
/// the one chunk that was in flight.
///
/// [`run_to_end`](Self::run_to_end) drives the remaining chunks and
/// finishes; [`SyntheticTransformer::prefill`],
/// [`SyntheticTransformer::prefill_chunked`] and the serving layer's clean
/// attempts all end there. Advancing chunk by chunk and calling
/// [`finish`](Self::finish) gives the same result.
///
/// A chunk's rows pass the layers one call at a time, each call handed
/// the previous one's output, so the run's peak is its caches and kept
/// rows plus one layer call's working set: the layer input, updated in
/// place by the residual; per KV group in turn, the group's queries and
/// its heads' engine outputs, each head's rows moved into the result
/// when the run keeps them whole and cut to the newest row when it does
/// not; the `(rows, content_dim)` content update; then the MLP, one
/// block of 256 rows (`MLP_ROWS`) at a time. An analysis run
/// ([`SyntheticTransformer::prefill`]) keeps every head whole and also
/// copies each layer's input into its result before the call.
///
/// A cache-keeping run's last layer computes only what the run keeps:
/// every row's K and V into its cache, every row of the heads the
/// [`Readout`] reads, each other head's newest row (its own planned
/// engine job, cut to that row), and the residual, norm and MLP of the
/// newest row. Every head still plans on the whole chunk, so its report's
/// density, coverage and fallback are an analysis run's; its cost, and
/// the run's, count what ran. Each row is computed on its own, so every
/// kept value has the bits of a run that computed every row.
#[derive(Debug)]
pub struct ChunkedPrefill<'m> {
    pub(crate) model: &'m SyntheticTransformer,
    pub(crate) tokens: Vec<u32>,
    pub(crate) chunk_size: usize,
    /// The full embedded prompt (taken, not copied, by a run whose one
    /// chunk is the whole prompt). Deterministic in `tokens`, so restore
    /// recomputes it instead of storing it in the checkpoint.
    pub(crate) hidden_full: Matrix,
    pub(crate) caches: Vec<LayerKvCache>,
    /// One per layer in an [`analysis`](Self::analysis) run, none
    /// otherwise.
    pub(crate) layer_inputs: Vec<Matrix>,
    /// Layer-major, one per head: every row so far, or only the newest
    /// chunk's last one for a head the run does not keep whole.
    pub(crate) head_contents: Vec<Matrix>,
    pub(crate) head_reports: Vec<Option<HeadReport>>,
    pub(crate) total_cost: CostReport,
    /// The last layer's output: every row so far, or only the newest
    /// chunk's last one when the run does not keep it whole.
    pub(crate) final_hidden: Matrix,
    /// First prompt row the next chunk will process.
    pub(crate) start: usize,
    pub(crate) chunks_done: usize,
    /// What the run hands back, decided once at its start.
    /// `true` for [`SyntheticTransformer::prefill`], the analysis entry:
    /// every layer's input, every head's rows and every row of the final
    /// residual stream, and no caches (each layer's goes as the last
    /// chunk leaves it, and its memory serves the next layer). `false`
    /// for every cache-keeping run: the caches, every row of the heads
    /// the [`Readout`] reads, each other head's newest row, the final
    /// residual stream's newest row, and no layer inputs.
    pub(crate) analysis: bool,
}

impl<'m> ChunkedPrefill<'m> {
    /// Chunks completed so far.
    pub fn chunks_done(&self) -> usize {
        self.chunks_done
    }

    /// Total chunks the prompt divides into.
    pub fn total_chunks(&self) -> usize {
        self.tokens.len().div_ceil(self.chunk_size)
    }

    /// `true` once every prompt row has been processed.
    pub fn is_done(&self) -> bool {
        self.start >= self.tokens.len()
    }

    /// Drives the remaining chunks and finishes: the one loop every prompt
    /// ends in. `cancel` is checked before every sequence chunk and,
    /// installed, at every worker-pool chunk inside them. Traced, a
    /// `model/prefill` span covers the run.
    ///
    /// # Errors
    ///
    /// [`TensorError::Cancelled`] / [`TensorError::DeadlineExceeded`]
    /// with the progress in sequence chunks when the token trips, or
    /// propagated kernel errors; any partial work is discarded.
    pub fn run_to_end(
        mut self,
        method: &dyn AttentionMethod,
        cancel: &CancelToken,
    ) -> Result<(PrefillResult, Vec<LayerKvCache>), TensorError> {
        let _span = sa_trace::span_in("model", "prefill");
        let _cancel_scope = cancel::install(cancel);
        while !self.is_done() {
            cancel.check("prefill_chunked", self.chunks_done, self.total_chunks())?;
            self.advance_chunk(method)?;
        }
        self.finish()
    }

    /// Runs the next chunk through every layer, growing the caches and
    /// accumulators. A no-op once [`is_done`](Self::is_done). Traced,
    /// each layer's pass is a `model/layer` span labelled `L<layer>`.
    ///
    /// # Errors
    ///
    /// Propagates kernel errors; on error the accumulators may be
    /// partially advanced and the run must be discarded (or restored
    /// from a checkpoint). A cancellation observed inside the chunk (by
    /// a pool call under an installed token) is reported with this run's
    /// progress, `chunks_done` of `total_chunks`, not in the pool chunks
    /// of the call that saw it — a unit that varies with the core count.
    pub fn advance_chunk(&mut self, method: &dyn AttentionMethod) -> Result<(), TensorError> {
        let (completed, total) = (self.chunks_done, self.total_chunks());
        self.run_chunk(method).map_err(|e| match e {
            TensorError::Cancelled { site, .. } => TensorError::Cancelled {
                site,
                completed,
                total,
            },
            TensorError::DeadlineExceeded { site, .. } => TensorError::DeadlineExceeded {
                site,
                completed,
                total,
            },
            other => other,
        })
    }

    fn run_chunk(&mut self, method: &dyn AttentionMethod) -> Result<(), TensorError> {
        let s = self.tokens.len();
        if self.start >= s {
            return Ok(());
        }
        let num_heads = self.model.config().num_heads;
        let last = self.model.layers().len() - 1;
        let end = (self.start + self.chunk_size).min(s);
        // A chunk that is the whole prompt takes the embedding instead of
        // copying it: nothing reads `hidden_full` after the last chunk.
        let mut rows = if self.start == 0 && end == s {
            std::mem::take(&mut self.hidden_full)
        } else {
            self.hidden_full.slice_rows(self.start, end)?
        };
        for (l, layer) in self.model.layers().iter().enumerate() {
            let _span = sa_trace::span_labeled("model", "layer", || format!("L{l}"));
            if self.analysis {
                append_rows(&mut self.layer_inputs[l], rows.clone())?;
            }
            let keep_whole: Vec<bool> = (0..num_heads)
                .map(|h| self.analysis || Readout::reads(l, &layer.archetype(h)))
                .collect();
            // Past the last layer a cache-keeping run reads its newest
            // row and the heads it keeps whole: the layer computes no more.
            let newest_only = !self.analysis && l == last;
            let out = layer.forward_rows(rows, &mut self.caches[l], method, &keep_whole, newest_only)?;
            if end == s && self.analysis {
                // The run's caller drops the caches: this one is done.
                self.caches[l] = layer.new_cache();
            }
            for (h, content) in out.head_contents.into_iter().enumerate() {
                let slot = &mut self.head_contents[l * num_heads + h];
                if keep_whole[h] {
                    append_rows(slot, content)?;
                } else {
                    // The layer kept only the chunk's newest row.
                    *slot = content;
                }
            }
            for r in out.head_reports {
                let slot = &mut self.head_reports[r.layer * num_heads + r.head];
                match slot {
                    Some(existing) => {
                        // Each density is a share of its own causal pairs:
                        // rows `0..start` hold `start(start+1)/2` of them.
                        let pairs = |n: usize| (n * (n + 1) / 2) as f64;
                        let (before, after) = (pairs(self.start), pairs(end));
                        existing.cost.merge(&r.cost);
                        existing.density = (existing.density * before
                            + r.density * (after - before))
                            / after;
                        // A head met α only if every chunk did, and fell
                        // back if any chunk did, for the first reason seen.
                        existing.alpha_satisfied &= r.alpha_satisfied;
                        existing.fell_back |= r.fell_back;
                        if existing.fallback_reason == sa_core::FallbackReason::None {
                            existing.fallback_reason = r.fallback_reason;
                        }
                    }
                    None => *slot = Some(r),
                }
            }
            self.total_cost.merge(&out.cost);
            rows = out.hidden;
        }
        if self.analysis {
            append_rows(&mut self.final_hidden, rows)?;
        } else {
            // The last layer returned the newest row alone.
            self.final_hidden = rows;
        }
        self.start = end;
        self.chunks_done += 1;
        Ok(())
    }

    /// Consumes the finished run into the same `(PrefillResult, caches)`
    /// pair [`SyntheticTransformer::prefill_chunked`] returns.
    ///
    /// # Errors
    ///
    /// Returns [`TensorError::InvalidDimension`] if chunks remain.
    pub fn finish(self) -> Result<(PrefillResult, Vec<LayerKvCache>), TensorError> {
        if !self.is_done() {
            return Err(TensorError::InvalidDimension {
                op: "ChunkedPrefill::finish",
                what: format!(
                    "{} of {} chunks done",
                    self.chunks_done,
                    self.total_chunks()
                ),
            });
        }
        let head_reports: Vec<HeadReport> = self
            .head_reports
            .into_iter()
            .map(|r| r.expect("every head ran at least once"))
            .collect();
        Ok((
            PrefillResult {
                hidden: self.final_hidden,
                layer_inputs: self.layer_inputs,
                head_contents: self.head_contents,
                head_reports,
                total_cost: self.total_cost,
            },
            self.caches,
        ))
    }
}

/// An autoregressive decoding session over uncompressed KV caches.
#[derive(Debug)]
pub struct DecodeSession<'m> {
    pub(crate) model: &'m SyntheticTransformer,
    pub(crate) tokens: Vec<u32>,
    /// The embedder's stream state after `tokens`, so a step embeds one
    /// row. Deterministic in `tokens`: restore recomputes it instead of
    /// storing it in the checkpoint.
    pub(crate) embed_stream: EmbedStream,
    pub(crate) caches: Vec<LayerKvCache>,
    pub(crate) readout: Readout,
    /// One `(1, content_dim)` matrix per head: the newest position's
    /// retrieval output.
    pub(crate) last_contents: Vec<Matrix>,
    pub(crate) prefill: PrefillResult,
    pub(crate) eviction: EvictionConfig,
    /// Accumulated attention mass per (layer, kv-head, cache entry) —
    /// the H2O heavy-hitter statistic, observed during decoding.
    pub(crate) scores: Vec<Vec<Vec<f64>>>,
    /// Cooperative cancellation token checked before every decode step.
    /// Deliberately *not* checkpointed: a restored session starts with no
    /// token, and the restoring caller installs its own.
    pub(crate) cancel: Option<CancelToken>,
}

impl<'m> DecodeSession<'m> {
    /// The token stream so far (prompt + generated).
    pub fn tokens(&self) -> &[u32] {
        &self.tokens
    }

    /// The prefill result the session started from, as a cache-keeping
    /// run keeps it (see [`PrefillResult`]): no layer inputs, the newest
    /// row of `hidden`, and every row only of the heads the readout
    /// reads.
    pub fn prefill_result(&self) -> &PrefillResult {
        &self.prefill
    }

    /// The newest position's content output of every head, layer-major
    /// (`layer * num_heads + head`), one `(1, content_dim)` row each —
    /// what the next-token prediction reads.
    pub fn last_contents(&self) -> &[Matrix] {
        &self.last_contents
    }

    /// Installs a cancellation token checked before every decode step
    /// ([`step`](Self::step) / [`push`](Self::push) /
    /// [`generate_in`](Self::generate_in)) and, through the scoped
    /// install, at every worker-pool chunk boundary inside the step. A
    /// step interrupted *before* it starts leaves the session state
    /// untouched; an error raised mid-step (pool-level) may leave the
    /// caches partially advanced, so the session must be discarded then.
    pub fn install_cancel(&mut self, token: &CancelToken) {
        self.cancel = Some(token.clone());
    }

    /// Predicts the next token (restricted to `range`), appends it, and
    /// advances the caches by one position using full attention.
    ///
    /// Returns `(token, confidence)`.
    ///
    /// # Errors
    ///
    /// Propagates kernel errors from the single-row forward.
    pub fn step_in(&mut self, range: std::ops::Range<u32>) -> Result<(u32, f32), TensorError> {
        let (token, confidence) = self.peek_in(range);
        self.push(token)?;
        Ok((token, confidence))
    }

    /// Predicts the next token over the whole vocabulary, appends it, and
    /// advances the caches.
    ///
    /// # Errors
    ///
    /// Propagates kernel errors from the single-row forward.
    pub fn step(&mut self) -> Result<(u32, f32), TensorError> {
        let vocab = self.model.config().vocab_size as u32;
        self.step_in(0..vocab)
    }

    /// The next-token prediction without advancing.
    pub fn peek_in(&self, range: std::ops::Range<u32>) -> (u32, f32) {
        match self.readout.answer_vector(&self.last_contents, 0) {
            Some(v) => self.model.embedder().nearest_token_in(&v, range),
            None => (crate::BOS_TOKEN, 0.0),
        }
    }

    /// Appends an externally chosen token (teacher forcing) and advances
    /// the caches by one position.
    ///
    /// # Errors
    ///
    /// Returns [`TensorError::IndexOutOfBounds`] for a token outside the
    /// vocabulary, and propagates kernel errors from the single-row
    /// forward.
    pub fn push(&mut self, token: u32) -> Result<(), TensorError> {
        // Check *before* mutating any state: a rejected or cancelled step
        // must leave the session exactly as it was.
        self.model.check_token("DecodeSession::push", token)?;
        if let Some(tok) = &self.cancel {
            tok.check("decode_step", 0, 1)?;
        }
        let _cancel_scope = self.cancel.as_ref().map(cancel::install);
        self.tokens.push(token);
        let mut rows = Matrix::zeros(1, self.model.config().hidden_dim());
        self.model
            .embedder()
            .embed_next(&mut self.embed_stream, token, rows.row_mut(0));
        let num_heads = self.model.config().num_heads;
        let track = self.eviction.budget > 0;
        let last = self.model.layers().len() - 1;
        for (l, layer) in self.model.layers().iter().enumerate() {
            if track {
                // The new entry starts with zero accumulated mass.
                for head_scores in &mut self.scores[l] {
                    head_scores.push(0.0);
                }
            }
            // Nothing reads the last layer's residual row: it runs no MLP.
            let (head_contents, q_blocks) = if l == last {
                layer.forward_decode_heads(&rows, &mut self.caches[l])?
            } else {
                let (hidden, head_contents, q_blocks) = layer.forward_decode(&rows, &mut self.caches[l])?;
                rows = hidden;
                (head_contents, q_blocks)
            };
            if track {
                // Each head's query is a row of its group's block, in head
                // order.
                for (kv, q_block) in q_blocks.iter().enumerate() {
                    let (keys, _) = self.caches[l].prepared(kv);
                    add_attention_mass(&mut self.scores[l][kv], q_block, keys)?;
                }
                for kv in 0..self.caches[l].num_kv_heads() {
                    let len = self.caches[l].head_len(kv);
                    if let Some(keep) = self.eviction.keep_indices(len, &self.scores[l][kv])? {
                        self.caches[l].retain_head(kv, &keep)?;
                        self.scores[l][kv] = keep
                            .iter()
                            .map(|&i| self.scores[l][kv][i])
                            .collect();
                    }
                }
            }
            for (h, content) in head_contents.into_iter().enumerate() {
                self.last_contents[l * num_heads + h] = content;
            }
        }
        Ok(())
    }

    /// Current cache occupancy of layer 0, KV head 0 (for
    /// eviction-behaviour inspection).
    pub fn cache_len(&self) -> usize {
        self.caches.first().map_or(0, |c| c.head_len(0))
    }

    /// The per-layer KV caches as they stand after the last step.
    pub fn caches(&self) -> &[LayerKvCache] {
        &self.caches
    }

    /// Generates `n` tokens restricted to `range`.
    ///
    /// # Errors
    ///
    /// Propagates kernel errors. With an installed cancellation token, a
    /// trip between steps surfaces as [`TensorError::Cancelled`] /
    /// [`TensorError::DeadlineExceeded`] carrying the step progress
    /// (`completed` steps out of `n`); tokens generated before the trip
    /// are already appended to [`tokens`](Self::tokens).
    pub fn generate_in(
        &mut self,
        n: usize,
        range: std::ops::Range<u32>,
    ) -> Result<Vec<u32>, TensorError> {
        let mut out = Vec::with_capacity(n);
        for i in 0..n {
            if let Some(tok) = &self.cancel {
                tok.check("generate", i, n)?;
            }
            let (t, _) = self.step_in(range.clone())?;
            out.push(t);
        }
        Ok(out)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::{ModelConfig, VocabLayout};
    use sa_baselines::{FullAttention, SampleAttentionMethod, WindowOnly};
    use sa_core::FallbackReason;
    use sa_kernels::attention_scores_raw;
    use sa_tensor::max_abs_diff;

    fn model() -> SyntheticTransformer {
        SyntheticTransformer::new(ModelConfig::tiny(77)).unwrap()
    }

    /// Every element's bits, matrix after matrix.
    fn bits<'a>(ms: impl IntoIterator<Item = &'a Matrix>) -> Vec<u32> {
        ms.into_iter().flat_map(|m| m.as_slice()).map(|x| x.to_bits()).collect()
    }

    /// `prefill`'s retention (every layer input, every head's rows) at
    /// any chunk size.
    fn analysis_run(
        m: &SyntheticTransformer,
        tokens: &[u32],
        chunk: usize,
        method: &dyn AttentionMethod,
    ) -> PrefillResult {
        let run = m.start_run(tokens, chunk, true).unwrap();
        run.run_to_end(method, &CancelToken::new()).unwrap().0
    }

    /// The last row of `m`: all a cache-keeping run keeps of the final
    /// residual stream.
    fn newest(m: &Matrix) -> Matrix {
        m.slice_rows(m.rows() - 1, m.rows()).unwrap()
    }

    /// Every head's K (as panels) and V, bits, layer after layer.
    fn cache_bits(caches: &[LayerKvCache]) -> Vec<u32> {
        let mut out = Vec::new();
        for c in caches {
            for h in 0..c.num_kv_heads() {
                let (keys, v) = c.prepared(h);
                out.extend(keys.as_slice().iter().chain(v.as_slice()).map(|x| x.to_bits()));
            }
        }
        out
    }

    /// Each head's rows as a cache-keeping run keeps them: all of a head
    /// the readout reads, the newest row of every other.
    fn kept_rows(m: &SyntheticTransformer, whole: &PrefillResult) -> Vec<Matrix> {
        let num_heads = m.config().num_heads;
        whole
            .head_contents
            .iter()
            .enumerate()
            .map(|(i, c)| {
                let (l, h) = (i / num_heads, i % num_heads);
                if Readout::reads(l, &m.layers()[l].archetype(h)) {
                    c.clone()
                } else {
                    c.slice_rows(c.rows() - 1, c.rows()).unwrap()
                }
            })
            .collect()
    }

    /// The H2O statistic a decode step adds from a cache's key panels
    /// equals the row path: each query row's softmax over the key rows
    /// themselves, added in row order.
    #[test]
    fn h2o_scores_on_panels_match_the_row_path() {
        let mut rng = sa_tensor::DeterministicRng::new(0x420);
        for len in [1, 63, 64, 65, 300] {
            let k = rng.normal_matrix(len, 64, 1.0);
            let v = rng.normal_matrix(len, 64, 1.0);
            let q_block = rng.normal_matrix(4, 64, 1.0);
            let mut cache = LayerKvCache::new(1, 64, 64);
            for (start, end) in [(0, len / 2), (len / 2, len)] {
                let rows = |m: &Matrix| m.slice_rows(start, end).unwrap();
                cache.append(0, rows(&k), rows(&v)).unwrap();
            }
            let mut got = vec![0.25f64; len];
            add_attention_mass(&mut got, &q_block, cache.prepared(0).0).unwrap();
            let mut want = vec![0.25f64; len];
            for r in 0..q_block.rows() {
                let q = q_block.slice_rows(r, r + 1).unwrap();
                let mut p = attention_scores_raw(&q, &k, false).unwrap();
                softmax_rows_in_place(&mut p);
                for (s, &m) in want.iter_mut().zip(p.row(0)) {
                    *s += m as f64;
                }
            }
            let bits64 = |xs: &[f64]| xs.iter().map(|x| x.to_bits()).collect::<Vec<_>>();
            assert_eq!(bits64(&got), bits64(&want), "{len} keys");
        }
    }

    #[test]
    fn chunked_prefill_matches_monolithic() {
        // Under dense attention no row's mask depends on the chunking, and
        // every kernel folds a row's keys in the same order whatever rows
        // it is called with, so every chunk size gives the whole prompt's
        // bits: every head's rows and every layer input under `prefill`'s
        // retention, and what a cache-keeping run keeps of them — the
        // newest rows, and every position's K and V in the caches.
        let glm = SyntheticTransformer::new(ModelConfig::chatglm2_like(7)).unwrap();
        for (m, len, chunks) in [(model(), 90, &[1, 7, 32, 64, 90, 200][..]), (glm, 300, &[7, 32, 100, 128])] {
            let tokens = m.tokenize_filler(len);
            let whole = m.prefill(&tokens, &FullAttention::new()).unwrap();
            let (_, whole_caches) = m.prefill_chunked(&tokens, len, &FullAttention::new()).unwrap();
            for &chunk in chunks {
                let label = format!("{len} tokens in chunks of {chunk}");
                let analysed = analysis_run(&m, &tokens, chunk, &FullAttention::new());
                assert_eq!(bits([&analysed.hidden]), bits([&whole.hidden]), "{label}");
                assert_eq!(bits(&analysed.head_contents), bits(&whole.head_contents), "{label}");
                assert_eq!(bits(&analysed.layer_inputs), bits(&whole.layer_inputs), "{label}");
                let (chunked, caches) = m.prefill_chunked(&tokens, chunk, &FullAttention::new()).unwrap();
                assert_eq!(bits([&chunked.hidden]), bits([&newest(&whole.hidden)]), "{label}");
                assert_eq!(bits(&chunked.head_contents), bits(&kept_rows(&m, &whole)), "{label}");
                assert!(chunked.layer_inputs.is_empty(), "{label}");
                assert!(caches.iter().all(|c| c.len() == len), "{label}");
                assert_eq!(cache_bits(&caches), cache_bits(&whole_caches), "{label}");
            }
        }
    }

    #[test]
    fn a_decode_session_keeps_only_what_its_readout_reads() {
        // `begin_decode` hands back no layer input, one row of the final
        // residual stream and one row of each head the readout does not
        // read; every value it keeps, and every
        // answer read from it, has `prefill`'s bits.
        let m = SyntheticTransformer::new(ModelConfig::chatglm2_like(5)).unwrap();
        let layout = *m.embedder().layout();
        let mut tokens = m.tokenize_filler(300);
        tokens[120] = layout.marker(3);
        tokens[121] = layout.payload(8);
        tokens[299] = layout.marker(3);
        let method = SampleAttentionMethod::paper_default();
        let whole = m.prefill(&tokens, &method).unwrap();
        let session = m.begin_decode(&tokens, &method).unwrap();
        let kept = session.prefill_result();
        assert!(kept.layer_inputs.iter().all(|x| x.rows() == 0), "layer inputs kept");
        let num_heads = m.config().num_heads;
        let readout = Readout::from_reports(&whole.head_reports);
        assert!(readout.num_heads() > 0);
        let mut read = 0;
        for (i, (got, want)) in kept.head_contents.iter().zip(&whole.head_contents).enumerate() {
            let (l, h) = (i / num_heads, i % num_heads);
            if Readout::reads(l, &m.layers()[l].archetype(h)) {
                assert_eq!(bits([got]), bits([want]), "readout head {i}");
                read += 1;
            } else {
                assert!(got.rows() <= 1, "head {i} keeps {} rows", got.rows());
            }
        }
        assert_eq!(read, readout.num_heads());
        assert_eq!(bits([&kept.hidden]), bits([&newest(&whole.hidden)]));
        let newest: Vec<Matrix> =
            whole.head_contents.iter().map(|c| c.slice_rows(299, 300).unwrap()).collect();
        assert_eq!(bits(session.last_contents()), bits(&newest));
        let answer = |(token, confidence): (u32, f32)| (token, confidence.to_bits());
        for pos in [0, 1, 121, 122, 200, 299] {
            assert_eq!(answer(m.answer_at(kept, pos)), answer(m.answer_at(&whole, pos)), "{pos}");
            let range = layout.payload_range();
            assert_eq!(
                answer(m.answer_at_in(kept, pos, range.clone())),
                answer(m.answer_at_in(&whole, pos, range)),
                "{pos}"
            );
        }
        assert_eq!(m.answer_at_in(kept, 299, layout.payload_range()).0, layout.payload(8));
    }

    #[test]
    fn decode_recovers_needle_answer() {
        let m = model();
        let layout = *m.embedder().layout();
        let marker = layout.marker(4);
        let payload = layout.payload(9);
        let mut tokens = m.tokenize_filler(200);
        tokens[80] = marker;
        tokens[81] = payload;
        let last = tokens.len() - 1;
        tokens[last] = marker;

        let mut session = m.begin_decode(&tokens, &FullAttention::new()).unwrap();
        let (answer, confidence) = session.step_in(layout.payload_range()).unwrap();
        assert_eq!(answer, payload, "confidence {confidence}");
        assert_eq!(session.tokens().len(), 201);
    }

    #[test]
    fn decode_after_sample_attention_prefill() {
        // The paper's deployment: SampleAttention at prefill, full
        // attention at decode.
        let m = model();
        let layout = *m.embedder().layout();
        let marker = layout.marker(2);
        let payload = layout.payload(3);
        let mut tokens = m.tokenize_filler(240);
        tokens[100] = marker;
        tokens[101] = payload;
        let last = tokens.len() - 1;
        tokens[last] = marker;
        let mut session = m
            .begin_decode(&tokens, &SampleAttentionMethod::paper_default())
            .unwrap();
        let (answer, _) = session.step_in(layout.payload_range()).unwrap();
        assert_eq!(answer, payload);
    }

    #[test]
    fn teacher_forcing_and_generate() {
        let m = model();
        let tokens = m.tokenize_filler(60);
        let mut session = m.begin_decode(&tokens, &FullAttention::new()).unwrap();
        session.push(5).unwrap();
        assert_eq!(*session.tokens().last().unwrap(), 5);
        let vocab = m.config().vocab_size as u32;
        let generated = session.generate_in(3, 0..vocab).unwrap();
        assert_eq!(generated.len(), 3);
        assert_eq!(session.tokens().len(), 64);
    }

    /// The row the session would embed next, without advancing it.
    fn next_row_bits(session: &DecodeSession<'_>, token: u32) -> Vec<u32> {
        let embedder = session.model.embedder();
        let mut row = vec![0.0f32; session.model.config().hidden_dim()];
        embedder.embed_next(&mut session.embed_stream.clone(), token, &mut row);
        row.iter().map(|x| x.to_bits()).collect()
    }

    #[test]
    fn carried_embedding_state_equals_a_full_re_embed() {
        let m = model();
        let layout = *m.embedder().layout();
        let probe = layout.filler(1);
        let check = |session: &DecodeSession<'_>, when: &str| {
            let mut stream = session.tokens().to_vec();
            stream.push(probe);
            let full = m.embedder().embed(&stream);
            let want: Vec<u32> = full.row(stream.len() - 1).iter().map(|x| x.to_bits()).collect();
            assert_eq!(next_row_bits(session, probe), want, "{when}");
        };
        let tokens = m.tokenize_filler(50);
        let mut session = m.begin_decode(&tokens, &FullAttention::new()).unwrap();
        check(&session, "after the prefill");
        for step in 0..5 {
            session.step().unwrap();
            check(&session, &format!("after {} generated tokens", step + 1));
        }
        // Teacher forcing: a salient token sets the next row's
        // prev-content slot, a BOS its flag.
        for forced in [layout.marker(2), layout.payload(3), crate::BOS_TOKEN] {
            session.push(forced).unwrap();
            check(&session, &format!("after forcing {forced}"));
        }
        let snap = crate::SessionCheckpoint::capture(&session);
        let mut resumed = snap.restore(&m, 0x5, None).unwrap();
        check(&resumed, "after a checkpoint round trip");
        resumed.step().unwrap();
        check(&resumed, "one step after the round trip");
    }

    #[test]
    fn a_chunk_or_a_decode_step_projects_each_kv_group_with_one_gemm() {
        // Per layer, a group's query heads, K and V come out of one packed
        // GEMM call, and the MLP makes two (gate|up, then down) — but not
        // in a decode step's last layer, whose residual row nothing reads.
        let m = model();
        let config = m.config();
        let per_layer = config.num_kv_heads + 2;
        let gemms = || {
            sa_trace::drain()
                .iter()
                .filter(|e| e.cat == "pool" && e.name == "matmul_packed")
                .count()
        };
        let tokens = m.tokenize_filler(100);
        let _session = sa_trace::scoped();
        m.prefill_chunked(&tokens, 32, &FullAttention::new()).unwrap();
        assert_eq!(gemms(), 4 * config.num_layers * per_layer, "four 32-row chunks");
        let mut session = m.begin_decode(&tokens, &FullAttention::new()).unwrap();
        gemms();
        for token in [5, 6, 7] {
            session.push(token).unwrap();
        }
        assert_eq!(gemms(), 3 * (config.num_layers * per_layer - 2), "three decode steps");
    }

    #[test]
    fn h2o_eviction_bounds_cache_and_keeps_answers() {
        // SampleAttention prefill + H2O decode: the paper's "orthogonal,
        // can be combined" deployment. The heavy-hitter statistic keeps
        // the needle KV because decode queries keep attending to it.
        let m = model();
        let layout = *m.embedder().layout();
        let marker = layout.marker(6);
        let payload = layout.payload(11);
        let mut tokens = m.tokenize_filler(160);
        tokens[60] = marker;
        tokens[61] = payload;
        let last = tokens.len() - 1;
        tokens[last] = marker;

        let budget = 120;
        let mut session = m
            .begin_decode_with(
                &tokens,
                &SampleAttentionMethod::paper_default(),
                crate::EvictionConfig::h2o(budget),
            )
            .unwrap();
        // First prediction happens before any eviction: must be right.
        let (answer, _) = session.step_in(layout.payload_range()).unwrap();
        assert_eq!(answer, payload);
        // Keep decoding: cache must stay bounded.
        for _ in 0..12 {
            session.step().unwrap();
        }
        assert!(session.cache_len() <= budget, "cache {} > {budget}", session.cache_len());
    }

    #[test]
    fn streaming_eviction_loses_mid_context_under_tight_budget() {
        // Sink+recent eviction drops mid-context entries; asking the
        // question again after eviction fails, while H2O's heavy-hitter
        // tracking keeps the payload alive.
        let m = model();
        let layout = *m.embedder().layout();
        let marker = layout.marker(1);
        let payload = layout.payload(2);
        let mut tokens = m.tokenize_filler(200);
        tokens[90] = marker;
        tokens[91] = payload;
        let last = tokens.len() - 1;
        tokens[last] = marker;

        let run = |eviction: crate::EvictionConfig| -> u32 {
            let mut session = m
                .begin_decode_with(&tokens, &FullAttention::new(), eviction)
                .unwrap();
            // Teacher-force fillers (never emit the answer, so it cannot
            // leak into recent context), letting eviction run, then ask.
            for i in 0..8 {
                session.push(layout.filler(i)).unwrap();
            }
            session.push(marker).unwrap();
            session.peek_in(layout.payload_range()).0
        };
        let h2o_answer = run(crate::EvictionConfig::h2o(60));
        let streaming_answer = run(crate::EvictionConfig::streaming(60));
        assert_eq!(h2o_answer, payload, "H2O should keep the heavy-hitter payload");
        assert_ne!(
            streaming_answer, payload,
            "sink+recent eviction should lose a mid-context payload"
        );
    }

    #[test]
    fn zero_chunk_rejected() {
        let m = model();
        let tokens = m.tokenize_filler(10);
        assert!(m.prefill_chunked(&tokens, 0, &FullAttention::new()).is_err());
    }

    #[test]
    fn empty_prompt_is_a_typed_error() {
        let (m, full) = (model(), FullAttention::new());
        let invalid = |e: TensorError| matches!(e, TensorError::InvalidDimension { .. });
        assert!(m.prefill(&[], &full).is_err_and(invalid));
        assert!(m.prefill_chunked(&[], 4, &full).is_err_and(invalid));
        assert!(m.begin_decode(&[], &full).err().is_some_and(invalid));
    }

    #[test]
    fn out_of_vocabulary_tokens_are_a_typed_error() {
        let (m, full) = (model(), FullAttention::new());
        let vocab = m.config().vocab_size;
        let oob = |e: TensorError| {
            matches!(e, TensorError::IndexOutOfBounds { index, bound, .. } if index == vocab + 3 && bound == vocab)
        };
        let mut tokens = m.tokenize_filler(16);
        tokens[9] = vocab as u32 + 3;
        assert!(m.prefill(&tokens, &full).is_err_and(oob));
        assert!(m.start_prefill(&tokens, 4).err().is_some_and(oob));
        assert!(m.begin_decode(&tokens, &full).err().is_some_and(oob));
        // A rejected push leaves the session as it was.
        let mut session = m.begin_decode(&tokens[..9], &full).unwrap();
        let before = session.last_contents().to_vec();
        assert!(session.push(vocab as u32 + 3).is_err_and(oob));
        assert_eq!((session.tokens().len(), session.cache_len()), (9, 9));
        assert_eq!(session.last_contents(), before.as_slice());
    }

    #[test]
    fn chunked_head_density_is_a_share_of_the_whole_triangle() {
        // 40 rows in chunks of 7: a head's density is its chunk masks'
        // live pairs over the whole causal triangle. A one-key window
        // keeps the same pairs under any chunking, so there it is also
        // the whole prompt's density.
        let m = model();
        let tokens = m.tokenize_filler(40);
        for ratio in [1e-3, 0.25] {
            let method = WindowOnly::new(ratio).unwrap();
            let live: usize = (0..40)
                .step_by(7)
                .map(|start| method.build_mask(7.min(40 - start), (start + 7).min(40)).nnz())
                .sum();
            let want = live as f64 / (40 * 41 / 2) as f64;
            let (chunked, _) = m.prefill_chunked(&tokens, 7, &method).unwrap();
            let whole = m.prefill(&tokens, &method).unwrap();
            for (c, w) in chunked.head_reports.iter().zip(&whole.head_reports) {
                assert!((c.density - want).abs() < 1e-12, "ratio {ratio}: {}", c.density);
                if ratio < 0.01 {
                    assert!((c.density - w.density).abs() < 1e-12, "{}", w.density);
                }
            }
        }
    }

    /// Full attention, reporting chunk 1 (rows 32..64) as an α miss that
    /// fell back and chunk 2 as a worker panic.
    struct LateChunksFallBack;

    impl AttentionMethod for LateChunksFallBack {
        fn name(&self) -> &str {
            "late-chunks-fall-back"
        }

        fn forward(
            &self,
            q: &Matrix,
            k: &Matrix,
            v: &Matrix,
        ) -> Result<sa_baselines::MethodOutput, TensorError> {
            let mut out = FullAttention::new().forward(q, k, v)?;
            match k.rows() {
                64 => {
                    out.alpha_satisfied = false;
                    out.fell_back = true;
                    out.fallback_reason = FallbackReason::AlphaUnsatisfied;
                }
                96 => {
                    out.fell_back = true;
                    out.fallback_reason = FallbackReason::WorkerPanic;
                }
                _ => {}
            }
            Ok(out)
        }
    }

    #[test]
    fn chunked_head_flags_cover_every_chunk() {
        // 96 rows in chunks of 32: chunk 0 is healthy, the later two are
        // not. A head met α only if every chunk did and fell back if any
        // did, for the first reason a chunk gave.
        let m = model();
        let tokens = m.tokenize_filler(96);
        let (chunked, _) = m.prefill_chunked(&tokens, 32, &LateChunksFallBack).unwrap();
        let heads = chunked.head_reports.len();
        assert_eq!(heads, 8);
        assert_eq!(chunked.heads_alpha_unsatisfied(), heads);
        assert_eq!(chunked.fallback_heads(), heads);
        assert!(chunked
            .head_reports
            .iter()
            .all(|r| r.fallback_reason == FallbackReason::AlphaUnsatisfied));
    }

    #[test]
    fn chunks_no_taller_than_the_bottom_area_are_dense_attention() {
        // Every row of a 32-row chunk is in SampleAttention's bottom area,
        // so its mask is the causal one and discovery is skipped: the
        // chunked prefill is the dense one, bit for bit.
        let m = model();
        let tokens = m.tokenize_filler(100);
        let sparse = analysis_run(&m, &tokens, 32, &SampleAttentionMethod::paper_default());
        let dense = analysis_run(&m, &tokens, 32, &FullAttention::new());
        assert_eq!(bits([&sparse.hidden]), bits([&dense.hidden]));
        assert_eq!(bits(&sparse.head_contents), bits(&dense.head_contents));
        assert_eq!(bits(&sparse.layer_inputs), bits(&dense.layer_inputs));
        assert_eq!(sparse.mean_density(), 1.0);
        assert_eq!(sparse.heads_alpha_unsatisfied(), 0);
        assert_eq!(sparse.fallback_heads(), 0);
    }

    #[test]
    fn vocab_layout_reexport_smoke() {
        // VocabLayout is reachable from the model crate for decode users.
        let l = VocabLayout::for_vocab(128);
        assert!(l.payload_range().len() > 4);
    }

    #[test]
    fn chunked_prefill_matches_monolithic_under_sample_attention() {
        // SampleAttention re-runs stage-1 sampling per chunk, so chunked
        // and monolithic prefills discover slightly different stripe sets
        // — every hidden row must still agree within a loose tolerance.
        // The cache-keeping run keeps only the newest row, so the rows are
        // compared on the analysis run at the same chunk size, whose
        // newest row is the kept one, bit for bit.
        let m = model();
        let method = SampleAttentionMethod::paper_default();
        let tokens = m.tokenize_filler(192);
        let mono = m.prefill(&tokens, &method).unwrap();
        for chunk in [48usize, 96] {
            let (chunked, caches) = m.prefill_chunked(&tokens, chunk, &method).unwrap();
            assert_eq!(chunked.hidden.shape(), (1, mono.hidden.cols()));
            assert_eq!(caches[0].len(), tokens.len());
            let whole = analysis_run(&m, &tokens, chunk, &method);
            assert_eq!(whole.hidden.shape(), mono.hidden.shape());
            assert_eq!(bits([&chunked.hidden]), bits([&newest(&whole.hidden)]), "chunk {chunk}");
            let diff = max_abs_diff(whole.hidden.as_slice(), mono.hidden.as_slice());
            assert!(diff < 5e-2, "chunk {chunk}: diff {diff}");
        }
    }

    #[test]
    fn pre_expired_deadline_cancels_prefill_before_any_chunk() {
        let m = model();
        let tokens = m.tokenize_filler(64);
        let token = CancelToken::with_deadline_ns(1); // epoch + 1ns: long past
        let run = m.start_prefill(&tokens, 16).unwrap();
        let err = run.run_to_end(&FullAttention::new(), &token).unwrap_err();
        match err {
            TensorError::DeadlineExceeded { site, completed, total } => {
                assert_eq!(site, "prefill_chunked");
                assert_eq!(completed, 0, "no chunk may run past an expired deadline");
                assert_eq!(total, 4);
            }
            other => panic!("unexpected error {other:?}"),
        }
    }

    /// Wraps an inner method and trips the token after `limit` head calls.
    struct CancelAfter<M> {
        inner: M,
        token: CancelToken,
        calls: std::sync::atomic::AtomicUsize,
        limit: usize,
    }

    impl<M: AttentionMethod> AttentionMethod for CancelAfter<M> {
        fn name(&self) -> &str {
            self.inner.name()
        }
        fn forward(
            &self,
            q: &Matrix,
            k: &Matrix,
            v: &Matrix,
        ) -> Result<sa_baselines::MethodOutput, TensorError> {
            let n = self
                .calls
                .fetch_add(1, std::sync::atomic::Ordering::Relaxed);
            if n + 1 >= self.limit {
                self.token.cancel();
            }
            self.inner.forward(q, k, v)
        }
    }

    #[test]
    fn mid_flight_cancel_stops_prefill_within_one_chunk() {
        // The acceptance bound: once the token trips, the prefill stops
        // at the next chunk boundary — partial progress is reported and
        // no further chunks run — at every worker count.
        for threads in [1usize, 2, 3, 5] {
            sa_tensor::pool::with_threads(threads, mid_flight_cancel_case);
        }
    }

    fn mid_flight_cancel_case() {
        let m = model();
        let tokens = m.tokenize_filler(160);
        let token = CancelToken::new();
        // 2 layers × 4 heads = 8 head calls per chunk: trip mid-chunk 2.
        let wrapper = CancelAfter {
            inner: FullAttention::new(),
            token: token.clone(),
            calls: std::sync::atomic::AtomicUsize::new(0),
            limit: 12,
        };
        let err = m.start_prefill(&tokens, 16).unwrap().run_to_end(&wrapper, &token).unwrap_err();
        // The trip is detected either at the prefill's chunk boundary or
        // inside the current chunk's per-head pool loop — both surface as
        // a typed Cancelled with progress counted in prefill chunks,
        // never in the pool chunks of the call that saw it.
        match err {
            TensorError::Cancelled { completed, total, .. } => {
                assert_eq!(total, 10, "160 tokens in chunks of 16");
                assert_eq!(completed, 1, "the trip lands in the second chunk");
            }
            other => panic!("unexpected error {other:?}"),
        }
        let calls = wrapper.calls.load(std::sync::atomic::Ordering::Relaxed);
        assert!(calls <= 16, "no further chunk may start; saw {calls} head calls");
    }

    #[test]
    fn decode_session_honours_installed_cancel_token() {
        let m = model();
        let tokens = m.tokenize_filler(40);
        let mut session = m.begin_decode(&tokens, &FullAttention::new()).unwrap();
        let token = CancelToken::new();
        session.install_cancel(&token);
        session.step().unwrap(); // not yet tripped: steps run normally
        token.cancel();
        let err = session.step().unwrap_err();
        assert!(
            matches!(err, TensorError::Cancelled { site: "decode_step", .. }),
            "{err:?}"
        );
        // generate_in reports per-step progress when cancelled mid-run.
        let err = session.generate_in(5, 0..10).unwrap_err();
        match err {
            TensorError::Cancelled { site, completed, total } => {
                assert_eq!(site, "generate");
                assert_eq!(completed, 0);
                assert_eq!(total, 5);
            }
            other => panic!("unexpected error {other:?}"),
        }
    }
}
