//! The quality guardrail plane: shadow canaries, per-head drift
//! detection, and the quarantine state machine that enforces the
//! near-lossless contract at runtime.
//!
//! ## Shadow canaries
//!
//! A seeded, deterministic fraction of served requests (one in
//! [`ServeConfig::canary_denominator`](crate::ServeConfig::canary_denominator),
//! selected by [`is_canary`]) additionally runs a **dense reference
//! prefill** after the sparse one and measures ground truth:
//!
//! - for every head's discovered mask, one row pass over the exact
//!   softmax rows ([`sa_core::structured_mask_coverage`]) gives the
//!   paper's *true* CRA (Def. 2, the worst row) and the mask's exact
//!   aggregate coverage — the quantity the stage-2 sampled estimate
//!   (`covered_mass`) the head certified with stands for;
//! - the max-abs error of the final residual stream between the sparse
//!   and dense prefills.
//!
//! Canary selection is a pure function of `(seed, request id)` — it
//! never consults scheduler state, so the canary set is identical at
//! every `SA_THREADS` and canaries never perturb scheduling decisions.
//!
//! ## Drift detection and quarantine
//!
//! [`QualityGuard`] folds canary observations (serially, in request-id
//! order) into a per-head tracker:
//!
//! - **hard trip**: the shadow sparse run fell back or missed α — the
//!   head's sparse pipeline is unhealthy *right now*;
//! - **drift trip**: a CUSUM accumulator over the estimated−exact
//!   aggregate coverage gap (less a slack allowance) crosses its
//!   threshold — the
//!   estimator is systematically optimistic even though each single
//!   reading looks plausible.
//!
//! A tripped head is **quarantined**: [`GuardedMethod`] routes it to
//! dense attention (surfacing as
//! [`FallbackReason::QualityQuarantine`]) while all other heads keep
//! their sparse path. Canaries keep *shadow-probing* quarantined heads
//! with the sparse operator; after
//! [`QualityGuard::probation_clean`] consecutive clean probes the head
//! is re-admitted.
//!
//! [`FallbackReason::QualityQuarantine`]: sa_core::FallbackReason::QualityQuarantine

use sa_baselines::{finish_heads, AttentionMethod, FullAttention, GroupKeys, HeadPlan, MethodOutput};
use sa_core::{structured_mask_coverage, DegradationRung, FallbackReason, SampleAttention};
use sa_kernels::attention_probs;
use sa_model::SyntheticTransformer;
use sa_tensor::{Matrix, SaError, TensorError};

/// Whether request `id` is a shadow canary under `seed` with one canary
/// per `denominator` requests (`0` disables canaries entirely).
///
/// Pure function of its arguments — the splitmix64 finalizer over the
/// same `(seed, id)` salt the retry ladder uses — so the canary set is
/// reproducible and independent of thread count and arrival order.
pub fn is_canary(seed: u64, id: u64, denominator: u64) -> bool {
    if denominator == 0 {
        return false;
    }
    let mut z = seed ^ id.wrapping_mul(0x9E37_79B9_7F4A_7C15);
    z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
    z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
    z ^= z >> 31;
    z.is_multiple_of(denominator)
}

/// One head's ground-truth measurement from a shadow canary.
#[derive(Debug, Clone)]
pub struct HeadCanary {
    /// Layer index.
    pub layer: usize,
    /// Query-head index within the layer.
    pub head: usize,
    /// Stage-2's sampled coverage estimate for the shadow mask.
    pub est_covered_mass: f64,
    /// The mask's true CRA (Def. 2: its worst row) against the exact
    /// softmax rows.
    pub true_cra: f64,
    /// The mask's exact aggregate coverage over all rows: what
    /// `est_covered_mass` estimates.
    pub exact_coverage: f64,
    /// `round((est_covered_mass - exact_coverage) * 1000)`: how
    /// optimistic the estimator was, in permille (negative =
    /// conservative).
    pub gap_permille: i64,
    /// Whether the shadow sparse run certified α on this head.
    pub alpha_satisfied: bool,
    /// Whether the shadow sparse run degraded to dense.
    pub fell_back: bool,
}

/// The full measurement from one shadow-canary request.
#[derive(Debug, Clone)]
pub struct CanaryObservation {
    /// The canary request's id (observations are folded in id order).
    pub request_id: u64,
    /// Worst (minimum) true CRA across probed heads (`1.0` when the
    /// rung has no sparse heads to probe).
    pub true_cra: f64,
    /// Max-abs error of the final residual stream, sparse vs dense.
    pub max_abs_err: f64,
    /// Worst (maximum) estimated−exact coverage gap across probed
    /// heads, permille.
    pub gap_permille: i64,
    /// Per-head measurements (empty for rungs without a sparse config).
    pub heads: Vec<HeadCanary>,
}

/// An attention method wrapper that routes quarantined heads to dense
/// attention while delegating healthy heads to the wrapped method.
///
/// The quarantine mask is layer-major (`layer * heads_per_layer +
/// head`), frozen at construction: within one batch every request sees
/// the same mask, so execution stays bit-deterministic regardless of
/// which worker thread runs which head.
pub struct GuardedMethod {
    inner: Box<dyn AttentionMethod>,
    dense: FullAttention,
    quarantined: Vec<bool>,
    heads_per_layer: usize,
    name: String,
}

impl GuardedMethod {
    /// Wraps `inner` with the quarantine mask. An empty mask (or one
    /// with no set bits) makes the wrapper a transparent delegate.
    pub fn new(inner: Box<dyn AttentionMethod>, quarantined: Vec<bool>, heads_per_layer: usize) -> Self {
        let name = format!("guarded({})", inner.name());
        GuardedMethod {
            inner,
            dense: FullAttention::new(),
            quarantined,
            heads_per_layer,
            name,
        }
    }

    fn is_quarantined(&self, layer: usize, head: usize) -> bool {
        self.quarantined
            .get(layer * self.heads_per_layer.max(1) + head)
            .copied()
            .unwrap_or(false)
    }
}

impl AttentionMethod for GuardedMethod {
    fn name(&self) -> &str {
        &self.name
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
        if !self.is_quarantined(layer, head) {
            return self.inner.plan_head(layer, head, q, keys, v);
        }
        let dense = self.dense.plan_head(layer, head, q, keys, v)?;
        let mut out = finish_heads(vec![dense])
            .pop()
            .expect("one output per plan")?;
        out.fell_back = true;
        out.fallback_reason = FallbackReason::QualityQuarantine;
        out.alpha_satisfied = true;
        Ok(HeadPlan::Done(out))
    }
}

/// Runs the shadow-canary measurement for one served request.
///
/// The request's prompt (`seq_len` filler tokens) re-runs as one
/// whole-prompt prefill under `production`, the rung's method with its
/// quarantine mask, then as a dense reference prefill. This is not what
/// the serving path executed: serving prefills in `chunk_size`-row
/// chunks (32 by default), and a chunk that short is dense by
/// construction (`SampleAttentionConfig::mask_is_dense`), so it discovers
/// no mask. The canary instead measures the rung's sparse method on the
/// whole prompt: `max_abs_err` is that pass's final residual stream
/// against the dense one, and for each head — including quarantined
/// ones, whose shadow probe is the probation signal — the rung's sparse
/// operator re-discovers its mask on the sparse pass's layer inputs and
/// its true CRA is computed against the exact softmax rows.
///
/// Rungs without a sparse config probe no heads. At
/// [`DegradationRung::WindowOnly`] the observation still carries the
/// dense-vs-production max-abs output error. At [`DegradationRung::Full`]
/// the production pass *is* the dense reference (a quarantined head runs
/// dense too), so the probe runs nothing and returns the constant
/// observation: no heads, `true_cra` 1.0, gap 0, `max_abs_err` 0.0.
///
/// # Errors
///
/// Propagates tensor/kernel errors; callers contain them (a canary
/// probe failure must never fail the request it shadows).
pub fn canary_probe(
    model: &SyntheticTransformer,
    rung: DegradationRung,
    production: &dyn AttentionMethod,
    seq_len: usize,
    request_id: u64,
) -> Result<CanaryObservation, SaError> {
    let _span = sa_trace::span_in("serve", "canary_probe");
    if rung == DegradationRung::Full {
        return Ok(CanaryObservation {
            request_id,
            true_cra: 1.0,
            max_abs_err: 0.0,
            gap_permille: 0,
            heads: Vec::new(),
        });
    }
    let tokens = model.tokenize_filler(seq_len);
    let sparse = model.prefill(&tokens, production)?;
    let dense = model.prefill(&tokens, &FullAttention::new())?;

    let mut max_abs_err = 0.0f64;
    let (rows, cols) = sparse.hidden.shape();
    for i in 0..rows {
        for j in 0..cols {
            let d = (sparse.hidden.get(i, j) - dense.hidden.get(i, j)).abs() as f64;
            if d > max_abs_err {
                max_abs_err = d;
            }
        }
    }

    let mut heads = Vec::new();
    let sample_config = rung.sample_config().map_err(|e| SaError::InvalidDimension {
        op: "canary_probe",
        what: e.to_string(),
    })?;
    if let Some(cfg) = sample_config {
        let shadow_op = SampleAttention::new(cfg);
        for (l, layer) in model.layers().iter().enumerate() {
            let input = &sparse.layer_inputs[l];
            let rope = layer.rope_table(0, input.rows())?;
            let group_size = layer.gqa().group_size();
            for g in 0..layer.gqa().num_kv_heads() {
                let (qs, k, v) = layer.project_group(g, input, &rope)?;
                for (local, q) in qs.iter().enumerate() {
                    let shadow = shadow_op.forward(q, &k, &v).map_err(|e| match e {
                        sa_core::SampleAttentionError::Tensor(t) => t,
                        other => SaError::InvalidDimension {
                            op: "canary_probe",
                            what: other.to_string(),
                        },
                    })?;
                    let p = attention_probs(q, &k, true)?;
                    let coverage = structured_mask_coverage(&p, &shadow.mask)?;
                    let exact = coverage.aggregate as f64;
                    let est = shadow.stats.covered_mass as f64;
                    heads.push(HeadCanary {
                        layer: l,
                        head: g * group_size + local,
                        est_covered_mass: est,
                        true_cra: coverage.min_row as f64,
                        exact_coverage: exact,
                        gap_permille: ((est - exact) * 1000.0).round() as i64,
                        alpha_satisfied: shadow.stats.alpha_satisfied,
                        fell_back: shadow.stats.fell_back(),
                    });
                }
            }
        }
    }

    let true_cra = heads
        .iter()
        .map(|h| h.true_cra)
        .fold(1.0f64, f64::min);
    let gap_permille = heads.iter().map(|h| h.gap_permille).max().unwrap_or(0);
    Ok(CanaryObservation {
        request_id,
        true_cra,
        max_abs_err,
        gap_permille,
        heads,
    })
}

/// A head-quarantine state transition, for the audit trail.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct QualityTransition {
    /// The canary request whose observation tripped the transition.
    pub request_id: u64,
    /// Layer index of the head.
    pub layer: u64,
    /// Head index within the layer.
    pub head: u64,
    /// `"quarantine"` or `"readmit"`.
    pub action: String,
    /// Human-readable trigger (hard trip, drift, probation).
    pub reason: String,
}

sa_json::impl_json_struct!(QualityTransition {
    request_id,
    layer,
    head,
    action,
    reason
});

/// Per-head drift state.
#[derive(Debug, Clone)]
enum HeadState {
    /// Serving sparse; tracking the coverage-gap drift statistics.
    Healthy {
        /// EWMA of the canary gap (permille), for reporting.
        ewma_gap_permille: i64,
        /// One-sided CUSUM of `gap - slack` (permille), clamped at 0.
        cusum_permille: i64,
    },
    /// Routed to dense; counting consecutive clean shadow probes.
    Quarantined {
        /// Clean probes so far this probation.
        clean: u32,
    },
}

/// The per-head drift detector and quarantine state machine.
///
/// All state transitions happen in [`absorb`](Self::absorb), a serial
/// fold over canary observations in request-id order — never from the
/// parallel execution path — so the quarantine trajectory is
/// bit-identical at every `SA_THREADS`.
#[derive(Debug, Clone)]
pub struct QualityGuard {
    heads: Vec<HeadState>,
    heads_per_layer: usize,
    /// Gap allowance (permille) before the CUSUM accumulates: the
    /// coarse stage-2 schedule's sampling estimate legitimately
    /// disagrees with the exact aggregate coverage by a few permille.
    pub gap_slack_permille: i64,
    /// CUSUM level (permille) at which a head is quarantined for
    /// drift.
    pub cusum_threshold_permille: i64,
    /// Consecutive clean shadow probes required to re-admit a
    /// quarantined head.
    pub probation_clean: u32,
    transitions: Vec<QualityTransition>,
    probed_heads: u64,
}

impl QualityGuard {
    /// A guard for a model with `num_layers` layers of
    /// `heads_per_layer` heads, all healthy, with default thresholds.
    pub fn new(num_layers: usize, heads_per_layer: usize) -> Self {
        QualityGuard {
            heads: vec![
                HeadState::Healthy {
                    ewma_gap_permille: 0,
                    cusum_permille: 0,
                };
                num_layers * heads_per_layer
            ],
            heads_per_layer,
            gap_slack_permille: 25,
            cusum_threshold_permille: 75,
            probation_clean: 2,
            transitions: Vec::new(),
            probed_heads: 0,
        }
    }

    /// A guard sized for `model`.
    pub fn for_model(model: &SyntheticTransformer) -> Self {
        let heads_per_layer = model.layers().first().map_or(0, |l| l.num_heads());
        Self::new(model.layers().len(), heads_per_layer)
    }

    /// Heads per layer this guard was sized for.
    pub fn heads_per_layer(&self) -> usize {
        self.heads_per_layer
    }

    /// The current quarantine mask, layer-major — feed it to
    /// [`GuardedMethod`] (the scheduler snapshots it per batch).
    pub fn quarantine_mask(&self) -> Vec<bool> {
        self.heads
            .iter()
            .map(|s| matches!(s, HeadState::Quarantined { .. }))
            .collect()
    }

    /// Number of currently quarantined heads.
    pub fn quarantined_count(&self) -> usize {
        self.heads
            .iter()
            .filter(|s| matches!(s, HeadState::Quarantined { .. }))
            .count()
    }

    /// Every quarantine/readmit transition so far, in the order they
    /// tripped.
    pub fn transitions(&self) -> &[QualityTransition] {
        &self.transitions
    }

    /// Head probes absorbed so far: one per head of every canary
    /// observation (zero when every canary ran at a rung that probes no
    /// heads).
    pub fn probed_heads(&self) -> u64 {
        self.probed_heads
    }

    /// Folds a batch's canary observations into the per-head state.
    ///
    /// Callers must pass observations sorted by `request_id` (the
    /// scheduler does); within one observation heads are visited in
    /// layer-major order. Both orders are data-determined, so the
    /// resulting state machine trajectory is thread-count independent.
    pub fn absorb(&mut self, observations: &[CanaryObservation]) {
        for obs in observations {
            self.probed_heads += obs.heads.len() as u64;
            for hc in &obs.heads {
                let idx = hc.layer * self.heads_per_layer.max(1) + hc.head;
                if idx >= self.heads.len() {
                    continue;
                }
                let clean_probe = !hc.fell_back
                    && hc.alpha_satisfied
                    && hc.gap_permille <= self.gap_slack_permille;
                match &mut self.heads[idx] {
                    HeadState::Healthy {
                        ewma_gap_permille,
                        cusum_permille,
                    } => {
                        if hc.fell_back || !hc.alpha_satisfied {
                            let reason = if hc.fell_back {
                                "shadow sparse run fell back to dense"
                            } else {
                                "shadow sparse run missed the alpha target"
                            };
                            self.heads[idx] = HeadState::Quarantined { clean: 0 };
                            self.trip(obs.request_id, hc, "quarantine", reason);
                        } else {
                            *ewma_gap_permille = (*ewma_gap_permille * 3 + hc.gap_permille) / 4;
                            *cusum_permille = (*cusum_permille + hc.gap_permille
                                - self.gap_slack_permille)
                                .max(0);
                            if *cusum_permille > self.cusum_threshold_permille {
                                self.heads[idx] = HeadState::Quarantined { clean: 0 };
                                self.trip(
                                    obs.request_id,
                                    hc,
                                    "quarantine",
                                    "coverage-gap CUSUM crossed the drift threshold",
                                );
                            }
                        }
                    }
                    HeadState::Quarantined { clean } => {
                        if clean_probe {
                            *clean += 1;
                            if *clean >= self.probation_clean {
                                self.heads[idx] = HeadState::Healthy {
                                    ewma_gap_permille: hc.gap_permille,
                                    cusum_permille: 0,
                                };
                                self.trip(
                                    obs.request_id,
                                    hc,
                                    "readmit",
                                    "probation passed: consecutive clean shadow probes",
                                );
                            }
                        } else {
                            *clean = 0;
                        }
                    }
                }
            }
        }
    }

    fn trip(&mut self, request_id: u64, hc: &HeadCanary, action: &str, reason: &str) {
        self.transitions.push(QualityTransition {
            request_id,
            layer: hc.layer as u64,
            head: hc.head as u64,
            action: action.to_string(),
            reason: reason.to_string(),
        });
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use sa_model::ModelConfig;

    #[test]
    fn canary_selection_is_a_pure_seeded_fraction() {
        assert!(!is_canary(7, 0, 0), "denominator 0 disables canaries");
        let hits: Vec<u64> = (0..4096).filter(|&id| is_canary(7, id, 32)).collect();
        let again: Vec<u64> = (0..4096).filter(|&id| is_canary(7, id, 32)).collect();
        assert_eq!(hits, again, "pure function of (seed, id)");
        // Roughly 1/32 of ids, and not degenerate.
        assert!(hits.len() > 4096 / 64 && hits.len() < 4096 / 16, "{}", hits.len());
        // Denominator 1 marks everything.
        assert!((0..64).all(|id| is_canary(7, id, 1)));
        // Different seeds pick different sets.
        let other: Vec<u64> = (0..4096).filter(|&id| is_canary(8, id, 32)).collect();
        assert_ne!(hits, other);
    }

    #[test]
    fn guarded_method_routes_quarantined_heads_dense() {
        let model = SyntheticTransformer::new(ModelConfig::tiny(3)).unwrap();
        let heads = model.layers()[0].num_heads();
        let total = model.layers().len() * heads;
        let mut mask = vec![false; total];
        mask[0] = true; // quarantine L0.H0
        let cfg = DegradationRung::PaperDefault.sample_config().unwrap().unwrap();
        let inner: Box<dyn AttentionMethod> =
            Box::new(sa_baselines::SampleAttentionMethod::new(cfg));
        let guarded = GuardedMethod::new(inner, mask, heads);
        let tokens = model.tokenize_filler(64);
        let result = model.prefill(&tokens, &guarded).unwrap();
        let r0 = &result.head_reports[0];
        assert!(r0.fell_back);
        assert_eq!(r0.fallback_reason, FallbackReason::QualityQuarantine);
        assert!(r0.alpha_satisfied, "dense routing still certifies alpha");
        assert!((r0.density - 1.0).abs() < 1e-9, "quarantined head runs dense");
        // The other heads keep the sparse path.
        assert!(result.head_reports[1..]
            .iter()
            .all(|r| r.fallback_reason != FallbackReason::QualityQuarantine));
    }

    #[test]
    fn canary_probe_measures_true_coverage_on_healthy_heads() {
        let model = SyntheticTransformer::new(ModelConfig::tiny(3)).unwrap();
        let cfg = DegradationRung::PaperDefault.sample_config().unwrap().unwrap();
        let method: Box<dyn AttentionMethod> =
            Box::new(sa_baselines::SampleAttentionMethod::new(cfg));
        let slack = QualityGuard::for_model(&model).gap_slack_permille;
        for seq_len in [96, 512] {
            let obs =
                canary_probe(&model, DegradationRung::PaperDefault, method.as_ref(), seq_len, 42)
                    .unwrap();
            assert_eq!(obs.request_id, 42);
            assert_eq!(
                obs.heads.len(),
                model.layers().len() * model.layers()[0].num_heads()
            );
            assert!(obs.true_cra > 0.0 && obs.true_cra <= 1.0);
            assert!(obs.max_abs_err.is_finite());
            for h in &obs.heads {
                let at = format!("S={seq_len} L{}.H{}", h.layer, h.head);
                assert!(!h.fell_back, "{at}: healthy model, no fallback in the shadow run");
                assert!(h.true_cra > 0.5, "{at}: true CRA {}", h.true_cra);
                assert!(h.exact_coverage >= h.true_cra, "{at}: {h:?}");
                // A healthy head's estimate is never optimistic past the
                // slack against the quantity it estimates.
                assert!(h.gap_permille <= slack, "{at}: gap {} > {slack}", h.gap_permille);
            }
        }
    }

    #[test]
    fn full_rung_probe_has_no_heads_and_zero_error() {
        let model = SyntheticTransformer::new(ModelConfig::tiny(3)).unwrap();
        // The probe's prefills, counted by their spans.
        let probe = |rung: DegradationRung, method: &dyn AttentionMethod| {
            let _session = sa_trace::scoped();
            let obs = canary_probe(&model, rung, method, 48, 0).unwrap();
            let prefills = sa_trace::drain()
                .iter()
                .filter(|e| e.cat == "model" && e.name == "prefill")
                .count();
            (obs, prefills)
        };
        let (obs, prefills) = probe(DegradationRung::Full, &FullAttention::new());
        assert!(obs.heads.is_empty());
        assert_eq!(obs.true_cra, 1.0);
        assert_eq!(obs.gap_permille, 0);
        assert_eq!(obs.max_abs_err, 0.0, "dense vs dense is exact");
        assert_eq!(prefills, 0, "the constant needs no prefill");
        let cfg = DegradationRung::PaperDefault.sample_config().unwrap().unwrap();
        let sparse = sa_baselines::SampleAttentionMethod::new(cfg);
        assert_eq!(probe(DegradationRung::PaperDefault, &sparse).1, 2, "sparse + dense");
    }

    fn head_obs(id: u64, gap: i64, alpha: bool, fell_back: bool) -> CanaryObservation {
        CanaryObservation {
            request_id: id,
            true_cra: 0.9,
            max_abs_err: 0.0,
            gap_permille: gap,
            heads: vec![HeadCanary {
                layer: 0,
                head: 0,
                est_covered_mass: 0.95,
                true_cra: 0.9,
                exact_coverage: 0.95 - gap as f64 / 1000.0,
                gap_permille: gap,
                alpha_satisfied: alpha,
                fell_back,
            }],
        }
    }

    #[test]
    fn hard_trip_quarantines_and_probation_readmits() {
        let mut guard = QualityGuard::new(1, 1);
        assert_eq!(guard.quarantined_count(), 0);
        guard.absorb(&[head_obs(1, 0, false, false)]); // missed alpha
        assert_eq!(guard.quarantined_count(), 1);
        assert_eq!(guard.transitions().len(), 1);
        assert_eq!(guard.transitions()[0].action, "quarantine");
        // One clean probe is not enough (probation_clean = 2)...
        guard.absorb(&[head_obs(2, 0, true, true)]); // still dirty: resets
        guard.absorb(&[head_obs(3, 0, true, false)]);
        assert_eq!(guard.quarantined_count(), 1);
        // ...two consecutive clean probes re-admit.
        guard.absorb(&[head_obs(4, 0, true, false)]);
        assert_eq!(guard.quarantined_count(), 0);
        let last = guard.transitions().last().unwrap();
        assert_eq!(last.action, "readmit");
        assert_eq!(last.request_id, 4);
    }

    #[test]
    fn sustained_drift_trips_cusum_but_slack_absorbs_noise() {
        let mut guard = QualityGuard::new(1, 1);
        // Gaps at the slack level never accumulate.
        for id in 0..50 {
            guard.absorb(&[head_obs(id, guard.gap_slack_permille, true, false)]);
        }
        assert_eq!(guard.quarantined_count(), 0, "slack absorbs benign gaps");
        // Sustained optimism above slack accumulates and trips.
        let mut guard = QualityGuard::new(1, 1);
        let gap = guard.gap_slack_permille + 30;
        let mut trips = 0;
        for id in 0..10 {
            guard.absorb(&[head_obs(id, gap, true, false)]);
            if guard.quarantined_count() == 1 {
                trips = id + 1;
                break;
            }
        }
        assert!((2..=5).contains(&trips), "CUSUM trips after a few readings, got {trips}");
        assert!(guard
            .transitions()
            .last()
            .unwrap()
            .reason
            .contains("CUSUM"));
    }

    #[test]
    fn absorb_is_order_deterministic() {
        let obs: Vec<CanaryObservation> = (0..20)
            .map(|id| head_obs(id, if id % 3 == 0 { 60 } else { 10 }, id % 7 != 0, false))
            .collect();
        let mut a = QualityGuard::new(1, 1);
        a.absorb(&obs);
        let mut b = QualityGuard::new(1, 1);
        for o in &obs {
            b.absorb(std::slice::from_ref(o));
        }
        assert_eq!(a.transitions(), b.transitions());
        assert_eq!(a.quarantine_mask(), b.quarantine_mask());
    }
}
