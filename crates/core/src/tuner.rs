//! Offline hyper-parameter tuning (the paper's Table 1 + §4.2).
//!
//! The paper fixes `α`, `r_row`, `r_w` per model by "lightweight offline
//! profiling" over a small dataset (22 requests, 25K–96K tokens). This
//! module implements that procedure: sweep a grid of hyper-parameters over
//! a set of profiling requests, measure output fidelity against full
//! attention and achieved mask density, then select the cheapest config
//! that stays near-lossless.

use sa_kernels::full_attention;
use sa_tensor::{cosine_similarity, Matrix};

use crate::{SampleAttention, SampleAttentionConfig, SampleAttentionError};

/// One profiling request: one head's Q/K/V drawn from a representative
/// prompt.
#[derive(Debug, Clone)]
pub struct ProfilingRequest {
    /// Query tensor `(S, d)`.
    pub q: Matrix,
    /// Key tensor `(S, d)`.
    pub k: Matrix,
    /// Value tensor `(S, d)`.
    pub v: Matrix,
}

impl ProfilingRequest {
    /// Creates a request, validating shapes.
    ///
    /// # Errors
    ///
    /// Returns [`SampleAttentionError::Tensor`] on inconsistent shapes.
    pub fn new(q: Matrix, k: Matrix, v: Matrix) -> Result<Self, SampleAttentionError> {
        if q.cols() != k.cols() || k.rows() != v.rows() {
            return Err(SampleAttentionError::Tensor(
                sa_tensor::TensorError::ShapeMismatch {
                    op: "ProfilingRequest::new",
                    lhs: q.shape(),
                    rhs: k.shape(),
                },
            ));
        }
        Ok(ProfilingRequest { q, k, v })
    }
}

/// The hyper-parameter grid to sweep.
#[derive(Debug, Clone, PartialEq)]
pub struct TunerGrid {
    /// Candidate CRA thresholds `α`.
    pub cra_thresholds: Vec<f32>,
    /// Candidate sampling ratios `r_row`.
    pub sample_ratios: Vec<f32>,
    /// Candidate window ratios `r_w`.
    pub window_ratios: Vec<f32>,
}

sa_json::impl_json_struct!(TunerGrid {
    cra_thresholds,
    sample_ratios,
    window_ratios
});

impl TunerGrid {
    /// The grid from the paper's ablation (Table 3):
    /// `α ∈ {0.80, 0.90, 0.95, 0.98}`, `r_row ∈ {2 %, 5 %, 10 %}`,
    /// `r_w ∈ {4 %, 8 %}`.
    pub fn paper_grid() -> Self {
        TunerGrid {
            cra_thresholds: vec![0.80, 0.90, 0.95, 0.98],
            sample_ratios: vec![0.02, 0.05, 0.10],
            window_ratios: vec![0.04, 0.08],
        }
    }

    /// Number of configurations in the grid.
    pub fn len(&self) -> usize {
        self.cra_thresholds.len() * self.sample_ratios.len() * self.window_ratios.len()
    }

    /// `true` when the grid is empty in any dimension.
    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }

    /// Iterator over all configurations.
    ///
    /// # Errors
    ///
    /// Returns the first config validation error (e.g. an `α` of 0 in the
    /// grid).
    pub fn configs(&self) -> Result<Vec<SampleAttentionConfig>, SampleAttentionError> {
        let mut out = Vec::with_capacity(self.len());
        for &alpha in &self.cra_thresholds {
            for &r_row in &self.sample_ratios {
                for &r_w in &self.window_ratios {
                    out.push(
                        SampleAttentionConfig::builder()
                            .cra_threshold(alpha)
                            .sample_ratio(r_row)
                            .window_ratio(r_w)
                            .build()?,
                    );
                }
            }
        }
        Ok(out)
    }
}

/// Measured quality/cost of one configuration over the profiling set.
#[derive(Debug, Clone, Copy)]
pub struct TunerEntry {
    /// The configuration evaluated.
    pub config: SampleAttentionConfig,
    /// Minimum output cosine similarity vs. full attention across
    /// requests (worst case, matching the paper's min-CRA philosophy).
    pub fidelity: f32,
    /// Mean mask density across requests (lower = faster).
    pub mean_density: f64,
    /// Total pipeline FLOPs across requests.
    pub total_flops: u64,
}

sa_json::impl_json_struct!(TunerEntry {
    config,
    fidelity,
    mean_density,
    total_flops
});

/// The chosen configuration and why.
#[derive(Debug, Clone, Copy)]
pub struct TunerSelection {
    /// The winning entry.
    pub entry: TunerEntry,
    /// Whether it met the near-lossless target (otherwise it is simply
    /// the highest-fidelity config).
    pub met_target: bool,
}

sa_json::impl_json_struct!(TunerSelection { entry, met_target });

/// Full tuning report: every evaluated point plus the selection.
#[derive(Debug, Clone)]
pub struct TunerReport {
    /// All grid entries, in grid order.
    pub entries: Vec<TunerEntry>,
    /// The selected configuration.
    pub selection: TunerSelection,
}

sa_json::impl_json_struct!(TunerReport { entries, selection });

/// Offline profiler: sweeps a [`TunerGrid`] over profiling requests and
/// picks the cheapest near-lossless configuration.
#[derive(Debug, Clone)]
pub struct HyperParamTuner {
    grid: TunerGrid,
    target_fidelity: f32,
}

impl HyperParamTuner {
    /// Creates a tuner with the near-lossless target (the paper/MLPerf use
    /// 99 % of baseline; we measure fidelity as worst-case output cosine
    /// similarity, so 0.99 is the analogous target).
    ///
    /// # Errors
    ///
    /// Returns [`SampleAttentionError::InvalidConfig`] if the grid is
    /// empty or the target is not in `(0, 1]`.
    pub fn new(grid: TunerGrid, target_fidelity: f32) -> Result<Self, SampleAttentionError> {
        if grid.is_empty() {
            return Err(SampleAttentionError::InvalidConfig {
                field: "grid",
                why: "grid must be non-empty in every dimension".to_string(),
            });
        }
        if !(target_fidelity > 0.0 && target_fidelity <= 1.0) {
            return Err(SampleAttentionError::InvalidConfig {
                field: "target_fidelity",
                why: format!("must be in (0, 1], got {target_fidelity}"),
            });
        }
        Ok(HyperParamTuner {
            grid,
            target_fidelity,
        })
    }

    /// Runs the sweep.
    ///
    /// # Errors
    ///
    /// Returns [`SampleAttentionError::InvalidConfig`] for an empty
    /// request set, or propagates kernel errors.
    pub fn tune(&self, requests: &[ProfilingRequest]) -> Result<TunerReport, SampleAttentionError> {
        if requests.is_empty() {
            return Err(SampleAttentionError::InvalidConfig {
                field: "requests",
                why: "profiling set must be non-empty".to_string(),
            });
        }
        // Full-attention references, computed once.
        let references: Vec<Matrix> = requests
            .iter()
            .map(|r| full_attention(&r.q, &r.k, &r.v, true).map(|o| o.output))
            .collect::<Result<_, _>>()?;

        let mut entries = Vec::with_capacity(self.grid.len());
        for config in self.grid.configs()? {
            let attn = SampleAttention::new(config);
            let mut min_fidelity = f32::INFINITY;
            let mut density_sum = 0.0f64;
            let mut total_flops = 0u64;
            for (req, reference) in requests.iter().zip(&references) {
                let out = attn.forward(&req.q, &req.k, &req.v)?;
                let sim = cosine_similarity(out.output.as_slice(), reference.as_slice());
                min_fidelity = min_fidelity.min(sim);
                density_sum += out.stats.mask_density;
                total_flops += out.stats.total_cost().flops;
            }
            entries.push(TunerEntry {
                config,
                fidelity: min_fidelity,
                mean_density: density_sum / requests.len() as f64,
                total_flops,
            });
        }

        // Among configs meeting the target, pick the cheapest (lowest
        // FLOPs, then lowest density); otherwise fall back to the highest
        // fidelity.
        let meeting: Vec<&TunerEntry> = entries
            .iter()
            .filter(|e| e.fidelity >= self.target_fidelity)
            .collect();
        let selection = if let Some(best) = meeting.iter().min_by(|a, b| {
            (a.total_flops, a.mean_density)
                .partial_cmp(&(b.total_flops, b.mean_density))
                .unwrap_or(std::cmp::Ordering::Equal)
        }) {
            TunerSelection {
                entry: **best,
                met_target: true,
            }
        } else {
            let best = entries
                .iter()
                .max_by(|a, b| {
                    a.fidelity
                        .partial_cmp(&b.fidelity)
                        .unwrap_or(std::cmp::Ordering::Equal)
                })
                .expect("entries non-empty");
            TunerSelection {
                entry: *best,
                met_target: false,
            }
        };

        Ok(TunerReport { entries, selection })
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use sa_tensor::DeterministicRng;

    fn structured_request(s: usize, d: usize, seed: u64) -> ProfilingRequest {
        let mut rng = DeterministicRng::new(seed);
        let mut k = rng.normal_matrix(s, d, 0.3);
        for j in 0..d {
            let v0 = k.get(0, j);
            k.set(0, j, v0 + 2.0);
            let vm = k.get(s / 3, j);
            k.set(s / 3, j, vm + 1.5);
        }
        let q = Matrix::from_fn(s, d, |_, _| 0.5 + 0.1 * rng.normal());
        let v = rng.normal_matrix(s, d, 1.0);
        ProfilingRequest::new(q, k, v).unwrap()
    }

    fn small_grid() -> TunerGrid {
        TunerGrid {
            cra_thresholds: vec![0.5, 0.95],
            sample_ratios: vec![0.1],
            window_ratios: vec![0.08],
        }
    }

    #[test]
    fn paper_grid_size() {
        assert_eq!(TunerGrid::paper_grid().len(), 4 * 3 * 2);
        assert!(!TunerGrid::paper_grid().is_empty());
    }

    #[test]
    fn tune_selects_near_lossless_config() {
        let requests = vec![structured_request(128, 8, 1), structured_request(160, 8, 2)];
        let tuner = HyperParamTuner::new(small_grid(), 0.99).unwrap();
        let report = tuner.tune(&requests).unwrap();
        assert_eq!(report.entries.len(), 2);
        assert!(report.selection.entry.fidelity >= 0.99 || !report.selection.met_target);
        // Fidelity at alpha=0.95 should dominate alpha=0.5.
        let f_lo = report.entries[0].fidelity;
        let f_hi = report.entries[1].fidelity;
        assert!(f_hi >= f_lo, "{f_hi} vs {f_lo}");
    }

    #[test]
    fn selection_prefers_cheapest_meeting_target() {
        let requests = vec![structured_request(128, 8, 3)];
        // Both alphas likely meet a loose 0.5 target; the cheaper (lower
        // alpha → sparser) must win.
        let tuner = HyperParamTuner::new(small_grid(), 0.5).unwrap();
        let report = tuner.tune(&requests).unwrap();
        assert!(report.selection.met_target);
        let min_flops = report.entries.iter().map(|e| e.total_flops).min().unwrap();
        assert_eq!(report.selection.entry.total_flops, min_flops);
    }

    #[test]
    fn falls_back_to_best_fidelity() {
        let requests = vec![structured_request(96, 8, 4)];
        // Impossible target: nothing meets fidelity 1.0 exactly... use a
        // grid of low alphas so the target is missed.
        let grid = TunerGrid {
            cra_thresholds: vec![0.2],
            sample_ratios: vec![0.05],
            window_ratios: vec![0.02],
        };
        let tuner = HyperParamTuner::new(grid, 1.0).unwrap();
        let report = tuner.tune(&requests).unwrap();
        if !report.selection.met_target {
            let max_f = report
                .entries
                .iter()
                .map(|e| e.fidelity)
                .fold(f32::NEG_INFINITY, f32::max);
            assert_eq!(report.selection.entry.fidelity, max_f);
        }
    }

    #[test]
    fn rejects_bad_inputs() {
        assert!(HyperParamTuner::new(
            TunerGrid {
                cra_thresholds: vec![],
                sample_ratios: vec![0.05],
                window_ratios: vec![0.08]
            },
            0.99
        )
        .is_err());
        assert!(HyperParamTuner::new(small_grid(), 0.0).is_err());
        let tuner = HyperParamTuner::new(small_grid(), 0.99).unwrap();
        assert!(tuner.tune(&[]).is_err());
    }

    #[test]
    fn profiling_request_validates_shapes() {
        let q = Matrix::zeros(4, 8);
        let k = Matrix::zeros(4, 6);
        let v = Matrix::zeros(4, 8);
        assert!(ProfilingRequest::new(q, k, v).is_err());
    }
}
