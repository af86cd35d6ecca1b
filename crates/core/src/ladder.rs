//! The adaptive degradation ladder.
//!
//! Under deadline or memory pressure a serving scheduler cannot afford
//! full attention for every request — but silently switching a request
//! to a cheaper attention method would violate the paper's near-lossless
//! contract (CRA ≥ α, Definition 2). The ladder makes the trade-off
//! explicit and *auditable*: each request starts at the highest rung its
//! constraints admit and is re-admitted one rung down under pressure,
//! and every rung it lands on is recorded in a [`DegradationReport`]
//! together with whether that rung still certified the α target.
//!
//! The rungs, top to bottom:
//!
//! | rung | method | α certification |
//! |---|---|---|
//! | [`Full`] | exact attention | trivially certified |
//! | [`PaperDefault`] | SampleAttention, `α=0.95, r_row=5%, r_w=8%` | measured (stage-2 CRA) |
//! | [`Tight`] | SampleAttention, `α=0.90, r_row=2%, r_w=4%` | measured (stage-2 CRA) |
//! | [`WindowOnly`] | fixed local window, `r_w=4%` | **never** — no CRA measurement exists |
//!
//! The bottom rung trades away the coverage guarantee entirely: a fixed
//! window has no stage-2 and therefore no CRA measurement, so the report
//! records `alpha_satisfied = false` for it *unconditionally*. This is
//! the ladder's core invariant — enforced by [`DegradationReport::record`]
//! by construction, not by caller discipline: a request can end below
//! the α target, but never silently.
//!
//! [`Full`]: DegradationRung::Full
//! [`PaperDefault`]: DegradationRung::PaperDefault
//! [`Tight`]: DegradationRung::Tight
//! [`WindowOnly`]: DegradationRung::WindowOnly

use crate::{SampleAttentionConfig, SampleAttentionError};

/// One rung of the degradation ladder, ordered cheapest-guarantee last.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord)]
pub enum DegradationRung {
    /// Exact full attention — the quality ceiling, quadratic cost.
    Full,
    /// SampleAttention at the paper's tuned operating point
    /// (`α = 0.95`, `r_row = 5 %`, `r_w = 8 %`).
    PaperDefault,
    /// SampleAttention with a tighter budget (`α = 0.90`, `r_row = 2 %`,
    /// `r_w = 4 %`): cheaper discovery and sparser masks, still CRA-
    /// measured.
    Tight,
    /// Fixed local window only (`r_w = 4 %`), StreamingLLM-style: the
    /// cheapest rung, with no coverage measurement at all.
    WindowOnly,
}

sa_json::impl_json_enum!(DegradationRung {
    Full,
    PaperDefault,
    Tight,
    WindowOnly
});

impl DegradationRung {
    /// All rungs, top (most faithful) to bottom (cheapest).
    pub const ALL: [DegradationRung; 4] = [
        DegradationRung::Full,
        DegradationRung::PaperDefault,
        DegradationRung::Tight,
        DegradationRung::WindowOnly,
    ];

    /// The window ratio used by the [`WindowOnly`](Self::WindowOnly) and
    /// [`Tight`](Self::Tight) rungs.
    pub const TIGHT_WINDOW_RATIO: f32 = 0.04;

    /// Position in [`DegradationRung::ALL`] (0 = full attention).
    pub fn index(self) -> usize {
        match self {
            DegradationRung::Full => 0,
            DegradationRung::PaperDefault => 1,
            DegradationRung::Tight => 2,
            DegradationRung::WindowOnly => 3,
        }
    }

    /// Stable snake_case name for ledgers and metrics labels.
    pub fn as_str(self) -> &'static str {
        match self {
            DegradationRung::Full => "full",
            DegradationRung::PaperDefault => "paper_default",
            DegradationRung::Tight => "tight",
            DegradationRung::WindowOnly => "window_only",
        }
    }

    /// The next rung down, or `None` at the bottom of the ladder.
    pub fn next_down(self) -> Option<DegradationRung> {
        DegradationRung::ALL.get(self.index() + 1).copied()
    }

    /// The SampleAttention configuration for the rungs that run
    /// SampleAttention; `None` for [`Full`](Self::Full) and
    /// [`WindowOnly`](Self::WindowOnly), which use other methods.
    ///
    /// # Errors
    ///
    /// Never fails for the built-in rungs; the `Result` comes from the
    /// config builder's validation.
    pub fn sample_config(self) -> Result<Option<SampleAttentionConfig>, SampleAttentionError> {
        match self {
            DegradationRung::Full | DegradationRung::WindowOnly => Ok(None),
            DegradationRung::PaperDefault => Ok(Some(SampleAttentionConfig::paper_default())),
            DegradationRung::Tight => SampleAttentionConfig::builder()
                .cra_threshold(0.90)
                .sample_ratio(0.02)
                .window_ratio(Self::TIGHT_WINDOW_RATIO)
                .build()
                .map(Some),
        }
    }

    /// Whether the rung *can* certify the near-lossless α target: exact
    /// attention trivially covers any α, and the SampleAttention rungs
    /// measure CRA in stage 2. The window-only rung has no measurement
    /// and can never certify.
    pub fn can_certify_alpha(self) -> bool {
        !matches!(self, DegradationRung::WindowOnly)
    }

    /// Deterministic relative cost of the rung versus full attention, as
    /// used by the scheduler's *virtual* cost model (admission and
    /// deadline-feasibility decisions — never real timing). Derived from
    /// the typical mask densities the bench binaries measure: the paper
    /// point computes roughly a quarter of the causal triangle at the
    /// bench's sequence lengths, the tight point roughly an eighth, and a
    /// 4 % window less than a tenth.
    pub fn cost_factor(self) -> f64 {
        match self {
            DegradationRung::Full => 1.0,
            DegradationRung::PaperDefault => 0.25,
            DegradationRung::Tight => 0.12,
            DegradationRung::WindowOnly => 0.08,
        }
    }
}

impl std::fmt::Display for DegradationRung {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.write_str(self.as_str())
    }
}

/// One rung a request actually ran (or was considered) at.
#[derive(Debug, Clone, PartialEq)]
pub struct RungAttempt {
    /// The rung.
    pub rung: DegradationRung,
    /// Whether the rung satisfied the report's α target: measured CRA
    /// for the SampleAttention rungs, trivially `true` for full
    /// attention, and forced `false` for window-only (no measurement).
    pub alpha_satisfied: bool,
    /// What happened at this rung: `"served"`, `"deadline_infeasible"`,
    /// `"retry_exhausted"`, or an error category.
    pub outcome: String,
}

sa_json::impl_json_struct!(RungAttempt {
    rung,
    alpha_satisfied,
    outcome
});

/// The per-request audit trail of the degradation ladder.
#[derive(Debug, Clone, PartialEq)]
pub struct DegradationReport {
    /// The near-lossless target the request was admitted under
    /// (the paper's `α`, 0.95 by default).
    pub alpha_target: f32,
    /// Every rung considered or executed, in ladder order.
    pub attempts: Vec<RungAttempt>,
}

sa_json::impl_json_struct!(DegradationReport {
    alpha_target,
    attempts
});

impl DegradationReport {
    /// An empty report for the given α target.
    pub fn new(alpha_target: f32) -> Self {
        DegradationReport {
            alpha_target,
            attempts: Vec::new(),
        }
    }

    /// Records an attempt at `rung`. `measured_alpha_ok` is the CRA
    /// verdict from the actual run (every head's stage-2 coverage met the
    /// target) — it is only trusted for rungs that can certify; for
    /// [`DegradationRung::WindowOnly`] the recorded `alpha_satisfied` is
    /// forced to `false` regardless, so a drop below the α target can
    /// never be silent.
    pub fn record(&mut self, rung: DegradationRung, measured_alpha_ok: bool, outcome: &str) {
        self.attempts.push(RungAttempt {
            rung,
            alpha_satisfied: rung.can_certify_alpha() && measured_alpha_ok,
            outcome: outcome.to_string(),
        });
    }

    /// The rung of the last attempt, if any.
    pub fn final_rung(&self) -> Option<DegradationRung> {
        self.attempts.last().map(|a| a.rung)
    }

    /// True when the request ended on a lower rung than it started on.
    pub fn degraded(&self) -> bool {
        match (self.attempts.first(), self.attempts.last()) {
            (Some(first), Some(last)) => last.rung.index() > first.rung.index(),
            _ => false,
        }
    }

    /// True when the final attempt is recorded as satisfying the α
    /// target. `false` for an empty report.
    pub fn final_alpha_satisfied(&self) -> bool {
        self.attempts.last().is_some_and(|a| a.alpha_satisfied)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use sa_json::{FromJson, ToJson};

    #[test]
    fn ladder_order_and_traversal() {
        assert_eq!(DegradationRung::ALL.len(), 4);
        assert_eq!(DegradationRung::Full.next_down(), Some(DegradationRung::PaperDefault));
        assert_eq!(
            DegradationRung::PaperDefault.next_down(),
            Some(DegradationRung::Tight)
        );
        assert_eq!(
            DegradationRung::Tight.next_down(),
            Some(DegradationRung::WindowOnly)
        );
        assert_eq!(DegradationRung::WindowOnly.next_down(), None);
        for (i, r) in DegradationRung::ALL.iter().enumerate() {
            assert_eq!(r.index(), i);
        }
    }

    #[test]
    fn rung_configs_validate() {
        assert!(DegradationRung::Full.sample_config().unwrap().is_none());
        assert!(DegradationRung::WindowOnly.sample_config().unwrap().is_none());
        let paper = DegradationRung::PaperDefault
            .sample_config()
            .unwrap()
            .expect("paper rung has a config");
        assert_eq!(paper, SampleAttentionConfig::paper_default());
        let tight = DegradationRung::Tight
            .sample_config()
            .unwrap()
            .expect("tight rung has a config");
        assert!(tight.cra_threshold < paper.cra_threshold);
        assert!(tight.sample_ratio < paper.sample_ratio);
        assert!(tight.window_ratio < paper.window_ratio);
    }

    #[test]
    fn cost_factors_strictly_decrease_down_the_ladder() {
        let costs: Vec<f64> = DegradationRung::ALL.iter().map(|r| r.cost_factor()).collect();
        for pair in costs.windows(2) {
            assert!(pair[0] > pair[1], "{costs:?} not strictly decreasing");
        }
        assert_eq!(costs[0], 1.0);
    }

    #[test]
    fn window_only_can_never_record_alpha_satisfied() {
        // The acceptance invariant: dropping below the α target is never
        // silent. Even a (buggy or malicious) caller passing
        // `measured_alpha_ok = true` cannot make the window rung claim
        // certification.
        let mut report = DegradationReport::new(0.95);
        report.record(DegradationRung::WindowOnly, true, "served");
        assert!(!report.final_alpha_satisfied());
        assert!(!report.attempts[0].alpha_satisfied);
    }

    #[test]
    fn report_tracks_degradation_path() {
        let mut report = DegradationReport::new(0.95);
        assert!(!report.degraded());
        assert!(!report.final_alpha_satisfied());
        report.record(DegradationRung::Full, true, "deadline_infeasible");
        assert!(!report.degraded());
        report.record(DegradationRung::PaperDefault, true, "served");
        assert!(report.degraded());
        assert_eq!(report.final_rung(), Some(DegradationRung::PaperDefault));
        assert!(report.final_alpha_satisfied());
    }

    #[test]
    fn measured_verdict_respected_for_certifying_rungs() {
        let mut report = DegradationReport::new(0.95);
        report.record(DegradationRung::Tight, false, "served");
        assert!(!report.final_alpha_satisfied());
        report.record(DegradationRung::PaperDefault, true, "served");
        assert!(report.final_alpha_satisfied());
    }

    #[test]
    fn rung_json_round_trip() {
        for rung in DegradationRung::ALL {
            let j = rung.to_json();
            let back = DegradationRung::from_json(&j).expect("rung round-trips");
            assert_eq!(back, rung);
        }
        let mut report = DegradationReport::new(0.95);
        report.record(DegradationRung::PaperDefault, true, "served");
        report.record(DegradationRung::WindowOnly, true, "served");
        let text = sa_json::to_string_pretty(&report.to_json());
        let doc = sa_json::parse(&text).expect("report serializes");
        let back = DegradationReport::from_json(&doc).expect("report round-trips");
        assert_eq!(back, report);
    }

    #[test]
    fn display_names_are_snake_case() {
        assert_eq!(DegradationRung::PaperDefault.to_string(), "paper_default");
        assert_eq!(DegradationRung::WindowOnly.as_str(), "window_only");
    }
}
