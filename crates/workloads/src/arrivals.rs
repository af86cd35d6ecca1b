//! Open-loop arrival processes for serving experiments.
//!
//! A closed-loop benchmark (fixed batch, next request only after the
//! previous finished) hides queueing: the system is never asked to
//! absorb more work than it just finished. Production traffic is
//! **open-loop** — users arrive whether or not the server is keeping
//! up — and that is the regime where prefill acceleration turns into
//! user-visible TTFT/goodput wins. This module generates reproducible
//! open-loop arrival timestamps on the serving layer's virtual
//! millisecond clock.
//!
//! The base process is Poisson with rate λ requests/second; a
//! [`shape`](ArrivalShape) modulates the instantaneous rate:
//!
//! - [`Constant`](ArrivalShape::Constant): homogeneous Poisson;
//! - [`Diurnal`](ArrivalShape::Diurnal): a sinusoidal day/night swing
//!   (`λ(t) = λ · (1 + depth · sin(2πt/period))`), the slow rate drift
//!   every long-running service sees;
//! - [`FlashCrowd`](ArrivalShape::FlashCrowd): periodic bursts where
//!   the rate multiplies for a short window — the adversarial shape
//!   that exposes head-of-line blocking and admission-control gaps;
//! - [`DiurnalFlash`](ArrivalShape::DiurnalFlash): both at once.
//!
//! Sampling uses Lewis–Shedler **thinning**: draw a homogeneous
//! Poisson stream at the peak rate, keep each point with probability
//! `λ(t) / λ_peak`. Every draw comes from a [`DeterministicRng`], so a
//! `(seed, rate, shape, duration)` tuple always reproduces the same
//! trace, bit for bit.

use sa_tensor::DeterministicRng;

/// How the instantaneous arrival rate varies over virtual time.
#[derive(Debug, Clone, Copy, PartialEq)]
pub enum ArrivalShape {
    /// Homogeneous Poisson at the base rate.
    Constant,
    /// Sinusoidal modulation: `λ(t) = λ · (1 + depth · sin(2πt/period))`.
    /// `depth` is clamped to `[0, 1)` so the rate never reaches zero.
    Diurnal {
        /// Full day/night period, virtual milliseconds (clamped ≥ 1).
        period_ms: u64,
        /// Swing amplitude as a fraction of the base rate.
        depth: f64,
    },
    /// Periodic flash crowds: every `quiet_ms + burst_ms` the rate
    /// multiplies by `multiplier` for `burst_ms`.
    FlashCrowd {
        /// Baseline stretch between bursts, virtual ms (clamped ≥ 1).
        quiet_ms: u64,
        /// Burst length, virtual ms (clamped ≥ 1).
        burst_ms: u64,
        /// Rate multiplier during a burst (clamped ≥ 1).
        multiplier: f64,
    },
    /// Diurnal swing with flash crowds layered on top.
    DiurnalFlash {
        /// Diurnal period, virtual ms (clamped ≥ 1).
        period_ms: u64,
        /// Diurnal swing amplitude, clamped to `[0, 1)`.
        depth: f64,
        /// Baseline stretch between bursts, virtual ms (clamped ≥ 1).
        quiet_ms: u64,
        /// Burst length, virtual ms (clamped ≥ 1).
        burst_ms: u64,
        /// Rate multiplier during a burst (clamped ≥ 1).
        multiplier: f64,
    },
}

impl ArrivalShape {
    /// Stable snake_case name for reports and results files.
    pub fn as_str(&self) -> &'static str {
        match self {
            ArrivalShape::Constant => "constant",
            ArrivalShape::Diurnal { .. } => "diurnal",
            ArrivalShape::FlashCrowd { .. } => "flash_crowd",
            ArrivalShape::DiurnalFlash { .. } => "diurnal_flash",
        }
    }
}

/// A seeded open-loop arrival process on the virtual millisecond clock.
#[derive(Debug, Clone, PartialEq)]
pub struct ArrivalProcess {
    /// Seed for the thinning draws.
    pub seed: u64,
    /// Base arrival rate, requests per virtual second (clamped to a
    /// small positive floor at generation time).
    pub rate_per_sec: f64,
    /// Rate modulation over time.
    pub shape: ArrivalShape,
}

/// Floor for the base rate: below this the process degenerates.
const MIN_RATE_PER_SEC: f64 = 1e-6;

impl ArrivalProcess {
    /// A homogeneous Poisson process.
    pub fn constant(seed: u64, rate_per_sec: f64) -> Self {
        ArrivalProcess {
            seed,
            rate_per_sec,
            shape: ArrivalShape::Constant,
        }
    }

    /// The base rate with the positive floor applied.
    fn base_rate(&self) -> f64 {
        if self.rate_per_sec.is_finite() {
            self.rate_per_sec.max(MIN_RATE_PER_SEC)
        } else {
            MIN_RATE_PER_SEC
        }
    }

    /// Instantaneous rate at virtual time `t_ms`, requests per second.
    pub fn rate_at(&self, t_ms: u64) -> f64 {
        let base = self.base_rate();
        let diurnal = |period_ms: u64, depth: f64| -> f64 {
            let period = period_ms.max(1) as f64;
            let depth = depth.clamp(0.0, 0.999);
            let phase = 2.0 * std::f64::consts::PI * (t_ms as f64 % period) / period;
            1.0 + depth * phase.sin()
        };
        let flash = |quiet_ms: u64, burst_ms: u64, multiplier: f64| -> f64 {
            let cycle = quiet_ms.max(1) + burst_ms.max(1);
            if t_ms % cycle >= quiet_ms.max(1) {
                multiplier.max(1.0)
            } else {
                1.0
            }
        };
        match self.shape {
            ArrivalShape::Constant => base,
            ArrivalShape::Diurnal { period_ms, depth } => base * diurnal(period_ms, depth),
            ArrivalShape::FlashCrowd {
                quiet_ms,
                burst_ms,
                multiplier,
            } => base * flash(quiet_ms, burst_ms, multiplier),
            ArrivalShape::DiurnalFlash {
                period_ms,
                depth,
                quiet_ms,
                burst_ms,
                multiplier,
            } => base * diurnal(period_ms, depth) * flash(quiet_ms, burst_ms, multiplier),
        }
    }

    /// The peak instantaneous rate (the thinning envelope), req/s.
    pub fn peak_rate(&self) -> f64 {
        let base = self.base_rate();
        match self.shape {
            ArrivalShape::Constant => base,
            ArrivalShape::Diurnal { depth, .. } => base * (1.0 + depth.clamp(0.0, 0.999)),
            ArrivalShape::FlashCrowd { multiplier, .. } => base * multiplier.max(1.0),
            ArrivalShape::DiurnalFlash {
                depth, multiplier, ..
            } => base * (1.0 + depth.clamp(0.0, 0.999)) * multiplier.max(1.0),
        }
    }

    /// The mean rate over `[0, duration_ms)`, req/s (closed form, no
    /// sampling): what the generated count concentrates around.
    pub fn mean_rate(&self, duration_ms: u64) -> f64 {
        let duration = duration_ms.max(1);
        // The shapes are piecewise-simple; integrate numerically on a
        // millisecond grid capped at 10k probes (deterministic, cheap).
        let probes = duration.min(10_000);
        let step = duration as f64 / probes as f64;
        let mut acc = 0.0;
        for i in 0..probes {
            acc += self.rate_at((i as f64 * step) as u64);
        }
        acc / probes as f64
    }

    /// Generates the sorted arrival timestamps (virtual ms) over
    /// `[0, duration_ms)` by thinning a peak-rate Poisson stream.
    pub fn generate(&self, duration_ms: u64) -> Vec<u64> {
        let peak = self.peak_rate();
        let mut rng = DeterministicRng::new(self.seed ^ 0x6172_7269_7661_6c73);
        let mut out = Vec::new();
        let mut t = 0.0f64;
        let horizon = duration_ms as f64;
        loop {
            // Exponential inter-arrival at the peak rate, in ms. The
            // uniform draw is nudged off 0 so ln() stays finite.
            let u = f64::from(rng.uniform()).max(1e-12);
            t += -u.ln() * 1000.0 / peak;
            if t >= horizon || t.is_nan() {
                break;
            }
            let at = t as u64;
            let keep = f64::from(rng.uniform()) * peak < self.rate_at(at);
            if keep {
                out.push(at);
            }
        }
        out
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn constant_process_is_reproducible_and_sorted() {
        let p = ArrivalProcess::constant(7, 5.0);
        let a = p.generate(60_000);
        let b = p.generate(60_000);
        assert_eq!(a, b, "same seed must reproduce the same trace");
        assert!(a.windows(2).all(|w| w[0] <= w[1]), "arrivals sorted");
        assert!(a.iter().all(|&t| t < 60_000));
        let c = ArrivalProcess::constant(8, 5.0).generate(60_000);
        assert_ne!(a, c, "different seeds draw different traces");
    }

    #[test]
    fn constant_count_concentrates_around_rate_times_duration() {
        // 5 req/s over 200 virtual seconds: expect ~1000 ± a wide
        // Poisson margin (sd ≈ 32; allow 6 sd).
        let p = ArrivalProcess::constant(11, 5.0);
        let n = p.generate(200_000).len() as f64;
        assert!((n - 1000.0).abs() < 200.0, "got {n} arrivals");
    }

    #[test]
    fn diurnal_rate_swings_and_stays_positive() {
        let p = ArrivalProcess {
            seed: 3,
            rate_per_sec: 4.0,
            shape: ArrivalShape::Diurnal {
                period_ms: 40_000,
                depth: 0.8,
            },
        };
        let peak_quarter = p.rate_at(10_000); // sin peak
        let trough_quarter = p.rate_at(30_000); // sin trough
        assert!(peak_quarter > 4.0 * 1.7, "peak {peak_quarter}");
        assert!(trough_quarter < 4.0 * 0.3, "trough {trough_quarter}");
        assert!(trough_quarter > 0.0, "rate must never reach zero");
        assert!(p.peak_rate() >= peak_quarter);
        // Arrivals in the peak half outnumber the trough half.
        let times = p.generate(40_000);
        let first_half = times.iter().filter(|&&t| t < 20_000).count();
        let second_half = times.len() - first_half;
        assert!(
            first_half > second_half,
            "diurnal peak half {first_half} vs trough half {second_half}"
        );
    }

    #[test]
    fn flash_crowd_bursts_are_denser_than_quiet_stretches() {
        let p = ArrivalProcess {
            seed: 5,
            rate_per_sec: 2.0,
            shape: ArrivalShape::FlashCrowd {
                quiet_ms: 8_000,
                burst_ms: 2_000,
                multiplier: 8.0,
            },
        };
        assert_eq!(p.rate_at(0), 2.0);
        assert_eq!(p.rate_at(8_500), 16.0);
        let times = p.generate(100_000);
        let in_burst = times.iter().filter(|&&t| t % 10_000 >= 8_000).count();
        let in_quiet = times.len() - in_burst;
        // Bursts cover 20% of time at 8x rate: expect well over the
        // quiet count per unit time.
        let burst_density = in_burst as f64 / 20_000.0;
        let quiet_density = in_quiet as f64 / 80_000.0;
        assert!(
            burst_density > 3.0 * quiet_density,
            "burst density {burst_density} vs quiet {quiet_density}"
        );
    }

    #[test]
    fn degenerate_parameters_are_clamped_not_fatal() {
        let p = ArrivalProcess {
            seed: 1,
            rate_per_sec: f64::NAN,
            shape: ArrivalShape::DiurnalFlash {
                period_ms: 0,
                depth: 9.0,
                quiet_ms: 0,
                burst_ms: 0,
                multiplier: 0.0,
            },
        };
        let times = p.generate(1_000);
        assert!(times.len() <= 1, "floored rate draws almost nothing");
        assert!(p.peak_rate() > 0.0);
        assert!(p.rate_at(123) > 0.0);
        // Zero-duration horizon yields an empty trace.
        assert!(ArrivalProcess::constant(0, 10.0).generate(0).is_empty());
    }

    #[test]
    fn mean_rate_tracks_shape() {
        let flat = ArrivalProcess::constant(0, 3.0);
        assert!((flat.mean_rate(10_000) - 3.0).abs() < 1e-9);
        let crowd = ArrivalProcess {
            seed: 0,
            rate_per_sec: 3.0,
            shape: ArrivalShape::FlashCrowd {
                quiet_ms: 9_000,
                burst_ms: 1_000,
                multiplier: 11.0,
            },
        };
        // 90% at 3, 10% at 33 → mean 6.
        let m = crowd.mean_rate(100_000);
        assert!((m - 6.0).abs() < 0.5, "mean {m}");
    }
}
