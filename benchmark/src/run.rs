//! What every workload shares: options, the outcome of a run, the timed
//! loop, and the repeated set-up.

use std::time::Instant;

use sa_json::Json;

use crate::metrics::{MetricSet, END_TO_END, PER_LAYER};
use crate::probes::ProbeShape;
use crate::spans::Tracer;
use crate::stats::median;

/// The benchmark's workloads, by the names `BENCHMARK.json` gives them.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Workload {
    RequestNiah4k,
    OpSparse16k,
    OpCapped8k,
    ServeOpenLoop16rps,
}

impl Workload {
    pub const ALL: [Workload; 4] = [
        Workload::RequestNiah4k,
        Workload::OpSparse16k,
        Workload::OpCapped8k,
        Workload::ServeOpenLoop16rps,
    ];

    pub fn name(self) -> &'static str {
        match self {
            Workload::RequestNiah4k => "request_niah_4k",
            Workload::OpSparse16k => "op_sparse_16k",
            Workload::OpCapped8k => "op_capped_8k",
            Workload::ServeOpenLoop16rps => "serve_open_loop_16rps",
        }
    }

    pub fn from_name(name: &str) -> Option<Workload> {
        Workload::ALL.into_iter().find(|w| w.name() == name)
    }
}

/// Full size is what `BENCHMARK.json` describes; the miniature runs the
/// same code on tiny inputs so the package's tests take seconds.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Size {
    Full,
    Miniature,
}

impl Size {
    pub fn probe_shape(self) -> ProbeShape {
        match self {
            Size::Full => ProbeShape::full(),
            Size::Miniature => ProbeShape::miniature(),
        }
    }
}

#[derive(Debug, Clone, Copy)]
pub struct RunOpts {
    pub workload: Workload,
    pub seed: u64,
    /// How long the measured loop may run.
    pub seconds: f64,
    pub traced: bool,
    pub size: Size,
}

/// What one run measured.
#[derive(Debug)]
pub struct RunOutcome {
    /// Operations attempted in the measured loop, and those that failed
    /// (errored, fell back unexpectedly, or failed an output check).
    pub attempted: u64,
    pub failed: u64,
    /// One line per failed check.
    pub failures: Vec<String>,
    pub metrics: MetricSet,
    /// Workload-specific facts for the run record (sizes, counts).
    pub facts: Vec<(String, Json)>,
    /// The spans of a traced run.
    pub spans: Option<Json>,
}

/// Seed of the synthetic model's constructed weights. The weights are the
/// program's checkpoint, not a generated input: the run's seed picks the
/// prompts and the arrival trace, and the same model serves all of them.
/// (Re-drawing the weights per seed moves which retrieval heads are sparse
/// and with it TTFT by +-7 %, far more than any change worth measuring.)
pub const MODEL_SEED: u64 = 7;

/// How many times set-up is repeated; `setup_s` is the median.
pub const SETUP_REPS: usize = 5;

/// Collects failures and metrics while a workload runs.
#[derive(Debug)]
pub struct Recorder {
    pub tr: Tracer,
    pub metrics: MetricSet,
    attempted: u64,
    failed: u64,
    failures: Vec<String>,
    facts: Vec<(String, Json)>,
    setup_seconds: Vec<f64>,
}

impl Recorder {
    pub fn new(opts: &RunOpts) -> Self {
        Recorder {
            tr: Tracer::new(opts.traced),
            metrics: MetricSet::new(if opts.traced { PER_LAYER } else { END_TO_END }),
            attempted: 0,
            failed: 0,
            failures: Vec::new(),
            facts: Vec::new(),
            setup_seconds: Vec::new(),
        }
    }

    /// Counts one attempted operation; `problems` empty means it passed.
    pub fn operation(&mut self, problems: Vec<String>) {
        self.attempted += 1;
        if !problems.is_empty() {
            self.failed += 1;
            self.failures.extend(problems);
        }
    }

    pub fn fact(&mut self, key: &str, value: Json) {
        self.facts.push((key.to_string(), value));
    }

    /// Runs `setup` under a span and keeps its duration as a `setup_s` sample.
    pub fn timed_setup<T>(&mut self, setup: impl FnOnce(&mut Tracer) -> T) -> T {
        let open = self.tr.open("bench.setup");
        let built = setup(&mut self.tr);
        let seconds = self.tr.close(open) / 1e3;
        self.setup_seconds.push(seconds);
        built
    }

    /// Ends an untraced run: records the end-to-end metrics from the
    /// operations' wall times and the inner unit's `(median, samples)`, then
    /// repeats `setup` until [`SETUP_REPS`] samples exist and records their
    /// median as `setup_s`. The caller has dropped the run's own inputs:
    /// the process is warm by now, so the samples measure set-up and not
    /// the start of the process, and set-up never holds two copies.
    pub fn end_to_end<T>(
        &mut self,
        op_ms: &[f64],
        step_ms: (f64, usize),
        mut setup: impl FnMut(&mut Tracer) -> T,
    ) {
        self.metrics.set("op_ms_p50", median(op_ms), op_ms.len());
        self.metrics.set("step_ms_p50", step_ms.0, step_ms.1);
        self.metrics
            .set("peak_rss_mb", peak_rss_mb().unwrap_or(0.0), 1);
        while self.setup_seconds.len() < SETUP_REPS {
            drop(self.timed_setup(&mut setup));
        }
        let (value, samples) = (median(&self.setup_seconds), self.setup_seconds.len());
        self.metrics.set("setup_s", value, samples);
    }

    pub fn finish(mut self) -> RunOutcome {
        if self.tr.recording() {
            // Calibrated, not differenced: two runs of the same code differ
            // by more than all the spans of a run cost together.
            let total_ns = self
                .tr
                .spans()
                .iter()
                .map(|s| s.end_ns)
                .max()
                .unwrap_or(0)
                .max(1);
            let spans = self.tr.spans().len();
            let overhead = Tracer::span_cost_ns() * spans as f64 / total_ns as f64;
            self.metrics
                .set("bench.trace_overhead_share", overhead, spans);
        }
        RunOutcome {
            attempted: self.attempted,
            failed: self.failed,
            failures: self.failures,
            spans: self.tr.recording().then(|| self.tr.to_json()),
            metrics: self.metrics,
            facts: self.facts,
        }
    }
}

/// Calls `op` until the next call would not fit in `seconds` (judged by
/// the slowest call so far), but at least `min_ops` times.
pub fn measured_loop(seconds: f64, min_ops: usize, mut op: impl FnMut()) {
    let start = Instant::now();
    let mut slowest = 0.0f64;
    let mut done = 0;
    while done < min_ops || start.elapsed().as_secs_f64() + slowest <= seconds {
        let before = Instant::now();
        op();
        slowest = slowest.max(before.elapsed().as_secs_f64());
        done += 1;
    }
}

/// Peak resident set of this process in MB (`VmHWM`), or `None` where
/// `/proc` does not offer it.
fn peak_rss_mb() -> Option<f64> {
    let status = std::fs::read_to_string("/proc/self/status").ok()?;
    let line = status.lines().find(|l| l.starts_with("VmHWM:"))?;
    let kb: f64 = line.split_whitespace().nth(1)?.parse().ok()?;
    Some(kb / 1024.0)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn measured_loop_honours_the_minimum_and_the_budget() {
        let mut calls = 0;
        measured_loop(0.0, 3, || calls += 1);
        assert_eq!(calls, 3);
        let mut calls = 0;
        let start = Instant::now();
        measured_loop(0.05, 1, || {
            calls += 1;
            std::thread::sleep(std::time::Duration::from_millis(10));
        });
        assert!(
            calls >= 2 && start.elapsed().as_secs_f64() < 0.2,
            "{calls} calls"
        );
    }

    #[test]
    fn workload_names_round_trip() {
        for w in Workload::ALL {
            assert_eq!(Workload::from_name(w.name()), Some(w));
        }
        assert_eq!(Workload::from_name("nope"), None);
    }
}
