//! Virtual-time metric timelines.
//!
//! The registry in [`crate::metrics`] answers "how much, in total"; this
//! module answers "how much, *when*". A [`Timeline`] aggregates named
//! series into fixed-width bins keyed on the serving **virtual clock**
//! (the same millisecond timeline the planners in `sa-serve` run on), so
//! the rendered timeline is bit-identical at every `SA_THREADS` setting
//! — no wall-clock reads are involved.
//!
//! - [`Timeline::increment`] is the counter shape: "n things happened in
//!   this bin" (arrivals, sheds, evictions).
//! - [`Timeline::observe`] is the histogram shape: "this value occurred
//!   in this bin" (a TTFT sample, a pressure-rung level).
//! - [`Timeline::flush`] renders a [`TimelineSnapshot`]: series sorted
//!   by name, each with a **contiguous** run of bins from its first to
//!   its last occupied bin (gaps are emitted as zero bins so plots and
//!   diffs need no gap logic).

use sa_json::impl_json_struct;
use std::collections::BTreeMap;

/// Per-bin aggregate state.
#[derive(Debug, Clone, Copy)]
struct BinAgg {
    count: u64,
    sum: u64,
    min: u64,
    max: u64,
}

impl BinAgg {
    fn new() -> Self {
        BinAgg {
            count: 0,
            sum: 0,
            min: u64::MAX,
            max: 0,
        }
    }
}

/// Windowed aggregation of named series over fixed-width virtual-time
/// bins. Internally ordered maps, so iteration — and therefore
/// [`Timeline::flush`] output — is deterministic regardless of the
/// order series were touched.
#[derive(Debug)]
pub struct Timeline {
    bin_ms: u64,
    series: BTreeMap<String, BTreeMap<u64, BinAgg>>,
}

impl Timeline {
    /// A timeline with `bin_ms`-wide bins (clamped to ≥ 1 ms).
    pub fn new(bin_ms: u64) -> Self {
        Timeline {
            bin_ms: bin_ms.max(1),
            series: BTreeMap::new(),
        }
    }

    /// The bin width, ms.
    pub fn bin_ms(&self) -> u64 {
        self.bin_ms
    }

    fn bin_start(&self, t_ms: u64) -> u64 {
        t_ms / self.bin_ms * self.bin_ms
    }

    fn agg(&mut self, name: &str, t_ms: u64) -> &mut BinAgg {
        let start = self.bin_start(t_ms);
        self.series
            .entry(name.to_string())
            .or_default()
            .entry(start)
            .or_insert_with(BinAgg::new)
    }

    /// Counter shape: `n` occurrences at virtual time `t_ms`. The bin's
    /// `count` and `sum` both advance by `n`; `min`/`max` are untouched
    /// (they describe observed values, not occurrence counts).
    pub fn increment(&mut self, name: &str, t_ms: u64, n: u64) {
        let agg = self.agg(name, t_ms);
        agg.count = agg.count.saturating_add(n);
        agg.sum = agg.sum.saturating_add(n);
    }

    /// Histogram shape: value `v` observed at virtual time `t_ms`.
    pub fn observe(&mut self, name: &str, t_ms: u64, v: u64) {
        let agg = self.agg(name, t_ms);
        agg.count = agg.count.saturating_add(1);
        agg.sum = agg.sum.saturating_add(v);
        agg.min = agg.min.min(v);
        agg.max = agg.max.max(v);
    }

    /// Renders the deterministic snapshot: series name-sorted, each a
    /// contiguous bin run from its first to its last occupied bin with
    /// zero-filled gaps. Empty bins render `min` as 0.
    pub fn flush(&self) -> TimelineSnapshot {
        let mut series = Vec::with_capacity(self.series.len());
        for (name, bins) in &self.series {
            let (first, last) = match (bins.keys().next(), bins.keys().next_back()) {
                (Some(&f), Some(&l)) => (f, l),
                _ => continue,
            };
            let mut out = Vec::new();
            let mut start = first;
            loop {
                let bin = match bins.get(&start) {
                    Some(a) => TimelineBin {
                        start_ms: start,
                        count: a.count,
                        sum: a.sum,
                        min: if a.min == u64::MAX { 0 } else { a.min },
                        max: a.max,
                    },
                    None => TimelineBin {
                        start_ms: start,
                        count: 0,
                        sum: 0,
                        min: 0,
                        max: 0,
                    },
                };
                out.push(bin);
                if start >= last {
                    break;
                }
                start += self.bin_ms;
            }
            series.push(TimelineSeries {
                name: name.clone(),
                bins: out,
            });
        }
        TimelineSnapshot {
            bin_ms: self.bin_ms,
            series,
        }
    }
}

/// One rendered bin of one series.
#[derive(Debug, Clone, PartialEq)]
pub struct TimelineBin {
    /// Bin start on the virtual clock, ms (inclusive; width `bin_ms`).
    pub start_ms: u64,
    /// Occurrences (increments) or observations in the bin.
    pub count: u64,
    /// Sum of increments / observed values.
    pub sum: u64,
    /// Minimum observed value (0 when the bin saw only increments).
    pub min: u64,
    /// Maximum observed value.
    pub max: u64,
}

impl_json_struct!(TimelineBin {
    start_ms,
    count,
    sum,
    min,
    max
});

/// One series of a flushed timeline.
#[derive(Debug, Clone, PartialEq)]
pub struct TimelineSeries {
    /// Series name.
    pub name: String,
    /// Contiguous bins from the first to the last occupied bin.
    pub bins: Vec<TimelineBin>,
}

impl_json_struct!(TimelineSeries { name, bins });

/// A flushed [`Timeline`]: what `serve_timeline` embeds in the
/// `sa.serve_timeline.v3` artifact.
#[derive(Debug, Clone, PartialEq, Default)]
pub struct TimelineSnapshot {
    /// Bin width, ms.
    pub bin_ms: u64,
    /// Name-sorted series.
    pub series: Vec<TimelineSeries>,
}

impl_json_struct!(TimelineSnapshot { bin_ms, series });

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn timeline_bins_are_contiguous_and_deterministic() {
        let mut tl = Timeline::new(100);
        tl.observe("b.ttft", 250, 40);
        tl.observe("b.ttft", 20, 10);
        tl.increment("a.arrivals", 510, 3);
        tl.increment("a.arrivals", 20, 1);
        let snap = tl.flush();
        assert_eq!(snap.bin_ms, 100);
        // Name-sorted series regardless of touch order.
        let names: Vec<&str> = snap.series.iter().map(|s| s.name.as_str()).collect();
        assert_eq!(names, ["a.arrivals", "b.ttft"]);
        // a.arrivals: bins 0..=500 contiguous, gaps zero-filled.
        let a = &snap.series[0];
        assert_eq!(a.bins.len(), 6);
        assert_eq!(a.bins[0].start_ms, 0);
        assert_eq!(a.bins[0].count, 1);
        assert!(a.bins[1..5].iter().all(|b| b.count == 0));
        assert_eq!(a.bins[5].start_ms, 500);
        assert_eq!(a.bins[5].sum, 3);
        // b.ttft: observe tracks min/max.
        let b = &snap.series[1];
        assert_eq!(b.bins[0].min, 10);
        assert_eq!(b.bins[0].max, 10);
        assert_eq!(b.bins[2].sum, 40);
        // Byte-identical re-flush.
        assert_eq!(sa_json::to_string(&snap), sa_json::to_string(&tl.flush()));
        let back: TimelineSnapshot =
            sa_json::from_str(&sa_json::to_string(&snap)).expect("snapshot round-trips");
        assert_eq!(back, snap);
    }

    #[test]
    fn empty_timeline_flushes_empty() {
        let snap = Timeline::new(0).flush();
        assert_eq!(snap.bin_ms, 1); // clamped
        assert!(snap.series.is_empty());
    }
}
