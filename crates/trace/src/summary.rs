//! Per-stage aggregation of drained spans, and the `trace_summary.json`
//! schema.
//!
//! [`summarize`] folds a drained event list into one [`StageSummary`]
//! row per `(cat, name)` pair with exact percentiles (computed from the
//! full sorted duration list — unlike the live [`crate::Histogram`],
//! which trades precision for O(1) hot-path cost). [`TraceSummary`] is
//! the document `trace_report` writes to `results/trace_summary.json`;
//! [`validate_summary`] is the schema authority both the binary and the
//! test suite check against.

use sa_json::{impl_json_struct, Json};

use crate::metrics::CounterSnapshot;
use crate::span::SpanEvent;

/// Aggregated timing for one span name within one category.
#[derive(Debug, Clone, PartialEq)]
pub struct StageSummary {
    /// Span name (e.g. `stage1_sampling`).
    pub name: String,
    /// Span category (e.g. `core`).
    pub cat: String,
    /// Number of spans aggregated.
    pub count: u64,
    /// Summed duration, nanoseconds.
    pub total_ns: u64,
    /// Mean duration, nanoseconds.
    pub mean_ns: u64,
    /// Minimum duration, nanoseconds.
    pub min_ns: u64,
    /// Maximum duration, nanoseconds.
    pub max_ns: u64,
    /// Exact median duration, nanoseconds.
    pub p50_ns: u64,
    /// Exact 95th-percentile duration, nanoseconds.
    pub p95_ns: u64,
    /// Exact 99th-percentile duration, nanoseconds.
    pub p99_ns: u64,
}

impl_json_struct!(StageSummary {
    name,
    cat,
    count,
    total_ns,
    mean_ns,
    min_ns,
    max_ns,
    p50_ns,
    p95_ns,
    p99_ns
});

/// Exact quantile of a sorted slice (nearest-rank method).
fn percentile(sorted: &[u64], q: f64) -> u64 {
    if sorted.is_empty() {
        return 0;
    }
    let rank = ((q.clamp(0.0, 1.0) * sorted.len() as f64).ceil() as usize).max(1);
    sorted[rank.min(sorted.len()) - 1]
}

/// Groups events by `(cat, name)` and computes per-group duration
/// statistics, sorted by total time descending (the Table-4 reading
/// order: the most expensive stage first).
pub fn summarize(events: &[SpanEvent]) -> Vec<StageSummary> {
    let mut groups: Vec<(&str, &str, Vec<u64>)> = Vec::new();
    for e in events {
        match groups
            .iter_mut()
            .find(|(cat, name, _)| *cat == e.cat && *name == e.name)
        {
            Some((_, _, durs)) => durs.push(e.dur_ns),
            None => groups.push((e.cat, e.name, vec![e.dur_ns])),
        }
    }
    let mut out: Vec<StageSummary> = groups
        .into_iter()
        .map(|(cat, name, mut durs)| {
            durs.sort_unstable();
            let count = durs.len() as u64;
            let total: u64 = durs.iter().sum();
            StageSummary {
                name: name.to_string(),
                cat: cat.to_string(),
                count,
                total_ns: total,
                mean_ns: total / count.max(1),
                min_ns: durs.first().copied().unwrap_or(0),
                max_ns: durs.last().copied().unwrap_or(0),
                p50_ns: percentile(&durs, 0.50),
                p95_ns: percentile(&durs, 0.95),
                p99_ns: percentile(&durs, 0.99),
            }
        })
        .collect();
    out.sort_by(|a, b| {
        b.total_ns
            .cmp(&a.total_ns)
            .then_with(|| (a.cat.as_str(), a.name.as_str()).cmp(&(b.cat.as_str(), b.name.as_str())))
    });
    out
}

/// The `results/trace_summary.json` document: per-stage timing plus the
/// counter and fallback tallies from the traced run.
#[derive(Debug, Clone, PartialEq, Default)]
pub struct TraceSummary {
    /// Prefill sequence length of the traced run.
    pub seq_len: usize,
    /// Worker threads used by the traced run.
    pub threads: usize,
    /// Per-stage timing rows, most expensive first.
    pub stages: Vec<StageSummary>,
    /// All registry counters at the end of the run.
    pub counters: Vec<CounterSnapshot>,
    /// Dense-fallback tally by `FallbackReason` name (non-`None`
    /// reasons only).
    pub fallbacks: Vec<(String, u64)>,
    /// Heads whose CRA threshold was not met within the index budget.
    pub heads_alpha_unsatisfied: u64,
    /// Heads that fell back to the dense path.
    pub fallback_heads: u64,
}

impl_json_struct!(TraceSummary {
    seq_len,
    threads,
    stages,
    counters,
    fallbacks,
    heads_alpha_unsatisfied,
    fallback_heads
});

/// Structural check for a parsed `trace_summary.json`: required keys,
/// well-formed stage rows with internally consistent statistics
/// (`min ≤ p50 ≤ p95 ≤ p99 ≤ max`, `count ≥ 1`). Returns the stage
/// count.
///
/// # Errors
///
/// Returns a description of the first structural violation found.
pub fn validate_summary(doc: &Json) -> Result<usize, String> {
    for key in ["seq_len", "threads", "heads_alpha_unsatisfied", "fallback_heads"] {
        doc.get(key)
            .and_then(Json::as_i64)
            .ok_or_else(|| format!("missing or non-integer {key}"))?;
    }
    doc.get("counters")
        .and_then(Json::as_array)
        .ok_or("missing counters array")?;
    doc.get("fallbacks")
        .and_then(Json::as_array)
        .ok_or("missing fallbacks array")?;
    let stages = doc
        .get("stages")
        .and_then(Json::as_array)
        .ok_or("missing stages array")?;
    for (i, s) in stages.iter().enumerate() {
        let ctx = |field: &str| format!("stages[{i}]: bad or missing {field}");
        s.get("name")
            .and_then(Json::as_str)
            .ok_or_else(|| ctx("name"))?;
        s.get("cat")
            .and_then(Json::as_str)
            .ok_or_else(|| ctx("cat"))?;
        let int = |field: &str| {
            s.get(field)
                .and_then(Json::as_i64)
                .ok_or_else(|| ctx(field))
        };
        let count = int("count")?;
        if count < 1 {
            return Err(format!("stages[{i}]: count {count} < 1"));
        }
        int("total_ns")?;
        int("mean_ns")?;
        let (min, p50, p95, p99, max) = (
            int("min_ns")?,
            int("p50_ns")?,
            int("p95_ns")?,
            int("p99_ns")?,
            int("max_ns")?,
        );
        if !(min <= p50 && p50 <= p95 && p95 <= p99 && p99 <= max) {
            return Err(format!(
                "stages[{i}]: percentiles not ordered: min {min} p50 {p50} p95 {p95} p99 {p99} max {max}"
            ));
        }
    }
    Ok(stages.len())
}

#[cfg(test)]
mod tests {
    use super::*;

    fn event(cat: &'static str, name: &'static str, start_ns: u64, dur_ns: u64) -> SpanEvent {
        SpanEvent {
            name,
            cat,
            start_ns,
            dur_ns,
            tid: 0,
            depth: 0,
            label: None,
        }
    }

    #[test]
    fn summarize_groups_and_orders_by_total() {
        let events = vec![
            event("core", "cheap", 0, 10),
            event("core", "cheap", 20, 30),
            event("core", "expensive", 0, 1000),
            event("pool", "cheap", 0, 5),
        ];
        let stages = summarize(&events);
        assert_eq!(stages.len(), 3, "grouped by (cat, name)");
        assert_eq!(stages[0].name, "expensive");
        let cheap = stages
            .iter()
            .find(|s| s.cat == "core" && s.name == "cheap")
            .expect("core/cheap row");
        assert_eq!(cheap.count, 2);
        assert_eq!(cheap.total_ns, 40);
        assert_eq!(cheap.mean_ns, 20);
        assert_eq!(cheap.min_ns, 10);
        assert_eq!(cheap.max_ns, 30);
    }

    #[test]
    fn percentiles_are_exact_nearest_rank() {
        let durs: Vec<SpanEvent> = (1..=100).map(|i| event("t", "s", i, i)).collect();
        let stages = summarize(&durs);
        assert_eq!(stages[0].p50_ns, 50);
        assert_eq!(stages[0].p95_ns, 95);
        assert_eq!(stages[0].p99_ns, 99);
        assert_eq!(percentile(&[], 0.5), 0);
        assert_eq!(percentile(&[7], 0.99), 7);
    }

    #[test]
    fn summary_round_trips_and_validates() {
        let events = vec![event("core", "stage1_sampling", 0, 100)];
        let summary = TraceSummary {
            seq_len: 2048,
            threads: 4,
            stages: summarize(&events),
            counters: vec![CounterSnapshot {
                name: "core.heads".to_string(),
                value: 8,
            }],
            fallbacks: vec![("NonFiniteInputs".to_string(), 1)],
            heads_alpha_unsatisfied: 0,
            fallback_heads: 1,
        };
        let text = sa_json::to_string_pretty(&sa_json::ToJson::to_json(&summary));
        let doc = sa_json::parse(&text).expect("summary serializes to valid json");
        assert_eq!(validate_summary(&doc), Ok(1));
        let back: TraceSummary = sa_json::from_str(&text).expect("summary round-trips");
        assert_eq!(back, summary);
    }

    #[test]
    fn validate_rejects_inconsistent_stats() {
        let mut summary = TraceSummary {
            stages: summarize(&[event("t", "s", 0, 50)]),
            ..TraceSummary::default()
        };
        summary.stages[0].p95_ns = 10; // below p50
        let text = sa_json::to_string(&sa_json::ToJson::to_json(&summary));
        let doc = sa_json::parse(&text).expect("parses");
        let err = validate_summary(&doc).expect_err("unordered percentiles must fail");
        assert!(err.contains("percentiles"), "unexpected error: {err}");
        assert!(validate_summary(&Json::Object(vec![])).is_err());
    }
}
