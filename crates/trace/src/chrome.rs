//! Chrome trace-event export.
//!
//! Emits the [Trace Event Format] consumed by `chrome://tracing` and
//! Perfetto: one `ph:"X"` ("complete") event per finished span, with
//! microsecond `ts`/`dur`, a per-thread `tid` track, and the span's
//! nesting depth and label carried in `args`. The viewer nests complete
//! events on a track by timestamp containment, which matches exactly how
//! [`crate::span()`] tracks depth — no explicit parent ids are needed.
//!
//! [Trace Event Format]: https://docs.google.com/document/d/1CvAClvFfyA5R-PhYUmn5OOQtYMH4h6I0nSsKchNAySU

use std::io;
use std::path::Path;

use sa_json::Json;

use crate::span::SpanEvent;

/// Nanoseconds → the format's microsecond floats (sub-µs precision is
/// preserved as a fraction, which the viewers accept).
fn us(ns: u64) -> f64 {
    ns as f64 / 1000.0
}

/// Builds the Chrome trace-event JSON document for a set of spans.
pub fn chrome_trace(events: &[SpanEvent]) -> Json {
    let trace_events: Vec<Json> = events
        .iter()
        .map(|e| {
            let mut args = vec![("depth".to_string(), Json::Int(i64::from(e.depth)))];
            if let Some(label) = &e.label {
                args.push(("label".to_string(), Json::Str(label.clone())));
            }
            Json::Object(vec![
                ("name".to_string(), Json::Str(e.name.to_string())),
                ("cat".to_string(), Json::Str(e.cat.to_string())),
                ("ph".to_string(), Json::Str("X".to_string())),
                ("pid".to_string(), Json::Int(1)),
                ("tid".to_string(), Json::Int(e.tid as i64)),
                ("ts".to_string(), Json::Float(us(e.start_ns))),
                ("dur".to_string(), Json::Float(us(e.dur_ns))),
                ("args".to_string(), Json::Object(args)),
            ])
        })
        .collect();
    Json::Object(vec![
        ("traceEvents".to_string(), Json::Array(trace_events)),
        (
            "displayTimeUnit".to_string(),
            Json::Str("ms".to_string()),
        ),
    ])
}

/// Structural check for a Chrome trace document: top-level object with a
/// `traceEvents` array whose entries each carry the `ph:"X"` fields this
/// exporter writes. Returns the event count.
///
/// # Errors
///
/// Returns a description of the first structural violation found.
pub fn validate_chrome_trace(doc: &Json) -> Result<usize, String> {
    let events = doc
        .get("traceEvents")
        .ok_or("missing traceEvents key")?
        .as_array()
        .ok_or("traceEvents is not an array")?;
    for (i, e) in events.iter().enumerate() {
        let ctx = |field: &str| format!("traceEvents[{i}]: bad or missing {field}");
        e.get("name")
            .and_then(Json::as_str)
            .ok_or_else(|| ctx("name"))?;
        e.get("cat")
            .and_then(Json::as_str)
            .ok_or_else(|| ctx("cat"))?;
        let ph = e
            .get("ph")
            .and_then(Json::as_str)
            .ok_or_else(|| ctx("ph"))?;
        if ph != "X" {
            return Err(format!("traceEvents[{i}]: ph {ph:?} is not \"X\""));
        }
        e.get("pid")
            .and_then(Json::as_i64)
            .ok_or_else(|| ctx("pid"))?;
        e.get("tid")
            .and_then(Json::as_i64)
            .ok_or_else(|| ctx("tid"))?;
        let ts = e
            .get("ts")
            .and_then(Json::as_f64)
            .ok_or_else(|| ctx("ts"))?;
        let dur = e
            .get("dur")
            .and_then(Json::as_f64)
            .ok_or_else(|| ctx("dur"))?;
        if !ts.is_finite() || ts < 0.0 || !dur.is_finite() || dur < 0.0 {
            return Err(format!("traceEvents[{i}]: non-finite or negative ts/dur"));
        }
        e.get("args")
            .and_then(Json::as_object)
            .ok_or_else(|| ctx("args"))?;
    }
    Ok(events.len())
}

/// Writes the Chrome trace for `events` to `path` (pretty-printed so the
/// file is diffable).
///
/// # Errors
///
/// Propagates the underlying filesystem error.
pub fn write_chrome_trace(path: &Path, events: &[SpanEvent]) -> io::Result<()> {
    if let Some(parent) = path.parent() {
        if !parent.as_os_str().is_empty() {
            std::fs::create_dir_all(parent)?;
        }
    }
    let doc = chrome_trace(events);
    std::fs::write(path, sa_json::to_string_pretty(&doc))
}

#[cfg(test)]
mod tests {
    use super::*;

    fn sample_events() -> Vec<SpanEvent> {
        vec![
            SpanEvent {
                name: "outer",
                cat: "test",
                start_ns: 1_000,
                dur_ns: 10_000,
                tid: 0,
                depth: 0,
                label: None,
            },
            SpanEvent {
                name: "inner",
                cat: "test",
                start_ns: 2_500,
                dur_ns: 5_000,
                tid: 0,
                depth: 1,
                label: Some("L0.H1".to_string()),
            },
        ]
    }

    #[test]
    fn export_validates_and_round_trips_through_parser() {
        let doc = chrome_trace(&sample_events());
        assert_eq!(validate_chrome_trace(&doc), Ok(2));
        let text = sa_json::to_string_pretty(&doc);
        let back = sa_json::parse(&text).expect("exporter output parses");
        assert_eq!(validate_chrome_trace(&back), Ok(2));
        let events = back.get("traceEvents").and_then(Json::as_array).expect("array");
        assert_eq!(
            events[1].get("args").and_then(|a| a.get("label")).and_then(Json::as_str),
            Some("L0.H1")
        );
        let ts = events[0].get("ts").and_then(Json::as_f64).expect("ts");
        assert!((ts - 1.0).abs() < 1e-9, "1000 ns is 1 us, got {ts}");
    }

    #[test]
    fn validate_rejects_malformed_documents() {
        assert!(validate_chrome_trace(&Json::Object(vec![])).is_err());
        let bad_ph = Json::Object(vec![(
            "traceEvents".to_string(),
            Json::Array(vec![Json::Object(vec![
                ("name".to_string(), Json::Str("x".to_string())),
                ("cat".to_string(), Json::Str("t".to_string())),
                ("ph".to_string(), Json::Str("B".to_string())),
            ])]),
        )]);
        let err = validate_chrome_trace(&bad_ph).expect_err("ph B must fail");
        assert!(err.contains("ph"), "unexpected error: {err}");
    }

    #[test]
    fn write_creates_parent_and_emits_parseable_file() {
        let dir = std::env::temp_dir().join("sa_trace_chrome_test");
        let path = dir.join("nested").join("trace.json");
        let _ = std::fs::remove_dir_all(&dir);
        write_chrome_trace(&path, &sample_events()).expect("write succeeds");
        let text = std::fs::read_to_string(&path).expect("file exists");
        let doc = sa_json::parse(&text).expect("file parses");
        assert_eq!(validate_chrome_trace(&doc), Ok(2));
        let _ = std::fs::remove_dir_all(&dir);
    }
}
