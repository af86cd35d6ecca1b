//! Smoke test over the checked-in `results/*.json` artifacts: every file
//! must parse with the in-repo JSON module and survive a
//! parse → serialize → parse round trip unchanged. This guards both the
//! artifacts (no hand-edit can corrupt them silently) and the parser
//! (it accepts everything the figure/table binaries emit).

use sample_attention::json::{self, Json};
use std::path::PathBuf;

fn results_dir() -> PathBuf {
    PathBuf::from(env!("CARGO_MANIFEST_DIR")).join("results")
}

fn json_files() -> Vec<PathBuf> {
    let mut files: Vec<PathBuf> = std::fs::read_dir(results_dir())
        .expect("results/ directory")
        .filter_map(|e| e.ok())
        .map(|e| e.path())
        .filter(|p| p.extension().is_some_and(|e| e == "json"))
        .collect();
    files.sort();
    files
}

#[test]
fn every_checked_in_result_parses() {
    let files = json_files();
    assert!(
        files.len() >= 12,
        "expected the full figure/table set, found {} json files",
        files.len()
    );
    for path in files {
        let text = std::fs::read_to_string(&path).unwrap();
        let value: Json = json::parse(&text)
            .unwrap_or_else(|e| panic!("{} failed to parse: {e}", path.display()));
        // Every artifact is a non-trivial object or array, never a bare
        // scalar.
        match &value {
            Json::Object(fields) => assert!(!fields.is_empty(), "{} is empty", path.display()),
            Json::Array(items) => assert!(!items.is_empty(), "{} is empty", path.display()),
            other => panic!("{} has scalar top level: {other:?}", path.display()),
        }
    }
}

#[test]
fn corrupted_results_report_byte_offset_and_line() {
    // Truncate a real artifact the way the fault plan does and check the
    // parse error pinpoints the failure: byte offset + 1-based line and
    // column, so a broken `results/*.json` names the exact spot instead
    // of panicking opaquely.
    let plan = sample_attention::tensor::fault::FaultPlan::new(0xBAD).truncate_json(200);
    for path in json_files().into_iter().take(3) {
        let text = std::fs::read_to_string(&path).unwrap();
        let broken = plan.corrupt_json(&text);
        assert!(broken.len() < text.len(), "{} too short to truncate", path.display());
        let err = json::parse(&broken).unwrap_err();
        let loc = err
            .location()
            .unwrap_or_else(|| panic!("{}: error carries no location: {err}", path.display()));
        assert!(loc.offset <= broken.len(), "{}: offset {}", path.display(), loc.offset);
        assert!(loc.line >= 1 && loc.column >= 1);
        let msg = err.to_string();
        assert!(msg.contains("byte") && msg.contains("line"), "{msg}");
    }
}

/// Generates a fresh trace from a live traced forward pass, exports it
/// through both sinks (Chrome trace-event JSON and the
/// `trace_summary.json` schema), and proves each survives a
/// serialize → parse → validate round trip through `sa-json`.
#[test]
fn generated_trace_artifacts_round_trip_and_validate() {
    use sample_attention::core::{SampleAttention, SampleAttentionConfig};
    use sample_attention::tensor::DeterministicRng;
    use sample_attention::trace;

    let session = trace::scoped();
    let mut rng = DeterministicRng::new(0x7E57);
    let s = 128;
    let q = rng.normal_matrix(s, 32, 1.0);
    let k = rng.normal_matrix(s, 32, 1.0);
    let v = rng.normal_matrix(s, 32, 1.0);
    SampleAttention::new(SampleAttentionConfig::paper_default())
        .forward(&q, &k, &v)
        .expect("traced forward succeeds");
    let metrics = trace::metrics::snapshot();
    let events = trace::drain();
    drop(session);
    assert!(!events.is_empty(), "traced forward recorded no spans");

    // Chrome trace-event export round trip.
    let chrome = trace::chrome_trace(&events);
    let n = trace::validate_chrome_trace(&chrome).expect("fresh chrome trace validates");
    assert_eq!(n, events.len());
    let text = json::to_string_pretty(&chrome);
    let reparsed = json::parse(&text).expect("chrome trace reparses");
    assert_eq!(chrome, reparsed, "chrome trace not stable under round trip");
    assert_eq!(trace::validate_chrome_trace(&reparsed), Ok(events.len()));

    // trace_summary.json schema round trip.
    let summary = trace::TraceSummary {
        seq_len: s,
        threads: sample_attention::tensor::pool::current_threads(),
        stages: trace::summarize(&events),
        counters: metrics.counters,
        fallbacks: vec![],
        heads_alpha_unsatisfied: 0,
        fallback_heads: 0,
    };
    let text = json::to_string_pretty(&json::ToJson::to_json(&summary));
    let doc = json::parse(&text).expect("summary parses");
    let stages = trace::summary::validate_summary(&doc).expect("summary validates");
    assert!(stages >= 4, "expected the full stage taxonomy, got {stages} stages");
    let back: trace::TraceSummary = json::from_str(&text).expect("summary round-trips");
    assert_eq!(back, summary);
}

/// The checked-in `results/trace_summary.json` must satisfy the same
/// schema authority the `trace_report` binary checks on write.
#[test]
fn checked_in_trace_summary_validates() {
    let path = results_dir().join("trace_summary.json");
    let text = std::fs::read_to_string(&path)
        .unwrap_or_else(|e| panic!("{} missing: {e}", path.display()));
    let doc = json::parse(&text).unwrap();
    let stages = sample_attention::trace::summary::validate_summary(&doc)
        .expect("checked-in trace_summary.json validates");
    assert!(stages >= 4, "expected the full stage taxonomy, got {stages}");
    let seq_len = doc.get("seq_len").and_then(Json::as_i64).unwrap();
    assert!(seq_len >= 2048, "committed summary must come from a >=2048-token prefill");
}

/// The checked-in `results/chaos_soak.json` must carry the soak's
/// verdicts: the declared schema tag, a thread-invariant ledger with one
/// record per request, and no record that certifies the CRA α target
/// from the window-only rung (the ladder's honesty invariant).
#[test]
fn checked_in_chaos_soak_ledger_validates() {
    let path = results_dir().join("chaos_soak.json");
    let text = std::fs::read_to_string(&path)
        .unwrap_or_else(|e| panic!("{} missing: {e}", path.display()));
    let doc = json::parse(&text).unwrap();
    assert_eq!(
        doc.get("schema").and_then(Json::as_str),
        Some("sa.chaos_soak.v4")
    );

    // All three legs — the mixed batch, the open-loop stream, and the
    // fault storm, each replayed through the continuous scheduler — must
    // have thread-invariant ledgers
    // with one record per request and honest degradation.
    let legs = [
        ("requests", "identical_across_threads", "ledger"),
        (
            "continuous_requests",
            "continuous_identical_across_threads",
            "continuous_ledger",
        ),
        (
            "storm_requests",
            "storm_identical_across_threads",
            "storm_ledger",
        ),
    ];
    for (requests_key, identical_key, ledger_key) in legs {
        assert_eq!(
            doc.get(identical_key).and_then(Json::as_bool),
            Some(true),
            "committed soak must have a thread-invariant {ledger_key}"
        );
        let requests = doc.get(requests_key).and_then(Json::as_i64).unwrap();
        assert!(requests > 0);

        let ledger = doc.get(ledger_key).expect("soak embeds the full ledger");
        assert_eq!(
            ledger.get("schema").and_then(Json::as_str),
            Some(sample_attention::serve::LEDGER_SCHEMA)
        );
        let records = match ledger.get("records") {
            Some(Json::Array(items)) => items,
            other => panic!("{ledger_key}.records must be an array, got {other:?}"),
        };
        assert_eq!(
            records.len() as i64,
            requests,
            "{ledger_key} must account for every request exactly once"
        );
        let mut served = 0;
        for rec in records {
            let rung = rec.get("rung").and_then(Json::as_str).unwrap();
            let alpha = rec.get("alpha_satisfied").and_then(Json::as_bool).unwrap();
            assert!(
                !(rung == "window_only" && alpha),
                "record {:?} certified alpha from the window-only rung",
                rec.get("id")
            );
            if rec.get("outcome").and_then(Json::as_str) == Some("Served") {
                served += 1;
            }
        }
        assert!(served > 0, "committed soak served nothing ({ledger_key})");
        assert!(
            served < records.len(),
            "committed soak hit no adversity ({ledger_key})"
        );
    }

    // The storm leg's crash-recovery verdicts: checkpoints were
    // captured, resumes happened, and every injected integrity fault
    // (bit-flip corruption, failed restore allocation) was caught and
    // recorded instead of surfacing as a wrong answer or a panic. Each
    // tally is its column's sum over the embedded storm ledger.
    let storm_ledger = doc.get("storm_ledger").unwrap();
    for (key, column) in [
        ("storm_recovered_attempts", "recovered_attempts"),
        ("storm_recomputed_tokens", "recomputed_tokens"),
        ("storm_checkpoint_snapshots", "checkpoint_snapshots"),
        ("storm_checkpoint_corruptions", "checkpoint_corruptions"),
        ("storm_alloc_faults", "alloc_faults"),
    ] {
        let v = doc.get(key).and_then(Json::as_i64).unwrap();
        assert!(v > 0, "committed soak has {key} = {v}");
        assert_eq!(v, column_sum(storm_ledger, column), "{key}");
    }
}

/// The sum of one integer column over an embedded ledger's records.
fn column_sum(ledger: &Json, column: &str) -> i64 {
    match ledger.get("records") {
        Some(Json::Array(records)) => records
            .iter()
            .map(|r| r.get(column).and_then(Json::as_i64).unwrap())
            .sum(),
        other => panic!("ledger.records must be an array, got {other:?}"),
    }
}

/// The checked-in `results/recovery.json` must carry the recovery
/// bench's acceptance verdicts: the `sa.recovery.v2` schema, a
/// thread-invariant executed ledger, and — on every bench point —
/// checkpoint resume strictly reducing recomputed tokens with goodput
/// no worse than retry-from-scratch.
#[test]
fn checked_in_recovery_report_validates() {
    let path = results_dir().join("recovery.json");
    let text = std::fs::read_to_string(&path)
        .unwrap_or_else(|e| panic!("{} missing: {e}", path.display()));
    let doc = json::parse(&text).unwrap();
    assert_eq!(
        doc.get("schema").and_then(Json::as_str),
        Some("sa.recovery.v2")
    );
    assert_eq!(
        doc.get("identical_across_threads").and_then(Json::as_bool),
        Some(true),
        "committed recovery bench must have a thread-invariant ledger"
    );
    for key in ["checkpoint_snapshots", "checkpoint_restores"] {
        let v = doc.get(key).and_then(Json::as_i64).unwrap();
        assert!(v > 0, "committed bench has {key} = {v}");
        assert_eq!(v, column_sum(doc.get("ledger").unwrap(), key), "{key}");
    }

    let points = match doc.get("points") {
        Some(Json::Array(items)) => items,
        other => panic!("points must be an array, got {other:?}"),
    };
    assert!(!points.is_empty(), "bench has no points");
    for point in points {
        let n = point.get("requests").and_then(Json::as_i64).unwrap();
        let recovered = point
            .get("recovered_attempts")
            .and_then(Json::as_i64)
            .unwrap();
        assert!(recovered > 0, "point n={n} never resumed a checkpoint");
        let resume = point
            .get("recomputed_tokens_resume")
            .and_then(Json::as_i64)
            .unwrap();
        let scratch = point
            .get("recomputed_tokens_scratch")
            .and_then(Json::as_i64)
            .unwrap();
        assert!(
            resume < scratch,
            "point n={n}: resume recomputed {resume} tokens, scratch {scratch}"
        );
        let wr = point
            .get("wasted_ratio_resume")
            .and_then(Json::as_f64)
            .unwrap();
        let ws = point
            .get("wasted_ratio_scratch")
            .and_then(Json::as_f64)
            .unwrap();
        assert!(wr.is_finite() && ws.is_finite() && wr < ws);
        let gr = point.get("goodput_resume").and_then(Json::as_f64).unwrap();
        let gs = point.get("goodput_scratch").and_then(Json::as_f64).unwrap();
        assert!(gr.is_finite() && gs.is_finite());
        assert!(
            gr >= gs,
            "point n={n}: recovery goodput {gr} below scratch {gs}"
        );
    }

    // The executed leg's ledger accounts for the first point's stream.
    let ledger = doc.get("ledger").expect("bench embeds the executed ledger");
    assert_eq!(
        ledger.get("schema").and_then(Json::as_str),
        Some(sample_attention::serve::LEDGER_SCHEMA)
    );
    let records = match ledger.get("records") {
        Some(Json::Array(items)) => items,
        other => panic!("ledger.records must be an array, got {other:?}"),
    };
    let first_point_n = points[0].get("requests").and_then(Json::as_i64).unwrap();
    assert_eq!(
        records.len() as i64,
        first_point_n,
        "executed ledger must account for every storm request"
    );
}

/// The checked-in `results/slo_report.json` must carry the SLO sweep:
/// the declared schema, a non-empty sweep over every arrival shape,
/// finite positive goodput, and latency percentiles in ascending order
/// at every (shape × rate) point.
#[test]
fn checked_in_slo_report_validates() {
    let path = results_dir().join("slo_report.json");
    let text = std::fs::read_to_string(&path)
        .unwrap_or_else(|e| panic!("{} missing: {e}", path.display()));
    let doc = json::parse(&text).unwrap();
    assert_eq!(
        doc.get("schema").and_then(Json::as_str),
        Some(sample_attention::serve::SLO_SCHEMA)
    );
    let points = match doc.get("points") {
        Some(Json::Array(items)) => items,
        other => panic!("points must be an array, got {other:?}"),
    };
    assert!(!points.is_empty(), "sweep has no points");
    let mut shapes = std::collections::BTreeSet::new();
    for point in points {
        let shape = point.get("shape").and_then(Json::as_str).unwrap();
        shapes.insert(shape.to_string());
        let cont = point.get("continuous").expect("continuous summary");
        let cg = cont.get("goodput_per_sec").and_then(Json::as_f64).unwrap();
        assert!(cg.is_finite() && cg > 0.0, "{shape}: goodput {cg}");
        for hist in ["ttft", "tpot"] {
            let stats = cont.get(hist).unwrap_or_else(|| panic!("{hist} stats"));
            let mut prev = 0i64;
            for pct in ["p50_ms", "p90_ms", "p95_ms", "p99_ms"] {
                let v = stats.get(pct).and_then(Json::as_i64).unwrap();
                assert!(v >= prev, "{shape}: {hist}.{pct} = {v} below p-predecessor");
                prev = v;
            }
        }
    }
    assert!(
        shapes.len() >= 3,
        "sweep must cover the constant/diurnal/flash-crowd shapes, got {shapes:?}"
    );
}

/// The checked-in `results/tile_kernel.json` A/B report must carry its
/// schema tag, at least one measured case, and a bitwise-identity
/// verdict on every case — a report certifying a divergent kernel must
/// never land.
#[test]
fn checked_in_tile_kernel_report_validates() {
    let path = results_dir().join("tile_kernel.json");
    let text = std::fs::read_to_string(&path)
        .unwrap_or_else(|e| panic!("{} missing: {e}", path.display()));
    let doc = json::parse(&text).unwrap();
    assert_eq!(doc.get("schema").and_then(Json::as_str), Some("sa.tile_kernel.v1"));
    for key in ["median_serial_speedup", "median_parallel_speedup"] {
        let v = doc.get(key).and_then(Json::as_f64).unwrap();
        assert!(v.is_finite() && v > 0.0, "{key} = {v}");
    }
    let rows = match doc.get("rows") {
        Some(Json::Array(items)) => items,
        other => panic!("rows must be an array, got {other:?}"),
    };
    assert!(!rows.is_empty(), "report has no measured cases");
    let mut prev_s = 0;
    for row in rows {
        let s = row.get("seq_len").and_then(Json::as_i64).unwrap();
        assert!(s > prev_s, "seq_len not strictly ascending at {s}");
        prev_s = s;
        let tile = row.get("tile").and_then(Json::as_i64).unwrap();
        assert!((1..=64).contains(&tile), "tile {tile} outside 1..=MAX_TILE");
        assert_eq!(
            row.get("bitwise_identical").and_then(Json::as_bool),
            Some(true),
            "case at S={s} was not bitwise-identical"
        );
        for key in ["serial_speedup", "parallel_speedup", "density"] {
            let v = row.get(key).and_then(Json::as_f64).unwrap();
            assert!(v.is_finite() && v > 0.0, "S={s}: {key} = {v}");
        }
        // The tentpole's acceptance bar: single-thread sparse-stage
        // latency must improve measurably under the tiled layout.
        let serial = row.get("serial_speedup").and_then(Json::as_f64).unwrap();
        assert!(serial > 0.9, "S={s}: tiled serial leg regressed badly ({serial}x)");
    }
}

/// The checked-in `results/serve_timeline.json` must carry the telemetry
/// plane's verdicts: the `sa.serve_timeline.v3` schema, a
/// thread-invariant storm event log, conservation against the memory
/// ledger, and a flight-recorder postmortem from the forced governor
/// shed.
#[test]
fn checked_in_serve_timeline_validates() {
    let path = results_dir().join("serve_timeline.json");
    let text = std::fs::read_to_string(&path)
        .unwrap_or_else(|e| panic!("{} missing: {e}", path.display()));
    let doc = json::parse(&text).unwrap();
    assert_eq!(
        doc.get("schema").and_then(Json::as_str),
        Some("sa.serve_timeline.v3")
    );
    for key in ["identical_across_threads", "conservation_ok"] {
        assert_eq!(
            doc.get(key).and_then(Json::as_bool),
            Some(true),
            "committed timeline report must certify {key}"
        );
    }

    let points = match doc.get("points") {
        Some(Json::Array(items)) => items,
        other => panic!("points must be an array, got {other:?}"),
    };
    assert!(!points.is_empty(), "report has no sweep points");
    for point in points {
        let shape = point.get("shape").and_then(Json::as_str).unwrap();
        assert_eq!(
            point.get("conservation_ok").and_then(Json::as_bool),
            Some(true),
            "{shape}: event log failed memory conservation"
        );
        let events = point.get("events").and_then(Json::as_i64).unwrap();
        let requests = point.get("requests").and_then(Json::as_i64).unwrap();
        assert!(
            events >= requests,
            "{shape}: {events} events cannot cover {requests} requests"
        );
    }

    // The per-tenant timeline of the richest point is non-trivial.
    let timeline = doc.get("timeline").expect("report embeds the timeline");
    let series = match timeline.get("series") {
        Some(Json::Array(items)) => items,
        other => panic!("timeline.series must be an array, got {other:?}"),
    };
    assert!(!series.is_empty(), "timeline has no series");

    // The forced governor shed left a flight-recorder postmortem whose
    // ring buffer actually captured planner decisions.
    let postmortems = match doc.get("postmortems") {
        Some(Json::Array(items)) => items,
        other => panic!("postmortems must be an array, got {other:?}"),
    };
    let shed = postmortems
        .iter()
        .find(|p| p.get("trigger").and_then(Json::as_str) == Some("shed"))
        .expect("committed report must carry a shed postmortem");
    let decisions = match shed.get("decisions") {
        Some(Json::Array(items)) => items,
        other => panic!("postmortem.decisions must be an array, got {other:?}"),
    };
    assert!(!decisions.is_empty(), "shed postmortem recorded no decisions");

    let storm_events = doc.get("storm_events").and_then(Json::as_i64).unwrap();
    assert!(storm_events > 0, "storm leg recorded no events");
}

/// The checked-in `results/quality_guard.json` must carry the quality
/// guardrail plane's acceptance verdicts: zero false quarantines on a
/// clean leg whose canaries probed sparse heads, a floored tenant that never exceeded its uncertified
/// budget, canary rate invariant to scheduling outcomes, every injected
/// storm corruption caught and later re-admitted, and ledgers plus
/// quarantine transitions byte-identical across thread counts.
#[test]
fn checked_in_quality_guard_validates() {
    let path = results_dir().join("quality_guard.json");
    let text = std::fs::read_to_string(&path)
        .unwrap_or_else(|e| panic!("{} missing: {e}", path.display()));
    let doc = json::parse(&text).unwrap();
    assert_eq!(
        doc.get("schema").and_then(Json::as_str),
        Some("sa.quality_guard.v2")
    );

    // Clean leg: canaries ran and probed sparse heads, no head was
    // quarantined, and the floored tenant stayed within its
    // (zero-permille) uncertified-token budget.
    let clean_canaries = doc.get("clean_canaries").and_then(Json::as_i64).unwrap();
    assert!(clean_canaries > 0, "clean leg observed no canaries");
    let probed = doc.get("clean_probed_heads").and_then(Json::as_i64).unwrap();
    assert!(probed > 0, "clean leg's canaries probed no heads");
    assert_eq!(
        doc.get("clean_transitions").and_then(Json::as_i64),
        Some(0),
        "clean traffic must cause zero false quarantines"
    );
    assert_eq!(
        doc.get("clean_floored_tenant_uncertified_permille")
            .and_then(Json::as_i64),
        Some(0),
        "floored tenant exceeded its uncertified-token budget"
    );
    let clean_slo = doc.get("clean_slo").expect("report embeds the clean SLO");
    assert_eq!(
        clean_slo.get("schema").and_then(Json::as_str),
        Some(sample_attention::serve::SLO_SCHEMA)
    );

    // Canary-rate sweep: shadow probes never change scheduling outcomes.
    assert_eq!(
        doc.get("sweep_scheduling_invariant").and_then(Json::as_bool),
        Some(true),
        "canary rate must not perturb served counts or certified goodput"
    );

    // Storm leg: the detector caught the corruption on every head, and
    // probation re-admitted all of them — nothing left quarantined.
    let total_heads = doc.get("storm_total_heads").and_then(Json::as_i64).unwrap();
    assert!(total_heads > 0);
    assert_eq!(
        doc.get("storm_quarantined_heads").and_then(Json::as_i64),
        Some(total_heads),
        "storm must quarantine every poisoned head"
    );
    assert_eq!(
        doc.get("storm_residual_quarantined").and_then(Json::as_i64),
        Some(0),
        "all quarantined heads must re-admit after clean probation"
    );
    let readmits = doc.get("storm_readmits").and_then(Json::as_i64).unwrap();
    assert!(readmits >= total_heads);
    assert_eq!(
        doc.get("identical_across_threads").and_then(Json::as_bool),
        Some(true),
        "ledgers and quarantine transitions must be thread-invariant"
    );

    // The transition log records both directions of the state machine.
    let transitions = match doc.get("transitions") {
        Some(Json::Array(items)) => items,
        other => panic!("transitions must be an array, got {other:?}"),
    };
    let count = |action: &str| {
        transitions
            .iter()
            .filter(|t| t.get("action").and_then(Json::as_str) == Some(action))
            .count() as i64
    };
    assert_eq!(count("quarantine"), total_heads);
    assert_eq!(count("readmit"), readmits);

    // The embedded storm ledger accounts for every request once.
    let ledger = doc.get("storm_ledger").expect("report embeds the ledger");
    assert_eq!(
        ledger.get("schema").and_then(Json::as_str),
        Some(sample_attention::serve::LEDGER_SCHEMA)
    );
    let requests = doc.get("storm_requests").and_then(Json::as_i64).unwrap();
    let records = match ledger.get("records") {
        Some(Json::Array(items)) => items,
        other => panic!("storm_ledger.records must be an array, got {other:?}"),
    };
    assert_eq!(records.len() as i64, requests);
    // Every bit-flipped restore of the storm wave was caught.
    let caught = doc.get("storm_checkpoint_corruptions").and_then(Json::as_i64).unwrap();
    assert!(caught > 0, "the storm's bit-flips never tripped the checksum");
    assert_eq!(caught, column_sum(ledger, "checkpoint_corruptions"));
}

#[test]
fn results_round_trip_through_sa_json() {
    for path in json_files() {
        let text = std::fs::read_to_string(&path).unwrap();
        let value: Json = json::parse(&text).unwrap();
        let reserialized = value.render(None);
        let reparsed: Json = json::parse(&reserialized)
            .unwrap_or_else(|e| panic!("{} re-parse failed: {e}", path.display()));
        assert_eq!(
            value,
            reparsed,
            "{} not stable under round trip",
            path.display()
        );
    }
}
