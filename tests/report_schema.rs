//! Schema stability: a checked-in golden report document from the v2
//! schema must keep deserializing, and live reports must keep producing
//! documents the golden consumer shape can read. If a rename, removal,
//! or retype of a report member breaks this test, bump
//! `REPORT_VERSION` and regenerate the fixture deliberately.

use ntadoc_repro::{
    compress_corpus, Engine, EngineConfig, Json, RunReport, Task, TokenizerConfig,
    METRIC_DEFERRED_READS, METRIC_DEVICE_PEAK, METRIC_DRAM_PEAK, METRIC_HIT_RATE, REPORT_VERSION,
};

const GOLDEN: &str = include_str!("fixtures/run_report_v2.json");

#[test]
fn golden_fixture_deserializes() {
    let json = Json::parse(GOLDEN).expect("fixture is valid JSON");
    let rep = RunReport::from_json(&json).expect("fixture deserializes");
    assert_eq!(rep.version, REPORT_VERSION);
    assert_eq!(rep.task, Task::WordCount);
    assert_eq!(rep.engine, "N-TADOC");
    assert_eq!(rep.device, "NVM");
    // The derived accessors read the span tree and metric registry the
    // same way for a parsed document as for a live run.
    assert_eq!(rep.total_ns(), 1500);
    assert_eq!(rep.init_ns(), 1000);
    assert_eq!(rep.traversal_ns(), 500);
    assert_eq!(rep.spans.span_count(), 4);
    assert_eq!(rep.spans.find("parse").unwrap().virtual_ns, 400);
    assert_eq!(rep.metric_f64(METRIC_HIT_RATE), Some(0.75));
    assert_eq!(rep.metric_f64(METRIC_DRAM_PEAK), Some(8192.0));
    assert_eq!(rep.metric_u64("retry.media_attempts"), Some(0));
    // Reads served by the deferred (parallel-region) path.
    assert_eq!(rep.metric_u64(METRIC_DEFERRED_READS), Some(5));
    assert_eq!(rep.stats.reads, 120);
    assert_eq!(rep.wear_top, vec![(0, 6), (64, 3), (128, 1)]);
}

#[test]
fn golden_fixture_round_trips_bit_identically() {
    let json = Json::parse(GOLDEN).expect("fixture is valid JSON");
    let rep = RunReport::from_json(&json).unwrap();
    assert_eq!(rep.to_json(), json, "serializer drifted from the checked-in schema");
}

#[test]
fn live_reports_match_the_golden_shape() {
    let files = vec![
        ("a".to_string(), "the quick brown fox jumps over the lazy dog".repeat(20)),
        ("b".to_string(), "pack my box with five dozen liquor jugs".repeat(20)),
    ];
    let comp = compress_corpus(&files, &TokenizerConfig::default());
    let mut engine = Engine::builder(comp).config(EngineConfig::ntadoc()).build().unwrap();
    engine.run(Task::WordCount).unwrap();
    let rep = engine.last_report.as_ref().unwrap();
    let doc = rep.to_json();
    // Every member the golden fixture promises must be present, with the
    // same types, in a freshly produced document.
    let golden = Json::parse(GOLDEN).unwrap();
    for key in golden.as_obj().unwrap().keys() {
        assert!(doc.get(key).is_some(), "live report lost member `{key}`");
    }
    assert_eq!(doc.get("version").and_then(Json::as_u64), Some(REPORT_VERSION as u64));
    let spans = doc.get("spans").expect("span tree");
    assert_eq!(spans.get("name").and_then(Json::as_str), Some("run"));
    assert!(spans.get("children").and_then(Json::as_arr).is_some_and(|c| !c.is_empty()));
    let metrics = doc.get("metrics").and_then(Json::as_obj).expect("metric registry");
    for metric in [METRIC_DRAM_PEAK, METRIC_DEVICE_PEAK, METRIC_HIT_RATE, METRIC_DEFERRED_READS] {
        assert!(metrics.contains_key(metric), "live report lost metric `{metric}`");
    }
    // Deferred reads are one total: no per-shard or other contention
    // counters.
    assert!(metrics.keys().all(|k| !k.starts_with("contention.")), "{:?}", metrics.keys());
}
