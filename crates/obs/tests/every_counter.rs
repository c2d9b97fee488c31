//! Every counter declared in `caf_fabric::stats`'s table reaches every
//! surface — both wire codecs, `fleet_report.json`, `/metrics`, `reset()`
//! and `-` — checked row by row from the table itself, so a counter added
//! there is covered without touching this file.

use caf_fabric::socket::wire::Frame;
use caf_fabric::{FabricStats, NodeTelemetry, ObsSnapshot, StatsSnapshot, TelemetryPhase};
use caf_obs::{fleet_report_json, FleetRegistry, NodeFeed};
use caf_trace::json;
use std::sync::atomic::Ordering;

#[test]
fn every_declared_counter_reaches_every_surface() {
    // Distinct values 1..=N, so a swapped or dropped row cannot hide.
    let stats = StatsSnapshot::from_words(std::array::from_fn(|i| i as u64 + 1));
    let telemetry = NodeTelemetry {
        node: 0,
        phase: TelemetryPhase::Final,
        sent_at_ns: 0,
        cause: String::new(),
        images: vec![0, 1],
        stats,
        obs: ObsSnapshot::default(),
        events: Vec::new(),
    };

    let heartbeat = Frame::Heartbeat { node: 0, stats };
    let via_heartbeat = match Frame::decode(&heartbeat.encode()[4..]).unwrap() {
        Frame::Heartbeat { stats, .. } => stats,
        other => panic!("decoded {other:?}"),
    };
    let via_telemetry = NodeTelemetry::decode(&telemetry.encode()).unwrap().stats;

    let report = json::parse(&fleet_report_json(&[NodeFeed {
        telemetry: telemetry.clone(),
        offset_ns: 0,
    }]))
    .expect("fleet_report.json parses");
    let report_stats = report.get("nodes").and_then(json::Value::as_arr).unwrap()[0]
        .get("stats")
        .expect("stats object");

    let registry = FleetRegistry::new(vec![vec![0, 1]]);
    registry.update(0, telemetry);
    let metrics = registry.render_prometheus();

    for (i, (c, v)) in stats.fields().enumerate() {
        assert_eq!(v, i as u64 + 1);
        assert_eq!(via_heartbeat.to_words()[i], v, "{}: Heartbeat", c.name);
        assert_eq!(via_telemetry.to_words()[i], v, "{}: NodeTelemetry", c.name);
        assert_eq!(
            report_stats.get(c.name).and_then(json::Value::as_f64),
            Some(v as f64),
            "{}: fleet_report.json",
            c.name
        );
        let sep = if c.label.is_empty() { "" } else { "," };
        let sample = format!("\n{}{{node=\"0\"{sep}{}}} {v}\n", c.family, c.label);
        assert!(
            metrics.contains(&sample),
            "{}: /metrics lacks {sample:?}",
            c.name
        );
        assert!(
            metrics.contains(&format!("# TYPE {} ", c.family)),
            "{}: family {} has no TYPE line",
            c.name,
            c.family
        );
    }

    // snapshot(), reset() and `-`, through the live atomics.
    let live = FabricStats::default();
    for (cell, v) in live.cells().into_iter().zip(stats.to_words()) {
        cell.store(v, Ordering::Relaxed);
    }
    assert_eq!(live.snapshot(), stats);
    live.reset();
    assert_eq!(live.snapshot(), StatsSnapshot::default());
    let doubled = StatsSnapshot::from_words(stats.to_words().map(|w| 2 * w + 1));
    for ((c, d), v) in (doubled - stats).fields().zip(stats.to_words()) {
        assert_eq!(d, v + 1, "{}: a - b", c.name);
    }
}
