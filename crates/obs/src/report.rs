//! `fleet_report.json`: the machine-readable summary of one fleet run.
//!
//! One document, hand-emitted (no serde): per node — image list, clock
//! offset, phase/cause, every counter of the `StatsSnapshot` table, per
//! node-pair wire traffic, the put-ack latency histogram with derived
//! percentiles, and per-peer heartbeat jitter. Wire counters are reported
//! from *both* ends (A's tx row to B and B's rx row from A), which is
//! itself a diagnostic: a large mismatch means frames died in flight.

use crate::merge::NodeFeed;
use caf_fabric::Counter;
use caf_trace::json;

/// Serialize the fleet's feeds into the `fleet_report.json` document.
pub fn fleet_report_json(feeds: &[NodeFeed]) -> String {
    let mut out = String::with_capacity(1024 + feeds.len() * 2048);
    out.push_str("{\n  \"schema\": \"caf-fleet-report-v1\",\n  \"nodes\": [\n");
    for (i, feed) in feeds.iter().enumerate() {
        let t = &feed.telemetry;
        if i > 0 {
            out.push_str(",\n");
        }
        out.push_str("    {\n");
        out.push_str(&format!("      \"node\": {},\n", t.node));
        out.push_str(&format!(
            "      \"images\": [{}],\n",
            t.images
                .iter()
                .map(u32::to_string)
                .collect::<Vec<_>>()
                .join(", ")
        ));
        out.push_str(&format!("      \"phase\": \"{}\",\n", t.phase.label()));
        out.push_str(&format!(
            "      \"cause\": \"{}\",\n",
            json::escape(&t.cause)
        ));
        out.push_str(&format!("      \"clock_offset_ns\": {},\n", feed.offset_ns));
        out.push_str(&format!("      \"sent_at_ns\": {},\n", t.sent_at_ns));
        out.push_str(&format!("      \"trace_events\": {},\n", t.events.len()));
        out.push_str("      \"stats\": {");
        out.push_str(&json_fields(t.stats.fields()));
        out.push_str("},\n");
        out.push_str("      \"wire_peers\": [");
        let mut first = true;
        for (peer, w) in t.obs.peers.iter().enumerate() {
            if peer == t.node as usize {
                continue;
            }
            if !first {
                out.push_str(", ");
            }
            first = false;
            out.push_str(&format!(
                "{{\"peer\": {peer}, {}}}",
                json_fields(w.fields())
            ));
        }
        out.push_str("],\n");
        let h = &t.obs.put_ack;
        out.push_str(&format!(
            "      \"put_ack_ns\": {{\"count\": {}, \"mean\": {}, \"p50\": {}, \
             \"p95\": {}, \"p99\": {}, \"max\": {}, \"log2_buckets\": [{}]}},\n",
            h.count,
            h.mean_ns(),
            h.percentile_ns(50.0),
            h.percentile_ns(95.0),
            h.percentile_ns(99.0),
            h.max_ns,
            h.buckets
                .iter()
                .map(u64::to_string)
                .collect::<Vec<_>>()
                .join(", ")
        ));
        out.push_str(&format!(
            "      \"heartbeat_period_ns\": {},\n",
            t.obs.heartbeat_period_ns
        ));
        out.push_str("      \"heartbeats\": [");
        let mut first = true;
        for (peer, hb) in t.obs.heartbeats.iter().enumerate() {
            if peer == t.node as usize {
                continue;
            }
            if !first {
                out.push_str(", ");
            }
            first = false;
            out.push_str(&format!(
                "{{\"peer\": {peer}, \"periods\": {}, \"mean_period_ns\": {}, \
                 \"max_jitter_ns\": {}}}",
                hb.count,
                hb.mean_period_ns(),
                hb.max_abs_dev_ns
            ));
        }
        out.push_str("]\n    }");
    }
    out.push_str("\n  ]\n}\n");
    out
}

/// `"name": value` for every row of a counter table, comma-separated.
fn json_fields(fields: impl Iterator<Item = (&'static Counter, u64)>) -> String {
    fields
        .map(|(c, v)| format!("\"{}\": {v}", c.name))
        .collect::<Vec<_>>()
        .join(", ")
}

#[cfg(test)]
mod tests {
    use super::*;
    use caf_fabric::{
        HeartbeatSnapshot, HistSnapshot, NodeTelemetry, ObsSnapshot, PeerWireSnapshot,
        StatsSnapshot, TelemetryPhase,
    };

    fn sample_feeds() -> Vec<NodeFeed> {
        (0..2u32)
            .map(|node| NodeFeed {
                telemetry: NodeTelemetry {
                    node,
                    phase: if node == 1 {
                        TelemetryPhase::FlightRecorder
                    } else {
                        TelemetryPhase::Final
                    },
                    sent_at_ns: 5_000,
                    cause: if node == 1 {
                        "peer \"0\" died\nmid-run".into()
                    } else {
                        String::new()
                    },
                    images: vec![node * 2, node * 2 + 1],
                    stats: StatsSnapshot {
                        puts_inter: 10 + node as u64,
                        wire_bytes_tx: 4096,
                        ams_injected: 64,
                        am_batches_flushed: 4,
                        am_payload_bytes: 512,
                        am_fused: 16,
                        shm_puts: 21,
                        shm_bytes: 1344,
                        shm_flag_ops: 9,
                        ..StatsSnapshot::default()
                    },
                    obs: ObsSnapshot {
                        heartbeat_period_ns: 100_000_000,
                        peers: vec![
                            PeerWireSnapshot {
                                frames_tx: 3,
                                bytes_tx: 300,
                                writes_tx: 2,
                                ..PeerWireSnapshot::default()
                            };
                            2
                        ],
                        heartbeats: vec![
                            HeartbeatSnapshot {
                                count: 5,
                                sum_period_ns: 500_000_000,
                                max_abs_dev_ns: 7_000_000,
                            };
                            2
                        ],
                        put_ack: {
                            let mut h = HistSnapshot {
                                count: 2,
                                sum_ns: 3000,
                                max_ns: 2000,
                                ..HistSnapshot::default()
                            };
                            h.buckets[10] = 2;
                            h
                        },
                    },
                    events: Vec::new(),
                },
                offset_ns: 1234 * node as i64,
            })
            .collect()
    }

    #[test]
    fn report_is_valid_json_with_per_pair_counters() {
        let doc = fleet_report_json(&sample_feeds());
        let parsed = json::parse(&doc).expect("valid JSON");
        assert_eq!(
            parsed.get("schema").and_then(json::Value::as_str),
            Some("caf-fleet-report-v1")
        );
        let nodes = parsed
            .get("nodes")
            .and_then(json::Value::as_arr)
            .expect("nodes array");
        assert_eq!(nodes.len(), 2);
        let n0 = &nodes[0];
        assert_eq!(n0.get("node").and_then(json::Value::as_f64), Some(0.0));
        let pairs = n0
            .get("wire_peers")
            .and_then(json::Value::as_arr)
            .expect("wire_peers");
        assert_eq!(pairs.len(), 1, "own rank excluded");
        assert_eq!(
            pairs[0].get("peer").and_then(json::Value::as_f64),
            Some(1.0)
        );
        assert_eq!(
            pairs[0].get("frames_tx").and_then(json::Value::as_f64),
            Some(3.0)
        );
        assert_eq!(
            pairs[0].get("writes_tx").and_then(json::Value::as_f64),
            Some(2.0)
        );
        let stats = n0.get("stats").expect("stats");
        assert_eq!(
            stats.get("ams_injected").and_then(json::Value::as_f64),
            Some(64.0)
        );
        assert_eq!(
            stats.get("am_fused").and_then(json::Value::as_f64),
            Some(16.0)
        );
        assert_eq!(
            stats.get("shm_puts").and_then(json::Value::as_f64),
            Some(21.0)
        );
        assert_eq!(
            stats.get("shm_flag_ops").and_then(json::Value::as_f64),
            Some(9.0)
        );
        let ack = n0.get("put_ack_ns").expect("put_ack_ns");
        assert_eq!(ack.get("count").and_then(json::Value::as_f64), Some(2.0));
        assert_eq!(ack.get("p50").and_then(json::Value::as_f64), Some(2048.0));
        // The aborted node's cause (quotes, newline) survived escaping.
        let n1 = &nodes[1];
        assert_eq!(
            n1.get("phase").and_then(json::Value::as_str),
            Some("flight-recorder")
        );
        let cause = n1.get("cause").and_then(json::Value::as_str).unwrap();
        assert!(cause.contains("died"), "{cause}");
    }
}
