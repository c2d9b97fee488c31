//! Merging per-process telemetry into one fleet timeline.
//!
//! # Clock alignment
//!
//! Every process stamps its events and telemetry with *its own* monotonic
//! clock (ns since its fabric started). The coordinator cannot read those
//! clocks directly, but every telemetry frame gives it one inequality:
//!
//! ```text
//! recv_coord ≥ sent_child + offset      (one-way delay is nonnegative)
//! ```
//!
//! so `recv_coord − sent_at_ns` is an upper bound on the child→coordinator
//! clock offset, tight to within the one-way delay of the *fastest*
//! shipment. The supervisor takes the minimum of that difference over
//! every frame a node sends (live updates tighten it for free) and stores
//! it as [`NodeFeed::offset_ns`]. Merged event time is then
//! `t_ns + offset_ns`, putting every process on the coordinator's axis —
//! good to well under a millisecond on one machine, which is enough to
//! read cross-process causality (a put span on node 0 ending before its
//! flag delivery on node 1) in one Perfetto view.

use caf_fabric::NodeTelemetry;
use caf_trace::{chrome_trace_json, summary_rows, Event};
use std::collections::HashMap;

/// One node's telemetry plus its clock offset onto the reference
/// (coordinator) clock.
#[derive(Clone, Debug)]
pub struct NodeFeed {
    /// The node's shipped telemetry (latest and most complete shipment).
    pub telemetry: NodeTelemetry,
    /// Add this to the node's timestamps to land on the reference clock.
    /// `min` over shipments of (coordinator receive instant − `sent_at_ns`).
    pub offset_ns: i64,
}

impl NodeFeed {
    /// Shift one of this node's timestamps onto the reference clock
    /// (saturating at 0 — alignment slack never produces negative time).
    pub fn align(&self, t_ns: u64) -> u64 {
        (t_ns as i64).saturating_add(self.offset_ns).max(0) as u64
    }
}

/// All events of the fleet on the reference clock, sorted by start time.
pub fn merged_events(feeds: &[NodeFeed]) -> Vec<Event> {
    let mut out: Vec<Event> =
        Vec::with_capacity(feeds.iter().map(|f| f.telemetry.events.len()).sum());
    for feed in feeds {
        for ev in &feed.telemetry.events {
            let mut ev = *ev;
            ev.t_ns = feed.align(ev.t_ns);
            out.push(ev);
        }
    }
    out.sort_by_key(|e| e.t_ns);
    out
}

/// Map each global image rank to the node that shipped it, from the
/// telemetry's own image lists (images no feed claims map to node 0).
pub fn node_of_map(feeds: &[NodeFeed]) -> HashMap<usize, usize> {
    let mut map = HashMap::new();
    for feed in feeds {
        for img in &feed.telemetry.images {
            map.insert(*img as usize, feed.telemetry.node as usize);
        }
    }
    map
}

/// One Chrome/Perfetto JSON document for the whole fleet: every process's
/// events on the aligned clock, tracks grouped per node (`pid` = node,
/// `tid` = image).
pub fn merged_chrome_json(feeds: &[NodeFeed]) -> String {
    let events = merged_events(feeds);
    let nodes = node_of_map(feeds);
    chrome_trace_json(&events, |img| nodes.get(&img).copied().unwrap_or(0))
}

/// Fleet-wide per-(team, op, level) percentile table over the merged
/// events: `(headers, rows)` strings, same shape as the in-process
/// `caf_trace::summary_rows`.
pub fn fleet_summary(feeds: &[NodeFeed]) -> (Vec<&'static str>, Vec<Vec<String>>) {
    summary_rows(&merged_events(feeds))
}

#[cfg(test)]
mod tests {
    use super::*;
    use caf_fabric::{ObsSnapshot, StatsSnapshot, TelemetryPhase};
    use caf_trace::json;
    use caf_trace::EventKind;

    fn feed(node: u32, images: &[u32], offset_ns: i64, events: Vec<Event>) -> NodeFeed {
        NodeFeed {
            telemetry: NodeTelemetry {
                node,
                phase: TelemetryPhase::Final,
                sent_at_ns: 0,
                cause: String::new(),
                images: images.to_vec(),
                stats: StatsSnapshot::default(),
                obs: ObsSnapshot::default(),
                events,
            },
            offset_ns,
        }
    }

    fn span_for(img: u32, t: u64, dur: u64) -> Event {
        let mut ev = Event::span(EventKind::Put, t, dur);
        ev.img = img;
        ev
    }

    #[test]
    fn merge_applies_offsets_and_sorts() {
        // Node 1's clock started 1000ns after the coordinator's: its raw
        // t=0 event really happened at reference t=1000.
        let feeds = vec![
            feed(0, &[0, 1], 0, vec![span_for(0, 500, 10)]),
            feed(1, &[2, 3], 1000, vec![span_for(2, 0, 10)]),
        ];
        let merged = merged_events(&feeds);
        assert_eq!(merged.len(), 2);
        assert_eq!(merged[0].t_ns, 500, "node 0 event first");
        assert_eq!(merged[1].t_ns, 1000, "node 1 event shifted by offset");
        assert_eq!(merged[1].img, 2);
        // Negative offsets clamp at zero rather than wrapping.
        let back = feed(1, &[2], -500, vec![span_for(2, 100, 1)]);
        assert_eq!(merged_events(&[back])[0].t_ns, 0);
    }

    #[test]
    fn merged_chrome_json_spans_processes_with_node_pids() {
        let feeds = vec![
            feed(0, &[0, 1], 0, vec![span_for(0, 100, 50)]),
            feed(1, &[2, 3], 2000, vec![span_for(3, 100, 50)]),
        ];
        let doc = merged_chrome_json(&feeds);
        let parsed = json::parse(&doc).expect("valid JSON");
        let arr = parsed.as_arr().expect("array");
        let spans: Vec<_> = arr
            .iter()
            .filter(|v| v.get("ph").and_then(json::Value::as_str) == Some("X"))
            .collect();
        assert_eq!(spans.len(), 2);
        let pid_of = |tid: f64| {
            spans
                .iter()
                .find(|s| s.get("tid").and_then(json::Value::as_f64) == Some(tid))
                .and_then(|s| s.get("pid").and_then(json::Value::as_f64))
                .unwrap()
        };
        assert_eq!(pid_of(0.0), 0.0, "image 0 on node 0's track");
        assert_eq!(pid_of(3.0), 1.0, "image 3 on node 1's track");
        // Node 1's event landed at reference time 2100ns = 2.1us.
        let ts = spans
            .iter()
            .find(|s| s.get("tid").and_then(json::Value::as_f64) == Some(3.0))
            .and_then(|s| s.get("ts").and_then(json::Value::as_f64))
            .unwrap();
        assert!((ts - 2.1).abs() < 1e-9, "aligned ts, got {ts}");
    }

    #[test]
    fn fleet_summary_aggregates_across_nodes() {
        let feeds = vec![
            feed(0, &[0], 0, vec![span_for(0, 0, 100)]),
            feed(1, &[1], 0, vec![span_for(1, 0, 300)]),
        ];
        let (headers, rows) = fleet_summary(&feeds);
        assert_eq!(headers[1], "op");
        let put = rows.iter().find(|r| r[1] == "put").expect("put row");
        assert_eq!(put[3], "2", "both nodes' puts in one row");
    }
}
