//! Fleet observability probes and the telemetry shipment format.
//!
//! The socket fabric is the one backend whose behavior cannot be read from
//! a single process: wire traffic, ack latencies, and peer liveness are
//! distributed facts. This module keeps the per-process half of the story:
//!
//! * `SocketObs` — cheap relaxed-atomic probes the fabric's hot paths
//!   feed: per-peer wire frame/byte/retry counters (the per-node-pair
//!   matrix of `fleet_report.json`), a log2-bucket histogram of blocking
//!   put-ack service times, and per-peer heartbeat arrival jitter.
//! * [`NodeTelemetry`] — one process's complete observability snapshot
//!   (counters, probe snapshot, trace-ring window) with a versioned binary
//!   codec. Shipped to the `caf-launch` coordinator in a
//!   [`Frame::Telemetry`](super::wire::Frame::Telemetry) or spilled under
//!   `CAF_TRACE_DIR`; the supervisor merges the fleet's shipments into one
//!   timeline and report.
//!
//! Everything here is observability-plane: none of it is consulted by the
//! data path, and all counters are relaxed.

use super::egress::Left;
use super::wire::{invalid, put_items, Cursor, Field, MAX_FRAME_BYTES};
use crate::stats::{counters, StatsSnapshot};
use caf_trace::event::EVENT_WORDS;
use caf_trace::Event;
use std::io;
use std::sync::atomic::{AtomicU64, Ordering};

/// Version magic leading every encoded [`NodeTelemetry`]; bump on any
/// incompatible payload-format change (independent of the frame protocol's
/// `WIRE_MAGIC`).
pub const TELEMETRY_MAGIC: u32 = 0xCAF0_0B55;

/// Bucket count of [`HistSnapshot`]: bucket `i` holds samples in
/// `[2^i, 2^(i+1))` ns, with the top bucket absorbing everything larger.
pub const HIST_BUCKETS: usize = 32;

/// Why a [`NodeTelemetry`] was shipped.
#[derive(Clone, Copy, Debug, PartialEq, Eq, PartialOrd, Ord)]
pub enum TelemetryPhase {
    /// Periodic in-flight update (counters only; no trace events — cheap
    /// enough to ship every `CAF_OBS_INTERVAL_MS`).
    Live = 0,
    /// Final snapshot after all hosted images completed.
    Final = 1,
    /// Flight recorder: the process is going down (peer death, panic) and
    /// this is what it saw last, trace window included.
    FlightRecorder = 2,
}

impl TelemetryPhase {
    /// Short lowercase label (`live` / `final` / `flight-recorder`).
    pub fn label(&self) -> &'static str {
        match self {
            TelemetryPhase::Live => "live",
            TelemetryPhase::Final => "final",
            TelemetryPhase::FlightRecorder => "flight-recorder",
        }
    }
}

// ---- atomic probes (fabric-internal) ---------------------------------

counters! {
    struct PeerWire;
    /// Wire traffic between this process and one peer process.
    pub struct PeerWireSnapshot;

    /// Frames written to this peer, counted as they leave the process (a
    /// frame still corked is not counted yet; a `put_nb` fused with the
    /// `flag_add` behind it is one).
    frames_tx;
    /// Bytes written to this peer, including frame headers.
    bytes_tx;
    /// Socket writes those frames took: the egress corks frames and
    /// writes them in bursts, so `frames_tx / writes_tx` is the
    /// write-combining factor.
    writes_tx;
    /// Frames read from this peer.
    frames_rx;
    /// Bytes read from this peer, including frame headers.
    bytes_rx;
    /// Failed connect attempts to this peer that were retried.
    retries;
    /// Whether connecting to this peer needed at least one retry (0/1,
    /// counted per established connection).
    reconnects;
}

counters! {
    struct HbWatch;
    /// Heartbeat arrival statistics for one peer, as observed locally.
    pub struct HeartbeatSnapshot;

    /// Inter-arrival periods observed (arrivals minus one).
    count;
    /// Sum of observed inter-arrival periods (ns); mean = sum / count.
    sum_period_ns;
    /// Largest absolute deviation of an observed period from the
    /// configured heartbeat period (ns) — the jitter headline.
    max_abs_dev_ns;
}

#[derive(Default)]
struct Hist {
    count: AtomicU64,
    sum_ns: AtomicU64,
    max_ns: AtomicU64,
    buckets: [AtomicU64; HIST_BUCKETS],
}

impl Hist {
    fn record(&self, ns: u64) {
        self.count.fetch_add(1, Ordering::Relaxed);
        self.sum_ns.fetch_add(ns, Ordering::Relaxed);
        self.max_ns.fetch_max(ns, Ordering::Relaxed);
        let idx = (63 - ns.max(1).leading_zeros() as usize).min(HIST_BUCKETS - 1);
        self.buckets[idx].fetch_add(1, Ordering::Relaxed);
    }
}

/// The socket fabric's observability probes: one instance per fabric,
/// sized for the fleet at `join` time.
pub(super) struct SocketObs {
    heartbeat_period_ns: u64,
    peers: Vec<PeerWire>,
    /// Per peer: ns-since-fabric-start of its previous heartbeat (0 = none).
    hb_last_arrival: Vec<AtomicU64>,
    hb: Vec<HbWatch>,
    put_ack: Hist,
}

impl SocketObs {
    pub(super) fn new(n_procs: usize, heartbeat_period_ns: u64) -> Self {
        Self {
            heartbeat_period_ns,
            peers: (0..n_procs).map(|_| PeerWire::default()).collect(),
            hb_last_arrival: (0..n_procs).map(|_| AtomicU64::new(0)).collect(),
            hb: (0..n_procs).map(|_| HbWatch::default()).collect(),
            put_ack: Hist::default(),
        }
    }

    /// A write to `peer` carried what `left` says (one write may carry
    /// many frames).
    #[inline]
    pub(super) fn wire_tx(&self, peer: usize, left: Left) {
        let p = &self.peers[peer];
        p.frames_tx.fetch_add(left.frames, Ordering::Relaxed);
        p.bytes_tx.fetch_add(left.bytes, Ordering::Relaxed);
        p.writes_tx.fetch_add(left.writes, Ordering::Relaxed);
    }

    /// `frames` frames of `bytes` bytes in all were read from `peer`.
    #[inline]
    pub(super) fn wire_rx(&self, peer: usize, frames: u64, bytes: u64) {
        let p = &self.peers[peer];
        p.frames_rx.fetch_add(frames, Ordering::Relaxed);
        p.bytes_rx.fetch_add(bytes, Ordering::Relaxed);
    }

    pub(super) fn dial_result(&self, peer: usize, retries: u64) {
        let p = &self.peers[peer];
        p.retries.fetch_add(retries, Ordering::Relaxed);
        if retries > 0 {
            p.reconnects.fetch_add(1, Ordering::Relaxed);
        }
    }

    #[inline]
    pub(super) fn put_ack(&self, service_ns: u64) {
        self.put_ack.record(service_ns);
    }

    /// A heartbeat from `peer` arrived at `now_ns` (fabric clock). Records
    /// the inter-arrival period and its deviation from the configured one.
    pub(super) fn heartbeat_seen(&self, peer: usize, now_ns: u64) {
        let w = &self.hb[peer];
        let prev = self.hb_last_arrival[peer].swap(now_ns.max(1), Ordering::Relaxed);
        if prev == 0 {
            return;
        }
        let period = now_ns.saturating_sub(prev);
        w.count.fetch_add(1, Ordering::Relaxed);
        w.sum_period_ns.fetch_add(period, Ordering::Relaxed);
        let dev = period.abs_diff(self.heartbeat_period_ns);
        w.max_abs_dev_ns.fetch_max(dev, Ordering::Relaxed);
    }

    pub(super) fn snapshot(&self) -> ObsSnapshot {
        ObsSnapshot {
            heartbeat_period_ns: self.heartbeat_period_ns,
            peers: self.peers.iter().map(PeerWire::snapshot).collect(),
            heartbeats: self.hb.iter().map(HbWatch::snapshot).collect(),
            put_ack: HistSnapshot {
                count: self.put_ack.count.load(Ordering::Relaxed),
                sum_ns: self.put_ack.sum_ns.load(Ordering::Relaxed),
                max_ns: self.put_ack.max_ns.load(Ordering::Relaxed),
                buckets: std::array::from_fn(|i| self.put_ack.buckets[i].load(Ordering::Relaxed)),
            },
        }
    }
}

// ---- plain-data snapshots --------------------------------------------

impl HeartbeatSnapshot {
    /// Mean observed inter-arrival period (ns), 0 when nothing arrived.
    pub fn mean_period_ns(&self) -> u64 {
        self.sum_period_ns.checked_div(self.count).unwrap_or(0)
    }
}

/// A log2-bucket latency histogram (bucket `i` covers `[2^i, 2^(i+1))` ns).
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub struct HistSnapshot {
    /// Samples recorded.
    pub count: u64,
    /// Sum of all samples (ns).
    pub sum_ns: u64,
    /// Largest sample (ns).
    pub max_ns: u64,
    /// Per-bucket sample counts.
    pub buckets: [u64; HIST_BUCKETS],
}

impl HistSnapshot {
    /// Mean sample (ns), 0 on an empty histogram.
    pub fn mean_ns(&self) -> u64 {
        self.sum_ns.checked_div(self.count).unwrap_or(0)
    }

    /// Nearest-rank percentile, resolved to the upper bound of the bucket
    /// holding the ⌈p/100·n⌉-th sample (histograms trade exactness for a
    /// fixed footprint). 0 on an empty histogram.
    pub fn percentile_ns(&self, p: f64) -> u64 {
        if self.count == 0 {
            return 0;
        }
        let rank = ((p / 100.0 * self.count as f64).ceil() as u64).clamp(1, self.count);
        let mut seen = 0u64;
        for (i, &b) in self.buckets.iter().enumerate() {
            seen += b;
            if seen >= rank {
                return 1u64 << (i + 1).min(63);
            }
        }
        self.max_ns
    }
}

/// Snapshot of every `SocketObs` probe, indexed by peer process rank
/// (entries at this process's own rank stay zero).
#[derive(Clone, Debug, Default, PartialEq, Eq)]
pub struct ObsSnapshot {
    /// The configured heartbeat period (ns) jitter is measured against.
    pub heartbeat_period_ns: u64,
    /// Per-peer wire traffic.
    pub peers: Vec<PeerWireSnapshot>,
    /// Per-peer heartbeat arrival statistics.
    pub heartbeats: Vec<HeartbeatSnapshot>,
    /// Blocking put-ack service-time histogram (send → ack, all peers).
    pub put_ack: HistSnapshot,
}

// ---- field codecs of the shipment ------------------------------------

impl Field for TelemetryPhase {
    const MIN_BYTES: usize = 1;

    fn put(&self, b: &mut Vec<u8>) {
        (*self as u8).put(b);
    }

    fn get(c: &mut Cursor<'_>) -> io::Result<Self> {
        Ok(match c.get::<u8>()? {
            0 => TelemetryPhase::Live,
            1 => TelemetryPhase::Final,
            2 => TelemetryPhase::FlightRecorder,
            _ => return Err(invalid("unknown telemetry phase")),
        })
    }
}

impl Field for HistSnapshot {
    const MIN_BYTES: usize = 8 * (3 + HIST_BUCKETS);

    fn put(&self, b: &mut Vec<u8>) {
        [self.count, self.sum_ns, self.max_ns].put(b);
        self.buckets.put(b);
    }

    fn get(c: &mut Cursor<'_>) -> io::Result<Self> {
        Ok(HistSnapshot {
            count: c.get()?,
            sum_ns: c.get()?,
            max_ns: c.get()?,
            buckets: c.get()?,
        })
    }
}

/// A trace event, as its ring-slot words. A shipment carries at most 2^24.
impl Field for Event {
    const MIN_BYTES: usize = 8 * EVENT_WORDS;
    const MAX_ITEMS: usize = 1 << 24;

    fn put(&self, b: &mut Vec<u8>) {
        self.encode().put(b);
    }

    fn get(c: &mut Cursor<'_>) -> io::Result<Self> {
        Event::decode(&c.get()?).ok_or_else(|| invalid("bad event in telemetry"))
    }
}

// ---- the shipment ----------------------------------------------------

/// One process's complete observability snapshot: what it was doing
/// ([`StatsSnapshot`]), what its wires saw ([`ObsSnapshot`]), and — for
/// final/flight-recorder shipments — its retained trace-ring window.
#[derive(Clone, Debug, PartialEq)]
pub struct NodeTelemetry {
    /// Sender's process (node) rank.
    pub node: u32,
    /// Why this was shipped.
    pub phase: TelemetryPhase,
    /// Send instant on the sender's fabric clock (ns since fabric start);
    /// receivers subtract it from their own receive instant to align the
    /// sender's clock (minimum over many shipments ≈ one-way delay).
    pub sent_at_ns: u64,
    /// Failure cause for [`TelemetryPhase::FlightRecorder`], else empty.
    pub cause: String,
    /// Global 0-based ranks of the images this process hosts.
    pub images: Vec<u32>,
    /// Fabric-wide operation counters at send time.
    pub stats: StatsSnapshot,
    /// Wire/latency/heartbeat probe snapshot.
    pub obs: ObsSnapshot,
    /// Retained trace events (empty for [`TelemetryPhase::Live`] and when
    /// no tracer is installed).
    pub events: Vec<Event>,
}

/// The largest payload one [`Frame::Telemetry`](super::wire::Frame::Telemetry)
/// carries: a frame body's bound less the frame's tag, `node` and payload
/// length.
const MAX_PAYLOAD_BYTES: usize = MAX_FRAME_BYTES - (1 + 4 + 4);

impl NodeTelemetry {
    /// Encode to the versioned binary payload carried by
    /// [`Frame::Telemetry`](super::wire::Frame::Telemetry) and
    /// `CAF_TRACE_DIR` spill files. A shipment always fits one frame: past
    /// that, it keeps the newest events that do.
    pub fn encode(&self) -> Vec<u8> {
        self.encode_within(MAX_PAYLOAD_BYTES)
    }

    /// Encode in at most `budget` bytes (if the fields other than the
    /// events fit), dropping the oldest events — `Tracer::events` sorts
    /// them oldest first — until the rest fit.
    fn encode_within(&self, budget: usize) -> Vec<u8> {
        let mut b = Vec::with_capacity((512 + self.events.len() * Event::MIN_BYTES).min(budget));
        TELEMETRY_MAGIC.put(&mut b);
        self.phase.put(&mut b);
        self.node.put(&mut b);
        self.sent_at_ns.put(&mut b);
        self.cause.put(&mut b);
        self.images.put(&mut b);
        self.stats.put(&mut b);
        self.obs.heartbeat_period_ns.put(&mut b);
        self.obs.peers.put(&mut b);
        self.obs.heartbeats.put(&mut b);
        self.obs.put_ack.put(&mut b);
        let room = budget.saturating_sub(b.len() + 4) / Event::MIN_BYTES;
        let newest = &self.events[self.events.len().saturating_sub(room)..];
        put_items(newest, &mut b);
        b
    }

    /// Decode a payload produced by [`NodeTelemetry::encode`]. Rejects
    /// version mismatches and truncated or oversized payloads.
    pub fn decode(payload: &[u8]) -> io::Result<NodeTelemetry> {
        let mut c = Cursor::new(payload);
        if c.get::<u32>()? != TELEMETRY_MAGIC {
            return Err(invalid("telemetry payload version mismatch"));
        }
        // Fields are read in the order written here, which is wire order.
        let t = NodeTelemetry {
            phase: c.get()?,
            node: c.get()?,
            sent_at_ns: c.get()?,
            cause: c.get()?,
            images: c.get()?,
            stats: c.get()?,
            obs: ObsSnapshot {
                heartbeat_period_ns: c.get()?,
                peers: c.get()?,
                heartbeats: c.get()?,
                put_ack: c.get()?,
            },
            events: c.get()?,
        };
        if !c.done() {
            return Err(invalid("trailing bytes in telemetry payload"));
        }
        Ok(t)
    }

    /// Render the last `per_image` retained events of every image as an
    /// indented block — this node's contribution to a merged fault report.
    /// An untraced node (no events) gets an explicit pointer instead of
    /// silence, so the report still shows *which* nodes answered.
    pub fn render_window(&self, per_image: usize) -> String {
        if self.events.is_empty() {
            return "  (no trace events captured — install a tracer \
                    (`--trace-out`, `Tracer::for_images`) for per-image operation history)\n"
                .to_string();
        }
        let mut out = String::new();
        let mut by_img: std::collections::BTreeMap<u32, Vec<&Event>> =
            std::collections::BTreeMap::new();
        for ev in &self.events {
            by_img.entry(ev.img).or_default().push(ev);
        }
        for (img, evs) in by_img {
            let label = if img == caf_trace::SYSTEM_IMG {
                "system".to_string()
            } else {
                format!("image {img}")
            };
            out.push_str(&format!("  {label} recent events:\n"));
            for ev in evs.iter().rev().take(per_image).rev() {
                out.push_str(&format!("    {}\n", ev.render()));
            }
        }
        out
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use caf_trace::EventKind;

    fn sample() -> NodeTelemetry {
        NodeTelemetry {
            node: 1,
            phase: TelemetryPhase::FlightRecorder,
            sent_at_ns: 123_456_789,
            cause: "peer process 0 is dead".into(),
            images: vec![4, 5, 6, 7],
            stats: StatsSnapshot {
                puts_inter: 42,
                bytes_inter: 9000,
                wire_frames_tx: 100,
                ..StatsSnapshot::default()
            },
            obs: ObsSnapshot {
                heartbeat_period_ns: 100_000_000,
                peers: vec![
                    PeerWireSnapshot {
                        frames_tx: 10,
                        bytes_tx: 640,
                        writes_tx: 4,
                        frames_rx: 9,
                        bytes_rx: 500,
                        retries: 2,
                        reconnects: 1,
                    },
                    PeerWireSnapshot::default(),
                ],
                heartbeats: vec![
                    HeartbeatSnapshot {
                        count: 7,
                        sum_period_ns: 700_000_000,
                        max_abs_dev_ns: 5_000_000,
                    },
                    HeartbeatSnapshot::default(),
                ],
                put_ack: {
                    let mut h = HistSnapshot {
                        count: 3,
                        sum_ns: 7_000,
                        max_ns: 4_096,
                        ..HistSnapshot::default()
                    };
                    h.buckets[10] = 2;
                    h.buckets[12] = 1;
                    h
                },
            },
            events: vec![
                Event::span(EventKind::Put, 10, 5).a(2).b(64),
                Event::instant(EventKind::FlagAdd, 20).a(0),
            ],
        }
    }

    #[test]
    fn telemetry_roundtrips() {
        let t = sample();
        let enc = t.encode();
        let back = NodeTelemetry::decode(&enc).unwrap();
        assert_eq!(back, t);
    }

    /// A shipment over its byte budget keeps the newest events that fit —
    /// the events are oldest first — and every other field whole; the
    /// budget `encode` uses is exactly what one frame's body has left.
    #[test]
    fn a_shipment_over_budget_keeps_its_newest_events() {
        let t = NodeTelemetry {
            events: (0..10)
                .map(|i| Event::instant(EventKind::FlagAdd, 100 * i).a(i))
                .collect(),
            ..sample()
        };
        let whole = t.encode();
        assert_eq!(NodeTelemetry::decode(&whole).unwrap(), t);
        // Room for three events and half of a fourth.
        let budget = whole.len() - 7 * Event::MIN_BYTES + Event::MIN_BYTES / 2;
        let enc = t.encode_within(budget);
        assert!(
            enc.len() <= budget,
            "{} bytes over a budget of {budget}",
            enc.len()
        );
        let back = NodeTelemetry::decode(&enc).unwrap();
        assert_eq!(back.events, t.events[7..], "the newest three");
        let events = t.events.clone();
        assert_eq!(NodeTelemetry { events, ..back }, t);

        let frame = super::super::wire::Frame::Telemetry {
            node: 0,
            payload: Vec::new(),
        };
        assert_eq!(
            frame.encode().len() - 4 + MAX_PAYLOAD_BYTES,
            MAX_FRAME_BYTES
        );
    }

    #[test]
    fn decode_rejects_bad_payloads() {
        assert!(NodeTelemetry::decode(&[]).is_err());
        // Wrong magic.
        let mut enc = sample().encode();
        enc[0] ^= 0xFF;
        assert!(NodeTelemetry::decode(&enc).is_err());
        // Truncation anywhere must error, never panic.
        let enc = sample().encode();
        for cut in [4, 9, 20, enc.len() - 1] {
            assert!(NodeTelemetry::decode(&enc[..cut]).is_err(), "cut at {cut}");
        }
        // Trailing junk.
        let mut enc = sample().encode();
        enc.push(0);
        assert!(NodeTelemetry::decode(&enc).is_err());
    }

    #[test]
    fn hist_percentiles_resolve_to_bucket_bounds() {
        let mut h = HistSnapshot::default();
        // 90 samples in bucket 4 ([16,32) ns), 10 in bucket 10 ([1024,2048)).
        h.buckets[4] = 90;
        h.buckets[10] = 10;
        h.count = 100;
        h.sum_ns = 90 * 20 + 10 * 1500;
        h.max_ns = 2000;
        assert_eq!(h.percentile_ns(50.0), 32);
        assert_eq!(h.percentile_ns(90.0), 32);
        assert_eq!(h.percentile_ns(95.0), 2048);
        assert_eq!(h.percentile_ns(99.0), 2048);
        assert_eq!(HistSnapshot::default().percentile_ns(50.0), 0);
    }

    #[test]
    fn hist_records_into_log2_buckets() {
        let obs = SocketObs::new(2, 1_000_000);
        obs.put_ack(1); // bucket 0
        obs.put_ack(1024); // bucket 10
        obs.put_ack(1025); // bucket 10
        obs.put_ack(u64::MAX); // clamped to the top bucket
        let s = obs.snapshot();
        assert_eq!(s.put_ack.count, 4);
        assert_eq!(s.put_ack.buckets[0], 1);
        assert_eq!(s.put_ack.buckets[10], 2);
        assert_eq!(s.put_ack.buckets[HIST_BUCKETS - 1], 1);
        assert_eq!(s.put_ack.max_ns, u64::MAX);
    }

    #[test]
    fn heartbeat_watch_measures_period_and_jitter() {
        let period = 100u64;
        let obs = SocketObs::new(2, period);
        obs.heartbeat_seen(1, 1000); // first arrival: no period yet
        obs.heartbeat_seen(1, 1100); // period 100, dev 0
        obs.heartbeat_seen(1, 1350); // period 250, dev 150
        let s = obs.snapshot();
        assert_eq!(s.heartbeats[1].count, 2);
        assert_eq!(s.heartbeats[1].mean_period_ns(), 175);
        assert_eq!(s.heartbeats[1].max_abs_dev_ns, 150);
        assert_eq!(s.heartbeats[0], HeartbeatSnapshot::default());
    }

    #[test]
    fn render_window_groups_by_image() {
        let t = sample();
        let w = t.render_window(5);
        assert!(w.contains("image 0 recent events"), "{w}");
        assert!(w.contains("put"), "{w}");
        let empty = NodeTelemetry {
            events: Vec::new(),
            ..sample()
        };
        assert!(empty.render_window(5).contains("no trace events captured"));
    }

    /// The wire format did not move: both encodings of a counter snapshot,
    /// byte for byte as the commit before the counter table produced them.
    #[test]
    fn golden_bytes_of_heartbeat_and_telemetry() {
        fn hex(b: &[u8]) -> String {
            b.iter().map(|x| format!("{x:02x}")).collect()
        }
        let stats = StatsSnapshot::from_words(std::array::from_fn(|i| i as u64 + 1));
        let hb = super::super::wire::Frame::Heartbeat { node: 3, stats };
        let want_hb = [
            "0d0100000a0300000001000000000000000200000000000000030000000000000004000000000000",
            "00050000000000000006000000000000000700000000000000080000000000000009000000000000",
            "000a000000000000000b000000000000000c000000000000000d000000000000000e000000000000",
            "000f0000000000000010000000000000001100000000000000120000000000000013000000000000",
            "00140000000000000015000000000000001600000000000000170000000000000018000000000000",
            "0019000000000000001a000000000000001b000000000000001c000000000000001d000000000000",
            "001e000000000000001f0000000000000020000000000000002100000000000000",
        ];
        assert_eq!(hex(&hb.encode()), want_hb.concat());

        let mut put_ack = HistSnapshot {
            count: 3,
            sum_ns: 7000,
            max_ns: 4096,
            ..HistSnapshot::default()
        };
        put_ack.buckets[10] = 2;
        put_ack.buckets[12] = 1;
        let t = NodeTelemetry {
            node: 1,
            phase: TelemetryPhase::Final,
            sent_at_ns: 0x0102,
            cause: "x".into(),
            images: vec![4, 5],
            stats,
            obs: ObsSnapshot {
                heartbeat_period_ns: 7,
                peers: vec![PeerWireSnapshot::from_words([1, 2, 3, 4, 5, 6, 7])],
                heartbeats: vec![HeartbeatSnapshot {
                    count: 8,
                    sum_period_ns: 9,
                    max_abs_dev_ns: 10,
                }],
                put_ack,
            },
            events: vec![Event::span(EventKind::Put, 10, 5).a(2).b(64)],
        };
        let want_tm = [
            "550bf0ca010100000002010000000000000100000078020000000400000005000000010000000000",
            "00000200000000000000030000000000000004000000000000000500000000000000060000000000",
            "00000700000000000000080000000000000009000000000000000a000000000000000b0000000000",
            "00000c000000000000000d000000000000000e000000000000000f00000000000000100000000000",
            "00001100000000000000120000000000000013000000000000001400000000000000150000000000",
            "000016000000000000001700000000000000180000000000000019000000000000001a0000000000",
            "00001b000000000000001c000000000000001d000000000000001e000000000000001f0000000000",
            "00002000000000000000210000000000000007000000000000000100000001000000000000000200",
            "00000000000003000000000000000400000000000000050000000000000006000000000000000700",
            "00000000000001000000080000000000000009000000000000000a00000000000000030000000000",
            "0000581b000000000000001000000000000000000000000000000000000000000000000000000000",
            "00000000000000000000000000000000000000000000000000000000000000000000000000000000",
            "00000000000000000000000000000000000002000000000000000000000000000000010000000000",
            "00000000000000000000000000000000000000000000000000000000000000000000000000000000",
            "00000000000000000000000000000000000000000000000000000000000000000000000000000000",
            "00000000000000000000000000000000000000000000000000000000000000000000000000000000",
            "00000000000000000000000000000000000000000000000000000000000000000000010000000a00",
            "00000000000005000000000000000100000000000000000000000000000002000000000000004000",
            "00000000000000000000000000000000000000000000",
        ];
        assert_eq!(hex(&t.encode()), want_tm.concat());
        assert_eq!(NodeTelemetry::decode(&t.encode()).unwrap(), t);
    }
}
