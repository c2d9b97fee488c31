//! Live fleet metrics: a registry the supervisor updates from telemetry
//! frames and heartbeat bookkeeping, rendered on demand as Prometheus
//! text exposition (`/metrics`) and a JSON health summary (`/healthz`).
//!
//! Counters are labeled by node (and hierarchy level / direction where it
//! applies) in the `neon` mold: a scrape during a run answers "what is
//! every process doing right now" without attaching a debugger to any of
//! them.

use caf_fabric::{NodeTelemetry, StatsSnapshot};
use parking_lot::Mutex;

/// Liveness of one fleet member as the supervisor sees it.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
enum NodeHealth {
    /// Spawned, no telemetry or exit yet (or actively running).
    Live,
    /// Reported results and exited cleanly.
    Done,
    /// Died or was declared dead.
    Dead,
}

struct NodeState {
    images: Vec<u32>,
    health: NodeHealth,
    telemetry: Option<NodeTelemetry>,
    /// Telemetry frames received from this node.
    updates: u64,
    /// Times the supervisor respawned this node after a death.
    respawns: u64,
}

/// Fleet-wide metrics registry: one row per node, updated by the
/// supervisor, rendered for scrapes. All methods take `&self`; internal
/// state is mutexed so the HTTP server can share it with the supervision
/// loop.
pub struct FleetRegistry {
    nodes: Mutex<Vec<NodeState>>,
}

impl FleetRegistry {
    /// A registry for a fleet whose node `r` hosts `node_images[r]`
    /// (global 0-based image ranks).
    pub fn new(node_images: Vec<Vec<u32>>) -> Self {
        Self {
            nodes: Mutex::new(
                node_images
                    .into_iter()
                    .map(|images| NodeState {
                        images,
                        health: NodeHealth::Live,
                        telemetry: None,
                        updates: 0,
                        respawns: 0,
                    })
                    .collect(),
            ),
        }
    }

    /// Absorb a telemetry shipment from `node`. Out-of-range nodes are
    /// ignored (a corrupt frame must not take the metrics surface down).
    pub fn update(&self, node: usize, telemetry: NodeTelemetry) {
        let mut g = self.nodes.lock();
        if let Some(s) = g.get_mut(node) {
            s.updates += 1;
            s.telemetry = Some(telemetry);
        }
    }

    /// Mark `node` as cleanly finished.
    pub fn mark_done(&self, node: usize) {
        let mut g = self.nodes.lock();
        if let Some(s) = g.get_mut(node) {
            s.health = NodeHealth::Done;
        }
    }

    /// Mark `node` as dead.
    pub fn mark_dead(&self, node: usize) {
        let mut g = self.nodes.lock();
        if let Some(s) = g.get_mut(node) {
            s.health = NodeHealth::Dead;
        }
    }

    /// Mark `node` alive again after the supervisor respawned it — the
    /// death stays visible as a bumped `caf_node_respawns_total`.
    pub fn mark_respawned(&self, node: usize) {
        let mut g = self.nodes.lock();
        if let Some(s) = g.get_mut(node) {
            s.health = NodeHealth::Live;
            s.respawns += 1;
        }
    }

    /// Prometheus text exposition format (version 0.0.4) of the fleet's
    /// current state.
    pub fn render_prometheus(&self) -> String {
        let g = self.nodes.lock();
        let mut out = String::with_capacity(1024 + g.len() * 1024);
        let help = |name: &str, kind: &str, text: &str, out: &mut String| {
            out.push_str(&format!("# HELP {name} {text}\n# TYPE {name} {kind}\n"));
        };

        // What the supervisor itself knows about each member.
        type NodePick = fn(&NodeState) -> u64;
        let supervised: [(&str, &str, &str, NodePick); 4] = [
            (
                "caf_node_up",
                "gauge",
                "1 while the fleet member runs, 0 once done or dead",
                |s| (s.health == NodeHealth::Live) as u64,
            ),
            (
                "caf_node_images",
                "gauge",
                "images hosted by the fleet member",
                |s| s.images.len() as u64,
            ),
            (
                "caf_telemetry_updates_total",
                "counter",
                "telemetry frames received from the fleet member",
                |s| s.updates,
            ),
            (
                "caf_node_respawns_total",
                "counter",
                "times the supervisor respawned the fleet member after a death",
                |s| s.respawns,
            ),
        ];
        for (name, kind, text, pick) in supervised {
            help(name, kind, text, &mut out);
            for (r, s) in g.iter().enumerate() {
                out.push_str(&format!("{name}{{node=\"{r}\"}} {}\n", pick(s)));
            }
        }

        // Every `FabricStats` counter from each node's latest shipment, one
        // family per run of table rows that share a family name.
        let shipped: Vec<(usize, [u64; StatsSnapshot::WORDS])> = g
            .iter()
            .enumerate()
            .filter_map(|(r, s)| Some((r, s.telemetry.as_ref()?.stats.to_words())))
            .collect();
        let mut at = 0;
        for family in StatsSnapshot::FIELDS.chunk_by(|a, b| a.family == b.family) {
            let name = family[0].family;
            let kind = if name.ends_with("_total") {
                "counter"
            } else {
                "gauge"
            };
            help(name, kind, family[0].help, &mut out);
            for (r, words) in &shipped {
                for (c, v) in family.iter().zip(&words[at..]) {
                    let sep = if c.label.is_empty() { "" } else { "," };
                    out.push_str(&format!("{name}{{node=\"{r}\"{sep}{}}} {v}\n", c.label));
                }
            }
            at += family.len();
        }

        help(
            "caf_wire_writes_total",
            "counter",
            "socket writes (frames leave corked: frames / writes is the combining factor)",
            &mut out,
        );
        for (r, s) in g.iter().enumerate() {
            if let Some(t) = &s.telemetry {
                out.push_str(&format!(
                    "caf_wire_writes_total{{node=\"{r}\"}} {}\n",
                    t.obs.peers.iter().map(|p| p.writes_tx).sum::<u64>(),
                ));
            }
        }

        help(
            "caf_put_ack_latency_ns",
            "summary",
            "blocking remote put send-to-ack service time",
            &mut out,
        );
        for (r, s) in g.iter().enumerate() {
            if let Some(t) = &s.telemetry {
                let h = &t.obs.put_ack;
                for (q, p) in [("0.5", 50.0), ("0.95", 95.0), ("0.99", 99.0)] {
                    out.push_str(&format!(
                        "caf_put_ack_latency_ns{{node=\"{r}\",quantile=\"{q}\"}} {}\n",
                        h.percentile_ns(p)
                    ));
                }
                out.push_str(&format!(
                    "caf_put_ack_latency_ns_sum{{node=\"{r}\"}} {}\n\
                     caf_put_ack_latency_ns_count{{node=\"{r}\"}} {}\n",
                    h.sum_ns, h.count
                ));
            }
        }

        help(
            "caf_heartbeat_max_jitter_ns",
            "gauge",
            "largest observed deviation of a peer heartbeat period from the configured one",
            &mut out,
        );
        for (r, s) in g.iter().enumerate() {
            if let Some(t) = &s.telemetry {
                let worst = t
                    .obs
                    .heartbeats
                    .iter()
                    .map(|h| h.max_abs_dev_ns)
                    .max()
                    .unwrap_or(0);
                out.push_str(&format!(
                    "caf_heartbeat_max_jitter_ns{{node=\"{r}\"}} {worst}\n"
                ));
            }
        }
        out
    }

    /// `(healthy, body)` for `/healthz`: healthy while no member is dead;
    /// the JSON body counts members by state.
    pub fn healthz(&self) -> (bool, String) {
        let g = self.nodes.lock();
        let live = g.iter().filter(|s| s.health == NodeHealth::Live).count();
        let done = g.iter().filter(|s| s.health == NodeHealth::Done).count();
        let dead = g.iter().filter(|s| s.health == NodeHealth::Dead).count();
        let healthy = dead == 0;
        (
            healthy,
            format!(
                "{{\"status\": \"{}\", \"nodes\": {}, \"live\": {live}, \
                 \"done\": {done}, \"dead\": {dead}}}\n",
                if healthy { "ok" } else { "degraded" },
                g.len()
            ),
        )
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use caf_fabric::{ObsSnapshot, PeerWireSnapshot, TelemetryPhase};

    fn telemetry(node: u32, puts_inter: u64) -> NodeTelemetry {
        NodeTelemetry {
            node,
            phase: TelemetryPhase::Live,
            sent_at_ns: 0,
            cause: String::new(),
            images: vec![node * 2, node * 2 + 1],
            stats: StatsSnapshot {
                puts_inter,
                wire_bytes_tx: 100 * (node as u64 + 1),
                ams_injected: 40,
                am_batches_flushed: 5,
                am_fused: 12,
                shm_puts: 33,
                shm_bytes: 2112,
                shm_flag_ops: 8,
                ..StatsSnapshot::default()
            },
            obs: ObsSnapshot {
                peers: vec![
                    PeerWireSnapshot {
                        writes_tx: 3 + node as u64,
                        ..PeerWireSnapshot::default()
                    };
                    2
                ],
                ..ObsSnapshot::default()
            },
            events: Vec::new(),
        }
    }

    fn registry() -> FleetRegistry {
        FleetRegistry::new(vec![vec![0, 1], vec![2, 3]])
    }

    #[test]
    fn metrics_expose_counters_for_live_nodes() {
        let reg = registry();
        reg.update(0, telemetry(0, 5));
        reg.update(1, telemetry(1, 9));
        let m = reg.render_prometheus();
        assert!(m.contains("caf_node_up{node=\"0\"} 1"), "{m}");
        assert!(m.contains("caf_node_up{node=\"1\"} 1"), "{m}");
        assert!(
            m.contains("caf_puts_total{node=\"0\",level=\"inter\"} 5"),
            "{m}"
        );
        assert!(
            m.contains("caf_puts_total{node=\"1\",level=\"inter\"} 9"),
            "{m}"
        );
        assert!(
            m.contains("caf_wire_bytes_total{node=\"1\",dir=\"tx\"} 200"),
            "{m}"
        );
        assert!(m.contains("caf_wire_writes_total{node=\"1\"} 8"), "{m}");
        assert!(m.contains("# TYPE caf_node_up gauge"), "{m}");
        assert!(m.contains("caf_ams_total{node=\"0\"} 40"), "{m}");
        assert!(m.contains("caf_am_batches_total{node=\"1\"} 5"), "{m}");
        assert!(m.contains("caf_am_fused_total{node=\"0\"} 12"), "{m}");
        assert!(m.contains("caf_shm_puts_total{node=\"0\"} 33"), "{m}");
        assert!(m.contains("caf_shm_bytes_total{node=\"1\"} 2112"), "{m}");
        assert!(m.contains("caf_shm_flag_ops_total{node=\"0\"} 8"), "{m}");
        // Out-of-range update must be dropped, not panic.
        reg.update(7, telemetry(7, 1));
    }

    #[test]
    fn health_degrades_on_death() {
        let reg = registry();
        let (ok, body) = reg.healthz();
        assert!(ok);
        assert!(body.contains("\"live\": 2"), "{body}");
        reg.mark_done(0);
        reg.mark_dead(1);
        let (ok, body) = reg.healthz();
        assert!(!ok);
        assert!(body.contains("\"degraded\""), "{body}");
        assert!(body.contains("\"dead\": 1"), "{body}");
        let m = reg.render_prometheus();
        assert!(m.contains("caf_node_up{node=\"0\"} 0"), "{m}");
        assert!(m.contains("caf_node_up{node=\"1\"} 0"), "{m}");
    }

    #[test]
    fn respawn_revives_node_and_counts() {
        let reg = registry();
        reg.mark_dead(1);
        assert!(!reg.healthz().0);
        reg.mark_respawned(1);
        let (ok, body) = reg.healthz();
        assert!(ok, "respawned node counts as live again: {body}");
        let m = reg.render_prometheus();
        assert!(m.contains("caf_node_up{node=\"1\"} 1"), "{m}");
        assert!(m.contains("caf_node_respawns_total{node=\"1\"} 1"), "{m}");
        assert!(m.contains("caf_node_respawns_total{node=\"0\"} 0"), "{m}");
    }

    #[test]
    fn nodes_without_telemetry_render_liveness_only() {
        let reg = registry();
        let m = reg.render_prometheus();
        assert!(m.contains("caf_node_up{node=\"0\"} 1"));
        assert!(!m.contains("caf_puts_total{node="), "{m}");
    }
}
