//! The wall-clock workloads' common ground: a two-node in-process
//! SocketFabric fleet (one image per node, so exactly `nproc` = 2 image
//! threads carry the load), its tier guard, and the seeded payloads.

use caf_fabric::socket::testing::fleet;
use caf_fabric::{ArcFabric, Fabric, SocketConfig, SocketFabric, StatsSnapshot};
use caf_topology::{presets, ImageMap, Placement, ProcId};
use std::sync::Arc;
use std::time::{Duration, Instant};

/// Which path the fleet's cross-image traffic takes.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum Tier {
    /// `shm: false`: every byte crosses the UDS loopback wire.
    Wire,
    /// Shared-memory intranode tier: puts are memcpy + release-store.
    Shm,
}

impl Tier {
    pub fn label(self) -> &'static str {
        match self {
            Tier::Wire => "wire",
            Tier::Shm => "shm",
        }
    }
}

pub const SENDER: ProcId = ProcId(0);
pub const RECEIVER: ProcId = ProcId(1);

/// A stood-up fleet plus how long standing it up took.
pub struct Fleet {
    pub fabrics: Vec<Arc<SocketFabric>>,
    pub join_s: f64,
    pub tier: Tier,
}

/// Two images on two nodes. The arena is sized explicitly: the default
/// 16 MiB per image is exactly one image's share of the N=2048 matrix, so
/// a window could spill to the wire without anyone noticing. Sized here,
/// every segment a workload allocates fits, and [`Fleet::check_tier`]
/// proves it did.
pub fn two_node_fleet(tier: Tier, shm_bytes_per_image: usize) -> Fleet {
    let t0 = Instant::now();
    let map = ImageMap::new(presets::mini(2, 1), 2, &Placement::Packed);
    let cfg = SocketConfig {
        io_timeout: Duration::from_secs(30),
        flag_wait_timeout: Duration::from_secs(60),
        shm: tier == Tier::Shm,
        shm_bytes_per_image,
        ..SocketConfig::default()
    };
    let fabrics = fleet(&map, &cfg);
    assert_eq!(fabrics.len(), 2, "one process-worth of fabric per node");
    Fleet {
        fabrics,
        join_s: t0.elapsed().as_secs_f64(),
        tier,
    }
}

/// Stand a fleet up: rendezvous, shm create/map, then `setup` on both
/// images (segment allocation, first barrier) — one `setup_s` sample.
pub fn stand_up(
    tier: Tier,
    shm_bytes_per_image: usize,
    setup_s: &mut Vec<f64>,
    setup: impl Fn(&ArcFabric, ProcId) + Sync,
) -> Fleet {
    let t0 = Instant::now();
    let fleet = two_node_fleet(tier, shm_bytes_per_image);
    fleet.run_images(|f, me| setup(&f, me));
    setup_s.push(t0.elapsed().as_secs_f64());
    fleet
}

/// `times` further stand-ups, each torn down again: more `setup_s`
/// samples. A cycle takes about 0.1 s, nearly all of it the service
/// threads noticing the shutdown flag.
pub fn spare_stand_ups(
    tier: Tier,
    shm_bytes_per_image: usize,
    times: usize,
    setup_s: &mut Vec<f64>,
    setup: impl Fn(&ArcFabric, ProcId) + Sync,
) {
    for _ in 0..times {
        Fleet::shutdown(stand_up(tier, shm_bytes_per_image, setup_s, &setup));
    }
}

impl Fleet {
    /// The fabric hosting image `img`, as the trait object programs take.
    pub fn fabric_of(&self, img: ProcId) -> ArcFabric {
        self.fabrics[img.index()].clone()
    }

    pub fn stats_of(&self, img: ProcId) -> StatsSnapshot {
        self.fabrics[img.index()].stats().snapshot()
    }

    /// Run `body` once per image, each on its own thread against its own
    /// node's fabric. A panicking image poisons the fleet so its peer
    /// fails fast instead of waiting out a timeout; the panic is re-raised.
    pub fn run_images<R: Send>(&self, body: impl Fn(ArcFabric, ProcId) -> R + Sync) -> Vec<R> {
        std::thread::scope(|s| {
            let handles: Vec<_> = [SENDER, RECEIVER]
                .into_iter()
                .map(|img| {
                    let body = &body;
                    std::thread::Builder::new()
                        .name(format!("bench-img-{}", img.index()))
                        .spawn_scoped(s, move || {
                            let f = self.fabric_of(img);
                            let out =
                                std::panic::catch_unwind(std::panic::AssertUnwindSafe(|| {
                                    body(f.clone(), img)
                                }));
                            if out.is_err() {
                                f.poison(&format!("benchmark image {} panicked", img.index()));
                            }
                            out
                        })
                        .expect("spawn image thread")
                })
                .collect();
            let results: Vec<_> = handles
                .into_iter()
                .map(|h| h.join().expect("image thread join"))
                .collect();
            results
                .into_iter()
                .map(|r| r.unwrap_or_else(|p| std::panic::resume_unwind(p)))
                .collect()
        })
    }

    /// Tier guard: over `delta` (one node's counters across a phase), the
    /// share of puts and flag updates that went through shared memory
    /// must be exactly 1 on a shm fleet and exactly 0 on a wire fleet — a
    /// window or flag that spilled past the shared arena or directory
    /// would otherwise move traffic to the wire without a sound. Returns
    /// the share; `Err` names the leak.
    pub fn check_tier(&self, delta: &StatsSnapshot) -> Result<f64, String> {
        let shm = delta.shm_puts + delta.shm_flag_ops;
        let wire = delta.puts_inter + delta.puts_intra + delta.flags_inter + delta.flags_intra;
        let want = match self.tier {
            Tier::Shm => 1.0,
            Tier::Wire => 0.0,
        };
        let share = if shm + wire == 0 {
            want
        } else {
            shm as f64 / (shm + wire) as f64
        };
        if share == want {
            Ok(share)
        } else {
            Err(format!(
                "{} fleet carried {shm} puts and flag updates over shm and {wire} over the \
                 wire (shm share {share}, must be exactly {want})",
                self.tier.label(),
            ))
        }
    }

    /// Orderly teardown: every image says goodbye (so no peer reads the
    /// closing connections as a death), then the service threads stop. The
    /// owners unlink their shared segments on drop.
    pub fn shutdown(self) {
        for f in &self.fabrics {
            for img in f.hosted() {
                f.image_done(*img);
            }
        }
        for f in &self.fabrics {
            f.shutdown();
        }
    }
}

/// SplitMix64: the payload generator. Message `i` of seed `s` carries
/// `mix(s, i)`, so the receiver can check any message without a copy of
/// what was sent.
pub fn mix(seed: u64, i: u64) -> u64 {
    let mut z = seed
        .wrapping_add(i.wrapping_mul(0x9E37_79B9_7F4A_7C15))
        .wrapping_add(0x9E37_79B9_7F4A_7C15);
    z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
    z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
    z ^ (z >> 31)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn mix_depends_on_seed_and_index() {
        assert_eq!(mix(1, 2), mix(1, 2));
        assert_ne!(mix(1, 2), mix(1, 3));
        assert_ne!(mix(1, 2), mix(2, 2));
    }
}
