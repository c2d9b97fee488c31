//! In-process fleet helpers for tests and benches: build N `SocketFabric`s
//! (one per occupied node) inside one OS process, talking over real
//! sockets, with an inline coordinator.

use super::rendezvous::Coordinator;
use super::{SocketConfig, SocketFabric};
use crate::Fabric;
use caf_topology::{ImageMap, ProcId};
use std::sync::Arc;

/// Stand up a full fleet in-process: an inline coordinator plus one
/// [`SocketFabric::join`] per occupied node of `map`. Returns the
/// fabrics in process-rank order (coordinator connections are dropped —
/// tests don't report results).
pub fn fleet(map: &ImageMap, cfg: &SocketConfig) -> Vec<Arc<SocketFabric>> {
    fleet_with(map, &vec![cfg.clone(); map.occupied_nodes()])
}

/// [`fleet`] with one [`SocketConfig`] per process rank — the way to
/// build a *mixed* fleet where some processes advertise a shared
/// segment and others stay pure-wire, so some ordered pairs run over
/// the shm tier and others over frames in the very same run.
pub fn fleet_with(map: &ImageMap, cfgs: &[SocketConfig]) -> Vec<Arc<SocketFabric>> {
    assert_eq!(
        cfgs.len(),
        map.occupied_nodes(),
        "fleet_with needs exactly one config per occupied node"
    );
    let mut coord = Coordinator::bind(cfgs[0].transport, cfgs.len()).expect("bind coordinator");
    let at = coord.addr().clone();
    std::thread::scope(|s| {
        let joins: Vec<_> = cfgs
            .iter()
            .enumerate()
            .map(|(rank, cfg)| {
                let at = &at;
                s.spawn(move || {
                    SocketFabric::join(map.clone(), rank, at, cfg.clone())
                        .expect("join fleet")
                        .0
                })
            })
            .collect();
        // Yield, not sleep: fleet bring-up is a measured quantity.
        let wait = || {
            std::thread::yield_now();
            Ok(())
        };
        coord.admit(cfgs[0].io_timeout, wait).expect("rendezvous");
        joins.into_iter().map(|j| j.join().expect("join")).collect()
    })
}

/// Run `body` as one thread per hosted image on every fabric of the
/// fleet, join them all, shut the fleet down, and re-raise the first
/// image panic. An image that panics poisons **every** fabric of the
/// fleet on the spot (`SocketFabric::poison` is process-local, and here
/// the whole fleet is one process), so no survivor waits out a timeout.
pub fn run_fleet<F>(fabrics: &[Arc<SocketFabric>], body: F)
where
    F: Fn(Arc<SocketFabric>, ProcId) + Send + Sync + 'static,
{
    let mut images = Vec::new();
    let mut rank_of = vec![0; fabrics[0].n_images()];
    for (rank, f) in fabrics.iter().enumerate() {
        for img in f.hosted() {
            rank_of[img.index()] = rank;
            images.push(*img);
        }
    }
    let run = crate::run_images(
        &images,
        0,
        |why| fabrics.iter().for_each(|f| f.poison(why)),
        |_| false,
        |img| body(fabrics[rank_of[img.index()]].clone(), img),
    );
    for f in fabrics {
        f.shutdown();
    }
    if let Err(msg) = run {
        panic!("{msg}");
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::seg::FlagId;
    use caf_topology::{presets, Placement};
    use std::time::{Duration, Instant};

    /// Image 1 panics at once while image 0 — joined first — waits on a
    /// flag nobody bumps: the fleet must come back with image 1's message
    /// by poison, not with image 0's timeout after `flag_wait_timeout`.
    #[test]
    fn run_fleet_reports_the_panic_not_the_waiters_timeout() {
        let map = ImageMap::new(presets::mini(2, 1), 2, &Placement::Packed);
        let cfg = SocketConfig {
            flag_wait_timeout: Duration::from_secs(6),
            ..SocketConfig::default()
        };
        let fabrics = fleet(&map, &cfg);
        let t0 = Instant::now();
        let err = std::panic::catch_unwind(std::panic::AssertUnwindSafe(|| {
            run_fleet(&fabrics, |f, me| {
                if me == ProcId(1) {
                    panic!("MARKER-7f3a: image 1's own failure");
                }
                f.flag_wait_ge(me, FlagId(2), 1);
            })
        }))
        .expect_err("image 1 panicked");
        let took = t0.elapsed();
        let msg = crate::panic_message(err.as_ref());
        assert!(msg.contains("MARKER-7f3a"), "the real cause is lost: {msg}");
        assert!(took < Duration::from_secs(2), "took {took:?}");
    }
}
