//! In-process fleet helpers for tests and benches: build N `SocketFabric`s
//! (one per occupied node) inside one OS process, talking over real
//! sockets, with an inline coordinator.

use super::wire::{write_frame, Frame, FrameReader, Listener, WIRE_MAGIC};
use super::{SocketConfig, SocketFabric};
use crate::Fabric;
use caf_topology::{ImageMap, NodeId, ProcId};
use std::sync::Arc;

fn occupied_nodes(map: &ImageMap) -> usize {
    (0..map.machine().nodes)
        .filter(|n| !map.images_on_node(NodeId(*n)).is_empty())
        .count()
}

/// Stand up a full fleet in-process: an inline coordinator plus one
/// [`SocketFabric::join`] per occupied node of `map`. Returns the
/// fabrics in process-rank order (coordinator connections are dropped —
/// tests don't report results).
pub fn fleet(map: &ImageMap, cfg: &SocketConfig) -> Vec<Arc<SocketFabric>> {
    fleet_with(map, &vec![cfg.clone(); occupied_nodes(map)])
}

/// [`fleet`] with one [`SocketConfig`] per process rank — the way to
/// build a *mixed* fleet where some processes advertise a shared
/// segment and others stay pure-wire, so some ordered pairs run over
/// the shm tier and others over frames in the very same run.
pub fn fleet_with(map: &ImageMap, cfgs: &[SocketConfig]) -> Vec<Arc<SocketFabric>> {
    let n_procs = occupied_nodes(map);
    assert_eq!(
        cfgs.len(),
        n_procs,
        "fleet_with needs exactly one config per occupied node"
    );
    let listener = Listener::bind(cfgs[0].transport).expect("bind coordinator");
    let coord_addr = listener.local_addr().expect("coordinator addr");
    let coord = std::thread::spawn(move || {
        let mut conns = Vec::new();
        let mut addrs = vec![String::new(); n_procs];
        for _ in 0..n_procs {
            let s = listener.accept().expect("coordinator accept");
            let mut r = FrameReader::new(s.try_clone().expect("clone"));
            match r.next_frame().expect("coordinator read") {
                (Frame::Hello { node, addr, magic }, _) => {
                    assert_eq!(magic, WIRE_MAGIC);
                    addrs[node as usize] = addr;
                    conns.push(s);
                }
                (other, _) => panic!("expected Hello, got {other:?}"),
            }
        }
        for mut s in conns {
            write_frame(
                &mut s,
                &Frame::Peers {
                    addrs: addrs.clone(),
                },
            )
            .expect("coordinator send peers");
        }
    });
    let joins: Vec<_> = (0..n_procs)
        .map(|rank| {
            let map = map.clone();
            let cfg = cfgs[rank].clone();
            let coord_addr = coord_addr.clone();
            std::thread::spawn(move || {
                SocketFabric::join(map, rank, &coord_addr, cfg)
                    .expect("join fleet")
                    .0
            })
        })
        .collect();
    let fabrics: Vec<_> = joins.into_iter().map(|j| j.join().expect("join")).collect();
    coord.join().expect("coordinator");
    fabrics
}

/// Run `body` as one thread per hosted image on every fabric of the
/// fleet, join them all, shut the fleet down, and re-raise the first
/// image panic (after poisoning, so no survivor hangs).
pub fn run_fleet<F>(fabrics: &[Arc<SocketFabric>], body: F)
where
    F: Fn(Arc<SocketFabric>, ProcId) + Send + Sync + 'static,
{
    let body = Arc::new(body);
    let mut handles = Vec::new();
    for f in fabrics {
        for img in f.hosted().to_vec() {
            let f = f.clone();
            let body = body.clone();
            handles.push(
                std::thread::Builder::new()
                    .name(format!("caf-img-{}", img.index()))
                    .spawn(move || body(f, img))
                    .expect("spawn image"),
            );
        }
    }
    let mut first_panic = None;
    for h in handles {
        if let Err(p) = h.join() {
            if first_panic.is_none() {
                for f in fabrics {
                    f.poison("an image thread panicked");
                }
                first_panic = Some(p);
            }
        }
    }
    for f in fabrics {
        f.shutdown();
    }
    if let Some(p) = first_panic {
        std::panic::resume_unwind(p);
    }
}
