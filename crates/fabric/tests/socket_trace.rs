//! Trace capture across a real socket fleet: with a tracer installed the
//! per-image rings fill with the fabric operations each image performed
//! and ship inside the node's telemetry; without one the node still ships
//! its counters, and its window says how to get events.

use caf_fabric::socket::testing::{fleet, run_fleet};
use caf_fabric::{bootstrap, run_spmd, Fabric, SocketConfig, TelemetryPhase};
use caf_fabric::{ThreadConfig, ThreadFabric};
use caf_topology::{presets, ImageMap, Placement, ProcId};
use caf_trace::{EventKind, Tracer};

const BSEG: caf_fabric::SegmentId = bootstrap::SEG;
const FLAG: caf_fabric::FlagId = caf_fabric::FlagId(2);

fn traced_cfg(n_images: usize) -> SocketConfig {
    SocketConfig {
        tracer: Tracer::for_images(n_images),
        ..SocketConfig::default()
    }
}

/// 2 nodes × 2 images, every image puts to and gets from its cross-node
/// partner, so both processes see intra- and inter-node traffic.
fn cross_node_round_trip(cfg: &SocketConfig) -> Vec<std::sync::Arc<caf_fabric::SocketFabric>> {
    let map = ImageMap::new(presets::mini(2, 2), 4, &Placement::Packed);
    let fabrics = fleet(&map, cfg);
    run_fleet(&fabrics, |f, me| {
        let partner = ProcId((me.index() + 2) % 4);
        let payload = [me.index() as u8 + 1; 8];
        f.put(me, partner, BSEG, 64 + me.index() * 8, &payload);
        let mut back = [0u8; 8];
        f.get(me, partner, BSEG, 64 + me.index() * 8, &mut back);
        f.image_done(me);
    });
    fabrics
}

#[test]
fn fleet_round_trip_fills_per_image_rings() {
    let fabrics = cross_node_round_trip(&traced_cfg(4));
    for (rank, f) in fabrics.iter().enumerate() {
        let t = f.tracer();
        assert!(t.enabled(), "an installed tracer must be enabled");
        assert!(
            t.total_recorded() > 0,
            "node {rank} recorded nothing despite tracing"
        );
        let events = t.events();
        // Every hosted image contributed at least its own put + get.
        for img in f.hosted() {
            let mine: Vec<_> = events
                .iter()
                .filter(|e| e.img as usize == img.index())
                .collect();
            assert!(
                mine.iter().any(|e| e.kind == EventKind::Put),
                "image {} has no put in its ring",
                img.index()
            );
            assert!(
                mine.iter().any(|e| e.kind == EventKind::Get),
                "image {} has no get in its ring",
                img.index()
            );
        }
        // The same events ship inside the node's telemetry blob.
        let telemetry = f.node_telemetry(TelemetryPhase::Final, None);
        assert_eq!(telemetry.events.len(), events.len());
        assert!(
            telemetry.render_window(3).contains("recent events"),
            "flight-recorder window must render the captured ring"
        );
    }
    // Untraced, the same fleet records nothing but still ships real
    // counters, and its window says how to get events.
    for f in &cross_node_round_trip(&SocketConfig::default()) {
        assert!(!f.tracer().enabled());
        assert_eq!(f.tracer().total_recorded(), 0);
        let telemetry = f.node_telemetry(TelemetryPhase::Final, None);
        assert!(telemetry.events.is_empty());
        // One host: the cross-process put rides the shm tier where
        // supported and the wire elsewhere.
        assert!(
            telemetry.stats.puts_inter + telemetry.stats.shm_puts >= 1,
            "stats must still count"
        );
        assert!(
            telemetry.render_window(3).contains("install a tracer"),
            "window must say how to get events"
        );
    }
}

/// An image of this process posts a flag and the fabric lands it: the
/// delivery's post time (`c`, what the critical-path walk hops on) is
/// the add's issue time, on a one-process fleet and a threaded run.
#[test]
fn own_process_deliveries_carry_their_adds_issue_time() {
    let map = ImageMap::new(presets::mini(1, 4), 4, &Placement::Packed);
    let program = |f: &dyn Fabric, me: ProcId| {
        let next = ProcId((me.index() + 1) % 4);
        f.flag_add(me, next, FLAG, 1);
        f.put_flag(me, next, BSEG, 8 * me.index(), &[1; 8], FLAG, 1);
        f.flag_wait_ge(me, FLAG, 2);
        f.image_done(me);
    };
    let fleet = fleet(&map, &traced_cfg(4));
    assert_eq!(fleet.len(), 1);
    run_fleet(&fleet, move |f, me| program(&*f, me));
    let cfg = ThreadConfig {
        tracer: Tracer::for_images(4),
        ..ThreadConfig::default()
    };
    let threads = ThreadFabric::new(map, cfg);
    let t = threads.clone();
    run_spmd(threads.clone(), move |me| program(&*t, me));
    for f in [fleet[0].clone(), threads] {
        let events = f.tracer().events();
        // (sender, target, flag, issue time) of every add, and of
        // every delivery.
        let mut adds: Vec<_> = (events.iter())
            .filter(|e| e.kind == EventKind::FlagAdd)
            .map(|e| (e.img as u64, e.a, e.b, e.t_ns))
            .collect();
        let mut landed: Vec<_> = (events.iter())
            .filter(|e| e.kind == EventKind::FlagDeliver)
            .map(|e| (e.a, e.d, e.b, e.c))
            .collect();
        adds.sort_unstable();
        landed.sort_unstable();
        assert_eq!(adds.len(), 8);
        assert_eq!(adds, landed);
    }
}
