//! Litmus tests for the `put_nb` fencing edge cases: the small programs
//! whose orderings the nonblocking data path must get right, each pinned
//! down on both fabrics where meaningful, plus the
//! injected == completed stats invariants — including under chaos fault
//! injection (delayed/duplicated completions).

use caf_fabric::socket::testing::{fleet, fleet_with, run_fleet};
use caf_fabric::{
    bootstrap, ChaosConfig, Fabric, PutToken, SimConfig, SimFabric, SocketConfig, ThreadConfig,
    ThreadFabric,
};
use caf_fabric::{run_spmd, FlagId};
use caf_topology::{presets, ImageMap, Placement, ProcId, SoftwareOverheads};
use std::sync::{Arc, Mutex};
use std::time::{Duration, Instant};

const SPARE_FLAG: FlagId = FlagId(2);
const BSEG: caf_fabric::SegmentId = bootstrap::SEG;

fn sim(nodes: usize, cores: usize, images: usize, chaos: Option<ChaosConfig>) -> Arc<SimFabric> {
    let map = ImageMap::new(presets::mini(nodes, cores), images, &Placement::Packed);
    SimFabric::new(
        map,
        SimConfig {
            cost: presets::whale_cost(),
            overheads: SoftwareOverheads::NONE,
            chaos,
            ..SimConfig::default()
        },
    )
}

#[test]
fn quiet_with_zero_outstanding_puts_is_a_no_op() {
    let f = sim(2, 1, 2, None);
    let me = ProcId(0);
    let t = f.now_ns(me);
    f.quiet(me); // nothing in flight: must not advance time
    assert_eq!(f.now_ns(me), t);
    // ...and must still be a no-op after a put has been fully drained.
    f.put(me, ProcId(1), BSEG, 0, &[1u8; 8]);
    f.quiet(me);
    let after_drain = f.now_ns(me);
    f.quiet(me);
    assert_eq!(f.now_ns(me), after_drain);
    f.image_done(me);
    f.image_done(ProcId(1));
}

#[test]
fn put_test_polled_before_completion_spins_then_succeeds() {
    let f = sim(2, 1, 2, None);
    let f2 = f.clone();
    run_spmd(f.clone(), move |me| {
        if me == ProcId(0) {
            let tok = f2.put_nb(me, ProcId(1), BSEG, 0, &[5u8; 8]);
            // Poll to completion: each failed test costs one poll, so the
            // loop terminates in bounded virtual time and the number of
            // polls is itself deterministic.
            let mut polls = 0u64;
            while !f2.put_test(me, tok) {
                polls += 1;
                assert!(polls < 1_000_000, "put_test never completed");
            }
            assert!(polls > 0, "an inter-node put cannot complete instantly");
            assert!(f2.now_ns(me) >= tok.arrival_ns);
            // A completed token stays completed.
            assert!(f2.put_test(me, tok));
        }
        f2.image_done(me);
    });
    let s = f.stats().snapshot();
    assert_eq!(s.puts_nb_injected, 1);
    assert_eq!(s.puts_nb_completed, 1);
}

#[test]
fn interleaved_put_and_put_nb_to_the_same_slot_keep_program_order() {
    // Blocking and nonblocking puts to the same remote slot from one
    // image: payloads are applied in program order (the fabric's
    // point-to-point ordering), so after a fence + flag handshake the
    // reader sees the *last* write, on both fabrics.
    let check = |fabric: caf_fabric::ArcFabric| {
        let f2 = fabric.clone();
        run_spmd(fabric, move |me| {
            if me == ProcId(0) {
                f2.put(me, ProcId(1), BSEG, 0, &10u64.to_ne_bytes());
                let t1 = f2.put_nb(me, ProcId(1), BSEG, 0, &20u64.to_ne_bytes());
                f2.put(me, ProcId(1), BSEG, 0, &30u64.to_ne_bytes());
                let t2 = f2.put_nb(me, ProcId(1), BSEG, 0, &40u64.to_ne_bytes());
                f2.put_wait(me, t1);
                f2.put_wait(me, t2);
                f2.quiet(me);
                f2.flag_add(me, ProcId(1), SPARE_FLAG, 1);
            } else {
                f2.flag_wait_ge(me, SPARE_FLAG, 1);
                let mut out = [0u8; 8];
                f2.get(me, me, BSEG, 0, &mut out);
                assert_eq!(u64::from_ne_bytes(out), 40, "must see the last write");
            }
            f2.image_done(me);
        });
    };
    check(sim(2, 1, 2, None));
    let map = ImageMap::new(presets::mini(2, 1), 2, &Placement::Packed);
    check(ThreadFabric::new(map, ThreadConfig::default()));
}

#[test]
fn stats_injected_equals_completed_after_every_fence() {
    let f = sim(2, 2, 4, None);
    let f2 = f.clone();
    run_spmd(f.clone(), move |me| {
        if me.index() < 3 {
            let mut tok = PutToken::DONE;
            for k in 0..5usize {
                tok = f2.put_nb(me, ProcId(3), BSEG, 8 * me.index(), &[k as u8; 8]);
            }
            f2.put_wait(me, tok);
            f2.quiet(me);
            f2.flag_add(me, ProcId(3), SPARE_FLAG, 1);
        } else {
            f2.flag_wait_ge(me, SPARE_FLAG, 3);
        }
        f2.image_done(me);
    });
    let s = f.stats().snapshot();
    assert_eq!(s.puts_nb_injected, 15);
    assert_eq!(
        s.puts_nb_completed, s.puts_nb_injected,
        "every injected nonblocking put must complete by run end"
    );
}

#[test]
fn stats_invariant_holds_under_completion_faults() {
    // Delayed + duplicated completions must not double-count: the
    // duplicate landing is stats-neutral, so injected == completed still
    // holds at quiescence for every seed.
    for seed in 0..8 {
        let chaos = ChaosConfig {
            completion_delay_ns: 7_000,
            duplicate_completions: true,
            ..ChaosConfig::from_seed(seed)
        };
        let f = sim(2, 2, 4, Some(chaos));
        let f2 = f.clone();
        run_spmd(f.clone(), move |me| {
            if me.index() > 0 {
                let tok = f2.put_nb(me, ProcId(0), BSEG, 8 * me.index(), &[7u8; 8]);
                f2.put_wait(me, tok);
                f2.flag_add(me, ProcId(0), SPARE_FLAG, 1);
            } else {
                f2.flag_wait_ge(me, SPARE_FLAG, 3);
            }
            f2.image_done(me);
        });
        let s = f.stats().snapshot();
        assert_eq!(s.puts_nb_injected, s.puts_nb_completed, "seed {seed}");
    }
}

#[test]
fn chaos_delays_put_nb_completion_but_not_correctness() {
    // With a completion delay the token's arrival estimate moves out, so
    // put_wait covers the injected delay; the payload is still the one
    // the flag handshake published.
    let delay = 9_000;
    let f = sim(
        2,
        1,
        2,
        Some(ChaosConfig {
            completion_delay_ns: delay,
            ..ChaosConfig::off(3)
        }),
    );
    let f2 = f.clone();
    run_spmd(f.clone(), move |me| {
        if me == ProcId(0) {
            let before = f2.now_ns(me);
            let tok = f2.put_nb(me, ProcId(1), BSEG, 0, &77u64.to_ne_bytes());
            assert!(tok.arrival_ns >= before + delay, "delay must push arrival");
            f2.put_wait(me, tok);
            assert!(f2.now_ns(me) >= before + delay);
            f2.flag_add(me, ProcId(1), SPARE_FLAG, 1);
        } else {
            f2.flag_wait_ge(me, SPARE_FLAG, 1);
            let mut out = [0u8; 8];
            f2.get(me, me, BSEG, 0, &mut out);
            assert_eq!(u64::from_ne_bytes(out), 77);
        }
        f2.image_done(me);
    });
}

// ---------------------------------------------------------------------------
// SocketFabric ports: the same litmus programs, but with the initiator and
// target in *separate fabric instances* joined over real sockets. With the
// default config the pair exchanges through the zero-copy shared-memory
// tier; the mixed-trio fleets below pin the same contracts on the shm tier
// and the wire ack protocol in one run.
// ---------------------------------------------------------------------------

fn socket_cfg() -> SocketConfig {
    SocketConfig {
        io_timeout: Duration::from_secs(10),
        flag_wait_timeout: Duration::from_secs(10),
        ..SocketConfig::default()
    }
}

fn socket_pair() -> Vec<Arc<caf_fabric::SocketFabric>> {
    let map = ImageMap::new(presets::mini(2, 1), 2, &Placement::Packed);
    fleet(&map, &socket_cfg())
}

/// A three-process fleet with a deliberately mixed transport: ranks 0 and
/// 1 advertise shared segments (their pair runs over the shm tier where
/// supported), rank 2 runs with the tier disabled (`CAF_SOCKET_SHM=0`
/// semantics), so every pair touching it pays the full frame + ack
/// protocol. One program can then pin an ordering contract on both tiers
/// in the same run.
fn mixed_trio() -> Vec<Arc<caf_fabric::SocketFabric>> {
    let map = ImageMap::new(presets::mini(3, 1), 3, &Placement::Packed);
    let shm = socket_cfg();
    let wire = SocketConfig {
        shm: false,
        ..socket_cfg()
    };
    fleet_with(&map, &[shm.clone(), shm, wire])
}

#[test]
fn socket_quiet_with_zero_outstanding_puts_is_a_no_op() {
    let fabrics = socket_pair();
    run_fleet(&fabrics, |f, me| {
        if me == ProcId(0) {
            f.quiet(me); // nothing in flight: must return immediately
            f.put(me, ProcId(1), BSEG, 0, &[1u8; 8]);
            f.quiet(me); // blocking put is already acked: still a no-op
            f.quiet(me);
        }
        f.image_done(me);
    });
}

#[test]
fn socket_put_test_polled_before_completion_eventually_succeeds() {
    let fabrics = socket_pair();
    let initiator = fabrics[0].clone();
    run_fleet(&fabrics, |f, me| {
        if me == ProcId(0) {
            let tok = f.put_nb(me, ProcId(1), BSEG, 0, &[5u8; 8]);
            let mut polls = 0u64;
            while !f.put_test(me, tok) {
                polls += 1;
                assert!(polls < 100_000_000, "put_test never completed");
                std::hint::spin_loop();
            }
            // A completed token stays completed.
            assert!(f.put_test(me, tok));
            f.quiet(me);
        }
        f.image_done(me);
    });
    let s = initiator.stats().snapshot();
    assert_eq!(s.puts_nb_injected, 1);
    assert_eq!(s.puts_nb_completed, 1);
}

#[test]
fn socket_interleaved_put_and_put_nb_keep_program_order() {
    // The core ordering litmus over the wire: one egress connection per
    // ordered pair applies payloads in program order, so after the fence +
    // flag handshake the reader must see the *last* write.
    let fabrics = socket_pair();
    run_fleet(&fabrics, |f, me| {
        if me == ProcId(0) {
            f.put(me, ProcId(1), BSEG, 0, &10u64.to_ne_bytes());
            let t1 = f.put_nb(me, ProcId(1), BSEG, 0, &20u64.to_ne_bytes());
            f.put(me, ProcId(1), BSEG, 0, &30u64.to_ne_bytes());
            let t2 = f.put_nb(me, ProcId(1), BSEG, 0, &40u64.to_ne_bytes());
            f.put_wait(me, t1);
            f.put_wait(me, t2);
            f.quiet(me);
            f.flag_add(me, ProcId(1), SPARE_FLAG, 1);
        } else {
            f.flag_wait_ge(me, SPARE_FLAG, 1);
            let mut out = [0u8; 8];
            f.get(me, me, BSEG, 0, &mut out);
            assert_eq!(u64::from_ne_bytes(out), 40, "must see the last write");
        }
        f.image_done(me);
    });
}

#[test]
fn socket_stats_injected_equals_completed_after_every_fence() {
    let map = ImageMap::new(presets::mini(2, 2), 4, &Placement::Packed);
    let fabrics = fleet(&map, &socket_cfg());
    let stats_fabrics = fabrics.clone();
    run_fleet(&fabrics, |f, me| {
        if me.index() < 3 {
            let mut tok = PutToken::DONE;
            for k in 0..5usize {
                tok = f.put_nb(me, ProcId(3), BSEG, 8 * me.index(), &[k as u8; 8]);
            }
            f.put_wait(me, tok);
            f.quiet(me);
            f.flag_add(me, ProcId(3), SPARE_FLAG, 1);
        } else {
            f.flag_wait_ge(me, SPARE_FLAG, 3);
        }
        f.image_done(me);
    });
    // Per-process stats: sum injections and completions across the fleet.
    let (injected, completed) = stats_fabrics
        .iter()
        .map(|f| {
            let s = f.stats().snapshot();
            (s.puts_nb_injected, s.puts_nb_completed)
        })
        .fold((0, 0), |(i, c), (fi, fc)| (i + fi, c + fc));
    assert_eq!(injected, 15);
    assert_eq!(
        completed, injected,
        "every injected nonblocking put must be acked by run end"
    );
}

/// An ack stands for every request before it, so the target answers a
/// burst of puts with one frame: 1 000 unsignalled `put_nb` and a `quiet`
/// bring the sender at most 100 response frames. A `put_nb` alone never
/// flushes before the cork is full, so the puts arrive in a handful of
/// bursts, and the bound does not depend on timing.
#[test]
fn socket_put_nb_stream_is_acked_once_per_burst() {
    const PUTS: u64 = 1000;
    let map = ImageMap::new(presets::mini(2, 1), 2, &Placement::Packed);
    let cfg = SocketConfig {
        shm: false,
        ..socket_cfg()
    };
    let fabrics = fleet(&map, &cfg);
    let seen = Arc::new(Mutex::new(None));
    let into = seen.clone();
    run_fleet(&fabrics, move |f, me| {
        if me == ProcId(0) {
            let before = f.stats().snapshot();
            for k in 0..PUTS {
                f.put_nb(me, ProcId(1), BSEG, 0, &k.to_ne_bytes());
            }
            f.quiet(me);
            *into.lock().unwrap() = Some(f.stats().snapshot() - before);
        }
        f.image_done(me);
    });
    let d = seen.lock().unwrap().take().expect("image 0 measured");
    assert_eq!((d.puts_nb_injected, d.puts_nb_completed), (PUTS, PUTS));
    assert!(
        d.wire_frames_rx <= 100,
        "{} response frames for {PUTS} puts",
        d.wire_frames_rx
    );
}

#[test]
fn mixed_fleet_interleaved_puts_keep_program_order_on_both_tiers() {
    // The core ordering litmus, once per transport tier in one fleet:
    // image 0 runs the blocking/nonblocking interleave against image 1
    // (shared-memory pair) and image 2 (wire pair); both readers must see
    // the *last* write after the fence + flag handshake.
    let fabrics = mixed_trio();
    let initiator = fabrics[0].clone();
    run_fleet(&fabrics, |f, me| {
        if me == ProcId(0) {
            for peer in [ProcId(1), ProcId(2)] {
                f.put(me, peer, BSEG, 0, &10u64.to_ne_bytes());
                let t1 = f.put_nb(me, peer, BSEG, 0, &20u64.to_ne_bytes());
                f.put(me, peer, BSEG, 0, &30u64.to_ne_bytes());
                let t2 = f.put_nb(me, peer, BSEG, 0, &40u64.to_ne_bytes());
                f.put_wait(me, t1);
                f.put_wait(me, t2);
                f.quiet(me);
                f.flag_add(me, peer, SPARE_FLAG, 1);
            }
        } else {
            f.flag_wait_ge(me, SPARE_FLAG, 1);
            let mut out = [0u8; 8];
            f.get(me, me, BSEG, 0, &mut out);
            assert_eq!(
                u64::from_ne_bytes(out),
                40,
                "image {} must see the last write",
                me.index() + 1
            );
        }
        f.image_done(me);
    });
    // The fleet must actually have been mixed: the wire leg shipped puts
    // inter-process and (where the tier exists) the shm leg moved its
    // bytes without any frames.
    let s0 = initiator.stats().snapshot();
    assert!(s0.puts_inter >= 2, "wire leg must ship puts: {s0:?}");
    if cfg!(unix) {
        assert!(s0.shm_puts >= 2, "shm leg must land puts: {s0:?}");
    }
}

#[test]
fn mixed_fleet_put_test_and_stats_cover_both_tiers() {
    // put_nb against each tier: the wire token retires through the ack
    // ledger (polling spins until the ack lands), the shm token is
    // complete at injection — and the injected == completed invariant
    // must hold over the union.
    let fabrics = mixed_trio();
    let initiator = fabrics[0].clone();
    run_fleet(&fabrics, |f, me| {
        if me == ProcId(0) {
            for peer in [ProcId(1), ProcId(2)] {
                let tok = f.put_nb(me, peer, BSEG, 0, &[9u8; 8]);
                let mut polls = 0u64;
                while !f.put_test(me, tok) {
                    polls += 1;
                    assert!(polls < 100_000_000, "put_test never completed");
                    std::hint::spin_loop();
                }
                assert!(f.put_test(me, tok), "a completed token stays completed");
            }
            f.quiet(me);
            f.flag_add(me, ProcId(1), SPARE_FLAG, 1);
            f.flag_add(me, ProcId(2), SPARE_FLAG, 1);
        } else {
            f.flag_wait_ge(me, SPARE_FLAG, 1);
        }
        f.image_done(me);
    });
    let s = initiator.stats().snapshot();
    assert_eq!(s.puts_nb_injected, 2);
    assert_eq!(
        s.puts_nb_completed, s.puts_nb_injected,
        "both tiers' tokens must retire: {s:?}"
    );
}

#[test]
#[cfg(unix)]
fn mixed_fleet_kill_mid_put_poisons_each_survivor_loudly() {
    // The kill-mid-put drill: rank 1 — the shared-memory peer — is severed
    // while images 1 and 3 are streaming puts at it from *different*
    // tiers. Each survivor must fail its own next operation with a loud
    // poison report naming the dead peer (no silent hang, no quiet exit),
    // on the shm fast path and the wire path alike.
    let cfg = SocketConfig {
        peer_timeout: Duration::from_millis(400),
        heartbeat_period: Duration::from_millis(50),
        ..socket_cfg()
    };
    let map = ImageMap::new(presets::mini(3, 1), 3, &Placement::Packed);
    let wire = SocketConfig {
        shm: false,
        ..cfg.clone()
    };
    let fabrics = fleet_with(&map, &[cfg.clone(), cfg, wire]);
    let reports: Arc<Mutex<Vec<(usize, String)>>> = Arc::new(Mutex::new(Vec::new()));
    let r2 = reports.clone();
    run_fleet(&fabrics, move |f, me| {
        if me == ProcId(1) {
            // The victim: go dark mid-run, then just wait out the drill.
            std::thread::sleep(Duration::from_millis(100));
            f.sever();
            std::thread::sleep(Duration::from_millis(800));
            return;
        }
        let f2 = f.clone();
        let caught = std::panic::catch_unwind(std::panic::AssertUnwindSafe(move || {
            let payload = [me.index() as u8; 8];
            let t0 = Instant::now();
            // Stream puts at the victim until the poison lands. Bounded:
            // a drill that never detects the death is itself the failure.
            loop {
                f2.put(me, ProcId(1), BSEG, 8 * me.index(), &payload);
                assert!(
                    t0.elapsed() < Duration::from_secs(10),
                    "death was never detected: survivor image {} still putting",
                    me.index() + 1
                );
            }
        }));
        let msg = match caught {
            Ok(()) => unreachable!("the put loop can only exit by panic"),
            Err(p) => caf_fabric::panic_message(p.as_ref()),
        };
        r2.lock().unwrap().push((me.index(), msg));
    });
    let reports = reports.lock().unwrap();
    let mut ranks: Vec<usize> = reports.iter().map(|(i, _)| *i).collect();
    ranks.sort_unstable();
    assert_eq!(
        ranks,
        vec![0, 2],
        "every survivor must report the death: {reports:?}"
    );
    for (img, msg) in reports.iter() {
        assert!(
            msg.contains("dead") && !msg.contains("never detected"),
            "image {} must name the dead peer loudly, got: {msg}",
            img + 1
        );
    }
}

#[test]
fn thread_fabric_flag_overflow_is_caught() {
    // The sim-side guard has a twin in sim.rs tests; this pins the
    // ThreadFabric's atomic counter guard.
    let map = ImageMap::new(presets::mini(1, 1), 1, &Placement::Packed);
    let f = ThreadFabric::new(map, ThreadConfig::default());
    let me = ProcId(0);
    f.flag_add(me, me, SPARE_FLAG, u64::MAX);
    let caught = std::panic::catch_unwind(std::panic::AssertUnwindSafe(|| {
        f.flag_add(me, me, SPARE_FLAG, 1);
    }));
    assert!(caught.is_err(), "wraparound must panic");
}

#[cfg(unix)]
#[test]
fn shm_flag_table_overflow_degrades_to_wire_flags() {
    // The shared flag table is sized at segment creation (shm::MAX_FLAGS
    // cells per image); long-lived programs that keep forming teams can
    // allocate past it. Flags beyond the table must degrade to heap cells
    // reached over the wire — same semantics, slower path — instead of
    // panicking. Both tiers are exercised in one run: a flag inside the
    // table (shared-atomic fast path) and one past it (wire frame).
    use caf_fabric::socket::shm;
    let fabrics = socket_pair();
    run_fleet(&fabrics, move |f, me| {
        // Identical allocation sequences give identical ids on both
        // images; the bootstrap flags are already allocated, so this
        // spills well past the table.
        let first = f.alloc_flags(me, shm::MAX_FLAGS);
        let inside = first; // below MAX_FLAGS: shared-table cell
        let spilled = FlagId(first.0 + shm::MAX_FLAGS - 1); // past the table
        assert!(inside.0 < shm::MAX_FLAGS && spilled.0 >= shm::MAX_FLAGS);
        // Allocation is image-local: sync before aiming wire frames at the
        // fresh ids, or a fast sender races the peer's own alloc_flags.
        bootstrap::control_barrier(&*f, me, &mut 0);
        let peer = ProcId(1 - me.index());
        if me == ProcId(0) {
            f.flag_add(me, peer, spilled, 7);
            f.flag_add(me, peer, inside, 1);
            // Wait for the peer's acks on the same two tiers.
            f.flag_wait_ge(me, spilled, 1);
            f.flag_wait_ge(me, inside, 1);
            let s = f.stats().snapshot();
            assert!(
                s.shm_flag_ops >= 1,
                "the in-table flag should ride the shm tier: {s:?}"
            );
            assert!(
                s.flags_inter >= 1,
                "the spilled flag must fall back to the wire: {s:?}"
            );
        } else {
            f.flag_wait_ge(me, spilled, 7);
            f.flag_wait_ge(me, inside, 1);
            f.flag_add(me, peer, spilled, 1);
            f.flag_add(me, peer, inside, 1);
        }
        f.image_done(me);
    });
}

#[cfg(unix)]
#[test]
fn shm_segment_directory_overflow_spills_to_wire_windows() {
    // The shared directory holds shm::MAX_SEGS windows per image;
    // long-lived programs that keep allocating (the recover drill's
    // repeated conformance reps, say) run past it. Allocation must then
    // spill to owner-heap windows reached over the wire — the
    // unpublished directory entry is the shared truth both sides consult
    // — while in-directory segments keep the zero-copy path.
    use caf_fabric::socket::shm;
    let fabrics = socket_pair();
    run_fleet(&fabrics, move |f, me| {
        // Identical allocation sequences give identical ids on both
        // images; the bootstrap segment is already allocated, so the top
        // ids land past the directory.
        let mut inside = None;
        let mut spilled = None;
        for _ in 0..shm::MAX_SEGS {
            let s = f.alloc_segment(me, 64);
            if s.0 < shm::MAX_SEGS {
                inside = Some(s);
            } else {
                spilled = Some(s);
            }
        }
        let (inside, spilled) = (inside.unwrap(), spilled.unwrap());
        bootstrap::control_barrier(&*f, me, &mut 0);
        let peer = ProcId(1 - me.index());
        if me == ProcId(0) {
            f.put(me, peer, inside, 0, &[0xAA; 64]);
            f.put(me, peer, spilled, 0, &[0xBB; 64]);
            f.flag_add(me, peer, SPARE_FLAG, 1);
            let s = f.stats().snapshot();
            assert!(
                s.shm_puts >= 1,
                "the in-directory put should ride the shm tier: {s:?}"
            );
            assert!(
                s.puts_inter >= 1,
                "the spilled put must fall back to the wire: {s:?}"
            );
        } else {
            f.flag_wait_ge(me, SPARE_FLAG, 1);
            let mut a = [0u8; 64];
            let mut b = [0u8; 64];
            f.get(me, me, inside, 0, &mut a);
            f.get(me, me, spilled, 0, &mut b);
            assert_eq!(a, [0xAA; 64], "in-directory put landed wrong");
            assert_eq!(b, [0xBB; 64], "spilled put landed wrong");
            // Reading a peer's spilled window must also take the wire and
            // see that owner's heap bytes, not a stale shared window.
            let mut c = [0u8; 64];
            f.get(me, ProcId(0), spilled, 0, &mut c);
            assert_eq!(c, [0u8; 64], "spilled get read the wrong backing");
        }
        f.image_done(me);
    });
}

#[cfg(unix)]
#[test]
fn spilled_put_nb_before_shm_flag_keeps_point_to_point_order() {
    // The cross-tier ordering hazard of a mixed destination: a put_nb into
    // a window the owner spilled past the shared directory travels as a
    // wire frame applied only when the owner's ingress thread services it,
    // while a subsequent flag_add to an in-table flag could land instantly
    // through the shared table — overtaking the payload and breaking the
    // put_nb contract (payload visible after a later flag update to the
    // same target). The fabric must route the flag over the wire while nb
    // debt to that peer is outstanding, so frame order restores program
    // order. Unfenced rounds give the race a real window every iteration.
    use caf_fabric::socket::shm;
    const ACK_FLAG: FlagId = FlagId(3); // bootstrap allocates NUM_FLAGS = 4
    let fabrics = socket_pair();
    run_fleet(&fabrics, move |f, me| {
        // Identical allocation sequences on both images push the top ids
        // past the shared directory, exactly as the directory-overflow
        // litmus above.
        let mut spilled = None;
        for _ in 0..shm::MAX_SEGS {
            let s = f.alloc_segment(me, 64);
            if s.0 >= shm::MAX_SEGS {
                spilled = Some(s);
            }
        }
        let spilled = spilled.unwrap();
        bootstrap::control_barrier(&*f, me, &mut 0);
        let peer = ProcId(1 - me.index());
        if me == ProcId(0) {
            for k in 1..=2000u64 {
                // No put_wait, no quiet: the flag alone must publish it.
                f.put_nb(me, peer, spilled, 0, &k.to_ne_bytes());
                f.flag_add(me, peer, SPARE_FLAG, 1);
                f.flag_wait_ge(me, ACK_FLAG, k);
            }
            f.quiet(me);
        } else {
            for k in 1..=2000u64 {
                f.flag_wait_ge(me, SPARE_FLAG, k);
                let mut b = [0u8; 8];
                f.get(me, me, spilled, 0, &mut b);
                assert_eq!(
                    u64::from_ne_bytes(b),
                    k,
                    "flag overtook the spilled put_nb payload at round {k}"
                );
                f.flag_add(me, peer, ACK_FLAG, 1);
            }
        }
        f.image_done(me);
    });
}
