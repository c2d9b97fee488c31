//! The signalled put's contract (`Fabric::put_flag`), pinned on every
//! fabric: the simulator, image threads, a socket fleet whose every byte
//! goes by wire and one whose pair shares memory.
//!
//! * A waiter that sees the flag's new value sees the whole payload — a
//!   litmus program of many rounds whose payload changes every round, at a
//!   word, a few hundred bytes and past the wire's copy threshold. Like
//!   every litmus suite here it means most in `--release`.
//! * A zero-length payload is a plain flag add.
//! * It counts as one put and one flag, and on the wire it is one frame.
//! * On the wire `quiet` covers it: once `quiet` returns, the target has
//!   landed the payload and bumped the flag.

use caf_fabric::socket::testing::{fleet, run_fleet};
use caf_fabric::{
    run_spmd, ArcFabric, Fabric, FlagId, SegmentId, SimConfig, SimFabric, SocketConfig,
    SocketFabric, StatsSnapshot, TelemetryPhase, ThreadConfig, ThreadFabric,
};
use caf_topology::{presets, ImageMap, Placement, ProcId};
use std::sync::{Arc, Mutex};
use std::time::Duration;

const FLAG: FlagId = FlagId(2);
const ACK: FlagId = FlagId(3);
const SENDER: ProcId = ProcId(0);
const RECEIVER: ProcId = ProcId(1);
/// Room for the largest payload below on every image.
const SEG_BYTES: usize = 32 << 10;

#[derive(Clone, Copy, Debug, PartialEq, Eq)]
enum Kind {
    Sim,
    Threads,
    /// A socket fleet with the shared-memory tier off.
    Wire,
    /// A socket fleet whose two processes map each other's segments.
    Shm,
}

const EVERY: [Kind; 4] = [Kind::Sim, Kind::Threads, Kind::Wire, Kind::Shm];

/// Two images on two nodes.
fn map() -> ImageMap {
    ImageMap::new(presets::mini(2, 1), 2, &Placement::Packed)
}

/// A heartbeat slow enough that at most one lands inside a test, fast
/// enough to sit out at teardown.
fn socket_cfg(shm: bool) -> SocketConfig {
    SocketConfig {
        shm,
        heartbeat_period: Duration::from_secs(2),
        peer_timeout: Duration::from_secs(60),
        io_timeout: Duration::from_secs(10),
        flag_wait_timeout: Duration::from_secs(10),
        ..SocketConfig::default()
    }
}

fn socket_fleet(kind: Kind) -> Vec<Arc<SocketFabric>> {
    fleet(&map(), &socket_cfg(kind == Kind::Shm))
}

/// Run `program` once per image of a `kind` fleet, on a `SEG_BYTES`
/// segment allocated on both images first; returns every process's
/// counters.
fn run<P>(kind: Kind, program: P) -> Vec<StatsSnapshot>
where
    P: Fn(&dyn Fabric, ProcId, SegmentId) + Send + Sync + 'static,
{
    match kind {
        Kind::Sim => run_in_process(SimFabric::new(map(), SimConfig::default()), program),
        Kind::Threads => run_in_process(ThreadFabric::new(map(), ThreadConfig::default()), program),
        Kind::Wire | Kind::Shm => {
            let fabrics = socket_fleet(kind);
            run_socket(&fabrics, program);
            fabrics.iter().map(|f| f.stats().snapshot()).collect()
        }
    }
}

/// [`run`] on a fabric whose images are threads of this process.
fn run_in_process<P>(f: ArcFabric, program: P) -> Vec<StatsSnapshot>
where
    P: Fn(&dyn Fabric, ProcId, SegmentId) + Send + Sync + 'static,
{
    let seg = f.alloc_segment(SENDER, SEG_BYTES);
    assert_eq!(f.alloc_segment(RECEIVER, SEG_BYTES), seg);
    let g = f.clone();
    run_spmd(f.clone(), move |me| {
        program(&*g, me, seg);
        g.image_done(me);
    });
    vec![f.stats().snapshot()]
}

/// [`run`] on a socket fleet built by the caller.
fn run_socket<P>(fabrics: &[Arc<SocketFabric>], program: P)
where
    P: Fn(&dyn Fabric, ProcId, SegmentId) + Send + Sync + 'static,
{
    let seg = fabrics[0].alloc_segment(SENDER, SEG_BYTES);
    assert_eq!(fabrics[1].alloc_segment(RECEIVER, SEG_BYTES), seg);
    run_fleet(fabrics, move |f, me| {
        program(&*f, me, seg);
        f.image_done(me);
    });
}

/// What a fleet's processes counted, together.
#[derive(Debug, Default, PartialEq, Eq)]
struct Ops {
    puts: u64,
    flags: u64,
    bytes: u64,
    shm_puts: u64,
    shm_flags: u64,
    shm_bytes: u64,
    nb_puts: u64,
}

fn ops(snaps: &[StatsSnapshot]) -> Ops {
    let mut o = Ops::default();
    for s in snaps {
        o.puts += s.total_puts();
        o.flags += s.total_flags();
        o.bytes += s.bytes_intra + s.bytes_inter;
        o.shm_puts += s.shm_puts;
        o.shm_flags += s.shm_flag_ops;
        o.shm_bytes += s.shm_bytes;
        o.nb_puts += s.puts_nb_injected;
    }
    o
}

/// Round `round`'s payload: `len` bytes, every word of them `round`.
fn payload(round: u64, len: usize) -> Vec<u8> {
    round.to_ne_bytes().into_iter().cycle().take(len).collect()
}

#[test]
fn a_flag_seen_means_its_payload_is_seen_on_every_fabric() {
    const ROUNDS: u64 = 300;
    // A word; a payload the wire copies into its write-combining buffer;
    // one past the copy threshold, which leaves in place, vectored.
    const LENS: [usize; 3] = [8, 200, 20_000];
    for kind in EVERY {
        run(kind, move |f, me, seg| {
            for round in 1..=ROUNDS {
                let len = LENS[round as usize % LENS.len()];
                if me == SENDER {
                    f.put_flag(me, RECEIVER, seg, 0, &payload(round, len), FLAG, 1);
                    f.flag_wait_ge(me, ACK, round);
                } else {
                    f.flag_wait_ge(me, FLAG, round);
                    let mut seen = vec![0u8; len];
                    f.get(me, me, seg, 0, &mut seen);
                    assert!(
                        seen == payload(round, len),
                        "{kind:?}: round {round}'s flag arrived ahead of its {len} B payload"
                    );
                    f.flag_add(me, SENDER, ACK, 1);
                }
            }
        });
    }
}

#[test]
fn an_empty_payload_is_a_plain_flag_add_on_every_fabric() {
    const ADDS: u64 = 20;
    for kind in EVERY {
        let clocks = Arc::new(Mutex::new(Vec::new()));
        let mut counted = Vec::new();
        for signalled in [true, false] {
            let clocks = clocks.clone();
            let snaps = run(kind, move |f, me, seg| {
                if me == SENDER {
                    for _ in 0..ADDS {
                        if signalled {
                            f.put_flag(me, RECEIVER, seg, 0, &[], FLAG, 2);
                        } else {
                            f.flag_add(me, RECEIVER, FLAG, 2);
                        }
                    }
                    f.quiet(me);
                } else {
                    f.flag_wait_ge(me, FLAG, 2 * ADDS);
                    assert_eq!(f.flag_read(me, FLAG), 2 * ADDS, "{kind:?}");
                }
                clocks.lock().unwrap().push((signalled, me, f.now_ns(me)));
            });
            counted.push(ops(&snaps));
        }
        assert_eq!(counted[0], counted[1], "{kind:?}");
        assert_eq!((counted[0].puts, counted[0].shm_puts), (0, 0), "{kind:?}");
        if kind == Kind::Sim {
            // The same operations: the same virtual times, image by image.
            let mut clocks = clocks.lock().unwrap().clone();
            clocks.sort_by_key(|&(signalled, me, _)| (signalled, me.index()));
            let (plain, empty) = clocks.split_at(2);
            let times = |c: &[(bool, ProcId, u64)]| c.iter().map(|c| c.2).collect::<Vec<_>>();
            assert_eq!(times(empty), times(plain));
        }
    }
}

#[test]
fn a_signalled_put_counts_one_put_and_one_flag_on_every_fabric() {
    const PUTS: u64 = 50;
    const LEN: usize = 24;
    for kind in EVERY {
        let snaps = run(kind, move |f, me, seg| {
            if me == SENDER {
                for k in 0..PUTS {
                    let at = k as usize * LEN;
                    f.put_flag(me, RECEIVER, seg, at, &payload(k, LEN), FLAG, 1);
                }
                f.quiet(me);
            } else {
                f.flag_wait_ge(me, FLAG, PUTS);
                let mut seen = vec![0u8; LEN];
                for k in 0..PUTS {
                    f.get(me, me, seg, k as usize * LEN, &mut seen);
                    assert_eq!(seen, payload(k, LEN), "{kind:?}");
                }
            }
        });
        let (n, bytes) = (PUTS, PUTS * LEN as u64);
        let want = match kind {
            // Through the other process's mapping, no frame.
            Kind::Shm => Ops {
                shm_puts: n,
                shm_flags: n,
                shm_bytes: bytes,
                ..Ops::default()
            },
            _ => Ops {
                puts: n,
                flags: n,
                bytes,
                ..Ops::default()
            },
        };
        assert_eq!(ops(&snaps), want, "{kind:?}");
    }
}

/// Frames `f`'s process has sent toward process `peer`.
fn sent_to(f: &SocketFabric, peer: usize) -> u64 {
    f.node_telemetry(TelemetryPhase::Live, None).obs.peers[peer].frames_tx
}

#[test]
fn on_the_wire_a_signalled_put_is_one_frame() {
    const PUTS: u64 = 100;
    let fabrics = socket_fleet(Kind::Wire);
    let (sender, frames) = (fabrics[0].clone(), Arc::new(Mutex::new(0)));
    let counted = frames.clone();
    run_socket(&fabrics, move |f, me, seg| {
        if me == SENDER {
            for k in 1..=PUTS {
                // An idle link: nothing corked, nothing in flight.
                f.quiet(me);
                let before = sent_to(&sender, 1);
                f.put_flag(me, RECEIVER, seg, 0, &k.to_ne_bytes(), FLAG, 1);
                *counted.lock().unwrap() += sent_to(&sender, 1) - before;
            }
        } else {
            f.flag_wait_ge(me, FLAG, PUTS);
        }
    });
    // A heartbeat is a frame too, and at most one falls into the loop.
    let frames = *frames.lock().unwrap();
    assert!(
        (PUTS..=PUTS + 1).contains(&frames),
        "{frames} frames for {PUTS} signalled puts"
    );
}

#[test]
fn on_the_wire_quiet_covers_a_signalled_put() {
    const ROUNDS: u64 = 300;
    let fabrics = socket_fleet(Kind::Wire);
    let target = fabrics[1].clone();
    run_socket(&fabrics, move |f, me, seg| {
        if me == SENDER {
            for round in 1..=ROUNDS {
                // Nothing else in flight: only the signalled put's own
                // ack can hold `quiet` back.
                f.put_flag(me, RECEIVER, seg, 0, &round.to_ne_bytes(), FLAG, 1);
                f.quiet(me);
                // Read on the target's process at once: nobody waited there.
                assert_eq!(target.flag_read(RECEIVER, FLAG), round, "flag after quiet");
                let mut seen = [0u8; 8];
                target.get(RECEIVER, RECEIVER, seg, 0, &mut seen);
                assert_eq!(u64::from_ne_bytes(seen), round, "payload after quiet");
            }
        } else {
            f.flag_wait_ge(me, FLAG, ROUNDS);
        }
    });
    let s = fabrics[0].stats().snapshot();
    assert_eq!(
        (s.puts_nb_injected, s.puts_nb_completed),
        (0, 0),
        "a signalled put is not counted as a nonblocking put"
    );
}
