//! Litmus tests for bulk transfers on the socket fabric's wire tier: a
//! payload larger than the ingress reader's buffer is streamed into its
//! window chunk by chunk, and a get's payload is read straight into a
//! recycled buffer — neither may change what a program can observe. The
//! flag behind a streamed put never overtakes its last chunk, small and
//! bulk puts on one connection land in issue order, unaligned gets
//! round-trip, opposed bulk streams finish, and a sender dying mid-payload
//! still ends in the rank-naming poison. Over UDS and TCP.

use caf_fabric::socket::testing::{fleet, run_fleet};
use caf_fabric::socket::wire::READER_BYTES;
use caf_fabric::socket::Transport;
use caf_fabric::{bootstrap, Fabric, FlagId, SegmentId, SocketConfig, SocketFabric};
use caf_topology::{presets, ImageMap, Placement, ProcId};
use std::sync::Arc;
use std::time::{Duration, Instant};

const FLAG: FlagId = FlagId(2);
const ACK_FLAG: FlagId = FlagId(3);
const SENDER: ProcId = ProcId(0);
const RECEIVER: ProcId = ProcId(1);
const MIB: usize = 1 << 20;
/// One below, at and above the streaming chunk, and a bulk size that ends
/// on a ragged word.
const SIZES: [usize; 4] = [READER_BYTES - 1, READER_BYTES, READER_BYTES + 1, MIB + 3];
const SEG_BYTES: usize = 4 * MIB;

/// Peer timeout of the ordering and streaming tests: far above the
/// scheduling gaps of a loaded host, so only a real death trips it.
const PATIENT: Duration = Duration::from_secs(30);
/// Peer timeout of the sever test, which bounds how soon the death shows.
const SEVER_TIMEOUT: Duration = Duration::from_millis(1000);

/// Two images on two nodes, every byte on the wire.
fn wire_pair(transport: Transport, peer_timeout: Duration) -> Vec<Arc<SocketFabric>> {
    let map = ImageMap::new(presets::mini(2, 1), 2, &Placement::Packed);
    let cfg = SocketConfig {
        shm: false,
        transport,
        heartbeat_period: Duration::from_millis(50),
        peer_timeout,
        io_timeout: Duration::from_secs(5),
        flag_wait_timeout: Duration::from_secs(10),
        ..SocketConfig::default()
    };
    fleet(&map, &cfg)
}

/// Both images allocate the test segment; returns once both have.
fn setup(f: &SocketFabric, me: ProcId) -> SegmentId {
    let seg = f.alloc_segment(me, SEG_BYTES);
    bootstrap::control_barrier(f, me, &mut 0);
    seg
}

/// A position-dependent pattern, so a chunk landed at the wrong offset
/// (or twice) cannot pass for the right one.
fn pattern(salt: u64, len: usize) -> Vec<u8> {
    (0..len as u64)
        .map(|i| (i.wrapping_mul(31).wrapping_add(i >> 8).wrapping_add(salt)) as u8)
        .collect()
}

#[test]
fn a_flag_behind_a_streamed_put_never_sees_a_torn_payload() {
    const ROUNDS: u64 = 2000;
    const OFF: usize = 3;
    for transport in [Transport::Uds, Transport::Tcp] {
        let fabrics = wire_pair(transport, PATIENT);
        run_fleet(&fabrics, move |f, me| {
            let seg = setup(&f, me);
            let mut buf = vec![0u8; MIB + 3];
            for round in 1..=ROUNDS {
                let len = SIZES[round as usize % SIZES.len()];
                // Every byte of a round's payload differs from the round
                // before's at the same place.
                let fill = round as u8;
                if me == SENDER {
                    buf[..len].fill(fill);
                    // Unfenced: only the connection's order stands between
                    // the flag and the payload's last chunk.
                    f.put_nb(me, RECEIVER, seg, OFF, &buf[..len]);
                    f.flag_add(me, RECEIVER, FLAG, 1);
                    f.flag_wait_ge(me, ACK_FLAG, round);
                } else {
                    f.flag_wait_ge(me, FLAG, round);
                    f.get(me, me, seg, OFF, &mut buf[..len]);
                    if let Some(at) = buf[..len].iter().position(|&b| b != fill) {
                        panic!(
                            "{transport:?} round {round}: byte {at} of {len} is {:#x}, not \
                             {fill:#x} — the flag overtook the payload",
                            buf[at]
                        );
                    }
                    f.flag_add(me, SENDER, ACK_FLAG, 1);
                }
            }
            f.quiet(me);
            f.image_done(me);
        });
    }
}

#[test]
fn small_puts_between_bulk_puts_land_in_issue_order() {
    const ROUNDS: u64 = 200;
    const L: usize = MIB + 3;
    // Word offsets inside the first and the second bulk range.
    const S1: usize = 4096 + 5;
    const S2: usize = L - 64 + 1;
    const S3: usize = L + READER_BYTES + 7;
    let stamp = |round: u64, k: u64| (round << 8 | k | 0xAB00_0000_0000_0000).to_ne_bytes();
    for transport in [Transport::Uds, Transport::Tcp] {
        let fabrics = wire_pair(transport, PATIENT);
        run_fleet(&fabrics, move |f, me| {
            let seg = setup(&f, me);
            let mut buf = vec![0u8; 2 * L];
            for round in 1..=ROUNDS {
                let (fa, fb) = (round as u8, (round as u8).wrapping_add(0x55));
                if me == SENDER {
                    // small, BULK over it, small into the bulk, BULK, small
                    // into that — all on one connection, unfenced.
                    f.put_nb(me, RECEIVER, seg, S1, &stamp(round, 1));
                    buf[..L].fill(fa);
                    f.put_nb(me, RECEIVER, seg, 0, &buf[..L]);
                    f.put_nb(me, RECEIVER, seg, S2, &stamp(round, 2));
                    buf[L..].fill(fb);
                    f.put_nb(me, RECEIVER, seg, L, &buf[L..]);
                    f.put_nb(me, RECEIVER, seg, S3, &stamp(round, 3));
                    f.flag_add(me, RECEIVER, FLAG, 1);
                    f.flag_wait_ge(me, ACK_FLAG, round);
                } else {
                    f.flag_wait_ge(me, FLAG, round);
                    f.get(me, me, seg, 0, &mut buf);
                    let mut want = vec![fa; 2 * L];
                    want[L..].fill(fb);
                    // The first small put was issued before the bulk put
                    // that covers it and is gone; the other two came after.
                    want[S2..S2 + 8].copy_from_slice(&stamp(round, 2));
                    want[S3..S3 + 8].copy_from_slice(&stamp(round, 3));
                    if let Some(at) = (0..2 * L).find(|&i| buf[i] != want[i]) {
                        panic!(
                            "{transport:?} round {round}: byte {at} is {:#x}, issue order \
                             says {:#x}",
                            buf[at], want[at]
                        );
                    }
                    f.flag_add(me, SENDER, ACK_FLAG, 1);
                }
            }
            f.quiet(me);
            f.image_done(me);
        });
    }
}

#[test]
fn unaligned_remote_gets_round_trip() {
    for transport in [Transport::Uds, Transport::Tcp] {
        let fabrics = wire_pair(transport, PATIENT);
        run_fleet(&fabrics, move |f, me| {
            let seg = setup(&f, me);
            let image = pattern(me.index() as u64 * 97, SEG_BYTES);
            f.put(me, me, seg, 0, &image);
            bootstrap::control_barrier(&*f, me, &mut 1);
            // Each image reads the other's window, so both connections
            // carry `GetResp`s at once.
            let peer = ProcId(1 - me.index());
            let theirs = pattern(peer.index() as u64 * 97, SEG_BYTES);
            let mut out = vec![0u8; MIB + 3];
            for off in [0, 1, 3, 7, 8, 9, READER_BYTES - 1, 2 * MIB + 5] {
                for len in [0, 1, 7, 8, 9, 4097].into_iter().chain(SIZES) {
                    out[..len].fill(0xEE);
                    f.get(me, peer, seg, off, &mut out[..len]);
                    assert!(
                        out[..len] == theirs[off..off + len],
                        "{transport:?}: get of {len} bytes at {off} differs"
                    );
                }
            }
            bootstrap::control_barrier(&*f, me, &mut 2);
            f.image_done(me);
        });
    }
}

#[test]
fn opposed_bulk_put_and_get_streams_finish() {
    // Each image pushes 64 MiB at the other and pulls 64 MiB back at the
    // same time, so every connection carries bulk both ways at once: the
    // ingress thread streaming a put's chunks in is the thread that must
    // also write the megabyte `GetResp`s out. Finishing at all is the
    // assertion (a cycle would trip the 5 s io_timeout and poison).
    const TRANSFERS: usize = 64;
    let fabrics = wire_pair(Transport::Uds, PATIENT);
    run_fleet(&fabrics, move |f, me| {
        let seg = setup(&f, me);
        let peer = ProcId(1 - me.index());
        // Upper half: what the peer reads. Lower half: where it writes.
        let mine = pattern(me.index() as u64, MIB);
        let theirs = pattern(peer.index() as u64, MIB);
        f.put(me, me, seg, 2 * MIB, &mine);
        bootstrap::control_barrier(&*f, me, &mut 1);
        let mut out = vec![0u8; MIB];
        for _ in 0..TRANSFERS {
            f.put_nb(me, peer, seg, 1, &mine);
            f.get(me, peer, seg, 2 * MIB, &mut out);
            assert!(out == theirs, "a get under load returned the wrong bytes");
        }
        f.quiet(me);
        f.flag_add(me, peer, FLAG, 1);
        f.flag_wait_ge(me, FLAG, 1);
        f.get(me, me, seg, 1, &mut out);
        assert!(out == theirs, "the peer's last put is not what landed");
        f.image_done(me);
    });
}

#[test]
fn a_sender_severed_mid_payload_ends_in_rank_naming_poison() {
    let fabrics = wire_pair(Transport::Uds, SEVER_TIMEOUT);
    let (f0, f1) = (fabrics[0].clone(), fabrics[1].clone());
    let segs: Vec<_> = [SENDER, RECEIVER]
        .into_iter()
        .map(|img| fabrics[img.index()].alloc_segment(img, SEG_BYTES))
        .collect();
    assert_eq!(segs[0], segs[1]);
    let seg = segs[0];
    // The sender streams megabyte puts back to back and nothing else: at
    // any instant its connection is inside a payload.
    let sender = std::thread::spawn(move || {
        let payload = vec![0x5Au8; MIB];
        let _ = std::panic::catch_unwind(std::panic::AssertUnwindSafe(|| loop {
            f0.put_nb(SENDER, RECEIVER, seg, 0, &payload);
        }));
    });
    let waiter = std::thread::spawn(move || {
        let f = f1.clone();
        std::panic::catch_unwind(std::panic::AssertUnwindSafe(move || {
            f.flag_wait_ge(RECEIVER, FLAG, 1)
        }))
    });
    // Let the stream get going, then cut it without a Bye.
    let t0 = Instant::now();
    while fabrics[1].stats().snapshot().wire_frames_rx < 8 {
        assert!(
            t0.elapsed() < Duration::from_secs(5),
            "stream never started"
        );
        std::thread::sleep(Duration::from_millis(1));
    }
    let cut = Instant::now();
    fabrics[0].sever();
    let err = waiter
        .join()
        .expect("waiter thread")
        .expect_err("the wait must fail, the flag never comes");
    let took = cut.elapsed();
    sender.join().expect("sender thread");
    for f in &fabrics {
        f.shutdown();
    }
    let msg = caf_fabric::panic_message(err.as_ref());
    assert!(
        msg.contains("peer process 0 (node 0, images 1)"),
        "failure must name the dead rank: {msg}"
    );
    assert!(took < Duration::from_secs(2), "poison took {took:?}");
}
