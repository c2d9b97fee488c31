//! Litmus tests for the socket fabric's write-combining egress: the flush
//! rule's observable promises — how many socket writes the idle-link
//! idioms take, that a stream's tail drains on the ack clock alone, that a
//! lone corked put still becomes visible, that two opposed streams cannot
//! deadlock, that a severed peer still ends in the loud, rank-naming
//! poison rather than a hang — and the order the fused put+flag frame and
//! completion by sequence number lean on: a sibling image's frame between
//! a put and its flag, acks that come back after a recovery reset.

use caf_fabric::socket::testing::{fleet, run_fleet};
use caf_fabric::socket::Transport;
use caf_fabric::{
    bootstrap, Fabric, FlagId, SegmentId, SocketConfig, SocketFabric, TelemetryPhase,
};
use caf_topology::{presets, ImageMap, Placement, ProcId};
use std::sync::{mpsc, Arc, Barrier, Mutex};
use std::time::{Duration, Instant};

const FLAG: FlagId = FlagId(2);
const ACK_FLAG: FlagId = FlagId(3);
const BSEG: SegmentId = bootstrap::SEG;
const SENDER: ProcId = ProcId(0);
const RECEIVER: ProcId = ProcId(1);

/// Two images on two nodes, every byte on the wire. `heartbeat` is the
/// one knob these tests turn: a beat flushes the cork (and bounds how long
/// shutdown takes), so the tests that must not lean on it slow it down and
/// the lone-put test sets its deadline by it.
fn wire_pair(heartbeat: Duration) -> Vec<Arc<SocketFabric>> {
    wire_pair_over(Transport::Uds, heartbeat)
}

fn wire_pair_over(transport: Transport, heartbeat: Duration) -> Vec<Arc<SocketFabric>> {
    let map = ImageMap::new(presets::mini(2, 1), 2, &Placement::Packed);
    let cfg = SocketConfig {
        shm: false,
        transport,
        heartbeat_period: heartbeat,
        peer_timeout: heartbeat * 4,
        io_timeout: Duration::from_secs(5),
        flag_wait_timeout: Duration::from_secs(10),
        ..SocketConfig::default()
    };
    fleet(&map, &cfg)
}

/// `(frames, socket writes)` `f`'s process has sent toward process `peer`.
fn sent_to(f: &SocketFabric, peer: usize) -> (u64, u64) {
    let w = f.node_telemetry(TelemetryPhase::Live, None).obs.peers[peer];
    (w.frames_tx, w.writes_tx)
}

#[test]
fn idle_link_idioms_take_exactly_one_write() {
    // A heartbeat is a frame and a write of its own (and flushes what is
    // corked), so one landing inside a measured window adds one to both
    // counts: the frames say whether one did.
    let fabrics = wire_pair(Duration::from_millis(500));
    const ROUNDS: u64 = 200;
    run_fleet(&fabrics, |f, me| {
        if me == SENDER {
            for round in 1..=ROUNDS {
                // Idle link: nothing corked, no response outstanding.
                f.quiet(me);
                let (f0, w0) = sent_to(&f, 1);
                f.put_nb(me, RECEIVER, BSEG, 0, &round.to_ne_bytes());
                f.flag_add(me, RECEIVER, FLAG, 1);
                let (f1, w1) = sent_to(&f, 1);
                let beats = f1 - f0 - 1;
                assert_eq!(
                    w1 - w0,
                    1 + beats,
                    "put_nb + flag_add leave as one frame in one write (round {round}, {beats} heartbeats)"
                );
                f.quiet(me);
                let (f0, w0) = sent_to(&f, 1);
                f.put(me, RECEIVER, BSEG, 8, &round.to_ne_bytes());
                let (f1, w1) = sent_to(&f, 1);
                let beats = f1 - f0 - 1;
                assert_eq!(
                    w1 - w0,
                    1 + beats,
                    "a blocking put is one write (round {round}, {beats} heartbeats)"
                );
                f.flag_wait_ge(me, ACK_FLAG, round);
            }
        } else {
            for round in 1..=ROUNDS {
                f.flag_wait_ge(me, FLAG, round);
                let mut out = [0u8; 8];
                f.get(me, me, BSEG, 0, &mut out);
                assert_eq!(u64::from_ne_bytes(out), round, "payload before its flag");
                f.flag_add(me, SENDER, ACK_FLAG, 1);
            }
        }
        f.image_done(me);
    });
    // Every round is two frames — the fused put+flag, the blocking put —
    // and each left in a write of its own: nothing here waits for company.
    let to_peer = fabrics[0]
        .node_telemetry(TelemetryPhase::Final, None)
        .obs
        .peers[1];
    assert!(
        to_peer.frames_tx >= 2 * ROUNDS && to_peer.writes_tx <= to_peer.frames_tx,
        "{to_peer:?}"
    );
}

#[test]
fn a_siblings_frame_between_a_put_and_its_flag_means_no_fusion_and_the_same_order() {
    // Two images per process; a heartbeat (a frame of its own) far slower
    // than the test, so nearly every round's frame counts are exact.
    let map = ImageMap::new(presets::mini(2, 2), 4, &Placement::Packed);
    let heartbeat = Duration::from_secs(4);
    let cfg = SocketConfig {
        shm: false,
        heartbeat_period: heartbeat,
        peer_timeout: heartbeat * 4,
        io_timeout: Duration::from_secs(5),
        flag_wait_timeout: Duration::from_secs(10),
        ..SocketConfig::default()
    };
    let t0 = Instant::now();
    let fabrics = fleet(&map, &cfg);
    const ROUNDS: u64 = 100;
    let (target, bystander) = (ProcId(2), ProcId(3));
    // Images 0 and 1 share process 0's cork toward process 1 and take
    // turns at it (over channels, so that a failed image ends the test
    // instead of leaving its sibling at a barrier).
    let (go_tx, go_rx) = mpsc::channel::<()>();
    let (went_tx, went_rx) = mpsc::channel::<()>();
    let (go_rx, went_rx) = (Mutex::new(go_rx), Mutex::new(went_rx));
    let turn = Duration::from_secs(10);
    // Per round: frames toward process 1 of the fused window, then of the
    // window with the sibling's flag in between.
    let windows = Arc::new(Mutex::new(Vec::new()));
    let w2 = windows.clone();
    run_fleet(&fabrics, move |f, me| {
        match me.index() {
            0 => {
                for round in 1..=ROUNDS {
                    // Undisturbed, the pair is one frame.
                    f.quiet(me);
                    let (f0, _) = sent_to(&f, 1);
                    f.put_nb(me, target, BSEG, 0, &(2 * round - 1).to_ne_bytes());
                    f.flag_add(me, target, FLAG, 1);
                    f.quiet(me);
                    let fused = sent_to(&f, 1).0 - f0;
                    f.flag_wait_ge(me, ACK_FLAG, 2 * round - 1);
                    // With the sibling's flag in between it is the put, that
                    // flag, and a flag frame of its own behind them.
                    let (f0, _) = sent_to(&f, 1);
                    f.put_nb(me, target, BSEG, 0, &(2 * round).to_ne_bytes());
                    go_tx.send(()).unwrap();
                    (went_rx.lock().unwrap().recv_timeout(turn)).expect("the sibling's turn");
                    f.flag_add(me, target, FLAG, 1);
                    f.quiet(me);
                    w2.lock().unwrap().push([fused, sent_to(&f, 1).0 - f0]);
                    f.flag_wait_ge(me, ACK_FLAG, 2 * round);
                }
            }
            1 => {
                for _ in 1..=ROUNDS {
                    (go_rx.lock().unwrap().recv_timeout(turn)).expect("image 0's put");
                    f.flag_add(me, bystander, FLAG, 1);
                    went_tx.send(()).unwrap();
                }
            }
            2 => {
                for k in 1..=2 * ROUNDS {
                    f.flag_wait_ge(me, FLAG, k);
                    let mut out = [0u8; 8];
                    f.get(me, me, BSEG, 0, &mut out);
                    assert_eq!(u64::from_ne_bytes(out), k, "payload before its flag");
                    f.flag_add(me, ProcId(0), ACK_FLAG, 1);
                }
            }
            _ => f.flag_wait_ge(me, FLAG, ROUNDS),
        }
        f.image_done(me);
    });
    // A heartbeat only adds frames to the window it lands in: its own, and
    // the put it may split from the flag. A window below its count fused
    // what it must not, or failed to fuse; above it, a beat crossed it.
    // Beats are at least a period apart from fleet creation on, which
    // bounds the windows they can disturb and the frames they can add —
    // and most rounds run undisturbed.
    let beats = (t0.elapsed().as_nanos() / heartbeat.as_nanos()) as u64;
    let windows = windows.lock().unwrap();
    assert_eq!(windows.len() as u64, ROUNDS);
    let (mut disturbed, mut extra) = (0, 0);
    for (round, got) in (1..).zip(windows.iter()) {
        for (want, got, what) in [(1, got[0], "fused"), (3, got[1], "not fused")] {
            assert!(got >= want, "round {round}: {got} frames, {what} is {want}");
            disturbed += u64::from(got > want);
            extra += got - want;
        }
    }
    assert!(
        disturbed <= beats && extra <= 2 * beats && 2 * disturbed < ROUNDS,
        "{disturbed} windows off their frame count by {extra} frames, with {beats} \
         heartbeats possible: {windows:?}"
    );
    let s = fabrics[0].stats().snapshot();
    assert_eq!((s.puts_inter, s.flags_inter), (2 * ROUNDS, 3 * ROUNDS));
    assert_eq!(s.puts_nb_completed, s.puts_nb_injected);
}

#[test]
fn acks_of_pre_fence_puts_that_arrive_after_the_reset_are_dropped_quietly() {
    const GENERATIONS: u64 = 20;
    const UNACKED: u64 = 2000;
    let fabrics = wire_pair(Duration::from_millis(100));
    run_fleet(&fabrics, |f, me| {
        for generation in 1..=GENERATIONS {
            if me == SENDER {
                // A window of puts nobody has waited for as the fence
                // begins: the receiver's fence mark does not queue behind
                // them, so this side resets — and forgets them — while
                // their acks are still on the way.
                let tokens: Vec<_> = (0..UNACKED)
                    .map(|i| f.put_nb(me, RECEIVER, BSEG, 8, &i.to_ne_bytes()))
                    .collect();
                f.heal(me).expect("heal");
                // What a program kept from before the fence reads as done.
                for token in [tokens[0], tokens[tokens.len() - 1]] {
                    assert!(f.put_test(me, token));
                    f.put_wait(me, token);
                }
                // And the healed fabric completes new work by its own
                // acks, not by the stragglers'.
                f.put_nb(me, RECEIVER, BSEG, 0, &generation.to_ne_bytes());
                f.flag_add(me, RECEIVER, FLAG, 1);
                f.quiet(me);
                f.flag_wait_ge(me, ACK_FLAG, 1);
            } else {
                f.heal(me).expect("heal");
                f.flag_wait_ge(me, FLAG, 1);
                let mut out = [0u8; 8];
                f.get(me, me, BSEG, 0, &mut out);
                assert_eq!(u64::from_ne_bytes(out), generation);
                f.flag_add(me, SENDER, ACK_FLAG, 1);
            }
            assert_eq!(f.generation(), generation);
        }
        f.health().expect("no straggler poisoned the fleet");
        f.image_done(me);
    });
    let s = fabrics[0].stats().snapshot();
    assert_eq!(s.puts_nb_injected, GENERATIONS * (UNACKED + 1));
    assert!(
        s.puts_nb_completed >= GENERATIONS && s.puts_nb_completed <= s.puts_nb_injected,
        "{s:?}"
    );
}

#[test]
fn stream_tail_drains_on_the_ack_clock_without_quiet() {
    const N: usize = 10_000;
    // Nothing but the ack clock may drain the tail: the heartbeat (the
    // backstop) is far slower than the deadline below.
    let heartbeat = Duration::from_secs(4);
    let fabrics = wire_pair(heartbeat);
    // The receiver releases the sender only after it has seen everything,
    // so the sender provably never called into the fabric again.
    let (done_tx, done_rx) = mpsc::channel::<()>();
    let done_rx = Mutex::new(done_rx);
    run_fleet(&fabrics, move |f, me| {
        let seg = f.alloc_segment(me, N * 8);
        bootstrap::control_barrier(&*f, me, &mut 0);
        if me == SENDER {
            for i in 0..N {
                f.put_nb(
                    me,
                    RECEIVER,
                    seg,
                    i * 8,
                    &(i as u64 ^ 0xC0FFEE).to_ne_bytes(),
                );
                f.flag_add(me, RECEIVER, FLAG, 1);
            }
            // No quiet, no wait of any kind: whatever is still corked must
            // leave on the ack clock.
            done_rx
                .lock()
                .unwrap()
                .recv_timeout(Duration::from_secs(20))
                .expect("the stream's tail never drained");
            f.quiet(me);
        } else {
            let t0 = Instant::now();
            f.flag_wait_ge(me, FLAG, N as u64);
            assert!(
                t0.elapsed() < heartbeat / 2,
                "the tail waited for a heartbeat: {:?}",
                t0.elapsed()
            );
            let mut buf = vec![0u8; N * 8];
            f.get(me, me, seg, 0, &mut buf);
            for (i, word) in buf.chunks_exact(8).enumerate() {
                assert_eq!(
                    u64::from_ne_bytes(word.try_into().unwrap()),
                    i as u64 ^ 0xC0FFEE,
                    "payload {i}"
                );
            }
            done_tx.send(()).unwrap();
        }
        f.image_done(me);
    });
    let s = fabrics[0].stats().snapshot();
    assert_eq!(s.puts_nb_injected, N as u64);
    assert_eq!(
        s.puts_nb_completed, s.puts_nb_injected,
        "every ack was retired"
    );
}

#[test]
fn lone_trailing_put_nb_becomes_visible_within_two_heartbeats() {
    let heartbeat = Duration::from_millis(250);
    let fabrics = wire_pair(heartbeat);
    let (issued_tx, issued_rx) = mpsc::channel::<Instant>();
    let (seen_tx, seen_rx) = mpsc::channel::<()>();
    let (issued_rx, seen_rx) = (Mutex::new(issued_rx), Mutex::new(seen_rx));
    run_fleet(&fabrics, move |f, me| {
        if me == SENDER {
            f.quiet(me);
            // Nothing in flight and no signal follows: the put is corked,
            // and this image never calls in again until it is seen.
            f.put_nb(me, RECEIVER, BSEG, 0, &0xFEEDu64.to_ne_bytes());
            issued_tx.send(Instant::now()).unwrap();
            seen_rx
                .lock()
                .unwrap()
                .recv_timeout(Duration::from_secs(10))
                .expect("the lone put never became visible");
        } else {
            let issued = issued_rx.lock().unwrap().recv().unwrap();
            let mut out = [0u8; 8];
            while u64::from_ne_bytes(out) != 0xFEED {
                assert!(
                    issued.elapsed() < 2 * heartbeat,
                    "a corked put_nb must leave with the next heartbeat at the latest"
                );
                std::thread::sleep(Duration::from_millis(1));
                f.get(me, me, BSEG, 0, &mut out);
            }
            seen_tx.send(()).unwrap();
        }
        f.image_done(me);
    });
}

#[test]
fn opposed_streams_larger_than_the_socket_buffer_do_not_deadlock() {
    opposed_streams(Transport::Uds);
}

#[test]
fn opposed_streams_over_tcp_do_not_deadlock() {
    opposed_streams(Transport::Tcp);
}

fn opposed_streams(transport: Transport) {
    // Both images push several megabytes at each other at once — far more
    // than the kernel buffers of both connections together — so each
    // image's writes block until the other side's ingress drains them
    // while that side is itself blocked writing. Finishing at all is the
    // assertion (a cycle would trip the 5 s io_timeout and poison).
    const SMALL: usize = 1 << 10;
    const LARGE: usize = 32 << 10; // past CORK_BYTES: the vectored path
    const SEG_BYTES: usize = 2 * LARGE;
    let fabrics = wire_pair_over(transport, Duration::from_millis(100));
    let start = Arc::new(Barrier::new(2));
    run_fleet(&fabrics, move |f, me| {
        let seg = f.alloc_segment(me, SEG_BYTES);
        bootstrap::control_barrier(&*f, me, &mut 0);
        let peer = ProcId(1 - me.index());
        let fill = me.index() as u8 + 1;
        start.wait();
        for i in 0..4096 {
            // Small puts rotate over the window's first half, every 64th
            // put overwrites its second half in one go.
            if i % 64 == 63 {
                f.put_nb(me, peer, seg, LARGE, &vec![fill; LARGE]);
            } else {
                f.put_nb(me, peer, seg, (i * SMALL) % LARGE, &vec![fill; SMALL]);
            }
        }
        f.quiet(me);
        f.flag_add(me, peer, FLAG, 1);
        f.flag_wait_ge(me, FLAG, 1);
        let mut out = vec![0u8; SEG_BYTES];
        f.get(me, me, seg, 0, &mut out);
        let theirs = peer.index() as u8 + 1;
        assert!(
            out.iter().all(|&b| b == theirs),
            "every byte of the window was written by the peer's stream"
        );
        f.image_done(me);
    });
}

#[test]
fn sever_with_a_corked_buffer_ends_in_rank_naming_poison_not_a_hang() {
    let map = ImageMap::new(presets::mini(2, 1), 2, &Placement::Packed);
    let cfg = SocketConfig {
        shm: false,
        heartbeat_period: Duration::from_millis(50),
        peer_timeout: Duration::from_millis(400),
        io_timeout: Duration::from_secs(5),
        flag_wait_timeout: Duration::from_secs(5),
        ..SocketConfig::default()
    };
    let fabrics = fleet(&map, &cfg);
    let victim = fabrics[1].clone();
    let t0 = Instant::now();
    let err = std::panic::catch_unwind(std::panic::AssertUnwindSafe(|| {
        run_fleet(&fabrics, move |f, me| {
            if me == SENDER {
                f.quiet(me);
                // Corked: data only, nothing in flight, no signal.
                for i in 0..10u64 {
                    f.put_nb(me, RECEIVER, BSEG, 0, &i.to_ne_bytes());
                }
                victim.sever();
                // The victim may still ack what it had already read; keep
                // the stream going until the death is observed. Every
                // quiet must return or panic — never hang.
                while t0.elapsed() < Duration::from_secs(5) {
                    f.quiet(me);
                    for i in 0..10u64 {
                        f.put_nb(me, RECEIVER, BSEG, 0, &i.to_ne_bytes());
                    }
                }
                panic!("the severed peer was never declared dead");
            } else {
                // Busy past the sever, so no graceful Bye escapes.
                std::thread::sleep(Duration::from_millis(300));
            }
            f.image_done(me);
        });
    }))
    .unwrap_err();
    let elapsed = t0.elapsed();
    let msg = caf_fabric::panic_message(err.as_ref());
    assert!(
        msg.contains("peer process 1 (node 1, images 2)"),
        "failure must name the dead rank: {msg}"
    );
    assert!(
        elapsed < Duration::from_secs(5),
        "death detection took {elapsed:?}"
    );
}
