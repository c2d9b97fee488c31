//! EXP-P1 (validation) — put latency and effective bandwidth across the
//! memory hierarchy, straight off the fabric: the osu-microbenchmark-style
//! curves that validate the cost model against its calibration targets
//! (DESIGN.md §6): ~0.1 µs intra-node visibility, ~1.8 µs inter-node put
//! latency, ~1.4 GB/s 4xDDR InfiniBand effective bandwidth, ~4 GB/s
//! intra-node copy bandwidth.
//!
//! Simulator rows report the deterministic modeled one-way time
//! (`sim_*_virt`, strict 10% gate in `cargo xtask bench-diff`) plus the
//! closed-form shared-memory-tier model (`model_shm_virt`). Socket rows
//! ping-pong the same program between two real `SocketFabric` processes
//! on this host, once through the zero-copy shared-memory tier
//! (`socket_shm_wall`) and once with `CAF_SOCKET_SHM=0` semantics forcing
//! every byte over the wire (`socket_wire_wall`) — noisy host wall clock,
//! gated loosely via `--wall-tolerance`. The acceptance check asserts the
//! shm tier lands small puts at least 4x faster than the wire path.
//!
//! The bulk sizes (64 KiB, 1 MiB) additionally get one-sided **get** rows
//! over both socket tiers (`socket_shm_get_wall`, `socket_wire_get_wall`),
//! the same put ping-pong on `ThreadFabric` (`thread_wall`), and the
//! segment copy routine on its own (`copy` rows: a 1 MiB heap `Window`
//! write+read against a per-byte atomic loop kept here as the reference;
//! the word-wise routine must be at least 2.5x faster, asserted in-bench).
//!
//! The 8 B **stream** rows (`*_stream_wall`) are the issue cost of the pair
//! every collective is built from: ns per `put_nb` + `flag_add` issued in
//! a chunk that `quiet` and the receiver's echo close, on `ThreadFabric`,
//! between two images of one socket process (`socket_own`), through a
//! mapped peer (`socket_shm`) and over the wire (`socket_wire`) — printed
//! beside `model_shm_virt`, the cost model's word on the same message.
//!
//! Results go to `BENCH_pingpong.json` (override with `CAF_BENCH_OUT`);
//! CI reruns the quick points and diffs against the committed baseline.

use caf_bench::results::{self, Meta, Rec, Surface};
use caf_bench::{print_cost_preamble, quick_mode};
use caf_fabric::seg::Window;
use caf_fabric::socket::testing::{fleet, run_fleet};
use caf_fabric::{
    bootstrap, run_spmd, Fabric, FlagId, SimConfig, SimFabric, SocketConfig, ThreadConfig,
    ThreadFabric,
};
use caf_microbench::Table;
use caf_topology::{presets, ImageMap, Placement, ProcId};
use parking_lot::Mutex;
use std::hint::black_box;
use std::sync::atomic::{AtomicU8, Ordering};
use std::sync::Arc;
use std::time::{Duration, Instant};

const PAYLOADS: [usize; 5] = [8, 256, 4096, 65536, 1 << 20];
/// The payloads that also get the get, thread and copy rows.
const BULK: [usize; 2] = [65536, 1 << 20];

/// Ping-pong `iters` rounds of `bytes` between images 0 and 1 of `map`;
/// returns modeled ns per one-way message.
fn pingpong(nodes: usize, cores: usize, bytes: usize, iters: u64) -> f64 {
    let map = ImageMap::new(presets::mini(nodes, cores), 2, &Placement::Packed);
    let fabric = SimFabric::new(
        map,
        SimConfig {
            cost: presets::whale_cost(),
            overheads: presets::stacks::UHCAF,
            ..SimConfig::default()
        },
    );
    let f = fabric.clone();
    let out = Arc::new(Mutex::new(0u64));
    let o2 = out.clone();
    run_spmd(fabric, move |me| {
        let seg = f.alloc_segment(me, bytes.max(8));
        // Identical allocation sequences give identical ids; the barrier
        // guarantees the peer's segment exists before the first put.
        bootstrap::control_barrier(&*f, me, &mut 0);
        let flag = FlagId(2);
        let payload = vec![0xA5u8; bytes];
        let peer = ProcId(1 - me.index());
        let t0 = f.now_ns(me);
        for round in 1..=iters {
            if me == ProcId(0) {
                f.put(me, peer, seg, 0, &payload);
                f.flag_add(me, peer, flag, 1);
                f.flag_wait_ge(me, flag, round);
            } else {
                f.flag_wait_ge(me, flag, round);
                f.put(me, peer, seg, 0, &payload);
                f.flag_add(me, peer, flag, 1);
            }
        }
        if me == ProcId(0) {
            *o2.lock() = f.now_ns(me) - t0;
        }
        f.image_done(me);
    });
    let total = *out.lock();
    total as f64 / (2 * iters) as f64
}

/// Untimed rounds first: connection setup, segment faults, allocator
/// warm-up all land outside the measured window. The timed rounds run as
/// several chunks and the best chunk wins — a single descheduling stall on
/// a noisy shared runner then spoils one chunk, not the measurement.
const WARMUP: u64 = 16;
const CHUNKS: u64 = 4;

/// Image `me`'s half of a put+flag ping-pong of `bytes` between images 0
/// and 1 on any real fabric; image 0 returns the measured host wall-clock
/// ns per one-way message (best chunk).
fn pingpong_image(f: &dyn Fabric, me: ProcId, bytes: usize, iters: u64) -> f64 {
    let per_chunk = (iters / CHUNKS).max(1);
    let seg = f.alloc_segment(me, bytes.max(8));
    // Identical allocation sequences give identical ids; the barrier
    // guarantees the peer's segment exists before the first put.
    bootstrap::control_barrier(f, me, &mut 0);
    let flag = FlagId(2);
    let payload = vec![0xA5u8; bytes];
    let peer = ProcId(1 - me.index());
    let mut best = f64::INFINITY;
    let mut t0 = Instant::now();
    for round in 1..=(WARMUP + CHUNKS * per_chunk) {
        if me == ProcId(0)
            && (round - 1) >= WARMUP
            && (round - 1 - WARMUP).is_multiple_of(per_chunk)
        {
            t0 = Instant::now();
        }
        if me == ProcId(0) {
            f.put(me, peer, seg, 0, &payload);
            f.flag_add(me, peer, flag, 1);
            f.flag_wait_ge(me, flag, round);
        } else {
            f.flag_wait_ge(me, flag, round);
            f.put(me, peer, seg, 0, &payload);
            f.flag_add(me, peer, flag, 1);
        }
        if me == ProcId(0) && round > WARMUP && (round - WARMUP).is_multiple_of(per_chunk) {
            best = best.min(t0.elapsed().as_secs_f64() * 1e9 / (2 * per_chunk) as f64);
        }
    }
    f.image_done(me);
    best
}

/// Image 0 reads `bytes` out of image 1's segment `iters` times (image 1
/// only hosts the window): wall-clock ns per blocking get, best chunk.
fn get_image(f: &dyn Fabric, me: ProcId, bytes: usize, iters: u64) -> f64 {
    let per_chunk = (iters / CHUNKS).max(1);
    let seg = f.alloc_segment(me, bytes);
    let pattern: Vec<u8> = (0..bytes).map(|i| (i * 31 + (i >> 8)) as u8).collect();
    f.put(me, me, seg, 0, &pattern);
    bootstrap::control_barrier(f, me, &mut 0);
    let mut best = f64::INFINITY;
    if me == ProcId(0) {
        let mut out = vec![0u8; bytes];
        for _ in 0..WARMUP {
            f.get(me, ProcId(1), seg, 0, &mut out);
        }
        for _ in 0..CHUNKS {
            let t0 = Instant::now();
            for _ in 0..per_chunk {
                f.get(me, ProcId(1), seg, 0, black_box(&mut out));
            }
            best = best.min(t0.elapsed().as_secs_f64() * 1e9 / per_chunk as f64);
        }
        assert!(out == pattern, "a get returned the wrong bytes");
    }
    bootstrap::control_barrier(f, me, &mut 1);
    f.image_done(me);
    best
}

/// Image `me`'s half of a one-way stream: image 0 issues `msgs` times
/// `put_nb` of `bytes` + `flag_add` to image 1, `quiet`s, and waits for
/// image 1's echo, which image 1 sends once its flag counts the whole
/// chunk. Image 0 returns wall-clock ns per message, best chunk (a first,
/// untimed chunk warms up).
fn stream_image(f: &dyn Fabric, me: ProcId, bytes: usize, msgs: u64) -> f64 {
    const SLOTS: u64 = 512;
    let seg = f.alloc_segment(me, bytes * SLOTS as usize);
    bootstrap::control_barrier(f, me, &mut 0);
    let (data, echo) = (FlagId(2), FlagId(3));
    let payload = vec![0xA5u8; bytes];
    let peer = ProcId(1 - me.index());
    let mut best = f64::INFINITY;
    for chunk in 1..=(1 + CHUNKS) {
        if me == ProcId(0) {
            let t0 = Instant::now();
            for j in 0..msgs {
                f.put_nb(me, peer, seg, bytes * (j % SLOTS) as usize, &payload);
                f.flag_add(me, peer, data, 1);
            }
            f.quiet(me);
            f.flag_wait_ge(me, echo, chunk);
            if chunk > 1 {
                best = best.min(t0.elapsed().as_secs_f64() * 1e9 / msgs as f64);
            }
        } else {
            f.flag_wait_ge(me, data, chunk * msgs);
            f.flag_add(me, peer, echo, 1);
        }
    }
    f.image_done(me);
    best
}

type ImageBody = fn(&dyn Fabric, ProcId, usize, u64) -> f64;

/// Run `body` on a real socket fleet of `nodes` processes' worth of
/// in-process `SocketFabric`s on this host, two images in all, and return
/// image 0's measurement. On two nodes with `shm` on, both sides map each
/// other's shared segment and a put or get is memcpy + atomics; with `shm`
/// off the identical program pays the full frame protocol over loopback
/// sockets. On one node the images are siblings in a single process and no
/// op leaves it.
fn on_socket_fleet(nodes: usize, shm: bool, body: ImageBody, bytes: usize, iters: u64) -> f64 {
    let map = ImageMap::new(presets::mini(nodes, 2 / nodes), 2, &Placement::Packed);
    let cfg = SocketConfig {
        io_timeout: Duration::from_secs(30),
        flag_wait_timeout: Duration::from_secs(30),
        shm: shm && cfg!(unix),
        ..SocketConfig::default()
    };
    let fabrics = fleet(&map, &cfg);
    let out = Arc::new(Mutex::new(0f64));
    let o2 = out.clone();
    run_fleet(&fabrics, move |f, me| {
        let v = body(&*f, me, bytes, iters);
        if me == ProcId(0) {
            *o2.lock() = v;
        }
    });
    let v = *out.lock();
    v
}

/// `body` between two image threads of one `ThreadFabric`: no process
/// boundary, no wire — heap windows and flag cells only.
fn on_thread_fabric(body: ImageBody, bytes: usize, iters: u64) -> f64 {
    let map = ImageMap::new(presets::mini(1, 2), 2, &Placement::Packed);
    let fabric = ThreadFabric::new(map, ThreadConfig::default());
    let f = fabric.clone();
    let out = Arc::new(Mutex::new(0f64));
    let o2 = out.clone();
    run_spmd(fabric, move |me| {
        let v = body(&*f, me, bytes, iters);
        if me == ProcId(0) {
            *o2.lock() = v;
        }
    });
    let v = *out.lock();
    v
}

/// A 1 MiB write+read through a heap `Window` against the per-byte relaxed
/// atomic loop it replaced (kept here as the reference): best-of-`reps`
/// wall-clock ns for each, `(word-wise, per-byte)`.
fn copy_routine_vs_per_byte(reps: usize) -> (f64, f64) {
    const N: usize = 1 << 20;
    let src: Vec<u8> = (0..N).map(|i| (i * 31 + (i >> 8)) as u8).collect();
    let mut dst = vec![0u8; N];
    let best = |f: &mut dyn FnMut()| {
        (0..reps)
            .map(|_| {
                let t0 = Instant::now();
                f();
                t0.elapsed().as_secs_f64() * 1e9
            })
            .fold(f64::INFINITY, f64::min)
    };
    let shared = Window::heap(N);
    let word_wise = best(&mut || {
        shared.write(0, black_box(&src));
        shared.read(0, black_box(&mut dst));
    });
    assert!(dst == src, "heap window round trip");
    let cells: Vec<AtomicU8> = (0..N).map(|_| AtomicU8::new(0)).collect();
    let per_byte = best(&mut || {
        for (cell, &b) in cells.iter().zip(black_box(&src)) {
            cell.store(b, Ordering::Relaxed);
        }
        for (cell, b) in cells.iter().zip(black_box(&mut dst).iter_mut()) {
            *b = cell.load(Ordering::Relaxed);
        }
    });
    (word_wise, per_byte)
}

fn main() {
    print_cost_preamble("EXP-P1");
    let cost = presets::whale_cost();
    // Quick keeps the wire round counts CI-sized; full is the
    // committed-figure scale. Large payloads take fewer rounds.
    let iters = if quick_mode() { 200u64 } else { 2000 };
    let mut recs: Vec<Rec> = Vec::new();
    let mut t = Table::new(
        "EXP-P1 (model validation): one-way put latency, modeled tiers vs a real \
         two-process fleet on this host"
            .to_string(),
        &[
            "bytes",
            "sim intra us",
            "sim inter us",
            "model shm us",
            "socket shm us",
            "socket wire us",
            "wire/shm",
        ],
    );
    let mut ratio_8b = f64::NAN;
    for &bytes in &PAYLOADS {
        let rounds = if bytes >= 1 << 20 { iters / 8 } else { iters }.max(8);
        let intra = pingpong(1, 2, bytes, 20);
        let inter = pingpong(2, 1, bytes, 20);
        let model_shm = (cost.shm_put_latency_ns() + cost.shm_payload_ns(bytes)) as f64;
        let shm_wall = on_socket_fleet(2, true, pingpong_image, bytes, rounds);
        let wire_wall = on_socket_fleet(2, false, pingpong_image, bytes, rounds);
        let ratio = wire_wall / shm_wall;
        if bytes == 8 {
            ratio_8b = ratio;
        }
        for (algo, ns) in [
            ("sim_intra_virt", intra),
            ("sim_inter_virt", inter),
            ("model_shm_virt", model_shm),
            ("socket_shm_wall", shm_wall),
            ("socket_wire_wall", wire_wall),
        ] {
            recs.push(Rec {
                op: "pingpong",
                bytes,
                algo: algo.to_string(),
                ns,
            });
        }
        t.row(&[
            bytes.to_string(),
            format!("{:.2}", intra / 1000.0),
            format!("{:.2}", inter / 1000.0),
            format!("{:.2}", model_shm / 1000.0),
            format!("{:.2}", shm_wall / 1000.0),
            format!("{:.2}", wire_wall / 1000.0),
            format!("{ratio:.1}x"),
        ]);
    }
    t.note(
        "calibration targets: inter latency ~2-3 us (w/ software), intra bw ~4 GB/s; \
         socket columns are measured wall clock on this host",
    );
    t.print();

    let mut bulk = Table::new(
        "EXP-P1 (bulk): blocking put ping-pong (one-way) and one-sided get, wall clock on \
         this host"
            .to_string(),
        &[
            "bytes",
            "thread put us",
            "shm put us",
            "wire put us",
            "shm get us",
            "wire get us",
        ],
    );
    for &bytes in &BULK {
        let rounds = if bytes >= 1 << 20 { iters / 8 } else { iters }.max(8);
        let thread = on_thread_fabric(pingpong_image, bytes, rounds);
        let shm_get = on_socket_fleet(2, true, get_image, bytes, rounds);
        let wire_get = on_socket_fleet(2, false, get_image, bytes, rounds);
        for (op, algo, ns) in [
            ("pingpong", "thread_wall", thread),
            ("get", "socket_shm_get_wall", shm_get),
            ("get", "socket_wire_get_wall", wire_get),
        ] {
            recs.push(Rec {
                op,
                bytes,
                algo: algo.to_string(),
                ns,
            });
        }
        let put = |algo: &str| {
            let r = recs.iter().find(|r| r.bytes == bytes && r.algo == algo);
            r.expect("put row recorded above").ns
        };
        bulk.row(&[
            bytes.to_string(),
            format!("{:.2}", thread / 1000.0),
            format!("{:.2}", put("socket_shm_wall") / 1000.0),
            format!("{:.2}", put("socket_wire_wall") / 1000.0),
            format!("{:.2}", shm_get / 1000.0),
            format!("{:.2}", wire_get / 1000.0),
        ]);
    }
    let msgs = 20 * iters;
    let streams = [
        (
            "thread_stream_wall",
            on_thread_fabric(stream_image, 8, msgs),
        ),
        (
            "socket_own_stream_wall",
            on_socket_fleet(1, false, stream_image, 8, msgs),
        ),
        (
            "socket_shm_stream_wall",
            on_socket_fleet(2, true, stream_image, 8, msgs),
        ),
        (
            "socket_wire_stream_wall",
            on_socket_fleet(2, false, stream_image, 8, msgs),
        ),
    ];
    let mut stream = Table::new(
        "EXP-P1 (stream): 8 B put_nb + flag_add, ns per message issued (chunk closed by quiet + \
         echo), wall clock on this host"
            .to_string(),
        &[
            "thread",
            "socket own",
            "socket shm",
            "socket wire",
            "model shm",
        ],
    );
    let model_shm_8 = (cost.shm_put_latency_ns() + cost.shm_payload_ns(8)) as f64;
    let measured = streams.iter().map(|(_, ns)| *ns);
    let cells: Vec<String> = (measured.chain([model_shm_8]).map(|ns| format!("{ns:.1}"))).collect();
    stream.row(&cells);
    stream.note("model shm = model_shm_virt at 8 B: what the cost model charges the same message");
    stream.print();
    recs.extend(streams.map(|(algo, ns)| Rec {
        op: "stream",
        bytes: 8,
        algo: algo.to_string(),
        ns,
    }));

    let (word_wise, per_byte) = copy_routine_vs_per_byte(if quick_mode() { 20 } else { 100 });
    for (algo, ns) in [
        ("shared_bytes_wall", word_wise),
        ("per_byte_wall", per_byte),
    ] {
        recs.push(Rec {
            op: "copy",
            bytes: 1 << 20,
            algo: algo.to_string(),
            ns,
        });
    }
    bulk.note(format!(
        "segment copy routine, 1 MiB write+read: {:.1} us word-wise vs {:.1} us per byte ({:.1}x)",
        word_wise / 1000.0,
        per_byte / 1000.0,
        per_byte / word_wise
    ));
    bulk.print();

    results::write(
        &Surface {
            experiment: "exp_p1_pingpong",
            file: "BENCH_pingpong.json",
            header: &[("machine", Meta::Str("whale-cost-model"))],
            unit: "virt_rows_modeled_one_way_ns_wall_rows_wall_one_way_ns",
            ns_decimals: 4,
        },
        &recs,
    );

    // Acceptance: every bulk path sits on the word-wise segment copy, which
    // must stay well clear of the per-byte loop it replaced.
    assert!(
        per_byte >= 2.5 * word_wise,
        "A heap window moves 1 MiB there and back in {word_wise:.0} ns, the per-byte reference \
         in {per_byte:.0} ns (need >= 2.5x)"
    );
    println!(
        "acceptance: word-wise segment copy is {:.1}x the per-byte loop -- PASS",
        per_byte / word_wise
    );

    // Acceptance: the shared-memory tier must beat the wire by at least 4x
    // on small intranode puts. Only meaningful where the shm tier exists.
    if cfg!(unix) {
        assert!(
            ratio_8b >= 4.0,
            "shm tier is only {ratio_8b:.2}x faster than the wire at 8 B one-way \
             (need >= 4x)"
        );
        println!("acceptance: shm tier lands 8 B puts {ratio_8b:.1}x faster than the wire -- PASS");
    } else {
        println!("acceptance: skipped (no shared-memory tier on this platform)");
    }
}
