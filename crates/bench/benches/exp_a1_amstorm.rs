//! EXP-A1-amstorm — active-message injection throughput and wire-frame
//! amplification: many tiny puts-plus-doorbells from every image onto one
//! target, batched through the AM tier vs shipped one op at a time.
//!
//! The storm runs at 8–64 B payloads on all three fabrics. Simulator rows
//! report the *deterministic* modeled makespan (`sim_*_virt` — gated at
//! the strict 10% by `cargo xtask bench-diff`); thread and socket rows
//! report host wall-clock per AM (`*_wall` — noisy, gated loosely via
//! `--wall-tolerance`); socket runs additionally report wire frames per
//! AM from the `FabricStats` frame counters (`socket_*_frames` — a frame
//! *count*, deterministic, strict gate). The acceptance checks assert that
//! the batched socket path ships at least 4x fewer frames per op than the
//! unbatched path at 8 B payloads, and takes less wall time doing it.
//!
//! Results go to `BENCH_amstorm.json` (override with `CAF_BENCH_OUT`);
//! CI reruns the quick points and diffs against the committed baseline.

use caf_bench::results::{self, Meta, Rec, Surface};
use caf_bench::{print_cost_preamble, quick_mode};
use caf_fabric::socket::testing::{fleet, run_fleet};
use caf_fabric::{
    bootstrap, run_spmd, Am, AmPolicy, ArcFabric, Fabric, FlagId, SimConfig, SimFabric,
    SocketConfig, ThreadConfig, ThreadFabric,
};
use caf_microbench::Table;
use caf_topology::{presets, ImageMap, Placement, ProcId, SoftwareOverheads};
use parking_lot::Mutex;
use std::sync::Arc;
use std::time::{Duration, Instant};

const SPARE_FLAG: FlagId = FlagId(2);
const PAYLOADS: [usize; 4] = [8, 16, 32, 64];

/// The batching policy under test: wide enough that the op budget, not
/// the byte budget, decides the batch size. Fixed explicitly (not derived
/// from the cost model) so the committed baselines don't move when the
/// cost presets do.
fn batched() -> AmPolicy {
    AmPolicy {
        batch_bytes: 1 << 16,
        batch_ops: 32,
        flush_age_ns: u64::MAX / 2,
    }
}

fn policy(batch: bool) -> AmPolicy {
    if batch {
        batched()
    } else {
        AmPolicy::unbatched()
    }
}

/// The storm itself, over any fabric: each image in `senders` fires
/// `rounds` put+flag pairs (payload `bytes`, each pair fusable into one
/// `PutFlag`) at image 0 through an `Am` sender, then fences with
/// `quiet`; image 0 waits for every doorbell. Returns the per-image
/// virtual finish times (max = modeled makespan).
fn storm(
    fabric: ArcFabric,
    senders: std::ops::Range<usize>,
    rounds: u64,
    bytes: usize,
    pol: AmPolicy,
) -> Vec<u64> {
    let images = fabric.n_images();
    let f2 = fabric.clone();
    let total = senders.len() as u64 * rounds;
    let times = Arc::new(Mutex::new(vec![0u64; images]));
    let t2 = times.clone();
    run_spmd(fabric, move |me| {
        let i = me.index();
        if senders.contains(&i) {
            let mut am = Am::new(f2.clone(), me, pol);
            let payload = vec![i as u8; bytes];
            // Each sender owns bootstrap slot `i`; payloads ≤ 64 B fit.
            let off = i * bootstrap::SLOT_BYTES;
            for _ in 0..rounds {
                am.put(ProcId(0), bootstrap::SEG, off, &payload);
                am.flag_add(ProcId(0), SPARE_FLAG, 1);
            }
            am.quiet();
        } else if i == 0 && total > 0 {
            f2.flag_wait_ge(me, SPARE_FLAG, total);
        }
        t2.lock()[i] = f2.now_ns(me);
        f2.image_done(me);
    });
    let v = times.lock().clone();
    v
}

fn sim_fabric(nodes: usize, cores: usize, images: usize) -> Arc<SimFabric> {
    let map = ImageMap::new(presets::mini(nodes, cores), images, &Placement::Packed);
    SimFabric::new(
        map,
        SimConfig {
            cost: presets::whale_cost(),
            overheads: SoftwareOverheads::NONE,
            ..SimConfig::default()
        },
    )
}

struct SocketPoint {
    wall_ns_per_am: f64,
    frames_per_am: f64,
    fused: u64,
    ams: u64,
}

/// The storm on a real two-process-worth socket fleet (two in-process
/// `SocketFabric`s over real sockets): only node 1's images send, so
/// every AM crosses the wire, and the summed `wire_frames_tx` delta is
/// exactly the storm's frame bill. The wall clock is the storm's own —
/// first injection to the last image's `quiet` or doorbell returning,
/// read inside the images — not the fleet's teardown, which sits out a
/// heartbeat period and is the same for every row.
fn socket_storm(images: usize, rounds: u64, bytes: usize, pol: AmPolicy) -> SocketPoint {
    let map = ImageMap::new(presets::mini(2, images / 2), images, &Placement::Packed);
    let cfg = SocketConfig {
        io_timeout: Duration::from_secs(30),
        flag_wait_timeout: Duration::from_secs(30),
        // This experiment measures the *wire* frame bill; the shared-memory
        // tier would route the whole storm around the wire (see
        // EXP-P1-pingpong for that comparison).
        shm: false,
        ..SocketConfig::default()
    };
    let fabrics = fleet(&map, &cfg);
    let before: Vec<_> = fabrics.iter().map(|f| f.stats().snapshot()).collect();
    let senders = images / 2..images;
    let total_ams = senders.len() as u64 * rounds * 2;
    // (first injection, last return), as the images read the clock.
    let clock = Arc::new(Mutex::new((None::<Instant>, None::<Instant>)));
    let stamps = clock.clone();
    run_fleet(&fabrics, move |f, me| {
        let i = me.index();
        let returned = |began: Option<Instant>| {
            let now = Instant::now();
            let mut c = stamps.lock();
            c.0 = c.0.into_iter().chain(began).min();
            c.1 = c.1.max(Some(now));
        };
        if i >= f.n_images() / 2 {
            let began = Instant::now();
            let mut am = Am::new(f.clone(), me, pol);
            let payload = vec![i as u8; bytes];
            let off = i * bootstrap::SLOT_BYTES;
            for _ in 0..rounds {
                am.put(ProcId(0), bootstrap::SEG, off, &payload);
                am.flag_add(ProcId(0), SPARE_FLAG, 1);
            }
            am.quiet();
            returned(Some(began));
        } else if i == 0 {
            let n = f.n_images() as u64;
            f.flag_wait_ge(me, SPARE_FLAG, n / 2 * rounds);
            returned(None);
        }
        f.image_done(me);
    });
    let wall_s = match *clock.lock() {
        (Some(first), Some(last)) => (last - first).as_secs_f64(),
        _ => panic!("no image took part in the storm"),
    };
    let (mut frames, mut fused, mut ams) = (0u64, 0u64, 0u64);
    for (f, b) in fabrics.iter().zip(&before) {
        let d = f.stats().snapshot() - *b;
        frames += d.wire_frames_tx;
        fused += d.am_fused;
        ams += d.ams_injected;
    }
    SocketPoint {
        wall_ns_per_am: wall_s * 1e9 / total_ams as f64,
        frames_per_am: frames as f64 / total_ams as f64,
        fused,
        ams,
    }
}

fn main() {
    print_cost_preamble("EXP-A1-amstorm");
    // Quick keeps the socket fleets and thread counts CI-sized; full is
    // the committed-baseline scale.
    let (images, rounds) = if quick_mode() {
        (8, 128u64)
    } else {
        (8, 512u64)
    };
    let mut recs: Vec<Rec> = Vec::new();
    let mut t = Table::new(
        "EXP-A1-amstorm: put+flag storms onto image 0, batched AM tier vs \
         one-op-per-message"
            .to_string(),
        &[
            "payload",
            "mode",
            "sim virt ms",
            "thread Mam/s",
            "socket Mam/s",
            "frames/am",
            "fused",
        ],
    );
    let mut frames_8b = [f64::NAN; 2]; // [unbatched, batched] at 8 B
    let mut wall_8b = [f64::NAN; 2];
    for &bytes in &PAYLOADS {
        for batch in [false, true] {
            let mode = if batch { "batched" } else { "unbatched" };
            let pol = policy(batch);
            let total_ams = (images as u64 - 1) * rounds * 2;

            // Simulator: deterministic modeled makespan.
            let f = sim_fabric(2, images / 2, images);
            let times = storm(f.clone(), 1..images, rounds, bytes, pol);
            let virt_ns = *times.iter().max().expect("nonempty fleet") as f64;
            recs.push(Rec {
                op: "amstorm",
                bytes,
                algo: format!("sim_{mode}_virt"),
                ns: virt_ns,
            });

            // Real threads: wall clock per AM.
            let map = ImageMap::new(presets::mini(2, images / 2), images, &Placement::Packed);
            let tf = ThreadFabric::new(map, ThreadConfig::default());
            let t0 = Instant::now();
            storm(tf, 1..images, rounds, bytes, pol);
            let thread_wall_ns = t0.elapsed().as_secs_f64() * 1e9 / total_ams as f64;
            recs.push(Rec {
                op: "amstorm",
                bytes,
                algo: format!("thread_{mode}_wall"),
                ns: thread_wall_ns,
            });

            // Socket fleet: wall clock per AM + the wire-frame bill.
            let sp = socket_storm(images, rounds, bytes, pol);
            recs.push(Rec {
                op: "amstorm",
                bytes,
                algo: format!("socket_{mode}_wall"),
                ns: sp.wall_ns_per_am,
            });
            recs.push(Rec {
                op: "amstorm",
                bytes,
                algo: format!("socket_{mode}_frames"),
                ns: sp.frames_per_am,
            });
            if bytes == 8 {
                frames_8b[batch as usize] = sp.frames_per_am;
                wall_8b[batch as usize] = sp.wall_ns_per_am;
            }
            t.row(&[
                format!("{bytes} B"),
                mode.to_string(),
                format!("{:.3}", virt_ns / 1e6),
                format!("{:.2}", 1e3 / thread_wall_ns),
                format!("{:.2}", 1e3 / sp.wall_ns_per_am),
                format!("{:.3}", sp.frames_per_am),
                format!("{}/{}", sp.fused, sp.ams),
            ]);
        }
    }
    let reduction = frames_8b[0] / frames_8b[1];
    t.note(format!(
        "socket frames/am at 8 B: unbatched {:.3}, batched {:.3} — {reduction:.1}x fewer frames",
        frames_8b[0], frames_8b[1]
    ));
    t.print();

    results::write(
        &Surface {
            experiment: "exp_a1_amstorm",
            file: "BENCH_amstorm.json",
            header: &[("machine", Meta::Str("whale-cost-model"))],
            unit:
                "virt_rows_modeled_makespan_ns_wall_rows_wall_ns_per_am_frames_rows_frames_per_am",
            ns_decimals: 4,
        },
        &recs,
    );

    assert!(
        reduction >= 4.0,
        "batching cut socket frames/am by only {reduction:.2}x at 8 B payloads \
         (need >= 4x)"
    );
    println!(
        "acceptance: batched socket path ships {reduction:.1}x fewer frames per AM at 8 B -- PASS"
    );
    // Fewer frames must show on the clock too, now that the clock times
    // the storm.
    assert!(
        wall_8b[1] < wall_8b[0],
        "batched socket storm took {:.0} ns/AM at 8 B, unbatched {:.0}",
        wall_8b[1],
        wall_8b[0]
    );
    println!(
        "acceptance: batched socket storm {:.0} ns/AM < unbatched {:.0} ns/AM at 8 B -- PASS",
        wall_8b[1], wall_8b[0]
    );
}
