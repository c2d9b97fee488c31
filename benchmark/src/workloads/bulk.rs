//! `bulk-wire`: 1 MiB writes and reads, mixed (its traced run repeats them
//! over the shm tier).
//!
//! The same `fabric::socket` layer as the small-op streams, used the
//! other way: bytes dominate, per-message cost almost vanishes. A
//! coalescing or flush-delay change tuned on `smallop-*` that costs
//! bandwidth shows here, and the reads take the `Get`/`GetResp` path that
//! puts never touch. Transfers rotate over 64 × 1 MiB slots (64 MiB per
//! side against a 260 MiB LLC on the sizing host, so this is
//! LLC-resident copy bandwidth over UDS loopback; no real link).
//!
//! Closed loop per chunk: 8 × `put_nb` + `quiet` + flag, the receiver
//! checks each slot's stamps and sampled words and echoes; then 8 × `get`
//! of the same slots, checked by the sender. One sample per chunk: bytes
//! moved in both directions over the chunk's wall time.

use crate::fleet::{mix, spare_stand_ups, stand_up, Fleet, Tier, RECEIVER, SENDER};
use crate::span::{Kind, SpanFabric, SpanLog};
use crate::stats;
use crate::workloads::{span_layers, Params, Report, Stop};
use caf_fabric::{bootstrap, ArcFabric, FlagId, SegmentId};
use caf_topology::ProcId;
use std::sync::Arc;
use std::time::Instant;

const MIB: usize = 1 << 20;
const SLOTS: usize = 64;
/// Transfers per direction per chunk.
const WINDOW: usize = 8;
const WORDS: usize = MIB / 8;
/// Interior words checked per transfer, besides the two stamps.
const SAMPLES: usize = 64;

const DATA: FlagId = FlagId(2);
const ECHO: FlagId = FlagId(3);
const SEG: SegmentId = SegmentId(bootstrap::NUM_SEGS);
/// The word after the slots tells the receiver a chunk is the last.
const TRAILER: usize = SLOTS * MIB;
const SEG_BYTES: usize = TRAILER + 64;

/// Word `w` of slot `slot`'s pattern.
fn pattern(seed: u64, slot: usize, w: usize) -> u64 {
    mix(seed, (slot * WORDS + w) as u64)
}

/// The sender's 64 source buffers, one per slot.
fn sources(seed: u64) -> Vec<Vec<u8>> {
    (0..SLOTS)
        .map(|slot| {
            (0..WORDS)
                .flat_map(|w| pattern(seed, slot, w).to_ne_bytes())
                .collect()
        })
        .collect()
}

fn word(buf: &[u8], w: usize) -> u64 {
    u64::from_ne_bytes(buf[w * 8..w * 8 + 8].try_into().expect("8-byte word"))
}

/// A transfer carries its number in its first and last word, so a lost
/// or torn rewrite of a slot cannot pass for the previous rotation's.
fn stamp(buf: &mut [u8], transfer: u64) {
    buf[..8].copy_from_slice(&transfer.to_ne_bytes());
    buf[MIB - 8..].copy_from_slice(&transfer.to_ne_bytes());
}

/// Wrong words among the stamps and samples of one 1 MiB transfer.
fn check(buf: &[u8], seed: u64, slot: usize, transfer: u64) -> u64 {
    let mut wrong =
        u64::from(word(buf, 0) != transfer) + u64::from(word(buf, WORDS - 1) != transfer);
    for s in 0..SAMPLES {
        let w = 1 + (mix(transfer, s as u64) as usize) % (WORDS - 2);
        wrong += u64::from(word(buf, w) != pattern(seed, slot, w));
    }
    wrong
}

/// What the sender saw of one phase.
#[derive(Default)]
struct Sent {
    /// Bytes per second over a whole chunk (puts + gets).
    rates: Vec<f64>,
    put_mbps: Vec<f64>,
    get_mbps: Vec<f64>,
    transfers: u64,
    /// Stamp or sample words that came back wrong from a `get`.
    wrong: u64,
}

/// One image's running totals across phases.
#[derive(Default)]
struct Link {
    transfers: u64,
    chunks: u64,
}

fn send(
    f: &ArcFabric,
    src: &mut [Vec<u8>],
    seed: u64,
    stop: Stop,
    link: &mut Link,
    log: Option<&Arc<SpanLog>>,
) -> Sent {
    let me = SENDER;
    let mut out = Sent::default();
    let mut landing = vec![0u8; MIB];
    let started = Instant::now();
    for issued in 0.. {
        let last = stop.is_last(started, issued);
        let _chunk_span = log.map(|l| l.open(me, Kind::App));
        let window = link.transfers..link.transfers + WINDOW as u64;
        let t0 = Instant::now();
        f.put_nb(me, RECEIVER, SEG, TRAILER, &u64::from(last).to_ne_bytes());
        for t in window.clone() {
            let slot = t as usize % SLOTS;
            stamp(&mut src[slot], t);
            f.put_nb(me, RECEIVER, SEG, slot * MIB, &src[slot]);
        }
        f.quiet(me);
        f.flag_add(me, RECEIVER, DATA, 1);
        link.chunks += 1;
        f.flag_wait_ge(me, ECHO, link.chunks);
        let put_s = t0.elapsed().as_secs_f64();
        for t in window {
            let slot = t as usize % SLOTS;
            f.get(me, RECEIVER, SEG, slot * MIB, &mut landing);
            out.wrong += check(&landing, seed, slot, t);
        }
        let total_s = t0.elapsed().as_secs_f64();
        link.transfers += WINDOW as u64;
        out.transfers += 2 * WINDOW as u64;
        // The first chunk faults the slots in; it is not sampled.
        if issued > 0 {
            let bytes = (WINDOW * MIB) as f64;
            out.rates.push(2.0 * bytes / total_s);
            out.put_mbps.push(bytes / put_s / 1e6);
            out.get_mbps.push(bytes / (total_s - put_s) / 1e6);
        }
        if last {
            break;
        }
    }
    out
}

fn recv(f: &ArcFabric, seed: u64, link: &mut Link) -> u64 {
    let me = RECEIVER;
    let mut buf = vec![0u8; MIB];
    let mut trailer = [0u8; 8];
    let mut wrong = 0;
    loop {
        link.chunks += 1;
        f.flag_wait_ge(me, DATA, link.chunks);
        for t in link.transfers..link.transfers + WINDOW as u64 {
            let slot = t as usize % SLOTS;
            f.get(me, me, SEG, slot * MIB, &mut buf);
            wrong += check(&buf, seed, slot, t);
        }
        link.transfers += WINDOW as u64;
        f.get(me, me, SEG, TRAILER, &mut trailer);
        f.flag_add(me, SENDER, ECHO, 1);
        if trailer != [0u8; 8] {
            return wrong;
        }
    }
}

fn setup(f: &ArcFabric, me: ProcId) {
    let seg = f.alloc_segment(me, SEG_BYTES);
    assert_eq!(seg, SEG, "first allocation after the bootstrap segment");
    bootstrap::control_barrier(&**f, me, &mut 0);
}

/// What one image brings back from a run.
#[derive(Default)]
struct Side {
    /// Sender: the bare phase and (traced run) the SpanFabric phase.
    plain: Sent,
    spanned: Sent,
    /// Receiver: stamp or sample words that arrived wrong.
    wrong: u64,
}

pub fn run(tier: Tier, p: &Params) -> Report {
    let mut r = Report::default();
    let began = Instant::now();
    let src = std::sync::Mutex::new(sources(p.seed));
    // As in `smallop`: one spare set-up first, whose cycle says how much
    // of the run to keep back for the 19 that follow the transfers, after
    // the peak resident set has been read.
    let (arena, spares) = (
        SEG_BYTES + (8 << 20),
        if p.trace || p.smoke { 0 } else { 20 },
    );
    let t0 = Instant::now();
    spare_stand_ups(tier, arena, spares.min(1), &mut r.setup_s, setup);
    let kept_back = t0.elapsed().as_secs_f64() * spares.saturating_sub(1) as f64;
    let fleet = stand_up(tier, arena, &mut r.setup_s, setup);
    let log = SpanLog::new(2);
    let before = fleet.stats_of(SENDER);
    let stop = if p.trace {
        Stop::Chunks(((p.seconds * 4.0) as usize).clamp(2, 24))
    } else {
        // Sources and set-ups came out of the run's time, not on top.
        Stop::After((p.seconds - began.elapsed().as_secs_f64() - kept_back).max(p.seconds / 2.0))
    };

    let sides = fleet.run_images(|f, me| {
        let mut link = Link::default();
        let mut side = Side::default();
        let traced = SpanFabric::wrap(f.clone(), Arc::clone(&log));
        if me == SENDER {
            let mut src = src.lock().expect("only the sender takes the sources");
            side.plain = send(&f, &mut src, p.seed, stop, &mut link, None);
            if p.trace {
                side.spanned = send(&traced, &mut src, p.seed, stop, &mut link, Some(&log));
            }
        } else {
            side.wrong = recv(&f, p.seed, &mut link);
            if p.trace {
                side.wrong += recv(&traced, p.seed, &mut link);
            }
        }
        side
    });
    let delta = fleet.stats_of(SENDER).since(&before);
    let tier_check = fleet.check_tier(&delta);
    let join_s = fleet.join_s;
    Fleet::shutdown(fleet);
    r.peak_rss_mb = Some(crate::host::peak_rss_mb());
    spare_stand_ups(tier, arena, spares.saturating_sub(1), &mut r.setup_s, setup);

    let [sender, receiver] = <[Side; 2]>::try_from(sides).unwrap_or_else(|_| panic!("two images"));
    r.attempted = sender.plain.transfers + sender.spanned.transfers;
    let wrong = sender.plain.wrong + sender.spanned.wrong + receiver.wrong;
    if wrong > 0 {
        r.fail(
            wrong,
            format!("{wrong} stamp or sample words differ from the seeded pattern"),
        );
    }
    let shm_share = tier_check.unwrap_or_else(|why| {
        r.fail(1, why);
        f64::NAN
    });
    r.throughput = sender.plain.rates.clone();

    if p.trace {
        let transfers = r.attempted as f64;
        r.layer("socket.fleet_join_ms", join_s * 1e3);
        r.layer("socket.shm_share", shm_share);
        r.layer(
            "socket.frames_per_op",
            delta.wire_frames_tx as f64 / transfers,
        );
        r.layer(
            "socket.wire_bytes_per_op",
            delta.wire_bytes_tx as f64 / transfers,
        );
        r.layer("socket.put_mbps", stats::median(&sender.plain.put_mbps));
        r.layer("socket.get_mbps", stats::median(&sender.plain.get_mbps));
        let spans = log.snapshot();
        span_layers(&mut r, &spans, &sender.plain.rates, &sender.spanned.rates);
        r.spans = Some(spans);
        // The same transfers over the shm tier, on a fleet of its own:
        // LLC-resident copy bandwidth, the ceiling the wire sits under.
        if tier == Tier::Wire {
            let shm = run(Tier::Shm, p);
            r.count_in(&shm);
            for (from, to) in [
                ("socket.put_mbps", "shm.bulk_put_mbps"),
                ("socket.get_mbps", "shm.bulk_get_mbps"),
            ] {
                let v = shm.layers.iter().find(|(n, _)| *n == from);
                r.layer(to, v.expect("bulk reports both directions").1);
            }
        }
    }
    r
}
