//! `smallop-wire`, `smallop-shm`: streams of 8-byte put + flag between
//! two images on two nodes. (The batched `Am::put_flag` stream is a phase
//! of their traced runs.)
//!
//! Per-message software cost is all of the work here — frame encode,
//! syscall, ingress thread, ack and `quiet` in `fabric::socket`, the
//! batcher in `fabric::{am,batch}` — and `hpl`/`collectives` do none.
//! This is where a reactor, vectored writes or ack batching must show,
//! and `smallop-shm` is the bypass: it never touches the wire, so the
//! prediction for a wire-side change is "no change".
//!
//! Closed loop: the sender issues a chunk of messages, `quiet`s, and waits
//! for the receiver's echo; the receiver checks every payload of the
//! chunk against the seeded generator before it echoes. One sample per
//! chunk; ping-pong latencies are per-layer diagnostics only (the wait
//! primitive spins, then parks for 200 µs, so a round trip lands in one of
//! two modes from run to run).

use crate::fleet::{self, mix, Fleet, Tier, RECEIVER, SENDER};
use crate::host;
use crate::span::{Kind, SpanFabric, SpanLog};
use crate::stats;
use crate::workloads::{span_layers, Params, Report, Stop};
use caf_fabric::{
    bootstrap, Am, AmPolicy, ArcFabric, FlagId, SegmentId, ThreadConfig, ThreadFabric,
};
use caf_topology::{presets, ImageMap, Placement, ProcId};
use std::sync::Arc;
use std::time::Instant;

/// How a message reaches the fabric.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum Path {
    /// `put_nb` + `flag_add`, one fabric call each.
    Direct(Tier),
    /// `Am::put_flag` through the per-destination batcher.
    Batched(Tier),
}

impl Path {
    fn tier(self) -> Tier {
        match self {
            Path::Direct(t) | Path::Batched(t) => t,
        }
    }

    /// Messages per chunk, sized so a chunk takes 5-20 ms on this class
    /// of host: long enough that the closing quiet + echo is a small,
    /// honest share, short enough for hundreds of samples per run.
    fn chunk(self) -> usize {
        match self {
            Path::Direct(Tier::Wire) => 2048,
            Path::Direct(Tier::Shm) => 32768,
            Path::Batched(Tier::Wire) => 8192,
            Path::Batched(Tier::Shm) => 32768,
        }
    }
}

const DATA: FlagId = FlagId(2);
const ECHO: FlagId = FlagId(3);
/// Both images allocate the stream segment first, so it gets the first id
/// after the bootstrap segment on each.
const STREAM_SEG: SegmentId = SegmentId(bootstrap::NUM_SEGS);
/// Leading chunks of a stream that are not sampled (connections and
/// caches warm up on them).
const WARMUP_CHUNKS: usize = 2;

/// One image's running totals: flags accumulate across phases, so each
/// phase continues from where the last one stopped.
#[derive(Default)]
struct Link {
    /// Messages sent (sender) / verified (receiver) so far.
    msgs: u64,
    /// Chunks echoed so far.
    chunks: u64,
}

/// What the sender saw of one stream phase.
#[derive(Default)]
struct Sent {
    /// Messages per second, one sample per chunk after the warm-up.
    rates: Vec<f64>,
    /// Share of each chunk spent in the closing quiet + echo wait.
    quiet_share: Vec<f64>,
    msgs: u64,
}

/// The segment holds one slot per message of a chunk plus a trailer word
/// that tells the receiver this chunk is the phase's last.
fn seg_bytes(chunk: usize) -> usize {
    (chunk + 1) * 8
}

fn stream_send(
    f: &ArcFabric,
    path: Path,
    seed: u64,
    stop: Stop,
    link: &mut Link,
    log: Option<&Arc<SpanLog>>,
) -> Sent {
    let (chunk, me, seg) = (path.chunk(), SENDER, STREAM_SEG);
    let mut am = Am::new(f.clone(), me, AmPolicy::from_cost(f.cost()));
    let mut out = Sent::default();
    let started = Instant::now();
    for issued in 0.. {
        let last = stop.is_last(started, issued);
        let _chunk_span = log.map(|l| l.open(me, Kind::App));
        let t0 = Instant::now();
        let trailer = u64::from(last).to_ne_bytes();
        match path {
            Path::Direct(_) => {
                f.put_nb(me, RECEIVER, seg, chunk * 8, &trailer);
                for j in 0..chunk {
                    let word = mix(seed, link.msgs + j as u64).to_ne_bytes();
                    f.put_nb(me, RECEIVER, seg, j * 8, &word);
                    f.flag_add(me, RECEIVER, DATA, 1);
                }
            }
            Path::Batched(_) => {
                am.put(RECEIVER, seg, chunk * 8, &trailer);
                for j in 0..chunk {
                    let word = mix(seed, link.msgs + j as u64).to_ne_bytes();
                    am.put_flag(RECEIVER, seg, j * 8, &word, DATA, 1);
                }
            }
        }
        let issued_at = t0.elapsed();
        match path {
            Path::Direct(_) => f.quiet(me),
            Path::Batched(_) => am.quiet(),
        }
        link.chunks += 1;
        f.flag_wait_ge(me, ECHO, link.chunks);
        let total = t0.elapsed();
        link.msgs += chunk as u64;
        out.msgs += chunk as u64;
        if issued >= WARMUP_CHUNKS {
            out.rates.push(chunk as f64 / total.as_secs_f64());
            out.quiet_share
                .push(1.0 - issued_at.as_secs_f64() / total.as_secs_f64());
        }
        if last {
            break;
        }
    }
    out
}

/// The receiving end: verify every chunk, echo, stop after the chunk the
/// sender marked last. Returns how many payload words were wrong.
fn stream_recv(f: &ArcFabric, path: Path, seed: u64, link: &mut Link) -> u64 {
    let (chunk, me) = (path.chunk(), RECEIVER);
    let mut buf = vec![0u8; seg_bytes(chunk)];
    let mut wrong = 0u64;
    loop {
        f.flag_wait_ge(me, DATA, link.msgs + chunk as u64);
        f.get(me, me, STREAM_SEG, 0, &mut buf);
        for (j, word) in buf.chunks_exact(8).take(chunk).enumerate() {
            let got = u64::from_ne_bytes(word.try_into().expect("8-byte slot"));
            wrong += u64::from(got != mix(seed, link.msgs + j as u64));
        }
        link.msgs += chunk as u64;
        link.chunks += 1;
        let last = buf[chunk * 8..] != [0u8; 8];
        f.flag_add(me, SENDER, ECHO, 1);
        if last {
            return wrong;
        }
    }
}

/// Allocate the stream segment and line both images up.
fn stream_setup(f: &ArcFabric, me: ProcId, chunk: usize) {
    let seg = f.alloc_segment(me, seg_bytes(chunk));
    assert_eq!(
        seg, STREAM_SEG,
        "the stream segment is the first allocation"
    );
    bootstrap::control_barrier(&**f, me, &mut 0);
}

/// The blocking 8 B operations whose round trips the traced run samples.
#[derive(Clone, Copy)]
enum Ping {
    /// `put` + `flag_add` out, the same back: two one-way messages.
    PutFlag,
    /// One blocking `get` (request + response).
    Get,
    /// One remote fetch-and-add (request + response).
    Amo,
}

/// Round-trip times of `rounds` blocking 8 B operations, in microseconds,
/// as the sender sees them. Diagnostics: the waiter spins, then parks for
/// 200 µs, so a round trip lands in one of two modes from run to run.
fn ping_pong(f: &ArcFabric, me: ProcId, link: &mut Link, kind: Ping, rounds: usize) -> Vec<f64> {
    let (seg, word) = (STREAM_SEG, 7u64.to_ne_bytes());
    let mut rtts = Vec::with_capacity(rounds);
    for _ in 0..rounds {
        match (kind, me == SENDER) {
            (Ping::PutFlag, true) => {
                let t0 = Instant::now();
                f.put(me, RECEIVER, seg, 0, &word);
                f.flag_add(me, RECEIVER, DATA, 1);
                link.chunks += 1;
                f.flag_wait_ge(me, ECHO, link.chunks);
                rtts.push(t0.elapsed().as_secs_f64() * 1e6);
                link.msgs += 1;
            }
            (Ping::PutFlag, false) => {
                link.msgs += 1;
                f.flag_wait_ge(me, DATA, link.msgs);
                f.put(me, SENDER, seg, 0, &word);
                link.chunks += 1;
                f.flag_add(me, SENDER, ECHO, 1);
            }
            (Ping::Get, true) => {
                let mut out = [0u8; 8];
                let t0 = Instant::now();
                f.get(me, RECEIVER, seg, 0, &mut out);
                rtts.push(t0.elapsed().as_secs_f64() * 1e6);
            }
            (Ping::Amo, true) => {
                let t0 = Instant::now();
                f.amo_fetch_add_u64(me, RECEIVER, seg, 8, 1);
                rtts.push(t0.elapsed().as_secs_f64() * 1e6);
            }
            // One-sided: the target image has nothing to do.
            (Ping::Get | Ping::Amo, false) => break,
        }
    }
    rtts
}

/// The shm arena each image gets: the stream segment is at most 256 KiB.
const ARENA_PER_IMAGE: usize = 4 << 20;

fn stand_up(path: Path, setup_s: &mut Vec<f64>) -> Fleet {
    fleet::stand_up(path.tier(), ARENA_PER_IMAGE, setup_s, |f, me| {
        stream_setup(f, me, path.chunk())
    })
}

fn spare_stand_ups(path: Path, times: usize, setup_s: &mut Vec<f64>) {
    fleet::spare_stand_ups(path.tier(), ARENA_PER_IMAGE, times, setup_s, |f, me| {
        stream_setup(f, me, path.chunk())
    })
}

/// Set-ups timed per measured run: the stream's own fleet, one spare
/// before it and the rest after.
const SETUPS: usize = 21;

/// What one image brings back from a run.
#[derive(Default)]
struct Side {
    /// Sender: the bare stream, and (traced run) the same stream through
    /// the SpanFabric and the round trips of each [`Ping`] kind.
    plain: Sent,
    spanned: Sent,
    rtts: [Vec<f64>; 3],
    /// Receiver: payload words that differed from the generator.
    wrong: u64,
    /// Messages sent (sender) / counted by the data flag (receiver).
    msgs: u64,
}

pub fn run(path: Path, p: &Params) -> Report {
    let mut r = Report::default();
    // A user stands up one fleet; the spares are here for `setup_s` alone.
    // One goes first — its whole cycle says how much of the run to keep
    // back for the others — and the rest follow the stream, after the
    // peak resident set has been read: it is one fleet's footprint.
    let spares = if p.trace || p.smoke { 0 } else { SETUPS - 1 };
    let began = Instant::now();
    spare_stand_ups(path, spares.min(1), &mut r.setup_s);
    let kept_back = began.elapsed().as_secs_f64() * spares.saturating_sub(1) as f64;
    let fleet = stand_up(path, &mut r.setup_s);
    let log = SpanLog::new(2);
    let before = fleet.stats_of(SENDER);
    let cpu0 = host::cpu_seconds();

    // Traced run: the same stream twice over the same fleet for the same
    // number of chunks, first on the bare fabric, then through the
    // SpanFabric; then the ping-pong diagnostics.
    let stop = if p.trace {
        Stop::Chunks(((p.seconds / 3.0 * 200.0) as usize).clamp(4, 40))
    } else {
        // The set-ups came out of the run's time, not on top of it.
        Stop::After((p.seconds - began.elapsed().as_secs_f64() - kept_back).max(p.seconds / 2.0))
    };
    let pings = if p.smoke { 50 } else { 1000 };
    let sides = fleet.run_images(|f, me| {
        let mut link = Link::default();
        let mut side = Side::default();
        let traced = SpanFabric::wrap(f.clone(), Arc::clone(&log));
        if me == SENDER {
            side.plain = stream_send(&f, path, p.seed, stop, &mut link, None);
            if p.trace {
                side.spanned = stream_send(&traced, path, p.seed, stop, &mut link, Some(&log));
                side.rtts = [Ping::PutFlag, Ping::Get, Ping::Amo]
                    .map(|kind| ping_pong(&f, me, &mut link, kind, pings));
            }
            side.msgs = link.msgs;
        } else {
            side.wrong = stream_recv(&f, path, p.seed, &mut link);
            if p.trace {
                side.wrong += stream_recv(&traced, path, p.seed, &mut link);
                ping_pong(&f, me, &mut link, Ping::PutFlag, pings);
            }
            side.msgs = f.flag_read(me, DATA);
        }
        side
    });
    let cpu_s = host::cpu_seconds() - cpu0;
    let delta = fleet.stats_of(SENDER).since(&before);
    let obs = fleet.fabrics[SENDER.index()]
        .node_telemetry(caf_fabric::TelemetryPhase::Live, None)
        .obs;
    let join_s = fleet.join_s;
    let tier_check = fleet.check_tier(&delta);
    Fleet::shutdown(fleet);
    r.peak_rss_mb = Some(host::peak_rss_mb());
    spare_stand_ups(path, spares.saturating_sub(1), &mut r.setup_s);

    let [sender, receiver] = <[Side; 2]>::try_from(sides).unwrap_or_else(|_| panic!("two images"));
    r.attempted = sender.msgs;
    if receiver.wrong > 0 {
        r.fail(
            receiver.wrong,
            format!(
                "{} payload words differ from the seeded generator",
                receiver.wrong
            ),
        );
    }
    if receiver.msgs != sender.msgs {
        r.fail(
            receiver.msgs.abs_diff(sender.msgs),
            format!(
                "receiver's flag counts {} messages, sender issued {}",
                receiver.msgs, sender.msgs
            ),
        );
    }
    let shm_share = tier_check.unwrap_or_else(|why| {
        r.fail(1, why);
        f64::NAN
    });
    r.throughput = sender.plain.rates.clone();
    if !p.trace {
        return r;
    }

    let msgs = (sender.plain.msgs + sender.spanned.msgs) as f64;
    r.layer("socket.fleet_join_ms", join_s * 1e3);
    r.layer("socket.shm_share", shm_share);
    r.layer("socket.frames_per_op", delta.wire_frames_tx as f64 / msgs);
    r.layer(
        "socket.wire_bytes_per_op",
        delta.wire_bytes_tx as f64 / msgs,
    );
    r.layer(
        "socket.put_ack_p50_us",
        obs.put_ack.percentile_ns(50.0) as f64 / 1e3,
    );
    r.layer(
        "socket.put_ack_p99_us",
        obs.put_ack.percentile_ns(99.0) as f64 / 1e3,
    );
    r.layer(
        "socket.quiet_share",
        stats::median(&sender.plain.quiet_share),
    );
    r.layer("socket.cpu_us_per_op", cpu_s * 1e6 / msgs);
    let [put_rtt, get_rtt, amo_rtt] = &sender.rtts;
    r.layer("socket.put8_rtt_us_p50", stats::percentile(put_rtt, 50.0));
    r.layer("socket.put8_rtt_us_p99", stats::percentile(put_rtt, 99.0));
    r.layer("socket.get8_rtt_us_p50", stats::percentile(get_rtt, 50.0));
    r.layer("socket.amo_rtt_us_p50", stats::percentile(amo_rtt, 50.0));
    // Measured one-way 8 B put + flag over the cost model's closed form
    // for this tier (the whale preset: the calibration target).
    let cost = presets::whale_cost();
    let model_ns = match path.tier() {
        Tier::Shm => cost.shm_put_latency_ns() + cost.shm_payload_ns(8),
        Tier::Wire => cost.small_put_latency_ns(false) + cost.inter_payload_ns(8),
    };
    r.layer(
        "topology.model_error_x",
        stats::percentile(put_rtt, 50.0) / 2.0 * 1e3 / model_ns as f64,
    );
    if let Path::Batched(_) = path {
        let injected = delta.ams_injected.max(1) as f64;
        r.layer(
            "am.ops_per_batch",
            injected / delta.am_batches_flushed.max(1) as f64,
        );
        r.layer("am.fused_share", delta.am_fused as f64 / injected);
        r.layer("am.frames_per_am", delta.wire_frames_tx as f64 / injected);
        r.layer(
            "am.stream_wire_mops",
            stats::median(&sender.plain.rates) / 1e6,
        );
    }
    match path {
        // The batched tier over the same wire, on a fleet of its own:
        // its `am.*` numbers sit next to the direct path's, and its
        // operations are checked and counted like the rest.
        Path::Direct(Tier::Wire) => {
            let am = run(Path::Batched(Tier::Wire), p);
            r.count_in(&am);
            r.layers
                .extend(am.layers.into_iter().filter(|(n, _)| n.starts_with("am.")));
        }
        Path::Direct(Tier::Shm) => {
            r.layer("am.stream_shm_mops", shm_batched_stream(p) / 1e6);
            r.layer("thread.put8_stream_mops", thread_stream(p) / 1e6);
        }
        Path::Batched(_) => {}
    }
    let spans = log.snapshot();
    span_layers(&mut r, &spans, &sender.plain.rates, &sender.spanned.rates);
    r.spans = Some(spans);
    r
}

/// One short bare stream; the sender's chunk rates.
fn stream_once(f: &ArcFabric, me: ProcId, path: Path, p: &Params) -> Vec<f64> {
    let mut link = Link::default();
    let stop = Stop::After((p.seconds / 6.0).min(1.0));
    if me == SENDER {
        stream_send(f, path, p.seed, stop, &mut link, None).rates
    } else {
        stream_recv(f, path, p.seed, &mut link);
        Vec::new()
    }
}

/// Median rate of the batched stream on a shm fleet of its own: the
/// batcher with no wire under it, next to `smallop-shm`'s direct path.
fn shm_batched_stream(p: &Params) -> f64 {
    let path = Path::Batched(Tier::Shm);
    let fleet = stand_up(path, &mut Vec::new());
    let rates = fleet.run_images(|f, me| stream_once(&f, me, path, p));
    Fleet::shutdown(fleet);
    stats::median(&rates[SENDER.index()])
}

/// The same direct stream on ThreadFabric: no process boundary, no
/// frames — the ceiling the socket tiers sit under.
fn thread_stream(p: &Params) -> f64 {
    let path = Path::Direct(Tier::Shm);
    let map = ImageMap::new(presets::mini(2, 1), 2, &Placement::Packed);
    let fabric: ArcFabric = ThreadFabric::new(map, ThreadConfig::default());
    let rates = std::thread::scope(|s| {
        let images = [SENDER, RECEIVER].map(|me| {
            let f = fabric.clone();
            s.spawn(move || {
                stream_setup(&f, me, path.chunk());
                stream_once(&f, me, path, p)
            })
        });
        images.map(|h| h.join().expect("thread-fabric image"))
    });
    stats::median(&rates[SENDER.index()])
}
