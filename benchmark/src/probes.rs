//! Layer probes: each times one public function of one layer in
//! isolation, from outside. They are independent of the workload, cheap
//! (tens of milliseconds each), and run at the start of every traced run,
//! so a per-layer number sits next to the end-to-end metric it should
//! move. Every probe reports the median of five batches.

use crate::stats;
use caf_fabric::socket::shm::{NodeShm, PeerShm};
use caf_fabric::socket::wire::{
    read_frame, read_frame_direct, write_frame, Frame, Listener, RawFrame, Stream, Transport,
};
use caf_fabric::{AmOp, AmPolicy, Batcher, EvKey, FlagId, SegmentId, ShardedEvq};
use caf_hpl::blas;
use caf_topology::{presets, HierarchyView, ImageMap, Placement, ProcId};
use std::hint::black_box;
use std::io::{BufReader, BufWriter, Write};
use std::time::Instant;

const BATCHES: usize = 5;

/// Median over `BATCHES` batches of the seconds one call of `f` takes,
/// each batch `iters` calls after one untimed call.
fn per_call_s(iters: usize, mut f: impl FnMut()) -> f64 {
    f();
    let samples: Vec<f64> = (0..BATCHES)
        .map(|_| {
            let t0 = Instant::now();
            for _ in 0..iters {
                f();
            }
            t0.elapsed().as_secs_f64() / iters as f64
        })
        .collect();
    stats::median(&samples)
}

fn put_frame(bytes: usize) -> Frame {
    Frame::Put {
        src: 0,
        dst: 1,
        seg: 1,
        off: 64,
        ack: 7,
        data: vec![0xA5; bytes],
    }
}

fn am_batch(ops: usize) -> Frame {
    Frame::AmBatch {
        src: 0,
        dst: 1,
        ack: 7,
        ops: (0..ops)
            .map(|i| AmOp::PutFlag {
                seg: SegmentId(1),
                off: i * 8,
                data: vec![0xA5; 8],
                flag: FlagId(2),
                delta: 1,
            })
            .collect(),
    }
}

fn encode_s(frame: &Frame, iters: usize) -> f64 {
    per_call_s(iters, || {
        black_box(black_box(frame).encode());
    })
}

fn decode_s(frame: &Frame, iters: usize) -> f64 {
    // `encode` prefixes the body with its 4-byte length; `decode` takes
    // the body.
    let bytes = frame.encode();
    let body = &bytes[4..];
    assert_eq!(&Frame::decode(body).expect("frame decodes"), frame);
    per_call_s(iters, || {
        black_box(Frame::decode(black_box(body)).expect("frame decodes"));
    })
}

/// A connected UDS pair, as the fabric's data connections are.
fn uds_pair() -> (Stream, Stream) {
    let listener = Listener::bind(Transport::Uds).expect("bind probe listener");
    let addr = listener.local_addr().expect("probe listener address");
    let dial = std::thread::spawn(move || Stream::connect(&addr).expect("connect probe stream"));
    let accepted = listener.accept().expect("accept probe stream");
    (dial.join().expect("probe dialer"), accepted)
}

/// `write_frame` → `read_frame` streamed across a real UDS pair: seconds
/// per frame with the reader on its own thread — the syscall floor under
/// every wire-tier message.
fn uds_frame_s(frame: &Frame, frames: usize, direct: bool) -> f64 {
    let (tx, rx) = uds_pair();
    let samples: Vec<f64> = std::thread::scope(|s| {
        let reader = s.spawn(move || {
            let mut r = BufReader::new(rx);
            for _ in 0..(BATCHES + 1) * frames {
                if direct {
                    match read_frame_direct(&mut r).expect("probe read").0 {
                        RawFrame::Put { buf, payload, .. } => {
                            black_box(&buf[payload..]);
                        }
                        RawFrame::Other(f) => panic!("probe stream carried {f:?}"),
                    }
                } else {
                    black_box(read_frame(&mut r).expect("probe read"));
                }
            }
        });
        let mut w = BufWriter::new(tx);
        let mut out = Vec::new();
        for batch in 0..=BATCHES {
            let t0 = Instant::now();
            for _ in 0..frames {
                write_frame(&mut w, frame).expect("probe write");
            }
            w.flush().expect("probe flush");
            if batch > 0 {
                out.push(t0.elapsed().as_secs_f64() / frames as f64);
            }
        }
        reader.join().expect("probe reader");
        out
    });
    stats::median(&samples)
}

fn shm_probes(out: &mut Vec<(&'static str, f64)>) {
    // Rank 7: no fleet of this benchmark has one, so the segment file's
    // name cannot collide with a live fleet's.
    const ARENA: usize = 4 << 20;
    let create_open = per_call_s(20, || {
        let node = NodeShm::create(7, 0, 1, ARENA).expect("create probe segment");
        black_box(PeerShm::open(node.path()).expect("map probe segment"));
    });
    let node = NodeShm::create(7, 0, 1, ARENA).expect("create probe segment");
    node.alloc(0, 1, 2 << 20)
        .expect("probe window fits its arena");
    let peer = PeerShm::open(node.path()).expect("map probe segment");
    let window = peer.window(0, 1).expect("probe window is published");
    let flag = peer.flag(0, 2);
    let word = [0xA5u8; 8];
    let mib = vec![0x5Au8; 1 << 20];
    let mut landing = vec![0u8; 1 << 20];
    let write8 = per_call_s(1 << 16, || window.write(black_box(64), &word));
    let flag_add = per_call_s(1 << 16, || {
        flag.cell()
            .fetch_add(1, std::sync::atomic::Ordering::Release);
    });
    let write1m = per_call_s(16, || window.write(0, black_box(&mib)));
    let read1m = per_call_s(16, || window.read(0, black_box(&mut landing)));
    out.push(("shm.create_open_us", create_open * 1e6));
    out.push(("shm.write8_ns", write8 * 1e9));
    out.push(("shm.flag_add_ns", flag_add * 1e9));
    out.push(("shm.write1m_mbps", (1 << 20) as f64 / write1m / 1e6));
    out.push(("shm.read1m_mbps", (1 << 20) as f64 / read1m / 1e6));
}

fn blas_probes(out: &mut Vec<(&'static str, f64)>) {
    // The shapes the N=2048 / nb=64 / 1x2-grid factorization spends its
    // time in: a 2048 x 1024 trailing update of rank 64, and the 64-wide
    // U12 block-row solve.
    let (m, n, k) = (2048, 1024, 64);
    let a = vec![0.5f64; m * k];
    let b = vec![0.25f64; k * n];
    let mut c = vec![1.0f64; m * n];
    let dgemm = per_call_s(1, || blas::dgemm_minus(m, n, k, &a, m, &b, k, &mut c, m));
    let l = vec![0.001f64; k * k];
    let mut x = vec![1.0f64; k * n];
    let dtrsm = per_call_s(4, || blas::dtrsm_lower_unit(k, n, &l, k, &mut x, k));
    black_box((&c, &x));
    out.push((
        "hpl.dgemm_gflops",
        blas::dgemm_flops(m, n, k) as f64 / dgemm / 1e9,
    ));
    out.push((
        "hpl.dtrsm_gflops",
        blas::dtrsm_flops(k, n) as f64 / dtrsm / 1e9,
    ));
}

/// Run every probe; `(per-layer metric, value)` pairs.
pub fn run_all() -> Vec<(&'static str, f64)> {
    let mut out = Vec::new();

    // topology: hierarchy construction for the paper's largest launch,
    // and the cost model's closed forms for an 8 B put on each tier.
    let map = ImageMap::new(presets::whale(), 352, &Placement::Block { per_node: 8 });
    let members: Vec<ProcId> = (0..352).map(ProcId).collect();
    let build = per_call_s(50, || {
        black_box(HierarchyView::build(black_box(&map), &members));
    });
    let cost = presets::whale_cost();
    out.push(("topology.hierarchy_build_us", build * 1e6));
    out.push((
        "topology.model_put8_shm_ns",
        (cost.shm_put_latency_ns() + cost.shm_payload_ns(8)) as f64,
    ));
    out.push((
        "topology.model_put8_wire_ns",
        (cost.small_put_latency_ns(false) + cost.inter_payload_ns(8)) as f64,
    ));

    // fabric::socket::wire: codec cost per frame, then the same frames
    // across a real socket.
    let (put8, put1m, batch64) = (put_frame(8), put_frame(1 << 20), am_batch(64));
    out.push(("wire.encode_put8_ns", encode_s(&put8, 1 << 14) * 1e9));
    out.push(("wire.decode_put8_ns", decode_s(&put8, 1 << 14) * 1e9));
    out.push((
        "wire.encode_ambatch64_ns",
        encode_s(&batch64, 1 << 11) * 1e9,
    ));
    out.push((
        "wire.decode_ambatch64_ns",
        decode_s(&batch64, 1 << 11) * 1e9,
    ));
    out.push(("wire.encode_put1m_us", encode_s(&put1m, 16) * 1e6));
    out.push((
        "wire.uds_frame8_ns",
        uds_frame_s(&put8, 1 << 13, false) * 1e9,
    ));
    out.push((
        "wire.read_direct_put1m_us",
        uds_frame_s(&put1m, 16, true) * 1e6,
    ));

    shm_probes(&mut out);

    // fabric::{am,batch}: one op through the batcher, no fabric under it.
    let mut batcher = Batcher::new(AmPolicy::from_cost(&cost));
    let mut now = 0u64;
    let push_take = per_call_s(1 << 14, || {
        now += 1;
        let op = AmOp::PutFlag {
            seg: SegmentId(1),
            off: 0,
            data: vec![0xA5; 8],
            flag: FlagId(2),
            delta: 1,
        };
        if let Some(full) = batcher.push(1, op, now) {
            black_box(full);
        }
    });
    black_box(batcher.take(1));
    out.push(("am.push_take_ns", push_take * 1e9));

    // fabric::evq: push + pop of one event at a steady 4096-event depth
    // over 64 shards.
    let mut evq: ShardedEvq<u32> = ShardedEvq::new(64);
    let mut seq = 0u64;
    let push = |evq: &mut ShardedEvq<u32>, seq: &mut u64| {
        *seq += 1;
        let time = crate::fleet::mix(1, *seq) % 1_000_000 + *seq;
        evq.push(
            (*seq % 64) as usize,
            EvKey {
                time,
                tie: 0,
                seq: *seq,
            },
            0,
        );
    };
    for _ in 0..4096 {
        push(&mut evq, &mut seq);
    }
    let push_pop = per_call_s(1 << 14, || {
        push(&mut evq, &mut seq);
        black_box(evq.pop());
    });
    out.push(("evq.push_pop_ns", push_pop * 1e9));

    blas_probes(&mut out);
    out
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn every_probe_reports_a_positive_finite_number() {
        let out = run_all();
        assert_eq!(out.len(), 19);
        for (name, v) in out {
            assert!(v.is_finite() && v > 0.0, "{name} = {v}");
        }
    }
}
