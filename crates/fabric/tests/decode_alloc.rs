//! A decoder sizes its buffers by the bytes it was given, not by the
//! counts those bytes claim: a short body whose count field promises 2^24
//! items must fail as truncated without first asking the allocator for
//! hundreds of megabytes. A counting global allocator records the largest
//! single request made while each hostile input is decoded.

//!
//! The same allocator then watches a sweep over one frame of every kind
//! and one telemetry payload: each is cut at every length and has each
//! byte overwritten by 0x00 and by 0xFF, and every mutated body must
//! decode or fail as `InvalidData` — never panic — within the same bound.

use caf_fabric::socket::wire::Frame;
use caf_fabric::{
    AmOp, FlagId, HeartbeatSnapshot, HistSnapshot, NodeTelemetry, ObsSnapshot, PeerWireSnapshot,
    SegmentId, StatsSnapshot, TelemetryPhase,
};
use caf_trace::{Event, EventKind};
use std::alloc::{GlobalAlloc, Layout, System};
use std::collections::HashSet;
use std::io;
use std::sync::atomic::{AtomicUsize, Ordering};

/// [`System`], remembering the largest single allocation it served.
struct Counting;

static LARGEST: AtomicUsize = AtomicUsize::new(0);

unsafe impl GlobalAlloc for Counting {
    unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
        LARGEST.fetch_max(layout.size(), Ordering::Relaxed);
        unsafe { System.alloc(layout) }
    }

    unsafe fn dealloc(&self, ptr: *mut u8, layout: Layout) {
        unsafe { System.dealloc(ptr, layout) }
    }

    unsafe fn realloc(&self, ptr: *mut u8, layout: Layout, new_size: usize) -> *mut u8 {
        LARGEST.fetch_max(new_size, Ordering::Relaxed);
        unsafe { System.realloc(ptr, layout, new_size) }
    }
}

#[global_allocator]
static ALLOC: Counting = Counting;

const MIB: usize = 1 << 20;

/// Decode with `decode`, expecting `InvalidData`; returns the largest
/// single allocation made meanwhile.
fn largest_while<T: std::fmt::Debug>(decode: impl FnOnce() -> io::Result<T>) -> usize {
    LARGEST.store(0, Ordering::Relaxed);
    let err = decode().expect_err("a truncated body must not decode");
    let largest = LARGEST.load(Ordering::Relaxed);
    assert_eq!(err.kind(), io::ErrorKind::InvalidData, "{err}");
    largest
}

/// Every prefix of `body`, then `body` with each byte in turn overwritten
/// by 0x00 and by 0xFF.
fn mutations(body: &[u8]) -> impl Iterator<Item = Vec<u8>> + '_ {
    let cuts = (0..body.len()).map(|n| body[..n].to_vec());
    let overwrites = (0..body.len()).flat_map(move |i| {
        [0x00, 0xFF].map(|v| {
            let mut m = body.to_vec();
            m[i] = v;
            m
        })
    });
    cuts.chain(overwrites)
}

/// Decode every mutation of `body`: each must come back `Ok` or fail as
/// `InvalidData`, and no single allocation meanwhile may exceed 1 MiB.
fn sweep<T>(what: &str, body: &[u8], decode: impl Fn(&[u8]) -> io::Result<T>) {
    for m in mutations(body) {
        LARGEST.store(0, Ordering::Relaxed);
        let got = decode(&m).map(drop);
        let largest = LARGEST.load(Ordering::Relaxed);
        if let Err(e) = got {
            assert_eq!(
                e.kind(),
                io::ErrorKind::InvalidData,
                "{what}: {m:02x?}: {e}"
            );
        }
        assert!(
            largest <= MIB,
            "{what}: a mutated body of {} bytes allocated {largest} bytes",
            m.len()
        );
    }
}

/// A final shipment with every field set and a few events.
fn telemetry() -> NodeTelemetry {
    let mut put_ack = HistSnapshot {
        count: 3,
        sum_ns: 7000,
        max_ns: 4096,
        ..HistSnapshot::default()
    };
    put_ack.buckets[10] = 3;
    NodeTelemetry {
        node: 1,
        phase: TelemetryPhase::Final,
        sent_at_ns: 99,
        cause: "c".into(),
        images: vec![2, 3],
        stats: StatsSnapshot::from_words(std::array::from_fn(|i| i as u64 + 1)),
        obs: ObsSnapshot {
            heartbeat_period_ns: 5,
            peers: vec![PeerWireSnapshot::from_words([1, 2, 3, 4, 5, 6, 7])],
            heartbeats: vec![HeartbeatSnapshot {
                count: 8,
                sum_period_ns: 9,
                max_abs_dev_ns: 10,
            }],
            put_ack,
        },
        events: vec![
            Event::span(EventKind::Put, 10, 5).a(2).b(64),
            Event::instant(EventKind::FlagAdd, 20).a(1),
            Event::span(EventKind::Get, 30, 4).a(3).b(8),
        ],
    }
}

/// One frame of each variant of the public enum.
fn one_of_each() -> Vec<Frame> {
    let (src, dst, seg, off, ack, req) = (1, 2, 3, 4, 5, 6);
    let data = vec![0xd0, 0xd1, 0xd2];
    vec![
        Frame::Open {
            node: 1,
            magic: 7,
            shm: "/s".into(),
        },
        Frame::Put {
            src,
            dst,
            seg,
            off,
            ack,
            data: data.clone(),
        },
        Frame::PutFlag {
            src,
            dst,
            seg,
            off,
            ack,
            data: data.clone(),
            flag: 8,
            delta: 9,
        },
        Frame::PutAck { ack },
        Frame::Get {
            src,
            dst,
            seg,
            off,
            len: 8,
            req,
        },
        Frame::GetResp { req, data },
        Frame::AmoFadd {
            src,
            dst,
            seg,
            off,
            delta: 9,
            req,
        },
        Frame::AmoCas {
            src,
            dst,
            seg,
            off,
            expected: 10,
            new: 11,
            req,
        },
        Frame::AmoResp { req, old: 10 },
        Frame::AmBatch {
            src,
            dst,
            ack,
            ops: vec![
                AmOp::Put {
                    seg: SegmentId(3),
                    off: 4,
                    data: vec![0xd0],
                },
                AmOp::FlagAdd {
                    flag: FlagId(6),
                    delta: 7,
                },
                AmOp::AmoAdd {
                    seg: SegmentId(3),
                    off: 8,
                    delta: 7,
                },
                AmOp::PutFlag {
                    seg: SegmentId(3),
                    off: 4,
                    data: vec![0xd1],
                    flag: FlagId(6),
                    delta: 7,
                },
            ],
        },
        Frame::FlagAdd {
            src,
            dst,
            flag: 8,
            delta: 9,
        },
        Frame::Heartbeat {
            node: 1,
            stats: StatsSnapshot::from_words(std::array::from_fn(|i| i as u64)),
        },
        Frame::Bye { node: 1 },
        Frame::Rejoin {
            node: 1,
            generation: 12,
            addr: "uds:/a".into(),
            magic: 7,
            shm: "/s".into(),
        },
        Frame::RecoverBarrier {
            node: 1,
            round: 2,
            generation: 12,
        },
        Frame::Hello {
            node: 1,
            addr: "uds:/a".into(),
            magic: 7,
        },
        Frame::Peers {
            addrs: vec!["uds:/a".into(), "uds:/b".into()],
        },
        Frame::Done {
            node: 1,
            results: vec![(2, 13), (3, 14)],
        },
        Frame::Abort { msg: "x".into() },
        Frame::Telemetry {
            node: 1,
            payload: telemetry().encode(),
        },
    ]
}

/// One test, so no other test thread allocates while a decode is measured.
#[test]
fn a_claimed_count_does_not_size_the_allocation() {
    // `Frame::Done`: tag 18, node 0, then 2^24 results that never follow.
    let mut done = vec![18u8];
    done.extend_from_slice(&0u32.to_le_bytes());
    done.extend_from_slice(&(1u32 << 24).to_le_bytes());
    assert_eq!(done.len(), 9);
    let largest = largest_while(|| Frame::decode(&done));
    assert!(
        largest <= MIB,
        "Done body of 9 bytes allocated {largest} bytes"
    );

    // A telemetry payload with no events, its event count (the last field)
    // rewritten to 2^24.
    let mut payload = NodeTelemetry {
        node: 0,
        phase: TelemetryPhase::Final,
        sent_at_ns: 0,
        cause: String::new(),
        images: vec![0, 1],
        stats: StatsSnapshot::default(),
        obs: ObsSnapshot::default(),
        events: Vec::new(),
    }
    .encode();
    let at = payload.len() - 4;
    payload[at..].copy_from_slice(&(1u32 << 24).to_le_bytes());
    let len = payload.len();
    let largest = largest_while(|| NodeTelemetry::decode(&payload));
    assert!(
        largest <= MIB,
        "telemetry payload of {len} bytes allocated {largest} bytes"
    );

    // Hostile bytes in every frame and in a telemetry payload.
    let frames = one_of_each();
    let kinds: HashSet<_> = frames.iter().map(std::mem::discriminant).collect();
    assert_eq!(kinds.len(), 20, "one frame of each kind");
    for f in &frames {
        assert_eq!(Frame::decode(&f.encode()[4..]).unwrap(), *f);
        sweep(&format!("{f:?}"), &f.encode()[4..], Frame::decode);
    }
    let payload = telemetry().encode();
    assert_eq!(NodeTelemetry::decode(&payload).unwrap(), telemetry());
    sweep("telemetry", &payload, NodeTelemetry::decode);
}
