//! A decoder sizes its buffers by the bytes it was given, not by the
//! counts those bytes claim: a short body whose count field promises 2^24
//! items must fail as truncated without first asking the allocator for
//! hundreds of megabytes. A counting global allocator records the largest
//! single request made while each hostile input is decoded.

use caf_fabric::socket::wire::Frame;
use caf_fabric::{NodeTelemetry, ObsSnapshot, StatsSnapshot, TelemetryPhase};
use std::alloc::{GlobalAlloc, Layout, System};
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
}
