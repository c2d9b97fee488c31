//! Segment/flag handles shared by every fabric implementation, plus the
//! relaxed-atomic segment storage of the real-memory fabrics and the one
//! copy routine all of them move payload bytes with.
//!
//! # Memory model
//!
//! PGAS puts and gets may race when the *user program* omits
//! synchronization, so segment memory is only ever touched atomically:
//! payload bytes move through `copy_in`/`copy_out` with `Relaxed`
//! accesses, and the fabrics' flag operations (release adds, acquire
//! waits) supply the happens-before edges that make a properly
//! synchronized program see whole payloads. A racy program still gets a
//! defined result — every byte it reads is a byte some put wrote (or the
//! initial zero) — but with one caveat the copy routine shares with
//! `socket::shm`: it is *mixed-size*. The ragged ends of a range are
//! `AtomicU8` accesses, its aligned middle `AtomicU64` accesses, and remote
//! atomics ([`SharedBytes::as_atomic_u64`]) are `AtomicU64` RMWs on the
//! same memory. Every target this crate supports performs such accesses
//! per byte without tearing below that, which is the behaviour relied on;
//! the language-level memory model, however, only defines unsynchronized
//! conflicting atomics of the *same* size, so a racing overlap of a byte
//! access with a word access is outside what it (or a model checker built
//! on it) promises. Programs that synchronize their transfers — everything
//! the runtime and the collectives issue — never create such an overlap.

#![deny(unsafe_op_in_unsafe_fn)]

use crate::socket::shm::ShmWindow;
use crossbeam::utils::Backoff;
use parking_lot::{Condvar, Mutex};
use std::fmt;
use std::sync::atomic::{AtomicU64, AtomicU8, AtomicUsize, Ordering};
use std::sync::Arc;
use std::time::Duration;

/// Handle to one segment of one image's memory.
///
/// Allocation is **image-local**: `alloc_segment(me, …)` creates storage on
/// `me` only and the returned id indexes `me`'s table. Remote access
/// therefore needs the *owner's* id. Teams obtain co-members' ids by
/// exchanging them through their parent team's communication structures
/// (see `caf-collectives`); images executing identical allocation sequences
/// (classic SPMD symmetry) get identical ids by construction.
#[derive(Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash)]
pub struct SegmentId(pub usize);

impl fmt::Debug for SegmentId {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "seg{}", self.0)
    }
}

/// Handle to one sync flag of one image. Allocation is image-local, like
/// [`SegmentId`].
#[derive(Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash)]
pub struct FlagId(pub usize);

impl FlagId {
    /// The `i`-th flag of a block allocated with `alloc_flags(count)`.
    #[inline]
    pub fn nth(self, i: usize) -> FlagId {
        FlagId(self.0 + i)
    }
}

impl fmt::Debug for FlagId {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "flag{}", self.0)
    }
}

/// Release-add `delta` to sync flag `flag` of image `img`: the one flag bump
/// of both real-memory fabrics. Release orders every earlier (relaxed)
/// payload store before the notification, so a waiter that acquires the
/// counter sees the payload; the counter is cumulative, and wrapping it is a
/// program error. Waking a parked waiter stays with the fabric that hosts
/// the cell.
#[inline]
pub(crate) fn bump_flag(cell: &AtomicU64, img: usize, flag: FlagId, delta: u64) {
    let old = cell.fetch_add(delta, Ordering::Release);
    assert!(
        old.checked_add(delta).is_some(),
        "sync flag counter overflow: image {img} flag {} \
         (cumulative counter wrapped adding {delta})",
        flag.0
    );
}

/// The waiting side of sync flags on a real-memory fabric: images that
/// spun out and parked. Each fabric has its own, and wakes it only for
/// cells it hosts — a waiter on a cell another process bumps polls.
#[derive(Default)]
pub(crate) struct FlagWaiters {
    parked: AtomicUsize,
    lock: Mutex<()>,
    cv: Condvar,
}

impl FlagWaiters {
    /// Wake parked waiters after a bump (or to let them see a poison);
    /// takes the lock only when someone may be parked.
    #[inline]
    pub(crate) fn wake(&self) {
        if self.parked.load(Ordering::SeqCst) > 0 {
            let _g = self.lock.lock();
            self.cv.notify_all();
        }
    }

    /// Wait — adaptive spin, then park — until `cell` reaches `at_least`
    /// (acquire: the bumps' payloads are visible on return). `check` runs
    /// every round the flag is still short and panics to abandon the wait.
    pub(crate) fn wait_ge(&self, cell: &AtomicU64, at_least: u64, mut check: impl FnMut()) {
        let backoff = Backoff::new();
        while cell.load(Ordering::Acquire) < at_least {
            check();
            if backoff.is_completed() {
                // Park with a timeout: a lost wakeup (adder saw parked == 0
                // just before we registered) resolves within one tick.
                self.parked.fetch_add(1, Ordering::SeqCst);
                let mut g = self.lock.lock();
                if cell.load(Ordering::Acquire) < at_least {
                    self.cv.wait_for(&mut g, Duration::from_micros(200));
                }
                drop(g);
                self.parked.fetch_sub(1, Ordering::SeqCst);
            } else {
                backoff.snooze();
            }
        }
    }
}

/// Whole words the copy loops move per unrolled step (64 bytes: one cache
/// line per iteration, enough independent loads and stores in flight that
/// the loop runs at the memory system's pace rather than the front end's).
const UNROLL: usize = 8;

/// How many bytes at address `addr` come before the first 8-byte boundary
/// (at most `len`): the ragged head the copy loops move bytewise.
#[inline]
fn ragged_head(addr: usize, len: usize) -> usize {
    (addr.wrapping_neg() & 7).min(len)
}

/// Relaxed copy of `src` into the `src.len()` bytes at `dst`: byte stores
/// on the ragged ends, aligned `AtomicU64` stores in between. The one
/// copy-in routine of every segment kind (heap [`SharedBytes`], and the
/// mmap-backed windows of `socket::shm`).
///
/// # Safety
/// `dst .. dst + src.len()` must lie inside one live allocation (or
/// mapping) that stays valid for the call, and every concurrent access to
/// those bytes — from this or any other process — must be atomic.
#[inline]
pub(crate) unsafe fn copy_in(dst: *const u8, src: &[u8]) {
    let n = src.len();
    let word = |i: usize| u64::from_ne_bytes(src[i..i + 8].try_into().expect("8-byte chunk"));
    // SAFETY: every pointer formed below is `dst + i` for an `i` the loop
    // conditions keep below `n`, in bounds by the caller's contract. The
    // word loops start at `dst + ragged_head`, an 8-byte boundary, and
    // step by whole words, so each word pointer is a valid, aligned
    // `AtomicU64`; byte pointers need no alignment. The atomics have the
    // representation of their integers, and the caller guarantees nobody
    // touches the range non-atomically.
    unsafe {
        let byte = |i: usize| &*(dst.add(i) as *const AtomicU8);
        let cell = |i: usize| &*(dst.add(i) as *const AtomicU64);
        let head = ragged_head(dst as usize, n);
        let mut i = 0;
        while i < head {
            byte(i).store(src[i], Ordering::Relaxed);
            i += 1;
        }
        while i + 8 * UNROLL <= n {
            for k in 0..UNROLL {
                cell(i + 8 * k).store(word(i + 8 * k), Ordering::Relaxed);
            }
            i += 8 * UNROLL;
        }
        while i + 8 <= n {
            cell(i).store(word(i), Ordering::Relaxed);
            i += 8;
        }
        while i < n {
            byte(i).store(src[i], Ordering::Relaxed);
            i += 1;
        }
    }
}

/// Relaxed copy of the `dst.len()` bytes at `src` into `dst`; the mirror
/// image of [`copy_in`] (byte loads on the ragged ends, aligned
/// `AtomicU64` loads in between).
///
/// # Safety
/// As for [`copy_in`], with `src .. src + dst.len()` the shared range.
#[inline]
pub(crate) unsafe fn copy_out(src: *const u8, dst: &mut [u8]) {
    let n = dst.len();
    // SAFETY: as in `copy_in` — every pointer is `src + i` for an `i`
    // below `n`, word pointers start at the 8-byte boundary
    // `src + ragged_head` and step by whole words, and all access to the
    // shared range is atomic.
    unsafe {
        let byte = |i: usize| &*(src.add(i) as *const AtomicU8);
        let cell = |i: usize| &*(src.add(i) as *const AtomicU64);
        let head = ragged_head(src as usize, n);
        let mut i = 0;
        while i < head {
            dst[i] = byte(i).load(Ordering::Relaxed);
            i += 1;
        }
        while i + 8 * UNROLL <= n {
            for k in 0..UNROLL {
                let w = cell(i + 8 * k).load(Ordering::Relaxed);
                dst[i + 8 * k..i + 8 * k + 8].copy_from_slice(&w.to_ne_bytes());
            }
            i += 8 * UNROLL;
        }
        while i + 8 <= n {
            dst[i..i + 8].copy_from_slice(&cell(i).load(Ordering::Relaxed).to_ne_bytes());
            i += 8;
        }
        while i < n {
            dst[i] = byte(i).load(Ordering::Relaxed);
            i += 1;
        }
    }
}

/// A zeroed byte buffer writable/readable concurrently from any thread
/// under the module's memory model. Backed by whole `AtomicU64` words, so
/// byte offset 0 is 8-byte aligned *by construction* and an 8-aligned
/// offset is an aligned AMO cell.
pub struct SharedBytes {
    words: Box<[AtomicU64]>,
    /// Length in bytes (`words` rounds it up to a whole word).
    len: usize,
}

impl SharedBytes {
    /// A zeroed buffer of `len` bytes. The storage comes from a zeroed
    /// allocation, so a large buffer costs its pages only as they are
    /// first touched.
    pub fn new(len: usize) -> Self {
        let n = len.div_ceil(8);
        let layout = std::alloc::Layout::array::<AtomicU64>(n).expect("segment size overflow");
        let words = if n == 0 {
            Box::default()
        } else {
            // SAFETY: `layout` has non-zero size. All-zero bytes are a valid
            // `AtomicU64`, so the `n` words are initialised; the pointer
            // came from the global allocator with exactly the layout
            // `Box<[AtomicU64]>` of length `n` frees with.
            unsafe {
                let p = std::alloc::alloc_zeroed(layout) as *mut AtomicU64;
                if p.is_null() {
                    std::alloc::handle_alloc_error(layout);
                }
                Box::from_raw(std::ptr::slice_from_raw_parts_mut(p, n))
            }
        };
        Self { words, len }
    }

    /// Buffer length in bytes.
    #[inline]
    pub fn len(&self) -> usize {
        self.len
    }

    /// True when the buffer has zero length.
    #[inline]
    pub fn is_empty(&self) -> bool {
        self.len == 0
    }

    /// `offset + n`, checked against the buffer.
    #[inline]
    fn end_of(&self, what: &str, offset: usize, n: usize) -> usize {
        let end = offset.checked_add(n).expect("segment offset overflow");
        assert!(
            end <= self.len,
            "{what} of {n} bytes at offset {offset} exceeds segment of {} bytes",
            self.len
        );
        end
    }

    /// Copy `src` into the buffer at `offset` (relaxed stores: the module's
    /// `copy_in`).
    pub fn write(&self, offset: usize, src: &[u8]) {
        self.end_of("put", offset, src.len());
        // SAFETY: `offset + src.len() <= len` was just checked and `words`
        // covers `len` bytes; the storage is only ever reached through
        // atomics (it is a `[AtomicU64]`, and this module's byte views).
        unsafe { copy_in((self.words.as_ptr() as *const u8).add(offset), src) }
    }

    /// Copy from the buffer at `offset` into `dst` (relaxed loads: the
    /// module's `copy_out`).
    pub fn read(&self, offset: usize, dst: &mut [u8]) {
        self.end_of("get", offset, dst.len());
        // SAFETY: as in `write`, for `offset + dst.len() <= len`.
        unsafe { copy_out((self.words.as_ptr() as *const u8).add(offset), dst) }
    }

    /// The aligned 8-byte cell at `offset`, for remote atomics.
    ///
    /// # Panics
    /// Panics if `offset` is not 8-byte aligned or out of range.
    pub fn as_atomic_u64(&self, offset: usize) -> &AtomicU64 {
        assert!(
            offset.is_multiple_of(8),
            "AMO offset {offset} not 8-byte aligned"
        );
        assert!(
            offset.checked_add(8).is_some_and(|end| end <= self.len),
            "AMO at offset {offset} exceeds segment of {} bytes",
            self.len
        );
        &self.words[offset / 8]
    }
}

/// What a request does to a window — decides the alignment it needs and
/// the words a refusal uses.
#[derive(Clone, Copy, PartialEq, Eq)]
pub(crate) enum Access {
    Put,
    Get,
    /// A remote atomic: 8 bytes at an 8-byte aligned offset.
    Amo,
}

/// A remote atomic on one aligned 8-byte cell.
#[derive(Clone, Copy)]
pub(crate) enum Amo {
    /// Wrapping add.
    Add(u64),
    /// Compare-and-swap.
    Cas { expected: u64, new: u64 },
}

/// One segment's storage as the fabrics address it: heap bytes, or a
/// window into a shared mapping (this process's own, or a same-host
/// peer's). The API and panic contract are those of [`SharedBytes`].
#[derive(Clone)]
pub(crate) enum Window {
    Heap(Arc<SharedBytes>),
    Shm(ShmWindow),
}

impl Window {
    #[inline]
    pub(crate) fn len(&self) -> usize {
        match self {
            Window::Heap(s) => s.len(),
            Window::Shm(w) => w.len(),
        }
    }

    #[inline]
    pub(crate) fn write(&self, offset: usize, src: &[u8]) {
        match self {
            Window::Heap(s) => s.write(offset, src),
            Window::Shm(w) => w.write(offset, src),
        }
    }

    #[inline]
    pub(crate) fn read(&self, offset: usize, dst: &mut [u8]) {
        match self {
            Window::Heap(s) => s.read(offset, dst),
            Window::Shm(w) => w.read(offset, dst),
        }
    }

    #[inline]
    fn as_atomic_u64(&self, offset: usize) -> &AtomicU64 {
        match self {
            Window::Heap(s) => s.as_atomic_u64(offset),
            Window::Shm(w) => w.as_atomic_u64(offset),
        }
    }

    /// Apply `amo` to the cell at `offset`; returns the value found there.
    /// The same physical atomic whichever way an image reaches the window,
    /// so atomicity holds across the own-process, mapped and wire paths.
    #[inline]
    pub(crate) fn amo(&self, offset: usize, amo: Amo) -> u64 {
        let cell = self.as_atomic_u64(offset);
        match amo {
            Amo::Add(delta) => cell.fetch_add(delta, Ordering::AcqRel),
            Amo::Cas { expected, new } => {
                match cell.compare_exchange(expected, new, Ordering::AcqRel, Ordering::Acquire) {
                    Ok(v) | Err(v) => v,
                }
            }
        }
    }

    /// Check an `access` of `len` bytes at `off` against the window
    /// without touching it. The refusals are worded as the accessors'
    /// own panics, so a caller that panics on `Err` fails exactly as the
    /// access would have.
    #[inline]
    pub(crate) fn check(&self, access: Access, off: u64, len: usize) -> Result<(), String> {
        let size = self.len();
        if access == Access::Amo && !off.is_multiple_of(8) {
            return Err(format!("AMO offset {off} not 8-byte aligned"));
        }
        if off
            .checked_add(len as u64)
            .is_some_and(|end| end <= size as u64)
        {
            return Ok(());
        }
        let what = match access {
            Access::Put => format!("put of {len} bytes"),
            Access::Get => format!("get of {len} bytes"),
            Access::Amo => "AMO".to_string(),
        };
        Err(format!(
            "{what} at offset {off} exceeds segment of {size} bytes"
        ))
    }
}

#[cfg(test)]
pub(crate) mod tests {
    use super::*;
    use proptest::prelude::*;

    /// Check a segment's `write`/`read` pair (the copy routine behind a
    /// bounds check) against a plain `Vec<u8>` model: every destination
    /// offset 0..=17 against every length 0..=41 and lengths either side of
    /// one and two unrolled steps, payload bytes drawn from `seed`. The
    /// window under test needs [`MODEL_SPAN`] bytes; the guard bytes either
    /// side of each transfer must come back untouched.
    pub(crate) fn check_copy_against_model(
        seed: u64,
        write: &dyn Fn(usize, &[u8]),
        read: &dyn Fn(usize, &mut [u8]),
    ) {
        let step = 8 * UNROLL;
        let lens = (0..=41)
            .chain(step - 9..=step + 9)
            .chain(2 * step - 9..=2 * step + 9)
            .chain([MAX_LEN]);
        let mut x = seed | 1;
        let mut byte = move || {
            // xorshift64: any non-zero seed, full period.
            x ^= x << 13;
            x ^= x >> 7;
            x ^= x << 17;
            x as u8
        };
        let guard: Vec<u8> = (0..MODEL_SPAN).map(|i| 0xA0 | (i % 13) as u8).collect();
        for len in lens {
            let data: Vec<u8> = (0..len).map(|_| byte()).collect();
            for offset in 0..=17 {
                let at = GUARD + offset;
                let mut model = guard.clone();
                write(0, &guard);
                write(at, &data);
                model[at..at + len].copy_from_slice(&data);
                let mut all = vec![0u8; MODEL_SPAN];
                read(0, &mut all);
                assert_eq!(all, model, "write of {len} bytes at {at}");
                let mut part = vec![0u8; len];
                read(at, &mut part);
                assert_eq!(part, data, "read of {len} bytes at {at}");
            }
        }
    }

    const GUARD: usize = 24;
    const MAX_LEN: usize = 4096 + 5;
    pub(crate) const MODEL_SPAN: usize = GUARD + 17 + MAX_LEN + GUARD;

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(8))]
        #[test]
        fn shared_bytes_copy_matches_model(seed in any::<u64>()) {
            let s = SharedBytes::new(MODEL_SPAN);
            check_copy_against_model(seed, &|o, b| s.write(o, b), &|o, b| s.read(o, b));
        }
    }

    #[test]
    fn shared_bytes_is_zeroed_and_word_aligned() {
        for len in [1, 7, 8, 9, 4097] {
            let s = SharedBytes::new(len);
            assert_eq!(s.len(), len);
            let mut out = vec![0xFFu8; len];
            s.read(0, &mut out);
            assert!(out.iter().all(|b| *b == 0), "fresh {len}-byte buffer");
            if len >= 8 {
                let cell: *const AtomicU64 = s.as_atomic_u64(0);
                assert_eq!(cell as usize % 8, 0);
            }
        }
    }

    #[test]
    #[should_panic(expected = "exceeds segment")]
    fn amo_past_the_byte_length_is_refused() {
        // 12 bytes round up to two words of storage; the second word is
        // not wholly inside the segment.
        SharedBytes::new(12).as_atomic_u64(8);
    }

    #[test]
    fn shared_bytes_roundtrip() {
        let s = SharedBytes::new(32);
        s.write(4, &[1, 2, 3, 4]);
        let mut out = [0u8; 6];
        s.read(3, &mut out);
        assert_eq!(out, [0, 1, 2, 3, 4, 0]);
    }

    #[test]
    #[should_panic(expected = "exceeds segment")]
    fn shared_bytes_bounds_checked() {
        let s = SharedBytes::new(8);
        s.write(5, &[0; 4]);
    }

    #[test]
    fn shared_bytes_atomic_u64_view() {
        let s = SharedBytes::new(24);
        let a = s.as_atomic_u64(8);
        a.store(0x0102_0304_0506_0708, Ordering::SeqCst);
        let mut out = [0u8; 8];
        s.read(8, &mut out);
        assert_eq!(u64::from_ne_bytes(out), 0x0102_0304_0506_0708);
        assert_eq!(a.fetch_add(1, Ordering::SeqCst), 0x0102_0304_0506_0708);
    }

    #[test]
    #[should_panic(expected = "not 8-byte aligned")]
    fn amo_alignment_enforced() {
        let s = SharedBytes::new(24);
        s.as_atomic_u64(4);
    }

    #[test]
    fn flag_id_nth() {
        assert_eq!(FlagId(10).nth(3), FlagId(13));
    }

    #[test]
    fn empty_shared_bytes() {
        let s = SharedBytes::new(0);
        assert!(s.is_empty());
        s.write(0, &[]);
        let mut out = [];
        s.read(0, &mut out);
    }
}
