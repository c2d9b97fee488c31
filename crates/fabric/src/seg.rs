//! Segment/flag handles shared by every fabric implementation, plus the
//! relaxed-atomic segment storage of the real-memory fabrics — one
//! [`Window`] type for every segment, heap or mapped, own or a peer's, and
//! one [`FlagCell`] for every flag — the one copy routine all of them move
//! payload bytes with, and the tables both of them keep their windows and
//! flag cells in (`Tables`: read through per-thread views, so that reaching
//! intranode memory costs one generation load — no lock, no shared
//! reference count).
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
//! atomics ([`Window::as_atomic_u64`]) are `AtomicU64` RMWs on the
//! same memory. Every target this crate supports performs such accesses
//! per byte without tearing below that, which is the behaviour relied on;
//! the language-level memory model, however, only defines unsynchronized
//! conflicting atomics of the *same* size, so a racing overlap of a byte
//! access with a word access is outside what it (or a model checker built
//! on it) promises. Programs that synchronize their transfers — everything
//! the runtime and the collectives issue — never create such an overlap.

#![deny(unsafe_op_in_unsafe_fn)]

use crate::socket::shm::PeerShm;
use caf_topology::ProcId;
use crossbeam::utils::{Backoff, CachePadded};
use parking_lot::{Condvar, Mutex, RwLock};
use std::any::Any;
use std::cell::RefCell;
use std::fmt;
use std::io;
use std::ptr::NonNull;
use std::rc::Rc;
use std::sync::atomic::{AtomicBool, AtomicU64, AtomicU8, AtomicUsize, Ordering};
use std::sync::{Arc, Weak};
use std::time::Duration;

/// Handle to one segment of one image's memory.
///
/// Allocation is **image-local**: `alloc_segment(me, …)` creates storage on
/// `me` only and the returned id indexes `me`'s table; `alloc_segment(me,
/// 0)` is a peek at the next id. Teams make ids symmetric with it — peek,
/// agree on the largest, pad, allocate (see `caf-collectives`) — so a
/// team's members address a co-member's segment by their own id.
#[derive(Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash)]
pub struct SegmentId(pub usize);

impl fmt::Debug for SegmentId {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "seg{}", self.0)
    }
}

/// Handle to one sync flag of one image. Allocation (and the peek) is
/// image-local, like [`SegmentId`]'s.
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

/// The counted wait on a block of sync flags. A flag accumulates and is
/// never reset (the paper's `sync_flags` carry), so the next `n` arrivals
/// on it are in once it reaches what its image has consumed so far plus
/// `n`. This record keeps that count, one per flag of the block, and
/// [`Arrivals::wait`] is the one place it grows.
#[derive(Clone, Debug)]
pub struct Arrivals {
    block: FlagId,
    counts: Vec<u64>,
}

impl Arrivals {
    /// Nothing consumed yet on the `len` flags from `block` on.
    pub fn new(block: FlagId, len: usize) -> Self {
        Self {
            block,
            counts: vec![0; len],
        }
    }

    /// Flag `i` of the block.
    pub fn flag(&self, i: usize) -> FlagId {
        self.block.nth(i)
    }

    /// Image `me` waits for `n` more arrivals on its flag `i` and consumes
    /// them; returns the threshold waited for. Waiting for none is no wait.
    pub fn wait(&mut self, fabric: &dyn crate::Fabric, me: ProcId, i: usize, n: u64) -> u64 {
        if n > 0 {
            self.counts[i] += n;
            fabric.flag_wait_ge(me, self.flag(i), self.counts[i]);
        }
        self.counts[i]
    }

    /// Image `me` waits until its flag `i` has brought `total` arrivals in
    /// all and consumes them — a wait for credits granted once per episode
    /// but drawn only on some. Nothing when that many are consumed already.
    pub fn wait_until(&mut self, fabric: &dyn crate::Fabric, me: ProcId, i: usize, total: u64) {
        let n = total.saturating_sub(self.counts[i]);
        self.wait(fabric, me, i, n);
    }

    /// Arrivals on image `me`'s flag `i` not consumed yet (never blocks).
    pub fn pending(&self, fabric: &dyn crate::Fabric, me: ProcId, i: usize) -> u64 {
        fabric.flag_read(me, self.flag(i)) - self.counts[i]
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
    /// every round the flag is still short and panics to abandon the wait;
    /// it is told when a clock read is due — on the first miss, then once
    /// per park and every 64th spin — so a wait that is already satisfied,
    /// or is satisfied within the spin phase, never reads the clock.
    pub(crate) fn wait_ge(&self, cell: &AtomicU64, at_least: u64, mut check: impl FnMut(bool)) {
        let backoff = Backoff::new();
        let mut spins = 0u32;
        while cell.load(Ordering::Acquire) < at_least {
            if backoff.is_completed() {
                check(true);
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
                check(spins.is_multiple_of(64));
                spins += 1;
                backoff.snooze();
            }
        }
    }
}

/// Why a real-memory fabric stopped — an image died, a peer broke the
/// protocol or went silent — recorded once, the first cause winning, so
/// that every wait gives up with the cause instead of spinning forever.
#[derive(Default)]
pub(crate) struct Poison {
    set: AtomicBool,
    cause: Mutex<Option<String>>,
}

impl Poison {
    /// Record `cause`, unless one is recorded already. The caller wakes
    /// whoever waits.
    pub(crate) fn set(&self, cause: &str) {
        self.cause.lock().get_or_insert_with(|| cause.to_string());
        self.set.store(true, Ordering::Release);
    }

    /// The recorded cause, once poisoned.
    pub(crate) fn cause(&self) -> Option<String> {
        (self.set.load(Ordering::Acquire)).then(|| self.cause.lock().clone().unwrap_or_default())
    }

    /// [`Fabric::health`](crate::Fabric::health): `Poisoned` with the cause.
    pub(crate) fn health(&self) -> Result<(), crate::RecoveryError> {
        self.cause()
            .map_or(Ok(()), |m| Err(crate::RecoveryError::Poisoned(m)))
    }

    /// The wait-time check: once poisoned, image `me`'s `doing` fails with
    /// the cause.
    #[inline]
    pub(crate) fn check(&self, me: ProcId, doing: &str) {
        if let Some(cause) = self.cause() {
            panic!("image {} {doing} failed: {cause}", me.index() + 1);
        }
    }

    /// Forget the cause: the fabric was healed (or a test lifts it).
    pub(crate) fn clear(&self) {
        *self.cause.lock() = None;
        self.set.store(false, Ordering::Release);
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
/// copy-in routine of every [`Window`], heap or mapped.
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

impl Amo {
    /// Apply to `cell`; returns the value found there.
    #[inline]
    fn apply(self, cell: &AtomicU64) -> u64 {
        match self {
            Amo::Add(delta) => cell.fetch_add(delta, Ordering::AcqRel),
            Amo::Cas { expected, new } => {
                match cell.compare_exchange(expected, new, Ordering::AcqRel, Ordering::Acquire) {
                    Ok(v) | Err(v) => v,
                }
            }
        }
    }
}

/// What holds a window's or a flag cell's memory alive wherever any thread
/// may use it — the tables, a window handed to a service thread: heap
/// words, or this process's map of a segment file. It is only held, never
/// looked into.
pub type Keep = Arc<dyn Any + Send + Sync>;

/// What holds it alive for the length of one direct op: the issuing
/// thread's own handle on a table entry or on a peer's mapped segment,
/// taken and dropped without touching a shared reference count.
pub(crate) type Local = Rc<dyn Any>;

/// An address in memory that is only ever accessed through atomics.
#[derive(Clone, Copy)]
struct Addr(NonNull<u8>);

// SAFETY: every access through an `Addr` is atomic (the copy routines
// above, `AtomicU64` cells), so handing one to another thread shares
// atomics and nothing else; the keep it travels with holds the memory.
unsafe impl Send for Addr {}
unsafe impl Sync for Addr {}

/// One segment's storage as the fabrics address it: `len` bytes at `base`
/// — heap words, or a window into a shared mapping (this process's own, or
/// a same-host peer's) — and what holds them alive: a [`Keep`] in the
/// tables, a `Local` in a direct op's hand. Every access is checked
/// against `len` by one rule (`Window::check`); `keep` is never looked
/// into to reach a byte.
///
/// Every base is 8-byte aligned — heap windows are whole `AtomicU64` words,
/// mapped ones are carved at 64 B from a page-aligned mapping — so an
/// 8-aligned offset is an aligned AMO cell.
#[derive(Clone)]
pub struct Window<K = Keep> {
    base: Addr,
    len: usize,
    keep: K,
}

impl<K> Window<K> {
    /// `keep` must hold `base .. base + len`, which nothing touches but
    /// atomically.
    #[inline]
    fn new(base: NonNull<u8>, len: usize, keep: K) -> Self {
        debug_assert!(
            base.as_ptr().addr().is_multiple_of(8),
            "window base {base:p} not 8-byte aligned"
        );
        Window {
            base: Addr(base),
            len,
            keep,
        }
    }

    /// Window length in bytes.
    #[inline]
    pub fn len(&self) -> usize {
        self.len
    }

    /// True when the window has zero length.
    #[inline]
    pub fn is_empty(&self) -> bool {
        self.len == 0
    }

    /// Check an `access` of `len` bytes at `off` against the window
    /// without touching it: the one rule every accessor asserts through.
    /// A refusal is worded as the accessors' own panic, so a caller that
    /// panics on `Err` fails exactly as the access would have.
    #[inline]
    pub(crate) fn check(&self, access: Access, off: u64, len: usize) -> Result<(), String> {
        let aligned = access != Access::Amo || off.is_multiple_of(8);
        let end = off.checked_add(len as u64);
        if aligned && end.is_some_and(|end| end <= self.len as u64) {
            return Ok(());
        }
        Err(self.refusal(access, off, len))
    }

    #[cold]
    #[inline(never)]
    fn refusal(&self, access: Access, off: u64, len: usize) -> String {
        let what = match access {
            Access::Amo if !off.is_multiple_of(8) => {
                return format!("AMO offset {off} not 8-byte aligned")
            }
            Access::Put => format!("put of {len} bytes"),
            Access::Get => format!("get of {len} bytes"),
            Access::Amo => "AMO".to_string(),
        };
        format!(
            "{what} at offset {off} exceeds segment of {} bytes",
            self.len
        )
    }

    /// The address of an `access` of `len` bytes at `off`, once
    /// [`Window::check`] has cleared it; its refusal is the panic.
    #[inline(always)]
    fn at(&self, access: Access, off: usize, len: usize) -> *mut u8 {
        if let Err(why) = self.check(access, off as u64, len) {
            panic!("{why}");
        }
        self.base.0.as_ptr().wrapping_add(off)
    }

    /// Copy `src` into the window at `offset` (relaxed stores: the module's
    /// `copy_in`).
    #[inline]
    pub fn write(&self, offset: usize, src: &[u8]) {
        let dst = self.at(Access::Put, offset, src.len());
        // SAFETY: `at` checked the range against the window, whose bytes
        // `keep` holds and nobody touches but atomically.
        unsafe { copy_in(dst, src) }
    }

    /// Copy from the window at `offset` into `dst` (relaxed loads: the
    /// module's `copy_out`).
    #[inline]
    pub fn read(&self, offset: usize, dst: &mut [u8]) {
        let src = self.at(Access::Get, offset, dst.len());
        // SAFETY: as in `write`.
        unsafe { copy_out(src, dst) }
    }

    /// The aligned 8-byte cell at `offset`, for remote atomics.
    ///
    /// # Panics
    /// Panics if `offset` is not 8-byte aligned or out of range.
    #[inline]
    pub fn as_atomic_u64(&self, offset: usize) -> &AtomicU64 {
        let cell = self.at(Access::Amo, offset, 8);
        // SAFETY: as in `write`, for 8 bytes at an 8-aligned offset from the
        // 8-aligned base: an aligned `AtomicU64`, alive while `self` is.
        unsafe { &*cell.cast::<AtomicU64>() }
    }

    /// Apply `amo` to the cell at `offset`; returns the value found there.
    /// The same physical atomic whichever way an image reaches the window,
    /// so atomicity holds across the own-process, mapped and wire paths.
    #[inline]
    pub(crate) fn amo(&self, offset: usize, amo: Amo) -> u64 {
        amo.apply(self.as_atomic_u64(offset))
    }

    /// Zero the whole window, a page of relaxed stores at a time.
    pub fn zero(&self) {
        static PAGE: [u8; 4096] = [0; 4096];
        for at in (0..self.len).step_by(PAGE.len()) {
            self.write(at, &PAGE[..PAGE.len().min(self.len - at)]);
        }
    }

    /// Where the `len` bytes at `at` of this window start, once checked
    /// to lie inside it at an 8-byte boundary: the base of a window carved
    /// from this one.
    #[inline(always)]
    fn carve(&self, at: usize, len: usize) -> NonNull<u8> {
        assert!(
            at.is_multiple_of(8) && at.checked_add(len).is_some_and(|end| end <= self.len),
            "a window of {len} bytes at {at} is not 8-byte aligned inside {} bytes",
            self.len
        );
        NonNull::new(self.base.0.as_ptr().wrapping_add(at)).expect("inside a live window")
    }

    /// The address of the flag cell at `at`: [`Window::as_atomic_u64`]'s
    /// check, made once, when the cell is.
    #[inline(always)]
    fn cell_at(&self, at: usize) -> Addr {
        Addr(NonNull::from(self.as_atomic_u64(at)).cast())
    }
}

impl Window {
    /// A zeroed heap window of `len` bytes, held as whole `AtomicU64`
    /// words. The storage comes from a zeroed allocation, so a large window
    /// costs its pages only as they are first touched.
    pub fn heap(len: usize) -> Window {
        let n = len.div_ceil(8);
        let layout = std::alloc::Layout::array::<AtomicU64>(n).expect("segment size overflow");
        let words: Box<[AtomicU64]> = if n == 0 {
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
        let words = Arc::new(words);
        Window::new(NonNull::from(&words[..]).cast(), len, words as Keep)
    }

    /// The first `len` bytes of `file`, mapped shared: the window a segment
    /// file's windows and flag cells are carved from. The map goes with the
    /// last window or cell held by it.
    pub(crate) fn map(file: &std::fs::File, len: usize) -> io::Result<Window> {
        #[cfg(unix)]
        {
            use std::os::fd::AsRawFd;
            let (rw, fd) = (sys::PROT_READ | sys::PROT_WRITE, file.as_raw_fd());
            // SAFETY: a fresh shared map at an address of the kernel's
            // choosing, aliasing nothing this process holds.
            let ptr = unsafe { sys::mmap(std::ptr::null_mut(), len, rw, sys::MAP_SHARED, fd, 0) };
            if ptr as isize == -1 {
                return Err(io::Error::last_os_error());
            }
            let base =
                NonNull::new(ptr.cast()).ok_or_else(|| io::Error::other("mmap gave null"))?;
            Ok(Window::new(
                base,
                len,
                Arc::new(Mmap(Addr(base), len)) as Keep,
            ))
        }
        #[cfg(not(unix))]
        {
            let _ = (file, len);
            Err(io::Error::new(
                io::ErrorKind::Unsupported,
                "shared-memory segments need mmap (unix only)",
            ))
        }
    }

    /// The `len` bytes at `at`, held like this window.
    pub(crate) fn window(&self, at: usize, len: usize) -> Window {
        Window::new(self.carve(at, len), len, self.keep.clone())
    }

    /// The flag cell at `at`, held like this window.
    pub(crate) fn flag(&self, at: usize) -> FlagCell {
        FlagCell {
            cell: self.cell_at(at),
            _keep: self.keep.clone(),
        }
    }

    /// A table entry, held through the issuing thread's handle on it: the
    /// form a direct op takes.
    #[inline(always)]
    pub(crate) fn local(self: Rc<Self>) -> Window<Local> {
        Window {
            base: self.base,
            len: self.len,
            keep: self,
        }
    }
}

impl Window<Local> {
    /// The `len` bytes at `at` of the window `of` holds (a peer's mapped
    /// segment), held through the thread's own handle `of`.
    ///
    /// The handle forms are forced inline, like the route's fronts: left
    /// to a hint, they handed a direct op its window back through memory,
    /// and a mapped `put_nb` + `flag_add` took 35 ns where it takes 22.
    #[inline(always)]
    pub(crate) fn of<T: AsRef<Window> + 'static>(of: Rc<T>, at: usize, len: usize) -> Self {
        Window::new((*of).as_ref().carve(at, len), len, of)
    }
}

#[cfg(unix)]
mod sys {
    use std::ffi::c_void;

    pub const PROT_READ: i32 = 1;
    pub const PROT_WRITE: i32 = 2;
    pub const MAP_SHARED: i32 = 1;

    extern "C" {
        pub fn mmap(
            addr: *mut c_void,
            len: usize,
            prot: i32,
            flags: i32,
            fd: i32,
            offset: i64,
        ) -> *mut c_void;
        pub fn munmap(addr: *mut c_void, len: usize) -> i32;
    }
}

/// A shared map of a segment file, unmapped when the last window or flag
/// cell held by it goes.
#[cfg(unix)]
struct Mmap(Addr, usize);

#[cfg(unix)]
impl Drop for Mmap {
    fn drop(&mut self) {
        // SAFETY: the map `Window::map` made; nothing holds into it any more.
        unsafe { sys::munmap(self.0 .0.as_ptr().cast(), self.1) };
    }
}

/// One sync flag's cell: a pointer to its `AtomicU64` — on the heap, or in
/// a shared flag table (this process's own, or a same-host peer's, where
/// mappers bump it without a frame), checked once, when the cell is made —
/// and what holds it alive, as for a [`Window`].
#[derive(Clone)]
pub struct FlagCell<K = Keep> {
    cell: Addr,
    /// Only held.
    _keep: K,
}

impl<K> FlagCell<K> {
    /// The cell.
    #[inline]
    pub fn cell(&self) -> &AtomicU64 {
        // SAFETY: an aligned `AtomicU64` inside the memory `keep` holds,
        // checked when the cell was made.
        unsafe { self.cell.0.cast::<AtomicU64>().as_ref() }
    }
}

impl FlagCell {
    /// A zeroed cell on the heap, on a cache line of its own.
    pub(crate) fn heap() -> FlagCell {
        let cell = Arc::new(CachePadded::new(AtomicU64::new(0)));
        FlagCell {
            cell: Addr(NonNull::from(&**cell).cast()),
            _keep: cell,
        }
    }

    /// A table entry, held through the issuing thread's handle on it: the
    /// form a direct op bumps.
    #[inline(always)]
    pub(crate) fn local(self: Rc<Self>) -> FlagCell<Local> {
        FlagCell {
            cell: self.cell,
            _keep: self,
        }
    }
}

impl FlagCell<Local> {
    /// The flag cell at `at` of the window `of` holds, as [`Window::of`].
    #[inline(always)]
    pub(crate) fn of<T: AsRef<Window> + 'static>(of: Rc<T>, at: usize) -> Self {
        FlagCell {
            cell: (*of).as_ref().cell_at(at),
            _keep: of,
        }
    }
}

/// A value that moves rarely — at an allocation, a recovery reset, a
/// rejoin — and is looked at by every op: writers and a reader's first
/// look go through the lock; after that a reader keeps what it found with
/// the generation it found it at, and one acquire-load of the generation
/// tells it whether that still stands.
///
/// Every change bumps the generation under the write lock, and a reader
/// loads the generation *before* it takes the read lock to (re)fill. So
/// what a reader keeps under generation `g` was read after `g` was
/// current, and any later change moves the generation past `g`: a stale
/// entry can be *kept*, never *used* by a reader that the change
/// happens-before. (A reader the change races with could as well have won
/// the lock before it; the recovery fence exists so that nobody is.)
struct Versioned<T> {
    gen: AtomicU64,
    value: RwLock<T>,
}

impl<T> Versioned<T> {
    fn new(value: T) -> Self {
        Self {
            // A fresh view holds generation 0: its first look always fills.
            gen: AtomicU64::new(1),
            value: RwLock::new(value),
        }
    }

    fn update<R>(&self, change: impl FnOnce(&mut T) -> R) -> R {
        let mut value = self.value.write();
        self.gen.fetch_add(1, Ordering::Release);
        change(&mut value)
    }
}

#[derive(Default)]
struct Entries {
    segs: Vec<Window>,
    flags: Vec<FlagCell>,
}

/// One hosted image's windows and flag cells.
pub(crate) struct ImageTables {
    /// Index among the images hosted with it: the image's slot in a
    /// shared segment's tables.
    local: usize,
    entries: Versioned<Entries>,
}

impl ImageTables {
    pub(crate) fn local(&self) -> usize {
        self.local
    }

    /// Append the window `make` builds for the id it is given; a `len` of 0
    /// is a peek at the id, which moves nothing (not even the generation).
    pub(crate) fn push_segment(&self, len: usize, make: impl FnOnce(usize) -> Window) -> SegmentId {
        if len == 0 {
            return SegmentId(self.entries.value.read().segs.len());
        }
        self.entries.update(|e| {
            let id = e.segs.len();
            e.segs.push(make(id));
            SegmentId(id)
        })
    }

    /// Append `count` flag cells, each as `make` builds it for its id;
    /// returns the first.
    pub(crate) fn push_flags(&self, count: usize, make: impl FnMut(usize) -> FlagCell) -> FlagId {
        self.entries.update(|e| {
            let id = e.flags.len();
            e.flags.extend((id..id + count).map(make));
            FlagId(id)
        })
    }
}

/// The per-image tables of a socket process — of the images it hosts, every
/// image of a one-process run — plus the mapped segments of its same-host
/// peers: everything a direct op resolves its target through.
///
/// All of it is read through the issuing thread's [`View`]: in steady
/// state, reaching a window, a flag cell or a peer's mapping costs one
/// generation load ([`Versioned`]) and no lock, and nothing on the way
/// touches a shared reference count.
pub(crate) struct Tables {
    /// What a view of these tables watches to learn they are gone, and is
    /// told from other tables' views by: a `Weak` keeps the allocation, so
    /// its address is not reused while any view of it exists.
    alive: Arc<()>,
    /// Per global image; `Some` for the images hosted here.
    images: Vec<Option<ImageTables>>,
    /// Per process rank: the peer's mapped segment, once it announced one.
    peers: Vec<Versioned<Option<PeerShm>>>,
}

/// One thread's view of one [`Tables`]: the entries it has resolved, each
/// group under the generation it was read at.
struct View {
    /// The viewed tables' `alive`.
    of: Weak<()>,
    images: Vec<ImageView>,
    peers: Vec<PeerView>,
}

#[derive(Default)]
struct ImageView {
    gen: u64,
    segs: Vec<Option<Rc<Window>>>,
    flags: Vec<Option<Rc<FlagCell>>>,
}

#[derive(Default)]
struct PeerView {
    gen: u64,
    /// `None`: the peer has no mapped segment (as of `gen`).
    shm: Option<Rc<PeerShm>>,
}

thread_local! {
    /// This thread's views, one per [`Tables`] it resolved something
    /// through. A view holds counted references to windows and mappings,
    /// so it is dropped — with the thread at the latest — the next time
    /// the thread builds a view after its tables are gone; a segment
    /// *file* never waits for that (its owner's `NodeShm` unlinks it).
    static VIEWS: RefCell<Vec<View>> = const { RefCell::new(Vec::new()) };
}

/// Entry `at` through `cache`, looked up with `table` the first time.
///
/// The hit is forced inline and the rest kept out of line, here and in
/// the callers up to the fabrics' ops (which live in other codegen
/// units): left to hints, the resolver stayed a chain of calls returning
/// `Result`s through memory, and a tenth of an own-tier op's time.
#[inline(always)]
fn cached<T: Clone>(
    cache: &mut Vec<Option<Rc<T>>>,
    table: impl FnOnce() -> Result<T, String>,
    at: usize,
) -> Result<Rc<T>, String> {
    match cache.get(at) {
        Some(Some(hit)) => Ok(hit.clone()),
        _ => fill(cache, table, at),
    }
}

#[cold]
#[inline(never)]
fn fill<T: Clone>(
    cache: &mut Vec<Option<Rc<T>>>,
    table: impl FnOnce() -> Result<T, String>,
    at: usize,
) -> Result<Rc<T>, String> {
    // Looked up before the cache grows: `at` may be wire-supplied.
    let found = Rc::new(table()?);
    if cache.len() <= at {
        cache.resize(at + 1, None);
    }
    cache[at] = Some(found.clone());
    Ok(found)
}

/// Entry `at` of one of image `img`'s tables; `id` names it in the
/// refusal, as a `SegmentId` or `FlagId` prints.
fn entry<T: Clone>(table: &[T], img: usize, at: usize, id: impl fmt::Debug) -> Result<T, String> {
    let missing = || format!("image {img} has no {id:?} (out of {})", table.len());
    table.get(at).cloned().ok_or_else(missing)
}

/// One image's tables as a thread holds them for a run of lookups
/// ([`Tables::with_image`]): its view of them, current, and the tables
/// behind it for what the view does not have yet.
pub(crate) struct Held<'a> {
    img: usize,
    seen: &'a mut ImageView,
    entries: &'a Versioned<Entries>,
}

impl Held<'_> {
    /// The image's window `seg`.
    #[inline(always)]
    pub(crate) fn window(&mut self, seg: usize) -> Result<Rc<Window>, String> {
        let (img, entries) = (self.img, self.entries);
        let table = || entry(&entries.value.read().segs, img, seg, SegmentId(seg));
        cached(&mut self.seen.segs, table, seg)
    }

    /// The image's flag cell `flag`.
    #[inline(always)]
    pub(crate) fn flag(&mut self, flag: usize) -> Result<Rc<FlagCell>, String> {
        let (img, entries) = (self.img, self.entries);
        let table = || entry(&entries.value.read().flags, img, flag, FlagId(flag));
        cached(&mut self.seen.flags, table, flag)
    }
}

impl Tables {
    /// Empty tables for the images `hosted` (in the order of their slots)
    /// out of `n_images`, and `n_peers` unmapped peer slots.
    pub(crate) fn new(n_images: usize, hosted: &[ProcId], n_peers: usize) -> Tables {
        let mut images: Vec<Option<ImageTables>> = (0..n_images).map(|_| None).collect();
        for (local, img) in hosted.iter().enumerate() {
            images[img.index()] = Some(ImageTables {
                local,
                entries: Versioned::new(Entries::default()),
            });
        }
        Tables {
            alive: Arc::new(()),
            images,
            peers: (0..n_peers).map(|_| Versioned::new(None)).collect(),
        }
    }

    /// Image `img`'s tables; a refusal, never a panic, for one not hosted
    /// here (the index may be wire-supplied).
    #[inline]
    pub(crate) fn image(&self, img: usize) -> Result<&ImageTables, String> {
        (self.images.get(img).and_then(Option::as_ref))
            .ok_or_else(|| format!("image {img} is not hosted by this process"))
    }

    /// Run `f` on this thread's view of these tables, building it on first
    /// use — which is also when the thread lets go of views whose tables
    /// are gone.
    #[inline(always)]
    fn with_view<R>(&self, f: impl FnOnce(&mut View) -> R) -> R {
        VIEWS.with_borrow_mut(|views| {
            let me = Arc::as_ptr(&self.alive);
            let at = match views.iter().position(|v| std::ptr::eq(v.of.as_ptr(), me)) {
                Some(at) => at,
                None => self.build_view(views),
            };
            f(&mut views[at])
        })
    }

    #[cold]
    #[inline(never)]
    fn build_view(&self, views: &mut Vec<View>) -> usize {
        views.retain(|v| v.of.strong_count() > 0);
        let mut view = View {
            of: Arc::downgrade(&self.alive),
            images: Vec::new(),
            peers: Vec::new(),
        };
        view.images
            .resize_with(self.images.len(), ImageView::default);
        view.peers.resize_with(self.peers.len(), PeerView::default);
        views.push(view);
        views.len() - 1
    }

    /// Run `f` with this thread's view of image `img` in hand — emptied
    /// first if the image's tables have changed since it was filled — for
    /// as many lookups as `f` makes: a batch pays for the way there once.
    /// `f` may not come back to these tables any other way (the thread's
    /// views are borrowed while it runs).
    #[inline(always)]
    pub(crate) fn with_image<R>(
        &self,
        img: usize,
        f: impl FnOnce(&mut Held<'_>) -> Result<R, String>,
    ) -> Result<R, String> {
        let entries = &self.image(img)?.entries;
        self.with_view(|view| {
            let seen = &mut view.images[img];
            let gen = entries.gen.load(Ordering::Acquire);
            if seen.gen != gen {
                *seen = ImageView {
                    gen,
                    ..ImageView::default()
                };
            }
            f(&mut Held { img, seen, entries })
        })
    }

    /// Image `img`'s flag cell `flag`.
    #[inline(always)]
    pub(crate) fn flag(&self, img: usize, flag: usize) -> Result<Rc<FlagCell>, String> {
        self.with_image(img, |held| held.flag(flag))
    }

    /// Process `rank`'s mapped segment, if it has one.
    #[inline(always)]
    pub(crate) fn peer(&self, rank: usize) -> Option<Rc<PeerShm>> {
        let slot = &self.peers[rank];
        self.with_view(|view| {
            let seen = &mut view.peers[rank];
            let gen = slot.gen.load(Ordering::Acquire);
            if seen.gen != gen {
                seen.shm = slot.value.read().clone().map(Rc::new);
                seen.gen = gen;
            }
            seen.shm.clone()
        })
    }

    /// Process `rank` announced the segment `shm` (a rejoin: its new
    /// incarnation's), or is left without one.
    pub(crate) fn set_peer(&self, rank: usize, shm: Option<PeerShm>) {
        self.peers[rank].update(|slot| *slot = shm);
    }

    /// Cut every image's tables back to their first `keep_segs` windows
    /// and `keep_flags` cells, zeroed.
    pub(crate) fn reset(&self, keep_segs: usize, keep_flags: usize) {
        for image in self.images.iter().flatten() {
            image.entries.update(|e| {
                e.segs.truncate(keep_segs);
                e.segs.iter().for_each(Window::zero);
                e.flags.truncate(keep_flags);
                for f in &e.flags {
                    f.cell().store(0, Ordering::Release);
                }
            });
        }
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
            let s = Window::heap(MODEL_SPAN);
            check_copy_against_model(seed, &|o, b| s.write(o, b), &|o, b| s.read(o, b));
        }
    }

    #[test]
    fn shared_bytes_is_zeroed_and_word_aligned() {
        for len in [1, 7, 8, 9, 4097] {
            let s = Window::heap(len);
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
        Window::heap(12).as_atomic_u64(8);
    }

    #[test]
    fn shared_bytes_roundtrip() {
        let s = Window::heap(32);
        s.write(4, &[1, 2, 3, 4]);
        let mut out = [0u8; 6];
        s.read(3, &mut out);
        assert_eq!(out, [0, 1, 2, 3, 4, 0]);
    }

    #[test]
    #[should_panic(expected = "exceeds segment")]
    fn shared_bytes_bounds_checked() {
        let s = Window::heap(8);
        s.write(5, &[0; 4]);
    }

    #[test]
    fn shared_bytes_atomic_u64_view() {
        let s = Window::heap(24);
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
        let s = Window::heap(24);
        s.as_atomic_u64(4);
    }

    /// A wait that is already satisfied checks nothing — so reads no
    /// clock; one that is not is told to read it on its first miss, then
    /// not again while it spins, then once per park.
    #[test]
    fn a_wait_says_when_a_clock_read_is_due() {
        let waiters = FlagWaiters::default();
        let cell = AtomicU64::new(3);
        waiters.wait_ge(&cell, 3, |_| {
            panic!("a satisfied wait has nothing to check")
        });
        let mut due = Vec::new();
        waiters.wait_ge(&cell, 4, |clock_due| {
            due.push(clock_due);
            if due.len() == 16 {
                cell.store(4, Ordering::Release);
            }
        });
        let spins = due.iter().skip(1).take_while(|d| !**d).count();
        assert!(due[0] && spins >= 8, "{due:?}");
        assert!(due[1 + spins..].iter().all(|d| *d), "{due:?}");
        assert_eq!(due.len(), 16);
    }

    /// The resolver's refusals, and what a view must not keep: an entry of
    /// tables that were reset, in this thread or another.
    #[test]
    fn tables_resolve_through_a_view_that_a_reset_empties() {
        let tables = Tables::new(3, &[ProcId(0), ProcId(2)], 0);
        let heap = Window::heap;
        let window = |img, seg| tables.with_image(img, |held| held.window(seg));
        for image in tables.images.iter().flatten() {
            assert_eq!(image.push_segment(8, |id| heap(8 + id)), SegmentId(0));
            assert_eq!(image.push_flags(2, |_| FlagCell::heap()), FlagId(0));
        }
        assert_eq!(tables.image(2).map(ImageTables::local), Ok(1));
        let refused = |r: Result<Rc<Window>, String>| r.map(|w| w.len()).unwrap_err();
        assert_eq!(
            refused(window(1, 0)),
            "image 1 is not hosted by this process"
        );
        assert_eq!(
            refused(window(7, 0)),
            "image 7 is not hosted by this process"
        );
        assert_eq!(
            refused(window(2, usize::MAX)),
            format!("image 2 has no seg{} (out of 1)", usize::MAX)
        );
        let missing = tables.flag(0, 2).map(|_| ()).unwrap_err();
        assert_eq!(missing, "image 0 has no flag2 (out of 2)");
        // Two looks give the one cached entry.
        let first = window(2, 0).expect("allocated");
        assert!(Rc::ptr_eq(&first, &window(2, 0).expect("cached")));
        let image = tables.image(2).expect("hosted");
        let grown = image.push_segment(100, |_| heap(100));
        let kept = tables.flag(2, 0).expect("allocated");
        kept.cell().store(9, Ordering::Release);
        std::thread::scope(|s| {
            // Another thread fills its own view, then resets under ours.
            s.spawn(|| {
                assert_eq!(window(2, grown.0).expect("allocated").len(), 100);
                tables.reset(1, 1);
                assert_eq!(image.push_segment(40, |_| heap(40)), grown);
                assert_eq!(window(2, grown.0).expect("allocated").len(), 40);
            });
        });
        assert_eq!(window(2, grown.0).expect("allocated").len(), 40);
        assert!(tables.flag(2, 1).is_err(), "cut by the reset");
        assert_eq!(kept.cell().load(Ordering::Acquire), 0, "kept, zeroed");
        assert_eq!(first.len(), 8, "a window in hand stays what it was");
    }

    #[test]
    fn flag_id_nth() {
        assert_eq!(FlagId(10).nth(3), FlagId(13));
    }

    #[test]
    fn empty_shared_bytes() {
        let s = Window::heap(0);
        assert!(s.is_empty());
        s.write(0, &[]);
        let mut out = [];
        s.read(0, &mut out);
    }
}
