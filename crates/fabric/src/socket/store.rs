//! Hosted storage: the windows and flag cells of the images this process
//! hosts, the one checked resolver every request for them goes through,
//! and allocation.
//!
//! Owns the per-image tables, this process's shared segment (arena,
//! directory, flag table) and the spill decision taken at allocation. It
//! knows nothing of peers: whether a request is served here at all is
//! [`route`](super::route)'s call, and a mapped peer's windows are
//! resolved against *its* directory, not this one. It may not touch
//! liveness, the pending table or a socket.

use super::shm;
use crate::am::AmOp;
use crate::seg::{Access, FlagId, SegmentId, SharedBytes, Window};
use caf_topology::ProcId;
use crossbeam::utils::CachePadded;
use parking_lot::{RwLock, RwLockReadGuard};
use std::fmt;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Arc;

/// One sync flag's cell: heap, or a slot in a shared flag table (this
/// process's own, or a same-host peer's) where mappers bump it without a
/// frame.
#[derive(Clone)]
pub(super) enum FlagCell {
    Heap(Arc<CachePadded<AtomicU64>>),
    Shm(shm::ShmFlag),
}

impl FlagCell {
    fn heap() -> Self {
        FlagCell::Heap(Arc::new(CachePadded::new(AtomicU64::new(0))))
    }

    #[inline]
    pub(super) fn cell(&self) -> &AtomicU64 {
        match self {
            FlagCell::Heap(c) => c,
            FlagCell::Shm(f) => f.cell(),
        }
    }
}

/// Per-hosted-image storage — same shape as the thread fabric's slots.
struct ImageSlot {
    /// Index among this process's hosted images: the image's slot in the
    /// shared segment's tables.
    local: usize,
    segs: RwLock<Vec<Window>>,
    flags: RwLock<Vec<FlagCell>>,
}

/// Everything this process hosts. Requests name a *global* image index;
/// one this process does not host is refused, never a panic.
pub(super) struct Store {
    /// Storage per global image; `Some` only for hosted images.
    slots: Vec<Option<ImageSlot>>,
    /// This process's shared-memory segment (`None`: tier disabled,
    /// single-process fleet, or unsupported platform).
    shm: Option<shm::NodeShm>,
}

/// Entry `at` of one of image `img`'s tables; `id` names it in the
/// refusal, as a `SegmentId` or `FlagId` prints.
fn entry<T>(table: &[T], img: usize, at: usize, id: impl fmt::Debug) -> Result<&T, String> {
    let missing = || format!("image {img} has no {id:?} (out of {})", table.len());
    table.get(at).ok_or_else(missing)
}

impl Store {
    /// Bootstrap storage (segment 0 and the control flags) for `hosted`,
    /// in rank order, out of `n_images` fleet-wide. With a shared segment,
    /// every hosted window lives in it so same-host peers (and
    /// direct-landing wire puts) reach it without staging.
    pub(super) fn new(n_images: usize, hosted: &[ProcId], shm: Option<shm::NodeShm>) -> Store {
        let mut slots: Vec<Option<ImageSlot>> = (0..n_images).map(|_| None).collect();
        for (local, img) in hosted.iter().enumerate() {
            slots[img.index()] = Some(ImageSlot {
                local,
                segs: RwLock::default(),
                flags: RwLock::default(),
            });
        }
        let store = Store { slots, shm };
        for img in hosted {
            store.alloc_segment(*img, n_images * crate::bootstrap::SLOT_BYTES);
            store.alloc_flags(*img, crate::bootstrap::NUM_FLAGS);
        }
        if let Some(s) = &store.shm {
            s.seal_bootstrap();
        }
        store
    }

    /// This process's shared-segment path, as announced in handshakes
    /// (empty when the tier is off).
    pub(super) fn shm_path(&self) -> String {
        self.shm
            .as_ref()
            .map(|s| s.path().display().to_string())
            .unwrap_or_default()
    }

    #[inline]
    fn slot(&self, img: usize) -> Result<&ImageSlot, String> {
        self.slots
            .get(img)
            .and_then(Option::as_ref)
            .ok_or_else(|| format!("image {img} is not hosted by this process"))
    }

    /// The checked resolver: image `img`'s window `seg`, good for an
    /// `access` of `len` bytes at `off` — image hosted, segment exists,
    /// `off + len` (checked) inside it, aligned for an AMO. Local callers
    /// panic on the refusal; the ingress server poisons with it.
    #[inline(always)]
    pub(super) fn window(
        &self,
        access: Access,
        img: usize,
        seg: usize,
        off: u64,
        len: usize,
    ) -> Result<Window, String> {
        let segs = self.slot(img)?.segs.read();
        let window = entry(&segs, img, seg, SegmentId(seg))?;
        window.check(access, off, len)?;
        Ok(window.clone())
    }

    /// Image `img`'s flag cell `flag`, if it hosts one.
    #[inline(always)]
    pub(super) fn flag(&self, img: usize, flag: usize) -> Result<FlagCell, String> {
        entry(&self.slot(img)?.flags.read(), img, flag, FlagId(flag)).cloned()
    }

    /// Image `img`'s tables, held for the length of an active-message
    /// batch: every op is checked and applied against one snapshot.
    pub(super) fn tables(&self, img: usize) -> Result<Tables<'_>, String> {
        let slot = self.slot(img)?;
        Ok(Tables {
            img,
            segs: slot.segs.read(),
            flags: slot.flags.read(),
        })
    }

    /// With the shm tier on, windows come from the shared arena so
    /// same-host peers can address them directly. When the shared side
    /// cannot hold one more (directory full, or the arena is exhausted —
    /// see `SocketConfig::shm_bytes_per_image`), the window spills to this
    /// process's heap and its directory entry stays unpublished: the
    /// shared directory is the single source of truth, so both sides agree
    /// without a handshake (DESIGN.md §3.2b, "unpublished window").
    pub(super) fn alloc_segment(&self, me: ProcId, bytes: usize) -> SegmentId {
        let slot = self
            .slot(me.index())
            .unwrap_or_else(|_| panic!("alloc_segment: image {me:?} not hosted here"));
        let mut segs = slot.segs.write();
        let id = segs.len();
        segs.push(
            match self.shm.as_ref().map(|s| s.alloc(slot.local, id, bytes)) {
                Some(Ok(window)) => Window::Shm(window),
                // Peers rendezvous through the bootstrap segment: it may not spill.
                Some(Err(e)) if id < crate::bootstrap::NUM_SEGS => {
                    panic!("image {} bootstrap segment: {e}", me.index())
                }
                _ => Window::Heap(Arc::new(SharedBytes::new(bytes))),
            },
        );
        SegmentId(id)
    }

    /// The shared flag table is sized at segment creation; flags past it
    /// are heap cells reached over the wire. The index alone decides the
    /// backing, so same-host peers agree on which side of the boundary a
    /// flag lives without a handshake.
    pub(super) fn alloc_flags(&self, me: ProcId, count: usize) -> FlagId {
        let slot = self
            .slot(me.index())
            .unwrap_or_else(|_| panic!("alloc_flags: image {me:?} not hosted here"));
        let mut flags = slot.flags.write();
        let id = flags.len();
        for k in id..id + count {
            flags.push(match &self.shm {
                Some(s) if k < shm::MAX_FLAGS => FlagCell::Shm(s.flag(slot.local, k)),
                _ => FlagCell::heap(),
            });
        }
        FlagId(id)
    }

    /// Recovery reset to the post-bootstrap shape a freshly-joined process
    /// has: bootstrap segment + control flags only, zeroed; in the shared
    /// segment every later directory entry unpublished, the whole flag
    /// table zeroed and the arena rolled back, so re-allocated segments
    /// land where peers expect them.
    pub(super) fn reset(&self) {
        for slot in self.slots.iter().flatten() {
            let mut segs = slot.segs.write();
            segs.truncate(crate::bootstrap::NUM_SEGS);
            let boot = &segs[crate::bootstrap::SEG.0];
            boot.write(0, &vec![0u8; boot.len()]);
            let mut flags = slot.flags.write();
            flags.truncate(crate::bootstrap::NUM_FLAGS);
            for f in flags.iter() {
                f.cell().store(0, Ordering::Release);
            }
        }
        if let Some(s) = &self.shm {
            s.reset(crate::bootstrap::NUM_SEGS);
        }
    }
}

/// One hosted image's tables, read-locked (see [`Store::tables`]).
pub(super) struct Tables<'a> {
    pub(super) img: usize,
    segs: RwLockReadGuard<'a, Vec<Window>>,
    flags: RwLockReadGuard<'a, Vec<FlagCell>>,
}

impl Tables<'_> {
    pub(super) fn window(&self, seg: SegmentId) -> Result<&Window, String> {
        entry(&self.segs, self.img, seg.0, seg)
    }

    pub(super) fn flag(&self, flag: FlagId) -> Result<&FlagCell, String> {
        entry(&self.flags, self.img, flag.0, flag)
    }

    /// Would `op` apply? Every field of it is checked as
    /// [`Store::window`] and [`Store::flag`] check a lone request, and
    /// nothing is touched.
    pub(super) fn check(&self, op: &AmOp) -> Result<(), String> {
        match op {
            AmOp::Put { seg, off, data } | AmOp::PutFlag { seg, off, data, .. } => self
                .window(*seg)?
                .check(Access::Put, *off as u64, data.len())?,
            AmOp::AmoAdd { seg, off, .. } => {
                self.window(*seg)?.check(Access::Amo, *off as u64, 8)?
            }
            AmOp::FlagAdd { .. } => {}
        }
        match op {
            AmOp::FlagAdd { flag, .. } | AmOp::PutFlag { flag, .. } => self.flag(*flag).map(drop),
            AmOp::Put { .. } | AmOp::AmoAdd { .. } => Ok(()),
        }
    }
}
