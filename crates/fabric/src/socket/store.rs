//! Hosted storage: the windows and flag cells of the images this process
//! hosts, the one checked resolver every request for them goes through,
//! and allocation.
//!
//! Owns the [`Tables`] — the hosted images' windows and cells, and the
//! slots its same-host peers' mapped segments are kept in — this process's
//! shared segment (arena, directory, flag table) and the spill decision
//! taken at allocation. A resolve goes through the calling thread's view
//! of the tables (`seg::Tables`): one generation load in steady state, no
//! lock and no reference count, for an image thread and an ingress thread
//! alike; allocation, the recovery reset and a peer's (re)mapping are what
//! move a generation. Whether a request is served here at all is
//! [`route`](super::route)'s call, and a mapped peer's windows are resolved
//! against *its* directory, not this one. It may not touch liveness, the
//! pending table or a socket.

use super::shm;
use crate::am::AmOp;
use crate::seg::{Access, FlagCell, FlagId, Held, SegmentId, Tables, Window};
use crate::stats::FabricStats;
use caf_topology::ProcId;
use std::io::Write;
use std::rc::Rc;
use std::sync::atomic::Ordering;
use std::sync::Once;

/// Everything this process hosts. Requests name a *global* image index;
/// one this process does not host is refused, never a panic.
pub(super) struct Store {
    /// This process's rank, for the spill report.
    rank: usize,
    pub(super) tables: Tables,
    /// This process's shared-memory segment (`None`: tier disabled,
    /// single-process fleet, or unsupported platform).
    shm: Option<shm::NodeShm>,
}

/// An allocation fell out of the shared segment: say so once per process,
/// naming the rank — every later one only counts (`shm_spilled_*`).
fn report_spill(rank: usize, what: std::fmt::Arguments<'_>) {
    static FIRST: Once = Once::new();
    FIRST.call_once(|| {
        let line = format!(
            "caf-socket: process {rank} spills out of its shared segment: {what}. What spills \
             lives on this process's heap and is reached over the wire; every spill is counted \
             (shm_spilled_windows, shm_spilled_flags), this first one reported.\n"
        );
        // One write: the members of a fleet share a stderr.
        let _ = std::io::stderr().write_all(line.as_bytes());
    });
}

impl Store {
    /// Bootstrap storage (segment 0 and the control flags) for `hosted`,
    /// in rank order, out of `n_images` fleet-wide, in process `rank` of
    /// `n_procs`. With a shared segment, every hosted window lives in it
    /// so same-host peers (and direct-landing wire puts) reach it without
    /// staging.
    pub(super) fn new(
        n_images: usize,
        hosted: &[ProcId],
        (rank, n_procs): (usize, usize),
        shm: Option<shm::NodeShm>,
        stats: &FabricStats,
    ) -> Store {
        let tables = Tables::new(n_images, hosted, n_procs);
        let store = Store { rank, tables, shm };
        for img in hosted {
            store.alloc_segment(*img, n_images * crate::bootstrap::SLOT_BYTES, stats);
            store.alloc_flags(*img, crate::bootstrap::NUM_FLAGS, stats);
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
    ) -> Result<Rc<Window>, String> {
        let window = self.tables.with_image(img, |held| held.window(seg))?;
        window.check(access, off, len)?;
        Ok(window)
    }

    /// Image `img`'s flag cell `flag`, if it hosts one.
    #[inline(always)]
    pub(super) fn flag(&self, img: usize, flag: usize) -> Result<Rc<FlagCell>, String> {
        self.tables.flag(img, flag)
    }

    /// Would `op` apply to the image `held`? Every field of it is checked
    /// as [`Store::window`] and [`Store::flag`] check a lone request, and
    /// nothing is touched.
    pub(super) fn check(held: &mut Held<'_>, op: &AmOp) -> Result<(), String> {
        match op {
            AmOp::Put { seg, off, data } | AmOp::PutFlag { seg, off, data, .. } => {
                (held.window(seg.0)?).check(Access::Put, *off as u64, data.len())?
            }
            AmOp::AmoAdd { seg, off, .. } => {
                held.window(seg.0)?.check(Access::Amo, *off as u64, 8)?
            }
            AmOp::FlagAdd { .. } => {}
        }
        match op {
            AmOp::FlagAdd { flag, .. } | AmOp::PutFlag { flag, .. } => held.flag(flag.0).map(drop),
            AmOp::Put { .. } | AmOp::AmoAdd { .. } => Ok(()),
        }
    }

    /// With the shm tier on, windows come from the shared arena so
    /// same-host peers can address them directly. When the shared side
    /// cannot hold one more (directory full, or the arena is exhausted —
    /// see `SocketConfig::shm_bytes_per_image`), the window spills to this
    /// process's heap and its directory entry stays unpublished: the
    /// shared directory is the single source of truth, so both sides agree
    /// without a handshake (DESIGN.md §3.2b, "unpublished window"). A
    /// spill is counted and, the first time in a process, reported.
    pub(super) fn alloc_segment(&self, me: ProcId, bytes: usize, stats: &FabricStats) -> SegmentId {
        let image = (self.tables.image(me.index()))
            .unwrap_or_else(|_| panic!("alloc_segment: image {me:?} not hosted here"));
        image.push_segment(bytes, |id| {
            match self.shm.as_ref().map(|s| s.alloc(image.local(), id, bytes)) {
                Some(Ok(window)) => return window,
                // Peers rendezvous through the bootstrap segment: it may not spill.
                Some(Err(e)) if id < crate::bootstrap::NUM_SEGS => {
                    panic!("image {} bootstrap segment: {e}", me.index())
                }
                Some(Err(why)) => {
                    stats.shm_spilled_windows.fetch_add(1, Ordering::Relaxed);
                    let what = format_args!("image {}'s seg{id} does not fit: {why}", me.index());
                    report_spill(self.rank, what);
                }
                None => {}
            }
            Window::heap(bytes)
        })
    }

    /// The shared flag table is sized at segment creation; flags past it
    /// are heap cells reached over the wire. The index alone decides the
    /// backing, so same-host peers agree on which side of the boundary a
    /// flag lives without a handshake.
    pub(super) fn alloc_flags(&self, me: ProcId, count: usize, stats: &FabricStats) -> FlagId {
        let image = (self.tables.image(me.index()))
            .unwrap_or_else(|_| panic!("alloc_flags: image {me:?} not hosted here"));
        let first = image.push_flags(count, |k| match &self.shm {
            Some(s) if k < shm::MAX_FLAGS => s.flag(image.local(), k),
            _ => FlagCell::heap(),
        });
        let spilled = (first.0 + count).saturating_sub(first.0.max(shm::MAX_FLAGS));
        if self.shm.is_some() && spilled > 0 {
            (stats.shm_spilled_flags).fetch_add(spilled as u64, Ordering::Relaxed);
            let (img, max) = (me.index(), shm::MAX_FLAGS);
            let what =
                format_args!("image {img}'s flags from flag{max} on are past its flag table");
            report_spill(self.rank, what);
        }
        first
    }

    /// Recovery reset to the post-bootstrap shape a freshly-joined process
    /// has: bootstrap segment + control flags only, zeroed; in the shared
    /// segment every later directory entry unpublished, the whole flag
    /// table zeroed and the arena rolled back, so re-allocated segments
    /// land where peers expect them.
    pub(super) fn reset(&self) {
        (self.tables).reset(crate::bootstrap::NUM_SEGS, crate::bootstrap::NUM_FLAGS);
        if let Some(s) = &self.shm {
            s.reset(crate::bootstrap::NUM_SEGS);
        }
    }
}
