//! The routing decision: does an op reach its target through this
//! process's own memory, through a same-host peer's mapped segment, or
//! over the wire? It is taken here, once, for every data operation
//! (DESIGN.md §3.2b has the resulting table).
//!
//! `SocketFabric::route` is the only code that reads the image→process
//! map, the mapped-peer table, peer liveness *for routing* and a peer's
//! wire debt; its four typed fronts (`route_span`, `route_flag`,
//! `route_put_flag`, `route_batch`) add the one question that depends on
//! what is addressed — is it published? — and hand back the window, flag
//! cell or landing. The two fall-through rules live here and nowhere else:
//!
//! * **Unpublished window.** A window its owner spilled to the heap
//!   (directory full, arena exhausted) or a flag past the shared table
//!   (`shm::MAX_FLAGS`) exists only in the owner's process: the op takes
//!   the wire, even between mapped peers.
//! * **Wire debt.** A signal — a flag add, a signalled put, or an
//!   active-message batch, whose flags publish data — may not pass a
//!   payload still travelling by frame. While any request to the peer's
//!   process is unacked (corked or in flight), signals to it take the
//!   wire too, where the connection's
//!   send order restores the `put_nb` point-to-point contract. Acks are
//!   sent after the remote write lands, so zero debt means every earlier
//!   wire put has been applied.
//!
//! The decision allocates nothing and, in steady state, takes no lock and
//! touches no shared reference count: an own-process target costs one
//! generation load (its image's tables, through the calling thread's view
//! — `seg::Tables`), a mapped one a generation load for the peer's
//! mapping, a liveness load, for a signal a load of the peer's wire debt
//! (an atomic the fabric owns, the peer's `Egress` counts on), and the
//! acquire-load of the directory entry the op addresses. What it hands to
//! a direct arm — a [`Window`] or [`FlagCell`], own or mapped alike — is
//! held through the thread's own handles ([`Local`]). An op to a *mapped*
//! peer that goes by wire because of the first rule is counted
//! (`wire_fallback_ops`): the tier never falls through silently.

use super::shm::{self, PeerShm};
use super::{SocketFabric, PEER_DEAD};
use crate::am::{self, AmOp};
use crate::seg::{bump_flag, Access, FlagCell, FlagId, Held, Local, SegmentId, Window};
use caf_topology::ProcId;
use std::cell::RefCell;
use std::rc::Rc;
use std::sync::atomic::{fence, Ordering};

/// Whose memory a direct op touches. The memory operation is the same;
/// the tier picks the `FabricStats` counter and the fence.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub(super) enum Tier {
    /// An image of this process (the caller itself included).
    Own,
    /// An image of a same-host process whose segment is mapped here.
    Mapped,
}

pub(super) enum Route<T> {
    /// Apply to the target with plain memory operations.
    Direct(T, Tier),
    /// Send a frame to the hosting process.
    Wire,
}

/// How an image is reached, before asking whether the thing addressed at
/// it is published.
enum Reach {
    Own,
    /// Through the peer's mapping, at this image slot of it.
    Mapped(Rc<PeerShm>, usize),
    Wire,
}

impl SocketFabric {
    /// The decision. `signal`: the op publishes data at `img` (subject to
    /// the wire-debt rule). `shareable`: `false` when no mapping can hold
    /// what is addressed, known from its index alone. Order matters: what
    /// no mapping could hold goes by wire whatever the peer's state, a
    /// dead mapped peer panics before any byte moves, and debt is read
    /// only for a signal.
    ///
    /// Forced inline, like the fronts and the store's resolver: they live
    /// in other modules (other codegen units) than the ops, and left to a
    /// hint they stayed calls returning through memory — 10-15 ns on an
    /// op that takes 60.
    #[inline(always)]
    fn route(&self, me: ProcId, img: ProcId, signal: bool, shareable: bool) -> Reach {
        let rank = self.proc_of_image[img.index()];
        if rank == self.node_rank {
            return Reach::Own;
        }
        let Some(peer) = self.store.tables.peer(rank) else {
            return Reach::Wire;
        };
        if !shareable {
            self.lane(me).record_wire_fallback();
            return Reach::Wire;
        }
        if self.peer_state[rank].load(Ordering::Acquire) == PEER_DEAD {
            // Never serviced through shared memory: poison wins, loudly.
            self.poisoned.check(me, "shared-memory op to a dead peer");
            panic!(
                "image {} shared-memory op to {}: peer is dead",
                me.index() + 1,
                self.peer_desc(rank)
            );
        }
        if signal && self.wire_debt[rank].load(Ordering::SeqCst) > 0 {
            return Reach::Wire;
        }
        Reach::Mapped(peer, self.local_of_image[img.index()] as usize)
    }

    /// Route a put, get or AMO (`access`) of `len` bytes at `off` of
    /// `img`'s window `seg`. An own-process target that does not resolve
    /// panics as the access itself would.
    #[inline(always)]
    pub(super) fn route_span(
        &self,
        me: ProcId,
        img: ProcId,
        access: Access,
        seg: SegmentId,
        off: usize,
        len: usize,
    ) -> Route<Window<Local>> {
        match self.route(me, img, false, true) {
            Reach::Own => {
                let window = (self.store).window(access, img.index(), seg.0, off as u64, len);
                let window = window.unwrap_or_else(|e| panic!("{e}"));
                Route::Direct(window.local(), Tier::Own)
            }
            Reach::Mapped(peer, local) => match PeerShm::window_of(peer, local, seg.0) {
                Some(window) => Route::Direct(window, Tier::Mapped),
                None => {
                    self.lane(me).record_wire_fallback();
                    Route::Wire
                }
            },
            Reach::Wire => Route::Wire,
        }
    }

    /// Route a flag add.
    #[inline(always)]
    pub(super) fn route_flag(
        &self,
        me: ProcId,
        img: ProcId,
        flag: FlagId,
    ) -> Route<FlagCell<Local>> {
        match self.route(me, img, true, flag.0 < shm::MAX_FLAGS) {
            Reach::Own => {
                let cell = self.store.flag(img.index(), flag.0);
                Route::Direct(cell.unwrap_or_else(|e| panic!("{e}")).local(), Tier::Own)
            }
            Reach::Mapped(peer, local) => {
                Route::Direct(PeerShm::flag_of(peer, local, flag.0), Tier::Mapped)
            }
            Reach::Wire => Route::Wire,
        }
    }

    /// Route a signalled put: `len` bytes at `off` of `img`'s window `seg`,
    /// then its flag `flag`. A signal, like a flag add; and like a batch,
    /// both halves must be reachable through the mapping, or the op takes
    /// the wire whole.
    #[inline(always)]
    pub(super) fn route_put_flag(
        &self,
        me: ProcId,
        img: ProcId,
        (seg, off, len): (SegmentId, usize, usize),
        flag: FlagId,
    ) -> Route<(Window<Local>, FlagCell<Local>)> {
        match self.route(me, img, true, flag.0 < shm::MAX_FLAGS) {
            Reach::Own => {
                let window = (self.store).window(Access::Put, img.index(), seg.0, off as u64, len);
                let window = window.unwrap_or_else(|e| panic!("{e}"));
                let cell = self.store.flag(img.index(), flag.0);
                let cell = cell.unwrap_or_else(|e| panic!("{e}"));
                Route::Direct((window.local(), cell.local()), Tier::Own)
            }
            Reach::Mapped(peer, local) => match PeerShm::window_of(peer.clone(), local, seg.0) {
                Some(window) => {
                    let cell = PeerShm::flag_of(peer, local, flag.0);
                    Route::Direct((window, cell), Tier::Mapped)
                }
                None => {
                    self.lane(me).record_wire_fallback();
                    Route::Wire
                }
            },
            Reach::Wire => Route::Wire,
        }
    }

    /// Route an active-message batch. Every op must be reachable through
    /// the mapping, or the whole batch travels as one frame and keeps its
    /// vector order.
    #[inline]
    pub(super) fn route_batch(&self, me: ProcId, img: ProcId, ops: &[AmOp]) -> Route<Landing> {
        match self.route(me, img, true, true) {
            Reach::Own => Route::Direct(Landing::Own(img.index()), Tier::Own),
            Reach::Mapped(peer, local) => {
                let published = |seg: &SegmentId| peer.published(local, seg.0).is_some();
                let shared = ops.iter().all(|op| match op {
                    AmOp::Put { seg, .. } | AmOp::AmoAdd { seg, .. } => published(seg),
                    AmOp::FlagAdd { flag, .. } => flag.0 < shm::MAX_FLAGS,
                    AmOp::PutFlag { seg, flag, .. } => flag.0 < shm::MAX_FLAGS && published(seg),
                });
                if !shared {
                    self.lane(me).record_wire_fallback();
                    return Route::Wire;
                }
                Route::Direct(Landing::Mapped(peer, local, img.index()), Tier::Mapped)
            }
            Reach::Wire => Route::Wire,
        }
    }
}

/// Apply `ops`, sent by image `from`, to hosted image `img`, whose tables
/// the caller holds for the batch; `posted` as for `land_flag`.
pub(super) fn apply_held(
    fab: &SocketFabric,
    held: &mut Held<'_>,
    (from, img): (usize, usize),
    posted: Option<u64>,
    ops: &[AmOp],
) {
    let held = RefCell::new(held);
    am::apply(
        ops,
        |seg| {
            (held.borrow_mut().window(seg.0))
                .unwrap_or_else(|e| panic!("{e}"))
                .local()
        },
        |flag, delta| {
            let cell = (held.borrow_mut().flag(flag.0)).unwrap_or_else(|e| panic!("{e}"));
            fab.land_flag(cell.cell(), from, img, flag, delta, posted);
        },
    )
}

/// Where a batch lands directly.
pub(super) enum Landing {
    /// This hosted image.
    Own(usize),
    /// A mapped peer, this slot of it, which is this global image.
    Mapped(Rc<PeerShm>, usize, usize),
}

impl Landing {
    /// Apply `ops`, sent by image `from` of this process at `posted` (when
    /// traced), in vector order.
    pub(super) fn apply(&self, fab: &SocketFabric, from: usize, posted: Option<u64>, ops: &[AmOp]) {
        match self {
            Landing::Own(img) => (fab.store.tables)
                .with_image(*img, |held| {
                    apply_held(fab, held, (from, *img), posted, ops);
                    Ok(())
                })
                .unwrap_or_else(|e| panic!("{e}")),
            // Windows only unpublish inside the recovery fence, when no
            // image issues traffic, so the lookup cannot miss.
            Landing::Mapped(peer, local, img) => am::apply(
                ops,
                |seg| {
                    let window = PeerShm::window_of(peer.clone(), *local, seg.0);
                    window.expect("published when routed")
                },
                |flag, delta| {
                    fence(Ordering::Release);
                    let cell = PeerShm::flag_of(peer.clone(), *local, flag.0);
                    bump_flag(cell.cell(), *img, flag, delta);
                },
            ),
        }
    }
}

#[cfg(test)]
#[cfg(unix)]
mod tests {
    use super::*;
    use crate::socket::testing::{fleet, fleet_with};
    use crate::socket::SocketConfig;
    use crate::{bootstrap, Fabric, StatsSnapshot};
    use caf_topology::{presets, ImageMap, Placement};
    use std::panic::{catch_unwind, AssertUnwindSafe};
    use std::time::Duration;

    const SEG0: SegmentId = bootstrap::SEG;
    const FLAG: FlagId = FlagId(2);
    const OVER_TABLE: FlagId = FlagId(shm::MAX_FLAGS);

    /// Tiny arenas, so a 64 KiB segment spills; a heartbeat slow enough
    /// that a corked `put_nb` stays corked — wire debt, held without
    /// timing — yet short enough to sit out at teardown.
    fn cfg() -> SocketConfig {
        SocketConfig {
            shm_bytes_per_image: 4096,
            heartbeat_period: Duration::from_secs(2),
            peer_timeout: Duration::from_secs(60),
            ..SocketConfig::default()
        }
    }

    fn tier<T>(route: Route<T>) -> Option<Tier> {
        match route {
            Route::Direct(_, tier) => Some(tier),
            Route::Wire => None,
        }
    }

    /// The three kinds of op the table has rows for, all from `me`.
    struct From<'a>(&'a SocketFabric, ProcId);

    impl From<'_> {
        /// A put, a get and an AMO agree on every cell: one answer.
        fn span(&self, img: usize, seg: SegmentId) -> Option<Tier> {
            let all = [Access::Put, Access::Get, Access::Amo]
                .map(|access| tier(self.0.route_span(self.1, ProcId(img), access, seg, 0, 8)));
            assert!(all[0] == all[1] && all[1] == all[2], "{all:?}");
            all[0]
        }

        fn flag(&self, img: usize, flag: FlagId) -> Option<Tier> {
            tier(self.0.route_flag(self.1, ProcId(img), flag))
        }

        /// A batch that touches window `seg` and flag `flag`.
        fn batch(&self, img: usize, seg: SegmentId, flag: FlagId) -> Option<Tier> {
            let ops = [
                AmOp::AmoAdd {
                    seg,
                    off: 0,
                    delta: 1,
                },
                AmOp::FlagAdd { flag, delta: 1 },
            ];
            tier(self.0.route_batch(self.1, ProcId(img), &ops))
        }
    }

    #[test]
    fn the_route_table() {
        // Three processes, two images each. 0 and 1 map each other; 2 runs
        // with the tier off, so nobody maps it and it maps nobody.
        let map = ImageMap::new(presets::mini(3, 2), 6, &Placement::Packed);
        let off = SocketConfig {
            shm: false,
            ..cfg()
        };
        let fabrics = fleet_with(&map, &[cfg(), cfg(), off]);
        let (own, mapped, wire) = (Some(Tier::Own), Some(Tier::Mapped), None);
        // Image 2 (process 1): one more published window, then one spilled.
        let published = fabrics[1].alloc_segment(ProcId(2), 64);
        let spilled = fabrics[1].alloc_segment(ProcId(2), 1 << 16);
        let from0 = From(&fabrics[0], ProcId(0));

        // Self, and the other image of the own process.
        for img in [0, 1] {
            assert_eq!(from0.span(img, SEG0), own);
            assert_eq!(from0.flag(img, FLAG), own);
            assert_eq!(from0.batch(img, SEG0, FLAG), own);
        }
        // Mapped peer, everything published.
        for seg in [SEG0, published] {
            assert_eq!(from0.span(2, seg), mapped);
            assert_eq!(from0.batch(2, seg, FLAG), mapped);
        }
        assert_eq!(from0.flag(2, FLAG), mapped);
        // Mapped peer, spilled window: what touches it takes the wire.
        assert_eq!(from0.span(2, spilled), wire);
        assert_eq!(from0.batch(2, spilled, FLAG), wire);
        // Mapped peer, flag past the shared table.
        assert_eq!(from0.flag(2, OVER_TABLE), wire);
        assert_eq!(from0.batch(2, SEG0, OVER_TABLE), wire);
        // Mapped peer owed an ack (the put is corked): signals yield to
        // the debt, data does not, and `quiet` lifts it.
        fabrics[0].put_nb(ProcId(0), ProcId(2), spilled, 0, &[1; 8]);
        assert_eq!(from0.span(2, SEG0), mapped);
        assert_eq!(from0.flag(2, FLAG), wire);
        assert_eq!(from0.batch(2, SEG0, FLAG), wire);
        fabrics[0].quiet(ProcId(0));
        assert_eq!(from0.flag(2, FLAG), mapped);
        assert_eq!(from0.batch(2, SEG0, FLAG), mapped);
        // A peer that announced no segment; and, seen from it (`shm:
        // false`), everyone else.
        assert_eq!(from0.span(4, SEG0), wire);
        assert_eq!(from0.flag(4, FLAG), wire);
        assert_eq!(from0.batch(4, SEG0, FLAG), wire);
        let from4 = From(&fabrics[2], ProcId(4));
        assert_eq!(from4.span(0, SEG0), wire);
        assert_eq!(from4.flag(0, FLAG), wire);
        assert_eq!(from4.batch(0, SEG0, FLAG), wire);
        assert_eq!(from4.span(5, SEG0), own);
        // A dead mapped peer panics, whatever is addressed at it —
        // except what no mapping could hold anyway.
        fabrics[0].declare_dead(1, "route table drill");
        let dies = |route: &dyn Fn() -> Option<Tier>| {
            let panic = catch_unwind(AssertUnwindSafe(route)).expect_err("routed to a dead peer");
            let msg = crate::panic_message(panic.as_ref());
            assert!(msg.contains("shared-memory op to a dead peer"), "{msg}");
        };
        dies(&|| from0.span(2, SEG0));
        dies(&|| from0.span(2, spilled));
        dies(&|| from0.flag(2, FLAG));
        dies(&|| from0.batch(2, SEG0, OVER_TABLE));
        assert_eq!(from0.flag(2, OVER_TABLE), wire);
        assert_eq!(from0.span(1, SEG0), own);
        for f in &fabrics {
            f.shutdown();
        }
    }

    /// One fixed program from image 0: every op to itself, to its sibling
    /// and to an image of the other process, then the unpublished-window,
    /// wire-debt and unpublished-flag cases. Returns process 0's counters.
    ///
    /// Nothing in it is decided by timing. The one signal that goes by
    /// wire *because of debt* is the `flag_add` right behind the spilled
    /// `put_nb`: that put is still corked (nothing flushes a lone data
    /// frame under this heartbeat), so the debt is held, not raced for. The
    /// flag then flushes the cork on the idle link, and whether the peer is
    /// still owed an ack after that is the peer's business — so the batch
    /// that follows names a flag past the shared table and travels by frame
    /// whatever the debt, and a `quiet` before it settles *why* it does
    /// (`wire_fallback_ops` counts a fall-through, not the debt rule).
    /// (`the_route_table` pins a batch under debt.)
    fn mixed_program(cfg: &SocketConfig) -> StatsSnapshot {
        let map = ImageMap::new(presets::mini(2, 2), 4, &Placement::Packed);
        let fabrics = fleet(&map, cfg);
        let f0 = &fabrics[0];
        let (me, far) = (ProcId(0), ProcId(2));
        let spilled = fabrics[1].alloc_segment(far, 1 << 16);
        fabrics[1].alloc_flags(far, shm::MAX_FLAGS);
        let word = 7u64.to_ne_bytes();
        let mut out = [0u8; 8];
        for dst in [me, ProcId(1), far] {
            f0.put(me, dst, SEG0, 0, &word);
            f0.put_nb(me, dst, SEG0, 8, &word);
            f0.get(me, dst, SEG0, 0, &mut out);
            f0.amo_fetch_add_u64(me, dst, SEG0, 16, 1);
            f0.amo_cas_u64(me, dst, SEG0, 16, 1, 5);
            f0.flag_add(me, dst, FLAG, 1);
            let batch = [
                AmOp::Put {
                    seg: SEG0,
                    off: 24,
                    data: vec![1; 16],
                },
                AmOp::AmoAdd {
                    seg: SEG0,
                    off: 16,
                    delta: 2,
                },
                AmOp::PutFlag {
                    seg: SEG0,
                    off: 40,
                    data: vec![2; 8],
                    flag: FlagId(3),
                    delta: 1,
                },
                AmOp::FlagAdd {
                    flag: FLAG,
                    delta: 1,
                },
            ];
            f0.am_deliver(me, dst, &batch);
        }
        f0.quiet(me);
        f0.put(me, far, spilled, 0, &word);
        f0.get(me, far, spilled, 0, &mut out);
        f0.put_nb(me, far, spilled, 8, &word);
        f0.flag_add(me, far, FLAG, 1);
        f0.quiet(me);
        let flag = AmOp::FlagAdd {
            flag: OVER_TABLE,
            delta: 1,
        };
        f0.am_deliver(me, far, &[flag]);
        f0.quiet(me);
        f0.flag_add(me, far, FLAG, 1);
        let stats = f0.stats().snapshot();
        for f in &fabrics {
            f.shutdown();
        }
        stats
    }

    /// Two nodes of four images, every image issuing a known mix on every
    /// tier at once: each process's snapshot — four lanes, written with
    /// plain loads and stores, plus the shared cells its service threads
    /// add to — is the closed form, field by field.
    ///
    /// Signals race a sibling's wire debt for their tier (the debt is per
    /// peer *process*), so the phases that owe acks and the phase that
    /// signals over the mapping are kept apart by a barrier of the test's
    /// own; nothing else is timed.
    #[test]
    fn lanes_and_shared_cells_add_up_to_the_closed_form() {
        use crate::socket::testing::run_fleet;
        const ROUNDS: u64 = 300;
        let map = ImageMap::new(presets::mini(2, 4), 8, &Placement::Packed);
        let fabrics = fleet(&map, &cfg());
        let phase = std::sync::Arc::new(std::sync::Barrier::new(8));
        run_fleet(&fabrics, move |f, me| {
            let sibling = ProcId(me.index() / 4 * 4 + (me.index() + 1) % 4);
            let far = ProcId((me.index() + 4) % 8);
            // Same allocations on every image, so ids agree fleet-wide.
            let spilled = f.alloc_segment(me, 1 << 16);
            let over_table = f.alloc_flags(me, shm::MAX_FLAGS).nth(shm::MAX_FLAGS - 1);
            phase.wait();
            let word = 7u64.to_ne_bytes();
            let mut out = [0u8; 8];
            // Own tier and mapped tier; no frame, so no debt.
            for _ in 0..ROUNDS {
                f.put(me, sibling, SEG0, 8 * me.index(), &word);
                f.put_nb(me, sibling, SEG0, 8 * me.index(), &word);
                f.get(me, sibling, SEG0, 0, &mut out);
                f.amo_fetch_add_u64(me, sibling, SEG0, 64, 1);
                f.flag_add(me, sibling, FLAG, 1);
                f.put(me, me, SEG0, 72, &word); // own image: never counted
                f.put(me, far, SEG0, 8 * me.index(), &word);
                f.put_nb(me, far, SEG0, 8 * me.index(), &word);
                f.get(me, far, SEG0, 0, &mut out);
                f.amo_cas_u64(me, far, SEG0, 64, 0, 1);
                f.flag_add(me, far, FLAG, 1);
            }
            f.flag_wait_ge(me, FLAG, 2 * ROUNDS);
            phase.wait();
            // The wire, between mapped peers: what is addressed is
            // unpublished. No signal a mapping could carry is sent here.
            for _ in 0..ROUNDS {
                f.put_nb(me, far, spilled, 0, &word);
                f.put(me, far, spilled, 8, &word);
                f.get(me, far, spilled, 8, &mut out);
                f.amo_fetch_add_u64(me, far, spilled, 16, 1);
                f.flag_add(me, far, over_table, 1);
            }
            f.quiet(me);
            f.flag_wait_ge(me, over_table, ROUNDS);
            phase.wait();
            f.image_done(me);
        });
        let (images, n) = (4, ROUNDS);
        for f in &fabrics {
            let s = f.stats().snapshot();
            let want = StatsSnapshot {
                puts_intra: images * 2 * n,
                gets_intra: images * n,
                flags_intra: images * n,
                bytes_intra: images * 3 * n * 8,
                puts_inter: images * 2 * n,
                gets_inter: images * n,
                flags_inter: images * n,
                bytes_inter: images * 3 * n * 8,
                shm_puts: images * 2 * n,
                shm_bytes: images * 3 * n * 8,
                // A flag add and an AMO per round.
                shm_flag_ops: images * 2 * n,
                amos: images * 3 * n,
                flag_waits: images * 2,
                // Own, mapped and wire: each completed, by the image or by
                // the response reader.
                puts_nb_injected: images * 3 * n,
                puts_nb_completed: images * 3 * n,
                shm_spilled_windows: images,
                shm_spilled_flags: images * 4,
                wire_fallback_ops: images * 5 * n,
                // Frames are the cork's business (and the heartbeat's),
                // retries the dialer's.
                wire_frames_tx: s.wire_frames_tx,
                wire_frames_rx: s.wire_frames_rx,
                wire_bytes_tx: s.wire_bytes_tx,
                wire_bytes_rx: s.wire_bytes_rx,
                wire_retries: s.wire_retries,
                wire_reconnects: s.wire_reconnects,
                ..StatsSnapshot::default()
            };
            assert_eq!(s, want);
            assert!(s.wire_frames_tx >= images * 3 * n, "{s:?}");
            f.stats().reset();
            assert_eq!(f.stats().snapshot(), StatsSnapshot::default());
        }
    }

    /// The counters each tier takes are part of the contract
    /// (`fleet_report.json`, `/metrics`): the four op rows were recorded by
    /// running this program at the commit before the routing refactor and
    /// have not moved since (`wire_fallback_ops` joined the fourth later: on
    /// the shm fleet the tail's `put`, `get`, `put_nb` and over-table batch
    /// fall through for what they address — the `flag_add` behind the
    /// `put_nb` goes by wire for the debt, which is not a fall-through — and
    /// a wire fleet has no mapped peer to fall through from). Wire bytes
    /// are left out on the shm fleet — its `Open` frame carries a segment
    /// path whose length varies.
    ///
    /// The frame and byte pins moved once, when the cork began to fuse a
    /// `put_nb` with the `flag_add` behind it. Frames process 0 sends on
    /// the wire fleet, then and now:
    ///
    /// | | then | now |
    /// |---|---|---|
    /// | handshake | `Open` | `Open` |
    /// | loop, far image | `Put`, `Put` (nb), `Get`, `AmoFadd`, `AmoCas`, `FlagAdd`, `AmBatch` | the same seven: the blocking `get` flushes the `put_nb` before its flag is issued |
    /// | tail | `Put`, `Get`, `Put` (nb), `FlagAdd`, `AmBatch` | `Put`, `Get`, **`PutFlag`**, `AmBatch` |
    /// | after `quiet` | `FlagAdd` | `FlagAdd` |
    /// | frames | 14 | 13 |
    /// | bytes | 671 | 671 − 29 (the `FlagAdd` frame) + 16 (its `flag` and `delta` in the fused frame) = 658 |
    ///
    /// What it receives is what it did: one `Open`, and one response per
    /// request that has one (eleven in all, the fused frame's single ack
    /// where the `put_nb`'s was). On the shm fleet only the tail and the
    /// handshake touch the wire: `Open`, `Put`, `Get`, `PutFlag`, `AmBatch`
    /// where there were six.
    #[test]
    fn counters_per_tier_are_what_they_were() {
        let s = mixed_program(&cfg());
        let ops = |s: &StatsSnapshot| {
            [
                (s.puts_intra, s.puts_inter, s.bytes_intra, s.bytes_inter),
                (s.gets_intra, s.gets_inter, s.flags_intra, s.flags_inter),
                (s.puts_nb_injected, s.puts_nb_completed, s.amos, 0),
                (s.shm_puts, s.shm_bytes, s.shm_flag_ops, s.wire_fallback_ops),
            ]
        };
        let shm_fleet = [(2, 2, 24, 24), (1, 1, 1, 1), (3, 3, 6, 0), (4, 48, 7, 4)];
        assert_eq!(ops(&s), shm_fleet, "{s:?}");
        assert_eq!((s.wire_frames_tx, s.wire_frames_rx), (5, 5), "{s:?}");
        let s = mixed_program(&SocketConfig {
            shm: false,
            ..cfg()
        });
        let wire_fleet = [(2, 4, 24, 48), (1, 2, 1, 3), (3, 3, 6, 0), (0, 0, 0, 0)];
        assert_eq!(ops(&s), wire_fleet, "{s:?}");
        assert_eq!((s.wire_frames_tx, s.wire_frames_rx), (13, 11), "{s:?}");
        assert_eq!((s.wire_bytes_tx, s.wire_bytes_rx), (658, 187), "{s:?}");
    }
}
